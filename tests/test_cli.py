"""Tests for the command-line interface."""

from __future__ import annotations

import csv
from unittest import mock

import pytest

from repro.cli import build_parser, main
from repro.config.parameters import DRIParameters
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_command_parses(self):
        args = build_parser().parse_args(["table2"])
        assert args.command == "table2"

    def test_figure_commands_accept_common_options(self):
        args = build_parser().parse_args(
            ["figure3", "--benchmarks", "compress,fpppp", "--quick", "--instructions", "50000"]
        )
        assert args.command == "figure3"
        assert args.benchmarks == "compress,fpppp"
        assert args.quick
        assert args.instructions == 50000

    def test_figure_commands_accept_jobs_and_chunk(self):
        args = build_parser().parse_args(["figure4", "--jobs", "2", "--chunk", "8"])
        assert args.jobs == 2
        assert args.chunk == 8

    def test_chunk_defaults_to_adaptive(self):
        args = build_parser().parse_args(["figure3"])
        assert args.chunk is None

    def test_engine_choices_exclude_the_retired_kernel_engine(self):
        assert build_parser().parse_args(["figure3", "--engine", "scalar"]).engine == "scalar"
        for retired in ("kernel", "kernel-fused"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["figure3", "--engine", retired])

    def test_run_command_requires_known_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "vortex"])


class TestCommands:
    def test_table2_prints_columns(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "nmos_gated_vdd" in output
        assert "Relative read time" in output

    def test_ratios_prints_paper_targets(self, capsys):
        assert main(["ratios"]) == 0
        output = capsys.readouterr().out
        assert "~0.024" in output
        assert "~0.08" in output

    def test_run_prints_summary(self, capsys):
        exit_code = main(
            [
                "run",
                "compress",
                "--instructions",
                "60000",
                "--sense-interval",
                "5000",
                "--miss-bound",
                "40",
                "--size-bound",
                "1024",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "relative_energy_delay" in output
        assert "average_size_fraction" in output

    def test_run_writes_the_interval_trajectory(self, tmp_path, capsys):
        """``--trajectory`` writes one CSV row per interval, the finalized
        tail included, summing to the run's L1 counts; the printed table
        does not change."""
        argv = ["run", "compress", "--instructions", "60000", "--sense-interval", "5000",
                "--miss-bound", "40", "--size-bound", "1024"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        path = tmp_path / "trajectory.csv"
        assert main(argv + ["--trajectory", str(path)]) == 0
        assert capsys.readouterr().out == table
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            header, rows = reader.fieldnames, list(reader)
        assert header == ["index", "instructions", "accesses", "misses",
                          "size_bytes_during", "size_bytes_at_end", "resized"]
        result = Simulator(trace_instructions=60_000).run_dri(
            "compress", DRIParameters(miss_bound=40, size_bound=1024, sense_interval=5_000)
        )
        assert len(rows) == len(result.dri_stats.intervals) > 1
        assert sum(int(row["accesses"]) for row in rows) == result.l1_accesses
        assert sum(int(row["misses"]) for row in rows) == result.l1_misses
        assert [int(row["size_bytes_during"]) for row in rows] == result.dri_stats.size_trajectory()
        assert [int(row["index"]) for row in rows] == list(range(len(rows)))

    def test_figure3_quick_subset(self, capsys):
        exit_code = main(
            ["figure3", "--benchmarks", "compress", "--quick", "--instructions", "60000"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "compress" in output
        assert "Mean energy-delay reduction" in output

    def test_figure3_parallel_with_chunk(self, capsys):
        # The --jobs/--chunk path end to end: a pooled quick figure must
        # print the same kind of table the serial path does.
        exit_code = main(
            [
                "figure3",
                "--benchmarks",
                "compress",
                "--quick",
                "--instructions",
                "60000",
                "--jobs",
                "2",
                "--chunk",
                "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "compress" in output
        assert "Mean energy-delay reduction" in output

    def test_figure6_closes_every_sweep_it_builds(self, capsys):
        """The command's sweep and Figure 6's two siblings each run a pool
        and spill stores at ``--jobs 2``, and all three are closed; the
        64K-DM column costs no task (10 grid tasks plus 2 per sibling)."""
        argv = ["figure6", "--benchmarks", "compress", "--quick", "--instructions", "60000",
                "--jobs", "2"]
        with mock.patch.object(
            ParameterSweep, "__init__", autospec=True, side_effect=ParameterSweep.__init__
        ) as built:
            assert main(argv) == 0
        sweeps = [call.args[0] for call in built.call_args_list]
        assert len(sweeps) == 3
        for sweep in sweeps:
            assert sweep._executor is None and sweep._store_dir is None
        assert "campaign health: 14 tasks ok" in capsys.readouterr().err

    def test_unknown_benchmark_exits_with_message(self):
        with pytest.raises(SystemExit):
            main(["figure3", "--benchmarks", "nosuchbench", "--quick"])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "li", "--instructions", "4"], "--instructions"),
            (["figure3", "--instructions", "7", "--benchmarks", "li"], "--instructions"),
            (["run", "li", "--size-bound", "3000"], "--size-bound"),
            (["run", "li", "--sense-interval", "0"], "--sense-interval"),
            (["run", "li", "--miss-bound", "-1"], "--miss-bound"),
            (["run", "li", "--instructions", "20000", "--trajectory", "/nonexistent/t.csv"],
             "--trajectory"),
            (["figure3", "--quick", "--max-retries", "-1"], "--max-retries"),
            (["figure3", "--quick", "--max-retries", "-1", "--jobs", "2"], "--max-retries"),
            (["figure3", "--quick", "--chunk-timeout", "0"], "--chunk-timeout"),
            (["figure3", "--quick", "--chunk-timeout", "0", "--jobs", "2"], "--chunk-timeout"),
            (["figure3", "--quick", "--chunk", "0"], "--chunk"),
            (["figure3", "--quick", "--chunk", "0", "--jobs", "2"], "--chunk"),
            (["figure3", "--quick", "--chunk", "-3"], "--chunk"),
            (["figure3", "--quick", "--chunk", "-3", "--jobs", "2"], "--chunk"),
        ],
        ids=["run-instructions", "figure3-instructions", "size-bound", "sense-interval", "miss-bound",
             "trajectory", "max-retries-jobs1", "max-retries-jobs2", "chunk-timeout-jobs1",
             "chunk-timeout-jobs2", "chunk-zero-jobs1", "chunk-zero-jobs2", "chunk-negative-jobs1",
             "chunk-negative-jobs2"],
    )
    def test_bad_numeric_flag_exits_with_usage_error(self, argv, flag, capsys):
        # A usage error (status 2) naming the flag, not a ValueError
        # traceback, and raised before anything is simulated.
        simulated = AssertionError("simulated before the usage error")
        with mock.patch("repro.cli.ParameterSweep.evaluate", side_effect=simulated), \
                mock.patch("repro.cli.ParameterSweep.prefetch_iter", side_effect=simulated):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"error: argument {flag}: " in errors[0]
