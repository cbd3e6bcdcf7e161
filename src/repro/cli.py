"""Command-line interface: run the paper's experiments from a shell.

``python -m repro <command>`` exposes the library's experiment drivers
without writing any Python:

============  ==========================================================
Command       What it regenerates
============  ==========================================================
``table2``    Table 2 — gated-Vdd circuit trade-offs
``ratios``    Section 5.2.1 — dynamic-vs-leakage energy ratios
``figure3``   Figure 3 — base energy-delay and average cache size
``figure4``   Figure 4 — miss-bound sensitivity
``figure5``   Figure 5 — size-bound sensitivity
``figure6``   Figure 6 — 64K 4-way / 64K DM / 128K DM
``interval``  Section 5.6 — sense-interval robustness
``shootout``  Resize-policy zoo head-to-head over the Figure 3 suite
``policies``  List the registered resize policies and their options
``run``       One benchmark on one DRI configuration (quick look)
============  ==========================================================

``shootout`` and ``run`` accept policy *specs*: a registry name with
optional options, e.g. ``miss-bound``, ``hysteresis:consecutive=2`` or
``pid:kp=1.5,ki=0.1`` (see ``repro policies`` for the catalogue).
``run --trajectory PATH`` also writes the run's sense intervals as CSV
(``index,instructions,accesses,misses,size_bytes_during,size_bytes_at_end,resized``).

The architectural commands accept ``--benchmarks`` (comma-separated
names), ``--instructions`` (trace length), ``--quick`` (a reduced scale
for a fast sanity pass), ``--jobs`` (worker processes for the parameter
sweeps; 0 means all cores, clamped to the task count), ``--max-retries``
and ``--chunk-timeout`` (the pool's fault tolerance), and ``--engine``
(``auto``/``batched``/``scalar`` replay engine; ``auto`` means
``batched``).  Each command builds one sweep from these flags
(:meth:`~repro.simulation.experiments.ExperimentScale.sweep`; a bad value
is a usage error before anything is simulated), runs the driver on it,
closes it, and prints its health ledger to stderr.  With more than one
job the drivers flatten every (benchmark, grid point) pair into that
sweep's *persistent* worker pool — forked once per command, reused
across every grid and sensitivity pass — so the pool stays saturated
across benchmark boundaries and never pays repeated spin-up.  Output
goes to stdout as the same text tables the benchmark harness writes
under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from typing import List, NoReturn, Optional, Sequence, TextIO

from repro.analysis.report import (
    format_figure3,
    format_policy_shootout,
    format_sensitivity,
    format_table,
    format_table2,
)
from repro.config.parameters import DRIParameters, PolicySpec
from repro.dri.policies import policy_catalog
from repro.dri.stats import DRIStatistics
from repro.simulation.engine import ENGINE_KINDS
from repro.simulation.executor import DEFAULT_MAX_RETRIES
from repro.simulation.experiments import (
    DEFAULT_SCALE,
    DEFAULT_SHOOTOUT_POLICIES,
    QUICK_SCALE,
    ExperimentScale,
    figure3_experiment,
    figure4_experiment,
    figure5_experiment,
    figure6_experiment,
    policy_shootout,
    section521_ratios,
    section56_interval_experiment,
    table2_experiment,
)
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep
from repro.workloads.spec95 import benchmark_names
from repro.workloads.trace import DEFAULT_INSTRUCTIONS_PER_LINE


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    scale = QUICK_SCALE if args.quick else DEFAULT_SCALE
    if args.instructions is not None:
        scale = ExperimentScale(
            trace_instructions=args.instructions,
            sense_interval=max(1000, args.instructions // 48),
            seed=scale.seed,
            miss_bounds=scale.miss_bounds,
            size_bounds=scale.size_bounds,
        )
    return scale


def _benchmarks_from_args(args: argparse.Namespace) -> Optional[List[str]]:
    if not args.benchmarks:
        return None
    names = [name.strip() for name in args.benchmarks.split(",") if name.strip()]
    known = set(benchmark_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(f"unknown benchmarks: {', '.join(unknown)}; known: {', '.join(sorted(known))}")
    return names


def _instruction_count(text: str) -> int:
    """``--instructions`` type: an int covering at least one line fetch."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < DEFAULT_INSTRUCTIONS_PER_LINE:
        raise argparse.ArgumentTypeError(
            f"must be at least {DEFAULT_INSTRUCTIONS_PER_LINE} (one line fetch), got {value}"
        )
    return value


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmarks",
        default="",
        help="comma-separated benchmark names (default: all fifteen)",
    )
    parser.add_argument(
        "--instructions",
        type=_instruction_count,
        default=None,
        help="dynamic instructions per benchmark trace (default: the experiment scale's)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced quick scale (smaller traces and grids)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the parameter sweeps, pooled across "
            "benchmarks (0 = all cores, default 1; clamped to the task "
            "count, so small grids never over-spawn)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=DEFAULT_MAX_RETRIES,
        help=(
            "retries per failed pool chunk before it is bisected down to "
            "the poisoned task (reported as a TaskError in the campaign "
            f"health record; default {DEFAULT_MAX_RETRIES})"
        ),
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help=(
            "wall-clock seconds a pool chunk may run before its pool is "
            "killed and the chunk retried (default: no timeout); set it "
            "well above the slowest healthy chunk"
        ),
    )
    _add_engine_argument(parser)
    parser.set_defaults(error=parser.error)


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINE_KINDS,
        default="auto",
        help=(
            "replay engine (default auto, meaning the batched numpy engine; "
            "the engines are bit-identical and scalar is the per-address "
            "reference loop)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the HPCA 2001 DRI i-cache experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table2", help="Table 2: gated-Vdd circuit trade-offs")
    subparsers.add_parser("ratios", help="Section 5.2.1: energy-ratio analysis")

    # The sweep commands take whole flag names only, so a mistyped or
    # retired flag that prefixes a real one (``--max`` of
    # ``--max-retries``) is a usage error instead of that flag.
    for name, help_text in (
        ("figure3", "Figure 3: base energy-delay and average cache size"),
        ("figure4", "Figure 4: miss-bound sensitivity"),
        ("figure5", "Figure 5: size-bound sensitivity"),
        ("figure6", "Figure 6: conventional cache parameters"),
        ("interval", "Section 5.6: sense-interval robustness"),
    ):
        sub = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        _add_common_arguments(sub)

    shootout = subparsers.add_parser(
        "shootout",
        help="resize-policy zoo head-to-head over the Figure 3 suite",
        allow_abbrev=False,
    )
    _add_common_arguments(shootout)
    shootout.add_argument(
        "--policies",
        default=",".join(DEFAULT_SHOOTOUT_POLICIES),
        help=(
            "comma-separated policy specs (name or name:key=value,...); "
            "default: the whole zoo"
        ),
    )

    subparsers.add_parser(
        "policies", help="list the registered resize policies and their options"
    )

    run = subparsers.add_parser("run", help="run one benchmark on one DRI configuration")
    run.add_argument("benchmark", choices=benchmark_names())
    run.add_argument("--miss-bound", type=int, default=60)
    run.add_argument("--size-bound", type=int, default=2048)
    run.add_argument("--sense-interval", type=int, default=10_000)
    run.add_argument("--instructions", type=_instruction_count, default=400_000)
    run.add_argument(
        "--policy",
        default="miss-bound",
        help="resize-policy spec, e.g. miss-bound or hysteresis:consecutive=2",
    )
    run.add_argument(
        "--trajectory",
        metavar="PATH",
        help="also write the run's sense intervals to PATH as CSV, one row each",
    )
    _add_engine_argument(run)
    run.set_defaults(error=run.error)
    return parser


def _policies_from_args(args: argparse.Namespace) -> List[PolicySpec]:
    # Split the list on commas, but keep a spec's own option commas with
    # it: a segment containing "=" but no ":" continues the previous
    # spec's options ("miss-bound,pid:kp=1.5,ki=0.1" is two specs).
    texts: List[str] = []
    for segment in args.policies.split(","):
        segment = segment.strip()
        if not segment:
            continue
        if texts and "=" in segment and ":" not in segment:
            texts[-1] += "," + segment
        else:
            texts.append(segment)
    if not texts:
        raise SystemExit("no policies given")
    try:
        return [PolicySpec.parse(text) for text in texts]
    except ValueError as error:
        raise SystemExit(str(error))


def _format_policies() -> str:
    rows = []
    for name, entry in policy_catalog().items():
        defaults = ", ".join(
            f"{key}={'<miss_bound>' if value is None else value}"
            for key, value in entry["defaults"].items()
        )
        rows.append([name, entry["description"], defaults or "-"])
    return format_table(["Policy", "Description", "Options (defaults)"], rows)


def _write_trajectory(handle: TextIO, stats: DRIStatistics) -> None:
    """Write every sense interval of a run (the finalized tail included)
    to ``handle`` as CSV, one column per interval-record field."""
    columns = stats.interval_columns()
    writer = csv.writer(handle)
    writer.writerow(columns)
    writer.writerows(zip(*columns.values()))


def _flag_error(args: argparse.Namespace, error: ValueError) -> NoReturn:
    """Report a ``"<field> <reason>"`` ValueError as a usage error on the
    flag ``--<field>`` (exit status 2)."""
    # "size_bound must be ..." -> "argument --size-bound: must be ..."
    field, _, reason = str(error).partition(" ")
    args.error(f"argument --{field.replace('_', '-')}: {reason}")


def _run_single(args: argparse.Namespace) -> str:
    try:
        policy = PolicySpec.parse(args.policy)
    except ValueError as error:
        raise SystemExit(str(error))
    try:
        simulator = Simulator(trace_instructions=args.instructions, engine=args.engine)
        parameters = DRIParameters(
            miss_bound=args.miss_bound,
            size_bound=args.size_bound,
            sense_interval=args.sense_interval,
            policy=policy,
        )
    except ValueError as error:
        _flag_error(args, error)
    try:
        # Opened before the run, so an unwritable path costs no simulation.
        trajectory = open(args.trajectory, "w", newline="") if args.trajectory else nullcontext()
    except OSError as error:
        args.error(f"argument --trajectory: {error}")
    with trajectory:
        point = ParameterSweep(simulator).evaluate(args.benchmark, parameters)
        if args.trajectory:
            _write_trajectory(trajectory, point.simulation.dri_stats)
    summary = point.comparison.summary()
    rows = [[key, f"{value:.4g}" if isinstance(value, float) else str(value)]
            for key, value in summary.items()]
    return format_table(["quantity", "value"], rows)


_SENSITIVITY_COMMANDS = {
    "figure4": (figure4_experiment, "Figure 4: miss-bound at 0.5x / base / 2x"),
    "figure5": (figure5_experiment, "Figure 5: size-bound at 2x / base / 0.5x"),
    "figure6": (figure6_experiment, "Figure 6: 64K 4-way / 64K DM / 128K DM"),
    "interval": (section56_interval_experiment, "Section 5.6: sense-interval length"),
}


def _experiment_table(args: argparse.Namespace, **common) -> str:
    """Run the command's driver on ``common`` (benchmarks, scale, sweep)
    and format its table."""
    if args.command == "figure3":
        return format_figure3(figure3_experiment(**common))
    if args.command == "shootout":
        return format_policy_shootout(
            policy_shootout(policies=_policies_from_args(args), **common)
        )
    driver, title = _SENSITIVITY_COMMANDS[args.command]
    return format_sensitivity(driver(**common), title=title)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "table2":
        print(format_table2(table2_experiment()))
        return 0
    if args.command == "ratios":
        ratios = section521_ratios()
        print(
            format_table(
                ["ratio", "value", "paper"],
                [
                    ["extra L1 dynamic / L1 leakage", f"{ratios['l1_dynamic_to_leakage']:.3f}", "~0.024"],
                    ["extra L2 dynamic / L1 leakage", f"{ratios['l2_dynamic_to_leakage']:.3f}", "~0.08"],
                ],
            )
        )
        return 0
    if args.command == "policies":
        print(_format_policies())
        return 0
    if args.command == "run":
        print(_run_single(args))
        return 0

    scale = _scale_from_args(args)
    benchmarks = _benchmarks_from_args(args)
    try:
        sweep = scale.sweep(
            engine=args.engine,
            jobs=args.jobs,
            max_retries=args.max_retries,
            chunk_timeout=args.chunk_timeout,
        )
    except ValueError as error:
        _flag_error(args, error)
    with sweep:
        print(_experiment_table(args, benchmarks=benchmarks, scale=scale, sweep=sweep))
    health = sweep.health
    # The fault-tolerance ledger (retries, respawns, failed tasks,
    # DESIGN.md §11) goes to stderr so table-consuming pipelines on
    # stdout stay clean.
    print(health.summary(), file=sys.stderr)
    if health.task_errors:
        for error in health.task_errors:
            print(
                f"  task failed: {error.benchmark} {error.parameters} "
                f"[{error.kind}/{error.error_type} after {error.attempts} "
                f"attempts]: {error.message}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
