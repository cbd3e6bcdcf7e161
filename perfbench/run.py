"""End-to-end and per-layer benchmark of the DRI i-cache reproduction.

Run from the repository root (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload fig3-serial --seed 2001 --seconds 35 --trace 0

Each workload (``perfbench/campaigns.py``) is a closed loop: one campaign
per iteration, the next started when the previous one finishes, all in
this process.  The loop stops before an iteration that would end past
``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics, measured untraced:

* ``campaign_s`` -- median campaign time of the run, pool spawn and
  trace generation included (users pay both on every command), in
  seconds at the reference host speed: each campaign's wall time, less
  the probes that interrupted it, times the host speed sampled while it
  ran (``perfbench/hostspeed.py``; for a pooled workload, sampled on
  every vCPU just before and after it).  The shared host's vCPUs drift by
  10-45% for seconds to minutes at a time, which moves raw wall times of
  whole runs by as much.  The report line carries every raw wall time
  and speed factor, the normalised and raw medians, the nearest-rank
  90th percentile, and the sample count;
* ``sim_mips`` -- simulated instructions per campaign over ``campaign_s``,
  in millions per second;
* ``setup_s`` -- median over ``SETUP_PROBES`` fresh interpreters of
  importing numpy and ``repro``, building a ``Simulator`` and a
  ``ParameterSweep``, and compiling the Numba kernels when Numba is
  importable.  It is left in raw seconds: its ratio to the host-speed
  probe drifts by up to 25% between runs tens of minutes apart, while
  the median over many fresh interpreters stays within a few percent;
* ``peak_rss_mib`` -- peak resident memory of this process.

``--trace 1`` spends the first half of ``--seconds`` on untraced
campaigns and the second half on traced ones (``perfbench/layers.py``),
and prints per-layer self times and counts per campaign, ``other.self_s``
(the traced wall no parent-side layer span covers) and
``trace_overhead_s`` (traced minus untraced mean campaign time).  These
are raw wall times: no probe interrupts a traced campaign.

Both modes check every campaign's outputs.  ``perfbench/reference.json``
holds a digest of each workload's simulated outputs at the default seed
2001 and at its ``held_out_seed`` 1999 (run it with ``--seed 1999``); a
campaign whose digest differs counts as an output mismatch.  At a seed
with no reference every campaign must reproduce the first one, and the
report says "no reference at this seed".  Every run must also satisfy
the conservation laws of ``Campaign.problems``.  The model has no
hardware reference in the repository, so no error figure is given.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (simulation tasks; a raised exception counts
as one failed task) and ``metrics``.  The line before it is a report:
sample counts, output mismatches, digests, resolved engines, and host.

``--record-reference`` rewrites ``reference.json`` from one campaign per
workload at both recorded seeds.  The layer-attribution unit tests run
with ``python3 -m pytest perfbench/check_layers.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench-tmp"

DEFAULT_SEED = 2001
HELD_OUT_SEED = 1999
SETUP_PROBES = 12


# ----------------------------------------------------------------------
# Set-up time (each probe is a fresh interpreter)
# ----------------------------------------------------------------------
def setup_probe() -> float:
    """Seconds to import the package and build what a campaign starts from."""
    start = time.perf_counter()
    import numpy  # noqa: F401

    from campaigns import PAPER_PARAMETERS
    from repro.memory.kernels import NUMBA_AVAILABLE
    from repro.simulation.simulator import Simulator
    from repro.simulation.sweep import ParameterSweep

    ParameterSweep(simulator=Simulator(engine="auto"), base_parameters=PAPER_PARAMETERS).close()
    if NUMBA_AVAILABLE:
        tiny = Simulator(trace_instructions=16_000, engine="auto")
        tiny.run_conventional("li")
        tiny.run_dri("li", replace(PAPER_PARAMETERS, sense_interval=2_000, miss_bound=5))
    return time.perf_counter() - start


def measure_setup() -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        output = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        ).stdout
        samples.append(float(output.split()[-1]))
    return statistics.median(samples)


# ----------------------------------------------------------------------
# The campaign loop and its output checks
# ----------------------------------------------------------------------
class Loop:
    """Closed-loop campaigns of one workload, every output checked."""

    def __init__(self, campaign: Callable, seed: int, reference: Optional[dict]) -> None:
        self.run_campaign = campaign
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.problems: List[str] = []
        self.first = None
        self.digest: Optional[str] = None
        self.healths: List[object] = []
        self.speed_factors: List[float] = []

    def campaign(self, hooks=None, speed=None) -> Optional[float]:
        """Run and check one campaign; its wall seconds, None if it raised.

        ``hooks`` is a context manager entered around the timed part only.
        With a ``HostSpeed`` as ``speed``, the probes it runs are taken out
        of the wall time and its factor is appended to ``speed_factors``.
        """
        try:
            with hooks if hooks is not None else contextlib.nullcontext():
                with speed if speed is not None else contextlib.nullcontext():
                    start = time.perf_counter()
                    collect = self.run_campaign(self.seed)
                    wall = time.perf_counter() - start
            campaign = collect()
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        if speed is not None:
            wall -= speed.probe_s
            self.speed_factors.append(speed.factor)
        self.healths.append(campaign.health)
        self.attempted += campaign.health.tasks_run + campaign.health.tasks_failed
        self.failed += campaign.health.tasks_failed
        digest = campaign.digest()
        if self.first is None:
            self.first, self.digest = campaign, digest
            self.problems.extend(campaign.problems())
        expected = self.reference["digest"] if self.reference else self.digest
        if digest != expected:
            self.mismatches += 1
        return wall

    def run_for(self, seconds: float, hooks_factory=None, speed=None) -> List[float]:
        """Campaigns until the next one would end past ``seconds``."""
        walls: List[float] = []
        began = time.perf_counter()
        while True:
            wall = self.campaign(hooks_factory() if hooks_factory else None, speed)
            if wall is None:
                break
            walls.append(wall)
            if time.perf_counter() - began + wall > seconds:
                break
        return walls

    @property
    def correct(self) -> bool:
        return self.first is not None and not (self.failed or self.mismatches or self.problems)


def nearest_rank(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def provenance() -> Dict[str, object]:
    import numpy

    from repro.memory.kernels import NUMBA_AVAILABLE, numba_version

    return {
        "cpu_count": os.cpu_count(),
        "numba_version": numba_version(),
        "compiled_engines": "measured" if NUMBA_AVAILABLE else "unmeasured (Numba not importable)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def engine_note(engines: List[str], reference: Optional[dict]) -> str:
    """Flag a changed resolved engine: a different configuration, not a delta."""
    if reference is None:
        return "no reference at this seed"
    if engines == reference["engines"]:
        return "same resolved engines as the reference"
    return (
        f"resolved engines changed from {reference['engines']} to {engines}: a different "
        "configuration, not a regression or a gain"
    )


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def end_to_end(loop: Loop, seconds: float, pooled: bool) -> Dict[str, object]:
    from hostspeed import HostSpeed, HostSpeedAround

    setup_s = measure_setup()
    walls = loop.run_for(seconds, speed=HostSpeedAround() if pooled else HostSpeed())
    report: Dict[str, object] = {"campaign_walls_s": walls, "speed_factors": loop.speed_factors}
    if not walls:
        return report
    normalised = [wall * factor for wall, factor in zip(walls, loop.speed_factors)]
    campaign_s = statistics.median(normalised)
    report.update(
        campaigns=len(walls),
        campaign_median_s=campaign_s,
        campaign_p90_s=nearest_rank(normalised, 0.9),
        campaign_raw_median_s=statistics.median(walls),
        campaign_raw_p90_s=nearest_rank(walls, 0.9),
    )
    report["metrics"] = declared(
        "end_to_end",
        {
            "campaign_s": campaign_s,
            "sim_mips": loop.first.instructions / campaign_s / 1e6,
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    )
    return report


def per_layer(loop: Loop, seconds: float, spool: Path) -> Dict[str, object]:
    from layers import COUNTS, SELF_TIME_METRICS, Patches, Tracer

    untraced = loop.run_for(seconds / 2)
    tracers: List[Tracer] = []

    def hooks():
        tracers.append(Tracer())
        return Patches(tracers[-1], spool)

    traced = loop.run_for(seconds / 2, hooks)
    report: Dict[str, object] = {"untraced_campaigns": len(untraced), "traced_campaigns": len(traced)}
    if not untraced or not traced:
        return report
    rows = []
    for tracer, wall, health in zip(tracers, traced, loop.healths[-len(traced) :]):
        loop.problems.extend(tracer.check(wall))
        times = {
            metric: tracer.self_s[layer] + tracer.worker_self_s[layer]
            for layer, metric in SELF_TIME_METRICS.items()
        }
        times["simulation.executor.max_chunk_s"] = max(tracer.chunk_times, default=0.0)
        times["other.self_s"] = tracer.other_s(wall)
        counts = {key: tracer.counts[key] for key in COUNTS}
        counts["simulation.executor.chunks"] = len(tracer.chunk_times)
        counts["simulation.executor.retries"] = health.retries
        counts["simulation.executor.respawns"] = health.respawns
        rows.append((times, counts))
    counts = rows[0][1]
    if any(row[1] != counts for row in rows):
        loop.problems.append(f"layer counts differ between traced campaigns: {[row[1] for row in rows]}")
    times = {key: statistics.fmean(row[0][key] for row in rows) for key in rows[0][0]}
    times["trace_overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)

    def per_call(prefix: str) -> float:
        calls = counts[f"{prefix}.calls"]
        return counts[f"{prefix}.accesses"] / calls if calls else 0.0

    requested = counts.pop("simulation.sweep.requested")
    derived = {
        "memory.l1.accesses_per_call": per_call("memory.l1"),
        "memory.l2.accesses_per_call": per_call("memory.l2"),
        "simulation.sweep.memo_hit_ratio": (requested - counts["simulation.sweep.tasks"]) / requested
        if requested
        else 0.0,
        "simulation.executor.worker_peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        / 1024,
    }
    report["layers"] = {**times, **counts, **derived}
    report["metrics"] = declared("per_layer", report["layers"])
    return report


def declared(kind: str, values: Dict[str, float]) -> Dict[str, dict]:
    """The ``kind`` metrics BENCHMARK.json declares, with their units.

    Values measured but not declared stay in the report line: times that
    are zero by construction on some workload (the executor's spill,
    wait and longest chunk off the pool, the fused kernel without Numba,
    the median and tail campaign times).
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]} for metric in spec}


def record_reference() -> None:
    from campaigns import WORKLOADS

    reference: Dict[str, object] = {
        "note": "digests of this model's own simulated outputs; the repository has no "
        "hardware reference, so the model is unvalidated and no error figure is given",
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "provenance": provenance(),
        "workloads": {},
    }
    for name, run_campaign in WORKLOADS.items():
        seeds = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            campaign = run_campaign(seed)()
            problems = campaign.problems()
            if problems:
                raise SystemExit(f"{name} at seed {seed}: {problems}")
            seeds[str(seed)] = {
                "digest": campaign.digest(),
                "runs": len(campaign.runs),
                "instructions": campaign.instructions,
                "engines": campaign.engines,
                "figure3": campaign.figure3,
            }
            print(name, seed, seeds[str(seed)]["digest"], flush=True)
        reference["workloads"][name] = seeds
    serial, pool = reference["workloads"]["fig3-serial"], reference["workloads"]["fig3-pool2"]
    if any(serial[seed]["digest"] != pool[seed]["digest"] for seed in serial):
        raise SystemExit("fig3-pool2 does not reproduce fig3-serial")
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="trace seed")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe())
        return 0

    scratch = SCRATCH / str(os.getpid())
    (scratch / "spool").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)  # sweep trace spills stay in the checkout
    try:
        if args.record_reference:
            record_reference()
            return 0
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def measure(args: argparse.Namespace, scratch: Path) -> int:
    from campaigns import POOLED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())["workloads"][args.workload].get(str(args.seed))
    loop = Loop(WORKLOADS[args.workload], args.seed, reference)
    if args.trace:
        report = per_layer(loop, args.seconds, scratch / "spool")
    else:
        report = end_to_end(loop, args.seconds, args.workload in POOLED)
    if "metrics" not in report:
        print(f"error: no campaign of {args.workload} completed", file=sys.stderr)
        return 1
    metrics = report.pop("metrics")
    report.update(
        workload=args.workload,
        seed=args.seed,
        output_mismatches=loop.mismatches,
        failed_fraction=loop.failed / max(1, loop.attempted),
        problems=loop.problems,
        digest=loop.digest,
        reference_digest=reference["digest"] if reference else None,
        engines=loop.first.engines,
        engine_note=engine_note(loop.first.engines, reference),
        figure3=loop.first.figure3,
        provenance=provenance(),
    )
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": loop.correct,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
