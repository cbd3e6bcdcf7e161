"""Fault-injection smoke for the fault-tolerant sweep executor.

Runs one small campaign with two injected faults — a worker that
crashes once on a marker task (exercising retry + pool respawn) and a
task that crashes its worker on *every* attempt (exercising bisection
down to a structured ``TaskError``) — and asserts the acceptance
contract from DESIGN.md §11:

* the campaign completes instead of raising,
* every healthy point is memoized and bit-identical to a serial run,
* the poisoned task is bisected out of its chunk (the benchmark's tasks
  travel as whole-group chunks, so the poison shares one) and reported
  as a ``TaskError`` with its retries counted, and
* the broken pool was replaced, never reused.

Faults are injected through the ``_fault_hook`` module seam, which the
forked workers inherit; the hook is inert in the parent (pid check), so
the serial reference run is clean.  Exits non-zero on any violation.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import tempfile

import repro.simulation.executor as executor_module
from repro.config.parameters import DRIParameters
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep

INSTRUCTIONS = 60_000
SENSE_INTERVAL = 5_000
CRASH_ONCE_BOUND = 80  # this task's first worker dies; retry succeeds
POISON_BOUND = 320  # this task kills its worker on every attempt
PARENT = os.getpid()


def _pairs():
    pairs = [("compress", None)]
    for miss_bound in (10, 20, 40, CRASH_ONCE_BOUND, 160, POISON_BOUND):
        pairs.append(
            (
                "compress",
                DRIParameters(
                    miss_bound=miss_bound,
                    size_bound=1024,
                    sense_interval=SENSE_INTERVAL,
                ),
            )
        )
    return pairs


def _sweep(**kwargs) -> ParameterSweep:
    return ParameterSweep(
        Simulator(trace_instructions=INSTRUCTIONS, seed=7),
        base_parameters=DRIParameters(sense_interval=SENSE_INTERVAL),
        **kwargs,
    )


def _install_hook(counter_path: str) -> None:
    def hook(name, parameters):
        if os.getpid() == PARENT or parameters is None:
            return
        if parameters.miss_bound == POISON_BOUND:
            os._exit(1)
        if parameters.miss_bound == CRASH_ONCE_BOUND:
            with open(counter_path, "ab") as fh:
                fh.write(b"x")
            if os.path.getsize(counter_path) == 1:
                os._exit(1)

    executor_module._fault_hook = hook


def main() -> int:
    if multiprocessing.get_start_method() != "fork":
        print("fault-injection smoke: skipped (needs fork start method)")
        return 0

    pairs = _pairs()
    executor_module.DEFAULT_BACKOFF = 0.0  # retry at once; the smoke counts retries
    with tempfile.TemporaryDirectory() as scratch:
        _install_hook(os.path.join(scratch, "attempts"))
        sweep = _sweep(jobs=2, max_retries=2)
        with sweep:
            completed = sweep.prefetch(pairs)
        health = sweep.health
    executor_module._fault_hook = None

    print(health.summary())
    for error in health.task_errors:
        print(
            f"  failed: {error.benchmark} miss_bound="
            f"{error.parameters.miss_bound} kind={error.kind} "
            f"attempts={error.attempts}"
        )

    assert completed == len(pairs) - 1, (
        f"expected {len(pairs) - 1} healthy completions, got {completed}"
    )
    assert health.retries >= 1, "the crash-once task was never retried"
    assert health.respawns >= 1, "the broken pool was never replaced"
    assert health.bisections >= 1, "the poison's chunk was never bisected"
    assert health.tasks_failed == 1, "exactly the poison should fail"
    assert not health.degraded, "isolated faults must not degrade the pool"
    (error,) = health.task_errors
    assert error.parameters.miss_bound == POISON_BOUND, "wrong task blamed"
    assert error.kind == "crash"
    assert error.attempts == 3  # initial try + max_retries

    # Read every result back from the sweep's memo: healthy points must
    # equal a serial run, and the poison must be absent.
    serial = _sweep(jobs=1)
    for name, parameters in pairs:
        if parameters is None:
            result = sweep._conventional_cache.get(name)
            want = serial.conventional_baseline(name)
        elif parameters.miss_bound == POISON_BOUND:
            assert sweep._dri_key(name, parameters) not in sweep._dri_cache, (
                "the poisoned task was memoized"
            )
            continue
        else:
            result = sweep._dri_cache.get(sweep._dri_key(name, parameters))
            want = serial.evaluate(name, parameters).simulation
        assert result is not None, f"no result memoized for {name} {parameters}"
        assert (result.cycles, result.l1_misses, result.l2_accesses) == (
            want.cycles,
            want.l1_misses,
            want.l2_accesses,
        ), f"recovered result diverged from serial for {name} {parameters}"

    print(
        "fault-injection smoke ok:",
        f"{completed} healthy points bit-identical to serial,",
        "poison isolated as TaskError",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
