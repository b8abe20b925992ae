"""Output checks: each returns a list of problems, empty when the output
is correct.  Any problem fails the run."""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple


def check_sync_trajectory(
    losses: Sequence[float],
    recovered: Sequence[int],
    bounds: Tuple[int, int],
    rounds: int,
) -> List[str]:
    """``train-n96``: exact round count, every ``num_recovered`` within
    the Theorem 10-11 bounds, finite losses, and a final loss below the
    first."""
    problems = []
    if len(losses) != rounds or len(recovered) != rounds:
        problems.append(
            f"expected {rounds} rounds, got {len(losses)} losses and "
            f"{len(recovered)} recovery counts"
        )
    lo, hi = bounds
    for step, count in enumerate(recovered):
        if not lo <= count <= hi:
            problems.append(
                f"round {step}: num_recovered {count} outside [{lo}, {hi}]"
            )
            break
    problems.extend(_finite(losses))
    if losses and not losses[-1] < losses[0]:
        problems.append(
            f"final loss {losses[-1]!r} is not below the first {losses[0]!r}"
        )
    return problems


def check_async_trajectory(
    losses: Sequence[float], updates: int
) -> List[str]:
    """``train-async``: exact update count and finite losses."""
    problems = []
    if len(losses) != updates:
        problems.append(f"expected {updates} updates, got {len(losses)}")
    problems.extend(_finite(losses))
    return problems


def check_serve_jobs(
    snapshots: Sequence[Mapping], expected: Mapping[str, int]
) -> List[str]:
    """``serve-sweep``: every submitted job is DONE with ``num_steps``
    equal to its spec's ``max_steps`` (``expected``: job id -> steps)."""
    problems = []
    seen = {snap.get("id"): snap for snap in snapshots}
    for job_id, steps in sorted(expected.items()):
        snap = seen.get(job_id)
        if snap is None:
            problems.append(f"{job_id}: never published")
            continue
        if snap.get("state") != "done":
            problems.append(
                f"{job_id}: state {snap.get('state')!r}, "
                f"error {snap.get('error', '')!r}"
            )
            continue
        got = snap["report"]["num_steps"]
        if got != steps:
            problems.append(f"{job_id}: num_steps {got} != max_steps {steps}")
    return problems


def check_recovered(
    job_id: str, recovered: Sequence[int], bounds: Tuple[int, int]
) -> List[str]:
    """Per-round ``num_recovered`` of one traced job within ``bounds``."""
    lo, hi = bounds
    for step, count in enumerate(recovered):
        if count is None or not lo <= count <= hi:
            return [
                f"{job_id} round {step}: num_recovered {count} "
                f"outside [{lo}, {hi}]"
            ]
    return []


def check_same_run(label: str, served: Mapping, solo: Mapping) -> List[str]:
    """A served report equals a solo run of the same spec, bit for bit."""
    problems = []
    for key in ("num_steps", "total_sim_time", "final_loss", "loss_curve"):
        if served.get(key) != solo.get(key):
            problems.append(f"{label}: served {key} differs from solo run")
    return problems


def check_equal_digests(label: str, digests: Dict[str, str]) -> List[str]:
    """All named trajectory digests agree (passes, traced vs untraced)."""
    if len(set(digests.values())) > 1:
        return [f"{label}: trajectories differ: {digests}"]
    return []


#: CPU seconds that threads other than the main one may use in a pass,
#: as a share of the pass: the interpreter's own housekeeping.
OTHER_THREADS_SHARE = 0.02


def check_cpu_accounting(
    label: str, process_cpu: float, main_thread_cpu: float,
    children_cpu: float,
) -> List[str]:
    """The pass did all its work on the main thread of this process.

    Every figure is CPU time of that thread's process.  Work on other
    threads would be summed across them, so a parallel speed-up would
    read as a slow-down; work in child processes would not be counted at
    all.  Either makes the figures wrong, so the run fails until the
    benchmark measures such a program on the wall clock.
    """
    problems = []
    other = process_cpu - main_thread_cpu
    if other > OTHER_THREADS_SHARE * process_cpu + 0.005:
        problems.append(
            f"{label}: {other:.3f} s of {process_cpu:.3f} s CPU ran on other "
            "threads; CPU-time figures no longer measure the program"
        )
    if children_cpu > 0:
        problems.append(
            f"{label}: child processes used {children_cpu:.3f} s CPU, which "
            "CPU-time figures of this process do not count"
        )
    return problems


def _finite(losses: Sequence[float]) -> List[str]:
    for step, loss in enumerate(losses):
        if not math.isfinite(loss):
            return [f"step {step}: loss {loss!r} is not finite"]
    return []
