"""The benchmark's workloads: specs generated from the seed, one timed
pass each through the public ``repro`` API, and the pass's checks.

Why each workload exists is recorded in ``BENCHMARK.json`` and, with
the layer predictions, in ``README.md`` beside this file.

Every time here is CPU time of this process (user plus system), scaled
by a calibration loop to reference seconds (see :class:`Clock`), with
wall-clock time recorded beside it.  On a shared virtual machine the host
takes the CPU away for seconds at a time (steal), which wall-clock
figures would count as the program's own, and changes how fast the CPU
runs, which the calibration divides out.  CPU time cannot see time the
program spends blocked (an fsync, say), work it hands to other processes,
or work spread over threads; ``run.py`` fails a pass that uses threads
or child processes, and reports the off-CPU share of wall time.
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Sequence, Tuple

import numpy as np

import repro
from repro.core.bounds import recovered_partitions_bounds
from repro.obs import read_traces
from repro.serve import Coordinator, CoordinatorClient, ServeMailbox

import checks
from metrics import digest

#: ``examples/specs/fig12_isgc_cr.json``, copied so that edits to the
#: example cannot change the benchmark's inputs.
FIG12_CR = {
    "backend": "flat",
    "dataset": {"batch_size": 32, "features": 8, "kind": "classification",
                "num_classes": 2, "samples": 1024, "separation": 1.0},
    "delay": {"kind": "exponential", "mean": 1.0},
    "learning_rate": 0.3,
    "loss_threshold": None,
    "model": {"kind": "logistic"},
    "partitions_per_worker": 2,
    "rule": "sync",
    "scheme": "is-gc-cr",
    "smoothing_window": 5,
}
#: ``examples/specs/async_baseline.json``, copied for the same reason.
ASYNC_BASELINE = {
    "backend": "flat",
    "dataset": {"batch_size": 32, "features": 8, "kind": "classification",
                "num_classes": 2, "samples": 512, "separation": 3.0},
    "learning_rate": 0.3,
    "loss_threshold": None,
    "model": {"kind": "logistic"},
    "partitions_per_worker": 1,
    "rule": "async",
    "scheme": "sync-sgd",
    "smoothing_window": 5,
    "wait_for": None,
}

N96_ROUNDS = 600
ASYNC_WORKERS = 24
ASYNC_UPDATES = 10_000
SERVE_SCHEMES = ("is-gc-cr", "is-gc-fr", "is-sgd", "gc")
SERVE_WAIT_FOR = (4, 6, 8, 10, 11, 12)
SERVE_WORKERS = 12
SERVE_ROUNDS = 60
#: schemes whose per-round recovery Theorems 10-11 bound.
BOUNDED_SCHEMES = ("is-gc-cr", "is-gc-fr")


def train_n96_spec(seed: int) -> repro.ExperimentSpec:
    return repro.ExperimentSpec.from_dict(dict(
        FIG12_CR, name="train-n96", num_workers=96, wait_for=48,
        max_steps=N96_ROUNDS, seed=seed,
    ))


def train_async_spec(seed: int) -> repro.ExperimentSpec:
    # Persistent stragglers on the first quarter of the workers.
    delay = {"kind": "persistent", "mean": 3.0, "background_mean": 0.3,
             "stragglers": list(range(ASYNC_WORKERS // 4))}
    return repro.ExperimentSpec.from_dict(dict(
        ASYNC_BASELINE, name="train-async", num_workers=ASYNC_WORKERS,
        delay=delay, max_steps=ASYNC_UPDATES, seed=seed,
    ))


def serve_sweep_specs(
    seed: int, rounds: int = SERVE_ROUNDS, wait_for=SERVE_WAIT_FOR
) -> List[Tuple[str, repro.ExperimentSpec]]:
    """The scheme x wait_for grid, all cells on one shared seed."""
    jobs = []
    for scheme in SERVE_SCHEMES:
        for w in wait_for:
            spec = repro.ExperimentSpec.from_dict(dict(
                FIG12_CR, name=f"{scheme}-w{w}", scheme=scheme,
                num_workers=SERVE_WORKERS, wait_for=w, max_steps=rounds,
                seed=seed,
            ))
            jobs.append((f"job-{len(jobs):02d}", spec))
    return jobs


@dataclass
class Pass:
    """One timed pass: a train run, or one drain of the serve grid.

    Times are read off a :class:`Clock`; the ``*_wall`` fields are the
    same intervals on the wall clock.
    """

    setup_s: float
    run_s: float
    #: plain CPU and wall seconds of the whole pass, set-up included
    #: (calibrations left out): what span times and shares compare with.
    cpu_s: float
    wall_s: float
    #: per-round times, packed: a run keeps hundreds of thousands, and
    #: their memory counts in the process's peak RSS.
    round_s: Sequence[float]
    round_wall: Sequence[float]
    job_s: List[float]
    #: the time jobs_per_s divides by: the whole pass on train
    #: workloads, the drain on serve.
    jobs_s: float
    attempted: int
    failed: int
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    pool: Dict[str, int] = field(default_factory=dict)
    reports: Dict[str, dict] = field(default_factory=dict)


#: CPU seconds the calibration loop takes on a host at reference speed;
#: about its median on the 2-vCPU Xeon virtual machine the bounds in
#: BENCHMARK.json were set on.
REFERENCE_CALIBRATION_S = 0.003
#: CPU seconds between calibrations: shorter than the host's spells, and
#: long enough that calibrating costs a few percent of the run.
CALIBRATE_EVERY_S = 0.1
_CAL_X = np.linspace(-1.0, 1.0, 32 * 8).reshape(32, 8)
_CAL_W = np.linspace(0.5, -0.5, 8)


def calibration_loop() -> float:
    """CPU seconds of a fixed mix of interpreter work and small numpy
    calls, the kind of work a round does: how fast the host runs now."""
    t0 = process_time()
    acc = 0.0
    for _ in range(400):
        z = _CAL_X @ _CAL_W
        acc += float((1.0 / (1.0 + np.exp(-z))).sum())
    return process_time() - t0


class Clock:
    """Time in reference seconds, with wall-clock time beside it.

    On this machine the host changes how fast the CPU runs the same code
    by up to 2x, in spells of a second to minutes, so raw CPU time of one
    run says more about the host than about the program.  At the first
    tick (ticks come at round boundaries) after each ``CALIBRATE_EVERY_S``
    CPU seconds, a calibrating clock runs :func:`calibration_loop`; until
    the next calibration, each CPU second counts as
    ``REFERENCE_CALIBRATION_S / loop time`` reference seconds.  A slower
    program still reads slower; a slower host does not.  Calibrations
    are left out of both clocks, so the pass around them does not see
    them.  A clock that does not calibrate reads plain CPU seconds.
    """

    def __init__(self, calibrating: bool = False) -> None:
        self.calibrating = calibrating
        self.calibrations: List[float] = []
        self._held_cpu = 0.0
        self._held_wall = 0.0
        self._scale = 1.0
        self._base_cpu = 0.0
        self._base_ref = 0.0
        if calibrating:
            self.calibrate()

    def cpu(self) -> float:
        """Plain CPU seconds, calibrations left out."""
        return process_time() - self._held_cpu

    def now(self) -> float:
        return self._base_ref + (self.cpu() - self._base_cpu) * self._scale

    def wall(self) -> float:
        return perf_counter() - self._held_wall

    def tick(self) -> None:
        if (self.calibrating
                and self.cpu() - self._base_cpu >= CALIBRATE_EVERY_S):
            self.calibrate()

    def calibrate(self) -> None:
        ref = self.now()
        c0, w0 = process_time(), perf_counter()
        loop = calibration_loop()
        self.calibrations.append(loop)
        self._scale = REFERENCE_CALIBRATION_S / loop
        self._held_cpu += process_time() - c0
        self._held_wall += perf_counter() - w0
        self._base_ref, self._base_cpu = ref, self.cpu()


# ----------------------------------------------------------------------
# Train workloads: build_engine, then one step_rounds(1)/step_updates(1)
# call per round, each timed.


def train_pass(spec: repro.ExperimentSpec, recorder, clock: Clock) -> Pass:
    recorder.request = "setup"
    t0, c0, w0 = clock.now(), clock.cpu(), clock.wall()
    engine = repro.build_engine(spec)
    t1 = clock.now()
    is_async = spec.rule == "async"
    if is_async:
        engine.start_updates(spec.max_steps)
        step = engine.step_updates
    else:
        engine.start_run(spec.max_steps, spec.loss_threshold,
                         spec.smoothing_window)
        step = engine.step_rounds
    latencies, walls = array("d"), array("d")
    problems = []
    for i in range(spec.max_steps):
        recorder.request = i
        s, w = clock.now(), clock.wall()
        try:
            step(1)
        except Exception as exc:  # noqa: BLE001 - counted as a failed round
            problems.append(f"round {i} raised {exc!r}")
            break
        latencies.append(clock.now() - s)
        walls.append(clock.wall() - w)
        clock.tick()
    t2, c2, w2 = clock.now(), clock.cpu(), clock.wall()

    if is_async:
        losses = [r.loss for r in engine.async_records]
        problems += checks.check_async_trajectory(losses, spec.max_steps)
    else:
        losses = [r.loss for r in engine.records]
        recovered = [r.num_recovered for r in engine.records]
        bounds = recovered_partitions_bounds(
            spec.num_workers, spec.partitions_per_worker, spec.wait_for)
        problems += checks.check_sync_trajectory(
            losses, recovered, bounds, spec.max_steps)
    failed = spec.max_steps - len(latencies)
    return Pass(
        setup_s=t1 - t0, run_s=t2 - t1, cpu_s=c2 - c0, wall_s=w2 - w0,
        round_s=latencies, round_wall=walls, job_s=[t2 - t0], jobs_s=t2 - t0,
        attempted=len(latencies) + (1 if failed else 0),
        failed=1 if failed else 0,
        digest=digest(losses), problems=problems,
    )


# ----------------------------------------------------------------------
# Serve workload: the whole grid dropped into a file mailbox, drained by
# one deterministic coordinator.  Job completion and per-round progress
# are read off the coordinator's own mailbox publications.

MAX_RUNNING = 4
POOL_CAPACITY = 2


def _timed_mailbox(root: Path, events: list, clock: Clock) -> ServeMailbox:
    """A mailbox that stamps each state publication with the time.

    Looked up on the class at call time, so a span wrapped around
    ``ServeMailbox.write_state`` still sees every publication.
    """
    mailbox = ServeMailbox(root)

    def write_state(job):
        ServeMailbox.write_state(mailbox, job)
        events.append((clock.now(), clock.wall(), job.job_id,
                       job.state.value, job.rounds_done))
        clock.tick()

    mailbox.write_state = write_state
    return mailbox


def serve_setup(jobs, root: Path, clock: Clock):
    """Submit the grid and start a coordinator; returns the pieces and
    the per-job submission times."""
    client = CoordinatorClient(root)
    submitted = {}
    for job_id, spec in jobs:
        client.submit(spec, job_id=job_id)
        submitted[job_id] = clock.now()
    coordinator = Coordinator(
        mode="deterministic", max_running=MAX_RUNNING,
        pool_capacity=POOL_CAPACITY, trace_dir=root / "traces",
    )
    events: list = []
    mailbox = _timed_mailbox(root, events, clock)
    return client, coordinator, mailbox, submitted, events


def serve_pass(jobs, root: Path, recorder, clock: Clock) -> Pass:
    recorder.request = "setup"
    t0, c0, w0 = clock.now(), clock.cpu(), clock.wall()
    client, coordinator, mailbox, submitted, events = serve_setup(
        jobs, root, clock)
    t1, w1 = clock.now(), clock.wall()
    try:
        asyncio.run(coordinator.serve(mailbox, once=True))
    finally:
        coordinator.close()
    t2, c2, w2 = clock.now(), clock.cpu(), clock.wall()

    latencies, walls = array("d"), array("d")
    done_at: Dict[str, float] = {}
    last_rounds: Dict[str, int] = {}
    prev, prev_wall = t1, w1
    for t, w, job_id, state, rounds in events:
        if rounds > last_rounds.get(job_id, 0):
            latencies.append(t - prev)
            walls.append(w - prev_wall)
            prev, prev_wall = t, w
            last_rounds[job_id] = rounds
        if state == "done" and job_id not in done_at:
            done_at[job_id] = t

    snapshots = client.jobs()
    expected = {job_id: spec.max_steps for job_id, spec in jobs}
    problems = checks.check_serve_jobs(snapshots, expected)
    reports = {
        snap["id"]: snap["report"] for snap in snapshots
        if snap.get("state") == "done"
    }
    for job_id, spec in jobs:
        if spec.scheme in BOUNDED_SCHEMES and job_id in reports:
            traces = read_traces(reports[job_id]["trace_path"])
            bounds = recovered_partitions_bounds(
                spec.num_workers, spec.partitions_per_worker, spec.wait_for)
            problems += checks.check_recovered(
                job_id, [t.num_recovered for t in traces], bounds)
    # The trace path names this pass's directory; the rest of each
    # report is what must repeat bit for bit.
    stable = {
        job_id: {k: v for k, v in report.items() if k != "trace_path"}
        for job_id, report in reports.items()
    }
    return Pass(
        setup_s=t1 - t0, run_s=t2 - t1, cpu_s=c2 - c0, wall_s=w2 - w0,
        round_s=latencies, round_wall=walls,
        job_s=[done_at[j] - submitted[j] for j in sorted(done_at)],
        jobs_s=t2 - t1,
        attempted=len(jobs), failed=len(jobs) - len(reports),
        digest=digest(stable), problems=problems,
        pool=coordinator.pool.stats.to_dict(), reports=stable,
    )


def serve_solo_checks(jobs, reports: Dict[str, dict], seed: int) -> List[str]:
    """Compare one served job per scheme with a solo ``run_spec``."""
    problems = []
    pick = seed % len(SERVE_WAIT_FOR)
    by_scheme: Dict[str, list] = {}
    for job_id, spec in jobs:
        by_scheme.setdefault(spec.scheme, []).append((job_id, spec))
    for scheme, cells in sorted(by_scheme.items()):
        job_id, spec = cells[pick % len(cells)]
        summary = repro.run_spec(spec)
        solo = {
            "num_steps": summary.num_steps,
            "total_sim_time": summary.total_sim_time,
            "final_loss": summary.final_loss,
            "loss_curve": list(summary.loss_curve),
        }
        served = dict(reports.get(job_id, {}))
        served["loss_curve"] = list(served.get("loss_curve", ()))
        problems += checks.check_same_run(f"{job_id} ({scheme})", served, solo)
    return problems


# ----------------------------------------------------------------------
# What run.py needs from a workload: warm up, sample set-up, run passes,
# and check what a pass cannot check alone.


class TrainWorkload:
    def __init__(self, spec: repro.ExperimentSpec, warm_steps: int):
        self.spec = spec
        self._warm = dataclasses.replace(spec, max_steps=warm_steps)

    def warm_up(self, recorder) -> None:
        train_pass(self._warm, recorder, Clock())

    def setup_sample(self, clock: Clock) -> float:
        t0 = clock.now()
        repro.build_engine(self.spec)
        return clock.now() - t0

    def run_pass(self, recorder, clock: Clock) -> Pass:
        return train_pass(self.spec, recorder, clock)

    def final_checks(self, first: Pass) -> List[str]:
        return []


class ServeWorkload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.jobs = serve_sweep_specs(seed)
        self._warm = serve_sweep_specs(seed, rounds=5, wait_for=(8,))
        self._workdir = workdir
        self._count = 0

    def _fresh(self) -> Path:
        self._count += 1
        path = self._workdir / f"mailbox-{self._count}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def warm_up(self, recorder) -> None:
        root = self._fresh()
        try:
            serve_pass(self._warm, root, recorder, Clock())
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def setup_sample(self, clock: Clock) -> float:
        root = self._fresh()
        try:
            t0 = clock.now()
            _, coordinator, *_ = serve_setup(self.jobs, root, clock)
            elapsed = clock.now() - t0
            coordinator.close()
            return elapsed
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def run_pass(self, recorder, clock: Clock) -> Pass:
        root = self._fresh()
        try:
            return serve_pass(self.jobs, root, recorder, clock)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def final_checks(self, first: Pass) -> List[str]:
        return serve_solo_checks(self.jobs, first.reports, self.seed)


def make_workload(name: str, seed: int, workdir: Path):
    if name == "train-n96":
        return TrainWorkload(train_n96_spec(seed), warm_steps=30)
    if name == "train-async":
        return TrainWorkload(train_async_spec(seed), warm_steps=500)
    if name == "serve-sweep":
        return ServeWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
