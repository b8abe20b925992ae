"""The repository benchmark: engine rounds/s and serve jobs/s.

Run from the repository root::

    python3 perfbench/run.py --workload train-n96 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no
instrumentation, in reference seconds: CPU time scaled by how fast the
host ran a fixed calibration loop (``workloads.Clock``).  ``--trace 1``
runs the workload untraced and then traced (half the seconds each),
prints the per-layer metrics (spans in plain CPU time) and the tracing
overhead (both halves calibrated),
and writes the spans to
``perfbench/out/spans-<workload>.tsv``.  Every result line is preceded
by the environment, the trajectory digest and a table of metrics with
their sample counts; the last line of standard output is one JSON
object.  A failed output check still prints the result, with
``"correct": false``, and exits with status 1.  See README.md.
"""

import os

# One BLAS/OpenMP thread: the workload process is the only load, and
# thread pools on a shared 2-core machine make runs diverge.  This must
# happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time, thread_time  # noqa: E402

# These modules import nothing from repro; workloads (which does) is
# imported once src/ is on the path.
import checks  # noqa: E402
import tracing  # noqa: E402
from metrics import (  # noqa: E402
    aggregate, median, percentile, ratio, samples_beyond, self_times,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("train-n96", "train-async", "serve-sweep")
#: CPU seconds spent timing extra set-ups before the passes (beside each
#: pass's own): a set-up takes milliseconds, so its median needs many
#: samples, over several calibrations, to hold still.
SETUP_SECONDS = 1.0

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "round_ms.p50": "ms",
    "round_ms.p90": "ms",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "peak_rss_mb": "MB",
}



def _per_layer_units() -> dict:
    units = {}
    for span in tuple(tracing.LAYERS) + ("other",):
        units[f"{span}.self_ms"] = "ms"
        units[f"{span}.share"] = "ratio"
        units[f"{span}.calls"] = "count"
    del units["other.calls"]
    units.update({
        "engine.snapshot.bytes": "bytes",
        "serve.mailbox.bytes": "bytes",
        "serve.pool.acquires": "count",
        "serve.pool.hit_ratio": "ratio",
        "serve.pool.builds": "count",
        "serve.pool.restores": "count",
        "serve.pool.evictions": "count",
        "trace.spans": "count",
        "trace.untraced_rounds_per_s": "1/s",
        "trace.traced_rounds_per_s": "1/s",
        "trace.overhead_rounds_per_s": "1/s",
        "trace.overhead_share": "ratio",
        "wall.rounds_per_s": "1/s",
        "wall.offcpu_share": "ratio",
    })
    return units


#: name -> unit, in BENCHMARK.json order.
PER_LAYER = _per_layer_units()


# ----------------------------------------------------------------------
# Environment record


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return "unknown"


def _source_digest() -> str:
    """Hash of every ``src/`` Python file: names the program exactly
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source": _source_digest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ----------------------------------------------------------------------
# Measurement


class _Untraced:
    """Stand-in recorder for untraced passes: holds the request id only."""

    request = None


def sample_setups(bench, clock) -> list:
    """Set-up times for ``SETUP_SECONDS`` of CPU, on the calibrating
    ``clock``."""
    setups = []
    start = process_time()
    while process_time() - start < SETUP_SECONDS:
        setups.append(bench.setup_sample(clock))
        clock.tick()
    return setups


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(bench, budget: float, recorder, clock) -> list:
    """Whole passes until the next one would end past ``budget`` seconds
    (at least one).  Each pass is checked to have run on this thread
    alone, which the CPU-time figures need."""
    passes = []
    start = perf_counter()
    while True:
        cpu0, main0, kids0 = process_time(), thread_time(), _children_cpu()
        p = bench.run_pass(recorder, clock)
        p.problems += checks.check_cpu_accounting(
            f"pass {len(passes)}", process_time() - cpu0,
            thread_time() - main0, _children_cpu() - kids0)
        passes.append(p)
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


#: each pass's rounds are split into this many windows of consecutive
#: rounds; throughput is the median over windows, so a burst of load
#: from outside the process moves a few windows, not the figure.
WINDOWS_PER_PASS = 20


def rounds_per_s(passes, field: str = "round_s") -> tuple:
    """(median window throughput, number of windows), from the per-round
    times in ``field``.  A pass that stopped early with fewer rounds
    than windows gives none; no windows give 0.0."""
    rates = []
    for p in passes:
        times = getattr(p, field)
        size = len(times) // WINDOWS_PER_PASS
        if size == 0:
            continue
        for i in range(WINDOWS_PER_PASS):
            rates.append(ratio(size, sum(times[i * size:(i + 1) * size])))
    return _median(rates), len(rates)


def _median(values) -> float:
    """The median, and 0.0 when a failed run left no samples."""
    return median(values) if values else 0.0


def end_to_end(passes, setups) -> dict:
    """Metric -> (value, sample count, sample noun)."""
    round_ms = [s * 1000.0 for p in passes for s in p.round_s]
    job_s = [s for p in passes for s in p.job_s]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90 = percentile(round_ms, 90) if round_ms else 0.0
    return {
        "setup_s": (_median(setups), len(setups), "set-ups"),
        "rounds_per_s": rounds_per_s(passes) + ("windows",),
        "round_ms.p50": (_median(round_ms), len(round_ms), "rounds"),
        "round_ms.p90": (p90, len(round_ms), "rounds"),
        "jobs_per_s": (_median([ratio(len(p.job_s), p.jobs_s)
                                for p in passes]),
                       len(passes), "passes"),
        "job_s.p50": (_median(job_s), len(job_s), "jobs"),
        "peak_rss_mb": (peak_kb / 1024.0, 1, "process"),
    }


def wall_clock(passes) -> dict:
    """Wall-clock throughput, and the share of wall time the process
    spent off the CPU: blocked on I/O, or waiting for the host."""
    wall = sum(p.wall_s for p in passes)
    cpu = sum(p.cpu_s for p in passes)
    return {
        "wall.rounds_per_s": rounds_per_s(passes, "round_wall") + ("windows",),
        "wall.offcpu_share": (ratio(wall - cpu, wall), len(passes), "passes"),
    }


def per_layer(recorder, traced, untraced) -> dict:
    """Metric -> (value, sample count, sample noun) from the spans."""
    own = self_times(recorder.starts, recorder.ends, recorder.parents)
    totals = aggregate(recorder.names, own)
    # CPU time of the traced passes, less what the benchmark spent
    # measuring byte sizes.
    busy_ns = sum(p.cpu_s for p in traced) * 1e9 - recorder.hook_ns
    out = {}
    for span in tracing.LAYERS:
        total, calls = totals.get(span, (0, 0))
        out[f"{span}.self_ms"] = (total / 1e6, calls, "spans")
        out[f"{span}.share"] = (ratio(total, busy_ns), calls, "spans")
        out[f"{span}.calls"] = (calls, calls, "spans")
    other = busy_ns - sum(own)
    out["other.self_ms"] = (other / 1e6, len(traced), "passes")
    out["other.share"] = (ratio(other, busy_ns), len(traced), "passes")
    snapshots = totals.get("engine.snapshot", (0, 0))[1]
    out["engine.snapshot.bytes"] = (
        recorder.bytes.get("engine.snapshot", 0), snapshots, "snapshots")
    writes = sum(totals.get(s, (0, 0))[1] for s in
                 ("serve.mailbox.checkpoint", "serve.mailbox.state"))
    out["serve.mailbox.bytes"] = (
        recorder.bytes.get("serve.mailbox", 0), writes, "writes")
    pool = {k: sum(p.pool.get(k, 0) for p in traced)
            for k in ("hits", "builds", "restores", "evictions")}
    acquires = pool["hits"] + pool["builds"]
    out["serve.pool.acquires"] = (acquires, acquires, "acquires")
    out["serve.pool.hit_ratio"] = (
        ratio(pool["hits"], acquires), acquires, "acquires")
    for key in ("builds", "restores", "evictions"):
        out[f"serve.pool.{key}"] = (pool[key], acquires, "acquires")
    out["trace.spans"] = (len(own), len(own), "spans")
    (u, n_u), (t, n_t) = rounds_per_s(untraced), rounds_per_s(traced)
    out["trace.untraced_rounds_per_s"] = (u, n_u, "windows")
    out["trace.traced_rounds_per_s"] = (t, n_t, "windows")
    out["trace.overhead_rounds_per_s"] = (u - t, n_t, "windows")
    out["trace.overhead_share"] = (ratio(u - t, u), n_t, "windows")
    out.update(wall_clock(untraced))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    env = environment()
    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    workdir = OUT / f"work-{os.getpid()}"
    bench = workloads.make_workload(name, seed, workdir)
    problems = []
    try:
        bench.warm_up(_Untraced())
        wall0, cpu0 = perf_counter(), process_time()
        clock = workloads.Clock(calibrating=True)
        if trace:
            untraced = measure(bench, seconds / 2, _Untraced(), clock)
            recorder = tracing.SpanRecorder()
            with tracing.instrumented(recorder):
                traced = measure(bench, seconds / 2, recorder, clock)
            passes = untraced + traced
        else:
            setups = sample_setups(bench, clock)
            passes = measure(bench, seconds, _Untraced(), clock)
            setups += [p.setup_s for p in passes]
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        for p in passes:
            problems += p.problems
        problems += checks.check_equal_digests(
            name, {f"pass {i}": p.digest for i, p in enumerate(passes)})
        problems += bench.final_checks(passes[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    timed = sum(len(p.round_s) for p in passes)
    if samples_beyond(timed, 900) < 10:
        problems.append(f"only {timed} rounds timed; round_ms.p90 needs 100")

    print(f"time {cpu:.3f} s of CPU in {wall:.3f} s of wall clock; "
          f"off-CPU share {1 - cpu / wall:.3f} (host steal, blocking I/O, "
          "other load), which CPU-time figures cannot see")
    loop = [c * 1000.0 for c in clock.calibrations]
    print(f"calibration loop {median(loop):.4g} ms median "
          f"(p10 {percentile(loop, 10):.4g}, p90 {percentile(loop, 90):.4g}, "
          f"n={len(loop)}) against "
          f"{workloads.REFERENCE_CALIBRATION_S * 1000.0:g} ms: rounds and "
          "set-up times are in reference seconds")
    print(f"digest {name} {passes[0].digest} ({len(passes)} passes)")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    if trace:
        values = per_layer(recorder, traced, untraced)
        units = PER_LAYER
        spans_path = OUT / f"spans-{name}.tsv"
        recorder.write(str(spans_path))
        print(f"spans {len(recorder.names)} written to "
              f"{spans_path.relative_to(ROOT)}")
    else:
        values = end_to_end(passes, setups)
        units = END_TO_END
    _print_table(values, units)
    if not trace:
        _print_tail(passes)
        _print_wall(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"error_rate {failed}/{attempted} = "
          f"{failed / attempted:.6g} (failed operations / attempted)")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric][0], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 0 if correct else 1


def _print_table(values: dict, units: dict) -> None:
    print(f"{'metric':36} {'value':>16} {'unit':8} samples")
    for metric, unit in units.items():
        value, n, noun = values[metric]
        print(f"{metric:36} {value:16.6g} {unit:8} {n} {noun}")


def _print_wall(passes) -> None:
    rate, n = rounds_per_s(passes, "round_wall")
    print(f"wall rounds_per_s {rate:.6g} 1/s ({n} windows of wall-clock "
          "time, not calibrated)")


def _print_tail(passes) -> None:
    round_ms = [s * 1000.0 for p in passes for s in p.round_s]
    p = tail_percentile(len(round_ms))
    if p is None:
        return
    tenths = round(p * 10)
    print(f"tail round_ms.p{p:g} {percentile(round_ms, p):.6g} ms "
          f"(n={len(round_ms)}, {samples_beyond(len(round_ms), tenths)} "
          "beyond)")


# ----------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, one after another, so no
    workload's memory peak reaches another's figures."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode not in (0, 1) or not isinstance(result, dict):
            print(f"[{name}] exited with status {proc.returncode} "
                  "and no result", file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
