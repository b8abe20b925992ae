"""Tests of the benchmark's own arithmetic and output checks.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import math
import sys
from pathlib import Path
from time import process_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from metrics import (  # noqa: E402
    aggregate, digest, median, percentile, ratio, samples_beyond,
    self_times, tail_percentile,
)


# ----------------------------------------------------------------------
# Percentile rule


def test_percentile_interpolates_linearly():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0], 100) == 3.0
    assert median([5.0]) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, round(expected * 10)) >= 10


def test_samples_beyond_counts_whole_samples():
    assert samples_beyond(100, 900) == 10
    assert samples_beyond(99, 900) == 9
    assert samples_beyond(1440, 990) == 14


# ----------------------------------------------------------------------
# Self time


def test_self_time_subtracts_direct_children_only():
    # outer [0, 100] holds a [10, 40] and b [50, 70]; b holds c [55, 60].
    starts = [0, 10, 50, 55]
    ends = [100, 40, 70, 60]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [50, 30, 15, 5]
    names = ["outer", "child", "child", "leaf"]
    assert aggregate(names, [50, 30, 15, 5]) == {
        "outer": (50, 1), "child": (45, 2), "leaf": (5, 1)}


def test_eval_span_nests_the_model_call():
    from repro.training.datasets import Dataset
    from repro.training.evaluation import held_out_loss
    from repro.training.models import LogisticRegressionModel

    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(64, 4)), (rng.random(64) > 0.5) * 1.0)
    model = LogisticRegressionModel(4, seed=0)
    recorder = tracing.SpanRecorder()
    with tracing.instrumented(recorder):
        import repro.training.evaluation as evaluation
        traced_loss = evaluation.held_out_loss(model, data)
    assert evaluation.held_out_loss is held_out_loss  # originals restored
    assert traced_loss == held_out_loss(model, data)
    assert recorder.names == ["training.eval", "training.grad"]
    assert recorder.parents == [-1, 0]
    own = self_times(recorder.starts, recorder.ends, recorder.parents)
    eval_total = recorder.ends[0] - recorder.starts[0]
    grad_total = recorder.ends[1] - recorder.starts[1]
    assert own == [eval_total - grad_total, grad_total]


# ----------------------------------------------------------------------
# Ratios


def test_ratio_with_zero_base_is_zero():
    assert ratio(3, 0) == 0.0
    assert ratio(0, 0) == 0.0
    assert ratio(1, 4) == 0.25


def test_per_layer_reports_zero_for_layers_a_workload_never_enters():
    passes = [SimpleNamespace(cpu_s=0.5, wall_s=0.625, round_s=[0.01] * 40,
                              round_wall=[0.0125] * 40, pool={})]
    values = run.per_layer(tracing.SpanRecorder(), passes, passes)
    assert values["serve.pool.hit_ratio"] == (0.0, 0, "acquires")
    assert values["serve.pool.acquires"][0] == 0
    assert values["engine.snapshot.calls"][0] == 0
    assert values["other.share"][0] == 1.0
    assert values["trace.traced_rounds_per_s"] == (100.0, 20, "windows")
    assert values["trace.overhead_share"][0] == 0.0
    assert values["wall.rounds_per_s"] == (80.0, 20, "windows")
    assert values["wall.offcpu_share"][0] == pytest.approx(0.2)
    assert set(values) == set(run.PER_LAYER)


# ----------------------------------------------------------------------
# Instrumentation covers every layer


def _replaced(target):
    import importlib

    module_name, _, qual = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in qual:
        return [getattr(module, qual)]
    cls_name, attr = qual.split(".")
    return [vars(k)[attr] for k in tracing._subclasses(getattr(module, cls_name))
            if attr in vars(k)]


def test_instrumented_wraps_every_layer_target_and_restores_it():
    import repro  # noqa: F401 - loads every layer and its subclasses

    targets = [t for ts in tracing.LAYERS.values() for t in ts]
    with tracing.instrumented(tracing.SpanRecorder()):
        for target in targets:
            found = _replaced(target)
            assert found and all(hasattr(f, "__wrapped__") for f in found), \
                target
    for target in targets:
        assert not any(hasattr(f, "__wrapped__") for f in _replaced(target))


def test_instrumented_rejects_a_target_that_wraps_nothing(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "serve.scheduler.pick",
                        ["repro.serve.scheduler:FairScheduler.choose"])
    with pytest.raises(LookupError, match="wrapped nothing"):
        with tracing.instrumented(tracing.SpanRecorder()):
            pass
    from repro.serve.scheduler import FairScheduler
    assert not hasattr(vars(FairScheduler)["pick"], "__wrapped__")


# ----------------------------------------------------------------------
# Output checks


LOSSES = [0.7, 0.6, 0.5, 0.4]
RECOVERED = [60, 64, 58, 70]
BOUNDS = (48, 96)


def test_sync_check_accepts_a_good_trajectory():
    assert checks.check_sync_trajectory(LOSSES, RECOVERED, BOUNDS, 4) == []


@pytest.mark.parametrize("losses, recovered, rounds", [
    (LOSSES[:3], RECOVERED[:3], 4),                  # a round missing
    ([0.7, float("nan"), 0.5, 0.4], RECOVERED, 4),   # non-finite loss
    ([0.7, 0.6, 0.5, 0.8], RECOVERED, 4),            # no progress
    (LOSSES, [60, 64, 40, 70], 4),                   # below Theorem 10
    (LOSSES, [60, 97, 58, 70], 4),                   # above Theorem 11
])
def test_sync_check_rejects_tampered_trajectories(losses, recovered, rounds):
    assert checks.check_sync_trajectory(losses, recovered, BOUNDS, rounds)


def test_async_check_rejects_wrong_counts_and_infinite_losses():
    assert checks.check_async_trajectory([0.5, 0.4], 2) == []
    assert checks.check_async_trajectory([0.5, 0.4], 3)
    assert checks.check_async_trajectory([0.5, math.inf], 2)


def test_serve_checks_reject_unfinished_or_short_jobs():
    done = {"id": "job-00", "state": "done", "report": {"num_steps": 60}}
    assert checks.check_serve_jobs([done], {"job-00": 60}) == []
    assert checks.check_serve_jobs([done], {"job-00": 61})
    assert checks.check_serve_jobs([], {"job-00": 60})
    failed = {"id": "job-00", "state": "failed", "error": "boom"}
    assert checks.check_serve_jobs([failed], {"job-00": 60})
    assert checks.check_recovered("job-00", [4, 6], (4, 12)) == []
    assert checks.check_recovered("job-00", [4, 2], (4, 12))


def test_solo_comparison_and_digests_see_a_single_flipped_bit():
    report = {"num_steps": 2, "total_sim_time": 1.5, "final_loss": 0.4,
              "loss_curve": [0.5, 0.4]}
    assert checks.check_same_run("j", report, dict(report)) == []
    nudged = float(np.nextafter(0.4, 1.0))
    tampered = dict(report, loss_curve=[0.5, nudged])
    assert checks.check_same_run("j", report, tampered)
    assert digest(report["loss_curve"]) != digest(tampered["loss_curve"])
    assert checks.check_equal_digests("w", {
        "untraced": digest([0.5, 0.4]), "traced": digest([0.5, nudged])})


def test_cpu_accounting_rejects_other_threads_and_child_processes():
    assert checks.check_cpu_accounting("p", 2.0, 1.99, 0.0) == []
    assert checks.check_cpu_accounting("p", 2.0, 1.5, 0.0)
    assert checks.check_cpu_accounting("p", 2.0, 2.0, 0.25)


# ----------------------------------------------------------------------
# Failed runs still report


def test_end_to_end_survives_a_pass_that_stopped_early():
    short = SimpleNamespace(round_s=[0.01] * 5, job_s=[], jobs_s=0.0)
    values = run.end_to_end([short], [0.002, 0.001, 0.003])
    assert values["rounds_per_s"] == (0.0, 0, "windows")
    assert values["jobs_per_s"][0] == 0.0
    assert values["job_s.p50"] == (0.0, 0, "jobs")
    assert values["setup_s"][0] == 0.002
    assert set(values) == set(run.END_TO_END)


def test_a_raising_round_fails_the_run_with_a_result(monkeypatch, capsys):
    import repro
    import workloads

    spec = repro.ExperimentSpec.from_dict(dict(
        workloads.FIG12_CR, name="flaky", num_workers=12, wait_for=8,
        max_steps=40, seed=3))
    build = repro.build_engine

    def flaky_build(spec):
        engine = build(spec)
        step, calls = engine.step_rounds, []

        def step_rounds(n):
            calls.append(n)
            if len(calls) > 3:
                raise RuntimeError("worker lost")
            return step(n)

        engine.step_rounds = step_rounds
        return engine

    monkeypatch.setattr(repro, "build_engine", flaky_build)
    monkeypatch.setattr(workloads, "make_workload",
                        lambda *a: workloads.TrainWorkload(spec, 5))
    assert run.run_workload("train-n96", 3, 1e-6, False) == 1  # one pass
    out = capsys.readouterr().out.splitlines()
    assert any("round 3 raised" in line for line in out)
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_clock_scales_by_calibration_and_leaves_it_out():
    import workloads

    plain = workloads.Clock()
    c0, t0 = process_time(), plain.now()
    sum(range(100_000))
    assert plain.now() - t0 <= process_time() - c0
    assert plain.calibrations == []

    clock = workloads.Clock(calibrating=True)
    clock.tick()  # too soon for another calibration
    assert len(clock.calibrations) == 1
    scale = workloads.REFERENCE_CALIBRATION_S / clock.calibrations[0]
    c0, t0 = process_time(), clock.now()
    while process_time() - c0 < workloads.CALIBRATE_EVERY_S:
        pass
    busy = process_time() - c0
    clock.tick()
    assert len(clock.calibrations) == 2
    assert clock.now() - t0 == pytest.approx(busy * scale, rel=0.05)


# ----------------------------------------------------------------------
# BENCHMARK.json names every metric a run prints


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.PER_LAYER)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
