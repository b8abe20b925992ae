"""Tests for serialisation round-trips."""

import dataclasses
import json

import numpy as np
import pytest

from repro import io
from repro.exceptions import ConfigurationError
from repro.straggler import DelayTrace, ExponentialDelay
from repro.types import StepRecord, TrainingSummary


@pytest.fixture
def summary():
    return TrainingSummary(
        scheme="is-gc-cr",
        num_steps=3,
        total_sim_time=4.5,
        final_loss=0.25,
        reached_threshold=True,
        avg_step_time=1.5,
        avg_recovery_fraction=0.875,
        loss_curve=(1.0, 0.5, 0.25),
        time_curve=(1.5, 3.0, 4.5),
    )


@pytest.fixture
def records():
    return [
        StepRecord(
            step=i, sim_time=float(i + 1), wait_time=1.0,
            num_available=2, num_recovered=4, recovery_fraction=1.0,
            loss=1.0 / (i + 1), grad_norm=0.1 * i,
        )
        for i in range(4)
    ]


class TestSummaryRoundTrip:
    def test_dict_round_trip(self, summary):
        clone = io.summary_from_dict(io.summary_to_dict(summary))
        assert clone == summary

    def test_file_round_trip(self, summary, tmp_path):
        path = tmp_path / "summary.json"
        io.save_summary(summary, path)
        assert io.load_summary(path) == summary

    def test_file_is_valid_json(self, summary, tmp_path):
        path = tmp_path / "summary.json"
        io.save_summary(summary, path)
        payload = json.loads(path.read_text())
        assert payload["scheme"] == "is-gc-cr"

    def test_missing_key_rejected(self, summary):
        payload = io.summary_to_dict(summary)
        del payload["scheme"]
        with pytest.raises(ConfigurationError, match="missing"):
            io.summary_from_dict(payload)


class TestRecordsRoundTrip:
    def test_dict_round_trip(self, records):
        clones = io.records_from_dicts(io.records_to_dicts(records))
        assert clones == records

    def test_file_round_trip(self, records, tmp_path):
        path = tmp_path / "records.json"
        io.save_records(records, path)
        assert io.load_records(path) == records

    def test_grad_norm_defaults_to_zero(self):
        payload = [{
            "step": 0, "sim_time": 1.0, "wait_time": 1.0,
            "num_available": 1, "num_recovered": 1,
            "recovery_fraction": 0.25, "loss": 2.0,
        }]
        loaded = io.records_from_dicts(payload)
        assert loaded[0].grad_norm == 0.0
        assert loaded[0].extras == {}

    def test_extras_survive_file_round_trip(self, records, tmp_path):
        # Regression: records_to_dicts used to drop StepRecord.extras.
        tagged = [
            dataclasses.replace(
                r, extras={"migration_cost": 0.1 * r.step, "bytes": 3.0}
            )
            for r in records
        ]
        path = tmp_path / "records.json"
        io.save_records(tagged, path)
        loaded = io.load_records(path)
        assert loaded == tagged
        assert loaded[2].extras == {"migration_cost": 0.1 * 2, "bytes": 3.0}


class TestTraceRoundTrip:
    def test_file_round_trip(self, tmp_path):
        trace = DelayTrace.record(
            ExponentialDelay(1.0), 3, 5, np.random.default_rng(0)
        )
        path = tmp_path / "trace.json"
        io.save_trace(trace, path)
        loaded = io.load_trace(path)
        np.testing.assert_allclose(loaded.delays, trace.delays)

    def test_loaded_trace_replays_identically(self, tmp_path):
        trace = DelayTrace.record(
            ExponentialDelay(2.0), 4, 6, np.random.default_rng(1)
        )
        path = tmp_path / "trace.json"
        io.save_trace(trace, path)
        loaded = io.load_trace(path)
        for step in range(6):
            for worker in range(4):
                assert loaded.delay(worker, step) == trace.delay(worker, step)
