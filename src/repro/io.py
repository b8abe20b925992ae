"""Serialisation: experiment artefacts to and from disk.

Keeps experiment outputs reproducible and diffable: summaries and
step records serialise to plain JSON, delay traces round-trip through
the same files, and whole experiment runs can be archived next to the
benchmark results.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

from .engine.state import record_from_dict, record_to_dict
from .exceptions import ConfigurationError
from .straggler.traces import DelayTrace
from .types import StepRecord, TrainingSummary


# ----------------------------------------------------------------------
# TrainingSummary
# ----------------------------------------------------------------------
def summary_to_dict(summary: TrainingSummary) -> Dict[str, Any]:
    """A JSON-ready dict of a training summary."""
    return {
        "scheme": summary.scheme,
        "num_steps": summary.num_steps,
        "total_sim_time": summary.total_sim_time,
        "final_loss": summary.final_loss,
        "reached_threshold": summary.reached_threshold,
        "avg_step_time": summary.avg_step_time,
        "avg_recovery_fraction": summary.avg_recovery_fraction,
        "loss_curve": list(summary.loss_curve),
        "time_curve": list(summary.time_curve),
    }


def summary_from_dict(payload: Mapping[str, Any]) -> TrainingSummary:
    """Inverse of :func:`summary_to_dict`."""
    required = {
        "scheme", "num_steps", "total_sim_time", "final_loss",
        "reached_threshold", "avg_step_time", "avg_recovery_fraction",
        "loss_curve", "time_curve",
    }
    missing = required - set(payload)
    if missing:
        raise ConfigurationError(
            f"summary dict missing keys: {sorted(missing)}"
        )
    return TrainingSummary(
        scheme=str(payload["scheme"]),
        num_steps=int(payload["num_steps"]),
        total_sim_time=float(payload["total_sim_time"]),
        final_loss=float(payload["final_loss"]),
        reached_threshold=bool(payload["reached_threshold"]),
        avg_step_time=float(payload["avg_step_time"]),
        avg_recovery_fraction=float(payload["avg_recovery_fraction"]),
        loss_curve=tuple(float(x) for x in payload["loss_curve"]),
        time_curve=tuple(float(x) for x in payload["time_curve"]),
    )


def save_summary(summary: TrainingSummary, path: str | pathlib.Path) -> None:
    """Write a training summary to ``path`` as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(summary_to_dict(summary), indent=2) + "\n"
    )


def load_summary(path: str | pathlib.Path) -> TrainingSummary:
    """Read a training summary previously written by :func:`save_summary`."""
    return summary_from_dict(json.loads(pathlib.Path(path).read_text()))


# ----------------------------------------------------------------------
# Step records
# ----------------------------------------------------------------------
def records_to_dicts(records: Sequence[StepRecord]) -> List[Dict[str, Any]]:
    """JSON-ready dicts for a sequence of step records (extras included)."""
    return [record_to_dict(r) for r in records]


def records_from_dicts(payload: Sequence[Mapping[str, Any]]) -> List[StepRecord]:
    """Inverse of :func:`records_to_dicts`; a missing ``grad_norm`` reads
    as 0 and missing ``extras`` as empty."""
    return [record_from_dict(d) for d in payload]


def save_records(
    records: Sequence[StepRecord], path: str | pathlib.Path
) -> None:
    """Write step records to ``path`` as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(records_to_dicts(records), indent=2) + "\n"
    )


def load_records(path: str | pathlib.Path) -> List[StepRecord]:
    """Read step records previously written by :func:`save_records`."""
    return records_from_dicts(json.loads(pathlib.Path(path).read_text()))


# ----------------------------------------------------------------------
# Delay traces
# ----------------------------------------------------------------------
def save_trace(trace: DelayTrace, path: str | pathlib.Path) -> None:
    """Write a delay trace to ``path`` as JSON."""
    pathlib.Path(path).write_text(json.dumps(trace.to_dict()) + "\n")


def load_trace(path: str | pathlib.Path) -> DelayTrace:
    """Read a delay trace previously written by :func:`save_trace`."""
    return DelayTrace.from_dict(json.loads(pathlib.Path(path).read_text()))


# ----------------------------------------------------------------------
# Model checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(
    path: str | pathlib.Path,
    parameters: "np.ndarray",
    step: int,
    metadata: Mapping[str, Any] | None = None,
) -> None:
    """Write a training checkpoint: flat parameters + step + metadata."""
    if step < 0:
        raise ConfigurationError(f"step must be >= 0, got {step}")
    payload = {
        "step": int(step),
        "parameters": np.asarray(parameters, dtype=float).tolist(),
        "metadata": dict(metadata or {}),
    }
    pathlib.Path(path).write_text(json.dumps(payload) + "\n")


def load_checkpoint(
    path: str | pathlib.Path,
) -> tuple["np.ndarray", int, Dict[str, Any]]:
    """Read a checkpoint back as ``(parameters, step, metadata)``."""
    payload = json.loads(pathlib.Path(path).read_text())
    missing = {"step", "parameters", "metadata"} - set(payload)
    if missing:
        raise ConfigurationError(f"checkpoint missing keys: {sorted(missing)}")
    return (
        np.asarray(payload["parameters"], dtype=float),
        int(payload["step"]),
        dict(payload["metadata"]),
    )
