"""Synthetic datasets and dataset partitioning.

The paper trains ResNet-18 on CIFAR-10/ImageNet; per DESIGN.md we
substitute NumPy-friendly synthetic workloads that preserve what the
experiments measure (recovered-gradient fraction → convergence speed):

* :func:`make_regression` — noisy linear teacher (convex, analysable);
* :func:`make_classification` — Gaussian class blobs for logistic /
  softmax models;
* :func:`make_cifar_like` — random-feature "images" with a planted
  non-linear teacher, sized like small vision inputs, for the MLP.

Partitioning follows Sec. VIII-A's seed discipline: each partition owns
an independent seeded batch stream, so every scheme sees byte-identical
mini-batches for the same (partition, step) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .batchdraw import draw_indices, exact_draw_available


@dataclass(frozen=True)
class Dataset:
    """An in-memory supervised dataset."""

    features: np.ndarray  # shape (num_samples, num_features)
    labels: np.ndarray  # shape (num_samples,) or (num_samples, k)
    name: str = "dataset"

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ConfigurationError(
                f"features must be 2-D, got shape {self.features.shape}"
            )
        if self.labels.shape[0] != self.features.shape[0]:
            raise ConfigurationError(
                f"features/labels row mismatch: {self.features.shape[0]} "
                f"vs {self.labels.shape[0]}"
            )

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """A new dataset restricted to ``indices`` (rows copied by view)."""
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            name=self.name,
        )


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def make_regression(
    num_samples: int,
    num_features: int,
    noise: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Noisy linear-teacher regression: ``y = Xβ* + ε``."""
    _check_sizes(num_samples, num_features)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(num_samples, num_features))
    beta = rng.normal(size=num_features) / np.sqrt(num_features)
    y = x @ beta + noise * rng.normal(size=num_samples)
    return Dataset(features=x, labels=y, name="regression")


def make_classification(
    num_samples: int,
    num_features: int,
    num_classes: int = 2,
    separation: float = 2.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian blobs: ``num_classes`` clusters with unit covariance."""
    _check_sizes(num_samples, num_features)
    if num_classes < 2:
        raise ConfigurationError(
            f"need at least 2 classes, got {num_classes}"
        )
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_classes, num_features)) * separation
    labels = rng.integers(num_classes, size=num_samples)
    x = centers[labels] + rng.normal(size=(num_samples, num_features))
    return Dataset(features=x, labels=labels.astype(np.int64), name="blobs")


def make_cifar_like(
    num_samples: int = 2048,
    side: int = 8,
    num_classes: int = 10,
    seed: int = 0,
) -> Dataset:
    """A CIFAR-10 stand-in: ``side × side × 3`` random images whose class
    is a planted non-linear function of random projections.

    Small enough for laptop-scale runs, non-linear enough that the MLP
    has something real to learn (training loss falls well below the
    trivial ``log(num_classes)``).
    """
    _check_sizes(num_samples, side)
    rng = np.random.default_rng(seed)
    dim = side * side * 3
    x = rng.normal(size=(num_samples, dim)).astype(np.float64)
    # Planted teacher: class = argmax over random ReLU features.
    w1 = rng.normal(size=(dim, 4 * num_classes)) / np.sqrt(dim)
    w2 = rng.normal(size=(4 * num_classes, num_classes))
    logits = np.maximum(x @ w1, 0.0) @ w2
    labels = logits.argmax(axis=1).astype(np.int64)
    return Dataset(features=x, labels=labels, name="cifar-like")


def _check_sizes(num_samples: int, num_features: int) -> None:
    if num_samples <= 0 or num_features <= 0:
        raise ConfigurationError(
            f"sizes must be positive, got samples={num_samples}, "
            f"features={num_features}"
        )


# ----------------------------------------------------------------------
# Partitioning & batch streams
# ----------------------------------------------------------------------
def partition_dataset(
    dataset: Dataset, num_partitions: int, seed: int = 0
) -> List[Dataset]:
    """Shuffle once, then split into ``num_partitions`` near-equal parts.

    Sizes differ by at most one sample; the shuffle keeps class balance
    statistical rather than positional.
    """
    if num_partitions <= 0:
        raise ConfigurationError(
            f"num_partitions must be positive, got {num_partitions}"
        )
    if num_partitions > dataset.num_samples:
        raise ConfigurationError(
            f"cannot split {dataset.num_samples} samples into "
            f"{num_partitions} partitions"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.num_samples)
    chunks = np.array_split(order, num_partitions)
    return [dataset.subset(chunk) for chunk in chunks]


class BatchStream:
    """Reproducible mini-batch stream over one partition.

    Batches are sampled with replacement from a per-partition
    :class:`numpy.random.Generator` seeded by ``(seed, partition_id)``,
    so any two runs — regardless of scheme — draw identical batches for
    the same (partition, step).  This is the paper's "carefully control
    all random seeds" discipline (Sec. VIII-A).
    """

    def __init__(self, partition: Dataset, partition_id: int, batch_size: int, seed: int = 0):
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {batch_size}"
            )
        self._partition = partition
        self._batch_size = min(batch_size, partition.num_samples)
        self._seed = seed
        self._partition_id = partition_id

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def partition_id(self) -> int:
        return self._partition_id

    @property
    def partition(self) -> Dataset:
        return self._partition

    def indices(self, step: int) -> np.ndarray:
        """Row indices (into the partition) of the ``step`` mini-batch.

        Stateless by construction: a fresh generator is derived from
        ``(seed, partition_id, step)`` so batches can be re-materialised
        in any order.
        """
        rng = np.random.default_rng(
            (self._seed, self._partition_id, step)
        )
        return rng.integers(self._partition.num_samples, size=self._batch_size)

    def batch(self, step: int) -> Tuple[np.ndarray, np.ndarray]:
        """The (features, labels) mini-batch for ``step``."""
        idx = self.indices(step)
        return self._partition.features[idx], self._partition.labels[idx]


def build_batch_streams(
    partitions: List[Dataset], batch_size: int, seed: int = 0
) -> List[BatchStream]:
    """One stream per partition, sharing the master seed."""
    return [
        BatchStream(part, pid, batch_size, seed=seed)
        for pid, part in enumerate(partitions)
    ]


Stack = Tuple[List[int], np.ndarray, np.ndarray]


def _batch_size_groups(streams: Sequence[BatchStream]) -> List[List[int]]:
    """Stream indices grouped by batch size, in order of first appearance."""
    groups: Dict[int, List[int]] = {}
    for pid, stream in enumerate(streams):
        groups.setdefault(stream.batch_size, []).append(pid)
    return list(groups.values())


def stack_batches(streams: Sequence[BatchStream], step: int) -> List[Stack]:
    """Every stream's ``step`` mini-batch, stacked by batch size.

    Returns one ``(pids, x[g, B, ...], y[g, B, ...])`` per distinct batch
    size ``B``, in order of first appearance; row ``i`` of a stack is
    ``streams[pids[i]].batch(step)``.  Partitions of an uneven split
    differ in size by one row, so a clipped batch size gives two groups.
    """
    stacks = []
    for pids in _batch_size_groups(streams):
        xs, ys = zip(*(streams[pid].batch(step) for pid in pids))
        stacks.append((pids, np.stack(xs), np.stack(ys)))
    return stacks


#: Fewest streams for which :class:`BatchStacker` draws a round's batch
#: indices in one vectorized call.  That call costs ~170-250 µs of fixed
#: numpy overhead plus ~1 µs per row, against ~20-30 µs per stream for a
#: native ``default_rng`` draw (one x86-64 core, numpy 2.4), so it
#: breaks even around 8-12 streams.  16 leaves a margin for small
#: rounds — the n = 12 serve sweeps, whose engines are rebuilt almost
#: every quantum — which keep the per-stream :meth:`BatchStream.batch`.
STACKED_DRAW_MIN_STREAMS = 16


class BatchStacker:
    """:func:`stack_batches` for one engine's streams, drawn in bulk.

    With at least :data:`STACKED_DRAW_MIN_STREAMS` streams, and once
    :func:`~repro.training.batchdraw.exact_draw_available` has confirmed
    the transcription, a round's indices come from a single
    :func:`~repro.training.batchdraw.draw_indices` call, drawn at the
    largest batch size (a draw's prefix is the smaller draw), and each
    batch-size group is one fancy-index gather from the partitions
    concatenated on the first round (so building an engine costs no
    more than before).  Smaller rounds, or a failed probe, call
    :func:`stack_batches`.  Either way the stacks equal
    :func:`stack_batches` bit for bit.
    """

    def __init__(self, streams: Sequence[BatchStream]):
        self._streams = streams

    @cached_property
    def _plan(self) -> Optional["_StackPlan"]:
        """The bulk-draw plan, built on the first round; ``None`` keeps
        the per-stream draw."""
        streams = self._streams
        if (
            len(streams) < STACKED_DRAW_MIN_STREAMS
            or not exact_draw_available()
        ):
            return None
        return _StackPlan(streams)

    def stacks(self, step: int) -> List[Stack]:
        """Every stream's ``step`` batch, as :func:`stack_batches` gives."""
        if self._plan is None:
            return stack_batches(self._streams, step)
        return self._plan.stacks(step)


class _StackPlan:
    """The concatenated partitions and per-row draw keys of a stacker."""

    def __init__(self, streams: Sequence[BatchStream]):
        groups = _batch_size_groups(streams)
        order = [streams[pid] for pids in groups for pid in pids]
        parts = [stream.partition for stream in order]
        self.features = np.concatenate([p.features for p in parts])
        self.labels = np.concatenate([p.labels for p in parts])
        self.sizes = np.array([p.num_samples for p in parts])
        self.offsets = (np.cumsum(self.sizes) - self.sizes)[:, None]
        self.pids = np.array([stream.partition_id for stream in order])
        self.seeds = np.array([stream.seed for stream in order])
        self.batch_size = max(stream.batch_size for stream in order)
        self.groups = []
        start = 0
        for pids in groups:
            stop = start + len(pids)
            self.groups.append(
                (pids, slice(start, stop), streams[pids[0]].batch_size)
            )
            start = stop

    def stacks(self, step: int) -> List[Stack]:
        rows = draw_indices(
            self.seeds, self.pids, step, self.sizes, self.batch_size
        ) + self.offsets
        stacks = []
        for pids, span, batch_size in self.groups:
            idx = rows[span, :batch_size]
            stacks.append((pids, self.features[idx], self.labels[idx]))
        return stacks
