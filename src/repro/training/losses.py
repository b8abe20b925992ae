"""Loss functions with analytic gradients.

Each loss exposes ``value(pred, y)`` and ``grad(pred, y)`` (gradient
w.r.t. the prediction), letting models chain their own backward pass.
All values are means over the batch, matching the optimizer's
"gradient of the average loss" convention.

Every function also accepts *stacked* batches: leading axes in front of
the batch axis index independent batches (``pred[g, B]`` for the scalar
losses, ``logits[g, B, k]`` for softmax).  ``values`` returns one mean
per stacked batch, and row ``i`` of a stacked call is bit-identical to
the unstacked call on batch ``i``: every reduction runs over a
contiguous trailing axis, exactly as it does for a single batch.

So the batch axis of the scalar losses (mean-squared error, binary
cross entropy) is the *last* axis: a 2-D ``pred`` is a stack of
batches, not one batch of multi-output predictions, and ``grad``
divides row ``i`` by that row's batch size.  ``value`` takes exactly one
batch and raises :class:`~repro.exceptions.TrainingError` on a stack.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import TrainingError


def _check_batch(pred: np.ndarray, target: np.ndarray, batch_axis: int) -> None:
    """``target`` must match ``pred`` up to and including the batch axis,
    and the batch must be non-empty."""
    lead = pred.shape[: batch_axis + 1]
    if target.shape[: batch_axis + 1] != lead:
        raise TrainingError(
            "prediction/target batch mismatch: "
            f"{'x'.join(map(str, lead))} vs "
            f"{'x'.join(map(str, target.shape[: batch_axis + 1]))}"
        )
    if pred.shape[batch_axis] == 0:
        raise TrainingError("empty batch")


class _Loss:
    """Shared ``value``: the single-batch case of ``values``."""

    @classmethod
    def value(cls, pred: np.ndarray, target: np.ndarray) -> float:
        """Mean loss of one batch."""
        losses = cls.values(pred, target)
        if np.ndim(losses):
            raise TrainingError(
                f"value takes one batch, got a stack of shape "
                f"{np.shape(losses)}; use values"
            )
        return float(losses)


class MeanSquaredError(_Loss):
    """``0.5 · mean((pred - y)²)`` — the 0.5 makes the gradient clean."""

    @staticmethod
    def values(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Mean loss of each batch along the last axis."""
        _check_batch(pred, target, pred.ndim - 1)
        diff = pred - target
        return 0.5 * np.mean(diff * diff, axis=-1)

    @staticmethod
    def grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        _check_batch(pred, target, pred.ndim - 1)
        return (pred - target) / pred.shape[-1]


class BinaryCrossEntropy(_Loss):
    """Logistic loss on raw scores (sigmoid applied internally).

    Targets are 0/1; uses the numerically stable log-sum-exp form
    ``log(1 + exp(-s·t̃))`` with ``t̃ = 2t - 1``.
    """

    @staticmethod
    def values(scores: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Mean loss of each batch along the last axis."""
        _check_batch(scores, target, scores.ndim - 1)
        signed = np.where(target > 0.5, 1.0, -1.0)
        margin = scores * signed
        # log(1 + exp(-m)) computed stably.
        loss = np.logaddexp(0.0, -margin)
        return loss.mean(axis=-1)

    @staticmethod
    def grad(scores: np.ndarray, target: np.ndarray) -> np.ndarray:
        _check_batch(scores, target, scores.ndim - 1)
        signed = np.where(target > 0.5, 1.0, -1.0)
        sigma = 1.0 / (1.0 + np.exp(scores * signed))
        return (-signed * sigma) / scores.shape[-1]


class SoftmaxCrossEntropy(_Loss):
    """Multi-class cross entropy on raw logits with integer targets."""

    @staticmethod
    def _probabilities(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    @staticmethod
    def _target_entries(probs: np.ndarray, target: np.ndarray):
        """``probs`` as ``(rows, k)`` plus the index of each row's target."""
        rows = probs.reshape(-1, probs.shape[-1])
        return rows, (np.arange(rows.shape[0]), target.reshape(-1).astype(int))

    @classmethod
    def values(cls, logits: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Mean loss of each batch along the second-to-last axis."""
        _check_batch(logits, target, logits.ndim - 2)
        rows, idx = cls._target_entries(cls._probabilities(logits), target)
        picked = np.clip(rows[idx], 1e-12, None).reshape(target.shape)
        return -np.log(picked).mean(axis=-1)

    @classmethod
    def grad(cls, logits: np.ndarray, target: np.ndarray) -> np.ndarray:
        _check_batch(logits, target, logits.ndim - 2)
        probs = cls._probabilities(logits)
        rows, idx = cls._target_entries(probs, target)
        rows[idx] -= 1.0
        return probs / logits.shape[-2]
