"""NumPy models with flat-parameter interfaces.

Every model exposes

* ``num_parameters`` and ``get_parameters() / set_parameters(vec)``
  over a single flat ``float64`` vector — the unit the coded-gradient
  pipeline ships around;
* ``loss(x, y)`` — mean loss on a batch;
* ``gradient(x, y)`` — flat gradient of the mean batch loss;
* ``loss_and_gradient(x, y)`` — both in one pass;
* ``loss_and_gradient_stacked(x, y)`` — the same for ``g`` batches of
  one size at once: ``x[g, B, ...]`` and ``y[g, B, ...]`` give
  ``(losses[g], grads[g, P])``, and row ``i`` equals
  ``loss_and_gradient(x[i], y[i])`` bit for bit.

The stacked call is how a synchronous round evaluates all ``n``
partition gradients: :class:`~repro.training.datasets.BatchStacker`
groups the partitions by batch size (uneven splits give two groups) and
the engine makes one stacked call per group.  The linear, logistic,
softmax and MLP models write their math once, over the trailing axes
(``np.matmul`` runs the same BLAS call on every slice that a single
batch makes, and every reduction runs along a contiguous axis), so
their single-batch ``loss_and_gradient`` (and so ``loss`` and
``gradient``) runs the stacked kernel on the unstacked batch.  Any
other model (:class:`~repro.training.conv.Conv2DClassifier`, user models)
inherits a stacked default that loops over ``loss_and_gradient``.

Gradients are analytic (no autograd) and are validated against finite
differences in the tests.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from ..exceptions import TrainingError
from .losses import BinaryCrossEntropy, MeanSquaredError, SoftmaxCrossEntropy


class Model(abc.ABC):
    """Base class for flat-parameter models."""

    @property
    @abc.abstractmethod
    def num_parameters(self) -> int:
        ...

    @abc.abstractmethod
    def get_parameters(self) -> np.ndarray:
        """Copy of the flat parameter vector."""

    @abc.abstractmethod
    def set_parameters(self, flat: np.ndarray) -> None:
        """Install a flat parameter vector."""

    @abc.abstractmethod
    def loss_and_gradient(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Mean batch loss and its flat gradient."""

    def loss_and_gradient_stacked(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Losses ``(g,)`` and flat gradients ``(g, P)`` of ``g``
        stacked batches; row ``i`` is ``loss_and_gradient(x[i], y[i])``.

        The default loops over :meth:`loss_and_gradient`.
        """
        if len(x) != len(y):
            raise TrainingError(
                f"stacked batch mismatch: {len(x)} feature batches vs "
                f"{len(y)} label batches"
            )
        pairs = [self.loss_and_gradient(xi, yi) for xi, yi in zip(x, y)]
        losses = np.array([loss for loss, _ in pairs], dtype=float)
        grads = np.array([grad for _, grad in pairs], dtype=float)
        return losses, grads.reshape(len(pairs), self.num_parameters)

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean batch loss at the current parameters."""
        return self.loss_and_gradient(x, y)[0]

    def gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flat gradient of the mean batch loss."""
        return self.loss_and_gradient(x, y)[1]

    def _validate_flat(self, flat: np.ndarray) -> np.ndarray:
        arr = np.asarray(flat, dtype=float).ravel()
        if arr.size != self.num_parameters:
            raise TrainingError(
                f"parameter vector of size {arr.size} does not match "
                f"model size {self.num_parameters}"
            )
        return arr


class _StackedModel(Model):
    """A model whose loss and gradient are written once, in
    :meth:`_loss_and_gradient`, for one batch ``x[B, d]`` or a stack
    ``x[g, B, d]``: every operation runs over the trailing axes."""

    @abc.abstractmethod
    def _loss_and_gradient(self, x, y):
        """Mean loss and flat gradient, with ``x``'s leading stack axes."""

    def loss_and_gradient(self, x, y):
        loss, grad = self._loss_and_gradient(x, y)
        return float(loss), grad

    def loss_and_gradient_stacked(self, x, y):
        if np.ndim(x) != 3:
            raise TrainingError(
                f"stacked features must be (g, B, d), got shape {np.shape(x)}"
            )
        return self._loss_and_gradient(x, y)


def _transposed(a: np.ndarray) -> np.ndarray:
    """Each stacked matrix transposed (``a.T`` of a single batch)."""
    return a.swapaxes(-1, -2)


class _AffineScoreModel(_StackedModel):
    """``s = Xw + b`` under a scalar per-sample loss."""

    #: loss class applied to the scores (``values`` and ``grad``).
    _loss_fn: type

    def __init__(self, num_features: int, seed: int = 0):
        if num_features <= 0:
            raise TrainingError(
                f"num_features must be positive, got {num_features}"
            )
        rng = np.random.default_rng(seed)
        self._w = rng.normal(scale=0.01, size=num_features)
        self._b = 0.0
        self._d = num_features

    @property
    def num_parameters(self) -> int:
        return self._d + 1

    def get_parameters(self) -> np.ndarray:
        return np.concatenate([self._w, [self._b]])

    def set_parameters(self, flat: np.ndarray) -> None:
        """Install a flat parameter vector."""
        arr = self._validate_flat(flat)
        self._w = arr[: self._d].copy()
        self._b = float(arr[self._d])

    def _output(self, x):
        return x @ self._w + self._b

    def _loss_and_gradient(self, x, y):
        s = self._output(x)
        losses = self._loss_fn.values(s, y)
        ds = self._loss_fn.grad(s, y)
        grad_w = (_transposed(x) @ ds[..., None])[..., 0]
        grad_b = ds.sum(axis=-1)
        return losses, np.concatenate([grad_w, grad_b[..., None]], axis=-1)


class LinearRegressionModel(_AffineScoreModel):
    """``pred = Xw + b`` under mean-squared error."""

    _loss_fn = MeanSquaredError

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Real-valued predictions ``Xw + b``."""
        return self._output(x)


class LogisticRegressionModel(_AffineScoreModel):
    """Binary logistic regression on raw scores."""

    _loss_fn = BinaryCrossEntropy

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Raw (pre-sigmoid) decision scores."""
        return self._output(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.scores(x) > 0).astype(np.int64)


class SoftmaxRegressionModel(_StackedModel):
    """Multinomial logistic regression (linear softmax classifier)."""

    def __init__(self, num_features: int, num_classes: int, seed: int = 0):
        if num_features <= 0 or num_classes < 2:
            raise TrainingError(
                "need num_features > 0 and num_classes >= 2, got "
                f"{num_features}, {num_classes}"
            )
        rng = np.random.default_rng(seed)
        self._w = rng.normal(scale=0.01, size=(num_features, num_classes))
        self._b = np.zeros(num_classes)
        self._d = num_features
        self._k = num_classes

    @property
    def num_parameters(self) -> int:
        return self._d * self._k + self._k

    def get_parameters(self) -> np.ndarray:
        return np.concatenate([self._w.ravel(), self._b])

    def set_parameters(self, flat: np.ndarray) -> None:
        """Install a flat parameter vector."""
        arr = self._validate_flat(flat)
        split = self._d * self._k
        self._w = arr[:split].reshape(self._d, self._k).copy()
        self._b = arr[split:].copy()

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Raw class scores."""
        return x @ self._w + self._b

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.logits(x).argmax(axis=1)

    def _loss_and_gradient(self, x, y):
        z = self.logits(x)
        losses = SoftmaxCrossEntropy.values(z, y)
        dz = SoftmaxCrossEntropy.grad(z, y)
        flat = z.shape[:-2] + (-1,)
        grad_w = _transposed(x) @ dz
        grad_b = dz.sum(axis=-2)
        return losses, np.concatenate([grad_w.reshape(flat), grad_b], axis=-1)


class MLPClassifier(_StackedModel):
    """One-hidden-layer ReLU network with a softmax head.

    The non-convex stand-in for the paper's ResNet-18: small enough for
    simulation-speed steps, expressive enough that recovered-gradient
    fraction visibly controls convergence speed.
    """

    def __init__(
        self,
        num_features: int,
        hidden_units: int,
        num_classes: int,
        seed: int = 0,
    ):
        if num_features <= 0 or hidden_units <= 0 or num_classes < 2:
            raise TrainingError(
                "need num_features > 0, hidden_units > 0, num_classes >= 2; "
                f"got {num_features}, {hidden_units}, {num_classes}"
            )
        rng = np.random.default_rng(seed)
        self._w1 = rng.normal(
            scale=np.sqrt(2.0 / num_features), size=(num_features, hidden_units)
        )
        self._b1 = np.zeros(hidden_units)
        self._w2 = rng.normal(
            scale=np.sqrt(2.0 / hidden_units), size=(hidden_units, num_classes)
        )
        self._b2 = np.zeros(num_classes)
        self._shapes = [
            self._w1.shape,
            self._b1.shape,
            self._w2.shape,
            self._b2.shape,
        ]

    @property
    def num_parameters(self) -> int:
        return sum(int(np.prod(s)) for s in self._shapes)

    def get_parameters(self) -> np.ndarray:
        return np.concatenate(
            [self._w1.ravel(), self._b1, self._w2.ravel(), self._b2]
        )

    def set_parameters(self, flat: np.ndarray) -> None:
        """Install a flat parameter vector."""
        arr = self._validate_flat(flat)
        offset = 0
        tensors = []
        for shape in self._shapes:
            size = int(np.prod(shape))
            tensors.append(arr[offset:offset + size].reshape(shape).copy())
            offset += size
        self._w1, self._b1, self._w2, self._b2 = tensors

    def _forward(self, x: np.ndarray):
        """``(pre-activation, hidden, logits)``."""
        pre = x @ self._w1 + self._b1
        hidden = np.maximum(pre, 0.0)
        return pre, hidden, hidden @ self._w2 + self._b2

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Raw class scores."""
        return self._forward(x)[2]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.logits(x).argmax(axis=1)

    def _loss_and_gradient(self, x, y):
        pre, hidden, z = self._forward(x)
        losses = SoftmaxCrossEntropy.values(z, y)
        dz = SoftmaxCrossEntropy.grad(z, y)
        flat = z.shape[:-2] + (-1,)
        grad_w2 = _transposed(hidden) @ dz
        grad_b2 = dz.sum(axis=-2)
        dhidden = dz @ self._w2.T
        dpre = dhidden * (pre > 0)
        grad_w1 = _transposed(x) @ dpre
        grad_b1 = dpre.sum(axis=-2)
        return losses, np.concatenate(
            [grad_w1.reshape(flat), grad_b1, grad_w2.reshape(flat), grad_b2],
            axis=-1,
        )
