"""The stacked partition compute: one model call per batch size per round.

Three layers are pinned here, all with ``==`` (no tolerance):

* ``Model.loss_and_gradient_stacked`` equals the per-batch loop for the
  four dense models (their own batched kernels) and for models that
  inherit the looping default;
* :func:`~repro.training.datasets.stack_batches` reproduces every
  stream's ``batch(step)``, grouped by batch size;
* an engine at n = 96 on 1024 samples (two batch-size groups) follows
  the same trajectory as the per-partition loop the stacked path
  replaced, kept below as :func:`_looped_compute_partitions`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExperimentSpec, build_engine
from repro.exceptions import TrainingError
from repro.training import (
    LinearRegressionModel,
    LogisticRegressionModel,
    MLPClassifier,
    SoftmaxRegressionModel,
)
from repro.training.conv import Conv2DClassifier
from repro.training.datasets import (
    build_batch_streams,
    make_classification,
    partition_dataset,
    stack_batches,
)
from repro.training.losses import (
    BinaryCrossEntropy,
    MeanSquaredError,
    SoftmaxCrossEntropy,
)
from repro.training.models import Model


def _dense_model(kind, d, k, seed):
    if kind == "linear":
        return LinearRegressionModel(d, seed=seed)
    if kind == "logistic":
        return LogisticRegressionModel(d, seed=seed)
    if kind == "softmax":
        return SoftmaxRegressionModel(d, k, seed=seed)
    return MLPClassifier(d, 2 * k + 1, k, seed=seed)


def _labels(kind, rng, shape, k):
    if kind == "linear":
        return rng.normal(size=shape)
    return rng.integers(2 if kind == "logistic" else k, size=shape)


def _reference(kind, params, d, k, x, y):
    """One batch's loss and gradient written out plainly (2-D ``x.T @``
    products), independent of the models' stacked kernels."""
    if kind in ("linear", "logistic"):
        loss_fn = MeanSquaredError if kind == "linear" else BinaryCrossEntropy
        s = x @ params[:d] + params[d]
        ds = loss_fn.grad(s, y)
        return loss_fn.value(s, y), np.concatenate([x.T @ ds, [ds.sum()]])
    if kind == "softmax":
        w, b = params[: d * k].reshape(d, k), params[d * k:]
        z = x @ w + b
        dz = SoftmaxCrossEntropy.grad(z, y)
        grad = np.concatenate([(x.T @ dz).ravel(), dz.sum(axis=0)])
        return SoftmaxCrossEntropy.value(z, y), grad
    h = 2 * k + 1
    sizes = np.cumsum([d * h, h, h * k])
    w1, b1, w2, b2 = np.split(params, sizes)
    w1, w2 = w1.reshape(d, h), w2.reshape(h, k)
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    z = hidden @ w2 + b2
    dz = SoftmaxCrossEntropy.grad(z, y)
    dpre = (dz @ w2.T) * (pre > 0)
    grad = np.concatenate([
        (x.T @ dpre).ravel(), dpre.sum(axis=0),
        (hidden.T @ dz).ravel(), dz.sum(axis=0),
    ])
    return SoftmaxCrossEntropy.value(z, y), grad


def _assert_matches_loop(model, x, y):
    losses, grads = model.loss_and_gradient_stacked(x, y)
    assert losses.shape == (len(x),)
    assert grads.shape == (len(x), model.num_parameters)
    for i in range(len(x)):
        loss, grad = model.loss_and_gradient(x[i], y[i])
        assert losses[i] == loss
        assert np.array_equal(grads[i], grad)


class _MeanModel(Model):
    """Test-local model with no stacked kernel: ``0.5·mean‖x − θ‖²``."""

    def __init__(self, d):
        self._theta = np.linspace(-1.0, 1.0, d)

    @property
    def num_parameters(self):
        return self._theta.size

    def get_parameters(self):
        return self._theta.copy()

    def set_parameters(self, flat):
        self._theta = self._validate_flat(flat).copy()

    def loss_and_gradient(self, x, y):
        diff = x - self._theta
        return float(0.5 * np.mean(np.sum(diff * diff, axis=1))), -diff.mean(axis=0)


DENSE_KINDS = ["linear", "logistic", "softmax", "mlp"]


class TestStackedKernels:
    @pytest.mark.parametrize("kind", DENSE_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(
        g=st.integers(1, 12),
        batch=st.integers(1, 24),
        d=st.integers(1, 9),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**16),
    )
    def test_dense_kernel_equals_loop(self, kind, g, batch, d, k, seed):
        rng = np.random.default_rng(seed)
        model = _dense_model(kind, d, k, seed)
        model.set_parameters(rng.normal(size=model.num_parameters))
        x = rng.normal(size=(g, batch, d))
        y = _labels(kind, rng, (g, batch), k)
        _assert_matches_loop(model, x, y)
        losses, grads = model.loss_and_gradient_stacked(x, y)
        for i in range(g):
            loss, grad = _reference(kind, model.get_parameters(), d, k, x[i], y[i])
            assert losses[i] == loss
            assert np.array_equal(grads[i], grad)

    def test_dense_models_override_the_default(self):
        for kind in DENSE_KINDS:
            method = type(_dense_model(kind, 3, 2, 0)).loss_and_gradient_stacked
            assert method is not Model.loss_and_gradient_stacked

    def test_conv_falls_back_to_loop(self, rng):
        model = Conv2DClassifier(side=5, in_channels=2, num_filters=3, num_classes=3)
        assert (type(model).loss_and_gradient_stacked
                is Model.loss_and_gradient_stacked)
        x = rng.normal(size=(4, 6, 5 * 5 * 2))
        _assert_matches_loop(model, x, rng.integers(3, size=(4, 6)))

    def test_custom_model_falls_back_to_loop(self, rng):
        _assert_matches_loop(
            _MeanModel(3), rng.normal(size=(5, 7, 3)), np.zeros((5, 7))
        )


class TestStackedErrors:
    @pytest.mark.parametrize("kind", DENSE_KINDS + ["conv"])
    def test_mismatched_label_length(self, kind, rng):
        if kind == "conv":
            model, d = Conv2DClassifier(4, 1, 2, 3), 16
        else:
            model, d = _dense_model(kind, 3, 3, 0), 3
        x = rng.normal(size=(2, 5, d))
        y = _labels("softmax" if kind == "conv" else kind, rng, (2, 4), 3)
        with pytest.raises(TrainingError, match="mismatch"):
            model.loss_and_gradient(x[0], y[0])
        with pytest.raises(TrainingError, match="mismatch"):
            model.loss_and_gradient_stacked(x, y)

    @pytest.mark.parametrize("kind", DENSE_KINDS)
    def test_empty_batch(self, kind, rng):
        model = _dense_model(kind, 3, 3, 0)
        x = np.zeros((2, 0, 3))
        y = _labels(kind, rng, (2, 0), 3)
        with pytest.raises(TrainingError, match="empty batch"):
            model.loss_and_gradient(x[0], y[0])
        with pytest.raises(TrainingError, match="empty batch"):
            model.loss_and_gradient_stacked(x, y)

    @pytest.mark.parametrize("kind", DENSE_KINDS)
    def test_stacked_call_rejects_an_unstacked_batch(self, kind, rng):
        model = _dense_model(kind, 3, 3, 0)
        with pytest.raises(TrainingError, match="stacked features"):
            model.loss_and_gradient_stacked(
                rng.normal(size=(5, 3)), _labels(kind, rng, 5, 3)
            )

    def test_fallback_rejects_unequal_stack_counts(self, rng):
        with pytest.raises(TrainingError, match="stacked batch mismatch"):
            _MeanModel(3).loss_and_gradient_stacked(
                rng.normal(size=(3, 4, 3)), np.zeros((2, 4))
            )


class TestStackBatches:
    def test_groups_reproduce_every_batch(self):
        data = make_classification(1024, 8, seed=1)
        streams = build_batch_streams(
            partition_dataset(data, 96, seed=2), batch_size=32, seed=3
        )
        stacks = stack_batches(streams, step=7)
        assert [x.shape for _, x, _ in stacks] == [(64, 11, 8), (32, 10, 8)]
        assert sorted(p for pids, _, _ in stacks for p in pids) == list(range(96))
        for pids, x, y in stacks:
            assert y.shape == x.shape[:2]
            for row, pid in enumerate(pids):
                bx, by = streams[pid].batch(7)
                assert np.array_equal(x[row], bx)
                assert np.array_equal(y[row], by)

    def test_batch_gathers_indices(self):
        data = make_classification(40, 3, seed=0)
        (stream,) = build_batch_streams([data], batch_size=9, seed=5)
        idx = stream.indices(4)
        bx, by = stream.batch(4)
        assert np.array_equal(bx, data.features[idx])
        assert np.array_equal(by, data.labels[idx])


def _looped_compute_partitions(engine, step):
    """The per-partition loop the stacked ``compute_partitions`` replaced."""
    gradients, losses = {}, []
    for pid in range(engine.num_partitions):
        x, y = engine.streams[pid].batch(step)
        loss, grad = engine.model.loss_and_gradient(x, y)
        gradients[pid] = grad
        losses.append(loss)
    return gradients, losses


class TestEngineStackedRound:
    @pytest.mark.parametrize("model,dataset", [
        ({"kind": "logistic"}, {}),
        ({"kind": "mlp", "hidden_units": 6}, {"num_classes": 3}),
        ({"kind": "linear"}, {"kind": "regression"}),
    ])
    def test_n96_trajectory_equals_looped_reference(self, model, dataset):
        spec = ExperimentSpec(
            name="stacked-n96", scheme="is-gc-cr", num_workers=96,
            partitions_per_worker=2, wait_for=48, max_steps=12, seed=4,
            model=model,
            dataset={"kind": "classification", "samples": 1024,
                     "features": 8, "batch_size": 32, **dataset},
        )
        stacked = build_engine(spec)
        looped = build_engine(spec)
        looped.rule.compute_partitions = _looped_compute_partitions
        assert len(stack_batches(stacked.streams, 0)) == 2

        stacked_summary = stacked.run(spec.max_steps)
        looped_summary = looped.run(spec.max_steps)
        assert stacked.records == looped.records
        assert stacked_summary == looped_summary
        assert np.array_equal(
            stacked.model.get_parameters(), looped.model.get_parameters()
        )
