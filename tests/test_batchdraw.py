"""The exact vectorized batch-index draw and the bulk batch stacker.

Everything here compares with ``==`` (no tolerance):

* :func:`~repro.training.batchdraw.draw_indices` reproduces
  ``default_rng((seed, pid, step)).integers(num_samples, size=B)`` row
  for row, on the transcribed path and on every redraw path (seeds
  beyond one uint32 word, ``num_samples < 2``, Lemire rejections);
* :class:`~repro.training.datasets.BatchStacker` equals
  :func:`~repro.training.datasets.stack_batches` on both sides of the
  bulk-draw crossover, and falls back to it when the drift guard
  fails.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.training import batchdraw, datasets
from repro.training.batchdraw import draw_indices, exact_draw_available
from repro.training.datasets import (
    STACKED_DRAW_MIN_STREAMS,
    BatchStacker,
    BatchStream,
    build_batch_streams,
    make_classification,
    partition_dataset,
    stack_batches,
)

WORD = st.integers(0, 2**32 - 1)
# Bounds where roughly half (2^31 + 1) or a quarter (3·2^30) of all
# words reject, next to the usual small partition sizes.
REJECTION_HEAVY = (2**31 + 1, 3 * 2**30)
NUM_SAMPLES = st.one_of(
    st.integers(1, 64),
    st.integers(2, 2**32 - 1),
    st.sampled_from((1, 2, 2**32 - 1, *REJECTION_HEAVY)),
)


def _reference(seeds, pids, steps, num_samples, batch_size):
    return np.stack([
        np.random.default_rng((seed, pid, step)).integers(n, size=batch_size)
        for seed, pid, step, n in zip(seeds, pids, steps, num_samples)
    ])


@pytest.fixture
def native_draws(monkeypatch):
    """Counts the ``default_rng`` redraws :func:`draw_indices` makes."""
    calls = []
    native = np.random.default_rng

    def counting(seed):
        calls.append(seed)
        return native(seed)

    monkeypatch.setattr(batchdraw.np.random, "default_rng", counting)
    return calls


class TestDrawIndices:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(WORD, st.integers(2**32, 2**70)),
                WORD, WORD, NUM_SAMPLES,
            ),
            min_size=1, max_size=8,
        ),
        batch_size=st.integers(1, 40),
    )
    def test_rows_equal_default_rng(self, rows, batch_size):
        seeds, pids, steps, sizes = zip(*rows)
        got = draw_indices(seeds, pids, steps, sizes, batch_size)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, _reference(seeds, pids, steps, sizes, batch_size)
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=WORD, step=WORD, batch_size=st.integers(1, 40))
    def test_scalars_broadcast_over_rows(self, seed, step, batch_size):
        pids = np.arange(20)
        sizes = np.where(pids % 3, 11, 10)
        got = draw_indices(seed, pids, step, sizes, batch_size)
        assert np.array_equal(got, _reference(
            [seed] * 20, pids.tolist(), [step] * 20, sizes.tolist(),
            batch_size,
        ))

    def test_small_bounds_never_redraw(self, native_draws):
        pids = np.arange(64)
        got = draw_indices(3, pids, 599, 11, 11)
        assert native_draws == []  # the transcription drew every row
        assert np.array_equal(
            got, _reference([3] * 64, pids, [599] * 64, [11] * 64, 11)
        )

    @pytest.mark.parametrize("bound", REJECTION_HEAVY)
    def test_rejection_heavy_bounds_redraw_and_match(self, bound, native_draws):
        pids = np.arange(32)
        got = draw_indices(7, pids, 4, bound, 2)
        redrawn = len(native_draws)
        assert 0 < redrawn < 32  # some rows rejected, some did not
        want = _reference([7] * 32, pids, [4] * 32, [bound] * 32, 2)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed, num_samples", [
        (2**32, 10),        # seed needs two entropy words
        (2**64 + 5, 10),
        (3, 1),             # integers(1) draws no words at all
    ])
    def test_outside_the_transcription_redraws(
        self, seed, num_samples, native_draws
    ):
        got = draw_indices(seed, [0, 1, 2], 9, num_samples, 7)
        assert len(native_draws) == 3
        want = _reference(
            [seed] * 3, [0, 1, 2], [9] * 3, [num_samples] * 3, 7
        )
        assert np.array_equal(got, want)

    def test_a_draw_is_the_prefix_of_a_longer_one(self):
        short = draw_indices(1, np.arange(30), 2, 10, 10)
        long = draw_indices(1, np.arange(30), 2, 10, 11)
        assert np.array_equal(long[:, :10], short)

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (1.5, TypeError),
    ])
    def test_invalid_seeds_raise_numpys_error(self, seed, error):
        with pytest.raises(error):
            np.random.default_rng((seed, 0, 0))
        with pytest.raises(error):
            draw_indices(seed, [0, 1], 0, 10, 3)

    def test_probe_matches_this_numpy(self):
        assert exact_draw_available()


def _streams(num_partitions, samples=1024, batch_size=32, seed=3):
    data = make_classification(samples, 8, seed=1)
    return build_batch_streams(
        partition_dataset(data, num_partitions, seed=2),
        batch_size=batch_size, seed=seed,
    )


def _assert_stacks_equal(got, want):
    assert len(got) == len(want)
    for (gp, gx, gy), (wp, wx, wy) in zip(got, want):
        assert gp == wp
        assert gx.dtype == wx.dtype and gy.dtype == wy.dtype
        assert np.array_equal(gx, wx)
        assert np.array_equal(gy, wy)


@pytest.fixture
def batch_calls(monkeypatch):
    """Counts per-stream ``BatchStream.batch`` calls."""
    calls = []
    batch = BatchStream.batch

    def counting(self, step):
        calls.append(self.partition_id)
        return batch(self, step)

    monkeypatch.setattr(BatchStream, "batch", counting)
    return calls


class TestBatchStacker:
    @pytest.mark.parametrize("num_partitions", [
        STACKED_DRAW_MIN_STREAMS - 1, STACKED_DRAW_MIN_STREAMS, 96,
    ])
    @pytest.mark.parametrize("step", [0, 7, 599])
    def test_stacks_equal_per_stream_batches(self, num_partitions, step):
        streams = _streams(num_partitions)
        _assert_stacks_equal(
            BatchStacker(streams).stacks(step), stack_batches(streams, step)
        )

    def test_n96_gives_two_groups_from_one_bulk_draw(self, batch_calls):
        streams = _streams(96)
        stacker = BatchStacker(streams)
        stacks = stacker.stacks(7)
        assert [x.shape for _, x, _ in stacks] == [(64, 11, 8), (32, 10, 8)]
        assert batch_calls == []
        for pids, x, y in stacks:
            for row, pid in enumerate(pids):
                bx, by = streams[pid].batch(7)
                assert np.array_equal(x[row], bx)
                assert np.array_equal(y[row], by)

    def test_crossover(self, batch_calls):
        below = STACKED_DRAW_MIN_STREAMS - 1
        BatchStacker(_streams(below)).stacks(0)
        assert len(batch_calls) == below
        batch_calls.clear()
        BatchStacker(_streams(STACKED_DRAW_MIN_STREAMS)).stacks(0)
        assert batch_calls == []

    @settings(max_examples=25, deadline=None)
    @given(
        num_partitions=st.integers(STACKED_DRAW_MIN_STREAMS, 60),
        batch_size=st.integers(1, 40),
        seed=st.one_of(WORD, st.integers(2**32, 2**40)),
        steps=st.lists(WORD, min_size=1, max_size=3),
    )
    def test_uneven_splits_and_clipped_batches(
        self, num_partitions, batch_size, seed, steps
    ):
        streams = _streams(num_partitions, samples=700,
                           batch_size=batch_size, seed=seed)
        stacker = BatchStacker(streams)
        for step in steps:
            _assert_stacks_equal(
                stacker.stacks(step), stack_batches(streams, step)
            )

    def test_mixed_stream_seeds(self):
        streams = _streams(32)
        streams[5] = BatchStream(streams[5].partition, 5, 32, seed=11)
        _assert_stacks_equal(
            BatchStacker(streams).stacks(3), stack_batches(streams, 3)
        )

    def test_failed_probe_keeps_per_stream_draw(self, monkeypatch, batch_calls):
        """Numpy stream drift: a transcription that disagrees with
        ``default_rng`` must never reach a batch."""
        def drifted(seeds, pids, steps, num_samples, batch_size):
            return (draw_indices(seeds, pids, steps, num_samples, batch_size)
                    + 1) % np.asarray(num_samples)[..., None]

        monkeypatch.setattr(batchdraw, "_exact_draw", None)
        monkeypatch.setattr(batchdraw, "draw_indices", drifted)
        monkeypatch.setattr(datasets, "draw_indices", drifted)
        streams = _streams(96)
        stacks = BatchStacker(streams).stacks(4)
        assert not batchdraw.exact_draw_available()
        assert len(batch_calls) == 96
        batch_calls.clear()
        _assert_stacks_equal(stacks, stack_batches(streams, 4))


class TestBatchStreamProperties:
    def test_read_only_views(self):
        data = make_classification(40, 3, seed=0)
        stream = BatchStream(data, partition_id=4, batch_size=9, seed=5)
        assert (stream.seed, stream.partition_id) == (5, 4)
        assert stream.partition is data
        with pytest.raises(AttributeError):
            stream.seed = 6
