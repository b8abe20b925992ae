"""Exact vectorized batch-index draw.

:class:`~repro.training.datasets.BatchStream` draws the ``step``
mini-batch of partition ``pid`` as

    np.random.default_rng((seed, pid, step)).integers(num_samples, size=B)

— a fresh ``SeedSequence`` → ``PCG64`` → bounded-integers pipeline per
partition per round (Sec. VIII-A's seed discipline).  Each call costs
~20 µs, almost all of it constructing the generator, so at n = 96 the
draw alone was about half a round.

:func:`draw_indices` computes many such rows in one numpy pass by
transcribing numpy's own algorithm:

* **SeedSequence** — the three entropy words are hashed into a pool of
  four (``mix_entropy``), then ``generate_state(4, uint64)`` hashes the
  pool out into eight uint32 words.  All uint32 wraparound arithmetic
  with constant hash multipliers, so it vectorizes over rows.
* **PCG64** — ``pcg64_set_seed`` takes ``initstate = s0<<64 | s1`` and
  ``inc = (s2<<64 | s3)<<1 | 1``.  Seeding steps the LCG twice, so the
  state behind the k-th 64-bit output is
  ``A^(k+2)·initstate + (Σ_{j=0}^{k+2} A^j)·inc  (mod 2^128)``: two
  multiplies by per-k constants, no step loop.  The output function is
  XSL-RR (xor the halves, rotate by the top six bits).
* **Bounded integers** — ``Generator.integers`` on an int64 range below
  2^32 uses Lemire's 32-bit method on ``next_uint32``, which hands out
  the low half of each 64-bit output, then the high half.

A row whose draw needs a Lemire rejection, whose seed words or bound
fall outside the transcribed case (any of ``seed, pid, step`` not in
``[0, 2^32)``, or ``num_samples`` not in ``[2, 2^32)``), is redrawn with
``default_rng`` itself, so the result is exact on every row rather
than "almost always".

NEP 19 does not promise ``Generator`` streams stay fixed across numpy
releases, so :func:`exact_draw_available` checks the transcription once
per process against ``default_rng`` on a fixed probe set; callers keep
the per-stream draw when it fails.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# numpy/random/bit_generator.pyx (SeedSequence).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

# numpy/random/src/pcg64/pcg64.h (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_chain(init: int, mult: int, count: int):
    """The ``(xor, multiply)`` constants of ``count`` chained hashmix calls.

    ``hashmix`` xors the value with the running hash constant, advances
    the constant by ``mult`` and multiplies by the advanced constant;
    the chain does not depend on the data, so it is precomputed.
    """
    xors, mults = [], []
    const = init
    for _ in range(count):
        xors.append(const)
        const = (const * mult) & _MASK32
        mults.append(const)
    return np.array(xors, np.uint32), np.array(mults, np.uint32)


# mix_entropy with three entropy words: four pool-filling hashmix calls,
# then three per source word in the all-pairs mixing loop.  Constants
# are columns so they broadcast over a ``(lanes, rows)`` layout.
_MIX_XOR, _MIX_MUL = (
    c[:, None] for c in _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE ** 2)
)
# generate_state(4, uint64): eight output words cycling over the pool.
_GEN_XOR, _GEN_MUL = (
    c[:, None] for c in _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
)
_GEN_SRC = np.arange(2 * _POOL_SIZE) % _POOL_SIZE
_MIX_DST = [
    [dst for dst in range(_POOL_SIZE) if dst != src]
    for src in range(_POOL_SIZE)
]


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_words(seeds, pids, steps, rows: int) -> np.ndarray:
    """``SeedSequence((seed, pid, step)).generate_state(8, uint32)``.

    Takes one-word entropy values (scalars or ``(rows,)`` arrays) and
    returns ``(8, rows)`` uint32; numpy reads the words pairwise,
    little-endian, as the four uint64 seed words ``s0..s3``.
    """
    pool = np.zeros((_POOL_SIZE, rows), np.uint32)
    pool[0], pool[1], pool[2] = seeds, pids, steps
    pool = _hashmix(pool, _MIX_XOR[:_POOL_SIZE], _MIX_MUL[:_POOL_SIZE])
    for src, dst in enumerate(_MIX_DST):
        k = _POOL_SIZE + 3 * src
        hashed = _hashmix(pool[src], _MIX_XOR[k:k + 3], _MIX_MUL[k:k + 3])
        pool[dst] = _mix(pool[dst], hashed)
    return _hashmix(pool[_GEN_SRC], _GEN_XOR, _GEN_MUL)


# Where each seed word lands: words 0-3 are the limbs (2, 3, 0, 1) of
# initstate = s0<<64 | s1, words 4-7 the limbs (2, 3, 0, 1) of
# initseq = s2<<64 | s3 (limb 0 least significant).
_WORD_LIMB = (2, 3, 0, 1, 2, 3, 0, 1)


@lru_cache(maxsize=None)
def _jump_operands(num_outputs: int):
    """The constant operands of the output-state products.

    With ``inc = 2·initseq + 1`` the state behind output ``k`` is
    ``M·initstate + 2C·initseq + C`` for ``M = A^(k+2)`` and
    ``C = Σ_{j≤k+2} A^j``, so it is linear in the eight seed words plus
    a constant.  The matrix pairs each 32-bit seed word with the 16-bit
    limbs of its multiplier; entry ``[half, t, k]`` of a column collects
    the products landing at 32-bit position ``t`` of output ``k``, 16
    bits higher when ``half`` is 1.  Products are below 2^48 and a
    column sums at most eight of them plus a 16-bit limb of ``C``, all
    below 2^53, so a float64 matmul is exact.
    """
    jump = np.zeros((8, 2, 4, num_outputs))
    offset = np.zeros((2, 4, num_outputs, 1))
    power, total = _PCG_MULT, 1 + _PCG_MULT
    for k in range(num_outputs):
        power = (power * _PCG_MULT) & _MASK128
        total = (total + power) & _MASK128
        for j in range(8):
            offset[j % 2, j // 2, k] = (total >> (16 * j)) & 0xFFFF
            for word, limb in enumerate(_WORD_LIMB):
                mult = power if word < 4 else (2 * total) & _MASK128
                if limb + j // 2 < 4:
                    jump[word, j % 2, limb + j // 2, k] = (
                        (mult >> (16 * j)) & 0xFFFF
                    )
    return jump.reshape(8, -1).T.copy(), offset


def _pcg64_outputs(words: np.ndarray, num_outputs: int) -> np.ndarray:
    """The first ``num_outputs`` PCG64 (XSL-RR) outputs, ``(k, rows)``,
    from the ``(8, rows)`` seed words."""
    jump, offset = _jump_operands(num_outputs)
    cols = (jump @ words).reshape(2, 4, num_outputs, -1) + offset
    cols = cols.astype(np.uint64)
    # Fold the half-limb columns into 32-bit positions, then carry.
    s16, s32 = np.uint64(16), np.uint64(32)
    acc = cols[0] + ((cols[1] & np.uint64(0xFFFF)) << s16)
    acc[1:] += cols[1, :-1] >> s16
    for t in range(1, 4):
        acc[t] += acc[t - 1] >> s32
    acc &= np.uint64(_MASK32)
    # XSL-RR: rotate (state_hi ^ state_lo) right by the top six bits.
    value = ((acc[3] ^ acc[1]) << s32) | (acc[2] ^ acc[0])
    rot = acc[3] >> np.uint64(26)
    return (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))


def _words_in_range(values, low: int):
    """``(values, ok)`` with ``ok`` marking entries in ``[low, 2^32)``.

    ``ok`` is ``True`` when every entry fits (the common case, checked
    with two reductions); otherwise a bool array, with the misfits of
    ``values`` replaced by ``low`` so the transcription stays defined.
    """
    if isinstance(values, int) and not isinstance(values, bool):
        return (values, True) if low <= values <= _MASK32 else (low, False)
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuO":
        return low, False
    if arr.dtype.kind != "O" and arr.size and (
        arr.min() >= low and arr.max() <= _MASK32
    ):
        return arr, True
    ok = np.asarray((arr >= low) & (arr <= _MASK32), bool)
    return np.where(ok, arr, low).astype(np.uint64), ok


def draw_indices(seeds, pids, steps, num_samples, batch_size: int) -> np.ndarray:
    """Many seeded batch-index draws at once, bit for bit.

    ``seeds``, ``pids``, ``steps`` and ``num_samples`` are scalars or
    equal-length 1-D sequences (broadcast together).  Row ``r`` of the
    ``(rows, batch_size)`` int64 result equals::

        np.random.default_rng((seeds[r], pids[r], steps[r])).integers(
            num_samples[r], size=batch_size)

    Rows outside the transcribed case (see the module docstring) are
    drawn with ``default_rng`` directly, which also raises numpy's own
    error for an invalid seed or bound.
    """
    args = (seeds, pids, steps, num_samples)
    (rows,) = np.broadcast_shapes(*(np.shape(a) for a in args), (1,))
    checked = [
        _words_in_range(a, low) for a, low in zip(args, (0, 0, 0, 2))
    ]
    (seeds_w, _), (pids_w, _), (steps_w, _), (bound, _) = checked
    ok = np.ones(rows, bool)
    for _, fits in checked:
        if fits is not True:
            ok &= fits

    out = np.empty((rows, batch_size), np.int64)
    if batch_size > 0:
        num_outputs = (batch_size + 1) // 2
        words = _seed_words(seeds_w, pids_w, steps_w, rows)
        outputs = _pcg64_outputs(words, num_outputs)
        # next_uint32 hands out the low half of each output, then the
        # high half.
        halves = np.empty((2 * num_outputs, rows), np.uint64)
        halves[0::2] = outputs & np.uint64(_MASK32)
        halves[1::2] = outputs >> np.uint64(32)
        # Lemire: m = word·n; the draw is m>>32 unless the low half of m
        # falls below 2^32 mod n, which asks for another word.
        n = np.asarray(bound, np.uint64)
        scaled = halves[:batch_size] * n
        threshold = (np.uint64(1 << 32) - n) % n
        ok &= ~((scaled & np.uint64(_MASK32)) < threshold).any(axis=0)
        out[:] = (scaled >> np.uint64(32)).T
    if not ok.all():
        keys = [np.broadcast_to(np.asarray(a, object), (rows,)) for a in args]
        for r in np.flatnonzero(~ok):
            seed, pid, step, size = (key[r] for key in keys)
            rng = np.random.default_rng((seed, pid, step))
            out[r] = rng.integers(size, size=batch_size)
    return out


# Probe keys ``(seed, pid, step, num_samples)`` for the drift guard:
# zero and top-of-range uint32 words, bounds at both ends of the Lemire
# case, and a rejection-heavy bound (2^31 + 1, where about half of all
# words reject) so the redraw path runs too; drawn at both batch-size
# parities.
_PROBE_KEYS = (
    (0, 0, 0, 11), (3, 1, 0, 2), (5, 95, 599, 10),
    (7, 2**32 - 1, 13, 2**32 - 1), (2**32 - 1, 7, 2**32 - 1, 3),
    (11, 12, 100, 2**31 + 1),
)
_PROBE_BATCH_SIZES = (1, 10, 11)

_exact_draw: Optional[bool] = None


def _probe_matches() -> bool:
    seeds, pids, steps, sizes = zip(*_PROBE_KEYS)
    return all(
        np.array_equal(
            draw_indices(seeds, pids, steps, sizes, batch_size),
            [
                np.random.default_rng(key[:3]).integers(key[3], size=batch_size)
                for key in _PROBE_KEYS
            ],
        )
        for batch_size in _PROBE_BATCH_SIZES
    )


def exact_draw_available() -> bool:
    """Whether :func:`draw_indices` matches this numpy's ``default_rng``.

    Checked once per process on a fixed probe set; on a mismatch the
    answer stays ``False`` and callers keep the per-stream draw.
    """
    global _exact_draw
    if _exact_draw is None:
        _exact_draw = _probe_matches()
    return _exact_draw
