"""The benchmark's own arithmetic: percentiles, ratios, self time, digests.

Kept free of any ``repro`` import so the tests in ``test_perfbench.py``
exercise it on hand-made inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

#: percentiles considered for a timing's tail, in tenths of a percent.
TAIL_LADDER = (500, 900, 990, 999)
#: a tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, tenths: int) -> int:
    """How many of ``n`` samples lie above the ``tenths``/10 percentile."""
    return n * (1000 - tenths) // 1000


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median lacks them (fewer than 20 samples).
    """
    best = None
    for tenths in TAIL_LADDER:
        if samples_beyond(n, tenths) >= MIN_BEYOND:
            best = tenths / 10.0
    return best


def ratio(num: float, base: float) -> float:
    """``num / base``, and 0.0 for a zero base (callers state the base)."""
    return num / base if base else 0.0


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap
    one another and the time they cover is the sum of their durations.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


def aggregate(
    names: Sequence[str], own: Sequence[int]
) -> Dict[str, Tuple[int, int]]:
    """Per span name: (total self time, call count)."""
    totals: Dict[str, Tuple[int, int]] = {}
    for name, t in zip(names, own):
        total, calls = totals.get(name, (0, 0))
        totals[name] = (total + t, calls + 1)
    return totals


def digest(payload) -> str:
    """Short SHA-256 of a JSON value; floats are written in repr form,
    so equal digests mean bit-identical numbers."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
