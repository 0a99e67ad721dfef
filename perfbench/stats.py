"""Small statistics and naming helpers of the benchmark."""

from __future__ import annotations

import math
import re

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def nearest_rank(values, q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank rule: a sample value."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def count_above(values, threshold: float) -> int:
    return sum(v > threshold for v in values)


def valid_metric_name(name: str) -> bool:
    """Letters, digits, ``_``, ``.`` and ``-``; a letter or digit first; <= 64."""
    return _METRIC_NAME.fullmatch(name) is not None
