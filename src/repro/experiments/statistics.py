"""Numeric summary helpers shared by the experiment drivers.

Split out of the old ``repro.experiments.reporting`` module (which mixed
statistics with table rendering); the rendering half now lives in
``repro.experiments.report``.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; the conventional average for speedup ratios.

    An empty sequence averages to 0.0.  A zero, negative or NaN value
    raises ``ValueError``: it has no logarithm, and dropping it would
    silently average over fewer points than the caller passed.
    """
    values = list(values)
    for value in values:
        if not value > 0:
            raise ValueError(
                f"geometric_mean needs positive values, got {value!r}")
    if not values:
        return 0.0
    return statistics.geometric_mean(values)


def arithmetic_mean(values: Sequence[float]) -> float:
    cleaned = list(values)
    if not cleaned:
        return 0.0
    return sum(cleaned) / len(cleaned)


__all__ = ["geometric_mean", "arithmetic_mean"]
