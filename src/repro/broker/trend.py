"""Trend estimation over short usage windows.

The broker needs to *predict* near-future memory usage, not just react
to the present, so that components are notified before the machine is
actually exhausted.  A sliding-window least-squares slope is robust to
the sawtooth allocation patterns compilations produce.

The fit is split in two so the broker can share work across clerks:
:func:`window_terms` holds everything that depends only on the sample
times, :func:`least_squares` the part that depends on the values
(:func:`project` is the same fit, returning only the projection).
:func:`spread_factor` bounds a projection from the x terms alone, so the
broker can tell a window that cannot reach its pressure limit without
fitting it.  :class:`TrendEstimator` is the one-window wrapper around
the fit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
from typing import Deque, List, Sequence, Tuple

#: ``(mean_x, sxx, deviations)`` of a window's sample times, with
#: ``x = t - t_last`` and ``deviations[i] = x_i - mean_x``
WindowTerms = Tuple[float, float, List[float]]


@dataclass
class LinearTrend:
    """Least-squares fit result: ``value ≈ level + slope * (t - t_last)``."""

    level: float
    slope: float

    def predict(self, horizon: float) -> float:
        """Projected value ``horizon`` seconds past the last sample
        (clamped at zero — memory usage cannot go negative)."""
        return max(0.0, self.level + self.slope * horizon)


def window_terms(times: Sequence[float]) -> WindowTerms:
    """The x terms of a least-squares fit over samples taken at
    ``times`` (at least one), anchored at the last sample time."""
    t_last = times[-1]
    xs = [t - t_last for t in times]
    mean_x = sum(xs) / len(xs)
    deviations = [x - mean_x for x in xs]
    sxx = sum(d ** 2 for d in deviations)
    return mean_x, sxx, deviations


def _fit(terms: WindowTerms, ys: Sequence[float]) -> Tuple[float, float]:
    """``(level, slope)`` of the least-squares line through ``ys``."""
    mean_x, sxx, deviations = terms
    if sxx <= 0:
        return ys[-1], 0.0
    mean_y = sum(ys) / len(ys)
    # d * (y - mean_y) for each sample, summed in sample order (the
    # order every pinned prediction was computed in), by map and sum in C
    sxy = sum(map(mul, deviations, map(sub, ys, repeat(mean_y))))
    slope = sxy / sxx
    return mean_y + slope * (0.0 - mean_x), slope


def least_squares(terms: WindowTerms, ys: Sequence[float]) -> LinearTrend:
    """Least-squares line through ``ys`` sampled at the times ``terms``
    was computed from.  Samples that all share one time (a single
    sample, too) have no slope; the line is flat at the last value."""
    level, slope = _fit(terms, ys)
    return LinearTrend(level=level, slope=slope)


def project(terms: WindowTerms, ys: Sequence[float], horizon: float) -> float:
    """``least_squares(terms, ys).predict(horizon)`` without building
    the :class:`LinearTrend`: the broker projects every clerk whose
    window is not flat at every sweep."""
    level, slope = _fit(terms, ys)
    return max(0.0, level + slope * horizon)


#: relative slack that makes ``(hi + K * (hi - lo)) * BOUND_SLACK`` a
#: bound on the *computed* projection.  The fit's float rounding is a
#: few ``window * 2**-52`` of the magnitudes it adds (``hi`` and
#: ``K * (hi - lo)``), far below this.
BOUND_SLACK = 1.0 + 2.0 ** -20


def spread_factor(terms: WindowTerms, horizon: float) -> float:
    """``K`` such that ``project(terms, ys, horizon) <= hi + K * (hi - lo)``
    for every window ``ys`` with values in ``[lo, hi]``, up to float
    rounding.

    The projection is ``mean_y + slope * (horizon - mean_x)``, with
    ``mean_y <= hi`` and ``horizon - mean_x >= 0``.  The deviations sum
    to zero, so ``sxy`` is also the sum of ``d * (y - (lo + hi) / 2)``,
    and ``|slope| <= sum(|d|) * (hi - lo) / (2 * sxx)``.  Samples that
    share one time are not fitted (the projection is the last value),
    so their factor is 0.  Float rounding is covered by
    :data:`BOUND_SLACK`.
    """
    mean_x, sxx, deviations = terms
    if sxx <= 0:
        return 0.0
    return (horizon - mean_x) * sum(map(abs, deviations)) / (2.0 * sxx)


class TrendEstimator:
    """Sliding-window trend tracker for one component's usage."""

    def __init__(self, window: int = 10):
        if window < 2:
            raise ValueError("trend window must hold at least 2 samples")
        self.window = window
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=window)

    def add(self, t: float, value: float) -> None:
        """Record one (time, usage) sample."""
        self._samples.append((t, float(value)))

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    @property
    def last_value(self) -> float:
        return self._samples[-1][1] if self._samples else 0.0

    def fit(self) -> LinearTrend:
        """Least-squares line through the window, anchored at the last
        sample time.  With fewer than 2 samples the slope is zero."""
        if not self._samples:
            return LinearTrend(level=0.0, slope=0.0)
        return least_squares(window_terms([t for t, _ in self._samples]),
                             [v for _, v in self._samples])

    def predict(self, horizon: float) -> float:
        """Projected usage ``horizon`` seconds from the last sample."""
        return self.fit().predict(horizon)
