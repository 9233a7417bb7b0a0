"""Optimizer statistics: histograms and per-column summaries.

Statistics are *synthetic but principled*: each column gets an
equi-depth histogram over its declared domain, optionally skewed, so
the cardinality estimator exercises the same code paths it would over
sampled data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.catalog.schema import Column
from repro.errors import CatalogError


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket: values in ``[low, high]`` hold ``rows`` rows."""

    low: float
    high: float
    rows: float
    distinct: float


class Histogram:
    """An equi-depth histogram over a numeric domain."""

    def __init__(self, buckets: Sequence[Bucket]):
        if not buckets:
            raise CatalogError("histogram needs at least one bucket")
        for prev, cur in zip(buckets, buckets[1:]):
            if cur.low < prev.high:
                raise CatalogError("histogram buckets overlap")
        self.buckets: Tuple[Bucket, ...] = tuple(buckets)
        #: the buckets never change, and every selectivity call reads this
        self.total_rows: float = sum(b.rows for b in self.buckets)

    @property
    def low(self) -> float:
        return self.buckets[0].low

    @property
    def high(self) -> float:
        return self.buckets[-1].high

    @classmethod
    def equi_depth(cls, low: float, high: float, rows: float, ndv: float,
                   nbuckets: int = 16, skew: float = 0.0) -> "Histogram":
        """Build a histogram over ``[low, high]``.

        ``skew`` in [0, 1) shifts mass toward the low end of the domain
        (0 = uniform), emulating the skewed distributions of real sales
        data without storing any data.
        """
        if high < low:
            raise CatalogError("empty histogram domain")
        nbuckets = max(1, min(nbuckets, int(ndv)))
        width = (high - low) / nbuckets if nbuckets else 0
        weights = [(1.0 - skew) + 2.0 * skew * (nbuckets - i) / nbuckets
                   for i in range(nbuckets)]
        total_weight = sum(weights)
        buckets: List[Bucket] = []
        for i in range(nbuckets):
            b_low = low + i * width
            b_high = low + (i + 1) * width if i < nbuckets - 1 else high
            share = weights[i] / total_weight
            buckets.append(Bucket(
                low=b_low, high=b_high,
                rows=rows * share,
                distinct=max(1.0, ndv * share),
            ))
        return cls(buckets)

    # -- selectivity ---------------------------------------------------------
    def selectivity_eq(self, value: float) -> float:
        """Fraction of rows where column = value."""
        total = self.total_rows
        if total <= 0:
            return 0.0
        for b in self.buckets:
            if b.low <= value <= b.high:
                return (b.rows / b.distinct) / total
        return 0.0

    def selectivity_range(self, low: Optional[float],
                          high: Optional[float]) -> float:
        """Fraction of rows where ``low <= column <= high`` (either bound
        may be None for an open interval)."""
        total = self.total_rows
        if total <= 0:
            return 0.0
        lo = self.low if low is None else low
        hi = self.high if high is None else high
        if hi < lo:
            return 0.0
        selected = 0.0
        for b in self.buckets:
            span = b.high - b.low
            overlap_lo = max(lo, b.low)
            overlap_hi = min(hi, b.high)
            if overlap_hi < overlap_lo:
                continue
            if span <= 0:
                selected += b.rows
            else:
                selected += b.rows * (overlap_hi - overlap_lo) / span
        return min(1.0, selected / total)


@dataclass
class ColumnStatistics:
    """Everything the estimator knows about one column."""

    column: Column
    row_count: int
    histogram: Histogram

    @property
    def ndv(self) -> float:
        return min(self.column.ndv, max(1, self.row_count))

    def selectivity_eq_const(self, value: float) -> float:
        sel = self.histogram.selectivity_eq(value)
        if sel == 0.0:
            # fall back to the uniform 1/ndv guess for off-histogram values
            sel = 1.0 / self.ndv
        return min(1.0, sel)

    def selectivity_range(self, low: Optional[float],
                          high: Optional[float]) -> float:
        return self.histogram.selectivity_range(low, high)


def build_column_statistics(column: Column, row_count: int,
                            skew: float = 0.0) -> ColumnStatistics:
    """Synthesize statistics for a column from its declared domain."""
    hist = Histogram.equi_depth(
        low=column.low, high=column.high,
        rows=float(max(row_count, 1)), ndv=float(column.ndv),
        nbuckets=16, skew=skew,
    )
    return ColumnStatistics(column=column, row_count=row_count, histogram=hist)


def join_ndv(left_ndv: float, right_ndv: float) -> float:
    """Distinct values surviving an equi-join (containment assumption)."""
    return max(1.0, min(left_ndv, right_ndv))


def grouping_ndv(ndvs: Sequence[float], input_rows: float) -> float:
    """Estimated group count for GROUP BY over columns with ``ndvs``.

    Uses the standard product-capped-by-input-cardinality rule.
    """
    product = 1.0
    for ndv in ndvs:
        product *= max(1.0, ndv)
        if product > input_rows:
            return max(1.0, input_rows)
    return max(1.0, min(product, input_rows))
