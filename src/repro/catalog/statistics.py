"""Column statistics: equi-depth histograms, distinct counts and skew.

The paper evaluates CoPhy on TPC-H data generated with the ``tpcdskew`` tool,
which replaces the uniform value distributions of standard TPC-H with Zipfian
distributions controlled by a skew parameter ``z`` (``z = 0`` is uniform,
``z = 2`` is highly skewed).  We do not materialise tuples; instead every
column carries a :class:`ColumnStatistics` object whose histogram is derived
analytically from a Zipfian model with the same ``z`` knob.  Selectivity
estimation in the what-if optimizer reads these histograms, so data skew
influences index benefit in the same qualitative way as in the paper
(section 5.2: "certain indices become very beneficial" under skew).
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Sequence

__all__ = ["HistogramBucket", "Histogram", "ColumnStatistics", "zipf_frequencies"]


def zipf_frequencies(num_values: int, skew: float) -> list[float]:
    """Return the relative frequencies of ``num_values`` values under Zipf(``skew``).

    Args:
        num_values: Number of distinct values (must be positive).
        skew: Zipf exponent ``z``; 0 yields a uniform distribution.

    Returns:
        A list of ``num_values`` frequencies summing to 1.0, sorted from the
        most frequent value to the least frequent one.
    """
    if num_values <= 0:
        raise ValueError("num_values must be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    if skew == 0:
        return [1.0 / num_values] * num_values
    weights = [1.0 / (rank ** skew) for rank in range(1, num_values + 1)]
    total = sum(weights)
    return [w / total for w in weights]


@dataclass(frozen=True)
class HistogramBucket:
    """A single bucket of an equi-width histogram over a numeric domain.

    Attributes:
        low: Inclusive lower bound of the bucket.
        high: Exclusive upper bound (inclusive for the last bucket).
        frequency: Fraction of rows whose value falls in the bucket.
        distinct_values: Estimated number of distinct values in the bucket.
    """

    low: float
    high: float
    frequency: float
    distinct_values: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError("bucket high bound must be >= low bound")
        if self.frequency < 0:
            raise ValueError("bucket frequency must be non-negative")
        if self.distinct_values < 0:
            raise ValueError("bucket distinct_values must be non-negative")

    @property
    def width(self) -> float:
        return self.high - self.low


class Histogram:
    """Equi-width histogram with Zipf-skewed bucket frequencies.

    The histogram supports the two estimates the optimizer needs: equality
    selectivity (``selectivity_eq``) and range selectivity
    (``selectivity_range``).  Skew is encoded by assigning Zipfian mass to the
    buckets (most of the mass concentrated in the first buckets when ``z`` is
    large), which mirrors how ``tpcdskew`` skews TPC-H columns.
    """

    def __init__(self, buckets: Sequence[HistogramBucket]):
        if not buckets:
            raise ValueError("Histogram needs at least one bucket")
        self._buckets = tuple(buckets)
        total = sum(b.frequency for b in self._buckets)
        if total <= 0:
            raise ValueError("Histogram frequencies must sum to a positive value")
        # Normalise defensively so selectivities stay in [0, 1].
        if abs(total - 1.0) > 1e-9:
            self._buckets = tuple(
                HistogramBucket(b.low, b.high, b.frequency / total, b.distinct_values)
                for b in self._buckets
            )

    @classmethod
    def from_domain(cls, low: float, high: float, distinct_values: int,
                    skew: float = 0.0, num_buckets: int = 32) -> "Histogram":
        """Build a histogram for a numeric domain ``[low, high]``.

        Args:
            low: Minimum value of the column.
            high: Maximum value of the column.
            distinct_values: Number of distinct values in the column.
            skew: Zipf exponent controlling how unevenly rows spread over buckets.
            num_buckets: Number of equi-width buckets.
        """
        if high < low:
            raise ValueError("high must be >= low")
        distinct_values = max(1, int(distinct_values))
        num_buckets = max(1, min(num_buckets, distinct_values))
        frequencies = zipf_frequencies(num_buckets, skew)
        span = (high - low) or 1.0
        bucket_width = span / num_buckets
        per_bucket_ndv = distinct_values / num_buckets
        buckets = []
        for position, frequency in enumerate(frequencies):
            bucket_low = low + position * bucket_width
            bucket_high = low + (position + 1) * bucket_width
            buckets.append(HistogramBucket(bucket_low, bucket_high, frequency,
                                           per_bucket_ndv))
        return cls(buckets)

    @property
    def buckets(self) -> tuple[HistogramBucket, ...]:
        return self._buckets

    @property
    def low(self) -> float:
        return self._buckets[0].low

    @property
    def high(self) -> float:
        return self._buckets[-1].high

    @property
    def max_bucket_frequency(self) -> float:
        """Frequency of the heaviest bucket; grows with skew."""
        return max(b.frequency for b in self._buckets)

    def selectivity_eq(self, value: float) -> float:
        """Selectivity of ``column = value`` assuming uniformity inside a bucket."""
        bucket = self._locate(value)
        if bucket is None:
            return 0.0
        return bucket.frequency / max(bucket.distinct_values, 1.0)

    def selectivity_range(self, low: float | None, high: float | None,
                          low_inclusive: bool = True,
                          high_inclusive: bool = True) -> float:
        """Selectivity of ``low <= column <= high`` (either bound may be None)."""
        effective_low = self.low if low is None else low
        effective_high = self.high if high is None else high
        if effective_high < effective_low:
            return 0.0
        selected = 0.0
        for bucket in self._buckets:
            overlap_low = max(bucket.low, effective_low)
            overlap_high = min(bucket.high, effective_high)
            if overlap_high <= overlap_low:
                # A zero-width overlap only matters for point buckets.
                if bucket.width == 0 and bucket.low == effective_low:
                    selected += bucket.frequency
                continue
            if bucket.width == 0:
                selected += bucket.frequency
            else:
                fraction = (overlap_high - overlap_low) / bucket.width
                selected += bucket.frequency * min(1.0, max(0.0, fraction))
        # Open bounds shave off roughly one value's worth of selectivity;
        # the effect is negligible for the domains we model, so ignore it.
        del low_inclusive, high_inclusive
        return min(1.0, max(0.0, selected))

    def _locate(self, value: float) -> HistogramBucket | None:
        if value < self.low or value > self.high:
            return None
        for bucket in self._buckets:
            if bucket.low <= value < bucket.high:
                return bucket
        return self._buckets[-1]

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram(buckets={len(self._buckets)}, "
                f"domain=[{self.low}, {self.high}])")


@dataclass
class ColumnStatistics:
    """Statistics for a single column.

    Attributes:
        distinct_values: Number of distinct values (NDV).
        null_fraction: Fraction of NULL rows.
        histogram: Value-distribution histogram used for selectivity estimates.
        correlation: Physical-order correlation in [-1, 1]; 1 means the column
            is stored in sorted order (e.g. a clustered key), which makes range
            index scans cheaper.
        average_width: Average stored width in bytes (defaults to the column
            width when the catalog wires the statistics in).
    """

    distinct_values: float
    null_fraction: float = 0.0
    histogram: Histogram | None = None
    correlation: float = 0.0
    average_width: float = 8.0

    def __post_init__(self) -> None:
        if self.distinct_values <= 0:
            raise ValueError("distinct_values must be positive")
        if not 0.0 <= self.null_fraction <= 1.0:
            raise ValueError("null_fraction must be within [0, 1]")
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must be within [-1, 1]")

    def equality_selectivity(self, value: float | None = None) -> float:
        """Selectivity of an equality predicate on this column."""
        if self.histogram is not None and value is not None:
            estimate = self.histogram.selectivity_eq(value)
            if estimate > 0:
                return estimate
        return (1.0 - self.null_fraction) / self.distinct_values

    def range_selectivity(self, low: float | None, high: float | None) -> float:
        """Selectivity of a range predicate ``low <= column <= high``."""
        if self.histogram is not None:
            return self.histogram.selectivity_range(low, high)
        # Fallback: assume a unit domain and clamp.
        if low is None and high is None:
            return 1.0
        return 1.0 / 3.0

    def typical_mass_ratio(self) -> float:
        """Row mass of a *typical* (median) domain slice relative to uniform.

        Equals 1.0 for uniform data and drops below 1.0 as skew grows: under a
        Zipfian distribution most of the domain holds very few rows, so a
        predicate that selects a typical slice of the domain matches fewer
        rows than the uniform assumption predicts.  The selectivity estimator
        uses this to translate generator-supplied domain-fraction hints into
        row selectivities, which is how data skew makes selective indexes more
        beneficial (section 5.2 of the paper).
        """
        if self.histogram is None or len(self.histogram) == 0:
            return 1.0
        frequencies = sorted(bucket.frequency for bucket in self.histogram.buckets)
        median = frequencies[len(frequencies) // 2]
        uniform = 1.0 / len(self.histogram)
        if uniform <= 0:
            return 1.0
        return min(1.0, median / uniform)

    def skew_factor(self) -> float:
        """How concentrated the distribution is; 1.0 means uniform.

        Defined as the heaviest-bucket frequency relative to the uniform
        bucket frequency.  The what-if optimizer uses this to boost the
        benefit of highly selective indexes on skewed data.
        """
        if self.histogram is None or len(self.histogram) == 0:
            return 1.0
        uniform = 1.0 / len(self.histogram)
        return self.histogram.max_bucket_frequency / uniform

    @classmethod
    def for_key_column(cls, row_count: float, width: float = 8.0) -> "ColumnStatistics":
        """Statistics of a unique key column of a table with ``row_count`` rows."""
        histogram = Histogram.from_domain(0.0, max(row_count, 1.0), int(max(row_count, 1)))
        return cls(distinct_values=max(row_count, 1.0), histogram=histogram,
                   correlation=1.0, average_width=width)

    @classmethod
    def for_categorical(cls, distinct_values: int, skew: float = 0.0,
                        width: float = 8.0) -> "ColumnStatistics":
        """Statistics of a categorical column with ``distinct_values`` categories."""
        histogram = Histogram.from_domain(0.0, float(distinct_values), distinct_values,
                                          skew=skew,
                                          num_buckets=min(64, max(1, distinct_values)))
        return cls(distinct_values=float(distinct_values), histogram=histogram,
                   average_width=width)

    @classmethod
    def for_numeric_range(cls, low: float, high: float, distinct_values: int,
                          skew: float = 0.0, correlation: float = 0.0,
                          width: float = 8.0) -> "ColumnStatistics":
        """Statistics of a numeric column over ``[low, high]``."""
        histogram = Histogram.from_domain(low, high, distinct_values, skew=skew)
        return cls(distinct_values=float(max(1, distinct_values)), histogram=histogram,
                   correlation=correlation, average_width=width)
