"""Exact Quantile with pandas ``interpolation="nearest"`` semantics.

The reference computes ``series.quantile(q, interpolation="nearest")``
(``hooqu/dataframe.py:104-123``) and explicitly does NOT support merging
quantile states (``hooqu/analyzers/quantile.py:15-18``).  Our engine instead
computes the exact k-th order statistic distributively:

1. a profile (n_valid, finite min/max, ±inf counts) comes out of the shared
   scan pass for free;
2. the "nearest" index is ``k = round_half_even(q·(n−1))`` over the sorted
   non-null values (NaNs skipped) — the rounding rule is pinned by the
   reference goldens (median of 1..6 → 3, q=.1 → 1, q=.9 → 5,
   ``tests/test_check.py:99-120``);
3. k is located among (−inf block | finite values | +inf block).  Up to
   ``COLLECT_LIMIT`` finite values the profile carries the values, so a
   driver-side ``np.partition`` answers with no pass beyond the scan.
   Above it a histogram-refinement selection runs: each pass histograms
   the candidate range in B buckets, narrows to the bucket containing k,
   and finishes by collecting only that bucket — O(log_B(range)) passes,
   never a full sort/shuffle.  (Above the cap, blocks ship their values
   until the first merge past the cap drops them: at most one serialized
   column of extra traffic.)

q ∉ [0,1] fails with pandas' message ("percentiles should all be in the
interval [0, 1]"), pinned by ``tests/test_analyzers.py:220-228``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pyarrow as pa

from ..metrics import DoubleMetric, metric_from_value
from ..states import State
from .base import Analyzer, BoundScan, has_column, is_numeric
from .scan import _numeric_f64

COLLECT_LIMIT = 4_000_000  # float64s ≈ 32 MB on the driver


def nearest_index(q: float, n: int) -> int:
    """Index of the 'nearest'-interpolation quantile among n sorted values.

    numpy's method="nearest" rounds the virtual index q*(n-1) half-to-even
    (np.round); verified against the reference goldens."""
    return int(np.round(q * (n - 1)))


@dataclass(frozen=True, repr=False)
class QuantileProfile(State):
    """Shared-scan prepass state for a quantile target: counts, finite
    bounds and (up to ``COLLECT_LIMIT``) the finite values.  Mergeable,
    rides the same pass as every other scan analyzer."""

    n_valid: int
    n_neg_inf: int
    n_pos_inf: int
    finite_min: float  # +inf when no finite values seen
    finite_max: float  # -inf when no finite values seen
    values: Optional[bytes] = None  # finite float64s; None past the cap

    def n_finite(self) -> int:
        return self.n_valid - self.n_neg_inf - self.n_pos_inf

    def sum(self, other: "QuantileProfile") -> "QuantileProfile":
        values = None
        if (self.values is not None and other.values is not None
                and self.n_finite() + other.n_finite() <= COLLECT_LIMIT):
            values = self.values + other.values
        return QuantileProfile(
            self.n_valid + other.n_valid,
            self.n_neg_inf + other.n_neg_inf,
            self.n_pos_inf + other.n_pos_inf,
            min(self.finite_min, other.finite_min),
            max(self.finite_max, other.finite_max),
            values,
        )


class QuantileProfileBound(BoundScan):
    def __init__(self, column: str):
        self.column = column

    def update(self, table: pa.Table):
        v = _numeric_f64(table, self.column)
        valid = v[~np.isnan(v)]
        if valid.size == 0:
            return None
        finite = valid[np.isfinite(valid)]
        return QuantileProfile(
            int(valid.size),
            int(np.isneginf(valid).sum()),
            int(np.isposinf(valid).sum()),
            float(finite.min()) if finite.size else float("inf"),
            float(finite.max()) if finite.size else float("-inf"),
            finite.tobytes() if finite.size <= COLLECT_LIMIT else None,
        )


class RangeHistogramBound(BoundScan):
    """One selection pass: counts of finite column values per bucket of
    [lo, hi] (inclusive), plus count strictly below lo.  A plain numpy
    histogram per block; states are int arrays merged by addition."""

    def __init__(self, column: str, lo: float, hi: float, nbins: int):
        self.column = column
        self.lo = lo
        self.hi = hi
        self.nbins = nbins

    def update(self, table: pa.Table):
        v = _numeric_f64(table, self.column)
        v = v[np.isfinite(v)]
        below = int((v < self.lo).sum())
        inside = v[(v >= self.lo) & (v <= self.hi)]
        counts, _ = np.histogram(inside, bins=self.nbins, range=(self.lo, self.hi))
        return _HistState(below, tuple(int(c) for c in counts))


@dataclass(frozen=True)
class _HistState(State):
    below: int
    counts: tuple

    def sum(self, other: "_HistState") -> "_HistState":
        return _HistState(
            self.below + other.below,
            tuple(a + b for a, b in zip(self.counts, other.counts)),
        )


class RangeCollectBound(BoundScan):
    """Final selection pass: collect the (small) set of finite values inside
    [lo, hi].  The runner only issues this when the bucket population is
    bounded."""

    def __init__(self, column: str, lo: float, hi: float):
        self.column = column
        self.lo = lo
        self.hi = hi

    def update(self, table: pa.Table):
        v = _numeric_f64(table, self.column)
        v = v[np.isfinite(v)]
        v = v[(v >= self.lo) & (v <= self.hi)]
        if v.size == 0:
            return None
        return _ValuesState(v.tobytes())


@dataclass(frozen=True)
class _ValuesState(State):
    payload: bytes

    def sum(self, other: "_ValuesState") -> "_ValuesState":
        return _ValuesState(self.payload + other.payload)

    def to_numpy(self) -> np.ndarray:
        return np.frombuffer(self.payload, dtype=np.float64)


@dataclass(frozen=True, repr=False)
class Quantile(Analyzer):
    """Exact q-quantile, 'nearest' interpolation (an actual data value).

    Reference: hooqu/analyzers/quantile.py:24-77."""

    column: str = ""
    quantile: float = 0.5
    where: Optional[str] = None

    name = "Quantile"

    @property
    def instance(self) -> str:
        return self.column

    def _preconditions(self, schema):
        has_column(schema, self.column)
        is_numeric(schema, self.column)

    def validate_q(self) -> None:
        if not (0.0 <= self.quantile <= 1.0):
            raise ValueError("percentiles should all be in the interval [0, 1]")

    def metric_from_result(self, value: float) -> DoubleMetric:
        return metric_from_value(value, self.name, self.instance, self.entity)

    def __repr__(self):
        return f"{self.name}({self.column}, quantile={self.quantile})"


def select_nearest(profile: Optional[QuantileProfile], q: float, scanner) -> float:
    """Drive the distributed selection.  Answers from ``profile.values`` when
    the scan carried them; otherwise ``scanner(spec) -> merged state`` runs
    one extra pass over the (where-filtered) data, injected so the local and
    the Ray runners share this exact logic.

    Returns the quantile value (NaN when there are no valid values)."""
    if profile is None or profile.n_valid == 0:
        return float("nan")
    n = profile.n_valid
    k = nearest_index(q, n)
    if k < profile.n_neg_inf:
        return float("-inf")
    if k >= n - profile.n_pos_inf:
        return float("inf")
    k_global = k - profile.n_neg_inf  # rank among the finite values
    if profile.values is not None:
        return _kth(np.frombuffer(profile.values, dtype=np.float64), k_global)
    lo, hi = profile.finite_min, profile.finite_max

    NBINS = 8192
    offset = 0  # finite values strictly below lo
    est_in_range = profile.n_finite()
    for _ in range(64):  # float64 ranges collapse long before this
        if lo == hi:
            return lo  # every candidate value is identical
        if est_in_range <= COLLECT_LIMIT:
            break
        hist = scanner(("hist", lo, hi, NBINS))
        counts = np.asarray(hist.counts, dtype=np.int64)
        cum = hist.below + np.cumsum(counts)
        bucket = int(np.searchsorted(cum, k_global + 1))
        edges = np.linspace(lo, hi, NBINS + 1)
        new_lo = float(edges[bucket])
        new_hi = float(edges[bucket + 1]) if bucket + 1 <= NBINS else hi
        new_offset = int(hist.below + (counts[:bucket].sum() if bucket else 0))
        if (new_lo, new_hi) == (lo, hi):
            break  # cannot refine further (massive duplicates) → collect
        lo, hi, offset = new_lo, new_hi, new_offset
        est_in_range = int(counts[bucket])
    vals_state = scanner(("collect", lo, hi))
    values = vals_state.to_numpy() if vals_state is not None else np.empty(0)
    return _kth(values, k_global - offset)


def _kth(values: np.ndarray, k: int) -> float:
    if not 0 <= k < values.size:  # the passes saw different data
        raise ValueError(f"inconsistent quantile passes: rank {k} is outside "
                         f"the {values.size} collected values")
    return float(np.partition(values, k)[k])
