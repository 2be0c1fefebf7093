"""Scan-shareable analyzers: Size, Completeness, Compliance, PatternMatch,
Minimum, Maximum, Sum, Mean, StandardDeviation, Correlation.

Semantics are pinned to the reference analyzers (files under
``/root/reference/hooqu/analyzers/``) including their pandas NaN rules:

- numeric aggregates skip NaN (pandas ``agg`` default);
- Sum of no valid values is 0.0; Min/Max/Mean of no valid values is NaN;
- StandardDeviation of no valid values is a Failure (``n = 0``,
  standard_deviation.py:36-38);
- Completeness counts NaN as missing; denominator includes all rows;
- PatternMatch counts non-null matches over ALL rows (nulls in the
  denominator — dataframe.py:57-65);
- Compliance sums whatever the predicate evaluates to, over the row count
  (compliance.py:33-39).

Each per-block update is a vectorized Arrow/numpy kernel; no Python row
loops except the backreference-regex fallback (RE2 cannot run the
reference's CREDITCARD pattern — patterns.py:12).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Optional, Pattern, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.expr import ExprCompileError, compile_predicate
from ..metrics import DoubleMetric, Entity, metric_from_value
from ..states import (
    CorrelationState,
    FailedState,
    MaxState,
    MeanState,
    MinState,
    NumMatches,
    NumMatchesAndCount,
    State,
    StandardDeviationState,
    SumState,
)
from .base import BoundScan, ScanShareableAnalyzer, has_column, is_numeric, is_string

NAN = float("nan")


def _numeric_f64(table: pa.Table, column: str) -> np.ndarray:
    """Column as float64 numpy with nulls→NaN (NaN-skipping kernels then
    reproduce pandas' behavior exactly)."""
    col = table.column(column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.type != pa.float64():
        col = col.cast(pa.float64())
    return col.to_numpy(zero_copy_only=False)


def _valid_count(values: np.ndarray) -> int:
    return int((~np.isnan(values)).sum())


# ---------------------------------------------------------------------------
# Size
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class Size(ScanShareableAnalyzer):
    """Row count after optional filter (reference: size.py:24-30)."""

    where: Optional[str] = None

    name = "Size"
    instance = "*"

    @property
    def entity(self) -> Entity:
        return Entity.DATASET

    def bind(self, schema):
        return _SizeBound()

    def metric_from_state(self, state):
        n = state.num_matches if state is not None else 0
        return metric_from_value(float(n), self.name, self.instance, self.entity)


class _SizeBound(BoundScan):
    def update(self, table: pa.Table):
        return NumMatches(len(table))


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class Completeness(ScanShareableAnalyzer):
    """Fraction of non-null values (reference: completeness.py:11-32)."""

    column: str
    where: Optional[str] = None

    name = "Completeness"

    @property
    def instance(self) -> str:
        return self.column

    def _preconditions(self, schema):
        has_column(schema, self.column)

    def bind(self, schema):
        return _CompletenessBound(self.column)

    def metric_from_state(self, state):
        if state is None:
            state = NumMatchesAndCount(0, 0)
        return metric_from_value(state.metric_value(), self.name, self.instance, self.entity)


class _CompletenessBound(BoundScan):
    def __init__(self, column: str):
        self.column = column

    def update(self, table: pa.Table):
        col = table.column(self.column)
        n = len(table)
        if pa.types.is_floating(col.type):
            nulls = pc.sum(pc.is_null(col, nan_is_null=True)).as_py() or 0
        else:
            nulls = col.null_count
        return NumMatchesAndCount(n - nulls, n)


# ---------------------------------------------------------------------------
# Compliance
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class Compliance(ScanShareableAnalyzer):
    """Fraction of rows satisfying a predicate expression
    (reference: compliance.py:7-52).  ``instance`` is the user-facing rule
    name; ``predicate`` is part of the analyzer identity."""

    instance_name: str
    predicate: str
    where: Optional[str] = None

    name = "Compliance"

    @property
    def instance(self) -> str:
        return self.instance_name

    def bind(self, schema):
        return _ComplianceBound(compile_predicate(self.predicate, schema))

    def metric_from_state(self, state):
        if state is None:
            state = NumMatchesAndCount(0, 0)
        return metric_from_value(state.metric_value(), self.name, self.instance, self.entity)


class _ComplianceBound(BoundScan):
    def __init__(self, predicate):
        self.predicate = predicate

    def update(self, table: pa.Table):
        values = self.predicate.values(table)
        if isinstance(values, bool):
            matches = len(table) if values else 0
        else:
            s = pc.sum(values)
            matches = s.as_py() or 0
        return NumMatchesAndCount(matches, len(table))


# ---------------------------------------------------------------------------
# PatternMatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class PatternMatch(ScanShareableAnalyzer):
    """Fraction of values matching a regex, search semantics
    (reference: pattern_match.py:12-34).  Uses Arrow's RE2 kernel when the
    pattern is RE2-compatible, else a Python ``re`` fallback (needed for
    backreference patterns like the reference CREDITCARD regex)."""

    column: str
    pattern: Union[str, Pattern] = ""
    where: Optional[str] = None

    name = "PatternMatch"

    @property
    def instance(self) -> str:
        return self.column

    @property
    def pattern_str(self) -> str:
        return self.pattern.pattern if isinstance(self.pattern, re.Pattern) else self.pattern

    def __eq__(self, other):
        return (
            isinstance(other, PatternMatch)
            and self.column == other.column
            and self.pattern_str == other.pattern_str
            and self.where == other.where
        )

    def __hash__(self):
        return hash((self.name, self.column, self.pattern_str, self.where))

    def _preconditions(self, schema):
        has_column(schema, self.column)
        is_string(schema, self.column)

    def bind(self, schema):
        pat = self.pattern_str
        try:
            # non-empty probe: Arrow only compiles the RE2 pattern when the
            # kernel actually runs over data
            pc.match_substring_regex(pa.array([""], type=pa.string()), pattern=pat)
            use_re2 = True
        except pa.ArrowInvalid:
            re.compile(pat)  # raise now if invalid for Python too
            use_re2 = False
        return _PatternMatchBound(self.column, pat, use_re2)

    def metric_from_state(self, state):
        if state is None:
            state = NumMatchesAndCount(0, 0)
        return metric_from_value(state.metric_value(), self.name, self.instance, self.entity)


class _PatternMatchBound(BoundScan):
    def __init__(self, column: str, pattern: str, use_re2: bool):
        self.column = column
        self.pattern = pattern
        self.use_re2 = use_re2
        self._rx = None if use_re2 else re.compile(pattern)

    def __getstate__(self):
        return (self.column, self.pattern, self.use_re2)

    def __setstate__(self, state):
        self.__init__(*state)

    def update(self, table: pa.Table):
        col = table.column(self.column)
        if self.use_re2:
            m = pc.match_substring_regex(col, pattern=self.pattern)
            matches = pc.sum(m).as_py() or 0
        else:
            rx = self._rx
            matches = sum(
                1 for s in col.to_pylist() if s is not None and rx.search(s) is not None
            )
        return NumMatchesAndCount(matches, len(table))


# ---------------------------------------------------------------------------
# Numeric aggregates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class _NumericColumnAnalyzer(ScanShareableAnalyzer):
    column: str = ""
    where: Optional[str] = None

    @property
    def instance(self) -> str:
        return self.column

    def _preconditions(self, schema):
        has_column(schema, self.column)
        is_numeric(schema, self.column)


@dataclass(frozen=True, repr=False)
class Minimum(_NumericColumnAnalyzer):
    """NaN-skipping min (reference: minimum.py:22-45)."""

    name = "Minimum"

    def bind(self, schema):
        return _MinMaxBound(self.column, is_min=True)

    def metric_from_state(self, state):
        v = state.metric_value() if state is not None else NAN
        return metric_from_value(v, self.name, self.instance, self.entity)


@dataclass(frozen=True, repr=False)
class Maximum(_NumericColumnAnalyzer):
    """NaN-skipping max (reference: maximum.py:22-45)."""

    name = "Maximum"

    def bind(self, schema):
        return _MinMaxBound(self.column, is_min=False)

    def metric_from_state(self, state):
        v = state.metric_value() if state is not None else NAN
        return metric_from_value(v, self.name, self.instance, self.entity)


class _MinMaxBound(BoundScan):
    def __init__(self, column: str, is_min: bool):
        self.column = column
        self.is_min = is_min

    def update(self, table: pa.Table):
        values = _numeric_f64(table, self.column)
        if values.size == 0 or np.isnan(values).all():
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            v = float(np.nanmin(values) if self.is_min else np.nanmax(values))
        return MinState(v) if self.is_min else MaxState(v)


@dataclass(frozen=True, repr=False)
class Sum(_NumericColumnAnalyzer):
    """NaN-skipping sum; empty → 0.0 (reference: sum.py:22-39)."""

    name = "Sum"

    def bind(self, schema):
        return _SumBound(self.column)

    def metric_from_state(self, state):
        v = state.metric_value() if state is not None else 0.0
        return metric_from_value(v, self.name, self.instance, self.entity)


class _SumBound(BoundScan):
    def __init__(self, column: str):
        self.column = column

    def update(self, table: pa.Table):
        values = _numeric_f64(table, self.column)
        return SumState(float(np.nansum(values)))


@dataclass(frozen=True, repr=False)
class Mean(_NumericColumnAnalyzer):
    """NaN-skipping mean; no valid values → NaN (reference: mean.py:25-51)."""

    name = "Mean"

    def bind(self, schema):
        return _MeanBound(self.column)

    def metric_from_state(self, state):
        if state is None:
            state = MeanState(0.0, 0)
        return metric_from_value(state.metric_value(), self.name, self.instance, self.entity)


class _MeanBound(BoundScan):
    def __init__(self, column: str):
        self.column = column

    def update(self, table: pa.Table):
        values = _numeric_f64(table, self.column)
        return MeanState(float(np.nansum(values)), _valid_count(values))


@dataclass(frozen=True, repr=False)
class StandardDeviation(_NumericColumnAnalyzer):
    """Population std (ddof=0), NaN-skipping; per-block Welford moments merged
    with Chan's combine (reference: standard_deviation.py:18-69,
    dataframe.py:68-101).  ±inf values are tracked explicitly so the merged
    result reproduces the reference's single-pass inf/NaN edge rules
    (tests/test_analyzers.py:116-148) regardless of block boundaries."""

    name = "StandardDeviation"

    def bind(self, schema):
        return _StdBound(self.column)

    def metric_from_state(self, state):
        if state is None:
            return self.to_failure_metric(
                ValueError("Standard deviation is undefined for n = 0.")
            )
        n, avg, m2, pos_inf, neg_inf = state
        if pos_inf and neg_inf:
            return metric_from_value(NAN, self.name, self.instance, self.entity)
        if pos_inf or neg_inf:
            return metric_from_value(float("inf"), self.name, self.instance, self.entity)
        import math

        if math.isinf(avg):
            v = float("inf")
        elif math.isnan(avg):
            v = NAN
        else:
            v = math.sqrt(m2 / n)
        return metric_from_value(v, self.name, self.instance, self.entity)


@dataclass(frozen=True, repr=False)
class _StdMoments(State):
    """(n, avg, m2) + inf presence flags; see StandardDeviation docstring."""

    n: float
    avg: float
    m2: float
    has_pos_inf: bool
    has_neg_inf: bool

    def sum(self, other: "_StdMoments") -> "_StdMoments":
        new_n = self.n + other.n
        delta = other.avg - self.avg
        delta_n = 0.0 if new_n == 0.0 else delta / new_n
        return _StdMoments(
            new_n,
            self.avg + delta_n * other.n,
            self.m2 + other.m2 + delta * delta_n * self.n * other.n,
            self.has_pos_inf or other.has_pos_inf,
            self.has_neg_inf or other.has_neg_inf,
        )

    def __iter__(self):
        return iter((self.n, self.avg, self.m2, self.has_pos_inf, self.has_neg_inf))


class _StdBound(BoundScan):
    def __init__(self, column: str):
        self.column = column

    def update(self, table: pa.Table):
        values = _numeric_f64(table, self.column)
        n = _valid_count(values)
        if n == 0:
            return None
        finite = values[np.isfinite(values)]
        # near DBL_MAX the finite values' sum overflows: take the moments
        # of the values scaled by a power of two, exact in binary, so the
        # mean comes back finite (in-range data never takes this branch)
        exp = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if not np.isfinite(finite.sum()):
                exp = int(np.frexp(np.abs(finite).max())[1])
                values = np.ldexp(values, -exp)
            avg = float(np.nanmean(values))
            m2 = float(np.nansum((values - avg) ** 2))
            avg, m2 = float(np.ldexp(avg, exp)), float(np.ldexp(m2, 2 * exp))
        return _StdMoments(
            float(n),
            avg,
            m2,
            bool(np.isposinf(values).any()),
            bool(np.isneginf(values).any()),
        )


@dataclass(frozen=True, repr=False)
class MinLength(ScanShareableAnalyzer):
    """Minimum string length of a column (extension; Deequ operator)."""

    column: str = ""
    where: Optional[str] = None

    name = "MinLength"

    @property
    def instance(self) -> str:
        return self.column

    def _preconditions(self, schema):
        has_column(schema, self.column)
        is_string(schema, self.column)

    def bind(self, schema):
        return _LengthBound(self.column, is_min=True)

    def metric_from_state(self, state):
        v = state.metric_value() if state is not None else NAN
        return metric_from_value(v, self.name, self.instance, self.entity)


@dataclass(frozen=True, repr=False)
class MaxLength(ScanShareableAnalyzer):
    """Maximum string length of a column (extension; Deequ operator)."""

    column: str = ""
    where: Optional[str] = None

    name = "MaxLength"

    @property
    def instance(self) -> str:
        return self.column

    def _preconditions(self, schema):
        has_column(schema, self.column)
        is_string(schema, self.column)

    def bind(self, schema):
        return _LengthBound(self.column, is_min=False)

    def metric_from_state(self, state):
        v = state.metric_value() if state is not None else NAN
        return metric_from_value(v, self.name, self.instance, self.entity)


class _LengthBound(BoundScan):
    def __init__(self, column: str, is_min: bool):
        self.column = column
        self.is_min = is_min

    def update(self, table: pa.Table):
        lengths = pc.utf8_length(table.column(self.column))
        agg = pc.min(lengths) if self.is_min else pc.max(lengths)
        v = agg.as_py()
        if v is None:
            return None
        return MinState(float(v)) if self.is_min else MaxState(float(v))


@dataclass(frozen=True, repr=False)
class Correlation(ScanShareableAnalyzer):
    """Pearson correlation of two numeric columns over rows where both are
    valid (extension beyond the reference; Deequ has the same operator).
    Mergeable bivariate co-moment state."""

    first: str = ""
    second: str = ""
    where: Optional[str] = None

    name = "Correlation"

    @property
    def instance(self) -> str:
        return f"{self.first},{self.second}"

    @property
    def entity(self) -> Entity:
        return Entity.MULTICOLUMN

    def _preconditions(self, schema):
        for c in (self.first, self.second):
            has_column(schema, c)
            is_numeric(schema, c)

    def bind(self, schema):
        return _CorrBound(self.first, self.second)

    def metric_from_state(self, state):
        if state is None:
            return metric_from_value(NAN, self.name, self.instance, self.entity)
        return metric_from_value(state.metric_value(), self.name, self.instance, self.entity)


class _CorrBound(BoundScan):
    def __init__(self, first: str, second: str):
        self.first = first
        self.second = second

    def update(self, table: pa.Table):
        x = _numeric_f64(table, self.first)
        y = _numeric_f64(table, self.second)
        valid = ~(np.isnan(x) | np.isnan(y))
        n = int(valid.sum())
        if n == 0:
            return None
        x, y = x[valid], y[valid]
        ax, ay = float(x.mean()), float(y.mean())
        return CorrelationState(
            float(n),
            ax,
            ay,
            float(((x - ax) ** 2).sum()),
            float(((y - ay) ** 2).sum()),
            float(((x - ax) * (y - ay)).sum()),
        )
