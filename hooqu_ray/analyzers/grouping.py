"""Frequency-based (grouping) analyzers.

The reference computes an in-memory pandas groupby frequency table
(``hooqu/analyzers/grouping_analyzers.py:44-84``), documenting the SQL shape::

    SELECT colA, colB, ..., COUNT(*)
    FROM DATA
    WHERE colA IS NOT NULL OR colB IS NOT NULL OR ...
    GROUP BY colA, colB, ...

Our engine runs that as a bucketed count fold (``shuffle.bucketed_group_fold``)
and NEVER materializes the frequency table on the driver: every metric here
is a reduction over group counts (Σ[cnt=1], #groups, Σcnt, Σcnt·ln cnt), so
the post-shuffle pass emits tiny per-block partials that fold into a
``FrequenciesAndNumRows`` summary.  Null keys group as their own value
(Arrow groupby), matching the reference's ``fillna(-1)`` trick
(grouping_analyzers.py:66-75) for every non-pathological input.

Beyond the reference's ``Uniqueness`` we ship the rest of the Deequ-style
frequency family (Distinctness, UniqueValueRatio, CountDistinct, Entropy) —
they share the same shuffle for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..metrics import DoubleMetric, metric_from_value
from ..states import FrequenciesAndNumRows
from .base import GroupingAnalyzer


@dataclass(frozen=True, repr=False)
class _FrequencyAnalyzer(GroupingAnalyzer):
    columns: Tuple[str, ...] = ()
    where: Optional[str] = None

    def __init__(self, columns: Sequence[str], where: Optional[str] = None):
        # accept any sequence, store hashable tuple
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "where", where)

    @property
    def grouping_columns(self) -> Sequence[str]:
        return self.columns

    def _value(self, freq: FrequenciesAndNumRows) -> float:
        raise NotImplementedError

    def metric_from_frequencies(self, freq: FrequenciesAndNumRows) -> DoubleMetric:
        return metric_from_value(self._value(freq), self.name, self.instance, self.entity)


class Uniqueness(_FrequencyAnalyzer):
    """Fraction of value groups occurring exactly once, relative to rows with
    ≥1 non-null key (reference: uniqueness.py:17-32)."""

    name = "Uniqueness"

    def _value(self, freq: FrequenciesAndNumRows) -> float:
        if freq.num_rows == 0:
            return float("nan")
        return freq.num_singleton_groups / freq.num_rows


class Distinctness(_FrequencyAnalyzer):
    """#distinct value groups / #rows (extension; Deequ operator)."""

    name = "Distinctness"

    def _value(self, freq: FrequenciesAndNumRows) -> float:
        if freq.num_rows == 0:
            return float("nan")
        return freq.num_groups / freq.num_rows


class UniqueValueRatio(_FrequencyAnalyzer):
    """#singleton groups / #distinct groups (extension; Deequ operator)."""

    name = "UniqueValueRatio"

    def _value(self, freq: FrequenciesAndNumRows) -> float:
        if freq.num_groups == 0:
            return float("nan")
        return freq.num_singleton_groups / freq.num_groups


class CountDistinct(_FrequencyAnalyzer):
    """Exact number of distinct value groups (extension; Deequ operator)."""

    name = "CountDistinct"

    def _value(self, freq: FrequenciesAndNumRows) -> float:
        return float(freq.num_groups)


class MutualInformation(_FrequencyAnalyzer):
    """Mutual information (nats) between two columns (extension; Deequ
    operator): I(X;Y) = Σ p(x,y)·ln(p(x,y)/(p(x)p(y))).

    Runs on the JOINT frequency shuffle (groupby both columns).  The Ray
    backend hands this analyzer three distributed scalar reductions via
    ``metric_from_mi_stats`` (joint + both marginals, each a
    ``FrequenciesAndNumRows`` fold) and applies the exact identity
    I(X;Y) = H(X) + H(Y) − H(X,Y) = ln N + (S_xy − S_x − S_y)/N with
    S = Σ c·ln c — no per-group rows ever reach the driver, so a
    high-cardinality pair cannot OOM it.  The local backend keeps the
    in-memory joint table path (``metric_from_joint_frequencies``), which is
    algebraically identical."""

    name = "MutualInformation"

    def _preconditions(self, schema):
        super()._preconditions(schema)
        if len(self.columns) != 2:
            raise ValueError("MutualInformation requires exactly two columns")

    def _value(self, freq: FrequenciesAndNumRows) -> float:
        raise NotImplementedError("computed from the joint frequency table")

    def metric_from_joint_frequencies(self, pairs) -> "DoubleMetric":
        """pairs: list of ((x, y), count) over the joint groups."""
        from collections import defaultdict

        n = sum(c for _, c in pairs)
        if n == 0:
            return metric_from_value(float("nan"), self.name, self.instance, self.entity)
        px = defaultdict(int)
        py = defaultdict(int)
        for (x, y), c in pairs:
            px[x] += c
            py[y] += c
        mi = 0.0
        for (x, y), c in pairs:
            pxy = c / n
            mi += pxy * math.log(pxy * n * n / (px[x] * py[y]))
        return metric_from_value(mi, self.name, self.instance, self.entity)

    def metric_from_mi_stats(self, joint, marg_x, marg_y) -> "DoubleMetric":
        """Distributed path: ``FrequenciesAndNumRows`` summaries of the joint
        and both marginal count distributions (same N in all three)."""
        n = joint.num_rows
        if n == 0:
            return metric_from_value(float("nan"), self.name, self.instance, self.entity)
        mi = math.log(n) + (joint.entropy_sum - marg_x.entropy_sum - marg_y.entropy_sum) / n
        return metric_from_value(mi, self.name, self.instance, self.entity)


class Entropy(_FrequencyAnalyzer):
    """Shannon entropy (nats) of the value distribution (extension; Deequ
    operator).  H = ln(N) − Σ cnt·ln(cnt) / N, computed from mergeable
    per-partition reductions."""

    name = "Entropy"

    def _value(self, freq: FrequenciesAndNumRows) -> float:
        if freq.num_rows == 0:
            return float("nan")
        return math.log(freq.num_rows) - freq.entropy_sum / freq.num_rows
