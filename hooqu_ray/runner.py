"""Analysis runner: plans analyzers and executes them over the data.

Execution model (Ray-Data-first restatement of the reference lifecycle,
``hooqu/analyzers/runners/analysis_runner.py:62-170``):

1. **Plan** (driver): dedupe analyzers (identity = frozen-dataclass equality,
   like the reference's ``(name, instance, entity, where)`` key), check
   preconditions against ``Dataset.schema()`` — no data scan needed — and
   compile where-filters/predicates/regexes once.
2. **Shared scan**: ALL scan-shareable analyzers run in ONE pass (one
   pickled state row per block via ``map_batches``, merged ~64 at a time,
   then on the driver — not ``AggregateFn``, which corrupts custom states).
   The reference designed this and left it dead
   (``analysis_runner.py:117-123,173-230``); on Ray Data it is the whole
   point — one streaming pass, zero materialization.
3. **Frequency analyzers** share one bucketed count fold
   (``shuffle.bucketed_group_fold``) per distinct (columns, where); group
   counts are reduced distributively (never collected).  On Ray the shared
   scan rides the first such fold, so the suite reads its source once.
4. **Exact quantiles** answer from values the scan carried (0 extra passes
   up to ``quantile.COLLECT_LIMIT``); above it, bounded histogram-refinement
   passes (see ``analyzers/quantile.py``), no global sort.

Two interchangeable backends execute the same per-block kernels:

- ``RayRunner`` for ``ray.data.Dataset`` (streaming, distributed);
- ``LocalRunner`` for pandas/Arrow in-memory tables (chunked fold —
  the drop-in replacement path for reference users, also what the
  hypothesis differential tests drive so merge laws are exercised without
  Ray overhead per example).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .analyzers.base import Analyzer, GroupingAnalyzer, ScanShareableAnalyzer
from .analyzers.quantile import (
    Quantile,
    QuantileProfileBound,
    RangeCollectBound,
    RangeHistogramBound,
    select_nearest,
)
from .functions.expr import compile_predicate
from .functions.shuffle import group_by
from .metrics import DoubleMetric
from .states import FailedState, FrequenciesAndNumRows, merge_states

# ---------------------------------------------------------------------------
# AnalyzerContext
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyzerContext:
    """Mapping analyzer → metric (reference: analysis_runner.py:15-59)."""

    metric_map: Mapping[Analyzer, DoubleMetric] = field(default_factory=dict)

    def all_metrics(self) -> List[DoubleMetric]:
        return list(self.metric_map.values())

    def __add__(self, other: "AnalyzerContext") -> "AnalyzerContext":
        return AnalyzerContext({**self.metric_map, **other.metric_map})

    def metric(self, analyzer: Analyzer) -> Optional[DoubleMetric]:
        return self.metric_map.get(analyzer)

    @classmethod
    def success_metrics_as_dataframe(
        cls,
        analyzer_context: "AnalyzerContext",
        for_analyzers: Sequence[Analyzer] = (),
    ) -> pd.DataFrame:
        mp = analyzer_context.metric_map
        rows = [
            mp[a].asdict()
            for a in mp
            if (not for_analyzers or a in for_analyzers) and mp[a].value.isSuccess
        ]
        df = pd.DataFrame(rows, columns=["entity", "instance", "name", "value"])
        return df.sort_values(by="entity", ascending=False, ignore_index=True)


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------


@dataclass
class _WhereGroup:
    predicate: Any  # compiled predicate or None
    bounds: List[Tuple[int, Any]]  # (slot, BoundScan)


@dataclass
class ScanPlan:
    """Picklable: shipped inside the per-block ``map_batches`` UDFs."""

    groups: List[_WhereGroup]
    n_slots: int

    def accumulate(self, acc: List[Any], table: pa.Table) -> List[Any]:
        for g in self.groups:
            if g.predicate is not None:
                try:
                    view = g.predicate.filter(table)
                except Exception as ex:  # noqa: BLE001
                    poison = FailedState.from_exception(ex)
                    for slot, _ in g.bounds:
                        acc[slot] = poison
                    continue
            else:
                view = table
            for slot, bound in g.bounds:
                if isinstance(acc[slot], FailedState):
                    continue
                try:
                    s = bound.update(view)
                except Exception as ex:  # noqa: BLE001
                    s = FailedState.from_exception(ex)
                acc[slot] = merge_states(acc[slot], s)
        return acc

    def merge(self, a: List[Any], b: List[Any]) -> List[Any]:
        return [merge_states(x, y) for x, y in zip(a, b)]

    def fold_pickled(self, payloads) -> List[Any]:
        """Merge pickled state vectors (None entries skipped)."""
        acc = self.init()
        for p in payloads:
            if p is not None:
                acc = self.merge(acc, pickle.loads(p))
        return acc

    def init(self) -> List[Any]:
        return [None] * self.n_slots


def _build_scan_plan(
    entries: List[Tuple[Optional[str], Any]], schema: pa.Schema
) -> Tuple[ScanPlan, Dict[int, Exception]]:
    """entries: (where, bind_fn) per slot; returns plan + per-slot bind errors."""
    groups: Dict[Optional[str], _WhereGroup] = {}
    errors: Dict[int, Exception] = {}
    for slot, (where, bind_fn) in enumerate(entries):
        if where not in groups:
            pred = None
            if where is not None:
                try:
                    pred = compile_predicate(where, schema)
                except Exception as ex:  # noqa: BLE001
                    pred = ex
            groups[where] = _WhereGroup(pred, [])
        g = groups[where]
        if isinstance(g.predicate, Exception):
            errors[slot] = g.predicate
            continue
        try:
            bound = bind_fn()
        except Exception as ex:  # noqa: BLE001
            errors[slot] = ex
            continue
        g.bounds.append((slot, bound))
    plan = ScanPlan([g for g in groups.values() if g.bounds], len(entries))
    return plan, errors


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class LocalRunner:
    """Chunked fold over an in-memory Arrow table (no Ray)."""

    def __init__(self, table: pa.Table, chunk_rows: Optional[int] = None):
        self.table = table
        self.chunk_rows = chunk_rows

    def schema(self) -> pa.Schema:
        return self.table.schema

    def _chunks(self):
        n = len(self.table)
        step = self.chunk_rows or max(n, 1)
        for start in range(0, max(n, 1), step):
            yield self.table.slice(start, step)

    def run_scan(self, plan: ScanPlan) -> List[Any]:
        acc = plan.init()
        for chunk in self._chunks():
            acc = plan.accumulate(acc, chunk)
        return acc

    def joint_frequencies(self, columns: Sequence[str], predicate):
        table = self.table
        if predicate is not None:
            table = predicate.filter(table)
        table = _drop_all_null_keys(table.select(list(columns)), columns)
        if len(table) == 0:
            return []
        freq = group_by(table, columns, [([], "count_all")])
        cols = [freq.column(c).to_pylist() for c in columns]
        counts = freq.column("count_all").to_pylist()
        return [(tuple(vals), c) for *vals, c in zip(*cols, counts)]

    def frequencies(
        self, columns: Sequence[str], predicate
    ) -> Optional[FrequenciesAndNumRows]:
        table = self.table
        if predicate is not None:
            table = predicate.filter(table)
        table = _drop_all_null_keys(table.select(list(columns)), columns)
        if len(table) == 0:
            return FrequenciesAndNumRows(0, 0, 0, 0.0)
        freq = group_by(table, columns, [([], "count_all")])
        return _reduce_frequency_block(freq, "count_all")


class RayRunner:
    """Streaming execution over a ray.data.Dataset.

    The shared scan is ``map_batches`` emitting ONE pickled state-vector row
    per block (bytes-small), an intermediate ``map_batches`` merge stage that
    collapses every ~64 partial rows into one (keeps the driver fold O(#
    blocks / 64) even at 100k-block scale), and a final driver fold.  This
    keeps full control of custom state objects instead of pushing them
    through Ray's Arrow aggregate machinery (``scan_and_frequencies`` folds
    the same state rows through a frequency exchange instead)."""

    def __init__(self, ds):
        self.ds = ds

    def schema(self) -> Optional[pa.Schema]:
        # normalized across Arrow / pandas block types (object dtype → string,
        # matching the per-block pandas→Arrow conversion in accumulate)
        from .util import dataset_arrow_schema

        return dataset_arrow_schema(self.ds)

    def _fold(self, ds, plan: ScanPlan) -> List[Any]:
        states = ds.map_batches(_BlockStates(plan), batch_format="pyarrow")
        merged = states.map_batches(
            _MergePartials(plan), batch_format="pyarrow", batch_size=64
        )
        return plan.fold_pickled(row["state"] for row in merged.take_all())

    def run_scan(self, plan: ScanPlan) -> List[Any]:
        return self._fold(self.ds, plan)

    def mutual_information_stats(self, columns: Sequence[str], predicate):
        """Distributed MI reductions — never collects the joint frequency
        table on the driver (the reference materializes it in pandas,
        grouping_analyzers.py:44-84; a high-cardinality pair would OOM the
        driver at scale).  One BUCKETED hash exchange
        (``shuffle.bucketed_group_fold`` over per-block ``_ProjectKeys``
        partials — the joint key is corpus-cardinality, exactly the case
        Ray's sort-based groupby pays ~5 µs/row on) builds the joint
        ``(x, y, count)`` table; it stays in the object store, and three
        folds (joint + the two marginals re-grouped FROM the joint table,
        so they cost exchanges over #distinct-pairs rows, not #rows) each
        reduce to one ``FrequenciesAndNumRows`` scalar summary.  MI derives
        from the identity I(X;Y) = H(X) + H(Y) − H(X,Y) over those
        summaries."""
        from .functions.shuffle import bucketed_group_fold

        cols = list(columns)
        partials = self.ds.map_batches(
            _ProjectKeys(cols, predicate), batch_format="pyarrow")
        # the joint table is materialized (the exchange's output), so the
        # three folds below read it without re-running the scan
        joint = bucketed_group_fold(partials, cols, ["__pcount"], ["sum"])

        def fold(freq_ds) -> FrequenciesAndNumRows:
            plan = ScanPlan(
                [_WhereGroup(None, [(0, _FreqReduceBound("__pcount"))])], 1)
            res = self._fold(freq_ds, plan)[0]
            if isinstance(res, FailedState):
                raise res.to_exception()
            return res if res is not None else FrequenciesAndNumRows(0, 0, 0, 0.0)

        joint_f = fold(joint)
        marginals = [
            fold(bucketed_group_fold(joint, [c], ["__pcount"], ["sum"]))
            for c in cols
        ]
        return joint_f, marginals[0], marginals[1]

    def frequencies(self, columns: Sequence[str], predicate) -> FrequenciesAndNumRows:
        return self.scan_and_frequencies(None, columns, predicate)[0]

    def scan_and_frequencies(self, plan: Optional[ScanPlan],
                             columns: Sequence[str], predicate):
        """``(frequencies, scan states)`` from ONE bucketed fold: with a
        ``plan``, each block's projection also appends its scan-state row
        and each bucket merges the state rows that hashed to it, so the
        driver folds at most B states (``plan=None``: states are None)."""
        from .functions.shuffle import bucketed_group_fold
        from .util import collect_arrow

        cols = list(columns)
        # PER-BLOCK adaptive combiner (hot-key-proof shuffle): each block
        # probes a STRIDED sample of its own keys and pre-aggregates to
        # (keys, __pcount) partials when that shrinks the block.  A skewed
        # key therefore contributes ≤1 shuffle row per block it repeats in,
        # so no reducer ever sees more than #blocks rows for one key — a
        # mega-key cannot straggle the wave (the earlier head-of-dataset
        # probe misclassified clustered inputs globally; a per-block strided
        # probe cannot, and near-unique blocks still skip the wasted local
        # group_by and ship raw rows with __pcount=1).
        # The exchange is the BUCKETED hash fold (shuffle.bucketed_group_fold):
        # Ray's sort-based groupby pays ~5 µs/row on corpus-cardinality keys
        # (per-group reduce overhead); bucketing by hash64(keys) % B keeps the
        # exchange key a small int32 and each bucket folds + reduces to ONE
        # scalar-summary row with vectorized Arrow kernels, so only ≤B tiny
        # rows ever reach the driver (measured 10.6× at 3.2M rows/600k keys).
        partials = self.ds.map_batches(
            _ProjectKeys(cols, predicate, plan), batch_format="pyarrow")

        def combine(t: pa.Table) -> pa.Table:
            # one summary row per bucket (zeros on the fold's no-schema
            # path); state rows split off BEFORE the group_by
            f = state = None
            if "__pcount" in t.column_names:
                if plan is not None:
                    is_state = pc.is_valid(t.column("__state"))
                    state = pickle.dumps(plan.fold_pickled(
                        t.filter(is_state).column("__state").to_pylist()))
                    t = t.filter(pc.invert(is_state))
                f = _reduce_frequency_block(group_by(t, cols, [("__pcount", "sum")]),
                                            "__pcount_sum")
            f = f or FrequenciesAndNumRows(0, 0, 0, 0.0)
            return pa.table({"__n": [f.num_rows], "__g": [f.num_groups],
                             "__u": [f.num_singleton_groups],
                             "__e": [f.entropy_sum],
                             "__state": pa.array([state], pa.large_binary())})

        # the exchange output is materialized: collect_arrow reads it with
        # no Ray Data execution (take_all would run one)
        rows = collect_arrow(bucketed_group_fold(
            partials, cols, ["__pcount"] + (["__state"] if plan else []),
            combine=combine))

        def total(c):
            return pc.sum(rows.column(c)).as_py() or 0

        freq = FrequenciesAndNumRows(int(total("__n")), int(total("__g")),
                                     int(total("__u")), float(total("__e")))
        return freq, (plan.fold_pickled(rows.column("__state").to_pylist())
                      if plan else None)


class _BlockStates:
    """block → one row {'state': pickled partial state-vector}."""

    def __init__(self, plan: ScanPlan):
        self.plan = plan

    def __call__(self, table: pa.Table) -> pa.Table:
        acc = self.plan.accumulate(self.plan.init(), table)
        return pa.table({"state": pa.array([pickle.dumps(acc)], type=pa.large_binary())})


class _MergePartials:
    """~64 partial rows → one merged row."""

    def __init__(self, plan: ScanPlan):
        self.plan = plan

    def __call__(self, table: pa.Table) -> pa.Table:
        acc = self.plan.fold_pickled(table.column("state").to_pylist())
        return pa.table({"state": pa.array([pickle.dumps(acc)], type=pa.large_binary())})


class _FreqReduceBound:
    """BoundScan over the post-shuffle frequency table."""

    def __init__(self, count_col: str):
        self.count_col = count_col

    def update(self, table: pa.Table):
        return _reduce_frequency_block(table, self.count_col)


class _ProjectKeys:
    """Apply the where-filter, project grouping keys, drop all-null-key
    rows, and ADAPTIVELY pre-aggregate to per-block (keys, __pcount)
    partial counts: a strided probe of the block's own keys decides whether
    a local group_by shrinks it (repeated keys → partials; near-unique →
    raw rows with __pcount=1, skipping the wasted local hash build).
    Per-block adaptivity is the skew guard: a hot key is collapsed wherever
    it repeats, so the global shuffle receives ≤ #blocks rows for it.
    With a scan ``plan`` it appends ONE row (``__pcount = 0``) holding the
    plan's pickled ``__state`` over the UNFILTERED block, keyed like the
    first partial (else all-null) so state rows spread over buckets."""

    _PROBE_ROWS = 2048
    _SHRINK_RATIO = 0.7

    def __init__(self, columns: List[str], predicate=None,
                 plan: Optional[ScanPlan] = None):
        self.columns = columns
        self.predicate = predicate
        self.plan = plan

    def __call__(self, table: pa.Table) -> pa.Table:
        view = table if self.predicate is None else self.predicate.filter(table)
        out = self._partials(
            _drop_all_null_keys(view.select(self.columns), self.columns))
        if self.plan is None:
            return out
        keys = out.select(self.columns).slice(0, 1)
        if len(keys) == 0:
            keys = pa.table([pa.nulls(1, f.type) for f in keys.schema],
                            schema=keys.schema)
        state = pickle.dumps(self.plan.accumulate(self.plan.init(), table))
        row = keys.append_column("__pcount", pa.array([0], pa.int64()))
        return pa.concat_tables([
            out.append_column("__state", pa.nulls(len(out), pa.large_binary())),
            row.append_column("__state", pa.array([state], pa.large_binary())),
        ])

    def _partials(self, keys: pa.Table) -> pa.Table:
        n = len(keys)
        if n == 0:
            return keys.append_column("__pcount", pa.array([], pa.int64()))
        if n > 256:
            idx = np.linspace(0, n - 1, min(self._PROBE_ROWS, n)).astype(np.int64)
            sample = keys.take(pa.array(idx))
            n_groups = len(group_by(sample, self.columns, []))
            if n_groups > self._SHRINK_RATIO * len(sample):
                return keys.append_column(
                    "__pcount", pa.array(np.ones(n, dtype=np.int64)))
        out = group_by(keys, self.columns, [([], "count_all")])
        return out.rename_columns(self.columns + ["__pcount"])


def _drop_all_null_keys(table: pa.Table, columns: Sequence[str]) -> pa.Table:
    """Reference: rows where EVERY grouping column is null are excluded
    (grouping_analyzers.py:48-75)."""
    mask = None
    for c in columns:
        col = table.column(c)
        not_null = (
            pc.invert(pc.is_null(col, nan_is_null=True))
            if pa.types.is_floating(col.type)
            else pc.is_valid(col)
        )
        mask = not_null if mask is None else pc.or_(mask, not_null)
    return table.filter(mask)


def _reduce_frequency_block(freq_table: pa.Table, count_col: str) -> Optional[FrequenciesAndNumRows]:
    if len(freq_table) == 0:
        return None
    cnt = freq_table.column(count_col).to_numpy(zero_copy_only=False).astype(np.int64)
    return FrequenciesAndNumRows(
        int(cnt.sum()),
        int(cnt.size),
        int((cnt == 1).sum()),
        float((cnt * np.log(cnt)).sum()),
    )


# ---------------------------------------------------------------------------
# do_analysis_run
# ---------------------------------------------------------------------------


def _make_runner(data, chunk_rows: Optional[int] = None):
    mod = type(data).__module__
    if mod.startswith("ray.data"):
        return RayRunner(data)
    if isinstance(data, pa.Table):
        return LocalRunner(data, chunk_rows)
    if isinstance(data, pd.DataFrame):
        return LocalRunner(pa.Table.from_pandas(data, preserve_index=False), chunk_rows)
    raise TypeError(f"unsupported data type for analysis: {type(data)}")


def do_analysis_run(
    data,
    analyzers: Sequence[Analyzer],
    chunk_rows: Optional[int] = None,
) -> AnalyzerContext:
    """Compute all requested metrics in as few passes as possible.

    ``data``: ray.data.Dataset | pandas.DataFrame | pyarrow.Table.
    ``chunk_rows``: local-backend block size (tests use it to exercise the
    merge laws)."""
    if not analyzers:
        return AnalyzerContext()
    unique: List[Analyzer] = list(dict.fromkeys(analyzers))
    runner = _make_runner(data, chunk_rows)
    try:
        schema = runner.schema()
    except Exception as ex:  # noqa: BLE001
        return AnalyzerContext({a: a.to_failure_metric(ex) for a in unique})
    if schema is None:  # zero-block dataset: reference empty-input semantics
        return _empty_context(unique)

    metrics: Dict[Analyzer, DoubleMetric] = {}
    passed: List[Analyzer] = []
    for a in unique:
        err = a.check_preconditions(schema)
        if err is not None:
            metrics[a] = a.to_failure_metric(err)
        else:
            passed.append(a)

    scan_analyzers = [a for a in passed if isinstance(a, ScanShareableAnalyzer)]
    grouping_analyzers = [a for a in passed if isinstance(a, GroupingAnalyzer)]
    quantile_analyzers = [a for a in passed if isinstance(a, Quantile)]

    # schema-level analyzers resolve on the driver, zero data passes
    from .analyzers.schema_checks import SchemaAnalyzer

    for a in passed:
        if isinstance(a, SchemaAnalyzer):
            metrics[a] = a.metric_from_schema(schema)

    # -- shared scan (scan analyzers + quantile profiles ride together) -----
    entries: List[Tuple[Optional[str], Any]] = []
    slot_of_scan: Dict[int, Analyzer] = {}
    for a in scan_analyzers:
        slot_of_scan[len(entries)] = a
        entries.append((a.where, (lambda _a=a: _a.bind(schema))))

    profile_slot: Dict[Tuple[str, Optional[str]], int] = {}
    for a in quantile_analyzers:
        key = (a.column, a.where)
        if key not in profile_slot:
            profile_slot[key] = len(entries)
            entries.append((a.where, (lambda _c=a.column: QuantileProfileBound(_c))))

    plan, bind_errors = _build_scan_plan(entries, schema)
    from .analyzers.grouping import MutualInformation

    freq_cache: Dict[Tuple[Tuple[str, ...], Optional[str]], Any] = {}
    states = plan.init()
    host = next((a for a in grouping_analyzers
                 if not isinstance(a, MutualInformation)), None)
    if plan.groups and host is not None and isinstance(runner, RayRunner):
        # the scan rides the first frequency fold: one read serves both
        key = host.frequency_key()
        try:
            freq_cache[key], states = runner.scan_and_frequencies(
                plan, key[0], _compile_where(host.where, schema))
        except Exception as ex:  # noqa: BLE001 - the frequency loop reports it
            freq_cache[key] = FailedState.from_exception(ex)
            states = runner.run_scan(plan)
    elif plan.groups:
        states = runner.run_scan(plan)

    for slot, a in slot_of_scan.items():
        if slot in bind_errors:
            metrics[a] = a.to_failure_metric(bind_errors[slot])
            continue
        s = states[slot]
        if isinstance(s, FailedState):
            metrics[a] = a.to_failure_metric(s.to_exception())
            continue
        try:
            metrics[a] = a.metric_from_state(s)
        except Exception as ex:  # noqa: BLE001
            metrics[a] = a.to_failure_metric(ex)

    # -- frequency-based analyzers ------------------------------------------
    for a in grouping_analyzers:
        if isinstance(a, MutualInformation):
            try:
                pred = _compile_where(a.where, schema)
                if isinstance(runner, RayRunner):
                    stats = runner.mutual_information_stats(a.grouping_columns, pred)
                    metrics[a] = a.metric_from_mi_stats(*stats)
                else:
                    pairs = runner.joint_frequencies(a.grouping_columns, pred)
                    metrics[a] = a.metric_from_joint_frequencies(pairs)
            except Exception as ex:  # noqa: BLE001
                metrics[a] = a.to_failure_metric(ex)
            continue
        key = a.frequency_key()
        try:
            if key not in freq_cache:
                freq_cache[key] = runner.frequencies(
                    key[0], _compile_where(a.where, schema))
            freq = freq_cache[key]
            if isinstance(freq, FailedState):
                metrics[a] = a.to_failure_metric(freq.to_exception())
            else:
                metrics[a] = a.metric_from_frequencies(freq)
        except Exception as ex:  # noqa: BLE001
            metrics[a] = a.to_failure_metric(ex)
            freq_cache.setdefault(key, FailedState.from_exception(ex))

    # -- exact quantiles ----------------------------------------------------
    for a in quantile_analyzers:
        try:
            a.validate_q()
        except ValueError as ex:
            metrics[a] = a.to_failure_metric(ex)
            continue
        slot = profile_slot[(a.column, a.where)]
        if slot in bind_errors:
            metrics[a] = a.to_failure_metric(bind_errors[slot])
            continue
        profile = states[slot]
        if isinstance(profile, FailedState):
            metrics[a] = a.to_failure_metric(profile.to_exception())
            continue
        try:
            value = select_nearest(
                profile, a.quantile, _make_selection_scanner(runner, a, schema)
            )
            metrics[a] = a.metric_from_result(value)
        except Exception as ex:  # noqa: BLE001
            metrics[a] = a.to_failure_metric(ex)

    return AnalyzerContext(metrics)


def _empty_context(analyzers: Sequence[Analyzer]) -> AnalyzerContext:
    """Metrics for a dataset with no blocks at all: same outcomes the
    reference produces on an empty frame (Size 0, Mean/Min/Max NaN, Sum 0,
    Std Failure, ratios NaN)."""
    from .analyzers.grouping import MutualInformation

    metrics: Dict[Analyzer, DoubleMetric] = {}
    for a in analyzers:
        try:
            if isinstance(a, ScanShareableAnalyzer):
                metrics[a] = a.metric_from_state(None)
            elif isinstance(a, MutualInformation):
                # same NaN a zero-ROW dataset yields (metric_from_frequencies
                # would raise NotImplementedError for MI)
                metrics[a] = a.metric_from_joint_frequencies([])
            elif isinstance(a, GroupingAnalyzer):
                metrics[a] = a.metric_from_frequencies(FrequenciesAndNumRows(0, 0, 0, 0.0))
            elif isinstance(a, Quantile):
                a.validate_q()
                metrics[a] = a.metric_from_result(float("nan"))
            else:
                metrics[a] = a.to_failure_metric(ValueError("empty dataset"))
        except Exception as ex:  # noqa: BLE001
            metrics[a] = a.to_failure_metric(ex)
    return AnalyzerContext(metrics)


def _compile_where(where: Optional[str], schema: pa.Schema):
    return compile_predicate(where, schema) if where is not None else None


def _make_selection_scanner(runner, analyzer: Quantile, schema: pa.Schema):
    """Adapter: run one single-slot pass (histogram or collect) over the
    where-filtered data on either backend."""
    pred = _compile_where(analyzer.where, schema)

    def scanner(spec):
        if spec[0] == "hist":
            bound = RangeHistogramBound(analyzer.column, spec[1], spec[2], spec[3])
        else:
            bound = RangeCollectBound(analyzer.column, spec[1], spec[2])
        plan = ScanPlan([_WhereGroup(pred, [(0, bound)])], 1)
        return runner.run_scan(plan)[0]

    return scanner
