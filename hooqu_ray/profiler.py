"""Single-scan column profiler: the 'what is in this table?' entry point.

The reference plans but never ships column profiles (its README sketches
metrics-repository-driven profiling; cf. /root/reference/README.rst:154-157
and the MetricsRepository placeholder at
hooqu/analyzers/runners/analysis_runner.py:67); Deequ-style engines expose
it as ``ColumnProfilerRunner``.  Here a profile is just a bundle of
already-mergeable analyzer states evaluated in ONE shared distributed scan
(``runner.do_analysis_run`` computes every per-column analyzer over the
same block pass, so profiling N columns costs one read of those columns —
not N scans), then folded into one row per column:

- every column: ``completeness`` (non-null fraction) and
  ``approx_distinct`` (HLL sketch — exact distinct would be a full
  shuffle PER COLUMN, the one thing a 100-TB profile cannot afford);
- numeric columns: ``min / max / mean / std``;
- string columns: ``min_len / max_len``.

Metrics that fail on a column (e.g. all-null) fold to null, never raise —
a profile must describe dirty data, not crash on it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import pyarrow as pa

from .analyzers.scan import (
    Completeness,
    MaxLength,
    Maximum,
    Mean,
    MinLength,
    Minimum,
    StandardDeviation,
)
from .analyzers.sketches import ApproxCountDistinct
from .runner import do_analysis_run
from .util import dataset_arrow_schema


_NUMERIC_KINDS = ("int", "uint", "float", "decimal", "double", "halffloat")


def _is_numeric(typ: pa.DataType) -> bool:
    return (pa.types.is_integer(typ) or pa.types.is_floating(typ)
            or pa.types.is_decimal(typ))


def _is_string(typ: pa.DataType) -> bool:
    return pa.types.is_string(typ) or pa.types.is_large_string(typ)


def _metric_value(ctx, analyzer) -> Optional[float]:
    """Metric value or None (Failure metrics and non-finite sentinels fold
    to null in the profile)."""
    metric = ctx.metric_map.get(analyzer)
    if metric is None:
        return None
    try:
        v = float(metric.value.get())
    except Exception:  # noqa: BLE001 — Failure metric
        return None
    return v if math.isfinite(v) else None


def profile(ds, columns: Optional[Sequence[str]] = None) -> pa.Table:
    """Profile ``columns`` (default: every numeric/string column) of ``ds``
    in one shared scan.  Returns an Arrow table with one row per column:
    ``column, dtype, completeness, approx_distinct, min, max, mean, std,
    min_len, max_len`` (inapplicable cells null), sorted by column name."""
    schema = dataset_arrow_schema(ds)
    if schema is None:
        raise ValueError("profile: dataset has no schema (empty input?)")
    if columns is None:
        columns = [f.name for f in schema
                   if _is_numeric(f.type) or _is_string(f.type)]
    columns = sorted(columns)
    missing = [c for c in columns if schema.get_field_index(c) < 0]
    if missing:
        raise KeyError(f"profile: columns not in dataset: {missing}")

    plan: dict[str, dict[str, object]] = {}
    analyzers: list = []
    for c in columns:
        typ = schema.field(c).type
        entry: dict[str, object] = {
            "completeness": Completeness(c),
            "approx_distinct": ApproxCountDistinct(c),
        }
        if _is_numeric(typ):
            entry.update(min=Minimum(c), max=Maximum(c), mean=Mean(c),
                         std=StandardDeviation(c))
        elif _is_string(typ):
            entry.update(min_len=MinLength(c), max_len=MaxLength(c))
        plan[c] = entry
        analyzers.extend(entry.values())

    ctx = do_analysis_run(ds, analyzers)

    def col(metric_key: str):
        return [_metric_value(ctx, plan[c][metric_key])
                if metric_key in plan[c] else None for c in columns]

    distinct = col("approx_distinct")
    return pa.table(
        {
            "column": pa.array(columns, pa.string()),
            "dtype": pa.array([str(schema.field(c).type) for c in columns],
                              pa.string()),
            "completeness": pa.array(col("completeness"), pa.float64()),
            "approx_distinct": pa.array(
                [int(v) if v is not None else None for v in distinct],
                pa.int64()),
            "min": pa.array(col("min"), pa.float64()),
            "max": pa.array(col("max"), pa.float64()),
            "mean": pa.array(col("mean"), pa.float64()),
            "std": pa.array(col("std"), pa.float64()),
            "min_len": pa.array(
                [int(v) if v is not None else None for v in col("min_len")],
                pa.int64()),
            "max_len": pa.array(
                [int(v) if v is not None else None for v in col("max_len")],
                pa.int64()),
        }
    )


def grouped_profile(ds, group_col: str, columns: Sequence[str]):
    """Per-GROUP data-quality report card — for every ``(group, column)``
    pair: row count, null count and EXACT distinct-value count — the
    per-source drill-down of :func:`profile` ("which crawl shard went
    bad") that a global profile averages away.

    Scale shape: ONE scan computes every column's row/null counts
    (:func:`~hooqu_ray.functions.shuffle.tree_group_sum`: per-block
    partials, then one hash exchange of those — never a row shuffle), and
    each column's exact distinct count reuses :func:`hooqu_ray.pipelines.relational.
    grouped_count_distinct` (block-distinct pairs + the bucketed hash
    exchange), so profiling C columns costs 1 + C streaming passes over
    the input lineage — pass a read-backed Dataset (or pre-materialize a
    small one); for hot-column triage at extreme value cardinality use
    ``grouped_approx_count_distinct`` instead.  The per-group stats are
    one row per group and assemble on the driver (the same heap bound as
    every grouped stats table here).  A missing group/profiled column
    raises ``KeyError`` (the :func:`profile` convention); null group
    keys drop; ``count(DISTINCT col)`` excludes nulls (SQL parity).
    Returns ``[group_col, col_name, n_rows, n_null, n_distinct]``."""
    import numpy as np
    import pyarrow.compute as pc
    import ray.data as rd

    from .functions.shuffle import tree_group_sum
    from .pipelines.relational import grouped_count_distinct
    from .util import collect_arrow, dataset_arrow_schema

    columns = list(columns)
    if not columns:
        raise ValueError("columns must be non-empty")
    in_schema = dataset_arrow_schema(ds)
    if in_schema is not None:
        missing = [c for c in [group_col, *columns]
                   if c not in in_schema.names]
        if missing:
            raise KeyError(f"columns not in dataset: {missing}")
    gtype = (in_schema.field(group_col).type if in_schema is not None
             and group_col in in_schema.names else pa.string())
    out_schema = pa.schema([
        (group_col, gtype), ("col_name", pa.string()),
        ("n_rows", pa.int64()), ("n_null", pa.int64()),
        ("n_distinct", pa.int64())])
    null_cols = [f"__null_{c}" for c in columns]

    def counts(t: pa.Table) -> pa.Table:
        if len(t) == 0 or not {group_col, *columns}.issubset(t.column_names):
            return pa.table({})
        t = t.filter(pc.is_valid(t.column(group_col)))
        cols = {group_col: t.column(group_col),
                "n_rows": pa.array(np.ones(len(t), np.int64))}
        for col, nc in zip(columns, null_cols):
            cols[nc] = pc.cast(pc.invert(pc.is_valid(t.column(col))),
                               pa.int64())
        return pa.table(cols)

    cnt_tbl = collect_arrow(tree_group_sum(
        ds.map_batches(counts, batch_format="pyarrow"),
        [group_col], ["n_rows", *null_cols]))
    if cnt_tbl is None or len(cnt_tbl) == 0:
        return rd.from_arrow(out_schema.empty_table())

    groups = cnt_tbl.column(group_col).to_pylist()
    n_rows = cnt_tbl.column("n_rows").to_pylist()
    parts = []
    for col, nc in zip(columns, null_cols):
        dist = collect_arrow(grouped_count_distinct(ds, group_col, col))
        nd_map = ({} if dist is None or len(dist) == 0 else dict(zip(
            dist.column(group_col).to_pylist(),
            dist.column("n_distinct").to_pylist())))
        parts.append(pa.table({
            group_col: pa.array(groups, gtype),
            "col_name": pa.array([col] * len(groups), pa.string()),
            "n_rows": pa.array(n_rows, pa.int64()),
            "n_null": pc.cast(cnt_tbl.column(nc), pa.int64()),
            # a group absent from the distinct fold had only null values
            "n_distinct": pa.array(
                [int(nd_map.get(g, 0)) for g in groups], pa.int64()),
        }))
    return rd.from_arrow(pa.concat_tables(parts))
