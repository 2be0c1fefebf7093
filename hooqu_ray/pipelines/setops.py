"""Distributed SQL set operations — ``UNION [DISTINCT]``, ``INTERSECT``,
``EXCEPT`` — over two Datasets with identical schemas.

The reference has no multi-table surface at all (it is a single-DataFrame
pandas library); set ops are table stakes for corpus management — "which
users appear in both slices", "new docs not in the previous snapshot".
(:func:`hooqu_ray.pipelines.dedup.snapshot_diff` answers the keyed
added/removed/changed question; these are the pure relational row-set
forms.)

Shape (one all-to-all, inherent to DISTINCT semantics):

1. Per-block combiner: each block is reduced to its DISTINCT rows with an
   Arrow ``group_by`` (vectorized, zero Python per row) and tagged with
   membership flags ``__in_a`` / ``__in_b`` — duplicate-heavy inputs
   shrink before anything shuffles.
2. One bucketed exchange (``shuffle.bucketed_group_fold``, max/max —
   full-row keys are corpus-cardinality) brings equal rows together and
   ORs the flags.
3. A vectorized filter keeps the groups the operator wants (union: all;
   intersect: both flags; except: a-only).

Scale notes: the shuffle carries the distinct projected rows ONCE — project
to the columns that define identity before calling (set ops over wide text
rows shuffle the text; that is what DISTINCT means).  SQL null semantics:
null row-values group together (DuckDB ``UNION``/``INTERSECT``/``EXCEPT``
treat NULLs as equal in DISTINCT comparisons), which the fold keeps
(``drop_null_keys=False``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.shuffle import group_by


def _common_cols(a, b, cols: Optional[Sequence[str]]):
    from ..util import dataset_arrow_schema

    sa, sb = dataset_arrow_schema(a), dataset_arrow_schema(b)
    if sa is None or sb is None:
        raise ValueError("set op: a side has no schema (empty dataset)")
    if cols is None:
        cols = list(sa.names)
    missing = [c for c in cols if c not in sa.names or c not in sb.names]
    if missing:
        raise KeyError(f"set op: columns {missing} not present on both sides")
    return list(cols)


def _tag_side(cols: list, in_a: bool):
    """Per-block combiner: distinct rows of the projection + membership
    flags.  The Arrow ``group_by([]).aggregate([])`` distinct runs inside
    the read-fused map stage, so duplicate-heavy blocks shrink before the
    shuffle."""

    def fn(t: pa.Table) -> pa.Table:
        d = t.select(cols)
        if len(d):
            d = group_by(d, cols, [])
        n = len(d)
        one = pa.repeat(pa.scalar(1, pa.int64()), n)
        zero = pa.repeat(pa.scalar(0, pa.int64()), n)
        return d.append_column("__in_a", one if in_a else zero).append_column(
            "__in_b", zero if in_a else one
        )

    return fn


def _setop(a, b, cols: Optional[Sequence[str]], keep: str):
    from ..functions.shuffle import bucketed_group_fold

    cols = _common_cols(a, b, cols)
    tagged = a.map_batches(
        _tag_side(cols, True), batch_format="pyarrow"
    ).union(b.map_batches(_tag_side(cols, False), batch_format="pyarrow"))
    agg = bucketed_group_fold(tagged, cols, ["__in_a", "__in_b"],
                              ["max", "max"], drop_null_keys=False)

    def out(t: pa.Table) -> pa.Table:
        in_a = pc.equal(t.column("__in_a"), 1)
        in_b = pc.equal(t.column("__in_b"), 1)
        if keep == "union":
            mask = pc.or_(in_a, in_b)
        elif keep == "intersect":
            mask = pc.and_(in_a, in_b)
        else:  # except: a-only
            mask = pc.and_(in_a, pc.invert(in_b))
        return t.filter(mask).select(cols)

    return agg.map_batches(out, batch_format="pyarrow")


def union_distinct(a, b, cols: Optional[Sequence[str]] = None):
    """SQL ``a UNION b`` (DISTINCT): every distinct row appearing in either
    side, over ``cols`` (default: the full shared schema)."""
    return _setop(a, b, cols, "union")


def intersect_distinct(a, b, cols: Optional[Sequence[str]] = None):
    """SQL ``a INTERSECT b``: distinct rows appearing in BOTH sides."""
    return _setop(a, b, cols, "intersect")


def except_distinct(a, b, cols: Optional[Sequence[str]] = None):
    """SQL ``a EXCEPT b``: distinct rows of ``a`` that never appear in
    ``b``."""
    return _setop(a, b, cols, "except")
