"""As-of (nearest-preceding-event) join, expressed Ray-Data-first.

The reference has no join surface at all (SURVEY §2.3 "Joins / lookups:
none"); an as-of join is the standard way to attach slowly-changing state
(latest order, last config change, most recent price) to an event stream.
Semantics match SQL's ``LEFT JOIN LATERAL (... WHERE r.key = l.key AND
r.ts <= l.ts ORDER BY r.ts DESC, r.tie DESC LIMIT 1)``: for every left
(probe) row, the single right (state) row of the same key with the largest
``right_ts <= left_ts``, ties on ``right_ts`` broken by the largest value
of the first right payload column; probes with no preceding state row keep
nulls (LEFT semantics).

Shape — the merge-join discipline: tag both sides, ONE range exchange on
``(key, ts, side, tie)`` over a slim projection of each
(``shuffle.range_exchange`` over both inputs, each block through its
side's projection; state rows sort BEFORE probes at equal ts, so
"at-or-before" is an index-before relation), then one vectorized
last-state-carried-forward pass in each range's fold.  The only state a
range needs from the ranges before it is their LAST state row: a probe's
match is the last state row of its key at or before it, and every row of
an earlier range sorts before the probe, so if that range's last state
row has another key, the probe's key has no earlier state at all.  The
exchange's ``tail`` is therefore that one row, and each range's halo is
the last state row of all earlier ranges, however many ranges a hot key
spans or however sparse its states are.  No probe is left pending, and
nothing is broadcast or repaired; a per-key merge would instead funnel a
hot key with sparse states into one task with nearly all its probes.

Nulls: rows with a null key or null timestamp are dropped from BOTH sides
(a null key matches nothing under SQL equality, and an unordered row has
no place on the time axis) — callers wanting SQL's keep-left-nulls
behavior can union them back with null payloads.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _take_with_null(col, idx: np.ndarray):
    """Gather ``col`` at ``idx``; a negative index yields null."""
    safe = pa.array(np.where(idx >= 0, idx, 0), type=pa.int64(), mask=idx < 0)
    return col.take(safe)


def _match_probes(t: pa.Table, key: str, right_cols) -> pa.Table:
    """The probe rows of a (key, ts, side, tie)-sorted table, each with the
    right payload of the last state row of its key before it (null when
    there is none): one ``maximum.accumulate`` over the state positions."""
    side = t.column("__side").to_numpy(zero_copy_only=False)
    keys = t.column(key).to_numpy(zero_copy_only=False)
    arange = np.arange(len(t), dtype=np.int64)
    match = np.maximum.accumulate(np.where(side == 0, arange, -1))
    rows = np.flatnonzero(match >= 0)
    match[rows[keys[match[rows]] != keys[rows]]] = -1
    probe = side == 1
    sub = t.filter(pa.array(probe))
    for rc in right_cols:
        sub = sub.set_column(sub.schema.get_field_index(rc), rc,
                             _take_with_null(t.column(rc).combine_chunks(),
                                             match[probe]))
    return sub


def _last_state(t: pa.Table) -> pa.Table:
    """``tail`` of the as-of exchange: the last state row of a sorted
    table (at most 1 row), the only one a later probe can match."""
    states = np.flatnonzero(
        t.column("__side").to_numpy(zero_copy_only=False) == 0)
    return t.take(states[-1:])


def asof_join(left, right, left_on: str, right_on: str, left_ts: str,
              right_ts: str, left_cols, right_cols):
    """As-of join ``left`` probes to the latest preceding ``right`` state
    row per key (``right_ts <= left_ts``; ties → largest
    ``right_cols[0]``).  Returns a Dataset with columns
    ``[left_on, left_ts, *left_cols, *right_cols]`` — one row per surviving
    left row, right columns null when no state precedes the probe.  One
    range exchange of both tagged sides, whose folds resolve every probe
    (module docstring); on materialized inputs it runs no Ray Data
    execution."""
    from ..functions.shuffle import range_exchange
    from ..util import dataset_arrow_schema

    left_cols = list(left_cols)
    right_cols = list(right_cols)
    if not right_cols:
        raise ValueError("asof_join: right_cols must name ≥ 1 payload column")
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"asof_join: column name collision: {sorted(overlap)}")

    left, right = left.materialize(), right.materialize()
    lschema = dataset_arrow_schema(left)
    rschema = dataset_arrow_schema(right)
    # a schema-less side is an EMPTY side (zero blocks): it contributes no
    # rows, so its column types degrade to null and, for the right side,
    # there are no states to tie-break on
    ltypes = {c: (lschema.field(c).type if lschema is not None else pa.null())
              for c in left_cols}
    rtypes = {c: (rschema.field(c).type if rschema is not None else pa.null())
              for c in right_cols}
    key, tie = left_on, right_cols[0]

    def project_left(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t.column(left_on)), pc.is_valid(t.column(left_ts)))
        t = t.filter(mask)
        cols = {key: t.column(left_on), "__ts": t.column(left_ts),
                "__side": pa.array(np.ones(len(t), dtype=np.int8))}
        for c in left_cols:
            cols[c] = t.column(c)
        for c in right_cols:
            cols[c] = pa.nulls(len(t), rtypes[c])
        return pa.table(cols)

    def project_right(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t.column(right_on)), pc.is_valid(t.column(right_ts)))
        t = t.filter(mask)
        cols = {key: t.column(right_on), "__ts": t.column(right_ts),
                "__side": pa.array(np.zeros(len(t), dtype=np.int8))}
        for c in left_cols:
            cols[c] = pa.nulls(len(t), ltypes[c])
        for c in right_cols:
            cols[c] = t.column(c)
        return pa.table(cols)

    sort_cols = [key, "__ts", "__side"]
    if rschema is not None:  # a null-typed tie column is unsortable (and moot)
        sort_cols.append(tie)
    out_cols = [key, "__ts", *left_cols, *right_cols]

    def fold(t: pa.Table, before: int, halo: pa.Table) -> pa.Table:
        t = pa.concat_tables([halo, t], promote_options="permissive")
        out = _match_probes(t, key, right_cols).select(out_cols)
        return out.rename_columns([key, left_ts, *left_cols, *right_cols])

    return range_exchange(
        [left, right], [(c, "ascending") for c in sort_cols], fold,
        pre=[project_left, project_right], tail=_last_state)
