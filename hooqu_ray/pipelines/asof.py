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

Shape — the merge-join discipline used by ``sessions.py``: tag both sides,
ONE range exchange on ``(key, ts, side, tie)`` over a slim projection
(``shuffle.range_exchange``; state rows sort BEFORE probes at equal ts,
so "at-or-before" is an index-before relation), then a fully vectorized
per-block last-state-carried-forward pass.  After a range exchange only
each block's
FIRST key can have state rows in an earlier block, so the only probes that
cannot be finished locally are unmatched probes of the first key.

Boundary repair is SKEW-PROOF and shuffle-free: each block contributes at
most ONE context row (the last state row of its LAST key — the only state
a block can hand to a later block, because a key that ends mid-block never
reappears after a range exchange).  Those O(#blocks) rows are collected,
sorted by (key, ts, tie) and broadcast once via ``ray.put``; a second
block pass finishes each block's pending probes with one vectorized
``searchsorted`` against the context rows of the block's first key.  A
pending probe's valid matches are EXACTLY the earlier-block context rows
of its key with ``ts <= probe ts``: any in-block state of that key with
``ts <= probe ts`` would have matched locally (states sort before probes
at equal ts), and a later block's state of the same key must have a
strictly larger sort position, hence ``ts > probe ts``.  An earlier
design repaired boundaries with a ``groupby(key)`` merge; one hot key
whose states are sparse then funnels nearly ALL of its probes into a
single group task — the broadcast stays O(#blocks) no matter how skewed
the keys are.  The exchange's output is materialized ONCE and the cheap
block pass runs over it twice; the one all-to-all is the range exchange
over ``key + ts + payload`` columns, never full rows.

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


def _block_match(t: pa.Table, key: str):
    """Shared per-block analysis of a (key, ts, side, tie)-sorted block:
    per-row index of the prevailing state row (−1 = none in block), plus
    the probe/pending masks."""
    n = len(t)
    side = t.column("__side").to_numpy(zero_copy_only=False)
    keys = t.column(key).to_numpy(zero_copy_only=False)
    arange = np.arange(n, dtype=np.int64)
    match = np.maximum.accumulate(np.where(side == 0, arange, -1))
    rows = np.flatnonzero(match >= 0)
    ok = keys[match[rows]] == keys[rows]
    match[rows[~ok]] = -1
    probe = side == 1
    pending = probe & (match == -1) & (keys == keys[0])
    return side, keys, match, probe, pending


def _block_finals(t: pa.Table, key: str, right_cols) -> pa.Table:
    """Emit the block's finished probes with their right payload resolved."""
    if len(t) == 0:
        return t
    _, _, match, probe, pending = _block_match(t, key)
    final = probe & ~pending
    sub = t.filter(pa.array(final))
    m = match[final]
    for rc in right_cols:
        i = sub.schema.get_field_index(rc)
        sub = sub.set_column(
            i, rc, _take_with_null(t.column(rc).combine_chunks(), m)
        )
    return sub


def _block_ctx(t: pa.Table, key: str) -> pa.Table:
    """Emit the block's single context row: the last state row of its LAST
    key (the only state this block can contribute to a later block)."""
    if len(t) == 0:
        return t
    side = t.column("__side").to_numpy(zero_copy_only=False)
    keys = t.column(key).to_numpy(zero_copy_only=False)
    ctx = np.flatnonzero((side == 0) & (keys == keys[-1]))
    mask = np.zeros(len(t), dtype=bool)
    if ctx.size:
        mask[ctx[-1]] = True
    return t.filter(pa.array(mask))


def _finish_pending(t: pa.Table, key: str, right_cols, ctx_tbl) -> pa.Table:
    """Resolve the block's pending first-key probes against the broadcast
    context rows (sorted by key, ts, tie): one ``searchsorted`` over the
    context timestamps of the block's first key — all pending probes share
    that key by construction."""
    if len(t) == 0:
        return t
    _, keys, _, _, pending = _block_match(t, key)
    sub = t.filter(pa.array(pending))
    if len(sub) == 0:
        return sub
    m = np.full(len(sub), -1, dtype=np.int64)
    if ctx_tbl is not None and len(ctx_tbl):
        ckeys = ctx_tbl.column(key).to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(ckeys == keys[0])
        if sel.size:
            cts = ctx_tbl.column("__ts").to_numpy(zero_copy_only=False)[sel]
            probe_ts = sub.column("__ts").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(cts, probe_ts, side="right") - 1
            m = np.where(pos >= 0, sel[np.maximum(pos, 0)], -1)
    for rc in right_cols:
        i = sub.schema.get_field_index(rc)
        col = (ctx_tbl.column(rc).combine_chunks() if ctx_tbl is not None
               and len(ctx_tbl) else pa.nulls(1, sub.schema.field(rc).type))
        sub = sub.set_column(i, rc, _take_with_null(col, m))
    return sub


def asof_join(left, right, left_on: str, right_on: str, left_ts: str,
              right_ts: str, left_cols, right_cols):
    """As-of join ``left`` probes to the latest preceding ``right`` state
    row per key (``right_ts <= left_ts``; ties → largest
    ``right_cols[0]``).  Returns a Dataset with columns
    ``[left_on, left_ts, *left_cols, *right_cols]`` — one row per surviving
    left row, right columns null when no state precedes the probe.  One
    range exchange of both tagged sides, then the block passes and the
    broadcast boundary context (module docstring)."""
    import ray

    from ..functions.shuffle import range_exchange
    from ..util import collect_arrow, dataset_arrow_schema

    left_cols = list(left_cols)
    right_cols = list(right_cols)
    if not right_cols:
        raise ValueError("asof_join: right_cols must name ≥ 1 payload column")
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"asof_join: column name collision: {sorted(overlap)}")

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

    lproj = left.map_batches(project_left, batch_format="pyarrow")
    rproj = right.map_batches(project_right, batch_format="pyarrow")

    sort_cols = [key, "__ts", "__side"]
    if rschema is not None:  # a null-typed tie column is unsortable (and moot)
        sort_cols.append(tie)
    sorted_ds = range_exchange(lproj.union(rproj),
                               [(c, "ascending") for c in sort_cols])

    out_cols = [key, "__ts", *left_cols, *right_cols]

    def rename(t: pa.Table) -> pa.Table:
        t = t.select(out_cols)
        return t.rename_columns([key, left_ts, *left_cols, *right_cols])

    finals = sorted_ds.map_batches(
        lambda t, _k=key, _r=tuple(right_cols): rename(_block_finals(t, _k, _r)),
        batch_format="pyarrow", batch_size=None,
    )
    # O(#blocks) context rows: collect, order, broadcast once
    ctx_tbl = collect_arrow(
        sorted_ds.map_batches(
            lambda t, _k=key: _block_ctx(t, _k),
            batch_format="pyarrow", batch_size=None,
        )
    )
    if ctx_tbl is not None:
        ctx_tbl = ctx_tbl.sort_by(
            [(key, "ascending"), ("__ts", "ascending"), (tie, "ascending")]
        )
    ctx_ref = ray.put(ctx_tbl)
    repaired = sorted_ds.map_batches(
        lambda t, _k=key, _r=tuple(right_cols), _ref=ctx_ref: rename(
            _finish_pending(t, _k, _r, ray.get(_ref))
        ),
        batch_format="pyarrow", batch_size=None,
    )
    return finals.union(repaired)
