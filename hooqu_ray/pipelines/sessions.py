"""Sessionization: the classic event-stream window operator, expressed as a
batch Ray Data pipeline.

The reference has no streaming/window surface at all (SURVEY §2.3
"Streaming: nothing"); this is a forward extension for event-log inputs.
Semantics: events of one key ordered by timestamp; a NEW session starts when
the gap from the previous event exceeds ``gap_seconds`` (strictly greater,
microsecond precision).  Session ids are 0-based per key in time order — the
same definition DuckDB expresses with ``lag`` + a running ``sum`` window,
which is the oracle for the driver's correctness gate.

Shape: the shared sorted scan (``functions.sorted_scan``) — ONE range
exchange on ``(key, ts)`` + a vectorized per-block pass (numpy
run/break detection + ``reduceat``-style segment aggregates — zero Python
per key) + a boundary merge.  After a range exchange a key interior
to a block cannot appear in any other block, so only each block's FIRST and
LAST key can straddle a block boundary; their per-block session partials
(O(#sessions), not O(#events) — a hot key stays cheap) go through the
scan's per-key repair merge — at most 2 keys per block.  Rows with
a null key or timestamp are dropped.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.sorted_scan import sorted_scan


def _session_rows(batch: pa.Table, key: str, ts_col: str,
                  gap_us: int) -> pa.Table:
    """Vectorized sessionization over a (key, ts)-sorted table: one row
    per session with its 0-based index within the key.  Final for keys
    complete in ``batch``; per-block partials (re-indexed by
    :func:`_merge_sessions`) for a boundary key's rows."""
    n = len(batch)
    if n == 0:
        return pa.table(
            {
                key: pa.array([], batch.column(key).type if batch.num_columns else pa.int64()),
                "session_idx": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "t_start": pa.array([], pa.timestamp("us")),
                "t_end": pa.array([], pa.timestamp("us")),
            }
        )
    keys_np = batch.column(key).to_numpy(zero_copy_only=False)
    ts_np = (
        batch.column(ts_col)
        .to_numpy(zero_copy_only=False)
        .astype("datetime64[us]")
    )
    us = ts_np.astype(np.int64)
    new_key = np.r_[True, keys_np[1:] != keys_np[:-1]]
    brk = new_key | np.r_[True, np.diff(us) > gap_us]
    starts = np.flatnonzero(brk)
    ends = np.r_[starts[1:], n]
    skey = keys_np[starts]
    # 0-based session index within each key's run (sessions arrive in key
    # order because the block is key-sorted)
    key_first = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
    run_lens = np.diff(np.r_[key_first, len(starts)])
    sess_idx = np.arange(len(starts), dtype=np.int64) - np.repeat(key_first, run_lens)
    return pa.table(
        {
            key: pa.array(skey),
            "session_idx": pa.array(sess_idx, pa.int64()),
            "n_events": pa.array((ends - starts).astype(np.int64), pa.int64()),
            "t_start": pa.array(ts_np[starts]),
            "t_end": pa.array(ts_np[ends - 1]),
        }
    )


def _merge_sessions(g: pa.Table, key: str, gap_us: int) -> pa.Table:
    """Repair merge of one boundary key's per-block session partials:
    sort by t_start, fuse adjacent partials whose junction gap is within the
    threshold (within-block sessions already have gap > threshold, so fusing
    is exactly the cross-block repair), then assign final 0-based indices."""
    g = g.sort_by([("t_start", "ascending"), ("t_end", "ascending")])

    def us(col):
        return g.column(col).to_numpy().astype("datetime64[us]").astype(np.int64)

    sid = np.r_[0, np.cumsum(us("t_start")[1:] - us("t_end")[:-1] > gap_us)]
    first = np.r_[True, sid[1:] != sid[:-1]]
    return pa.table(
        {
            key: g.column(key).filter(first),
            "session_idx": pa.array(np.arange(sid[-1] + 1, dtype=np.int64)),
            "n_events": pa.array(np.bincount(
                sid, weights=g.column("n_events").to_numpy()).astype(np.int64)),
            "t_start": g.column("t_start").filter(first),
            "t_end": g.column("t_end").filter(np.r_[first[1:], True]),
        }
    )


def session_stats(ds, key: str = "user_id", ts_col: str = "ts",
                  gap_seconds: float = 3600.0):
    """One row per session: ``(key, session_idx, n_events, t_start, t_end)``.

    ONE range exchange on ``(key, ts)`` over a TWO-COLUMN projection (the
    event payload never moves), a fully vectorized per-block pass, and a
    boundary merge of per-block session partials touching ≤ 2 keys per
    block."""
    gap_us = int(round(gap_seconds * 1_000_000))

    def block(t: pa.Table, emit: str) -> pa.Table:
        if len(t):
            # rows of the block's first and last key: only these can
            # continue in a neighbouring block of the range exchange
            keys = t.column(key)
            edge = pc.or_(pc.equal(keys, keys[0]), pc.equal(keys, keys[-1]))
            t = t.filter(edge if emit == "pend" else pc.invert(edge))
        return _session_rows(t, key, ts_col, gap_us)

    return sorted_scan(ds, [key, ts_col], key, [ts_col], non_null=[ts_col],
                       block=block,
                       merge=lambda g: _merge_sessions(g, key, gap_us))
