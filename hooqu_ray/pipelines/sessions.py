"""Sessionization: the classic event-stream window operator, expressed as a
batch Ray Data pipeline.

The reference has no streaming/window surface at all (SURVEY §2.3
"Streaming: nothing"); this is a forward extension for event-log inputs.
Semantics: events of one key ordered by timestamp; a NEW session starts when
the gap from the previous event exceeds ``gap_seconds`` (strictly greater,
microsecond precision).  Session ids are 0-based per key in time order — the
same definition DuckDB expresses with ``lag`` + a running ``sum`` window,
which is the oracle for the driver's correctness gate.

Shape: ONE range exchange on ``(key, ts)`` over a two-column projection
(``shuffle.range_exchange``) whose fold sessionizes each range in one
vectorized pass (numpy run/break detection and cumsum segment totals,
zero Python per key), then ONE hash exchange on the key whose fold
sessionizes those per-range sessions again: a key's sessions from
adjacent ranges fuse where the gap between them is within the threshold,
and the indices are re-assigned.  Sessions are disjoint intervals, so
sessionizing them is the same pass as sessionizing events.  The second
exchange moves one row per session, never one per event, so a hot key
spreads over many ranges and reaches its fold as its sessions only.
Rows with a null key or timestamp are dropped.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _us(col) -> np.ndarray:
    """A timestamp column as int64 microseconds."""
    return col.to_numpy(zero_copy_only=False).astype(
        "datetime64[us]").astype(np.int64)


def _sessions(t: pa.Table, key: str, gap_us: int) -> pa.Table:
    """Sessionize a table of disjoint intervals ``(key, t_start, t_end,
    n_events)`` sorted on ``(key, t_start)``: a new session starts where
    the key changes or the gap from the previous interval's end exceeds
    ``gap_us``.  One row per session with its 0-based index within the
    key, in one vectorized pass."""
    n = len(t)
    keys = t.column(key).to_numpy(zero_copy_only=False)
    start, end = _us(t.column("t_start")), _us(t.column("t_end"))
    new_key = np.r_[True, keys[1:] != keys[:-1]][:n]
    starts = np.flatnonzero(
        new_key | np.r_[True, start[1:] - end[:-1] > gap_us][:n])
    ends = np.r_[starts[1:], n][:len(starts)]
    counts = np.r_[0, np.cumsum(t.column("n_events").to_numpy())]
    i = np.arange(len(starts), dtype=np.int64)
    return pa.table({
        key: t.column(key).take(starts),
        "session_idx": pa.array(
            i - np.maximum.accumulate(np.where(new_key[starts], i, 0)),
            pa.int64()),
        "n_events": pa.array(counts[ends] - counts[starts], pa.int64()),
        "t_start": t.column("t_start").take(starts),
        "t_end": t.column("t_end").take(ends - 1),
    })


def _session_rows(t: pa.Table, key: str, ts_col: str,
                  gap_us: int) -> pa.Table:
    """The sessions of a (key, ts)-sorted range: each event as a one-event
    interval, sessionized.  Final for a key complete in the range, and
    partials that :func:`_merge_sessions` fuses for a key that spans
    several."""
    ts = pa.array(t.column(ts_col).to_numpy(zero_copy_only=False).astype(
        "datetime64[us]"))
    return _sessions(pa.table({
        key: t.column(key), "t_start": ts, "t_end": ts,
        "n_events": pa.array(np.ones(len(t), np.int64))}), key, gap_us)


def _merge_sessions(g: pa.Table, key: str, gap_us: int) -> pa.Table:
    """The final sessions of the complete keys in ``g``, one row per
    per-range session: sorted on ``(key, t_start)`` and sessionized again.
    Within a range consecutive sessions are already more than the gap
    apart, so only sessions from adjacent ranges fuse."""
    if len(g) == 0:
        return g
    return _sessions(g.take(pc.sort_indices(g, sort_keys=[
        (key, "ascending"), ("t_start", "ascending")])), key, gap_us)


def session_stats(ds, key: str = "user_id", ts_col: str = "ts",
                  gap_seconds: float = 3600.0):
    """One row per session: ``(key, session_idx, n_events, t_start, t_end)``.

    ONE range exchange on ``(key, ts)`` over a TWO-COLUMN projection (the
    event payload never moves) that sessionizes each range, then ONE hash
    exchange on the key that fuses each key's per-range sessions (module
    docstring).  On a materialized input it runs no Ray Data execution."""
    from ..functions.shuffle import hash_exchange, range_exchange
    from ..functions.sorted_scan import _project

    gap_us = int(round(gap_seconds * 1_000_000))
    sessions = range_exchange(
        ds, [(key, "ascending"), (ts_col, "ascending")],
        lambda t, before: _session_rows(t, key, ts_col, gap_us),
        pre=_project([key, ts_col], key, [ts_col]))
    return hash_exchange(sessions, [key],
                         lambda g: _merge_sessions(g, key, gap_us))
