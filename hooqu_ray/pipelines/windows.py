"""Per-key window operators: rolling and time-window means, running
sums, LAG/LEAD deltas, FIRST/LAST values, hopping and tumbling
aggregates.

The reference has no window surface (SURVEY §2.3 "Streaming: nothing");
rolling features (trailing activity averages, smoothed quality scores) are
a staple of event-log and training-data pipelines.  The ordered ops run
on the shared sorted scan (``functions.sorted_scan``): one vectorized
kernel (padded cumsums, shifts, ``searchsorted``) over a table sorted on
``(key, ts, tie)``, zero Python per row.  ``running_agg`` needs every
earlier row of a key, so it runs over complete keys on the hash exchange.
The bounded windows run over the ranges of ONE range exchange, each with
its halo, the ``tail`` of all earlier ranges: the last ``w−1`` rows for
a ``w``-row window, the last ``periods`` rows for LAG/LEAD, and the last
key's rows within ``span`` of its last ts for the time window.  That is
every earlier row a range's window can reach, so the kernel's output on
halo plus range is final, and a hot key spreads over many ranges.

Null semantics match SQL: null values don't contribute to a window
(``AVG`` skips them; an all-null window yields null); rows with a null key
or timestamp are dropped (see ``asof.py`` for the rationale).  ``tie``
must be unique per key (it is the deterministic order tie-break — use a
row id).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.sorted_scan import sorted_scan


def _run_start(keys: np.ndarray) -> np.ndarray:
    """Index of the first row of each row's key run, in a key-sorted
    array."""
    new_key = np.r_[True, keys[1:] != keys[:-1]][:len(keys)]
    return np.flatnonzero(new_key)[np.cumsum(new_key) - 1]


def _rolling_block(t: pa.Table, key: str, value_col: str, w: int,
                   out_col: str) -> pa.Table:
    """The trailing ``w``-row mean of every row of a (key, ts, tie)-sorted
    table, as ``out_col`` in place of ``value_col``: one vectorized
    padded-cumsum pass."""
    keys = t.column(key).to_numpy(zero_copy_only=False)
    hi = np.arange(len(t), dtype=np.int64)
    lo = np.maximum(hi - w + 1, _run_start(keys))
    mean = _window_mean(t.column(value_col).to_numpy(zero_copy_only=False),
                        lo, hi)
    return t.drop_columns([value_col]).append_column(
        out_col, pa.array(mean, pa.float64(), from_pandas=True))


def _last_rows(n: int):
    """``tail`` of a window over the ``n`` preceding rows (``w − 1`` for a
    ``w``-row rolling mean, ``periods`` for LAG/LEAD): the last ``n`` rows
    of a sorted table, so at most ``n`` rows."""
    return lambda t: t.slice(max(len(t) - n, 0))


def _window_mean(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of ``vals[lo[i]..hi[i]]`` per row via padded cumsums, skipping
    NaN; an empty/all-null window yields NaN."""
    vals = vals.astype(np.float64, copy=False)
    valid = ~np.isnan(vals)
    cs = np.r_[0.0, np.cumsum(np.where(valid, vals, 0.0))]
    cc = np.r_[0, np.cumsum(valid)]
    s = cs[hi + 1] - cs[lo]
    c = cc[hi + 1] - cc[lo]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(c > 0, s / np.maximum(c, 1), np.nan)


def _span_scalar(ts: np.ndarray, span_seconds: float):
    """``span`` in the ts array's own unit: timedelta64 for datetime axes,
    plain float for numeric axes."""
    if ts.dtype.kind == "M":
        return np.timedelta64(int(round(span_seconds * 1e6)), "us")
    return span_seconds


def _time_window_stats(ts: np.ndarray, vals: np.ndarray, starts: np.ndarray,
                       ends: np.ndarray, span):
    """Per-row ``(mean, n)`` over the ts-set window ``[t − span, t]`` within
    each ``[start, end)`` key run: two ``searchsorted`` per run + padded
    cumsums, null values skipped by the mean, ``n`` counts all window rows."""
    n = len(ts)
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    for s, e in zip(starts, ends):
        seg = ts[s:e]
        lo[s:e] = s + np.searchsorted(seg, seg - span, side="left")
        hi[s:e] = s + np.searchsorted(seg, seg, side="right")
    vals = vals.astype(np.float64, copy=False)
    valid = ~np.isnan(vals)
    cs = np.r_[0.0, np.cumsum(np.where(valid, vals, 0.0))]
    cc = np.r_[0, np.cumsum(valid)]
    sv = cs[hi] - cs[lo]
    cv = cc[hi] - cc[lo]
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(cv > 0, sv / np.maximum(cv, 1), np.nan)
    return mean, hi - lo


def _time_block(t: pa.Table, key: str, ts_col: str, value_col: str,
                span_seconds: float) -> pa.Table:
    """``tw_mean``/``tw_n`` over the ts-set window ``[t − span, t]`` of
    every row of a (key, ts)-sorted table, in place of ``value_col``."""
    keys = t.column(key).to_numpy(zero_copy_only=False)
    ts = t.column(ts_col).to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(_run_start(keys) == np.arange(len(t)))
    mean, cnt = _time_window_stats(
        ts, t.column(value_col).to_numpy(zero_copy_only=False),
        starts, np.r_[starts[1:], len(t)][:len(starts)],
        _span_scalar(ts, span_seconds))
    return t.drop_columns([value_col]).append_column(
        "tw_mean", pa.array(mean, pa.float64(), from_pandas=True)
    ).append_column("tw_n", pa.array(cnt, pa.int64()))


def _time_tail(key: str, ts_col: str, span_seconds: float):
    """``tail`` of the time window: the rows of a sorted table's last key
    within ``span`` of its last ts, every row a later row of that key can
    window over (bounded by the key's row density over ``span``)."""
    def tail(t: pa.Table) -> pa.Table:
        keys = t.column(key).to_numpy(zero_copy_only=False)
        ts = t.column(ts_col).to_numpy(zero_copy_only=False)
        near = ts >= ts[-1] - _span_scalar(ts, span_seconds)
        return t.filter(pa.array((keys == keys[-1]) & near))

    return tail


def time_window_mean(ds, key: str, ts_col: str, id_col: str, value_col: str,
                     span_seconds: float):
    """Trailing TIME-window aggregate per key: for every row, the mean of
    ``value_col`` and the row count over the key's rows with ``ts`` in
    ``[t − span, t]`` — the ts-SET window (equal-ts peers always included,
    regardless of order), i.e. SQL's ``(SELECT avg(v), count(*) FROM self i
    WHERE i.key = o.key AND i.ts BETWEEN o.ts - span AND o.ts)``.  One
    range exchange on ``(key, ts)``, so equal-ts peers never straddle two
    ranges, and the kernel over each range plus its halo
    (:func:`_time_tail`).  Returns ``[key, ts_col, id_col, tw_mean,
    tw_n]``."""
    if span_seconds < 0:
        raise ValueError(f"time_window_mean: span must be ≥ 0, got {span_seconds}")

    return sorted_scan(
        ds, [key, ts_col, id_col, value_col], key, [ts_col],
        lambda t: _time_block(t, key, ts_col, value_col, span_seconds),
        non_null=[ts_col], tail=_time_tail(key, ts_col, span_seconds))


def rolling_mean(ds, key: str, ts_col: str, tie: str, value_col: str,
                 window: int, out_col: str = "rolling_mean"):
    """Trailing ``window``-row mean of ``value_col`` per ``key`` in
    ``(ts_col, tie)`` order.  Returns a Dataset with columns
    ``[key, ts_col, tie, out_col]`` — one row per surviving input row."""
    if window < 1:
        raise ValueError(f"rolling_mean: window must be ≥ 1, got {window}")

    return sorted_scan(
        ds, [key, ts_col, tie, value_col], key, [ts_col, tie],
        lambda t: _rolling_block(t, key, value_col, window, out_col),
        non_null=[ts_col], tail=_last_rows(window - 1))


def hopping_window_agg(ds, key_col: str, ts_col: str, value_col: str,
                       window_us: int, hop_us: int):
    """Hopping (overlapping sliding) window aggregate: count + mean of
    ``value_col`` per ``(key, window_start)`` where windows are
    ``[s, s + window)`` for every ``s ≡ 0 (mod hop)`` — each event lands
    in ``window/hop`` windows (tumbling = the special case window == hop;
    cf. the trailing per-event window of :func:`time_window_mean`).

    Embarrassingly parallel combiner: each block ENUMERATES its rows'
    window memberships vectorized (ragged repeat/offset arithmetic, no
    Python per row) and pre-aggregates per (key, window) BEFORE
    ``tree_group_sum``'s one hash exchange — it moves at most
    ``#blocks × #keys × #windows-per-block`` slim partial rows, never the
    events.  Null keys/timestamps are dropped (SQL GROUP BY over derived
    keys); null VALUES count toward ``n`` but not the mean (SQL
    ``count(*)`` / ``avg`` semantics), and an all-null window's mean is
    null."""
    from ..functions.shuffle import tree_group_sum

    if window_us <= 0 or hop_us <= 0 or window_us % hop_us:
        raise ValueError(
            "hopping_window_agg: window_us must be a positive multiple of hop_us"
        )

    def block_partials(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(t.column(key_col)), pc.is_valid(t.column(ts_col))
        )
        t = t.filter(keep)
        if len(t) == 0:
            z = pa.array([], pa.int64())
            return pa.table({key_col: t.column(key_col), "__ws": z, "__n": z,
                             "__nv": z, "__sum": pa.array([], pa.float64())})
        ts_col_arr = t.column(ts_col)
        if pa.types.is_timestamp(ts_col_arr.type):
            # normalize to µs so window/hop units are unambiguous
            # (pandas-sourced blocks arrive as timestamp[ns])
            ts_col_arr = pc.cast(ts_col_arr, pa.timestamp("us"))
        ts = pc.cast(ts_col_arr, pa.int64()).to_numpy(zero_copy_only=False)
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        val_ok = (~np.isnan(vals)).astype(np.float64)
        vals = np.nan_to_num(vals)
        i_max = np.floor_divide(ts, hop_us)
        i_min = np.floor_divide(ts - window_us, hop_us) + 1
        counts = (i_max - i_min + 1).astype(np.int64)
        row_of = np.repeat(np.arange(len(ts), dtype=np.int64), counts)
        starts = np.r_[0, np.cumsum(counts)[:-1]]
        slot = np.arange(counts.sum(), dtype=np.int64) - np.repeat(starts, counts)
        ws = (i_min[row_of] + slot) * hop_us
        enc = t.column(key_col)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        enc = enc.dictionary_encode()
        kcode = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)[row_of]
        order = np.lexsort((ws, kcode))
        k_s, w_s, r_s = kcode[order], ws[order], row_of[order]
        first = np.r_[True, (k_s[1:] != k_s[:-1]) | (w_s[1:] != w_s[:-1])]
        run_id = np.cumsum(first) - 1
        n_run = np.bincount(run_id)
        nv_run = np.bincount(run_id, weights=val_ok[r_s])
        sum_run = np.bincount(run_id, weights=vals[r_s])
        sel = np.flatnonzero(first)
        return pa.table(
            {
                key_col: enc.dictionary.take(pa.array(k_s[sel], pa.int64())),
                "__ws": pa.array(w_s[sel], pa.int64()),
                "__n": pa.array(n_run, pa.int64()),
                "__nv": pa.array(nv_run.astype(np.int64), pa.int64()),
                "__sum": pa.array(sum_run, pa.float64()),
            }
        )

    agg = tree_group_sum(
        ds.map_batches(block_partials, batch_format="pyarrow"),
        [key_col, "__ws"], ["__n", "__nv", "__sum"], drop_null_keys=True)

    def finish(t: pa.Table) -> pa.Table:
        nv = pc.cast(t.column("__nv"), pa.float64())
        s = t.column("__sum")
        avg = pc.if_else(
            pc.greater(nv, 0.0), pc.divide(s, nv), pa.scalar(None, pa.float64())
        )
        return pa.table(
            {
                key_col: t.column(key_col),
                "w_start": pc.cast(t.column("__ws"), pa.timestamp("us")),
                "n": t.column("__n"),
                "avg_value": avg,
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _running_block(t: pa.Table, key: str, value_col: str) -> pa.Table:
    """The RUNNING (unbounded-preceding) aggregate over a table of complete
    keys sorted on ``(key, ts, tie)``: one vectorized pass attaching
    ``run_sum`` / ``run_n`` to every row."""
    if value_col not in t.column_names:  # the schema-less typed empty
        return t
    n = len(t)
    keys = t.column(key).to_numpy(zero_copy_only=False)
    vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(
        np.float64, copy=False
    )
    run_start = _run_start(keys)
    valid = ~np.isnan(vals)
    cs = np.r_[0.0, np.cumsum(np.where(valid, vals, 0.0))]
    cc = np.r_[0, np.cumsum(valid)]
    arange = np.arange(n, dtype=np.int64)
    s = cs[arange + 1] - cs[run_start]
    c = cc[arange + 1] - cc[run_start]
    run_sum = np.where(c > 0, s, np.nan)  # SQL SUM: all-null prefix → NULL
    return t.drop_columns([value_col]).append_column(
        "run_sum", pa.array(run_sum, pa.float64(), from_pandas=True)
    ).append_column("run_n", pa.array(arange - run_start + 1, pa.int64()))


def running_agg(ds, key: str, ts_col: str, tie: str, value_col: str):
    """Per-key RUNNING aggregate — SQL
    ``SUM(v) OVER (PARTITION BY key ORDER BY ts, tie ROWS UNBOUNDED
    PRECEDING)`` plus the per-key ``ROW_NUMBER()`` — the cumulative-state
    operator behind "tokens emitted so far per user", "spend to date per
    account".

    A complete-key ``sorted_scan`` kernel: one hash exchange on the key
    over a 4-column projection, then a fully vectorized padded-cumsum
    pass over each bucket's whole, ``(key, ts, tie)``-sorted keys.  A
    running total needs every earlier row of its key, so a range's halo
    would hold all of a key's earlier rows: a ``tail`` bounds nothing
    here.  Null semantics match SQL: null
    values don't advance the sum (an all-null prefix yields null);
    ``run_n`` counts every row.  Rows with a null key or ts are dropped
    (cf. ``asof.py``).  ``tie`` must be unique per key.  Returns
    ``[key, ts_col, tie, run_sum, run_n]``."""

    return sorted_scan(
        ds, [key, ts_col, tie, value_col], key, [ts_col, tie],
        non_null=[ts_col],
        kernel=lambda t: _running_block(t, key, value_col))


def _lag_block(t: pa.Table, key: str, value_col: str, periods: int,
               forward: bool = False) -> pa.Table:
    """LAG (``forward=False``) of every row of a (key, ts, tie)-sorted
    table, as ``prev_value`` and ``delta = v − prev``: one vectorized
    shift.  For LEAD (``forward=True``) the table is sorted ts/tie
    DESCENDING within each key, so the positional predecessor is the
    logical successor; the column is then ``next_value`` and the delta
    ``next − v``."""
    keys = t.column(key).to_numpy(zero_copy_only=False)
    vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(
        np.float64, copy=False)
    src = np.arange(len(t), dtype=np.int64) - periods
    prev = np.where(src >= _run_start(keys), vals[np.maximum(src, 0)], np.nan)
    delta = (prev - vals) if forward else (vals - prev)
    return t.append_column(
        "next_value" if forward else "prev_value",
        pa.array(prev, pa.float64(), from_pandas=True),
    ).append_column("delta", pa.array(delta, pa.float64(), from_pandas=True))


def lag_delta(ds, key: str, ts_col: str, tie: str, value_col: str,
              periods: int = 1):
    """Per-key LAG + delta — SQL ``LAG(v, periods) OVER (PARTITION BY key
    ORDER BY ts, tie)`` and ``v − LAG(v)`` — inter-arrival deltas, spend
    changes, monotonicity checks.

    Same discipline as :func:`rolling_mean`: one range exchange of a
    4-column projection and a vectorized shift over each range plus its
    halo, the last ``periods`` rows of the earlier ranges.  The first
    ``periods`` rows of each key get null ``prev_value`` and ``delta``
    (SQL LAG default).  Rows with a null key or ts are
    dropped; ``tie`` must be unique per key.  Returns
    ``[key, ts_col, tie, value_col, prev_value, delta]``."""
    return _lag_lead_scaffold(ds, key, ts_col, tie, value_col, periods,
                              forward=False)


def lead_delta(ds, key: str, ts_col: str, tie: str, value_col: str,
               periods: int = 1):
    """Per-key LEAD + forward delta — SQL ``LEAD(v, periods) OVER
    (PARTITION BY key ORDER BY ts, tie)`` and ``LEAD(v, periods) − v`` —
    "what happens next": next-event values, time-to-next deltas,
    look-ahead labels for sequence models.

    Exactly the :func:`lag_delta` machinery run over the REVERSED
    per-key order: the one range exchange orders ``[key, ts DESC, tie
    DESC]``, under which each row's positional predecessor is its
    logical successor, so the same vectorized shift and halo (the last
    ``periods`` rows of the earlier ranges in that order) apply
    unchanged.  The last ``periods`` rows of each
    key get null ``next_value``/``delta`` (SQL LEAD default).  Rows with
    a null key or ts are dropped; ``tie`` must be unique per key.
    Returns ``[key, ts_col, tie, value_col, next_value, delta]`` with
    ``delta = next_value − value``."""
    return _lag_lead_scaffold(ds, key, ts_col, tie, value_col, periods,
                              forward=True)


def _lag_lead_scaffold(ds, key: str, ts_col: str, tie: str, value_col: str,
                       periods: int, forward: bool):
    if periods < 1:
        raise ValueError(
            f"{'lead' if forward else 'lag'}_delta: periods must be ≥ 1, "
            f"got {periods}")

    return sorted_scan(
        ds, [key, ts_col, tie, value_col], key, [ts_col, tie],
        lambda t: _lag_block(t, key, value_col, periods, forward),
        descending=[False, forward, forward], non_null=[ts_col],
        tail=_last_rows(periods))


def _first_last_combine(key: str):
    """Self-mergeable combine for the FIRST/LAST fold: one row per key
    whose ``(__f_ts, __f_tie, first_value)`` is the lexicographically
    EARLIEST candidate seen and ``(__l_ts, __l_tie, last_value)`` the
    LATEST — the earlier of two firsts is the first, so a bucket's
    per-block candidates reduce in one pass, like ``tree_group_sum``
    partials."""
    proj = [key, "__f_ts", "__f_tie", "first_value",
            "__l_ts", "__l_tie", "last_value"]

    def combine(t: pa.Table) -> pa.Table:
        t = t.select(proj)
        tf = t.take(pc.sort_indices(t, sort_keys=[
            (key, "ascending"), ("__f_ts", "ascending"),
            ("__f_tie", "ascending")]))
        kf = tf.column(key).to_numpy(zero_copy_only=False)
        starts = np.r_[True, kf[1:] != kf[:-1]]
        firsts = tf.filter(pa.array(starts)).select(
            [key, "__f_ts", "__f_tie", "first_value"])
        tl = t.take(pc.sort_indices(t, sort_keys=[
            (key, "ascending"), ("__l_ts", "ascending"),
            ("__l_tie", "ascending")]))
        kl = tl.column(key).to_numpy(zero_copy_only=False)
        ends = np.r_[kl[1:] != kl[:-1], True]
        lasts = tl.filter(pa.array(ends))
        # both passes emit one row per key in ascending key order — the
        # rows align positionally
        out = firsts
        for c in ("__l_ts", "__l_tie", "last_value"):
            out = out.append_column(c, lasts.column(c))
        return out

    return combine


def grouped_first_last(ds, key: str, ts_col: str, tie: str, value_col: str):
    """Per-key FIRST_VALUE / LAST_VALUE in ``(ts, tie)`` order — SQL
    ``FIRST_VALUE(v) OVER (PARTITION BY key ORDER BY ts, tie)`` /
    ``LAST_VALUE(v) OVER (... ROWS BETWEEN UNBOUNDED PRECEDING AND
    UNBOUNDED FOLLOWING)`` — WITHOUT the corpus range exchange the rest
    of the window family pays: first/last selection is an algebraic fold
    (the earlier of two firsts is the first), so it is one
    ``shuffle.hash_exchange`` on the key whose split tasks reduce each
    block to its candidates (≤ #keys-in-block rows) and whose folds
    combine each bucket's complete keys once — never Ray's per-key sort
    groupby.  On a materialized input it runs no Ray Data execution.

    ``value_col`` keeps its input dtype (selection, not arithmetic), and
    a null value at the boundary row is returned as-is (SQL parity).
    Rows with a null key or ts are dropped; ``tie`` must be unique per
    key.  Returns ``[key, first_value, last_value]``, one row per key."""
    from ..functions import shuffle
    from ..util import dataset_arrow_schema

    combine = _first_last_combine(key)

    def prep(t: pa.Table) -> pa.Table:
        # single-sort fast path over the raw corpus block: the first/last
        # orderings coincide here (both are (key, ts, tie)), so one
        # sort_indices yields run starts AND run ends — the generic
        # two-sort combine is only needed in the fold, where the f/l
        # candidate columns genuinely differ
        mask = pc.and_(pc.is_valid(t.column(key)),
                       pc.is_valid(t.column(ts_col)))
        firsts = lasts = t = t.filter(mask)
        if len(t):
            tt = t.take(pc.sort_indices(t, sort_keys=[
                (key, "ascending"), (ts_col, "ascending"),
                (tie, "ascending")]))
            kk = tt.column(key).to_numpy(zero_copy_only=False)
            firsts = tt.filter(pa.array(np.r_[True, kk[1:] != kk[:-1]]))
            lasts = tt.filter(pa.array(np.r_[kk[1:] != kk[:-1], True]))
        return pa.table({
            key: firsts.column(key),
            "__f_ts": firsts.column(ts_col), "__f_tie": firsts.column(tie),
            "first_value": firsts.column(value_col),
            "__l_ts": lasts.column(ts_col), "__l_tie": lasts.column(tie),
            "last_value": lasts.column(value_col),
        })

    ds = ds.materialize()
    in_schema = dataset_arrow_schema(ds)

    ktype = (in_schema.field(key).type if in_schema is not None
             and key in in_schema.names else pa.string())
    vtype = (in_schema.field(value_col).type if in_schema is not None
             and value_col in in_schema.names else pa.float64())
    empty = pa.schema([(key, ktype), ("first_value", vtype),
                       ("last_value", vtype)]).empty_table()

    def fold(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return empty
        return combine(t).select([key, "first_value", "last_value"])

    return shuffle.hash_exchange(ds, [key], fold, pre=prep)


def windowed_count_distinct(ds, ts_col: str, value_col: str,
                            window_seconds: float,
                            out_ts: str = "window_start"):
    """Tumbling-window ``COUNT(DISTINCT v)`` — SQL ``count(DISTINCT v)
    GROUP BY time_bucket(ts)`` — the streaming-analytics staple
    ("distinct active users per hour") as a batch composition: each
    batch stamps its window start (vectorized epoch floor, any window
    length), then :func:`hooqu_ray.pipelines.relational.
    grouped_count_distinct` finishes with its combiner-first bucketed
    exchanges (distinct pairs move, never rows).  Rows with a null
    timestamp drop; null values are not counted, and a window whose
    values are ALL null is absent from the output — a documented
    divergence from SQL, which emits that window with ``n_distinct =
    0`` (the same null-drop convention as the engine's other grouped
    ops).  Returns ``[out_ts, n_distinct]``."""
    if window_seconds <= 0:
        raise ValueError(
            f"window_seconds must be > 0, got {window_seconds}")
    from .relational import grouped_count_distinct

    w_us = int(round(window_seconds * 1e6))

    def stamp(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(ts_col)))
        ts = pc.cast(t.column(ts_col), pa.timestamp("us"))
        us = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
        start = (us // w_us) * w_us
        return pa.table({
            out_ts: pa.array(start.astype("datetime64[us]")),
            value_col: t.column(value_col)})

    return grouped_count_distinct(
        ds.map_batches(stamp, batch_format="pyarrow"), out_ts, value_col)
