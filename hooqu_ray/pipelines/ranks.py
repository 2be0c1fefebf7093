"""Grouped rank windows and exact per-group quantiles.

SQL surface this module re-expresses Ray-Data-first (the reference,
``mfcabrera/hooqu``, has no window/grouped-quantile operators — engine
extension tier, SURVEY.md §8):

- ``grouped_rank``: ``RANK()`` / ``DENSE_RANK() OVER (PARTITION BY key
  ORDER BY v)`` — the tie-aware siblings of the per-key ``ROW_NUMBER()``
  that ``windows.running_agg`` already emits.
- ``grouped_exact_quantile``: per-group EXACT quantile with the engine's
  standard pandas ``interpolation="nearest"`` rule (``analyzers/quantile.
  nearest_index`` — the same rule the global Quantile analyzer and its
  SQL oracle use), the exact counterpart of
  ``relational.grouped_approx_quantile``'s t-digests.

Scale shape: every op here rides the shared sorted scan
(``functions.sorted_scan``): ONE hash exchange on the key over a slim
projection, and a fully vectorized kernel once per bucket of complete,
``(key, v)``-sorted key groups.  A fold holds whole key groups — the
documented hot-key caveat of the complete-key policy (a single key
holding a meaningful fraction of the corpus needs ``sorted_scan``'s
bounded-state ``block``/``merge`` form instead).

Null semantics: rows with a null key or a null order/value are DROPPED
(the projection prep's null-key filter; SQL instead ranks NULL orders
last — callers who need them re-append ``v IS NULL`` rows).  Documented
divergence shared with ``windows.lag_delta``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.sorted_scan import sorted_scan


def _segment_starts(keys: np.ndarray) -> np.ndarray:
    """Boolean first-row-of-key-segment flags over a key-sorted array."""
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _key_codes(t: pa.Table, key: str) -> np.ndarray:
    col = t.column(key)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.dictionary_encode().indices.to_numpy(zero_copy_only=False)


def grouped_rank(ds, key: str, order_col: str, tie_col: str, *,
                 dense: bool = False, out_col: str = "rank"):
    """``RANK()`` (gaps after ties) or ``DENSE_RANK()`` (``dense=True``,
    no gaps) per ``key`` ordered by ``order_col`` ASCENDING — returns the
    projected ``[key, order_col, tie_col, out_col]`` rows (tie order
    within equal ``order_col`` values is not significant: tied rows share
    a rank by definition).  For descending rank, negate a numeric order
    column upstream — an in-kernel float negation would silently corrupt
    int64 orders above 2^53.  The three column names must be distinct."""

    if len({key, order_col, tie_col}) != 3:
        raise ValueError("key/order/tie column names must be distinct")

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        kc = _key_codes(t, key)
        first_k = _segment_starts(kc)
        v = t.column(order_col)
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vn = v.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        new_run = first_k.copy()
        np.logical_or(new_run[1:], vn[1:] != vn[:-1], out=new_run[1:])
        idx = np.arange(n, dtype=np.int64)
        seg_start = np.maximum.accumulate(np.where(first_k, idx, 0))
        if dense:
            # dense rank: running count of value runs within the segment
            runs = np.cumsum(new_run)
            rank = runs - runs[seg_start] + 1
        else:
            # rank: first row index of the value run, relative to segment
            run_start = np.maximum.accumulate(np.where(new_run, idx, 0))
            rank = run_start - seg_start + 1
        return t.append_column(out_col, pa.array(rank, pa.int64()))

    return sorted_scan(ds, [key, order_col, tie_col], key, [order_col],
                       kernel, non_null=[order_col])


def _nearest_k(q: float, n: np.ndarray) -> np.ndarray:
    """Vectorized pandas interpolation='nearest' index (half-to-even, the
    exact ``analyzers.quantile.nearest_index`` rule) for group sizes n."""
    return np.round(q * (n.astype(np.float64) - 1)).astype(np.int64)


def grouped_exact_quantile(ds, key: str, value_col: str, q: float, *,
                           out_col: str = "q_value"):
    """EXACT per-group quantile (pandas ``interpolation="nearest"`` — an
    actual data value, the engine-standard rule): one ``(key, q_value)``
    row per group with at least one non-null value.  Null values are
    ignored (SQL aggregate-null semantics); equal values may appear in any
    tie order, which cannot change the selected VALUE.

    Rounding note: a ``.5`` virtual index rounds half-to-even (numpy
    ``round`` — the rule ``Series.quantile`` and this engine's global
    Quantile analyzer + SQL oracle share).  pandas' ``GroupBy.quantile``
    cython path instead rounds ``.5`` DOWN — a pandas-internal
    inconsistency, pinned in ``tests/test_ranks.py``."""

    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must be in [0, 1], got {q}")
    if key == value_col:
        raise ValueError("key and value column names must be distinct")

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return t.select([key, value_col]).rename_columns([key, out_col])
        kc = _key_codes(t, key)
        first = _segment_starts(kc)
        starts = np.flatnonzero(first)
        lens = np.diff(np.r_[starts, n])
        pick = starts + _nearest_k(q, lens)
        sel = pa.array(pick, pa.int64())
        return pa.table({key: t.column(key).take(sel),
                         out_col: t.column(value_col).take(sel)})

    return sorted_scan(ds, [key, value_col], key, [value_col], kernel,
                       non_null=[value_col])


def grouped_ntile(ds, key: str, order_col: str, tie_col: str, n: int, *,
                  out_col: str = "tile"):
    """SQL ``NTILE(n) OVER (PARTITION BY key ORDER BY order_col,
    tie_col)``: rows of each group split into ``n`` buckets as equal as
    possible, larger buckets first (the SQL rule: the first ``c % n``
    buckets get ``c // n + 1`` rows).  Unlike RANK, NTILE is tie-UNAWARE —
    the tie column (unique per key) makes the assignment deterministic.
    Same one-exchange scaffold and null-drop contract as
    :func:`grouped_rank`.

    Note the scaffold sorts on (key, order) only; within equal
    ``order_col`` values the kernel re-orders by ``tie_col`` locally, so
    the (order, tie) order is total without a 3-column distributed sort."""

    if n < 1:
        raise ValueError(f"ntile n must be >= 1, got {n}")
    if len({key, order_col, tie_col}) != 3:
        raise ValueError("key/order/tie column names must be distinct")

    def kernel(t: pa.Table) -> pa.Table:
        m = len(t)
        if m == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        # total (order, tie) order within each key segment: the scaffold
        # guarantees (key, order) sortedness; re-sort ties by tie_col
        order = pc.sort_indices(
            t.select([key, order_col, tie_col]),
            sort_keys=[(key, "ascending"), (order_col, "ascending"),
                       (tie_col, "ascending")])
        t = t.take(order)
        kc = _key_codes(t, key)
        first = _segment_starts(kc)
        idx = np.arange(m, dtype=np.int64)
        seg_start = np.maximum.accumulate(np.where(first, idx, 0))
        starts = np.flatnonzero(first)
        lens = np.diff(np.r_[starts, m])
        c = np.repeat(lens, lens)            # group size per row
        rn = idx - seg_start                 # 0-based row number in group
        base, rem = c // n, c % n
        big_span = (base + 1) * rem          # rows covered by larger tiles
        in_big = rn < big_span
        with np.errstate(divide="ignore", invalid="ignore"):
            tile = np.where(
                in_big,
                rn // np.maximum(base + 1, 1),
                rem + (rn - big_span) // np.maximum(base, 1),
            ) + 1
        # groups smaller than n: base==0 → every row is its own tile
        tile = np.where(base == 0, rn + 1, tile)
        return t.append_column(out_col, pa.array(tile, pa.int64()))

    return sorted_scan(ds, [key, order_col, tie_col], key, [order_col],
                       kernel, non_null=[order_col])


def grouped_percent_rank(ds, key: str, order_col: str, tie_col: str, *,
                         cume: bool = False, out_col: str = "pct"):
    """SQL ``PERCENT_RANK()`` ((rank − 1) / (n − 1), 0.0 for a singleton
    group) or — with ``cume=True`` — ``CUME_DIST()`` (fraction of the
    group's rows with value ≤ the current row's) per ``key`` ordered by
    ``order_col`` ascending.  Values round to 6 decimals (the engine's
    oracle-comparison convention).  Same one-sort scaffold and null-drop
    contract as :func:`grouped_rank`."""

    if len({key, order_col, tie_col}) != 3:
        raise ValueError("key/order/tie column names must be distinct")

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return t.append_column(out_col, pa.array([], pa.float64()))
        kc = _key_codes(t, key)
        first_k = _segment_starts(kc)
        v = t.column(order_col)
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vn = v.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        new_run = first_k.copy()
        np.logical_or(new_run[1:], vn[1:] != vn[:-1], out=new_run[1:])
        idx = np.arange(n, dtype=np.int64)
        seg_start = np.maximum.accumulate(np.where(first_k, idx, 0))
        starts = np.flatnonzero(first_k)
        lens = np.diff(np.r_[starts, n])
        c = np.repeat(lens, lens).astype(np.float64)
        if cume:
            # exclusive end of the current value run = next run's start
            # (a value run never crosses a segment: new_run ⊇ first_k)
            rs = np.flatnonzero(new_run)
            run_next = np.repeat(np.r_[rs[1:], n], np.diff(np.r_[rs, n]))
            val = (run_next - seg_start) / c
        else:
            run_start = np.maximum.accumulate(np.where(new_run, idx, 0))
            rank = (run_start - seg_start).astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                val = np.where(c > 1, rank / (c - 1), 0.0)
        return t.append_column(out_col,
                               pa.array(np.round(val, 6), pa.float64()))

    return sorted_scan(ds, [key, order_col, tie_col], key, [order_col],
                       kernel, non_null=[order_col])


def grouped_string_agg(ds, key: str, value_col: str, order_col: str,
                       tie_col: str, *, sep: str = ",",
                       out_col: str = "agg"):
    """SQL ``string_agg(value, sep ORDER BY order, tie)`` per key — one
    row per group, values joined in (order, tie) order.  Null VALUES are
    skipped (SQL string_agg semantics) and a group with no non-null
    values is absent (callers wanting SQL's NULL row re-attach it from
    the group list); null keys/orders drop per the scaffold contract.
    ``tie_col`` (unique per key) makes the concatenation deterministic
    where SQL leaves equal-order ties arbitrary.

    Scale shape: the shared one-exchange scaffold; the kernel builds
    one zero-copy ListArray over the bucket's value buffer and joins with
    ONE vectorized ``binary_join`` — no Python per group.  NOTE the
    joined string materializes one group's full concatenation in a single
    cell: a mega-group yields a mega-cell (same caveat as any SQL
    string_agg)."""

    if len({key, value_col, order_col, tie_col}) != 4:
        raise ValueError("key/value/order/tie column names must be distinct")

    def kernel(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(value_col)))
        n = len(t)
        if n == 0:
            kcol = t.column(key)
            return pa.table({key: kcol.slice(0, 0),
                             out_col: pa.array([], pa.string())})
        order = pc.sort_indices(
            t.select([key, order_col, tie_col]),
            sort_keys=[(key, "ascending"), (order_col, "ascending"),
                       (tie_col, "ascending")])
        t = t.take(order)
        kc = _key_codes(t, key)
        starts = np.flatnonzero(_segment_starts(kc))
        offsets = pa.array(np.r_[starts, n].astype(np.int32), pa.int32())
        vals = t.column(value_col)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        vals = pc.cast(vals, pa.string())
        la = pa.ListArray.from_arrays(offsets, vals)
        joined = pc.binary_join(la, pa.scalar(sep))
        sel = pa.array(starts, pa.int64())
        return pa.table({key: t.column(key).take(sel), out_col: joined})

    return sorted_scan(ds, [key, value_col, order_col, tie_col], key,
                       [order_col], kernel, non_null=[order_col])
