"""Relational helpers a reference user would reach for next: grouped top-k
and deterministic (SQL-reproducible) hash sampling.

Both are combiner-first: the per-block stage shrinks the data to a bounded
partial result before anything crosses the wire, so neither operator ever
shuffles the full input.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.shuffle import group_by

# Above this many partial digest rows grouped_approx_quantile merges
# distributed.
QUANTILE_DRIVER_MAX_GROUPS = 1_000_000
# Above this many cohort keys cohort_retention stamps cohorts with a
# distributed hash join instead of a broadcast.
COHORT_BROADCAST_MAX_KEYS = 5_000_000


def _from_driver_table(t: Optional[pa.Table], cols, ds, types=None):
    """A driver-merged result as a Dataset, so both arms of a gated op
    return one type.  With no rows, ``cols`` take ``types``, else the
    input's types (an empty combiner output is schema-less), else null."""
    import ray.data as rd

    from ..util import dataset_arrow_schema

    if t is None or len(t) == 0:
        schema = dataset_arrow_schema(ds)
        known = {**({} if schema is None else
                    {f.name: f.type for f in schema}), **(types or {})}
        t = pa.schema([(c, known.get(c, pa.null())) for c in cols]
                      ).empty_table()
    return rd.from_arrow(t)


def grouped_top_k(ds, group_col: str, order_col: str, k: int,
                  tie_col: str, extra_cols=()):
    """Top-k rows per group by ``order_col`` DESC (ties broken by ascending
    ``tie_col``) — the ``row_number() OVER (PARTITION BY ... ORDER BY ...)``
    shape.  Rows with a null group drop.

    One ``shuffle.hash_exchange`` on the group whose ``pre`` and ``fold``
    are the same Arrow top-k: one ``sort_indices`` over (group asc, order
    desc, tie asc), then a rank-within-group mask.  Each block keeps its
    LOCAL top-k per group in its split task, so at most ``#blocks ×
    #groups × k`` rows move, and each bucket keeps the top k of its
    complete groups.  On a materialized input it runs no Ray Data
    execution.  Returns a Ray Dataset of ``[group_col, order_col,
    tie_col, *extra_cols]``, one block per non-empty bucket, each sorted
    by (group, rank); an empty one keeps the input's column types (null
    when the input has none)."""
    from ..functions.shuffle import hash_exchange, key_runs

    # dict keeps order, drops duplicates (e.g. tie_col listed in extra_cols)
    cols = list(dict.fromkeys([group_col, order_col, tie_col, *extra_cols]))
    sort_keys = [(group_col, "ascending"), (order_col, "descending"),
                 (tie_col, "ascending")]

    def topk(t: pa.Table) -> pa.Table:
        if not set(cols).issubset(t.column_names):  # a schema-less input
            return pa.schema([(c, pa.null()) for c in cols]).empty_table()
        t = t.select(cols).filter(pc.is_valid(t.column(group_col)))
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        runs = key_runs(t, [group_col])
        rank = np.arange(len(t)) - np.repeat(runs[:-1], np.diff(runs))
        return t.filter(pa.array(rank < k))

    return hash_exchange(ds, [group_col], topk, pre=topk)


_HEX_MAX8 = 8


def md5_bucket(values) -> np.ndarray:
    """Deterministic 32-bit bucket value per row: the first 8 hex digits of
    ``md5(str(value))`` as an integer — chosen because DuckDB reproduces it
    exactly (``CAST(concat('0x', substr(md5(CAST(x AS VARCHAR)), 1, 8)) AS
    BIGINT)``), which makes hash sampling SQL-oracle-checkable.  md5 has no
    Arrow kernel, so this is a per-row hashlib call — fine for a sampling
    DECISION column (~1 µs/row); it is not a text-volume hot path."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    out = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values.to_pylist()):
        out[i] = int(hashlib.md5(str(v).encode("utf-8")).hexdigest()[:_HEX_MAX8], 16)
    return out


def hash_sample(ds, col: str, buckets: int = 20, keep_bucket: int = 0):
    """Deterministic ~(1/buckets) sample: keep rows whose md5 bucket of
    ``col`` satisfies ``bucket % buckets == keep_bucket``.  Stable across
    runs, processes and engines (same rows every time — resumable pipelines
    can re-derive the sample), and exactly reproducible in SQL."""
    def keep(t: pa.Table) -> pa.Table:
        b = md5_bucket(t.column(col))
        return t.filter(pa.array(b % buckets == keep_bucket))

    return ds.map_batches(keep, batch_format="pyarrow")


def split_assign(ds, key_col: str, splits: "Sequence[tuple]" = (
        ("train", 80), ("val", 10), ("test", 10)), out_col: str = "split"):
    """Deterministic train/val/test split assignment by content hash of
    ``key_col`` — the standard leakage-safe dataset split (same key → same
    split across runs, engines, and data orderings; new data never moves
    old rows between splits).

    ``splits`` is (name, weight) pairs; weights are integer percentiles of
    the md5 bucket space (must sum to ≤ 100; the last split absorbs any
    remainder).  Embarrassingly parallel ``map_batches`` — no shuffle at
    any scale — and exactly reproducible in SQL via the same md5-prefix
    bucket as :func:`hash_sample`."""
    names = [s[0] for s in splits]
    bounds = np.cumsum([int(s[1]) for s in splits])
    if bounds[-1] > 100:
        raise ValueError("split weights must sum to <= 100")
    bounds = bounds[:-1]  # last split takes the remainder

    def assign(t: pa.Table) -> pa.Table:
        b = md5_bucket(t.column(key_col)) % 100
        idx = np.searchsorted(bounds, b, side="right")
        out = pa.array(np.array(names, dtype=object)[idx], pa.string())
        return t.append_column(out_col, out)

    return ds.map_batches(assign, batch_format="pyarrow")


def importance_sample(ds, key_col: str, score_col: str,
                      temperature: float = 1.0):
    """Deterministic importance resampling (the DSIR selection step): keep
    a row iff ``md5_frac(key) < sigmoid(score / temperature)`` — rows with
    higher scores survive with higher probability, yet the decision is a
    pure function of (key, score), so it is reproducible across runs,
    engines and data orderings and exactly SQL-checkable.  Lower
    ``temperature`` sharpens selection toward high scorers.  NaN/null
    scores are dropped (sigmoid(NaN) compares false).  Embarrassingly
    parallel ``map_batches`` — no shuffle at any scale."""
    def keep(t: pa.Table) -> pa.Table:
        frac = md5_bucket(t.column(key_col)).astype(np.float64) / 4294967296.0
        s = t.column(score_col).to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            p = 1.0 / (1.0 + np.exp(-s / temperature))
        mask = frac < p
        return t.filter(pa.array(np.where(np.isnan(p), False, mask)))

    return ds.map_batches(keep, batch_format="pyarrow")


def deterministic_shuffle(ds, key_col: str, out_col: str = "shuffle_pos"):
    """Reproducible global shuffle for training export: every row gets an
    EXACT position in the order ``(md5_bucket(key), key)`` — statistically
    random with respect to any natural ordering, yet identical across
    runs, engines, and cluster layouts (``random_shuffle`` is none of
    those).  One :func:`global_row_number` range exchange;
    requires unique keys (ranks are ill-defined otherwise)."""
    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__shuffle_bucket", pa.array(md5_bucket(t.column(key_col)), pa.int64())
        )

    ranked = global_row_number(
        ds.map_batches(add_bucket, batch_format="pyarrow"),
        "__shuffle_bucket", key_col, out_col=out_col,
    )
    return ranked.map_batches(
        lambda t: t.drop_columns(["__shuffle_bucket"]), batch_format="pyarrow"
    )


def stratified_sample(ds, strata_col: str, id_col: str, rates: dict,
                      buckets: int = 1000, default_rate: float = 0.0):
    """Deterministic per-stratum hash sample: a row of stratum ``s`` is kept
    iff ``md5_bucket(id) % buckets < round(rates[s] * buckets)`` — the
    standard way to rebalance a skewed corpus (e.g. downsample boilerplate
    pages, keep all rare-language documents) without a shuffle or an RNG.

    Strata absent from ``rates`` fall back to ``default_rate``; a null
    stratum always falls back.  Rates are quantized to 1/``buckets`` so the
    decision is integer-exact and reproducible in SQL (same md5 expression
    as :func:`hash_sample`), keeping the sample re-derivable by any engine.
    Embarrassingly parallel: one streaming ``map_batches`` pass, the rates
    dict rides in the task closure (it is a few entries, not data)."""
    strata_keys = pa.array(list(rates.keys()))
    thr_arr = np.array([int(round(r * buckets)) for r in rates.values()],
                       dtype=np.int64)
    default_thr = int(round(default_rate * buckets))

    def keep(t: pa.Table) -> pa.Table:
        b = md5_bucket(t.column(id_col))
        # vectorized dict lookup: stratum -> rates index (null on miss)
        idx = pc.index_in(t.column(strata_col), value_set=strata_keys)
        pos = idx.to_numpy(zero_copy_only=False)  # float64, NaN for misses
        miss = np.isnan(pos)
        thr = np.where(
            miss, default_thr, thr_arr[np.nan_to_num(pos).astype(np.int64)]
        )
        return t.filter(pa.array(b % buckets < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def grouped_approx_quantile(ds, group_col: str, value_col: str, q: float,
                            compression: int = 200):
    """Per-group quantile via mergeable t-digests — the grouped counterpart
    of the ``ApproxQuantile`` analyzer (``analyzers/sketches.py``).

    Exact per-group quantiles at scale would either shuffle every value by
    group or need a per-group selection pass; a t-digest is one streaming
    combiner instead: each block reduces to one ``(group, means[],
    weights[])`` digest row per LOCAL group (``#blocks × #groups`` bounded
    partials, values never leave their block), digests merge per group, and
    the quantile is read off the merged digest.  Accuracy is the digest's
    (~0.1–1% at compression 200) — the driver gate oracles it against the
    exact SQL value with a 1% bound.

    Below ``QUANTILE_DRIVER_MAX_GROUPS`` partial-digest rows the merge is
    one driver pass; above it the merge stays distributed (one
    ``shuffle.hash_exchange`` of the slim digest rows on the group).  Both
    arms read the quantiles with the same kernel, which drops null groups
    (Ray-groupby parity; SQL ``GROUP BY`` would keep them — a documented
    divergence shared with the other grouped ops).  Both arms return a Ray
    Dataset of ``[group_col, q_value]``; an empty one keeps the input's
    group type."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile q must be in [0, 1], got {q}")

    def block_digests(t: pa.Table) -> pa.Table:
        """One digest row per LOCAL group — fully vectorized (lexsort by
        (group, value), per-row k1-scale rank quantization, one ``reduceat``
        over (group, centroid) runs): no Python loop over groups or values,
        so high group density costs the same as low (the loop this replaced
        built each group's digest separately, Python-rate at dense groups —
        round-4 VERDICT watch item #2)."""
        group_type = t.schema.field(group_col).type
        if pa.types.is_dictionary(group_type):
            group_type = group_type.value_type
        empty = pa.table({
            group_col: pa.array([], group_type),
            "__means": pa.array([], pa.list_(pa.float64())),
            "__weights": pa.array([], pa.list_(pa.float64())),
        })
        g = t.column(group_col)
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        if pa.types.is_dictionary(g.type):
            g = g.cast(group_type)
        v = pc.cast(t.column(value_col), pa.float64())
        mask = pc.and_(pc.is_valid(g),
                       pc.and_(pc.is_valid(v), pc.invert(pc.is_nan(v))))
        sel = pc.fill_null(mask, False)
        if isinstance(sel, pa.ChunkedArray):
            sel = sel.combine_chunks()
        if not pc.any(sel).as_py():
            return empty
        g = g.filter(sel)
        vals = v.filter(sel).to_numpy(zero_copy_only=False)
        enc = g.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(codes)
        order = np.lexsort((vals, codes))
        codes_s, vals_s = codes[order], vals[order]
        from .ranks import _segment_starts

        idx = np.arange(n, dtype=np.int64)
        first_g = _segment_starts(codes_s)
        gstarts = np.flatnonzero(first_g)
        sizes = np.diff(np.append(gstarts, n))
        # within-group mid-rank -> k1-scale centroid id (t-digest scale fn)
        j = idx - np.repeat(gstarts, sizes)
        qmid = (j + 0.5) / np.repeat(sizes, sizes)
        k = np.floor(compression
                     * (np.arcsin(2.0 * qmid - 1.0) / np.pi + 0.5)
                     ).astype(np.int64)
        bucket = codes_s * np.int64(compression + 2) + k
        bstarts = np.flatnonzero(_segment_starts(bucket))
        counts = np.diff(np.append(bstarts, n))
        means = np.add.reduceat(vals_s, bstarts) / counts
        weights = counts.astype(np.float64)
        # list offsets: centroid-run boundaries grouped back by group code
        gb = codes_s[bstarts]
        goffs = np.append(np.flatnonzero(_segment_starts(gb)),
                          len(gb)).astype(np.int32)
        out_groups = enc.dictionary.take(
            pa.array(gb[goffs[:-1]], pa.int64()))
        return pa.table({
            group_col: out_groups,
            "__means": pa.ListArray.from_arrays(
                pa.array(goffs, pa.int32()), pa.array(means, pa.float64())),
            "__weights": pa.ListArray.from_arrays(
                pa.array(goffs, pa.int32()), pa.array(weights, pa.float64())),
        })

    def digest_quantiles(t: pa.Table) -> pa.Table:
        """Final per-group quantile over MANY groups' partial digest rows at
        once — fully vectorized: flatten every (means[], weights[]) list,
        lexsort centroids by (group, mean), then read the quantile off each
        group's weighted mid-rank CDF with gathers (the reduceat-argmin
        first-crossing trick).  Reading the quantile straight off the
        concatenated partial centroids — no intermediate re-compression —
        matches ``TDigestState.quantile``'s interpolation on the same
        centroid set and is strictly no less accurate than merge-compress;
        per group this holds ≤ #blocks-containing-group × compression
        centroids, the same rows the merge already shuffles."""
        g = t.column(group_col)
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        means_l = t.column("__means").combine_chunks()
        weights_l = t.column("__weights").combine_chunks()
        lens = pc.list_value_length(means_l).to_numpy(zero_copy_only=False)
        lens = np.nan_to_num(lens).astype(np.int64)
        enc = g.dictionary_encode()
        # null groups drop (Ray-groupby parity, documented divergence)
        keep_rows = pc.is_valid(enc.indices).to_numpy(zero_copy_only=False)
        row_codes = enc.indices.to_numpy(zero_copy_only=False)
        codes = np.repeat(np.nan_to_num(row_codes).astype(np.int64), lens)
        keep = np.repeat(keep_rows, lens)
        m = means_l.flatten().to_numpy(zero_copy_only=False)[keep]
        w = weights_l.flatten().to_numpy(zero_copy_only=False)[keep]
        codes = codes[keep]
        n = len(codes)
        if n == 0:
            return pa.table(
                {group_col: pa.array([], enc.dictionary.type),
                 "q_value": pa.array([], pa.float64())}
            )
        order = np.lexsort((m, codes))
        codes, m, w = codes[order], m[order], w[order]
        from .ranks import _segment_starts

        gstarts = np.flatnonzero(_segment_starts(codes))
        sizes = np.diff(np.append(gstarts, n))
        ends = gstarts + sizes
        cum = np.cumsum(w)
        base = cum[gstarts] - w[gstarts]
        cummid = cum - np.repeat(base, sizes) - w / 2.0
        totals = cum[ends - 1] - base
        target = q * totals
        idx = np.arange(n, dtype=np.int64)
        # first centroid whose mid-rank >= target, per group (np.interp edge
        # semantics: clamp below first / above last mid-rank)
        cand = np.where(cummid >= np.repeat(target, sizes), idx, n)
        first_ge = np.minimum.reduceat(cand, gstarts)
        no_hit = first_ge >= ends
        lo = np.clip(first_ge - 1, gstarts, ends - 1)
        hi = np.minimum(np.maximum(first_ge, gstarts), ends - 1)
        denom = cummid[hi] - cummid[lo]
        frac = np.where(denom > 0,
                        (target - cummid[lo]) / np.where(denom == 0, 1, denom),
                        0.0)
        qv = m[lo] + frac * (m[hi] - m[lo])
        qv = np.where(first_ge <= gstarts, m[gstarts], qv)
        qv = np.where(no_hit, m[ends - 1], qv)
        out_groups = enc.dictionary.take(pa.array(codes[gstarts], pa.int64()))
        return pa.table({group_col: out_groups,
                         "q_value": pa.array(qv, pa.float64())})

    partials = ds.map_batches(
        block_digests, batch_format="pyarrow", batch_size=None
    ).materialize()  # combiner-bounded; consumed once below
    if partials.count() <= QUANTILE_DRIVER_MAX_GROUPS:
        from ..util import collect_arrow

        out = collect_arrow(partials)
        if out is not None:
            out = digest_quantiles(out)
            out = out.take(pc.sort_indices(
                out, sort_keys=[(group_col, "ascending")]))
        return _from_driver_table(out, [group_col, "q_value"], ds,
                                  {"q_value": pa.float64()})
    return _distributed_quantile_merge(partials, group_col, digest_quantiles)


def _distributed_quantile_merge(partials, group_col, digest_quantiles):
    """Merge the digest rows on ``shuffle.hash_exchange`` keyed on the group
    (corpus-cardinality keys — Ray's per-group map_groups would pay
    ~100 µs/group): each fold holds whole groups, and the SAME vectorized
    multi-group ``digest_quantiles`` kernel folds each bucket once."""
    from ..functions.shuffle import hash_exchange

    return hash_exchange(partials, [group_col], digest_quantiles)


def reservoir_sample(ds, group_col: str, id_col: str, k: int, extra_cols=()):
    """Deterministic k-per-group sample ("seeded reservoir"): within each
    group keep the ``k`` rows with the smallest ``md5_bucket(id)`` (ties by
    ascending id) — per-group downsampling with a FIXED quota, where
    :func:`stratified_sample` keeps a fixed RATE.  Hash ranking makes the
    sample stable across runs/engines and exactly SQL-reproducible
    (``row_number() OVER (PARTITION BY g ORDER BY md5-expr, id)``), so a
    resumed 100-TB pipeline re-derives the same sample without stored
    state.  Scale shape is inherited from :func:`grouped_top_k`:
    per-block combiner → bounded partials → driver merge below the row
    gate, distributed hash-exchange merge above it."""
    def add_rank(t: pa.Table) -> pa.Table:
        # negative ⇒ grouped_top_k's ORDER DESC becomes hash ASC
        return t.append_column(
            "__rank", pa.array(-md5_bucket(t.column(id_col)), type=pa.int64())
        )

    from ..util import map_typed

    return map_typed(grouped_top_k(
        map_typed(ds, add_rank), group_col, "__rank", k, tie_col=id_col,
        extra_cols=extra_cols), lambda t: t.drop_columns(["__rank"]))


def _corpus_tdigest(ds, value_col: str, compression: int = 200):
    """ONE streaming pass: per-block t-digests over ``value_col`` (NaN
    dropped), #blocks digest rows merged on the driver.  Returns a
    ``TDigestState`` (empty if the dataset has no values) — shared by
    ``quantile_buckets(approx=True)`` and ``percentile_rank``."""
    from ..analyzers.sketches import TDigestState
    from ..util import collect_arrow

    def block_digest(t: pa.Table) -> pa.Table:
        if value_col not in t.column_names or len(t) == 0:
            return pa.table({"m": pa.array([], pa.list_(pa.float64())),
                             "w": pa.array([], pa.list_(pa.float64()))})
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        st = TDigestState.from_values(v, compression=compression)
        return pa.table({"m": pa.array([list(st.means)], pa.list_(pa.float64())),
                         "w": pa.array([list(st.weights)], pa.list_(pa.float64()))})

    rows = collect_arrow(
        ds.map_batches(block_digest, batch_format="pyarrow", batch_size=None)
    )
    st = None
    if rows is not None:
        for m, w in zip(rows.column("m").to_pylist(), rows.column("w").to_pylist()):
            nxt = TDigestState(tuple(m), tuple(w), compression)
            st = nxt if st is None else st.sum(nxt)
    return st if st is not None else TDigestState((), (), compression)


def quantile_buckets(ds, value_col: str, out_col: str = "bucket",
                     n_buckets: int = 10, keep_cols=None, approx: bool = False):
    """Quantile-bucket assignment ("quality deciles"): label every row with
    the number of exact ``i/n_buckets`` quantile breakpoints ≤ its value —
    the curriculum/mixture primitive that stratifies a corpus by a quality
    score before sampling.

    The n−1 breakpoints come from the exact distributed ``Quantile``
    analyzer (histogram-refinement selection, no global sort), all sharing
    ONE scan via ``do_analysis_run``; they broadcast in the task closure
    (n−1 floats) and assignment is a vectorized ``searchsorted`` per batch.
    Bucket semantics are SQL-exact: ``count(bp WHERE bp <= value)`` (ties
    with a breakpoint land in the upper bucket; a NULL value gets bucket 0,
    matching SQL comparison semantics).

    The exact path still pays each quantile's refinement sub-passes —
    fine for a handful of breakpoints, wasteful for many.  ``approx=True``
    is the 100-TB path: ONE streaming pass builds per-block t-digests,
    the #blocks digest rows merge on the driver, and all n−1 breakpoints
    read off the merged digest (~0.1–1% rank error at compression 200,
    same digest as ``ApproxQuantile``)."""
    import numpy as np

    if n_buckets < 2:
        raise ValueError(f"n_buckets must be >= 2, got {n_buckets}")
    qs = [i / n_buckets for i in range(1, n_buckets)]
    if approx:
        st = _corpus_tdigest(ds, value_col)
        bps = np.sort(np.array([st.quantile(q) for q in qs], dtype=np.float64))
    else:
        from ..analyzers.quantile import Quantile
        from ..runner import do_analysis_run

        analyzers = [Quantile(value_col, q) for q in qs]
        ctx = do_analysis_run(ds, analyzers)
        bps = np.sort(
            np.array([ctx.metric_map[a].value.get() for a in analyzers],
                     dtype=np.float64)
        )
    cols = list(keep_cols) if keep_cols is not None else None

    def assign(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.searchsorted(bps, v, side="right")
        b = np.where(np.isnan(v), 0, b).astype(np.int64)
        base = t.select(cols) if cols is not None else t
        return base.append_column(out_col, pa.array(b, pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")


def pivot_counts(ds, row_col: str, col_col: str, max_cols: int = 1000,
                 prefix: str = "n_"):
    """Crosstab: one output row per ``row_col`` value with one int64 count
    column per distinct ``col_col`` value (``prefix<value>``, value-sorted)
    — the wide feature matrix a mixture/balance dashboard reads.

    Two passes: (1) the distinct column-key set (must be SMALL — it
    becomes the schema; ``max_cols`` guards against exploding) via a
    distributive count shuffle; (2) per-block vectorized bincount over
    ``row×col`` codes → wide partial rows → ``groupby(row).sum`` over the
    fixed columns.  Count volume shrinks per block before the one
    shuffle.  Null column keys are not counted (SQL ``CASE WHEN`` /
    ``PIVOT`` convention); null row keys are dropped by the groupby
    (documented divergence shared with the other grouped ops)."""
    import ray.data as rd

    from ..functions.shuffle import tree_distinct, tree_group_sum
    from ..util import collect_arrow

    vals_tbl = collect_arrow(
        tree_distinct(
            ds.map_batches(lambda t: t.select([col_col]),
                           batch_format="pyarrow"),
            [col_col])
    )
    if vals_tbl is None or len(vals_tbl) == 0:
        return rd.from_arrow(pa.table({row_col: pa.array([])}))
    col_vals = vals_tbl.column(col_col).combine_chunks()
    col_vals = col_vals.take(pa.array(np.argsort(
        np.asarray(col_vals.to_pylist(), dtype=object), kind="stable"
    ).astype(np.int64)))
    if len(col_vals) > max_cols:
        raise ValueError(
            f"pivot_counts: {len(col_vals)} distinct {col_col!r} values "
            f"exceed max_cols={max_cols} — a pivot schema this wide is "
            "almost certainly a mistake; aggregate long-form instead"
        )
    out_names = [f"{prefix}{v}" for v in col_vals.to_pylist()]
    ncols = len(out_names)

    def block_counts(t: pa.Table) -> pa.Table:
        rows = t.column(row_col)
        if isinstance(rows, pa.ChunkedArray):
            rows = rows.combine_chunks()
        cidx = pc.index_in(t.column(col_col), value_set=col_vals)
        cnp = cidx.to_numpy(zero_copy_only=False).astype(np.float64)
        enc = rows.dictionary_encode()
        rnp = enc.indices.to_numpy(zero_copy_only=False).astype(np.float64)
        valid = ~np.isnan(cnp) & ~np.isnan(rnp)  # null col OR row key: skip
        nrows = len(enc.dictionary)
        sel = np.flatnonzero(valid)
        if sel.size:
            codes = rnp[sel].astype(np.int64) * ncols + cnp[sel].astype(np.int64)
            flat = np.bincount(codes, minlength=nrows * ncols)
        else:
            flat = np.zeros(nrows * ncols, dtype=np.int64)
        mat = flat.reshape(nrows, ncols)
        cols = {row_col: enc.dictionary}
        for j, nm in enumerate(out_names):
            cols[nm] = pa.array(mat[:, j], pa.int64())
        return pa.table(cols)

    agg = tree_group_sum(
        ds.map_batches(block_counts, batch_format="pyarrow"),
        [row_col], out_names)

    def rename(t: pa.Table) -> pa.Table:
        cols = {row_col: t.column(row_col)}
        for nm in out_names:
            cols[nm] = pc.cast(t.column(nm), pa.int64())
        return pa.table(cols)

    return agg.map_batches(rename, batch_format="pyarrow")


def funnel_counts(ds, key_col: str, ts_col: str, step_col: str, steps):
    """Ordered-funnel analysis: how many keys (users) completed step 1,
    then step 2 STRICTLY AFTER their first step-1 completion, and so on —
    the product-analytics "conversion funnel" with first-touch semantics.

    Iterative composition of the engine's own primitives, K−1 rounds for
    K steps: the per-key first-completion table of step i−1 (slim
    ``(key, t)`` rows, materialized) hash-joins (:func:`~hooqu_ray.
    functions.joins.hash_join`) onto the step-i events, a vectorized
    filter keeps ``ts > t``, and a ``tree_group_sum`` min yields the next
    table.  Only per-key and per-step-event rows ever move; nothing
    collects on the driver.  A null key counts as one key at step 1 (SQL
    GROUP BY) and never matches a later step's join.  Returns a small
    Arrow table ``(step_idx, step, n_keys)``."""
    from ..functions.joins import hash_join
    from ..functions.shuffle import tree_group_sum

    if not steps:
        raise ValueError("funnel_counts: steps must be non-empty")
    # each step re-consumes the input — materialize the slim 3-column
    # projection ONCE so a derived lineage is not re-executed per step
    ds = ds.map_batches(
        lambda t: t.select([key_col, ts_col, step_col])
        if step_col in t.column_names else t,
        batch_format="pyarrow",
    ).materialize()

    def only(step):
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t.column(step_col), step)).select(
                [key_col, ts_col]
            )
        return f

    def first_touch(events):
        return tree_group_sum(events, [key_col], [ts_col], funcs=["min"],
                              drop_null_keys=False).map_batches(
            lambda t: t.rename_columns([key_col, "__t"]),
            batch_format="pyarrow").materialize()

    prev = first_touch(ds.map_batches(only(steps[0]), batch_format="pyarrow"))
    counts = [prev.count()]
    for step in steps[1:]:
        if counts[-1] == 0:
            counts.append(0)
            continue
        evs = ds.map_batches(only(step), batch_format="pyarrow")
        joined = hash_join(evs, prev, on=key_col, how="inner")

        def after(t: pa.Table) -> pa.Table:
            return t.filter(pc.greater(t.column(ts_col), t.column("__t")))

        prev = first_touch(joined.map_batches(after, batch_format="pyarrow"))
        counts.append(prev.count())
    return pa.table(
        {
            "step_idx": pa.array(range(1, len(steps) + 1), pa.int64()),
            "step": pa.array([str(s) for s in steps], pa.string()),
            "n_keys": pa.array(counts, pa.int64()),
        }
    )


def grouped_count_distinct(ds, group_col: str, value_col: str):
    """EXACT distinct-value count per group (``count(DISTINCT v) GROUP BY
    g``) — the grouped counterpart of the ``CountDistinct`` analyzer.

    Combiner-first: each block reduces to its distinct ``(group, value)``
    pairs via dictionary-code run counting (no Python per row), then two
    slim BUCKETED hash exchanges (``shuffle.bucketed_group_fold`` — pair
    cardinality is corpus-like, exactly where Ray's sort-based groupby
    pays ~5 µs/row) finish globally: a fold keyed on the pair dedupes
    across blocks (bucketing by the pair hash also spreads a hot GROUP
    over buckets), and a fold keyed on the group counts the surviving
    pairs.  Only distinct-pair rows move; for an APPROXIMATE one-shuffle
    answer at extreme pair cardinality use per-group HLL sketches instead
    (``analyzers/sketches.py``).  Null values are not counted (SQL
    ``count(DISTINCT)``); null groups are dropped
    (documented divergence shared with the other grouped ops)."""
    from ..functions.shuffle import bucketed_group_fold

    def distinct_pairs(t: pa.Table) -> pa.Table:
        g = t.column(group_col)
        v = t.column(value_col)
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        keep = pc.is_valid(v)
        g, v = g.filter(keep), v.filter(keep)
        if len(g) == 0:
            return pa.table({group_col: g.slice(0, 0), value_col: v.slice(0, 0)})
        genc = g.dictionary_encode()
        venc = v.dictionary_encode()
        gi = genc.indices.to_numpy(zero_copy_only=False).astype(np.float64)
        vi = venc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((vi, gi))
        gs, vs = gi[order], vi[order]
        first = np.r_[True, (gs[1:] != gs[:-1]) | (vs[1:] != vs[:-1])]
        sel = order[first]
        idx = pa.array(sel, pa.int64())
        return pa.table({group_col: g.take(idx), value_col: v.take(idx)})

    def ones(t: pa.Table) -> pa.Table:
        return t.append_column("__one", pa.array(np.ones(len(t), np.int64)))

    deduped = bucketed_group_fold(
        ds.map_batches(distinct_pairs, batch_format="pyarrow")
        .map_batches(ones, batch_format="pyarrow"),
        [group_col, value_col], ["__one"], ["sum"], drop_null_keys=True)

    def pair_to_one(t: pa.Table) -> pa.Table:
        return pa.table({group_col: t.column(group_col)}).append_column(
            "__one", pa.array(np.ones(len(t), np.int64)))

    agg = bucketed_group_fold(
        deduped.map_batches(pair_to_one, batch_format="pyarrow"),
        [group_col], ["__one"], ["sum"], drop_null_keys=True)

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                group_col: t.column(group_col),
                "n_distinct": pc.cast(t.column("__one"), pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def global_row_number(ds, order_col: str, tie_col: str,
                      out_col: str = "row_number", descending: bool = False):
    """EXACT global ``row_number() OVER (ORDER BY order_col, tie_col)`` —
    the distributed total-order rank Ray Data has no native form of.

    Shape: one range exchange on ``(order_col, tie_col)``
    (``shuffle.range_exchange``): its blocks are sorted ranges, and each
    range's fold receives the row count of all earlier ranges, so the
    rank is that count plus the local row index.  Nothing but the
    exchange's sample and per-range counts reaches the driver.  Nulls
    sort last and NaN above every number, in either direction, as in
    SQL (DuckDB).  ``tie_col`` should be unique: rows equal on both
    columns get consecutive ranks in input order."""
    from ..functions.shuffle import range_exchange

    order = "descending" if descending else "ascending"

    def number(t: pa.Table, before: int) -> pa.Table:
        return t.append_column(out_col, pa.array(
            np.arange(before + 1, before + 1 + len(t), dtype=np.int64)))

    return range_exchange(ds, [(order_col, order), (tie_col, order)], number)


def percentile_rank(ds, value_col: str, out_col: str = "pct_rank",
                    keep_cols=None, compression: int = 200):
    """Streaming APPROXIMATE percentile rank per row (the fraction of
    corpus values <= this row's value) — the one-pass scale path where
    :func:`global_row_number` is the exact two-pass one.

    Pass 1 builds per-block t-digests (the ``quantile_buckets``
    ``approx=True`` machinery) and merges #blocks digest rows on the
    driver; the merged digest broadcasts in the task closure and pass 2
    reads each row's rank off the digest CDF with one vectorized
    ``np.interp``.  Rank error is the digest's (~0.1–1% at compression
    200).  NULL/NaN values get NaN rank."""
    st = _corpus_tdigest(ds, value_col, compression)
    means = np.asarray(st.means, dtype=np.float64)
    weights = np.asarray(st.weights, dtype=np.float64)
    total = weights.sum() if weights.size else 1.0
    # CDF: centroid i's mean sits at cumulative weight (cum_i - w_i/2)
    cum = (np.cumsum(weights) - weights / 2.0) / total if weights.size else np.array([])
    cols = list(keep_cols) if keep_cols is not None else None

    def assign(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        if means.size:
            r = np.interp(v, means, cum, left=0.0, right=1.0)
        else:
            r = np.full(len(v), np.nan)
        r = np.where(np.isnan(v), np.nan, r)
        base = t.select(cols) if cols is not None else t
        return base.append_column(out_col, pa.array(r, pa.float64()))

    return ds.map_batches(assign, batch_format="pyarrow")


def grouped_zscore(ds, group_col: str, value_col: str, out_col: str = "zscore"):
    """Per-group standardization: ``(v − mean_g) / std_g`` with the POPULATION
    std per group — SQL ``(v - AVG(v) OVER (PARTITION BY g)) /
    STDDEV_POP(v) OVER (PARTITION BY g)`` — the feature-normalization pass
    of a training-data pipeline (per-source quality-score calibration).

    Two passes, no row shuffle: a combiner reduces each block to per-group
    ``(n, Σv, Σv²)`` partials (Arrow ``group_by``, zero Python per row), one
    slim ``tree_group_sum`` folds them, and the #groups-row stats table
    broadcasts back through :func:`hooqu_ray.functions.joins.enrich_join`
    (``ray.put`` once, vectorized ``index_in`` lookup per batch — the fact
    rows never move).  The stats table must fit on the driver: it is one
    row per GROUP (sources, languages, shards — not rows); at extreme group
    cardinality shard the stats by group-hash range (``util.ShardFilter``)
    and union per-shard stamped passes.

    Null semantics match SQL: null values get a null z and don't contribute
    to the moments; a zero std (constant group) or a group with no valid
    values yields null.  A null group never matches the stats table, so
    its rows get a null z."""
    from ..functions.joins import enrich_join
    from ..functions.shuffle import tree_group_sum

    def partials(t: pa.Table) -> pa.Table:
        v = pc.cast(t.column(value_col), pa.float64())
        return pa.table(
            {
                group_col: t.column(group_col),
                "__v": v,
                "__v2": pc.multiply(v, v),
                "__n": pc.cast(pc.is_valid(v), pa.int64()),
            }
        )

    stats = tree_group_sum(ds.map_batches(partials, batch_format="pyarrow"),
                           [group_col], ["__v", "__v2", "__n"],
                           drop_null_keys=True)

    def finish_stats(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("__n"), pa.float64())
        # groups with no valid values: null mean/std → null z downstream
        n_safe = pc.if_else(pc.greater(n, 0.0), n, pa.scalar(None, pa.float64()))
        mean = pc.divide(t.column("__v"), n_safe)
        var = pc.subtract(
            pc.divide(t.column("__v2"), n_safe), pc.multiply(mean, mean)
        )
        std = pc.sqrt(pc.max_element_wise(var, pa.scalar(0.0, pa.float64())))
        return pa.table({group_col: t.column(group_col), "__mean": mean, "__std": std})

    stats_ds = stats.map_batches(finish_stats, batch_format="pyarrow")
    enriched = enrich_join(
        ds, stats_ds, on=group_col, dim_key=group_col, cols=["__mean", "__std"]
    )

    def stamp(t: pa.Table) -> pa.Table:
        v = pc.cast(t.column(value_col), pa.float64())
        std = t.column("__std")
        std_safe = pc.if_else(
            pc.greater(std, 0.0), std, pa.scalar(None, pa.float64())
        )
        z = pc.divide(pc.subtract(v, t.column("__mean")), std_safe)
        return t.drop_columns(["__mean", "__std"]).append_column(out_col, z)

    return enriched.map_batches(stamp, batch_format="pyarrow")


def grouped_approx_count_distinct(ds, group_col: str, value_col: str,
                                  p: int = 12):
    """APPROXIMATE distinct-value count per group — per-group HyperLogLog,
    the one-shuffle scale path :func:`grouped_count_distinct`'s docstring
    points at (exact pairs shuffle O(#distinct pairs); this shuffles at
    most ``#groups × 2^p`` slim register rows no matter how many distinct
    values exist — ~1.6 % error at the default p=12).

    Everything is algebraic, so the whole estimate is TWO Ray aggregates
    and zero ``map_groups``: blocks combine to per-(group, register) max
    ranks (Arrow ``group_by``), one shuffle folds registers globally, a
    second groupby folds each group's registers to ``(Σ 2^−rank,
    #registers-present)`` — the only two numbers the HLL estimator needs
    (absent registers contribute ``2^0`` each, zeros = m − present).
    Values hash via the same vectorized polars path as the global HLL
    sketch (``analyzers/sketches._hash64``).  Null values don't count;
    null groups are dropped (divergence shared with the grouped ops)."""

    from ..analyzers.sketches import _hash64

    m = 1 << p
    if not 4 <= p <= 16:
        raise ValueError(f"grouped_approx_count_distinct: p must be in [4,16], got {p}")

    def register_partials(t: pa.Table) -> pa.Table:
        g = t.column(group_col)
        v = t.column(value_col)
        keep = pc.and_(pc.is_valid(g), pc.is_valid(v))
        g, v = g.filter(keep), v.filter(keep)
        if len(g) == 0:
            return pa.table(
                {
                    group_col: g.slice(0, 0),
                    "__reg": pa.array([], pa.int64()),
                    "__rank": pa.array([], pa.int64()),
                }
            )
        h = _hash64(v if not isinstance(v, pa.ChunkedArray) else v.combine_chunks())
        reg = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
        from ..analyzers.sketches import _floor_log2

        rank = (64 - _floor_log2(rest)).astype(np.int64)  # in [1, 64-p+1]
        sub = pa.table(
            {group_col: g, "__reg": pa.array(reg), "__rank": pa.array(rank)}
        )
        return group_by(sub, [group_col, "__reg"], [("__rank", "max")])

    from ..functions.shuffle import tree_group_sum

    folded = tree_group_sum(
        ds.map_batches(register_partials, batch_format="pyarrow"),
        [group_col, "__reg"], ["__rank_max"], funcs=["max"])

    def pow2neg(t: pa.Table) -> pa.Table:
        rank = pc.cast(t.column("__rank_max"), pa.float64())
        w = pc.power(pa.scalar(2.0, pa.float64()), pc.negate(rank))
        return pa.table({group_col: t.column(group_col), "__w": w,
                         "__pres": pa.array(np.ones(len(t), np.int64))})

    per_group = tree_group_sum(
        folded.map_batches(pow2neg, batch_format="pyarrow"),
        [group_col], ["__w", "__pres"])

    def estimate(t: pa.Table) -> pa.Table:
        if "__pres" not in t.column_names:
            return pa.table(
                {group_col: pa.array([]), "approx_distinct": pa.array([], pa.int64())}
            )
        s = t.column("__w").to_numpy(zero_copy_only=False).astype(np.float64)
        present = t.column("__pres").to_numpy(zero_copy_only=False).astype(np.int64)
        alpha = 0.7213 / (1 + 1.079 / m)
        denom = s + (m - present)  # absent registers each add 2^0
        e = alpha * m * m / denom
        zeros = m - present  # present registers always have rank ≥ 1
        small = (e <= 2.5 * m) & (zeros > 0)
        with np.errstate(divide="ignore"):
            lin = m * np.log(np.where(zeros > 0, m / np.maximum(zeros, 1), 1.0))
        e = np.where(small, lin, e)
        return pa.table(
            {
                group_col: t.column(group_col),
                "approx_distinct": pa.array(np.rint(e).astype(np.int64)),
            }
        )

    return per_group.map_batches(estimate, batch_format="pyarrow")


def pack_sequences(ds, id_col: str, tokens_col: str, max_len: int):
    """GPT-style sequence packing layout: documents are concatenated in
    deterministic ``id_col`` order into one global token stream and cut
    into fixed ``max_len``-token training sequences; each document maps to
    its token interval.  Returns one row per document:
    ``(id, n_tokens, token_start, seq_start, seq_end, n_seqs)`` where
    ``seq_* = token offset // max_len`` (a document spanning a cut appears
    in ``n_seqs = seq_end − seq_start + 1`` consecutive sequences; an
    empty document sits entirely at its offset's sequence).

    This is the planning table a pack-and-write stage consumes — it says
    exactly which documents (and which token slices of them) each training
    sequence needs, so sequence shards can be written independently.

    Shape = :func:`global_row_number` with token sums instead of row
    counts: one range exchange on ``id_col`` whose folds receive the
    ``tokens_col`` total of all earlier ranges, so a fold's exclusive
    cumsum plus that total is each document's global offset.  ``id_col``
    must be unique and non-null; negative or null token counts are an
    error upstream (counts come from ``textstats.token_count_stage``)."""
    from ..functions.shuffle import range_exchange

    if max_len < 1:
        raise ValueError(f"pack_sequences: max_len must be ≥ 1, got {max_len}")

    def assign(t: pa.Table, base: int) -> pa.Table:
        n = t.column(tokens_col).to_numpy(zero_copy_only=False).astype(np.int64)
        end = base + np.cumsum(n)
        start = end - n
        seq_start = start // max_len
        seq_end = np.where(n > 0, (end - 1) // max_len, seq_start)
        return pa.table(
            {
                id_col: t.column(id_col),
                tokens_col: pa.array(n),
                "token_start": pa.array(start),
                "seq_start": pa.array(seq_start),
                "seq_end": pa.array(seq_end),
                "n_seqs": pa.array(seq_end - seq_start + 1),
            }
        )

    return range_exchange(ds, [(id_col, "ascending")], assign,
                          pre=lambda t: t.select([id_col, tokens_col]),
                          weight=tokens_col)


def mix_sources(ds, source_col: str, id_col: str, tokens_col: str,
                budgets: "Optional[dict]" = None, default_budget: int = 0):
    """Deterministic data-MIXING executor: per source, keep documents in
    md5(id)-rank order while the source's running token total stays within
    its budget — the selection step that turns a mixture plan (per-source
    token budgets, cf. ``textstats.split_token_budget``) into an actual
    training subset, reproducible across runs and cluster sizes.

    Shape: stamp an ``md5_bucket`` rank (SQL-reproducible, see that
    docstring), then ONE :func:`~hooqu_ray.pipelines.windows.running_agg`
    (one hash exchange on the source + a vectorized cumsum over each
    source's rank-sorted rows) gives each document its inclusive
    per-source running token count; a
    vectorized broadcast-budget filter keeps rows with ``cum ≤ budget``.
    Budgets are a tiny driver-side dict (#sources entries, shipped in the
    task closure); sources absent from ``budgets`` get ``default_budget``
    (0 ⇒ dropped).  A document whose tokens alone overflow the remaining
    budget is dropped and so is everything after it in rank order — the
    greedy prefix rule, exactly SQL's ``cum <= budget`` on the UNBOUNDED
    PRECEDING window.  Returns ``(id_col, source_col, cum_tokens)``."""
    from .windows import running_agg

    budgets = dict(budgets or {})

    def stamp(t: pa.Table) -> pa.Table:
        sub = t.select([source_col, id_col, tokens_col])
        return sub.append_column(
            "__rank", pa.array(md5_bucket(t.column(id_col)), pa.int64())
        )

    ranked = ds.map_batches(stamp, batch_format="pyarrow")
    run = running_agg(ranked, source_col, "__rank", id_col, tokens_col)

    def keep(t: pa.Table) -> pa.Table:
        src = t.column(source_col)
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        enc = src.dictionary_encode()
        lut = np.array(
            [float(budgets.get(v, default_budget)) for v in enc.dictionary.to_pylist()],
            dtype=np.float64,
        )
        bud = lut[enc.indices.to_numpy(zero_copy_only=False)]
        cum = t.column("run_sum").to_numpy(zero_copy_only=False)
        kept = t.filter(pa.array(cum <= bud))
        return pa.table(
            {
                id_col: kept.column(id_col),
                source_col: kept.column(source_col),
                "cum_tokens": pc.cast(kept.column("run_sum"), pa.int64()),
            }
        )

    return run.map_batches(keep, batch_format="pyarrow")


def grouped_minmax(ds, group_col: str, value_col: str,
                   out_col: str = "minmax"):
    """Per-group min-max scaling to [0, 1]: ``(v − min_g) / (max_g −
    min_g)`` — the bounded companion of :func:`grouped_zscore`, same shape:
    a per-block Arrow ``group_by`` min/max combiner, one slim
    ``tree_group_sum`` min/max fold, and a broadcast ``enrich_join`` stamp
    (fact rows never shuffle; #groups-row stats table, shard by group-hash
    range at extreme cardinality).  Null values get a null output and don't
    contribute to the extrema; a constant group (range 0) or an all-null
    group yields null — SQL ``NULLIF(max − min, 0)`` semantics.  A null
    group never matches the stats table, so its rows get a null output."""
    from ..functions.joins import enrich_join
    from ..functions.shuffle import tree_group_sum

    def partials(t: pa.Table) -> pa.Table:
        v = pc.cast(t.column(value_col), pa.float64())
        return pa.table({group_col: t.column(group_col), "__lo": v, "__hi": v})

    stats = tree_group_sum(ds.map_batches(partials, batch_format="pyarrow"),
                           [group_col], ["__lo", "__hi"], funcs=["min", "max"],
                           drop_null_keys=True)

    def finish_stats(t: pa.Table) -> pa.Table:
        lo = t.column("__lo")
        rng = pc.subtract(t.column("__hi"), lo)
        rng = pc.if_else(
            pc.greater(rng, 0.0), rng, pa.scalar(None, pa.float64())
        )
        return pa.table({group_col: t.column(group_col), "__lo": lo, "__rng": rng})

    stats_ds = stats.map_batches(finish_stats, batch_format="pyarrow")
    enriched = enrich_join(
        ds, stats_ds, on=group_col, dim_key=group_col, cols=["__lo", "__rng"]
    )

    def stamp(t: pa.Table) -> pa.Table:
        v = pc.cast(t.column(value_col), pa.float64())
        scaled = pc.divide(pc.subtract(v, t.column("__lo")), t.column("__rng"))
        return t.drop_columns(["__lo", "__rng"]).append_column(out_col, scaled)

    return enriched.map_batches(stamp, batch_format="pyarrow")


def rollup_agg(ds, group_cols, value_col: str, sentinel: str = "ALL"):
    """Multi-level aggregation — SQL ``GROUP BY ROLLUP(g1, .., gk)``: one
    row per group at EVERY prefix level (g1..gk, g1..g(k-1), .., grand
    total), with rolled-up columns set to ``sentinel`` and a ``level``
    column (number of grouping columns kept, ROLLUP's ``k - GROUPING(..)``).

    Scale shape: the raw data is reduced ONCE — one ``tree_group_sum``
    (per-block Arrow combine, then one hash exchange) builds the finest-grain
    aggregate; every coarser level re-folds THAT (sums and counts
    compose), so levels k-1..1 cost folds of the finest aggregate's
    cardinality, never a second pass over the input.  Group columns are
    emitted as strings (the sentinel must share a type with real values);
    a null group key is its own group (SQL ROLLUP), distinguishable from
    the sentinel.

    Returns a Dataset with columns ``g1..gk`` (string), ``level`` (int64),
    ``sum_value`` (float64) and ``n`` (int64)."""
    import ray.data as rd

    from ..functions.shuffle import tree_group_sum

    group_cols = list(group_cols)
    if not group_cols:
        raise ValueError("rollup_agg: need at least one group column")

    def project(t: pa.Table) -> pa.Table:
        cols = {c: pc.cast(t.column(c), pa.string()) for c in group_cols}
        v = pc.cast(t.column(value_col), pa.float64())
        cols["__sum"] = v
        cols["__n"] = pc.cast(pc.is_valid(v), pa.int64())
        return pa.table(cols)

    finest = tree_group_sum(ds.map_batches(project, batch_format="pyarrow"),
                            group_cols, ["__sum", "__n"], drop_null_keys=False)

    def _finish(keep_cols):
        """Stamp the level + sentinel fills on one level's fold."""

        def f(t: pa.Table) -> pa.Table:
            n = len(t)
            cols = {}
            for c in group_cols:
                if c in keep_cols:
                    cols[c] = t.column(c)
                else:
                    cols[c] = pa.array([sentinel] * n, pa.string())
            cols["level"] = pa.array([len(keep_cols)] * n, pa.int64())
            cols["sum_value"] = t.column("__sum")
            cols["n"] = t.column("__n")
            return pa.table(cols)

        return f

    out = finest.map_batches(_finish(group_cols), batch_format="pyarrow")
    # coarser levels re-fold the (small) finest aggregate
    for i in range(len(group_cols) - 1, 0, -1):
        lvl = tree_group_sum(finest, group_cols[:i], ["__sum", "__n"],
                             drop_null_keys=False)
        out = out.union(
            lvl.map_batches(_finish(group_cols[:i]), batch_format="pyarrow"))
    # grand total: driver fold of the (tiny) finest aggregate
    tot = finest.sum(["__sum", "__n"]) or {"sum(__sum)": 0.0, "sum(__n)": 0}
    grand = pa.table(
        {
            **{c: pa.array([sentinel], pa.string()) for c in group_cols},
            "level": pa.array([0], pa.int64()),
            "sum_value": pa.array(
                [float(tot["sum(__sum)"] or 0.0)], pa.float64()
            ),
            "n": pa.array([int(tot["sum(__n)"] or 0)], pa.int64()),
        }
    )
    return out.union(rd.from_arrow(grand))


def cohort_retention(ds, key_col: str, ts_col: str, unit: str = "month",
                     fmt: str = "%Y-%m"):
    """Cohort retention matrix: distinct active keys per (first-seen
    period, activity period) — the training-corpus freshness/retention
    report (``cohort``, ``period``, ``n_users``).  ``unit`` is any
    ``pc.floor_temporal`` unit ('day', 'week', 'month', ..; week starts
    Monday, matching SQL ``date_trunc('week', ..)``), ``fmt`` the output
    label format.

    Combiner-first and slim end-to-end: each block reduces to its distinct
    ``(key, month)`` pairs (dictionary-code lexsort, no Python per row),
    ``tree_distinct`` dedupes them globally, a ``tree_group_sum`` min
    derives each key's cohort month, the cohort is stamped back onto the
    pair rows, and a final ``tree_group_sum`` count emits the matrix.
    Only distinct pairs ever shuffle; the month is carried as an int64
    epoch value and formatted once at the end.

    The cohort stamp is size-gated: the cohort table is one row per KEY
    (unbounded on a web corpus), so at ≤ ``COHORT_BROADCAST_MAX_KEYS`` rows
    it ships once as a broadcast enrichment join, and above the gate it
    switches to the fully distributed bucketed ``hash_join`` — nothing
    key-shaped is collected to the driver on the scale path."""
    from ..functions.joins import enrich_join
    from ..functions.shuffle import tree_distinct, tree_group_sum

    def distinct_pairs(t: pa.Table) -> pa.Table:
        k = t.column(key_col)
        ts = t.column(ts_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        keep = pc.and_(pc.is_valid(k), pc.is_valid(ts))
        k, ts = k.filter(keep), ts.filter(keep)
        # normalize to µs BEFORE the int64 carry (pandas-sourced blocks
        # arrive as timestamp[ns]; the final label cast assumes µs)
        per = pc.cast(
            pc.cast(pc.floor_temporal(ts, unit=unit), pa.timestamp("us")),
            pa.int64(),
        )
        if len(k) == 0:
            return pa.table(
                {key_col: k.slice(0, 0), "__per": per.slice(0, 0)}
            )
        ki = k.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        pi = per.to_numpy(zero_copy_only=False)
        order = np.lexsort((pi, ki))
        ks, ps = ki[order], pi[order]
        first = np.r_[True, (ks[1:] != ks[:-1]) | (ps[1:] != ps[:-1])]
        sel = pa.array(order[first], pa.int64())
        return pa.table({key_col: k.take(sel), "__per": per.take(sel)})

    # materialized: consumed twice (cohort derivation + join probe)
    pairs = tree_distinct(
        ds.map_batches(distinct_pairs, batch_format="pyarrow"),
        [key_col, "__per"]).materialize()
    cohort_ds = tree_group_sum(
        pairs, [key_col], ["__per"], funcs=["min"], drop_null_keys=True,
    ).map_batches(lambda t: t.rename_columns([key_col, "__coh"]),
                  batch_format="pyarrow").materialize()
    if cohort_ds.count() <= COHORT_BROADCAST_MAX_KEYS:
        stamped = enrich_join(
            pairs, cohort_ds, on=key_col, dim_key=key_col,
            cols=["__coh"], how="inner",
        )
    else:
        from ..functions.joins import hash_join

        stamped = hash_join(pairs, cohort_ds, on=key_col, how="inner")
    matrix = tree_group_sum(
        stamped.map_batches(
            lambda t: t.select(["__coh", "__per"]).append_column(
                "__n", pa.array(np.ones(len(t), np.int64))),
            batch_format="pyarrow"),
        ["__coh", "__per"], ["__n"], drop_null_keys=True)

    def _fmt(col):
        return pc.strftime(pc.cast(col, pa.timestamp("us")), format=fmt)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort": _fmt(t.column("__coh")),
                "period": _fmt(t.column("__per")),
                "n_users": t.column("__n"),
            }
        )

    return matrix.map_batches(finish, batch_format="pyarrow")


def grouped_mode(ds, group_col: str, value_col: str, *,
                 out_col: str = "mode_value"):
    """Most frequent ``value_col`` per group (SQL ``mode()``), ties broken
    by the SMALLEST value — deterministic where SQL's mode is
    engine-arbitrary, so the result is oracle-checkable with a
    ``row_number() OVER (ORDER BY n DESC, value ASC)`` window.

    Composition of existing scale machinery: per-block Arrow
    ``group_by(group, value).count`` partials fold through
    :func:`~hooqu_ray.functions.shuffle.tree_group_sum` (per-block
    combine, then one hash exchange of the partials), then
    :func:`grouped_top_k` (k=1, order=count DESC, tie=value ASC) picks
    each group's winner in its own hash exchange.
    Null values are not counted (SQL mode ignores nulls); null groups
    drop (the grouped-op convention); groups with only null values are
    absent.  Returns a Dataset with columns (group, out_col, n)."""
    import ray.data as rd

    from ..functions.shuffle import tree_group_sum
    from ..util import dataset_arrow_schema, map_typed

    in_schema = dataset_arrow_schema(ds)
    if in_schema is None:  # zero-block input: nothing to rank
        return rd.from_arrow(pa.table({group_col: pa.array([]),
                                       out_col: pa.array([]),
                                       "n": pa.array([], pa.int64())}))
    anchor = pa.table({
        group_col: pa.array([], in_schema.field(group_col).type),
        value_col: pa.array([], in_schema.field(value_col).type),
        "__n": pa.array([], pa.int64()),
    })

    def pair_partials(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t.column(group_col)),
                       pc.is_valid(t.column(value_col)))
        sub = t.select([group_col, value_col]).filter(mask)
        return group_by(sub, [group_col, value_col], [([], "count_all")]
                        ).rename_columns([group_col, value_col, "__n"])

    # typed anchor: an empty/all-null input keeps its schema
    counts = tree_group_sum(
        ds.map_batches(pair_partials, batch_format="pyarrow"),
        [group_col, value_col], ["__n"]).union(rd.from_arrow(anchor))

    return map_typed(
        grouped_top_k(counts, group_col, "__n", 1, value_col),
        lambda t: t.rename_columns([group_col, "n", out_col]).select(
            [group_col, out_col, "n"]))


def grouped_corr(ds, group_col: str, x_col: str, y_col: str,
                 out_col: str = "corr_xy"):
    """Per-group Pearson correlation — SQL ``corr(x, y) ... GROUP BY g`` —
    the per-source / per-shard drift probe ("does quality still track
    length in this slice?") companion to the global ``Correlation``
    analyzer (``analyzers/scan.py``; Deequ has the same operator).

    One data pass, no row exchange: rows where BOTH x and y are valid
    (SQL's pairwise rule) reduce per block to per-group raw co-moment
    sums ``(n, Σx, Σy, Σx², Σy², Σxy)`` that ride
    :func:`hooqu_ray.functions.shuffle.tree_group_sum` (one hash
    exchange of the per-block partials); the final ``r = (nΣxy − ΣxΣy) /
    √((nΣx² − (Σx)²)(nΣy² − (Σy)²))`` is one vectorized kernel over the
    #groups-row fold.
    Sample and population correlation coincide (the (n−1) factors
    cancel), so the value matches DuckDB/PostgreSQL ``corr`` exactly.

    ``n < 2`` or a zero-variance side yields null (SQL parity).  Null
    group keys drop (the engine's grouped-op convention).  Raw sums keep
    ~9 significant digits when ``mean² / var`` is moderate (true of
    ratio/score columns); for extreme-offset data pre-center x/y
    upstream.  Returns ``[group_col, out_col]``, one row per group."""
    from ..functions.shuffle import tree_group_sum

    cols = ["__n", "__sx", "__sy", "__sxx", "__syy", "__sxy"]

    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(t.column(x_col), pa.float64()).to_numpy(
            zero_copy_only=False)
        y = pc.cast(t.column(y_col), pa.float64()).to_numpy(
            zero_copy_only=False)
        valid = ~(np.isnan(x) | np.isnan(y))
        sub = pa.table({
            group_col: t.column(group_col),
            "__n": pa.array(valid.astype(np.int64)),
            "__sx": pa.array(np.where(valid, x, 0.0)),
            "__sy": pa.array(np.where(valid, y, 0.0)),
            "__sxx": pa.array(np.where(valid, x * x, 0.0)),
            "__syy": pa.array(np.where(valid, y * y, 0.0)),
            "__sxy": pa.array(np.where(valid, x * y, 0.0)),
        })
        return sub

    folded = tree_group_sum(
        ds.map_batches(partial, batch_format="pyarrow"), [group_col], cols)

    # typed-empty anchor: a legitimately empty result (empty input,
    # all-null group keys) must keep its schema (CLAUDE.md gotcha)
    import ray.data as rd

    from ..util import dataset_arrow_schema

    in_schema = dataset_arrow_schema(ds)
    gtype = (in_schema.field(group_col).type if in_schema is not None
             and group_col in in_schema.names else pa.string())
    typed_empty = pa.table({group_col: pa.array([], gtype),
                            out_col: pa.array([], pa.float64())})
    if folded.count() == 0:
        return rd.from_arrow(typed_empty)

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("__n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t.column("__sx").to_numpy(zero_copy_only=False)
        sy = t.column("__sy").to_numpy(zero_copy_only=False)
        sxx = t.column("__sxx").to_numpy(zero_copy_only=False)
        syy = t.column("__syy").to_numpy(zero_copy_only=False)
        sxy = t.column("__sxy").to_numpy(zero_copy_only=False)
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        cov = n * sxy - sx * sy
        with np.errstate(invalid="ignore", divide="ignore"):
            r = cov / np.sqrt(vx * vy)
        r = np.where((n < 2) | (vx <= 0) | (vy <= 0), np.nan, r)
        return pa.table({group_col: t.column(group_col),
                         out_col: pa.array(r, pa.float64(),
                                           from_pandas=True)})

    return folded.map_batches(finalize, batch_format="pyarrow")


def weighted_sample(ds, key_col: str, weight_col: str, n: int):
    """Deterministic weight-proportional sample WITHOUT replacement of
    exactly ``n`` rows — priority sampling (Duffield–Lund–Thorup, JACM
    2007): each row gets priority ``q = w / u`` with ``u =
    (md5_bucket(key) + 1) / 2³²`` ∈ (0, 1], and the ``n`` largest-``q``
    rows (ties by ascending key) are kept.  Higher-weight rows survive
    proportionally more often, yet the decision is a pure function of
    ``(key, weight)`` — reproducible across runs, engines and data
    orderings, and exactly SQL-checkable: ``u`` is an exact dyadic
    rational and ``q`` a single IEEE division, so DuckDB computes the
    bit-identical priority.  The quality-weighted corpus subselection
    step (DSIR scores, educational-value scores) where
    :func:`importance_sample` keeps a random-size Bernoulli sample.

    Scale shape: ``q`` is stamped per block and each block reduces to
    its exact local top-``n`` by ``(q DESC, key ASC)`` (the global top-n
    is a subset of the per-block top-ns), so only ≤ ``#blocks × n``
    candidate rows reach the driver, which keeps their top ``n`` — the
    corpus never shuffles.  Rows with a null key, or a null/NaN/≤ 0
    weight, are dropped (weights must be positive).  Returns the
    selected rows with their original columns."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    import ray.data as rd

    from ..functions.shuffle import top_n
    from ..util import collect_arrow, dataset_arrow_schema

    in_schema = dataset_arrow_schema(ds)
    if in_schema is None or not {key_col, weight_col}.issubset(
            in_schema.names):
        # no typed block carries the inputs — nothing can be sampled
        return rd.from_arrow(
            in_schema.empty_table() if in_schema is not None else pa.table(
                {key_col: pa.array([], pa.string()),
                 weight_col: pa.array([], pa.float64())}))
    by = [("__q", "descending"), (key_col, "ascending")]

    def candidates(t: pa.Table) -> pa.Table:
        w = pc.cast(t.column(weight_col), pa.float64()).to_numpy(
            zero_copy_only=False)
        keys = t.column(key_col)
        ok = ~np.isnan(w) & (w > 0)
        ok &= pc.is_valid(keys).to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ok))
        u = (md5_bucket(t.column(key_col)).astype(np.float64) + 1.0) \
            / 4294967296.0
        q = pa.array(w[ok] / u, pa.float64())
        return top_n(t.append_column("__q", q), by, n)

    cand = collect_arrow(ds.map_batches(candidates, batch_format="pyarrow",
                                        batch_size=None))
    if cand is None:
        return rd.from_arrow(in_schema.empty_table())
    return rd.from_arrow(top_n(cand, by, n).drop_columns(["__q"]))


def value_histogram(ds, col: str, k: int = 50):
    """Top-``k`` categorical value distribution — Deequ's ``Histogram``
    analyzer shape ``(value, count, ratio)`` with nulls as the
    ``"NullValue"`` bin and ``ratio = count / total rows`` — the "what's
    actually in this column" profiling op (label skew, source mix,
    enum drift).  Intended for categorical / integer columns: values are
    keyed by their string form, so float columns should be bucketized
    first (:func:`bucketize` / ``value_deciles``).

    Counts ride :func:`hooqu_ray.functions.shuffle.tree_group_sum`'s
    shape (per-block Arrow combine in the split tasks, then one hash
    exchange) with each bucket folding to its top ``k`` by ``(count DESC,
    value ASC)``; the driver keeps the top ``k`` of those ≤ B·k rows.  The
    total is the materialized input's row count.  On a materialized input
    no Ray Data execution runs.  Returns ``[value, count, ratio]``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    import ray.data as rd

    from ..functions.shuffle import _tree_combine_factory, hash_exchange, top_n
    from ..util import collect_arrow

    ds = ds.materialize()
    total = ds.count()
    if total == 0:
        return rd.from_arrow(pa.table({"value": pa.array([], pa.string()),
                                       "count": pa.array([], pa.int64()),
                                       "ratio": pa.array([], pa.float64())}))
    by = [("count", "descending"), ("value", "ascending")]
    combine = _tree_combine_factory(["value"], ["count"], ["sum"], False)

    def prep(t: pa.Table) -> pa.Table:
        s = pc.fill_null(pc.cast(t.column(col), pa.string()), "NullValue")
        return combine(pa.table(
            {"value": s, "count": pa.array(np.ones(len(t), np.int64))}))

    top = top_n(collect_arrow(hash_exchange(
        ds, ["value"], lambda t: top_n(combine(t), by, k), pre=prep)), by, k)
    c = top.column("count").to_numpy(zero_copy_only=False)
    return rd.from_arrow(top.append_column(
        "ratio", pa.array(c / float(total), pa.float64())))


def grouped_weighted_sample(ds, group_col: str, key_col: str,
                            weight_col: str, k: int):
    """Per-GROUP exact-``k`` weight-proportional sample without
    replacement — :func:`weighted_sample`'s priority rule (``q = w / u``,
    ``u`` the exact dyadic md5 fraction of the key) applied within each
    group via :func:`grouped_top_k` — the balanced-per-source selection
    step of a data-mixing pipeline ("k quality-weighted docs from every
    source/language shard"), where the global variant would let one
    populous source crowd out the rest.

    Deterministic and exactly SQL-checkable (``row_number() OVER
    (PARTITION BY g ORDER BY q DESC, key)`` with the bit-identical
    priority).  Scale shape inherited from :func:`grouped_top_k`:
    per-block local top-``k`` per group → combiner-bounded partials →
    driver merge below the row gate, distributed hash-exchange merge
    above it.  Rows with a null group/key or a null/NaN/≤ 0 weight are
    dropped.  Returns ``[group_col, key_col, weight_col]`` rows."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len({group_col, key_col, weight_col}) != 3:
        raise ValueError(
            "group_col, key_col and weight_col must be distinct, got "
            f"{(group_col, key_col, weight_col)}")
    from ..util import map_typed

    def stamp(t: pa.Table) -> pa.Table:
        w = pc.cast(t.column(weight_col), pa.float64()).to_numpy(
            zero_copy_only=False)
        ok = ~np.isnan(w) & (w > 0)
        ok &= pc.is_valid(t.column(key_col)).to_numpy(zero_copy_only=False)
        ok &= pc.is_valid(t.column(group_col)).to_numpy(zero_copy_only=False)
        t = t.select([group_col, key_col, weight_col]).filter(pa.array(ok))
        if len(t) == 0:
            return t.append_column("__q", pa.array([], pa.float64()))
        u = (md5_bucket(t.column(key_col)).astype(np.float64) + 1.0) \
            / 4294967296.0
        q = w[ok] / u
        return t.append_column("__q", pa.array(q, pa.float64()))

    return map_typed(
        grouped_top_k(map_typed(ds, stamp), group_col, "__q", k,
                      tie_col=key_col, extra_cols=[weight_col]),
        lambda t: t.drop_columns(["__q"]))


def grouped_robust_stats(ds, group_col: str, value_col: str,
                         z: float = 3.5):
    """Per-group ROBUST dispersion profile — median, MAD (median absolute
    deviation) and the count of modified-z-score outliers
    (Iglewicz–Hoaglin rule: ``|0.6745 (v − median) / MAD| > z``, the
    published default ``z = 3.5``) — the outlier-detection companion to
    :func:`grouped_zscore` for long-tailed quality metrics, where mean ±
    k·σ is itself dragged by the outliers it should flag.

    Both quantiles use the engine-standard pandas-"nearest" rule
    (:func:`hooqu_ray.pipelines.ranks.grouped_exact_quantile` — actual
    data values, so the SQL oracle reproduces them row-exactly), and the
    outlier predicate is a single fixed-shape IEEE expression, so counts
    match SQL bit-for-bit.  Three slim passes, no key exchange on facts:
    median fold → broadcast medians (``enrich_join``) + deviation stamp
    → MAD fold → broadcast MADs + one counting fold
    (:func:`~hooqu_ray.functions.shuffle.tree_group_sum`).  The
    per-group stats tables must fit a worker's heap (one row per group —
    shard by key-hash range beyond that).  Null values are ignored; null
    group keys drop; a zero MAD (over half the group at the median)
    yields ``n_outliers = 0``.  Returns
    ``[group_col, median, mad, n_outliers]``."""
    from ..functions.joins import enrich_join
    from ..functions.shuffle import tree_group_sum
    from ..util import dataset_arrow_schema
    from .ranks import grouped_exact_quantile

    in_schema = dataset_arrow_schema(ds)
    gtype = (in_schema.field(group_col).type if in_schema is not None
             and group_col in in_schema.names else pa.string())
    vtype = (in_schema.field(value_col).type if in_schema is not None
             and value_col in in_schema.names else pa.float64())
    def slim(t: pa.Table) -> pa.Table:
        t = t.select([group_col, value_col])
        mask = pc.and_(pc.is_valid(t.column(group_col)),
                       pc.is_valid(t.column(value_col)))
        return t.filter(mask)

    import ray.data as rd

    from ..util import collect_arrow

    final_empty = pa.schema([(group_col, gtype), ("median", vtype),
                             ("mad", pa.float64()),
                             ("n_outliers", pa.int64())]).empty_table()
    facts = ds.map_batches(slim, batch_format="pyarrow").materialize()
    # collect the per-group stats tables ONCE (one row per group — the
    # documented heap bound) so each broadcasts a single ray.put, and an
    # empty fact set returns the typed empty instead of crashing the join
    med = collect_arrow(grouped_exact_quantile(
        facts, group_col, value_col, 0.5, out_col="median"))
    if med is None or len(med) == 0:
        return rd.from_arrow(final_empty)

    with_med = enrich_join(facts, med, group_col, group_col, ["median"],
                           how="inner")

    def stamp_dev(t: pa.Table) -> pa.Table:
        v = pc.cast(t.column(value_col), pa.float64()).to_numpy(
            zero_copy_only=False)
        m = t.column("median").to_numpy(zero_copy_only=False)
        return t.append_column("__dev", pa.array(np.abs(v - m), pa.float64()))

    deviated = with_med.map_batches(
        stamp_dev, batch_format="pyarrow").materialize()
    mad = collect_arrow(grouped_exact_quantile(
        deviated, group_col, "__dev", 0.5, out_col="mad"))
    if mad is None or len(mad) == 0:  # unreachable when med is non-empty
        return rd.from_arrow(final_empty)

    def count_partial(t: pa.Table) -> pa.Table:
        v = pc.cast(t.column(value_col), pa.float64()).to_numpy(
            zero_copy_only=False)
        m = t.column("median").to_numpy(zero_copy_only=False)
        s = t.column("mad").to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            # fixed expression shape — matches the SQL oracle bit-for-bit
            flag = (s > 0) & (np.abs(0.6745 * (v - m) / s) > z)
        return pa.table({
            group_col: t.column(group_col),
            "n_outliers": pa.array(flag.astype(np.int64))})

    counts = tree_group_sum(
        enrich_join(deviated, mad, group_col, group_col, ["mad"],
                    how="inner").map_batches(
            count_partial, batch_format="pyarrow"),
        [group_col], ["n_outliers"])

    out = enrich_join(enrich_join(counts, med, group_col, group_col,
                                  ["median"], how="inner"),
                      mad, group_col, group_col, ["mad"], how="inner")

    def order_cols(t: pa.Table) -> pa.Table:
        return t.select([group_col, "median", "mad", "n_outliers"])

    return out.map_batches(order_cols, batch_format="pyarrow")
