"""Benchmark decontamination and corpus-wide duplicated-n-gram statistics.

Training-data hygiene operators (the reference has no equivalent — this is
the LLM-pipeline tier, like pipelines/dedup.py):

- :func:`contamination_stats` — per-document overlap with a BENCHMARK /
  eval set, by exact word n-gram membership (the standard "n-gram
  decontamination" used for eval-set leakage checks).  The benchmark's
  distinct n-gram hash set is built in one streaming pass and broadcast
  once (``ray.put``); every corpus batch probes it vectorized.  An eval
  set is small by construction (10^4–10^6 n-grams), so the broadcast is
  bounded by the BENCHMARK, never the corpus.
- :func:`dup_ngram_stats` — per-document fraction of word n-gram
  positions whose n-gram occurs ≥ ``min_count`` times CORPUS-WIDE
  (the cross-document counterpart of textstats.repetition_stats; the
  signal behind duplicated-substring removal à la "Deduplicating
  Training Data Makes Language Models Better").  Combiner-first: each
  block emits (gram_hash, count) partials, one ``groupby`` shuffle over
  distinct-gram rows produces the hot set; when the hot set outgrows a
  driver gate it is processed one hash shard at a time (per-shard
  broadcast probe emitting per-doc partial counts, folded by a final
  bucketed exchange over doc ids) so the driver never holds more than
  one shard.
- :func:`scrub_dup_ngrams` — the REMOVAL counterpart of
  ``dup_ngram_stats`` (corpus-self duplicated-SPAN scrubbing, the
  n-gram-bucket approximation of suffix-array substring dedup): token
  positions covered by a hot n-gram are dropped and touched documents
  are rebuilt from the surviving tokens; untouched documents pass
  through byte-faithful.  Both ops share one hot-set pipeline
  (:func:`_hot_gram_ds`) and one tokenize/hash/fold implementation.

Both operators hash n-grams as a polynomial combine of per-token polars
hashes (process-stable, see dedup._batch_token_hashes) — token volume
never shuffles and no n-gram strings are materialized.  Token-sequence
equality is exactly join(" ") string equality for whitespace tokens, so a
SQL oracle over string n-grams agrees up to ~2^-63 collision odds.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_NGRAM_PRIME = np.uint64(1099511628211)  # FNV prime, textstats._RK_PRIME


def _gram_fold(h: np.ndarray, parent: np.ndarray,
               n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Polynomial n-gram fold over token hashes: ``(gram_hashes, start
    token positions)`` for every run of ``n`` consecutive tokens whose
    first and last token share a parent row.  The ONE fold both the
    hot-set builder and the scrub probe use — they may never diverge."""
    if h.size < n:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    pos = np.flatnonzero(parent[: h.size - n + 1] == parent[n - 1 :])
    if pos.size == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    g = h[pos].copy()
    for d in range(1, n):
        g *= _NGRAM_PRIME
        g += h[pos + d]
    return g, pos


def _ngram_hashes(texts, n: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Vectorized word n-gram hashes for a whole string array.

    Returns ``(gram_hashes uint64, parent_row int64, n_rows)`` where
    ``gram_hashes[k]`` is the polynomial hash of the n consecutive token
    hashes starting at position k (positions whose first and last token
    fall in the same document only).  One Arrow tokenize pass + n
    vectorized fold steps — no Python per token."""
    from .dedup import _batch_token_hashes

    h, parent, n_rows = _batch_token_hashes(texts)
    g, pos = _gram_fold(h, parent, n)
    return g, parent[pos] if pos.size else np.empty(0, np.int64), n_rows


def _block_distinct_grams(t: pa.Table, text_col: str, n: int) -> pa.Table:
    """Per-block DISTINCT n-gram hashes (benchmark-side combiner)."""
    g, _, _ = _ngram_hashes(pc.fill_null(t.column(text_col), ""), n)
    return pa.table({"gram": pa.array(np.unique(g).view(np.int64), pa.int64())})


def _block_gram_counts(t: pa.Table, text_col: str, n: int) -> pa.Table:
    """Per-block (gram, count) partials (corpus-side combiner)."""
    g, _, _ = _ngram_hashes(pc.fill_null(t.column(text_col), ""), n)
    u, c = np.unique(g, return_counts=True)
    return pa.table(
        {
            "gram": pa.array(u.view(np.int64), pa.int64()),
            "n": pa.array(c.astype(np.int64), pa.int64()),
        }
    )


class _NgramProbe:
    """Per-batch membership probe against a broadcast SORTED uint64 n-gram
    hash array: per-doc total n-gram positions and positions whose n-gram
    is in the set (binary search, no Python per position).  With
    ``totals=False`` the ``n_ngrams`` column is emitted as zeros AND
    zero-hit rows are dropped (missing rows sum as 0), so multi-shard
    outputs union-merge with a plain sum while non-first shards shuffle
    only their HIT docs — not one row per corpus document per shard."""

    def __init__(self, grams_ref, text_col: str, id_col: str, n: int,
                 totals: bool = True):
        self.grams_ref = grams_ref
        self.text_col = text_col
        self.id_col = id_col
        self.n = n
        self.totals = totals
        self._grams = None

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._grams is None:
            import ray

            obj = self.grams_ref
            self._grams = obj if isinstance(obj, np.ndarray) else ray.get(obj)
        g, parent, n_rows = _ngram_hashes(
            pc.fill_null(t.column(self.text_col), ""), self.n
        )
        if self._grams.size and g.size:
            idx = np.searchsorted(self._grams, g)
            member = self._grams[np.minimum(idx, self._grams.size - 1)] == g
        else:
            member = np.zeros(g.size, dtype=bool)
        n_hit = np.bincount(parent[member], minlength=n_rows).astype(np.int64)
        ids = t.column(self.id_col)
        if self.totals:
            n_grams = np.bincount(parent, minlength=n_rows).astype(np.int64)
        else:
            n_grams = np.zeros(n_rows, dtype=np.int64)
            keep = n_hit > 0  # missing rows sum as 0 in the shard fold
            if not keep.all():
                sel = pa.array(np.flatnonzero(keep), pa.int64())
                ids = ids.take(sel)
                n_hit, n_grams = n_hit[keep], n_grams[keep]
        return pa.table(
            {
                self.id_col: ids,
                "n_hit": pa.array(n_hit, pa.int64()),
                "n_ngrams": pa.array(n_grams, pa.int64()),
            }
        )


def _finish_stats(t: pa.Table, id_col: str, hit_col: str, frac_col: str,
                  flag_col: Optional[str] = None) -> pa.Table:
    n_hit = t.column("n_hit").to_numpy(zero_copy_only=False).astype(np.int64)
    n_grams = t.column("n_ngrams").to_numpy(zero_copy_only=False).astype(np.int64)
    frac = n_hit / np.maximum(n_grams, 1)
    out = {
        id_col: t.column(id_col),
        "n_ngrams": pa.array(n_grams, pa.int64()),
        hit_col: pa.array(n_hit, pa.int64()),
        frac_col: pa.array(frac, pa.float64()),
    }
    if flag_col is not None:
        out[flag_col] = pa.array(n_hit > 0)
    return pa.table(out)


def contamination_stats(ds, bench_ds, text_col: str = "text",
                        id_col: str = "doc_id", n: int = 5):
    """Per-document benchmark contamination by exact word n-gram overlap.

    Output per corpus document: ``n_ngrams`` (n-gram positions),
    ``n_contaminated`` (positions whose n-gram occurs anywhere in
    ``bench_ds``), ``contaminated_frac``, ``contaminated`` (any hit —
    the usual drop criterion before training).

    Benchmark pass streams block-distinct hashes to the driver
    (O(#benchmark n-grams) — bounded by the EVAL set, the small side by
    definition), sorts once, ``ray.put`` broadcasts; corpus pass is one
    embarrassingly parallel ``map_batches`` probe.  If the benchmark ever
    outgrew a broadcast, the dup_ngram_stats shard loop below is the
    shape to reuse."""
    from ..util import collect_arrow

    import ray

    bench_tbl = collect_arrow(
        bench_ds.map_batches(
            lambda t, _c=text_col, _n=n: _block_distinct_grams(t, _c, _n),
            batch_format="pyarrow",
        )
    )
    if bench_tbl is None or len(bench_tbl) == 0:
        grams = np.empty(0, np.uint64)
    else:
        grams = np.unique(
            bench_tbl.column("gram").to_numpy(zero_copy_only=False).view(np.uint64)
        )
    ref = ray.put(grams)
    probe = _NgramProbe(ref, text_col, id_col, n)
    return ds.map_batches(probe, batch_format="pyarrow").map_batches(
        lambda t, _ic=id_col: _finish_stats(
            t, _ic, "n_contaminated", "contaminated_frac", "contaminated"
        ),
        batch_format="pyarrow",
    )


def decontaminate(ds, bench_ds, text_col: str = "text",
                  id_col: str = "doc_id", n: int = 5):
    """Drop every document sharing ANY word n-gram with the benchmark —
    the removal counterpart of :func:`contamination_stats` (what a
    training run applies before tokenization).  Returns the KEPT rows of
    ``ds`` with all their columns; same broadcast probe, but the filter
    runs inline per batch so the corpus streams straight through (no
    second pass, no stats materialization)."""
    from ..util import collect_arrow

    import ray

    bench_tbl = collect_arrow(
        bench_ds.map_batches(
            lambda t, _c=text_col, _n=n: _block_distinct_grams(t, _c, _n),
            batch_format="pyarrow",
        )
    )
    if bench_tbl is None or len(bench_tbl) == 0:
        grams = np.empty(0, np.uint64)
    else:
        grams = np.unique(
            bench_tbl.column("gram").to_numpy(zero_copy_only=False).view(np.uint64)
        )
    ref = ray.put(grams)

    def keep_clean(t: pa.Table) -> pa.Table:
        sorted_grams = ray.get(ref) if not isinstance(ref, np.ndarray) else ref
        g, parent, n_rows = _ngram_hashes(pc.fill_null(t.column(text_col), ""), n)
        if sorted_grams.size and g.size:
            idx = np.searchsorted(sorted_grams, g)
            member = sorted_grams[np.minimum(idx, sorted_grams.size - 1)] == g
        else:
            member = np.zeros(g.size, dtype=bool)
        n_hit = np.bincount(parent[member], minlength=n_rows)
        return t.filter(pa.array(n_hit == 0))

    return ds.map_batches(keep_clean, batch_format="pyarrow")


# Above this many hot (duplicated) distinct n-grams the probe runs one hash
# shard at a time instead of a single driver collect + broadcast.
_DRIVER_HOT_GRAMS_MAX = 2_000_000


def _hot_gram_shards(hot_ds):
    """Yield sorted uint64 hash arrays of the hot n-gram set, one hash-range
    shard at a time; the driver never holds more than
    ~``_DRIVER_HOT_GRAMS_MAX`` rows."""
    from ..functions.broadcast import hash_shards
    from ..util import collect_arrow

    hot = hot_ds.materialize()
    for shard in hash_shards(hot, "gram", hot.count(), _DRIVER_HOT_GRAMS_MAX):
        tbl = collect_arrow(shard)
        if tbl is None or len(tbl) == 0:
            continue
        yield np.sort(
            tbl.column("gram").to_numpy(zero_copy_only=False).view(np.uint64))


def _hot_gram_ds(ds, text_col: str, n: int, min_count: int):
    """The HOT n-gram set as a Dataset of int64 gram hashes: per-block
    (gram, count) combiner -> ONE bucketed hash exchange
    (``shuffle.bucketed_group_fold`` -- gram hashes are corpus-cardinality
    keys) with the count >= ``min_count`` filter fused into the per-bucket
    finalize.  Shared by :func:`dup_ngram_stats` and
    :func:`scrub_dup_ngrams` so the two ops' hot sets are definitionally
    identical."""
    from ..functions.shuffle import bucketed_group_fold

    partials = ds.map_batches(
        lambda t, _c=text_col, _n=n: _block_gram_counts(t, _c, _n),
        batch_format="pyarrow",
    )

    def keep_hot(folded: pa.Table) -> pa.Table:
        if "n" not in folded.column_names:
            return pa.table({"gram": pa.array([], pa.int64())})
        return folded.filter(
            pc.greater_equal(folded.column("n"), min_count)).select(["gram"])

    return bucketed_group_fold(partials, ["gram"], ["n"], funcs=["sum"],
                               finalize=keep_hot)


def dup_ngram_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                    n: int = 5, min_count: int = 2):
    """Per-document corpus-wide duplicated n-gram fractions.

    Output: ``n_ngrams``, ``n_dup`` (positions whose n-gram occurs
    ≥ ``min_count`` times across the WHOLE corpus, own occurrences
    included), ``dup_ngram_frac``.  High fractions mark boilerplate /
    templated documents that within-doc metrics miss.

    Shape: per-block (gram, count) combiner → one BUCKETED hash exchange
    over DISTINCT-gram rows (``shuffle.bucketed_group_fold`` — gram
    hashes are corpus-cardinality keys, the case Ray's sort-based groupby
    pays ~5 µs/row on; token volume never shuffles) with the hot-set
    filter (count ≥ ``min_count``) fused into the per-bucket finalize →
    broadcast probe.  The hot set is processed one hash-range shard at a
    time above ``_DRIVER_HOT_GRAMS_MAX`` rows: each shard's probe emits
    per-doc partial hit counts (totals only in the first), folded by one
    bucketed exchange over doc ids — the driver and workers hold one
    shard, never the whole duplicated-gram universe."""
    import ray

    from ..functions.shuffle import bucketed_group_fold

    hot = _hot_gram_ds(ds, text_col, n, min_count)

    shard_outs = []
    first = True
    for grams in _hot_gram_shards(hot):
        probe = _NgramProbe(ray.put(grams), text_col, id_col, n, totals=first)
        shard_outs.append(ds.map_batches(probe, batch_format="pyarrow"))
        first = False
    finish = lambda t, _ic=id_col: _finish_stats(  # noqa: E731
        t, _ic, "n_dup", "dup_ngram_frac"
    )
    if not shard_outs:  # no duplicated n-grams anywhere
        probe = _NgramProbe(ray.put(np.empty(0, np.uint64)), text_col, id_col, n)
        return ds.map_batches(probe, batch_format="pyarrow").map_batches(
            finish, batch_format="pyarrow"
        )
    if len(shard_outs) == 1:
        return shard_outs[0].map_batches(finish, batch_format="pyarrow")
    # doc ids are corpus-cardinality keys too — fold the shard partials
    # with the same bucketed exchange (column names/types preserved)
    merged = bucketed_group_fold(
        shard_outs[0].union(*shard_outs[1:]), [id_col],
        ["n_hit", "n_ngrams"], funcs=["sum", "sum"])
    return merged.map_batches(finish, batch_format="pyarrow")


class _SpanScrubber:
    """Per-batch inline removal of corpus-duplicated n-gram spans: every
    token position covered by an occurrence of a HOT n-gram (corpus count
    ≥ min_count) is dropped and the document is rebuilt from the surviving
    tokens (single-space join).  Documents with no hit pass through
    byte-faithful; null text stays null.

    The hot set arrives as object-store refs of SORTED uint64 hash-range
    shards — workers read them zero-copy from plasma (one copy per node),
    only the DRIVER collect was bounded per shard.  Probe is a vectorized
    ``searchsorted`` per shard; span expansion is ``n`` strided stores;
    the rebuild is the dedup_lines_within_doc split → filter →
    ``binary_join`` idiom — no Python per token anywhere."""

    def __init__(self, shard_refs: Sequence, text_col: str, n: int):
        self.shard_refs = list(shard_refs)
        self.text_col = text_col
        self.n = n
        self._shards = None

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._shards is None:
            import ray

            self._shards = [
                r if isinstance(r, np.ndarray) else ray.get(r)
                for r in self.shard_refs
            ]
        nrows = len(t)
        texts = t.column(self.text_col)
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        # the EXACT tokenize+hash+fold pipeline the hot-set builder uses
        # (_batch_token_hashes / _gram_fold) — sharing the implementation
        # is what guarantees probe hashes can never drift from set hashes
        from .dedup import _batch_token_hashes

        h, tp, _, toks = _batch_token_hashes(pc.fill_null(texts, ""),
                                             return_tokens=True)

        covered = np.zeros(len(toks), dtype=bool)
        if h.size >= self.n and any(s.size for s in self._shards):
            g, pos = _gram_fold(h, tp, self.n)
            if pos.size:
                member = np.zeros(pos.size, dtype=bool)
                for s in self._shards:
                    if s.size:
                        idx = np.searchsorted(s, g)
                        member |= s[np.minimum(idx, s.size - 1)] == g
                hit = pos[member]
                for d in range(self.n):
                    covered[hit + d] = True

        n_removed = (np.bincount(tp[covered], minlength=nrows)
                     .astype(np.int64) if covered.any()
                     else np.zeros(nrows, np.int64))
        if covered.any():
            kept = ~covered
            kept_toks = toks.filter(pa.array(kept))
            counts = np.bincount(tp[kept], minlength=nrows)
            offsets = pa.array(np.r_[0, np.cumsum(counts)].astype(np.int32),
                               pa.int32())
            joined = pc.binary_join(
                pa.ListArray.from_arrays(offsets,
                                         pc.cast(kept_toks, pa.string())),
                pa.scalar(" "))
            in_type = t.schema.field(self.text_col).type
            new_text = pc.if_else(pa.array(n_removed > 0),
                                  pc.cast(joined, in_type), texts)
            t = t.set_column(t.column_names.index(self.text_col),
                             self.text_col, new_text)
        return t.append_column("n_removed", pa.array(n_removed, pa.int64()))


def scrub_dup_ngrams(ds, text_col: str = "text", n: int = 5,
                     min_count: int = 2):
    """Corpus-self duplicated-SPAN removal (the n-gram-bucket approximation
    of suffix-array substring dedup, "Deduplicating Training Data Makes
    Language Models Better", Lee et al. 2022): drop every token position
    covered by a word n-gram occurring ≥ ``min_count`` times across the
    WHOLE corpus (own occurrences included, duplicates within one document
    count), rebuild each touched document from its surviving tokens, and
    stamp ``n_removed`` (covered token positions).  Untouched documents
    pass through byte-faithful; a fully-covered document becomes ``""``;
    null text stays null.  :func:`dup_ngram_stats` is the stats-only
    counterpart; :func:`decontaminate` removes against an EXTERNAL eval
    set where this op removes against the corpus itself.

    Scale shape: per-block (gram, count) combiner → ONE bucketed hash
    exchange over distinct-gram rows (``shuffle.bucketed_group_fold`` —
    corpus-cardinality keys never pay Ray's sort-based groupby) with the
    hot-set filter fused into the per-bucket finalize → hot hashes
    broadcast in driver-bounded hash-range shards (workers read plasma
    zero-copy) → one streaming rewrite pass; text never shuffles."""
    import ray

    from ..functions.shuffle import bucketed_group_fold

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if min_count < 2:
        raise ValueError(f"min_count must be >= 2, got {min_count}")

    hot = _hot_gram_ds(ds, text_col, n, min_count)
    shard_refs = [ray.put(grams) for grams in _hot_gram_shards(hot)]
    return ds.map_batches(_SpanScrubber(shard_refs, text_col, n),
                          batch_format="pyarrow")


def cross_source_overlap(ds, text_col: str = "text",
                         source_col: str = "source", n: int = 5):
    """Cross-source duplication matrix: for every unordered source pair
    ``(a < b)``, the number of DISTINCT word ``n``-grams both sources
    contain — the "which corpora copy from each other" triage report
    (mirror detection, pipeline-double-ingest detection, license-source
    provenance) that decides WHERE :func:`dup_ngram_stats` /
    :func:`scrub_dup_ngrams` effort should go.

    Scale shape: each block emits its distinct ``(source, gram_hash)``
    pairs (the :func:`_ngram_hashes` 63-bit fold — same 2⁻⁶³ collision
    class every n-gram op here documents); the exchange key is ``gram %
    B`` (an int32 — grams of a given hash land in ONE bucket, so
    bucket-local dedup is global dedup), and each bucket vectorizes
    pair generation over its gram segments (a gram shared by ``k``
    sources yields ``k·(k−1)/2`` pairs — bounded by the SOURCE count,
    not the corpus).  Per-bucket ``(a, b, count)`` partials fold through
    :func:`~hooqu_ray.functions.shuffle.tree_group_sum` (≤ S² keys).
    Text never shuffles.  Null sources / null text drop.  Returns
    ``[source_a, source_b, n_shared]``."""
    from ..functions.shuffle import bucketed_group_fold, tree_group_sum

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def block_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"gram": pa.array([], pa.int64()),
                          source_col: pa.array([], pa.string())})
        if len(t) == 0 or not {text_col, source_col}.issubset(t.column_names):
            return empty
        t = t.filter(pc.is_valid(t.column(source_col)))
        if len(t) == 0:
            return empty
        g, parent, _ = _ngram_hashes(pc.fill_null(t.column(text_col), ""), n)
        if g.size == 0:
            return empty
        src = pc.cast(t.column(source_col), pa.string())
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        enc = src.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)[parent]
        # block-local distinct (source, gram)
        u = np.unique(np.stack([g.view(np.int64), codes], axis=1), axis=0)
        out_src = enc.dictionary.take(pa.array(u[:, 1], pa.int64()))
        return pa.table({"gram": pa.array(u[:, 0], pa.int64()),
                         source_col: pc.cast(out_src, pa.string())})

    def bucket_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"source_a": pa.array([], pa.string()),
                          "source_b": pa.array([], pa.string()),
                          "n_shared": pa.array([], pa.int64())})
        if len(t) == 0 or "gram" not in t.column_names:
            return empty
        # global dedup is bucket-local: all copies of a gram share this
        # bucket
        srcs = t.column(source_col)
        if isinstance(srcs, pa.ChunkedArray):
            srcs = srcs.combine_chunks()
        # codes in SORTED-string order, so code order == the SQL
        # ``a.source < b.source`` string order (dictionary_encode's
        # insertion order would not be); fully vectorized — no per-row
        # Python strings
        sd = pc.unique(srcs)
        sd = sd.take(pc.array_sort_indices(sd))
        codes = pc.index_in(srcs, sd).to_numpy(
            zero_copy_only=False).astype(np.int64)
        grams = t.column("gram").to_numpy(zero_copy_only=False)
        u = np.unique(np.stack([grams, codes], axis=1), axis=0)
        ug, uc = u[:, 0], u[:, 1]
        # segments share a gram; sources within a segment are sorted
        # (np.unique lexsort), so a-side code < b-side code always
        starts = np.flatnonzero(np.r_[True, ug[1:] != ug[:-1]])
        seg_end = np.r_[starts[1:], len(ug)]
        ends = np.repeat(seg_end, np.diff(np.r_[starts, len(ug)]))
        reps = ends - np.arange(len(ug)) - 1
        total = int(reps.sum())
        if total == 0:
            return empty
        a_idx = np.repeat(np.arange(len(ug)), reps)
        csum = np.r_[0, np.cumsum(reps)]
        within = np.arange(total) - np.repeat(csum[:-1], reps)
        b_idx = np.repeat(np.arange(len(ug)) + 1, reps) + within
        nsrc = len(sd)
        pair_code = uc[a_idx] * nsrc + uc[b_idx]
        pu, pcnt = np.unique(pair_code, return_counts=True)
        return pa.table({
            "source_a": sd.take(pa.array(pu // nsrc, pa.int64())),
            "source_b": sd.take(pa.array(pu % nsrc, pa.int64())),
            "n_shared": pa.array(pcnt.astype(np.int64))})

    # the shared bucketed exchange (keys=[gram] — a gram's copies land in
    # ONE bucket, so bucket-local dedup is global; B fold tasks whatever
    # the input's block count)
    partials = bucketed_group_fold(
        ds.map_batches(block_pairs, batch_format="pyarrow"),
        ["gram"], [source_col], combine=bucket_pairs)
    out = tree_group_sum(partials, ["source_a", "source_b"], ["n_shared"])
    import ray.data as rd

    return out.union(rd.from_arrow(pa.table({
        "source_a": pa.array([], pa.string()),
        "source_b": pa.array([], pa.string()),
        "n_shared": pa.array([], pa.int64())})))
