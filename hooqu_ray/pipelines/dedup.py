"""Deduplication operators for large-scale training-data pipelines.

All shapes follow the standard web-scale recipe (exact-hash partitioning,
MinHash+LSH banding, SimHash) expressed Ray-Data-first:

- ``exact_dedup``       vectorized content hash → tiny (hash, min_id, count)
                        combiner shuffle → broadcast duplicate-winner
                        semi-join filter (deterministic representative:
                        min id).
- ``minhash_signatures``/``minhash_lsh_pairs``
                        vectorized shingle → minhash signatures → slim
                        (band, band_key, id) rows → hot-bucket scan →
                        per-bucket candidate pairs with signature-estimated
                        Jaccard (each pair emitted by its first colliding
                        band only).
- ``verify_pairs``      distributed exact-Jaccard verification: broadcast
                        candidate-id semi-filter + two hash exchanges
                        (text join on the doc id, Jaccard on the pair).
- ``simhash``           64-bit SimHash per doc; near-dups collide on rotated
                        16-bit bands.
- ``ngram_jaccard``     exact word-n-gram Jaccard for a candidate pair
                        (verification kernel).
- ``embedding_cosine_pairs``
                        near-duplicate vectors via random-hyperplane LSH
                        buckets (hot-bucket prefilter + size cap) →
                        within-bucket pairwise cosine.

Only candidate-sized data ever shuffles; signatures are a few hundred bytes
per doc (~1% of text volume) and never enter a shuffle at all.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.broadcast import BroadcastSet
from ..functions.joins import _key_set
from ..util import collect_arrow

_MERSENNE = (1 << 61) - 1


def _stable_text_hash64(texts: List[Optional[str]]) -> np.ndarray:
    """Deterministic 64-bit content hash (blake2b), None → 0."""
    out = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        if t is None:
            out[i] = 0
        else:
            out[i] = int.from_bytes(
                hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest(), "little"
            )
    return out


def _text_hash63(texts) -> np.ndarray:
    """Vectorized deterministic 63-bit content hash: polars' 64-bit string
    hash (process-stable for a fixed seed/version) masked into the int64
    range, so Ray/Arrow shuffles keep a native integer column instead of
    falling back to pickled-object extension arrays.  Nulls hash to a single
    shared value (they form one dedup group, like SQL ``GROUP BY text``)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if len(texts) == 0:
        return np.empty(0, dtype=np.int64)
    try:
        import polars as pl

        h = pl.from_arrow(texts).hash(seed=0).to_numpy().astype(np.uint64)
    except ImportError:  # pragma: no cover - process-stable slow path
        h = _stable_text_hash64(texts.to_pylist())
    return (h & np.uint64((1 << 63) - 1)).astype(np.int64)


_MASK63 = np.uint64((1 << 63) - 1)
# odd 64-bit mixing constants for the rolling shingle polynomial
_SHINGLE_C = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63], dtype=np.uint64
)


def _batch_token_hashes(texts, return_tokens: bool = False):
    """Tokenize a whole string array in ONE Arrow pass and hash every token
    (polars 64-bit).  Returns ``(token_hashes uint64, parent_row int64,
    n_rows)`` with tokens in row order; empty split tokens are dropped to
    match ``str.split()`` word semantics.  With ``return_tokens=True`` a
    fourth element carries the token STRINGS aligned with the hashes —
    the rebuild side of inline scrubbers must share THIS tokenization so
    probe hashes can never drift from hot-set hashes."""
    from ..stages.heuristics import _token_hashes

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    words = pc.utf8_split_whitespace(texts)
    flat = pc.list_flatten(words)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    if len(flat):
        keep = pc.invert(pc.equal(flat, "")).to_numpy(zero_copy_only=False)
        toks = flat.filter(pa.array(keep))
        tp = parent[keep].astype(np.int64)
        h = _token_hashes(toks)
    else:
        toks = flat
        tp = np.empty(0, dtype=np.int64)
        h = np.empty(0, dtype=np.uint64)
    if return_tokens:
        return h, tp, n, toks
    return h, tp, n


def _batch_shingles(texts, w: int = 3):
    """Vectorized word-w-shingle hashes for a whole string array.

    Returns ``(shingle_hashes uint64, parent_row int64, n_rows)`` with
    shingles grouped in ascending row order.  Tokens come from ONE Arrow
    ``utf8_split_whitespace`` pass, token hashes from polars' 64-bit hash,
    and a shingle's hash is a fixed polynomial over its w consecutive token
    hashes — collision-equivalent to hashing the joined string, with zero
    per-shingle Python.  Rows with 1..w-1 words contribute their full word
    tuple as a single shingle (mirroring ``ngram_jaccard``); rows with no
    words contribute nothing (their signature stays all-zero)."""
    h, tp, n = _batch_token_hashes(texts)
    nw = np.zeros(n, dtype=np.int64)
    if tp.size:
        np.add.at(nw, tp, 1)

    sh_parts, sp_parts = [], []
    # full w-shingles: positions whose first and last token share a row
    if h.size >= w:
        pos = np.flatnonzero(tp[: h.size - w + 1] == tp[w - 1 :])
        if pos.size:
            acc = np.zeros(pos.size, dtype=np.uint64)
            for k in range(w):
                acc = acc * _SHINGLE_C[0] + h[pos + k] * _SHINGLE_C[k % len(_SHINGLE_C)]
            sh_parts.append(acc)
            sp_parts.append(tp[pos])
    # short rows (0 < words < w): one shingle over all their tokens
    short = (nw > 0) & (nw < w)
    if short.any():
        smask = short[tp]
        sh_, sp_ = h[smask], tp[smask]
        # token slot within its row (tokens arrive in row order)
        starts = np.r_[0, np.flatnonzero(sp_[1:] != sp_[:-1]) + 1]
        lens = np.diff(np.r_[starts, sp_.size])
        slot = np.arange(sp_.size) - np.repeat(starts, lens)
        acc_rows = np.zeros(n, dtype=np.uint64)
        # same polynomial shape: acc = ((0*C0 + h0*C0)*C0 + h1*C1) ... for the
        # available slots — any deterministic injective-ish combine works
        np.add.at(acc_rows, sp_, sh_ * _SHINGLE_C[slot % len(_SHINGLE_C)])
        rows = np.flatnonzero(short)
        sh_parts.append(acc_rows[rows])
        sp_parts.append(rows.astype(np.int64))

    if not sh_parts:
        return np.empty(0, np.uint64), np.empty(0, np.int64), n
    S = np.concatenate(sh_parts)
    P = np.concatenate(sp_parts)
    order = np.argsort(P, kind="stable")
    return S[order], P[order], n


class _AddContentHash:
    def __init__(self, text_col: str):
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        h = _text_hash63(batch.column(self.text_col))
        return batch.append_column("__content_hash", pa.array(h, pa.int64()))


def _broadcast_dup_winners(groups, key_col: str, min_col: str, out_col: str,
                           count_col: str = "sum(__pcount)") -> BroadcastSet:
    """Winners of duplicate groups (count > 1) from a
    ``(key, min(...), count)`` grouped fold, as a broadcast set of
    ``(key, out_col)`` rows in hash-range shards of the key (one shard when
    the table fits ``broadcast.ROWS_PER_SHARD`` — the common case)."""

    def dup_only(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.greater(t.column(count_col), 1))
        return kept.select([key_col, min_col]).rename_columns([key_col, out_col])

    return BroadcastSet.collect(
        groups.map_batches(dup_only, batch_format="pyarrow"), key_col)


class _DedupFilter:
    """Per-batch semi-join against the broadcast duplicate-winner shards:
    a row survives unless its content hash belongs to a duplicate group AND
    the row is not that group's min-id winner.  The in-batch join is Arrow
    Acero (vectorized C++); the winner set (``functions.broadcast``) ships
    ONCE via ``ray.put`` and its shards together are O(#duplicate groups) —
    singleton hashes (the vast majority) never appear in them.  A hash
    lives in exactly one shard, so ANDing the per-shard keep masks
    reproduces the single-table semantics while each probe only joins one
    shard at a time."""

    def __init__(self, winners: BroadcastSet, id_col: str):
        self.winners = winners
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        shards = self.winners.tables()
        out_cols = [c for c in batch.column_names if c != "__content_hash"]
        if not shards:
            return batch.select(out_cols)
        probe = pa.table(
            {
                "__content_hash": batch.column("__content_hash"),
                "__row": pa.array(np.arange(len(batch)), pa.int64()),
                "__id": batch.column(self.id_col),
            }
        )
        keep_all: Optional[np.ndarray] = None
        for w in shards:
            j = probe.join(w, keys="__content_hash", join_type="left outer")
            j = j.sort_by("__row")
            winner = j.column("__winner_id")
            # or_kleene: TRUE | NULL = TRUE (no-match rows have a null winner,
            # so the equality leg is null; plain or_ would null-propagate and
            # drop them)
            keep = pc.or_kleene(
                pc.is_null(winner), pc.equal(j.column("__id"), winner)
            )
            keep_np = pc.fill_null(keep, False).to_numpy(zero_copy_only=False)
            keep_all = keep_np if keep_all is None else (keep_all & keep_np)
        return batch.filter(pa.array(keep_all)).select(out_cols)


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep one row per distinct text (deterministic representative: min id).

    Fully vectorized — no per-group Python (the round-1 ``map_groups`` paid
    ~100 µs of pandas per distinct document):

    1. 63-bit content hash per batch (vectorized polars, int64 column).
    2. One ``tree_group_sum`` min/sum fold over per-block pre-aggregated
       (hash, min_id, count) partials — it moves one row per (block, hash),
       never the text.
    3. Winners of duplicate groups only (count > 1) are collected as compact
       Arrow hash-range shards, each broadcast once via ``ray.put``
       (``broadcast.ROWS_PER_SHARD`` caps what the driver ever holds — one
       shard); a second streaming pass keeps each row unless it lost its
       duplicate group in ANY shard (per-batch Acero left join per shard —
       vectorized semi-join, no driver loop).

    Driver peak is O(min(#duplicate groups, ROWS_PER_SHARD)), not
    O(#rows).  The input is read twice (hash is recomputed for the filter
    pass) — both reads stream and prune to the needed columns.
    """
    from ..functions.shuffle import tree_group_sum

    hashed = ds.map_batches(_AddContentHash(text_col), batch_format="pyarrow")

    def proj_combine(t: pa.Table, _id=id_col) -> pa.Table:
        # per-block combiner: the shuffle moves one row per (block, hash),
        # not one per document
        g = (
            t.select(["__content_hash", _id])
            .group_by("__content_hash", use_threads=False)
            .aggregate([(_id, "min"), ([], "count_all")])
        )
        return g.rename_columns(["__content_hash", "__winner_id", "__pcount"])

    partials = hashed.map_batches(proj_combine, batch_format="pyarrow")
    groups = tree_group_sum(partials, ["__content_hash"],
                            ["__winner_id", "__pcount"],
                            funcs=["min", "sum"])
    winners = _broadcast_dup_winners(
        groups, "__content_hash", "__winner_id", "__winner_id",
        count_col="__pcount",
    )
    return hashed.map_batches(_DedupFilter(winners, id_col), batch_format="pyarrow")



# ---------------------------------------------------------------------------
# Line-level dedup (C4/CCNet-style)
# ---------------------------------------------------------------------------

# line_idx must fit below this for the packed (doc_id, line_idx) position
_LINE_IDX_BITS = 20
_LINE_IDX_MAX = 1 << _LINE_IDX_BITS
# doc_id must fit in the remaining (signed) int64 bits
_LINE_DOC_MAX = 1 << (63 - _LINE_IDX_BITS)


def _pack_line_pos(doc_ids: np.ndarray, line_idx: np.ndarray) -> np.ndarray:
    """Packed (doc_id, line_idx) order key.  Guards BOTH components: numpy
    int64 shifts wrap silently ((1 << 50) << 20 == 0), which would corrupt
    winner selection without any error."""
    if doc_ids.size and (doc_ids.max() >= _LINE_DOC_MAX or doc_ids.min() < 0):
        raise ValueError(
            f"line_dedup requires 0 <= {_LINE_DOC_MAX} > doc_id (packed "
            "position would overflow int64); remap ids or raise _LINE_IDX_BITS"
        )
    return (doc_ids << _LINE_IDX_BITS) + line_idx


def _split_lines(texts, delimiter: str = "\n"):
    """One Arrow pass: split every document on ``delimiter``.  Returns
    ``(flat_lines Array, parent int64, line_idx int64)``; null documents
    contribute no lines."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lists = pc.split_pattern(texts, pattern=delimiter)
    flat = pc.list_flatten(lists)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False).astype(np.int64)
    if parent.size:
        starts = np.r_[0, np.flatnonzero(parent[1:] != parent[:-1]) + 1]
        lens = np.diff(np.r_[starts, parent.size])
        line_idx = np.arange(parent.size, dtype=np.int64) - np.repeat(starts, lens)
        if line_idx.size and line_idx.max() >= _LINE_IDX_MAX:
            raise ValueError(
                f"document with >= {_LINE_IDX_MAX} lines: raise _LINE_IDX_BITS"
            )
    else:
        line_idx = np.empty(0, dtype=np.int64)
    return flat, parent, line_idx


class _LinePartials:
    """Pass 1 combiner: per-block (line_hash, min position, count) partials
    over the ELIGIBLE lines (length >= min_chars) only — short/boilerplate
    lines are never dedup candidates and never enter the shuffle."""

    def __init__(self, text_col: str, id_col: str, min_chars: int,
                 delimiter: str = "\n"):
        self.text_col = text_col
        self.id_col = id_col
        self.min_chars = min_chars
        self.delimiter = delimiter

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "__line_hash": pa.array([], pa.int64()),
                "__winner_pos": pa.array([], pa.int64()),
                "__pcount": pa.array([], pa.int64()),
            }
        )
        flat, parent, line_idx = _split_lines(
            batch.column(self.text_col), self.delimiter
        )
        if len(flat) == 0:
            return empty
        doc_ids = batch.column(self.id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        eligible = (
            pc.greater_equal(pc.utf8_length(flat), self.min_chars)
            .to_numpy(zero_copy_only=False)
        )
        if not eligible.any():
            return empty
        h = _text_hash63(flat.filter(pa.array(eligible)))
        pos = _pack_line_pos(doc_ids[parent[eligible]], line_idx[eligible])
        t = pa.table(
            {
                "__line_hash": pa.array(h, pa.int64()),
                "__pos": pa.array(pos, pa.int64()),
            }
        )
        g = t.group_by("__line_hash", use_threads=False).aggregate(
            [("__pos", "min"), ([], "count_all")]
        )
        return g.rename_columns(["__line_hash", "__winner_pos", "__pcount"])


class _LineRebuild:
    """Pass 2: re-split each document, drop every eligible line that lost
    its duplicate group (per-batch Acero left join against the broadcast
    duplicate-winner shards), and reassemble the survivors with one
    vectorized ``binary_join`` — no Python per line.

    All shards probe the SAME original (doc_id, line_idx) positions inside
    one rebuild pass (chained rebuild passes would be WRONG: removing a line
    shifts later line indices, invalidating the packed winner positions the
    aggregate saw); a line hash lives in exactly one shard, so ANDing the
    per-shard masks equals the single-table semantics."""

    def __init__(self, winners: BroadcastSet, text_col: str, id_col: str,
                 min_chars: int, delimiter: str = "\n"):
        self.winners = winners
        self.text_col = text_col
        self.id_col = id_col
        self.min_chars = min_chars
        self.delimiter = delimiter

    def __call__(self, batch: pa.Table) -> pa.Table:
        shards = self.winners.tables()
        n = len(batch)
        texts = batch.column(self.text_col)
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        if not shards:
            return batch
        flat, parent, line_idx = _split_lines(texts, self.delimiter)
        keep = np.ones(len(flat), dtype=bool)
        if len(flat):
            doc_ids = batch.column(self.id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            eligible = (
                pc.greater_equal(pc.utf8_length(flat), self.min_chars)
                .to_numpy(zero_copy_only=False)
            )
            if eligible.any():
                h = _text_hash63(flat.filter(pa.array(eligible)))
                pos = _pack_line_pos(doc_ids[parent[eligible]], line_idx[eligible])
                probe = pa.table(
                    {
                        "__line_hash": pa.array(h, pa.int64()),
                        "__row": pa.array(np.arange(h.size), pa.int64()),
                        "__pos": pa.array(pos, pa.int64()),
                    }
                )
                ok_all: Optional[np.ndarray] = None
                for w in shards:
                    j = probe.join(w, keys="__line_hash", join_type="left outer")
                    j = j.sort_by("__row")
                    winner = j.column("__winner_pos")
                    ok = pc.or_kleene(
                        pc.is_null(winner), pc.equal(j.column("__pos"), winner)
                    )
                    ok_np = pc.fill_null(ok, False).to_numpy(zero_copy_only=False)
                    ok_all = ok_np if ok_all is None else (ok_all & ok_np)
                keep[eligible] = ok_all
        # rebuild list offsets from per-doc kept counts; null docs stay null
        valid = pc.is_valid(texts).to_numpy(zero_copy_only=False)
        kept_counts = np.zeros(n, dtype=np.int64)
        if len(flat):
            np.add.at(kept_counts, parent[keep], 1)
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(kept_counts, out=offsets[1:])
        kept_flat = flat.filter(pa.array(keep)) if len(flat) else flat
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            kept_flat.combine_chunks() if isinstance(kept_flat, pa.ChunkedArray) else kept_flat,
        )
        joined = pc.binary_join(lists, self.delimiter)
        if not valid.all():
            joined = pc.if_else(pa.array(valid), joined, pa.nulls(n, pa.string()))
        # replace the text column in place: every other column passes through
        idx = batch.column_names.index(self.text_col)
        return batch.set_column(idx, self.text_col, joined)


def line_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
               min_line_chars: int = 10, delimiter: str = "\n"):
    """C4/CCNet-style corpus-wide LINE dedup: every line of at least
    ``min_line_chars`` characters is kept only at its FIRST occurrence in
    (doc_id, line_idx) order; later exact copies anywhere in the corpus are
    removed.  Short lines never participate (structural/boilerplate noise).

    Same shape as ``exact_dedup``: a per-block (hash, min_pos, count)
    combiner, ONE slim shuffle (line hashes + packed positions, never the
    text), duplicate-group winners broadcast once, and a second streaming
    pass that rebuilds each document with a vectorized split → filter →
    ``binary_join`` — documents never shuffle and no Python-per-line runs.
    Requires an integer ``id_col`` (positions pack as doc_id·2^20+line_idx)."""
    from ..functions.shuffle import tree_group_sum

    partials = ds.map_batches(
        _LinePartials(text_col, id_col, min_line_chars, delimiter),
        batch_format="pyarrow",
    )
    groups = tree_group_sum(partials, ["__line_hash"],
                            ["__winner_pos", "__pcount"],
                            funcs=["min", "sum"])
    winners = _broadcast_dup_winners(
        groups, "__line_hash", "__winner_pos", "__winner_pos",
        count_col="__pcount",
    )
    return ds.map_batches(
        _LineRebuild(winners, text_col, id_col, min_line_chars, delimiter),
        batch_format="pyarrow",
    )


def line_filter_frequent(ds, text_col: str = "text", id_col: str = "doc_id",
                         min_count: int = 2, min_line_chars: int = 10,
                         delimiter: str = "\n"):
    """Boilerplate-line REMOVAL (the CCNet/RefinedWeb companion of
    :func:`line_dedup`): every line of at least ``min_line_chars``
    characters that occurs at least ``min_count`` times corpus-wide is
    removed from EVERY document — including its first occurrence (nav
    menus, cookie banners, license footers; ``line_dedup`` instead keeps
    the first copy).

    Same machinery end-to-end: the ``_LinePartials`` combiner already
    carries per-group counts, one slim hash shuffle, and the hot-line set
    broadcasts with ``__winner_pos = −1`` — a position no real line can
    have, so ``_LineRebuild``'s keep rule (survive unless your hash is
    listed and you are not its winner) removes every occurrence without a
    second code path.  Hot lines are O(#boilerplate lines) — far smaller
    than the duplicate-winner set — and shard by hash range past
    ``broadcast.ROWS_PER_SHARD`` like every other broadcast."""
    from ..functions.shuffle import tree_group_sum

    if min_count < 1:
        raise ValueError(f"line_filter_frequent: min_count must be ≥ 1, got {min_count}")

    partials = ds.map_batches(
        _LinePartials(text_col, id_col, min_line_chars, delimiter),
        batch_format="pyarrow",
    )
    groups = tree_group_sum(partials, ["__line_hash"], ["__pcount"])

    def hot_only(t: pa.Table) -> pa.Table:
        kept = t.filter(
            pc.greater_equal(t.column("__pcount"), min_count)
        )
        n = len(kept)
        return pa.table(
            {
                "__line_hash": kept.column("__line_hash"),
                "__winner_pos": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    hot = BroadcastSet.collect(
        groups.map_batches(hot_only, batch_format="pyarrow"), "__line_hash")
    return ds.map_batches(
        _LineRebuild(hot, text_col, id_col, min_line_chars, delimiter),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


class MinHasher:
    """num_perm universal hash functions over shingle hashes; deterministic
    coefficients from a seeded PCG64, built in ``__init__`` (0.3 ms); passed
    to ``map_batches`` as an instance (a stateless task).

    Fully vectorized per batch: one shingle-hash pass (``_batch_shingles``)
    then, per permutation, one numpy multiply-mod sweep over the flattened
    shingle array with ``np.minimum.reduceat`` segment minima — no Python
    per document or per shingle (round 1 paid one hashlib.blake2b call per
    shingle and was the slowest bench query)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 num_perm: int = 128, shingle_w: int = 3, seed: int = 1234):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.text_col = text_col
        self.id_col = id_col
        self.num_perm = num_perm
        self.shingle_w = shingle_w

    def signatures(self, texts) -> np.ndarray:
        """(n_rows, num_perm) uint64 signature matrix; wordless rows are
        all-zero."""
        S, P, n = _batch_shingles(texts, self.shingle_w)
        sig = np.zeros((n, self.num_perm), dtype=np.uint64)
        if S.size == 0:
            return sig
        starts = np.r_[0, np.flatnonzero(P[1:] != P[:-1]) + 1]
        rows = P[starts]
        m = np.uint64(_MERSENNE)
        for k in range(self.num_perm):
            v = (self.a[k] * S + self.b[k]) % m
            sig[rows, k] = np.minimum.reduceat(v, starts)
        return sig

    def signature(self, text: Optional[str]) -> np.ndarray:
        return self.signatures(pa.array([text], pa.string()))[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self.signatures(batch.column(self.text_col))
        n = len(batch)
        width = self.num_perm * 8
        buf = pa.py_buffer(np.ascontiguousarray(sig).tobytes())
        sig_arr = pa.FixedSizeBinaryArray.from_buffers(pa.binary(width), n, [None, buf])
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "signature": sig_arr,
            }
        )


def _sig_matrix(sigcol, num_perm: int) -> np.ndarray:
    """Zero-copy view of a fixed-size-binary signature column as a
    (n, num_perm) uint64 matrix (offset-aware)."""
    if isinstance(sigcol, pa.ChunkedArray):
        sigcol = sigcol.combine_chunks()
    data = np.frombuffer(sigcol.buffers()[1], dtype=np.uint64)
    start = sigcol.offset * num_perm
    return data[start : start + len(sigcol) * num_perm].reshape(-1, num_perm)


class _BandKeys:
    """signature → one int64 bucket key per band: a band-salted polynomial
    over the band's signature chunk, masked to 63 bits (native int64 through
    the shuffle — uint64 > 2^63 round-trips as pickled-object columns).
    Each output row is just ``(band_key, id)``: the signature itself never
    enters the shuffle (round 1 duplicated the full 1 KB signature into all
    32 band rows).  The band index is folded into the key, so buckets are
    per-(band, chunk-value) — a hash hot in band 0 does not drag its other
    bands' singletons through the shuffle."""

    def __init__(self, num_perm: int, bands: int, id_col: str):
        assert num_perm % bands == 0
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        ids = batch.column(self.id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        if n == 0:
            return pa.table(
                {
                    "band": pa.array([], pa.int32()),
                    "band_key": pa.array([], pa.int64()),
                    self.id_col: ids,
                }
            )
        sig = _sig_matrix(batch.column("signature"), self.num_perm)
        r = self.rows_per_band
        keys = np.empty((self.bands, n), dtype=np.uint64)
        for b in range(self.bands):
            acc = np.full(n, np.uint64(2654435761 * (b + 1) + 1), dtype=np.uint64)
            for k in range(r):
                acc = acc * np.uint64(0x100000001B3) + sig[:, b * r + k]
            keys[b] = acc
        band_key = (keys.ravel() & _MASK63).astype(np.int64)
        band = np.repeat(np.arange(self.bands, dtype=np.int32), n)
        rep_ids = pa.concat_arrays([ids] * self.bands)
        return pa.table(
            {
                "band": pa.array(band, pa.int32()),
                "band_key": pa.array(band_key, pa.int64()),
                self.id_col: rep_ids,
            }
        )


class _BucketPairsBlock:
    """Candidate pairs for ALL buckets inside one bucket-aligned survivor
    block (the block is sorted by band_key and never splits a bucket, so no
    groupby shuffle is needed — plain ``map_batches``).

    Pair estimate = fraction of equal signature components (vectorized over
    the broadcast survivor-signature matrix, strip-chunked so the pairwise
    comparison never allocates more than ~strip × bucket × num_perm bytes).
    A near-dup pair collides in SEVERAL bands; instead of a global dedupe
    shuffle afterwards (round 1's ``groupby(id_a, id_b).aggregate(Max)``),
    a bucket emits a pair only if its band is the pair's FIRST colliding
    band — checkable locally from the two signatures — so the union of all
    buckets' outputs is exactly the deduplicated pair set.

    Degenerate hot buckets (e.g. every wordless doc shares the all-zero
    signature) would do O(n²) work AND emit O(n²) pairs — buckets larger
    than ``max_bucket_rows`` yield a flag row (``__oversized_bucket``,
    ``__bucket_rows``; always-present nullable columns) instead, the
    functions.shuffle guard pattern."""

    _STRIP = 256

    def __init__(self, id_col: str, threshold: float, sig_lookup_ref,
                 num_perm: int, bands: int, max_bucket_rows: int = 4096):
        self.id_col = id_col
        self.threshold = threshold
        self.sig_lookup_ref = sig_lookup_ref
        self.num_perm = num_perm
        self.bands = bands
        self.max_bucket_rows = max_bucket_rows
        self._lookup = None

    def __call__(self, t: pa.Table) -> pa.Table:
        id_type = t.column(self.id_col).type

        def result(a, b, e, flag_key=(), flag_rows=()):
            n_pairs, n_flags = len(a), len(flag_key)
            return pa.table(
                {
                    "id_a": pa.array(list(a) + [None] * n_flags, id_type),
                    "id_b": pa.array(list(b) + [None] * n_flags, id_type),
                    "est_jaccard": pa.array(
                        list(e) + [None] * n_flags, pa.float64()
                    ),
                    "__oversized_bucket": pa.array(
                        [None] * n_pairs + list(flag_key), pa.int64()
                    ),
                    "__bucket_rows": pa.array(
                        [None] * n_pairs + list(flag_rows), pa.int64()
                    ),
                }
            )

        if len(t) < 2:
            return result([], [], [])
        if self._lookup is None:
            import ray

            obj = self.sig_lookup_ref
            self._lookup = obj if isinstance(obj, tuple) else ray.get(obj)
        index, matrix = self._lookup
        keys = t.column("band_key").to_numpy(zero_copy_only=False)
        bands_arr = t.column("band").to_numpy(zero_copy_only=False)
        all_ids = t.column(self.id_col).to_pylist()
        starts = np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1]
        ends = np.r_[starts[1:], len(keys)]
        r = self.num_perm // self.bands
        out_a, out_b, out_e = [], [], []
        flag_key, flag_rows = [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            if e - s > self.max_bucket_rows:
                flag_key.append(int(keys[s]))
                flag_rows.append(int(e - s))
                continue
            ids = all_ids[s:e]
            rows_idx = [index.get(i) for i in ids]
            present = [k for k, ri in enumerate(rows_idx) if ri is not None]
            if len(present) < 2:
                continue
            ids = [ids[k] for k in present]
            m = matrix[[rows_idx[k] for k in present]]
            n_b = len(ids)
            band = int(bands_arr[s])
            mb = m.reshape(n_b, self.bands, r)
            # strip-chunked pairwise equality: rows [lo, hi) vs all rows
            for lo in range(0, n_b, self._STRIP):
                hi = min(lo + self._STRIP, n_b)
                eq = (m[lo:hi, None, :] == m[None, :, :]).mean(axis=2)
                ii, jj = np.nonzero(eq >= self.threshold)
                for i_, j in zip(ii, jj):
                    i = lo + i_
                    if j <= i:  # upper triangle only
                        continue
                    agree = (mb[i] == mb[j]).all(axis=1)
                    if int(np.argmax(agree)) != band:
                        continue
                    a, b = sorted((ids[i], ids[j]))
                    out_a.append(a)
                    out_b.append(b)
                    out_e.append(float(eq[i_, j]))
        return result(out_a, out_b, out_e, flag_key, flag_rows)


# Above this many (doc × band) rows the hot-bucket scan switches from a
# driver-side numpy pass to a distributed count shuffle.
_DRIVER_BANDS_MAX = 5_000_000
# Survivor band rows the driver holds per hot-bucket shard.  A MinHash
# survivor carries a num_perm-wide signature, a SimHash one 16 bytes.
MINHASH_SURVIVOR_ROWS_PER_SHARD = 1_000_000
SIMHASH_SURVIVOR_ROWS_PER_SHARD = 5_000_000
# Candidate pairs verify_pairs verifies per id_a shard.
VERIFY_PAIRS_PER_SHARD = 2_000_000
# New-document band rows minhash_probe_index holds per shard.
PROBE_NEW_ROWS_PER_SHARD = 1_000_000


def _hot_survivor_shards(sigs_ds, band_stage, est_band_rows: int,
                         surv_rows_per_shard: int, key_col: str = "band_key"):
    """Band rows belonging to buckets with >= 2 members, yielded to the
    driver SORTED by bucket key, ONE hash-range shard of the bucket-key
    space at a time: ``(survivors_table, keys_np)`` pairs.

    Adaptive like ``runner.frequencies``: below ``_DRIVER_BANDS_MAX`` rows
    the whole slim band table is collected and scanned with one numpy
    dup-run pass (an order of magnitude cheaper than two distributed
    shuffles' fixed costs — one shard).  Above it, a bucketed count fold
    (``shuffle.bucketed_group_fold``) finds the hot keys, and the key
    space is split into ``ceil(total_hot_rows / surv_rows_per_shard)``
    hash shards; each shard
    collects only ITS hot keys and survivors, so the driver never holds more
    than ~``surv_rows_per_shard`` band rows (the round-2 version collected
    ALL hot survivors at once — O(#near-duplicates), unbounded on a
    duplicate-heavy crawl).  A bucket key lives in exactly one shard and
    pair ownership (first colliding band) is decided locally from the two
    signatures, so the union of per-shard pair sets equals the unsharded
    result.  Costs one extra ``band_stage`` pass over the (materialized,
    ~1%-of-text) signature dataset per shard."""
    from ..functions.broadcast import hash_shards
    from ..functions.shuffle import bucketed_group_fold

    if est_band_rows <= _DRIVER_BANDS_MAX:
        band_tbl = collect_arrow(sigs_ds.map_batches(band_stage, batch_format="pyarrow"))
        if band_tbl is None:
            return
        keys = band_tbl.column(key_col).to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        dup_adj = np.r_[False, ks[1:] == ks[:-1]]
        dup_run = dup_adj | np.r_[dup_adj[1:], False]  # any member of a run
        # order[dup_run] keeps the stable key sort: survivors arrive
        # bucket-sorted, no second sort needed
        survivors = band_tbl.take(pa.array(order[dup_run]))
        if len(survivors):
            yield survivors, ks[dup_run]
        return
    # band keys are corpus-cardinality hashes: the bucketed exchange
    counts = bucketed_group_fold(
        sigs_ds.map_batches(band_stage, batch_format="pyarrow").map_batches(
            lambda t, _k=key_col: t.select([_k]).append_column(
                "__n", pa.array(np.ones(len(t), np.int64))),
            batch_format="pyarrow"),
        [key_col], ["__n"], drop_null_keys=True)
    hot = counts.map_batches(
        lambda t: t.filter(pc.greater(t.column("__n"), 1)),
        batch_format="pyarrow",
    ).materialize()  # (key, count) of hot buckets only — reused per shard
    total_hot_rows = hot.sum("__n") or 0
    if total_hot_rows == 0:
        return
    for hot_shard in hash_shards(hot, key_col, total_hot_rows,
                                 surv_rows_per_shard):
        hot_tbl = collect_arrow(
            hot_shard.map_batches(
                lambda t, _k=key_col: t.select([_k]), batch_format="pyarrow"
            )
        )
        if hot_tbl is None or len(hot_tbl) == 0:
            continue
        survivors = collect_arrow(BroadcastSet.put(hot_tbl, key_col).semi(
            sigs_ds.map_batches(band_stage, batch_format="pyarrow"), key_col))
        if survivors is None or len(survivors) == 0:
            continue
        keys = survivors.column(key_col).to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        yield survivors.take(pa.array(order)), keys[order]


def _bucket_aligned_blocks(sorted_surv: pa.Table, skeys: np.ndarray, n_parts: int):
    """Split a bucket-sorted survivor table into ~n_parts Arrow blocks that
    never split a bucket, so the per-bucket pair stage runs as a plain
    parallel ``map_batches`` — no groupby shuffle (a single-block input
    would run every bucket in ONE task)."""
    bounds = np.r_[0, np.flatnonzero(skeys[1:] != skeys[:-1]) + 1, len(skeys)]
    step = max(1, len(skeys) // n_parts + 1)
    cut_idx = bounds[np.unique(np.searchsorted(bounds, np.arange(0, len(skeys), step)))]
    cuts = np.r_[cut_idx, len(skeys)]
    return [
        sorted_surv.slice(int(a), int(b - a))
        for a, b in zip(cuts[:-1], cuts[1:])
        if b > a
    ]


def minhash_lsh_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                      num_perm: int = 128, bands: int = 32,
                      threshold: float = 0.5,
                      max_bucket_rows: int = 4096):
    """Near-duplicate candidate pairs via MinHash+LSH.

    shingle→minhash (task, fully vectorized) → slim (band, band_key,
    id) rows — the signature itself never enters a shuffle — → hot-bucket
    scan (driver numpy below ``_DRIVER_BANDS_MAX`` rows, distributed count
    shuffle above, processed one bucket-key hash shard at a time: the driver
    holds at most ~``MINHASH_SURVIVOR_ROWS_PER_SHARD`` survivor band rows
    plus that shard's signature lookup at once, so a duplicate-heavy crawl
    cannot materialize O(#near-duplicates) on the driver) → only each
    shard's hot-bucket survivors get signatures re-attached from a
    broadcast lookup (≤ ``MINHASH_SURVIVOR_ROWS_PER_SHARD`` × num_perm ×
    8 B per shard) → within-bucket pair estimation.  Each pair is emitted
    ONLY by its first colliding band (checked locally from the two
    signatures, independent of which buckets the shard contains), so no
    cross-band dedupe shuffle is needed and the union of per-shard outputs
    is exactly the global pair set.  Broadcast
    ``is_in`` replaces a Dataset join throughout: Ray 2.49's hash-join
    partitioner is a per-row Python loop and breaks on empty partitions."""
    import ray
    import ray.data as rd
    import pandas as pd

    from ..functions.shuffle import _cluster_cpus

    empty = pd.DataFrame({"id_a": [], "id_b": [], "est_jaccard": []})
    n_parts = _cluster_cpus()
    # repartition before materialize: a single-file read yields one block,
    # and every downstream groupby/map_groups inherits that serial layout
    # (one task does ALL the per-group work) unless the signatures are
    # spread first.  ~1% of text volume; consumed by the per-shard passes.
    sigs = ds.map_batches(
        MinHasher(text_col=text_col, id_col=id_col, num_perm=num_perm),
        batch_format="pyarrow",
    ).repartition(n_parts).materialize()
    band_stage = _BandKeys(num_perm, bands, id_col)
    n_docs = sigs.count()  # metadata on a materialized dataset — free

    # Most buckets are singletons; the hot-bucket scan finds the few
    # colliding band keys so the per-bucket pair stage only ever sees actual
    # candidates (map_groups over all buckets is O(#docs·bands) Python
    # overhead otherwise).
    shard_outputs = []
    for sorted_surv, skeys in _hot_survivor_shards(
        sigs, band_stage, n_docs * bands, MINHASH_SURVIVOR_ROWS_PER_SHARD,
    ):
        # re-attach signatures to this shard's (tiny) survivor set only
        sig_tbl = collect_arrow(
            _key_set(sorted_surv.column(id_col), id_col).semi(sigs, id_col))
        index = {v: i for i, v in enumerate(sig_tbl.column(id_col).to_pylist())}
        matrix = _sig_matrix(sig_tbl.column("signature"), num_perm).copy()
        sig_lookup_ref = ray.put((index, matrix))
        bucket_pairs = _BucketPairsBlock(
            id_col, threshold, sig_lookup_ref, num_perm, bands, max_bucket_rows
        )
        surv_blocks = _bucket_aligned_blocks(sorted_surv, skeys, n_parts)
        shard_outputs.append(
            rd.from_arrow(surv_blocks).map_batches(
                lambda t, _bp=bucket_pairs: _bp(t),
                batch_format="pyarrow",
                batch_size=None,
            )
        )
    if not shard_outputs:
        return rd.from_pandas(empty)
    out = shard_outputs[0]
    for extra in shard_outputs[1:]:
        out = out.union(extra)
    return out


def _attach_texts(t: pa.Table) -> pa.Table:
    """Exchange fold on ``join_id`` (complete ids): each pair slot row
    (``slot`` 0/1) joins its doc row's text (``slot`` -1).  A slot whose
    id has no doc row drops (an unresolvable id must not verify); a null
    text on a PRESENT doc counts as the empty string (the SQL oracle's
    ``COALESCE(text, '')``)."""
    is_doc = pc.less(t.column("slot"), 0)
    docs = t.filter(is_doc).select(["join_id", "text"])
    slots = t.filter(pc.invert(is_doc)).select(
        ["join_id", "id_a", "id_b", "slot"])
    m = slots.join(docs, keys="join_id", join_type="inner")
    return pa.table({"id_a": m.column("id_a"), "id_b": m.column("id_b"),
                     "slot": m.column("slot"),
                     "text": pc.fill_null(m.column("text"), "")})


def _pair_jaccard(shingle_w: int, threshold: float):
    """Exchange fold on ``(id_a, id_b)`` (complete pairs): both texts of a
    pair side by side, then the exact word-shingle Jaccard.  The same pair
    may arrive several times (e.g. a union of candidate sets from several
    LSH seeds), so each (pair, slot) keeps one row; a pair missing either
    side does not verify."""
    from ..functions.shuffle import key_runs

    keys = ["id_a", "id_b", "slot"]

    def fold(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))
        t = t.take(pa.array(key_runs(t, keys)[:-1], pa.int64()))
        slot = t.column("slot")
        a = t.filter(pc.equal(slot, 0)).select(["id_a", "id_b", "text"])
        b = t.filter(pc.equal(slot, 1)).select(["id_a", "id_b", "text"])
        m = a.join(b.rename_columns(["id_a", "id_b", "text_b"]),
                   keys=["id_a", "id_b"], join_type="inner")
        j = pa.array([ngram_jaccard(x, y, shingle_w) for x, y in zip(
            m.column("text").to_pylist(), m.column("text_b").to_pylist())],
            pa.float64())
        keep = pc.greater_equal(j, threshold)
        return pa.table({"id_a": m.column("id_a").filter(keep),
                         "id_b": m.column("id_b").filter(keep),
                         "jaccard": j.filter(keep)})

    return fold


def verify_pairs(ds, pairs, text_col: str = "text", id_col: str = "doc_id",
                 shingle_w: int = 3, threshold: float = 0.0):
    """Exact n-gram Jaccard verification of LSH candidate pairs — fully
    distributed; neither candidate TEXTS nor the candidate-pair table ever
    touch the driver (round 1 collected a driver dict of every candidate
    text; round 2 still collected the full pair table to build the id set).

    Oversized-bucket FLAG rows (null id_a/id_b with ``__oversized_bucket``
    set — emitted by the pair stages instead of O(n²) work on a degenerate
    bucket) are dropped explicitly with a ``UserWarning`` carrying the count:
    their pairs were never enumerated, so recall over those buckets is lost
    and the caller should resplit (more bands/planes) or raise
    ``max_bucket_rows`` rather than silently proceed.

    The pair set is processed one ``id_a`` hash shard at a time
    (``VERIFY_PAIRS_PER_SHARD`` pairs per shard), per shard:

    1. Only that shard's candidate-id SET (compact Arrow ints/strings,
       deduplicated distributively per block) is collected and broadcast;
       the corpus is semi-filtered to candidate rows in one streaming pruned
       scan (one corpus scan per shard — the price of a bounded driver).
    2. One hash exchange on the doc id (``shuffle.hash_exchange``) of the
       candidate texts and the pair slots attaches each text to its slots
       with a vectorized Arrow join per bucket — the exchange moves
       candidate-sized data only.
    3. A second exchange on ``(id_a, id_b)`` brings a pair's two texts
       together and the Jaccard kernel runs per bucket.

    Returns (id_a, id_b, jaccard) filtered to ``jaccard >= threshold``."""
    import warnings

    import pandas as pd
    import ray.data as rd

    from ..functions.broadcast import hash_shards
    from ..functions.shuffle import hash_exchange

    empty = pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    pairs_mat = pairs.materialize()
    if pairs_mat.count() == 0:
        return rd.from_pandas(empty)
    col_names = pairs_mat.schema().names
    if "__oversized_bucket" in col_names:
        n_flag = pairs_mat.map_batches(
            lambda t: t.filter(
                pc.is_valid(t.column("__oversized_bucket"))
            ).select(["__oversized_bucket"]),
            batch_format="pyarrow",
        ).count()
        if n_flag:
            warnings.warn(
                f"verify_pairs: dropping {n_flag} oversized-bucket flag rows —"
                " pairs in those buckets were never enumerated (recall loss);"
                " resplit with more bands or raise max_bucket_rows",
                UserWarning,
                stacklevel=2,
            )

    def clean(t: pa.Table) -> pa.Table:
        t = t.select(["id_a", "id_b"])
        return t.filter(
            pc.and_(pc.is_valid(t.column("id_a")), pc.is_valid(t.column("id_b")))
        )

    # materialized: each shard reads it twice (its id set, its slots)
    clean_pairs = pairs_mat.map_batches(clean, batch_format="pyarrow"
                                        ).materialize()
    n_pairs = clean_pairs.count()
    if n_pairs == 0:
        return rd.from_pandas(empty)

    def explode_slots(t: pa.Table) -> pa.Table:
        a, b = t.column("id_a"), t.column("id_b")
        id_type = a.type
        n = len(t)
        return pa.table(
            {
                "join_id": pa.concat_arrays(
                    [a.combine_chunks(), b.combine_chunks()]
                ),
                "id_a": pa.concat_arrays([a.combine_chunks()] * 2),
                "id_b": pa.concat_arrays([b.combine_chunks()] * 2),
                "slot": pa.array([0] * n + [1] * n, pa.int32()),
                "text": pa.nulls(2 * n, pa.string()),
            }
        )

    def uniq_ids(t: pa.Table) -> pa.Table:
        u = pc.unique(
            pa.concat_arrays(
                [t.column("id_a").combine_chunks(), t.column("id_b").combine_chunks()]
            )
        )
        return pa.table({"join_id": u})

    def texts_side(t: pa.Table, wanted: BroadcastSet, id_type) -> pa.Table:
        kept = t.filter(wanted.isin(t.column(id_col)))
        n = len(kept)
        return pa.table(
            {
                "join_id": kept.column(id_col),
                "id_a": pa.nulls(n, id_type),
                "id_b": pa.nulls(n, id_type),
                "slot": pa.array([-1] * n, pa.int32()),
                "text": kept.column(text_col),
            }
        )

    jaccard = _pair_jaccard(shingle_w, threshold)
    shard_outputs = []
    for pairs_s in hash_shards(clean_pairs, "id_a", n_pairs,
                               VERIFY_PAIRS_PER_SHARD):
        wanted_tbl = collect_arrow(
            pairs_s.map_batches(uniq_ids, batch_format="pyarrow")
        )
        if wanted_tbl is None or len(wanted_tbl) == 0:
            continue
        wanted = _key_set(wanted_tbl.column("join_id"), "join_id")
        texts = ds.map_batches(
            lambda t, _w=wanted, _ty=wanted_tbl.column("join_id").type:
            texts_side(t, _w, _ty),
            batch_format="pyarrow",
        )
        slots_side = pairs_s.map_batches(explode_slots, batch_format="pyarrow")
        attached = hash_exchange(texts.union(slots_side), ["join_id"],
                                 _attach_texts)
        shard_outputs.append(
            hash_exchange(attached, ["id_a", "id_b"], jaccard))
    if not shard_outputs:
        return rd.from_pandas(empty)
    out = shard_outputs[0]
    for extra in shard_outputs[1:]:
        out = out.union(extra)
    return out


def ngram_jaccard(text_a: str, text_b: str, w: int = 3) -> float:
    """Exact word-w-gram Jaccard (candidate verification kernel).

    Texts shorter than w words contribute their full word tuple as the single
    shingle (mirroring ``_batch_shingles``) — otherwise two completely
    different short texts would both have empty shingle sets and 'verify' as
    perfect duplicates."""

    def shingles(text: Optional[str]):
        words = text.split() if isinstance(text, str) else []
        if not words:
            return set()
        if len(words) < w:
            return {tuple(words)}
        return set(zip(*[words[i:] for i in range(w)]))

    a, b = shingles(text_a), shingles(text_b)
    if not a and not b:
        return 1.0  # both genuinely empty
    return len(a & b) / max(len(a | b), 1)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


class SimHasher:
    """64-bit SimHash over word hashes.

    Fully vectorized per batch: one tokenize+hash pass for the whole string
    array, per-token ±1 bit contributions, and per-document bit sums via
    ``np.add.reduceat`` segment reduction — no Python per document or per
    word (round 1 ran a per-word blake2b loop per document)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def simhashes(self, texts) -> np.ndarray:
        """(n_rows,) uint64 simhash per document; wordless rows are 0."""
        h, tp, n = _batch_token_hashes(texts)
        out = np.zeros(n, dtype=np.uint64)
        if h.size == 0:
            return out
        # (T, 64) ±1 contributions, segment-summed per row (tokens arrive in
        # row order, so reduceat over row starts is exact)
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int8)
        contrib = (2 * bits - 1).astype(np.int32)
        starts = np.r_[0, np.flatnonzero(tp[1:] != tp[:-1]) + 1]
        rows = tp[starts]
        v = np.add.reduceat(contrib, starts, axis=0)  # (#nonempty rows, 64)
        packed = ((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum(axis=1)
        out[rows] = packed
        return out

    def simhash(self, text: Optional[str]) -> int:
        return int(self.simhashes(pa.array([text], pa.string()))[0])

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = self.simhashes(batch.column(self.text_col))
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "simhash": pa.array(hs, pa.uint64()),
            }
        )


def simhash_signatures(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(SimHasher(text_col=text_col, id_col=id_col),
                          batch_format="pyarrow")


def _simhash_band_specs(n_bands: int):
    """(shifts, masks) for 64-bit simhash banding; the last band absorbs the
    remainder bits."""
    width = 64 // n_bands
    shifts = [np.uint64(width * b) for b in range(n_bands)]
    masks = [
        np.uint64((1 << (64 - width * (n_bands - 1))) - 1)
        if b == n_bands - 1
        else np.uint64((1 << width) - 1)
        for b in range(n_bands)
    ]
    return shifts, masks


class _SimhashBands:
    """Explode each simhash into ``n_bands`` band rows (pigeonhole: any pair
    within Hamming distance ≤ n_bands − 1 of the full 64 bits shares at
    least one exact band).  Fully vectorized; the band value folds with the
    band index into ONE int64 ``band_key`` (band occupies the low 4 bits),
    and the 8-byte simhash rides along so the pair stage needs no
    re-attach join."""

    def __init__(self, id_col: str, n_bands: int = 4):
        assert 2 <= n_bands <= 16
        self.id_col = id_col
        self.n_bands = n_bands
        self.shifts, self.masks = _simhash_band_specs(n_bands)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        n = len(batch)
        if n == 0:
            return pa.table(
                {
                    self.id_col: ids,
                    "band": pa.array([], pa.int32()),
                    "band_key": pa.array([], pa.int64()),
                    "simhash": pa.array([], pa.uint64()),
                }
            )
        hashes = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        keys = np.concatenate(
            [
                ((hashes >> sh) & m).astype(np.int64) * 16 + b
                for b, (sh, m) in enumerate(zip(self.shifts, self.masks))
            ]
        )
        bands = np.repeat(np.arange(self.n_bands, dtype=np.int32), n)
        rep_ids = pa.concat_arrays([ids] * self.n_bands)
        return pa.table(
            {
                self.id_col: rep_ids,
                "band": pa.array(bands, pa.int32()),
                "band_key": pa.array(keys, pa.int64()),
                "simhash": pa.array(np.tile(hashes, self.n_bands), pa.uint64()),
            }
        )


_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


class _SimhashBucketPairsBlock:
    """Hamming-verified pairs for ALL buckets inside one bucket-aligned
    survivor block (plain ``map_batches`` — no groupby shuffle).

    Vectorized per bucket: XOR matrix + byte-LUT popcount.  A pair within
    distance collides in several bands; a bucket emits it only if its band
    is the pair's FIRST colliding band (recomputed locally from the two
    simhashes), so the union of buckets is the deduplicated pair set and no
    ``groupby(id_a, id_b).aggregate(Min)`` shuffle is needed."""

    _STRIP = 1024

    def __init__(self, id_col: str, max_hamming: int, n_bands: int,
                 max_bucket_rows: int = 4096):
        self.id_col = id_col
        self.max_hamming = max_hamming
        self.n_bands = n_bands
        self.max_bucket_rows = max_bucket_rows
        self.shifts, self.masks = _simhash_band_specs(n_bands)

    def _first_band(self, ha: np.uint64, hb: np.uint64) -> int:
        for b, (sh, m) in enumerate(zip(self.shifts, self.masks)):
            if (ha >> sh) & m == (hb >> sh) & m:
                return b
        return -1

    def __call__(self, t: pa.Table) -> pa.Table:
        id_type = t.column(self.id_col).type

        def result(a, b, d, flag_key=(), flag_rows=()):
            n_pairs, n_flags = len(a), len(flag_key)
            return pa.table(
                {
                    "id_a": pa.array(list(a) + [None] * n_flags, id_type),
                    "id_b": pa.array(list(b) + [None] * n_flags, id_type),
                    "hamming": pa.array(list(d) + [None] * n_flags, pa.int64()),
                    "__oversized_bucket": pa.array(
                        [None] * n_pairs + list(flag_key), pa.int64()
                    ),
                    "__bucket_rows": pa.array(
                        [None] * n_pairs + list(flag_rows), pa.int64()
                    ),
                }
            )

        if len(t) < 2:
            return result([], [], [])
        keys = t.column("band_key").to_numpy(zero_copy_only=False)
        bands_arr = t.column("band").to_numpy(zero_copy_only=False)
        hashes = t.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        all_ids = t.column(self.id_col).to_pylist()
        starts = np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1]
        ends = np.r_[starts[1:], len(keys)]
        out_a, out_b, out_d = [], [], []
        flag_key, flag_rows = [], []
        for s_, e_ in zip(starts, ends):
            m = e_ - s_
            if m < 2:
                continue
            if m > self.max_bucket_rows:
                # one degenerate bucket (e.g. all-zero simhashes of wordless
                # docs) would cost O(m²) memory and emit O(m²) pairs — flag
                # it instead (functions.shuffle guard pattern)
                flag_key.append(int(keys[s_]))
                flag_rows.append(int(m))
                continue
            hs = hashes[s_:e_]
            band = int(bands_arr[s_])
            # strip-chunked XOR + byte-LUT popcount: rows [lo,hi) vs all
            for lo in range(0, m, self._STRIP):
                hi = min(lo + self._STRIP, m)
                xor = hs[lo:hi, None] ^ hs[None, :]
                dist = _POPCNT8[xor.view(np.uint8).reshape(hi - lo, m, 8)].sum(axis=2)
                ii, jj = np.nonzero(dist <= self.max_hamming)
                for i_, j in zip(ii, jj):
                    i = lo + i_
                    if j <= i:  # upper triangle only
                        continue
                    if self._first_band(hs[i], hs[j]) != band:
                        continue
                    a, b = sorted((all_ids[s_ + i], all_ids[s_ + j]))
                    out_a.append(a)
                    out_b.append(b)
                    out_d.append(int(dist[i_, j]))
        return result(out_a, out_b, out_d, flag_key, flag_rows)


def simhash_near_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                       max_hamming: int = 3,
                       max_bucket_rows: int = 4096):
    """SimHash near-duplicate pairs: signatures → slim band_key rows →
    adaptive hot-bucket scan (driver numpy / distributed count, one
    bucket-key hash shard at a time — shared machinery with MinHash, so the
    driver never holds more than ~``SIMHASH_SURVIVOR_ROWS_PER_SHARD``
    survivor rows) → bucket-aligned Hamming verification ≤ max_hamming with
    first-colliding-band pair ownership (decided locally from the two
    simhashes, so the union of per-shard outputs is the global dedup'd pair
    set — no dedupe shuffle).

    Band count = max_hamming + 1 (pigeonhole guarantee: every pair within
    the requested distance shares ≥ 1 exact band); supports
    max_hamming ≤ 15 (16 bands of 4 bits)."""
    if not 0 <= max_hamming <= 15:
        raise ValueError("max_hamming must be in [0, 15] for 64-bit banding")
    import pandas as pd
    import ray.data as rd

    from ..functions.shuffle import _cluster_cpus

    empty = pd.DataFrame({"id_a": [], "id_b": [], "hamming": []})
    n_parts = _cluster_cpus()
    n_bands = max(2, max_hamming + 1)
    sigs = simhash_signatures(ds, text_col, id_col).repartition(
        n_parts
    ).materialize()  # 16 bytes per doc
    n_docs = sigs.count()
    bp = _SimhashBucketPairsBlock(id_col, max_hamming, n_bands, max_bucket_rows)
    shard_outputs = []
    for sorted_surv, skeys in _hot_survivor_shards(
        sigs, _SimhashBands(id_col, n_bands), n_docs * n_bands,
        SIMHASH_SURVIVOR_ROWS_PER_SHARD,
    ):
        surv_blocks = _bucket_aligned_blocks(sorted_surv, skeys, n_parts)
        shard_outputs.append(
            rd.from_arrow(surv_blocks).map_batches(
                lambda t, _bp=bp: _bp(t), batch_format="pyarrow", batch_size=None
            )
        )
    if not shard_outputs:
        return rd.from_pandas(empty)
    out = shard_outputs[0]
    for extra in shard_outputs[1:]:
        out = out.union(extra)
    return out


# ---------------------------------------------------------------------------
# Embedding near-dup
# ---------------------------------------------------------------------------


class _HyperplaneBucket:
    """Random-hyperplane LSH bucket id for each embedding (int64 so the
    shuffle keeps a native integer column)."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 99,
                 emb_col: str = "embedding", id_col: str = "vec_id"):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_planes))
        self.emb_col = emb_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..util import embedding_matrix

        emb = embedding_matrix(batch.column(self.emb_col), np.float64)
        signs = (emb @ self.planes) > 0
        bucket = (signs.astype(np.int64) << np.arange(signs.shape[1], dtype=np.int64)).sum(axis=1)
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "bucket": pa.array(bucket, pa.int64()),
                self.emb_col: batch.column(self.emb_col),
            }
        )


class _BucketCosinePairs:
    """One hyperplane-LSH bucket (a ``shuffle.per_key_fold`` run): the
    pairs with cosine ≥ ``threshold``, or a flag row when the bucket holds
    more than ``max_bucket_rows`` vectors.  Flag columns
    (``__oversized_bucket``, ``__bucket_rows``) are always present and
    null on pair rows, so every bucket returns one schema."""

    def __init__(self, threshold: float, emb_col: str, id_col: str,
                 max_bucket_rows: int):
        self.threshold = threshold
        self.emb_col = emb_col
        self.id_col = id_col
        self.max_bucket_rows = max_bucket_rows

    def __call__(self, g: pa.Table) -> pa.Table:
        from ..util import embedding_matrix

        id_type = g.schema.field(self.id_col).type
        n = len(g)
        a, b, cos, flag = [], [], np.empty(0), []
        if n > self.max_bucket_rows:
            # one dense bucket would do O(n²) work in a single task —
            # refuse to materialize it and surface a flag row instead
            flag = [g.column("bucket")[0].as_py()]
        elif n >= 2:
            ids = g.column(self.id_col).to_pylist()
            emb = embedding_matrix(g.column(self.emb_col), np.float64)
            emb = emb / np.maximum(
                np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
            sims = emb @ emb.T
            ii, jj = np.nonzero(np.triu(sims >= self.threshold, k=1))
            pairs = [sorted((ids[i], ids[j])) for i, j in zip(ii, jj)]
            a, b = [p[0] for p in pairs], [p[1] for p in pairs]
            cos = sims[ii, jj]
        nulls = [None] * len(a)
        return pa.table({
            "id_a": pa.array(a + [None] * len(flag), id_type),
            "id_b": pa.array(b + [None] * len(flag), id_type),
            "cosine": pa.array(list(cos) + [None] * len(flag), pa.float64()),
            "__oversized_bucket": pa.array(nulls + flag, pa.int64()),
            "__bucket_rows": pa.array(nulls + [n] * len(flag), pa.int64()),
        })


def embedding_cosine_pairs(ds, threshold: float = 0.9, dim: int = 64,
                           emb_col: str = "embedding", id_col: str = "vec_id",
                           max_bucket_rows: int = 4096):
    """Near-duplicate embeddings: hyperplane-LSH buckets → within-bucket
    cosine ≥ threshold.  Recall is per-bucket (standard LSH tradeoff); run
    with several seeds and union for higher recall.

    Scale guards (VERDICT r1 item 6): a hot-bucket prefilter — one
    ``tree_group_sum`` count over the (bucket) projection (≤ 2^12 planes'
    worth of keys) finds the buckets with ≥ 2 members,
    so the embedding-carrying shuffle and the per-bucket UDF only ever see
    actual candidates — and a bucket-size cap: a bucket larger than
    ``max_bucket_rows`` yields a flag row (``__oversized_bucket``,
    ``__bucket_rows``; always-present nullable columns) instead of O(n²)
    work in one task; downstream decides (resplit with more planes,
    sample, or drop).  The candidates take one hash exchange on the LSH
    bucket, and each bucket runs the pair scan once per LSH bucket
    (``shuffle.per_key_fold``)."""
    from ..functions.shuffle import hash_exchange, per_key_fold, tree_group_sum

    bucketed = ds.map_batches(
        _HyperplaneBucket(dim, emb_col=emb_col, id_col=id_col), batch_format="pyarrow"
    )
    counts = collect_arrow(tree_group_sum(
        bucketed.map_batches(
            lambda t: t.select(["bucket"]).append_column(
                "__n", pa.array(np.ones(len(t), np.int64))),
            batch_format="pyarrow"),
        ["bucket"], ["__n"], drop_null_keys=True))
    hot_tbl = (None if counts is None
               else counts.filter(pc.greater(counts.column("__n"), 1)))
    if hot_tbl is None or len(hot_tbl) == 0:
        import pandas as pd
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({"id_a": [], "id_b": [], "cosine": []}))
    hot = BroadcastSet.put(hot_tbl.select(["bucket"]), "bucket").semi(
        bucketed, "bucket")
    return hash_exchange(hot, ["bucket"], per_key_fold(
        ["bucket"],
        _BucketCosinePairs(threshold, emb_col, id_col, max_bucket_rows)))


def snapshot_diff(old_ds, new_ds, key_col: str, content_cols):
    """Delta detection between two corpus snapshots keyed by ``key_col``:
    one row per key that differs — status ``'added'`` (key only in new),
    ``'removed'`` (only in old), ``'changed'`` (present in both, any
    ``content_cols`` value differs by deterministic content hash).
    Unchanged keys emit nothing, so the output is delta-sized.

    The incremental-ingest primitive: diff today's crawl against
    yesterday's to reprocess only what moved.  Both sides reduce to slim
    ``(key, content_hash, slot)`` rows per block (content hash =
    column-wise ``stable_hash64`` mixed per row — text never shuffles),
    then ONE hash exchange on the key (``shuffle.hash_exchange``) brings
    each key's rows together and each bucket classifies its keys with one
    Arrow full outer join.  Returns ``(key, status)``, the key in its
    input type.  Duplicate keys within a snapshot are an error (a diff by
    key is ill-defined otherwise).  Null keys are dropped."""
    from ..functions.shuffle import hash_exchange
    from ..util import dataset_arrow_schema, stable_hash64

    content_cols = list(content_cols)
    # resolve the key type ONCE so every side block and the fold output
    # agree (a hardcoded int64 would break string-keyed snapshots)
    key_type = pa.int64()
    for side_ds in (old_ds, new_ds):
        schema = dataset_arrow_schema(side_ds)
        if schema is not None and key_col in schema.names:
            key_type = schema.field(key_col).type
            break

    def side(slot):
        def f(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_valid(t.column(key_col)))
            acc = np.zeros(len(t), dtype=np.uint64)
            for c in content_cols:
                col = t.column(c).combine_chunks()
                h = stable_hash64(col)
                # stable_hash64 hashes null like the type's zero value —
                # blend the validity bit so NULL<->''/0.0 transitions are
                # detected as changes (SQL IS DISTINCT FROM semantics)
                if col.null_count:
                    null_mask = pc.is_null(col).to_numpy(zero_copy_only=False)
                    h = np.where(
                        null_mask, np.uint64(0xD6E8FEB86659FD93), h
                    )
                acc = acc * np.uint64(0x9E3779B97F4A7C15) + h
            return pa.table(
                {
                    "key": t.column(key_col).cast(key_type),
                    "chash": pa.array(acc.view(np.int64)),
                    "slot": pa.array(np.full(len(t), slot, dtype=np.int32)),
                }
            )
        return f

    unioned = old_ds.map_batches(side(0), batch_format="pyarrow").union(
        new_ds.map_batches(side(1), batch_format="pyarrow")
    )

    def classify(t: pa.Table) -> pa.Table:
        if len(t) == 0:  # the exchange's typed empty (may lack columns)
            return pa.table({"key": pa.array([], key_type),
                             "status": pa.array([], pa.string())})
        sides = []
        for slot, name in ((0, "chash_old"), (1, "chash_new")):
            s = t.filter(pc.equal(t.column("slot"), slot))
            if len(pc.unique(s.column("key"))) != len(s):
                raise ValueError(
                    "snapshot_diff: duplicate keys within a snapshot")
            sides.append(pa.table({"key": s.column("key"),
                                   name: s.column("chash")}))
        m = sides[0].join(sides[1], keys="key", join_type="full outer")
        old, new = m.column("chash_old"), m.column("chash_new")
        none = pa.scalar(None, pa.string())
        status = pc.if_else(
            pc.is_null(old), "added", pc.if_else(
                pc.is_null(new), "removed", pc.if_else(
                    pc.not_equal(old, new), "changed", none)))
        keep = pc.is_valid(status)
        return pa.table({"key": m.column("key").filter(keep),
                         "status": status.filter(keep)})

    return hash_exchange(unioned, ["key"], classify)


# ---------------------------------------------------------------------------
# Incremental near-dup: persisted MinHash index + probe
# ---------------------------------------------------------------------------


def minhash_index_write(ds, path: str, text_col: str = "text",
                        id_col: str = "doc_id", num_perm: int = 128,
                        bands: int = 32, shingle_w: int = 3):
    """Persist a corpus near-dup index for later incremental probing
    (:func:`minhash_probe_index`) — the MinHash counterpart of
    ``bloom.bloom_new_rows``'s exact-membership summary:

    - ``{path}/signatures``  (id, signature fixed(num_perm*8))
    - ``{path}/bands``       (band, band_key, id) slim int64 rows

    Both are streaming ``write_parquet`` sinks (multi-file, resumable);
    the band table is derived by RE-READING the written signatures so the
    expensive shingle/minhash pass runs exactly once (a lazy Dataset
    consumed twice would re-execute it).  Coefficients are seed-derived,
    so any later run with the same (num_perm, bands, shingle_w, seed)
    produces comparable signatures."""
    import ray.data as rd

    sigs = ds.map_batches(
        MinHasher(text_col=text_col, id_col=id_col, num_perm=num_perm,
                  shingle_w=shingle_w),
        batch_format="pyarrow",
    )
    sigs.write_parquet(f"{path}/signatures")
    rd.read_parquet(f"{path}/signatures").map_batches(
        _BandKeys(num_perm, bands, id_col), batch_format="pyarrow"
    ).write_parquet(f"{path}/bands")
    return path


class _CrossBucketPairs:
    """Cross-side candidate pairs for bucket-aligned survivor blocks: within
    each band bucket, pair NEW rows against OLD (indexed) rows only.
    Estimate = fraction of equal signature components from the broadcast
    (index, matrix) lookup, strip-chunked over the new side so the pairwise
    comparison never allocates more than ~strip × bucket × num_perm bytes
    (the ``_BucketPairsBlock`` bound); a pair is emitted only by its FIRST
    colliding band (locally checkable from the two signatures), so the
    union over buckets is deduplicated.  Oversized buckets emit flag rows,
    the ``_BucketPairsBlock`` convention."""

    _STRIP = 256

    def __init__(self, id_col: str, threshold: float, sig_lookup_ref,
                 num_perm: int, bands: int, max_bucket_rows: int = 4096):
        self.id_col = id_col
        self.threshold = threshold
        self.sig_lookup_ref = sig_lookup_ref
        self.num_perm = num_perm
        self.bands = bands
        self.max_bucket_rows = max_bucket_rows
        self._lookup = None

    def __call__(self, t: pa.Table) -> pa.Table:
        id_type = t.column(self.id_col).type

        def result(a, b, e, flag_key=(), flag_rows=()):
            n_pairs, n_flags = len(a), len(flag_key)
            return pa.table(
                {
                    "new_id": pa.array(list(a) + [None] * n_flags, id_type),
                    "old_id": pa.array(list(b) + [None] * n_flags, id_type),
                    "est_jaccard": pa.array(
                        list(e) + [None] * n_flags, pa.float64()
                    ),
                    "__oversized_bucket": pa.array(
                        [None] * n_pairs + list(flag_key), pa.int64()
                    ),
                    "__bucket_rows": pa.array(
                        [None] * n_pairs + list(flag_rows), pa.int64()
                    ),
                }
            )

        if len(t) < 2:
            return result([], [], [])
        if self._lookup is None:
            import ray

            obj = self.sig_lookup_ref
            self._lookup = obj if isinstance(obj, tuple) else ray.get(obj)
        index, matrix = self._lookup
        keys = t.column("band_key").to_numpy(zero_copy_only=False)
        bands_arr = t.column("band").to_numpy(zero_copy_only=False)
        is_new = t.column("__is_new").to_numpy(zero_copy_only=False)
        all_ids = t.column(self.id_col).to_pylist()
        starts = np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1]
        ends = np.r_[starts[1:], len(keys)]
        r = self.num_perm // self.bands
        out_a, out_b, out_e = [], [], []
        flag_key, flag_rows = [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            if e - s > self.max_bucket_rows:
                flag_key.append(int(keys[s]))
                flag_rows.append(int(e - s))
                continue
            seg_new = np.flatnonzero(is_new[s:e]) + s
            seg_old = np.flatnonzero(~is_new[s:e]) + s
            if seg_new.size == 0 or seg_old.size == 0:
                continue
            new_rows = [index.get(("n", all_ids[i])) for i in seg_new]
            old_rows = [index.get(("o", all_ids[j])) for j in seg_old]
            nk = [k for k, ri in enumerate(new_rows) if ri is not None]
            ok = [k for k, ri in enumerate(old_rows) if ri is not None]
            if not nk or not ok:
                continue
            new_ids = [all_ids[seg_new[k]] for k in nk]
            old_ids = [all_ids[seg_old[k]] for k in ok]
            mn = matrix[[new_rows[k] for k in nk]]
            mo = matrix[[old_rows[k] for k in ok]]
            band = int(bands_arr[s])
            mnb = mn.reshape(len(new_ids), self.bands, r)
            mob = mo.reshape(len(old_ids), self.bands, r)
            for lo in range(0, len(new_ids), self._STRIP):
                hi = min(lo + self._STRIP, len(new_ids))
                eq = (mn[lo:hi, None, :] == mo[None, :, :]).mean(axis=2)
                ii, jj = np.nonzero(eq >= self.threshold)
                for i_, j in zip(ii, jj):
                    i = lo + i_
                    agree = (mnb[i] == mob[j]).all(axis=1)
                    if int(np.argmax(agree)) != band:
                        continue
                    out_a.append(new_ids[i])
                    out_b.append(old_ids[j])
                    out_e.append(float(eq[i_, j]))
        return result(out_a, out_b, out_e, flag_key, flag_rows)


def minhash_probe_index(new_ds, path: str, text_col: str = "text",
                        id_col: str = "doc_id", num_perm: int = 128,
                        bands: int = 32, shingle_w: int = 3,
                        threshold: float = 0.5,
                        max_bucket_rows: int = 4096):
    """Probe a NEW document shard against a persisted
    :func:`minhash_index_write` index: pairs ``(new_id, old_id,
    est_jaccard)`` where a new document near-duplicates an already-indexed
    one — the continuous-crawl ingestion gate ("is this page a near-copy
    of anything we already hold?") without re-banding the old corpus.

    New and indexed id spaces must be disjoint.  Parameters must match
    the ones the index was written with.

    Scale shape: the new shard (a crawl increment — small relative to the
    index) is minhashed once and its slim band rows are processed one
    hash-range shard at a time (≤ ``PROBE_NEW_ROWS_PER_SHARD`` band rows on
    the driver); per shard, the shard's band keys broadcast and the INDEX
    band table is semi-filtered in one streaming pruned scan — the index
    never loads, only its colliding rows come back.  Signatures re-attach
    from broadcast lookups bounded by that shard's collisions, and pair
    estimation runs distributed over bucket-aligned blocks with
    first-colliding-band ownership (no dedupe shuffle)."""
    import ray
    import ray.data as rd

    from ..functions.broadcast import hash_shards
    from ..functions.shuffle import _cluster_cpus

    n_parts = _cluster_cpus()
    new_sigs = new_ds.map_batches(
        MinHasher(text_col=text_col, id_col=id_col, num_perm=num_perm,
                  shingle_w=shingle_w),
        batch_format="pyarrow",
    ).repartition(n_parts).materialize()
    band_stage = _BandKeys(num_perm, bands, id_col)
    shard_outputs = []
    for new_bands_ds in hash_shards(
            new_sigs.map_batches(band_stage, batch_format="pyarrow"),
            "band_key", new_sigs.count() * bands, PROBE_NEW_ROWS_PER_SHARD):
        new_band_tbl = collect_arrow(new_bands_ds)
        if new_band_tbl is None or len(new_band_tbl) == 0:
            continue
        old_hits = collect_arrow(
            _key_set(new_band_tbl.column("band_key"), "band_key").semi(
                rd.read_parquet(f"{path}/bands"), "band_key"))
        if old_hits is None or len(old_hits) == 0:
            continue
        # restrict the new side to keys the index actually collided on
        hit_keys = pc.unique(old_hits.column("band_key").combine_chunks())
        new_hits = new_band_tbl.filter(
            pc.is_in(new_band_tbl.column("band_key"), value_set=hit_keys)
        )
        if len(new_hits) == 0:
            continue
        # signatures for both sides of this shard's collisions
        old_sig_tbl = collect_arrow(
            _key_set(old_hits.column(id_col), id_col).semi(
                rd.read_parquet(f"{path}/signatures"), id_col))
        new_sig_tbl = collect_arrow(
            _key_set(new_hits.column(id_col), id_col).semi(
                new_sigs, id_col))
        if old_sig_tbl is None or new_sig_tbl is None:
            continue  # collisions without signatures: nothing to estimate
        index = {
            ("o", v): i
            for i, v in enumerate(old_sig_tbl.column(id_col).to_pylist())
        }
        off = len(index)
        index.update(
            {
                ("n", v): i + off
                for i, v in enumerate(new_sig_tbl.column(id_col).to_pylist())
            }
        )
        matrix = np.vstack(
            [
                _sig_matrix(old_sig_tbl.column("signature"), num_perm),
                _sig_matrix(new_sig_tbl.column("signature"), num_perm),
            ]
        )
        sig_lookup_ref = ray.put((index, matrix))
        # union colliding rows, flag sides, bucket-sort, pair distributed
        old_u = old_hits.append_column(
            "__is_new", pa.array(np.zeros(len(old_hits), dtype=bool))
        )
        new_u = new_hits.append_column(
            "__is_new", pa.array(np.ones(len(new_hits), dtype=bool))
        )
        surv = pa.concat_tables([old_u.select(new_u.column_names), new_u])
        skeys = surv.column("band_key").to_numpy(zero_copy_only=False)
        order = np.argsort(skeys, kind="stable")
        surv = surv.take(pa.array(order))
        cross = _CrossBucketPairs(
            id_col, threshold, sig_lookup_ref, num_perm, bands, max_bucket_rows
        )
        surv_blocks = _bucket_aligned_blocks(surv, skeys[order], n_parts)
        shard_outputs.append(
            rd.from_arrow(surv_blocks).map_batches(
                lambda t, _c=cross: _c(t), batch_format="pyarrow"
            )
        )
    if not shard_outputs:
        id_type = pa.int64()
        try:  # preserve the caller's id type in the (typed) empty result
            id_type = new_sigs.schema().base_schema.field(id_col).type
        except Exception:
            pass
        return rd.from_arrow(
            pa.table(
                {
                    "new_id": pa.array([], id_type),
                    "old_id": pa.array([], id_type),
                    "est_jaccard": pa.array([], pa.float64()),
                }
            )
        )
    out = shard_outputs[0]
    if len(shard_outputs) > 1:
        out = out.union(*shard_outputs[1:])
    return out


def dup_rate_by_source(ds, text_col: str = "text",
                       group_col: str = "source"):
    """Per-``group_col`` duplication-rate report: ``(group, n_docs,
    n_unique, dup_frac)`` where ``n_unique`` counts distinct exact text
    fingerprints and ``dup_frac = 1 − n_unique / n_docs`` — the corpus-
    health metric that tells you WHICH source needs dedup before you pay
    for it (a mirror-heavy crawl source shows 0.3+, a curated source ~0).

    Same combiner-first shape as ``textstats.vocab_stats``: each block
    fingerprints its texts (md5 — hex-identical to SQL ``md5()``, the
    pinned oracle convention of ``fingerprint_stage``) and pre-aggregates
    (group, fp, n); the bucketed exchange (``shuffle.bucketed_group_fold``
    — fingerprints are corpus-cardinality) folds fingerprint rows, a
    per-row projection turns them into (group, docs, unique=1) rows, and
    ``tree_group_sum`` finishes.  Only fingerprint rows shuffle, never the
    text.  Null groups are dropped (SQL ``WHERE group IS NOT NULL``
    parity)."""
    import hashlib

    from ..functions.shuffle import bucketed_group_fold, tree_group_sum

    def fp_partials(t: pa.Table) -> pa.Table:
        sub = t.select([group_col, text_col]).filter(
            pc.is_valid(t.column(group_col)))
        texts = sub.column(text_col).to_pylist()
        fps = [hashlib.md5((x or "").encode("utf-8")).hexdigest()
               for x in texts]
        agg = pa.table({group_col: sub.column(group_col),
                        "__fp": pa.array(fps, pa.string())}).group_by(
            [group_col, "__fp"]).aggregate([([], "count_all")])
        return agg.rename_columns([group_col, "__fp", "__n"])

    def group_partials(t: pa.Table) -> pa.Table:
        # one folded row per distinct (group, fp): its docs, one unique
        return pa.table({group_col: t.column(group_col),
                         "__docs": t.column("__n"),
                         "__uniq": pa.array(np.ones(len(t), np.int64))})

    folded = bucketed_group_fold(
        ds.map_batches(fp_partials, batch_format="pyarrow"),
        [group_col, "__fp"], ["__n"], drop_null_keys=True)
    out = tree_group_sum(
        folded.map_batches(group_partials, batch_format="pyarrow"),
        [group_col], ["__docs", "__uniq"], drop_null_keys=True)

    def finish(t: pa.Table) -> pa.Table:
        docs, uniq = t.column("__docs"), t.column("__uniq")
        frac = pc.round(
            pc.subtract(1.0, pc.divide(pc.cast(uniq, pa.float64()),
                                       pc.cast(docs, pa.float64()))),
            ndigits=6)
        return pa.table({group_col: t.column(group_col), "n_docs": docs,
                         "n_unique": uniq, "dup_frac": frac})

    return out.map_batches(finish, batch_format="pyarrow")


def dedup_lines_within_doc(ds, text_col: str = "text",
                           min_line_chars: int = 10,
                           delimiter: str = "\n"):
    """IN-DOCUMENT line dedup: within each document, repeated occurrences
    of any line of at least ``min_line_chars`` characters are removed,
    keeping the first (the C4-style self-repetition trim — nav blocks or
    generated text that loops inside ONE page; :func:`line_dedup` is the
    corpus-wide counterpart).  Lines shorter than ``min_line_chars``
    always survive (blank separators, bullets); null text passes through
    as null.

    Scale shape: map-only — the doc never leaves its block, no shuffle at
    ANY scale.  Per block: one Arrow split, a 63-bit line hash, a lexsort
    keep-first mask per (doc, hash), and one vectorized ``binary_join``
    rebuild — no Python per line.  Exact up to the documented 2⁻⁶³
    hash-collision class."""

    def rebuild(t: pa.Table) -> pa.Table:
        n = len(t)
        texts = t.column(text_col)
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        in_type = t.schema.field(text_col).type
        flat, parent, line_idx = _split_lines(texts, delimiter)
        if len(flat) == 0:
            return t
        lh = _text_hash63(flat)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        keep = np.ones(len(flat), dtype=bool)
        el = np.flatnonzero(lens >= min_line_chars)
        if el.size:
            p, h, li = parent[el], lh[el], line_idx[el]
            order = np.lexsort((li, h, p))
            ps, hs = p[order], h[order]
            dup = np.zeros(order.size, dtype=bool)
            dup[1:] = (ps[1:] == ps[:-1]) & (hs[1:] == hs[:-1])
            keep[el[order[dup]]] = False
        kept_flat = flat.filter(pa.array(keep))
        counts = np.bincount(parent[keep], minlength=n)
        offsets = pa.array(np.r_[0, np.cumsum(counts)].astype(np.int32),
                           pa.int32())
        joined = pc.binary_join(
            pa.ListArray.from_arrays(offsets,
                                     pc.cast(kept_flat, pa.string())),
            pa.scalar(delimiter))
        new_text = pc.if_else(pc.is_valid(texts), joined,
                              pa.scalar(None, pa.string()))
        return t.set_column(t.column_names.index(text_col), text_col,
                            pc.cast(new_text, in_type))

    return ds.map_batches(rebuild, batch_format="pyarrow")
