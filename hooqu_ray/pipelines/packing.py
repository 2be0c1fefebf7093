"""Sequence PACKING writer: concatenate whitespace-tokenized documents in
deterministic id order into one global token stream and emit fixed-length
training sequences — the materialization step whose PLAN table
:func:`~hooqu_ray.pipelines.relational.pack_sequences` computes (that one
moves only token counts; this one actually builds the packed text).

Shape:

1. ONE range exchange on ``id`` of the (id, text) projection
   (``shuffle.range_exchange``).  This is the packer's inherent
   all-to-all — output sequences interleave document boundaries, so the
   text must be brought into global order exactly once.  Its split tasks
   count each document's tokens (the exchange's ``pre`` and ``weight``),
   so each range's fold receives the token count of all earlier ranges:
   its global stream offset.
2. Each fold tokenizes its range (``textstats._tokenize_block``, the
   engine's ``\\S+`` split), assigns every token its GLOBAL index (offset
   + local arange), cuts at ``seq = index // max_len`` boundaries and
   joins each in-range run with one ``binary_join`` — zero Python per
   token.  Interior sequences are final; only each range's FIRST and LAST
   sequence can straddle a range edge.  Those ≤ 2 fragments per range
   take one hash exchange on ``seq_id`` (``shuffle.hash_exchange``), and
   each bucket joins its sequences' fragments with one vectorized
   ``binary_join``.

Null/empty documents contribute no tokens.  Every sequence except the last
has exactly ``max_len`` tokens; token order is the document order used by
the plan table, so plan and writer agree row for row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _block_tokens(t: pa.Table, text_col: str) -> pa.Array:
    """Flat array of the table's non-empty whitespace tokens, in document
    order (``textstats._tokenize_block``)."""
    from .textstats import _tokenize_block

    return _tokenize_block(t.column(text_col))[0]


def _frag_empty() -> pa.Table:
    return pa.table(
        {
            "seq_id": pa.array([], pa.int64()),
            "frag_start": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
            "__pending": pa.array([], pa.bool_()),
        }
    )


def _fragments_block(t: pa.Table, text_col: str, max_len: int,
                     base: int) -> pa.Table:
    """The id-sorted documents of ``t``, whose first token has global
    index ``base``, cut into sequence fragments."""
    flat = _block_tokens(t, text_col)
    n = len(flat)
    if n == 0:
        return _frag_empty()
    gidx = base + np.arange(n, dtype=np.int64)
    seq = gidx // max_len
    starts = np.flatnonzero(np.r_[True, seq[1:] != seq[:-1]])
    ends = np.r_[starts[1:], n]
    off = np.zeros(len(starts) + 1, dtype=np.int32)
    np.cumsum((ends - starts).astype(np.int32), out=off[1:])
    joined = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(off, pa.int32()), flat),
        " ",
    )
    seq_ids = seq[starts]
    pending = (seq_ids == seq_ids[0]) | (seq_ids == seq_ids[-1])
    return pa.table(
        {
            "seq_id": pa.array(seq_ids, pa.int64()),
            "frag_start": pa.array(gidx[starts], pa.int64()),
            "n_tokens": pa.array((ends - starts).astype(np.int64), pa.int64()),
            "text": joined,
            "__pending": pa.array(pending, pa.bool_()),
        }
    )


def _merge_boundary(t: pa.Table) -> pa.Table:
    """Exchange fold on ``seq_id`` (complete sequences): order each
    straddling sequence's fragments by global token start and join them
    — one ``binary_join`` over the sorted runs, no Python per sequence."""
    from ..functions.shuffle import key_runs

    t = t.sort_by([("seq_id", "ascending"), ("frag_start", "ascending")])
    cuts = key_runs(t, ["seq_id"])
    n_tok = t.column("n_tokens").to_numpy(zero_copy_only=False)
    lists = pa.ListArray.from_arrays(pa.array(cuts, pa.int32()),
                                     t.column("text").combine_chunks())
    return pa.table({
        "seq_id": t.column("seq_id").take(pa.array(cuts[:-1], pa.int64())),
        "n_tokens": pa.array(np.add.reduceat(n_tok, cuts[:-1]), pa.int64()),
        "text": pc.binary_join(lists, " "),
    })


def pack_texts(ds, id_col: str, text_col: str, max_len: int):
    """Materialize packed training sequences of exactly ``max_len``
    whitespace tokens (last one may be shorter): returns a Dataset of
    ``(seq_id, n_tokens, text)``.  See the module docstring for the shape;
    ``id_col`` must be unique and non-null."""
    import ray.data as rd

    from ..functions.shuffle import hash_exchange, range_exchange
    from ..functions.strings import whitespace_token_counts

    if max_len < 1:
        raise ValueError(f"pack_texts: max_len must be ≥ 1, got {max_len}")

    def proj(t: pa.Table) -> pa.Table:
        return t.select([id_col, text_col]).append_column(
            "__n", pa.array(whitespace_token_counts(t.column(text_col))))

    frags = range_exchange(
        ds, [(id_col, "ascending")],
        lambda t, base: _fragments_block(t, text_col, max_len, base),
        pre=proj, weight="__n")  # consumed by both passes below
    out_cols = ["seq_id", "n_tokens", "text"]
    if frags.count() == 0:
        return rd.from_arrow(_frag_empty().select(out_cols))
    interior = frags.map_batches(
        lambda t, _c=out_cols: t.filter(
            pc.invert(t.column("__pending"))
        ).select(_c),
        batch_format="pyarrow",
    )
    merged = hash_exchange(
        frags, ["seq_id"], _merge_boundary,
        pre=lambda t, _c=["seq_id", "frag_start", "n_tokens", "text"]:
        t.filter(t.column("__pending")).select(_c))
    return interior.union(merged)


def length_bucket_batches(ds, id_col: str, text_col: str,
                          boundaries, batch_size: int):
    """Length-bucketed BATCHING plan: assign every document a length
    bucket (token count vs sorted ``boundaries``, ``searchsorted`` right —
    bucket i holds ``boundaries[i-1] <= n < boundaries[i]``) and a batch
    index within its bucket in deterministic ``id_col`` order —
    ``row_number() OVER (PARTITION BY bucket ORDER BY id) // batch_size``.
    Batching same-length documents together is the standard padding-
    efficiency lever for training/inference (a batch's pad waste is
    bounded by its bucket width instead of the corpus max length).

    Composition of existing scale-shaped stages: a vectorized token-count
    + bucket pass (``strings.whitespace_token_counts``, ``np.searchsorted``),
    then :func:`~hooqu_ray.pipelines.windows.running_agg` for the
    per-bucket running row number (one hash exchange on the bucket, then
    a vectorized cumsum over each bucket's id-sorted rows).  Returns
    ``(id, n_tokens, bucket, batch_idx)``; deterministic across runs and
    data orderings."""
    from ..functions.strings import whitespace_token_counts
    from .windows import running_agg

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    bounds = np.asarray(sorted(boundaries), dtype=np.int64)

    def bucketize(t: pa.Table) -> pa.Table:
        n_tok = whitespace_token_counts(
            pc.cast(t.column(text_col), pa.string()))
        bucket = np.searchsorted(bounds, n_tok, side="right")
        return pa.table({
            id_col: t.column(id_col),
            "__tie": t.column(id_col),
            "n_tokens": pa.array(n_tok),
            "bucket": pa.array(bucket.astype(np.int64)),
        })

    run = running_agg(
        ds.map_batches(bucketize, batch_format="pyarrow"),
        key="bucket", ts_col=id_col, tie="__tie", value_col="n_tokens",
    )

    def finish(t: pa.Table) -> pa.Table:
        # running_agg returns [key, ts, tie, run_sum, run_n]; the per-row
        # token count is not carried through — the plan is (id, bucket,
        # batch_idx), re-derive n_tokens downstream if needed
        rn = pc.cast(t.column("run_n"), pa.int64())
        # integer (rn - 1) // batch_size without a float round trip
        batch_idx = pc.cast(
            pc.divide(pc.subtract(rn, 1), pa.scalar(batch_size, pa.int64())),
            pa.int64())
        return pa.table({
            id_col: t.column(id_col),
            "bucket": pc.cast(t.column("bucket"), pa.int64()),
            "batch_idx": batch_idx,
        })

    return run.map_batches(finish, batch_format="pyarrow")
