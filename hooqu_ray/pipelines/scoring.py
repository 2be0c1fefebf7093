"""Domain-relevance scoring: unigram log-likelihood-ratio of each document
against a TARGET domain sample — the data-selection signal behind
importance-resampling pipelines (DSIR-style, with an explicit capped
vocabulary instead of feature hashing so the score is exactly
SQL-checkable).

Model: vocabulary = top-``vocab_size`` tokens of the target sample by
frequency (ties broken by token ascending); each vocab token t scores
``lr(t) = ln((c_tgt(t)+1)/(N_tgt+V)) − ln((c_raw(t)+1)/(N_raw+V))``
(add-one smoothing); a document's score is the MEAN lr over its in-vocab
token occurrences (0.0 if none).  Positive ⇒ looks like the target
domain; feed it to a keep-threshold or sampling weight.

Scale shape: the target sample is small by definition (a curated domain
set); its top-V vocab comes from the existing combiner-first
``textstats.top_ngrams`` machinery (n=1).  Raw-corpus counts for JUST the
vocab tokens use a broadcast membership filter inside the per-block
combiner, so the one ``tree_group_sum`` fold carries ≤ V partial rows per
block no matter the corpus size.  Scoring is one embarrassingly parallel
``map_batches`` pass against the broadcast (token → lr) table (V entries,
constant memory per worker)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _token_count(ds, text_col: str) -> int:
    """Total whitespace-token occurrences in a dataset (streaming sum)."""
    from ..functions.strings import whitespace_token_counts

    def count(t: pa.Table) -> pa.Table:
        n = int(whitespace_token_counts(t.column(text_col)).sum())
        return pa.table({"n": pa.array([n], pa.int64())})

    return ds.map_batches(count, batch_format="pyarrow").sum("n") or 0


def _vocab_counts_in(ds, text_col: str, vocab_ref):
    """((token, count) table, total token occurrences) over ``ds``, with
    counts restricted to the broadcast vocab — ONE streaming pass: the
    per-block combiner filters to vocab membership BEFORE the fold (it
    never carries more than V+1 rows per block) and smuggles the
    block's TOTAL token count through the same fold as a sentinel
    empty-string row (tokenization drops empty tokens, so '' can never be
    a real token).  Saves the separate full-corpus counting pass — at web
    scale that is half the operator's corpus I/O."""
    from ..functions.shuffle import tree_group_sum
    from ..util import collect_arrow
    from .textstats import _tokenize_block

    def block_counts(t: pa.Table) -> pa.Table:
        import ray

        obj = vocab_ref
        vocab = obj if isinstance(obj, pa.Array) else ray.get(obj)
        flat, _ = _tokenize_block(t.column(text_col))
        total_row = pa.table(
            {"token": pa.array([""], pa.string()),
             "n": pa.array([len(flat)], pa.int64())}
        )
        if len(flat) == 0 or len(vocab) == 0:
            return total_row
        keep = pc.fill_null(pc.is_in(flat, value_set=vocab), False)
        toks = flat.filter(keep)
        if len(toks) == 0:
            return total_row
        g = (
            pa.table({"token": toks})
            .group_by("token", use_threads=False)
            .aggregate([([], "count_all")])
        ).rename_columns(["token", "n"])
        return pa.concat_tables(
            [g.set_column(1, "n", pc.cast(g.column("n"), pa.int64())), total_row]
        )

    tbl = collect_arrow(tree_group_sum(
        ds.map_batches(block_counts, batch_format="pyarrow"), ["token"], ["n"],
        drop_null_keys=True))
    if tbl is None:
        return pa.table({"token": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())}), 0
    is_total = pc.equal(tbl.column("token"), "")
    total_rows = tbl.filter(is_total)
    n_total = int(total_rows.column("n")[0].as_py()) if len(total_rows) else 0
    return tbl.filter(pc.invert(is_total)), n_total


class _LLRScoreBatch:
    """Per-batch scorer against the broadcast (token, lr) table: dictionary
    codes → ``index_in`` vocab → per-doc mean lr via two bincounts."""

    def __init__(self, lr_ref, text_col: str, id_col: str):
        self.lr_ref = lr_ref
        self.text_col = text_col
        self.id_col = id_col
        self._vocab = None
        self._lr = None

    def __call__(self, t: pa.Table) -> pa.Table:
        from .textstats import _tokenize_block

        if self._vocab is None:
            import ray

            obj = self.lr_ref
            tbl = obj if isinstance(obj, pa.Table) else ray.get(obj)
            self._vocab = tbl.column("token").combine_chunks()
            self._lr = tbl.column("lr").to_numpy(zero_copy_only=False)
        n = len(t)
        flat, parent = _tokenize_block(t.column(self.text_col))
        n_tok = np.bincount(parent, minlength=n).astype(np.int64)
        n_iv = np.zeros(n, dtype=np.int64)
        s = np.zeros(n, dtype=np.float64)
        if len(flat) and len(self._vocab):
            enc = flat.dictionary_encode()
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            pos = pc.index_in(enc.dictionary, value_set=self._vocab)
            pos_np = pos.to_numpy(zero_copy_only=False).astype(np.float64)
            miss = np.isnan(pos_np)
            safe = np.nan_to_num(pos_np).astype(np.int64)
            dict_lr = np.where(miss, np.nan, self._lr[np.minimum(safe, max(len(self._lr) - 1, 0))])
            tok_lr = dict_lr[codes]
            hit = ~np.isnan(tok_lr)
            n_iv = np.bincount(parent[hit], minlength=n).astype(np.int64)
            s = np.bincount(parent[hit], weights=tok_lr[hit], minlength=n)
        score = np.where(n_iv > 0, s / np.maximum(n_iv, 1), 0.0)
        return pa.table(
            {
                self.id_col: t.column(self.id_col),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_invocab": pa.array(n_iv, pa.int64()),
                "llr_score": pa.array(score, pa.float64()),
            }
        )


def domain_llr_score(ds, target_ds, text_col: str = "text",
                     id_col: str = "doc_id", vocab_size: int = 1024):
    """Score every document in ``ds`` by unigram log-likelihood ratio
    against ``target_ds`` (the domain sample).  Returns rows
    ``(id, n_tokens, n_invocab, llr_score)``.

    Three bounded passes: target top-V vocab (combiner-first), raw counts
    for those V tokens (broadcast-filtered combiner), then one streaming
    scoring pass.  Nothing driver-side ever exceeds V rows."""
    import ray

    from .textstats import top_ngrams

    vocab_tbl = top_ngrams(target_ds, text_col=text_col, n=1, k=vocab_size)
    v = len(vocab_tbl)
    n_tgt = _token_count(target_ds, text_col)  # target side is small
    if v == 0:
        lr_tbl = pa.table(
            {"token": pa.array([], pa.string()), "lr": pa.array([], pa.float64())}
        )
    else:
        vocab_arr = vocab_tbl.column("ngram").combine_chunks()
        if isinstance(vocab_arr, pa.ChunkedArray):
            vocab_arr = vocab_arr.combine_chunks()
        # vocab counts + corpus token total in ONE streaming pass
        raw_counts, n_raw = _vocab_counts_in(ds, text_col, ray.put(vocab_arr))
        raw_n = raw_counts.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(raw_n) == 0:
            c_raw = np.zeros(v, dtype=np.int64)
        else:
            pos = pc.index_in(
                vocab_arr, value_set=raw_counts.column("token").combine_chunks()
            )
            pos_np = pos.to_numpy(zero_copy_only=False).astype(np.float64)
            safe = np.nan_to_num(pos_np).astype(np.int64)
            c_raw = np.where(np.isnan(pos_np), 0, raw_n[safe])
        c_tgt = vocab_tbl.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        lr = np.log((c_tgt + 1.0) / (n_tgt + v)) - np.log((c_raw + 1.0) / (n_raw + v))
        lr_tbl = pa.table({"token": vocab_arr, "lr": pa.array(lr, pa.float64())})
    ref = ray.put(lr_tbl.combine_chunks())
    return ds.map_batches(_LLRScoreBatch(ref, text_col, id_col), batch_format="pyarrow")
