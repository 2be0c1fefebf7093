"""Text analysis operators over a documents table.

Vectorized per-batch stages: token counting (``\\S+`` runs), quality scoring
(length/symbol/stopword heuristics reused from the transcript stage),
language-ID (char-trigram model), and document fingerprinting
(md5 + 64-bit rolling hash)."""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.shuffle import group_by
from ..functions.strings import whitespace_token_counts
from ..stages.heuristics import SYMBOL_PATTERN, STOPWORD_PATTERN
from ..stages.models import TrigramLangID

# The whitespace-token definition the SQL oracles mirror with
# ``regexp_extract_all(text, '\S+')``; the engine counts it with
# ``strings.whitespace_token_counts``, never a regex.
TOKEN_PATTERN = r"\S+"
# BPE-ish pre-tokenizer (the GPT-2 pre-tokenizer shape, public knowledge,
# minus its `\s+(?!\S)` lookahead — RE2 has no lookahead, and RE2 is what
# both the Arrow kernel and the SQL oracle run): contractions, letter runs,
# digit runs, punctuation runs (each with optional leading space), then
# whitespace runs.  Counts approximate a BPE tokenizer's pre-split budget
# far better than whitespace words on punctuation-heavy text.
BPE_TOKEN_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def token_count_stage(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace-word AND BPE-ish pre-tokenizer counts per document — a
    byte-level token counter and an RE2 count kernel, no Python per row."""
    text = batch.column(text_col)
    n_tok = whitespace_token_counts(text)
    n_bpe = pc.fill_null(
        pc.count_substring_regex(text, pattern=BPE_TOKEN_PATTERN), 0
    )
    return batch.append_column(
        "n_tokens", pa.array(n_tok)
    ).append_column("n_bpe_tokens", pc.cast(n_bpe, pa.int64()))


def _tokenize_block(texts):
    """Whitespace tokens of a text column (the engine's ``\\S+`` oracle
    convention: split on RE2's ``\\s`` = ``[\\t\\n\\f\\r ]`` only, so
    ``\\v``, NBSP and other Unicode spaces are token characters, as in
    ``strings.whitespace_token_counts``; null text → no tokens): returns
    ``(flat, parent)`` — the non-empty tokens as one flat string array
    plus each token's row index as int64 numpy.  The single
    implementation behind
    ``doc_frequency`` / ``top_terms`` / ``split_token_budget`` /
    ``inverted_index`` / ``bm25_scores``, so the tokenization can never
    drift between ops (or from the SQL oracles that mirror it with
    ``regexp_extract_all(text, '\\S+')``)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    words = pc.split_pattern_regex(pc.fill_null(texts, ""), r"[\t\n\f\r ]+")
    flat = pc.list_flatten(words)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    parent = pc.list_parent_indices(words).to_numpy(
        zero_copy_only=False).astype(np.int64)
    if len(flat) == 0:
        return flat, parent
    keep = pc.invert(pc.equal(flat, "")).to_numpy(zero_copy_only=False)
    return flat.filter(pa.array(keep)), parent[keep]


def _quality_features(text):
    """Per-doc ``(n_chars, n_tokens, symbol_ratio, stopword_ratio)`` as
    numpy arrays: the ``\\S+`` token count is computed once, for the
    stopword ratio and for callers that report it."""
    n_chars = pc.fill_null(pc.utf8_length(text), 0).to_numpy(zero_copy_only=False)
    n_sym = pc.fill_null(
        pc.count_substring_regex(text, pattern=SYMBOL_PATTERN), 0
    ).to_numpy(zero_copy_only=False)
    n_tok = whitespace_token_counts(text)
    n_stop = pc.fill_null(
        pc.count_substring_regex(pc.utf8_lower(text), pattern=STOPWORD_PATTERN), 0
    ).to_numpy(zero_copy_only=False)
    with np.errstate(invalid="ignore", divide="ignore"):
        symbol_ratio = np.where(n_chars > 0, n_sym / np.maximum(n_chars, 1), 0.0)
        stopword_ratio = np.where(n_tok > 0, n_stop / np.maximum(n_tok, 1), 0.0)
    return n_chars, n_tok, symbol_ratio, stopword_ratio


def quality_stage(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc quality features: n_chars, symbol_ratio, stopword_ratio."""
    n_chars, _, symbol_ratio, stopword_ratio = _quality_features(
        batch.column(text_col))
    return (
        batch.append_column("q_n_chars", pa.array(n_chars, pa.int64()))
        .append_column("q_symbol_ratio", pa.array(symbol_ratio, pa.float64()))
        .append_column("q_stopword_ratio", pa.array(stopword_ratio, pa.float64()))
    )


class LangIdStage:
    """Language ID stage, passed to ``map_batches`` as an instance (a
    stateless task; the model builds in under 1 ms).  Scores via the
    zero-copy Arrow byte-codes path (``_byte_codes_arrow``) — the same kernel
    the flagship's QualityScorer uses — instead of ``to_pylist()`` +
    per-row ``str.encode``."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.model = TrigramLangID()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.models import _byte_codes_arrow

        langs, margin = self.model.predict_codes(
            *_byte_codes_arrow(batch.column(self.text_col))
        )
        return batch.append_column("pred_lang", pa.array(langs, pa.string())).append_column(
            "pred_lang_margin", pa.array(margin, pa.float64())
        )


class PerplexityStage:
    """KenLM-style char-bigram perplexity per document, passed to
    ``map_batches`` as an instance (a stateless task; the model builds in
    under 1 ms) — the flagship quality filter's scorer exposed as a
    standalone column op.  Scores via the zero-copy Arrow byte-codes
    path; empty/null text scores exp(0) = 1.0, and smoothing keeps every
    bigram probability < 1 so perplexity is always >= 1."""

    def __init__(self, text_col: str = "text", out_col: str = "perplexity"):
        from ..stages.models import CharBigramLM

        self.text_col = text_col
        self.out_col = out_col
        self.model = CharBigramLM()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.models import _byte_codes_arrow

        ppl = self.model.perplexity_codes(
            *_byte_codes_arrow(batch.column(self.text_col))
        )
        return batch.append_column(self.out_col, pa.array(ppl, pa.float64()))


_RK_PRIME = 1099511628211  # odd 64-bit multiplier (the FNV prime)
_MASK64 = (1 << 64) - 1


def rolling_hash64(text: Optional[str]) -> int:
    """Rabin-Karp polynomial rolling hash over utf-8 bytes (document
    fingerprint): ``h = h * P + b`` per byte, mod 2^64.  Scalar REFERENCE
    implementation — the hot path is the byte-exact vectorized
    ``rolling_hash64_batch``."""
    if text is None:
        return 0
    h = 0
    for b in text.encode("utf-8"):
        h = (h * _RK_PRIME + b) & _MASK64
    return h


def rolling_hash64_batch(texts) -> np.ndarray:
    """Vectorized Rabin-Karp over a whole string array, byte-identical to
    ``rolling_hash64``: ``h = Σ b_j · P^(L-1-j) mod 2^64`` computed with a
    power table + one ``np.add.reduceat`` segment sum — no Python per byte
    (the round-1 FNV-1a loop paid ~60 ns/byte of interpreter time)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    binary = pc.cast(texts, pa.large_binary())
    if isinstance(binary, pa.ChunkedArray):
        binary = binary.combine_chunks()
    offs = np.frombuffer(binary.buffers()[1], dtype=np.int64)[
        binary.offset : binary.offset + n + 1
    ]
    data = np.frombuffer(binary.buffers()[2], dtype=np.uint8)
    lens = np.diff(offs)
    valid = pc.is_valid(binary).to_numpy(zero_copy_only=False)
    total = int(offs[-1] - offs[0])
    if total == 0:
        return out
    maxlen = int(lens.max())
    pw = np.empty(maxlen, dtype=np.uint64)
    pw[0] = 1
    if maxlen > 1:
        np.multiply.accumulate(
            np.full(maxlen - 1, _RK_PRIME, dtype=np.uint64), out=pw[1:]
        )
    # exponent of each byte = (its row's end offset - 1) - global position
    pos = np.arange(offs[0], offs[-1], dtype=np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    exp = (offs[1:][row_of] - 1 - pos).astype(np.int64)
    contrib = data[offs[0] : offs[-1]].astype(np.uint64) * pw[exp]
    nonempty = lens > 0
    starts = (offs[:-1] - offs[0])[nonempty]
    sums = np.add.reduceat(contrib, starts)
    out[np.flatnonzero(nonempty)] = sums
    out[~valid] = 0  # null text → 0, like the scalar
    return out


def fingerprint_stage(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """md5 (hex) + rolling-hash fingerprints per document."""
    texts = batch.column(text_col).to_pylist()
    md5s = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
    col = batch.column(text_col)
    rolls = rolling_hash64_batch(col)
    return batch.append_column("md5", pa.array(md5s, pa.string())).append_column(
        "fingerprint", pa.array(rolls, pa.uint64())
    )


def _block_ngram_counts(t: pa.Table, text_col: str, n: int) -> pa.Table:
    """Per-block combiner: (ngram, n) partial counts.  One
    :func:`_tokenize_block` pass; n-gram strings built with a single
    vectorized ``binary_join_element_wise`` over position-shifted token
    views — no Python per token."""
    empty = pa.table(
        {"ngram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
    )
    toks, tp = _tokenize_block(t.column(text_col))
    if len(toks) < n:
        return empty
    # n-gram start positions whose first and last token share a document
    pos = np.flatnonzero(tp[: len(toks) - n + 1] == tp[n - 1 :])
    if pos.size == 0:
        return empty
    parts = [toks.take(pa.array(pos + d)) for d in range(n)]
    ngrams = pc.binary_join_element_wise(*parts, " ")
    g = (
        pa.table({"ngram": ngrams})
        .group_by("ngram", use_threads=False)
        .aggregate([([], "count_all")])
    )
    return g.rename_columns(["ngram", "n"])


def top_ngrams(ds, text_col: str = "text", n: int = 2, k: int = 20):
    """Global top-k word n-grams by corpus frequency (ties broken by the
    n-gram string ascending).

    Combiner-first: per-block partial counts shrink before the one
    ``tree_group_sum`` fold; after the fold each n-gram lives in
    exactly one block, so a per-block local top-k plus a driver merge of
    the #blocks × k partials yields the exact global answer without sorting
    the full distinct-n-gram table.  Returns an Arrow table (ngram, n)."""
    from ..functions.shuffle import tree_group_sum
    from ..util import collect_arrow

    partials = ds.map_batches(
        lambda t, _c=text_col, _n=n: _block_ngram_counts(t, _c, _n),
        batch_format="pyarrow",
    )
    totals = tree_group_sum(partials, ["ngram"], ["n"])

    def local_topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["n", "ngram"], ascending=[False, True], kind="mergesort")
        return pa.Table.from_pandas(df.head(k), preserve_index=False)

    merged = collect_arrow(
        totals.map_batches(local_topk, batch_format="pyarrow", batch_size=None)
    )
    if merged is None:
        return pa.table(
            {"ngram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
    df = merged.to_pandas().sort_values(
        ["n", "ngram"], ascending=[False, True], kind="mergesort", ignore_index=True
    )
    return pa.Table.from_pandas(df.head(k), preserve_index=False)


def repetition_stats_stage(batch: pa.Table, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """Gopher/C4-style WITHIN-document repetition metrics, one vectorized
    pass per batch (embarrassingly parallel — no shuffle at any scale):

    - ``n_lines``            lines after splitting on ``\\n`` (null → 1,
      the SQL ``COALESCE(text,'')`` convention)
    - ``dup_line_frac``      fraction of lines whose exact line occurs >1
      time in the document (all occurrences counted, Gopher's
      "duplicate line fraction")
    - ``dup_line_char_frac`` fraction of line characters inside those
      duplicated lines
    - ``top_word_frac``      most-frequent word's share of all words
    - ``dup_2gram_frac``     1 − distinct/total over word 2-grams

    Identity is by deterministic 63/64-bit content hash (polars string
    hash / token-hash polynomial — the dedup tier's machinery), not by
    string comparison: collision odds are ~n²/2^63 per document, and the
    hashes are process-stable so the stage is oracle-checkable.  All
    denominators guard empty documents to 0.0.  Boilerplate-heavy pages
    score high on all three duplicate fractions; the fractions feed
    quality-filter thresholds (e.g. drop ``dup_line_char_frac > 0.2``)."""
    from .dedup import _batch_token_hashes, _split_lines, _text_hash63

    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(batch)
    filled = pc.fill_null(texts, "")

    # ---- line metrics ----------------------------------------------------
    flat, parent, _ = _split_lines(filled)
    lh = _text_hash63(flat)
    linelen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    n_lines = np.bincount(parent, minlength=n).astype(np.int64)
    if parent.size:
        order = np.lexsort((lh, parent))
        p_s, h_s, len_s = parent[order], lh[order], linelen[order]
        new_run = np.r_[True, (p_s[1:] != p_s[:-1]) | (h_s[1:] != h_s[:-1])]
        run_id = np.cumsum(new_run) - 1
        cnt = np.bincount(run_id)[run_id]  # occurrences of this line in doc
        dup = cnt > 1
        dup_lines = np.bincount(p_s[dup], minlength=n)
        tot_chars = np.bincount(p_s, weights=len_s, minlength=n)
        dup_chars = np.bincount(p_s[dup], weights=len_s[dup], minlength=n)
    else:
        dup_lines = np.zeros(n, dtype=np.int64)
        tot_chars = dup_chars = np.zeros(n, dtype=np.float64)
    dup_line_frac = dup_lines / np.maximum(n_lines, 1)
    dup_line_char_frac = dup_chars / np.maximum(tot_chars, 1)

    # ---- word metrics ----------------------------------------------------
    h, tp, _ = _batch_token_hashes(filled)
    n_words = np.bincount(tp, minlength=n).astype(np.int64)
    max_wc = np.zeros(n, dtype=np.int64)
    if tp.size:
        order = np.lexsort((h, tp))
        tp_s, h_s = tp[order], h[order]
        new_run = np.r_[True, (tp_s[1:] != tp_s[:-1]) | (h_s[1:] != h_s[:-1])]
        run_id = np.cumsum(new_run) - 1
        run_counts = np.bincount(run_id)
        np.maximum.at(max_wc, tp_s[new_run], run_counts)
    top_word_frac = max_wc / np.maximum(n_words, 1)

    # ---- word-2-gram metrics --------------------------------------------
    dup_2gram_frac = np.zeros(n, dtype=np.float64)
    if tp.size > 1:
        adj = tp[1:] == tp[:-1]  # consecutive tokens in the same doc
        g_doc = tp[:-1][adj]
        gh = h[:-1][adj] * np.uint64(0x9E3779B97F4A7C15) + h[1:][adj] * np.uint64(
            0xC2B2AE3D27D4EB4F
        )
        n_grams = np.bincount(g_doc, minlength=n).astype(np.int64)
        if g_doc.size:
            order = np.lexsort((gh, g_doc))
            gd_s, gh_s = g_doc[order], gh[order]
            new_run = np.r_[True, (gd_s[1:] != gd_s[:-1]) | (gh_s[1:] != gh_s[:-1])]
            distinct = np.bincount(gd_s[np.flatnonzero(new_run)], minlength=n)
            dup_2gram_frac = (n_grams - distinct) / np.maximum(n_grams, 1)

    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_lines": pa.array(n_lines, pa.int64()),
            "dup_line_frac": pa.array(dup_line_frac, pa.float64()),
            "dup_line_char_frac": pa.array(
                np.asarray(dup_line_char_frac, dtype=np.float64), pa.float64()
            ),
            "top_word_frac": pa.array(top_word_frac, pa.float64()),
            "dup_2gram_frac": pa.array(dup_2gram_frac, pa.float64()),
        }
    )


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Dataset wrapper for :func:`repetition_stats_stage` — one streaming
    ``map_batches`` pass, zero-copy Arrow in/out."""
    return ds.map_batches(
        lambda t, _tc=text_col, _ic=id_col: repetition_stats_stage(t, _tc, _ic),
        batch_format="pyarrow",
    )


def normalize_text_stage(batch: pa.Table, text_col: str = "text",
                         out_col: str = "norm_text") -> pa.Table:
    """Canonical text normalization before hashing/dedup: unicode NFC,
    lowercase, collapse ``\\s+`` runs (RE2 class, like the tokenizers
    here) to one space, trim.  Exactly reproducible in SQL
    (``trim(regexp_replace(lower(nfc_normalize(x)), '\\s+', ' ', 'g'))``),
    so normalized-content hashes agree across engines and runs.

    Lower/collapse/trim are pure Arrow kernels (zero-copy, null
    propagates).  NFC is NOT: this pyarrow build's ``utf8_normalize``
    never COMPOSES (every form emits decomposed output), so composition
    falls back to ``unicodedata.normalize`` on the NON-ASCII rows only;
    ASCII text (the overwhelming common case) is NFC by construction and
    never leaves Arrow."""
    import unicodedata

    s = batch.column(text_col)
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    # non-ASCII rows: utf8 char count != byte count
    blen = pc.binary_length(pc.cast(s, pa.large_binary()))
    clen = pc.utf8_length(s)
    non_ascii = pc.fill_null(pc.not_equal(blen, clen), False)
    if pc.any(non_ascii).as_py():
        idx = np.flatnonzero(non_ascii.to_numpy(zero_copy_only=False))
        vals = s.to_pylist()
        for i in idx:
            vals[i] = unicodedata.normalize("NFC", vals[i])
        s = pa.array(vals, s.type)
    s = pc.utf8_lower(s)
    s = pc.replace_substring_regex(s, pattern=r"\s+", replacement=" ")
    s = pc.utf8_trim(s, characters=" ")
    return batch.append_column(out_col, s)


def normalize_text(ds, text_col: str = "text", out_col: str = "norm_text"):
    """Dataset wrapper for :func:`normalize_text_stage` — one streaming
    ``map_batches`` pass."""
    return ds.map_batches(
        lambda t, _tc=text_col, _oc=out_col: normalize_text_stage(t, _tc, _oc),
        batch_format="pyarrow",
    )


def quality_by_source(ds, text_col: str = "text", group_col: str = "source"):
    """Per-source corpus quality report: document count plus mean
    chars/tokens/symbol-ratio/stopword-ratio per ``group_col`` (the rollup
    a curation run reads to decide which crawl sources to keep or
    re-weight).  One streaming feature pass (:func:`quality_stage` +
    token counts, all Arrow kernels) feeding one ``tree_group_sum`` of
    per-source (count, feature sums) over #sources-cardinality keys — the
    feature volume itself never shuffles.  A null ``group_col`` is its own
    group (SQL GROUP BY)."""
    from ..functions.shuffle import tree_group_sum

    def features(t: pa.Table) -> pa.Table:
        n_chars, n_tok, symbol_ratio, stopword_ratio = _quality_features(
            t.column(text_col))
        return pa.table(
            {
                group_col: t.column(group_col),
                "n_docs": pa.array(np.ones(len(t), np.int64)),
                "n_chars": pa.array(n_chars, pa.int64()),
                "n_tokens": pa.array(n_tok),
                "symbol_ratio": pa.array(symbol_ratio, pa.float64()),
                "stopword_ratio": pa.array(stopword_ratio, pa.float64()),
            }
        )

    res = tree_group_sum(
        ds.map_batches(features, batch_format="pyarrow"), [group_col],
        ["n_docs", "n_chars", "n_tokens", "symbol_ratio", "stopword_ratio"],
        drop_null_keys=False)

    def mean(t: pa.Table) -> pa.Table:
        # the features are never null (quality_stage fills 0), so every
        # document counts toward each mean
        n = pc.cast(t.column("n_docs"), pa.float64())

        def avg(c):
            return pc.divide(pc.cast(t.column(c), pa.float64()), n)

        return pa.table(
            {
                group_col: t.column(group_col),
                "n_docs": t.column("n_docs"),
                "avg_chars": avg("n_chars"),
                "avg_tokens": avg("n_tokens"),
                "avg_symbol_ratio": avg("symbol_ratio"),
                "avg_stopword_ratio": avg("stopword_ratio"),
            }
        )

    return res.map_batches(mean, batch_format="pyarrow")


def split_token_budget(ds, key_col: str = "doc_id", source_col: str = "source",
                       text_col: str = "text", splits=(
                           ("train", 80), ("val", 10), ("test", 10))):
    """Token-budget report per (split, source): document count and total
    whitespace tokens for every train/val/test × source cell — the table a
    data-mixing plan reads to set per-source sampling weights.

    One streaming pass (md5-bucket split assignment + Arrow token count
    per row) into one ``groupby`` over #splits × #sources keys; the corpus
    itself never shuffles more than (split, source, int) per row."""
    from ..functions.shuffle import tree_group_sum
    from .relational import split_assign

    def features(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "split": t.column("split"),
                source_col: t.column(source_col),
                "n_docs": pa.array(np.ones(len(t), np.int64)),
                "n_tokens": pa.array(
                    whitespace_token_counts(t.column(text_col))),
            }
        )

    # drop_null_keys=False: a null source is ITS OWN budget row, exactly
    # like the SQL oracle's GROUP BY split, source (and Ray's groupby,
    # which keeps null-key groups)
    res = tree_group_sum(
        split_assign(ds, key_col, splits=splits)
        .map_batches(features, batch_format="pyarrow"),
        ["split", source_col], ["n_docs", "n_tokens"],
        drop_null_keys=False)

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "split": t.column("split"),
                source_col: t.column(source_col),
                "n_docs": pc.cast(t.column("n_docs"), pa.int64()),
                "total_tokens": pc.cast(t.column("n_tokens"), pa.int64()),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def doc_frequency(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Corpus document frequency per term: #documents containing each
    whitespace token.  Combiner-first: each block emits its DISTINCT
    (document, term) pairs (terms deduplicated per doc via dictionary
    codes, no Python per token), then one ``tree_group_sum`` count over
    vocabulary-sized rows — token VOLUME never shuffles.
    Assumes each document is one input row (true of a documents table),
    so block-local distinct pairs are globally distinct."""

    def distinct_pairs(t: pa.Table) -> pa.Table:
        flat, parent = _tokenize_block(t.column(text_col))
        if len(flat) == 0:
            return pa.table({"term": pa.array([], pa.string())})
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((codes, parent))
        p_s, c_s = parent[order], codes[order]
        first = np.r_[True, (p_s[1:] != p_s[:-1]) | (c_s[1:] != c_s[:-1])]
        return pa.table(
            {"term": enc.dictionary.take(pa.array(c_s[first], pa.int64()))}
        )

    from ..functions.shuffle import tree_group_sum

    def with_ones(t: pa.Table) -> pa.Table:
        # per-doc distinct (doc, term) pairs, so the fold SUM of ones IS
        # the document frequency (tree_distinct would dedupe per block and
        # count blocks, not documents — df needs the sum)
        p = distinct_pairs(t)
        return p.append_column(
            "df", pa.array(np.ones(len(p), np.int64)))

    counts = tree_group_sum(
        ds.map_batches(with_ones, batch_format="pyarrow"), ["term"], ["df"])

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {"term": t.column("term"), "df": pc.cast(t.column("df"), pa.int64())}
        )

    return counts.map_batches(rename, batch_format="pyarrow")


class _TopTermsBatch:
    """Per-batch top-k characteristic terms: term frequencies via
    dictionary-code run counting (vectorized), global document frequency
    attached from the broadcast vocabulary table, top-k per doc by
    (tf DESC, df ASC, term ASC) — INTEGER-exact ranking (no float idf, so
    no cross-engine ulp risk; the tf×N/df monotone score can be derived
    downstream)."""

    def __init__(self, df_ref, text_col: str, id_col: str, k: int):
        self.df_ref = df_ref
        self.text_col = text_col
        self.id_col = id_col
        self.k = k
        self._vocab = None
        self._df = None

    def __call__(self, t: pa.Table) -> pa.Table:
        import pandas as pd

        if self._vocab is None:
            import ray

            obj = self.df_ref
            tbl = obj if isinstance(obj, pa.Table) else ray.get(obj)
            self._vocab = tbl.column("term").combine_chunks()
            self._df = tbl.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table(
            {
                self.id_col: pa.array([], t.schema.field(self.id_col).type),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
                "df": pa.array([], pa.int64()),
            }
        )
        flat, parent = _tokenize_block(t.column(self.text_col))
        if len(flat) == 0:
            return empty
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((codes, parent))
        p_s, c_s = parent[order], codes[order]
        first = np.r_[True, (p_s[1:] != p_s[:-1]) | (c_s[1:] != c_s[:-1])]
        run_id = np.cumsum(first) - 1
        tf = np.bincount(run_id)
        doc_of_run = p_s[first]
        code_of_run = c_s[first]
        # dictionary code → global df (a term missing from the broadcast
        # table means a stale df snapshot; count it as df=0 → ranks first)
        if len(self._vocab) == 0:
            # stale/empty df snapshot: every term counts as df=0
            dict_df = np.zeros(len(enc.dictionary), dtype=np.int64)
        else:
            pos = pc.index_in(enc.dictionary, value_set=self._vocab)
            pos_np = pos.to_numpy(zero_copy_only=False).astype(np.float64)
            miss = np.isnan(pos_np)
            # np.where evaluates BOTH branches — clamp missing indices to 0
            # BEFORE the take, then mask (an empty/partial vocab must not
            # index out of bounds)
            safe = np.nan_to_num(pos_np).astype(np.int64)
            dict_df = np.where(miss, 0, self._df[safe])
        terms_of_run = enc.dictionary.take(pa.array(code_of_run, pa.int64()))
        df_run = dict_df[code_of_run]
        ids = t.column(self.id_col).take(pa.array(doc_of_run, pa.int64()))
        dfr = pd.DataFrame(
            {
                self.id_col: ids.to_pandas(),
                "term": terms_of_run.to_pandas(),
                "tf": tf.astype(np.int64),
                "df": df_run.astype(np.int64),
            }
        )
        dfr = dfr.sort_values(
            [self.id_col, "tf", "df", "term"],
            ascending=[True, False, True, True], kind="mergesort",
            ignore_index=True,
        )
        top = dfr.groupby(self.id_col, sort=False).head(self.k)
        return pa.Table.from_pandas(top, preserve_index=False)


def top_terms(ds, text_col: str = "text", id_col: str = "doc_id", k: int = 3):
    """Per-document top-k characteristic terms (the TF-IDF shape with an
    integer-exact ranking): rank a doc's terms by (tf DESC, df ASC, term
    ASC) — most frequent locally, rarest in the corpus — and keep k.

    Two streaming passes: (1) :func:`doc_frequency` builds the
    vocabulary-sized (term, df) table — the only shuffle; (2) it
    broadcasts once via ``ray.put`` and each batch re-tokenizes and ranks
    locally.  At web scale the vocabulary broadcast is the bound —
    hash-shard the vocab (util.shard_codes on term) and run pass 2 per
    shard, keeping per-doc partial top-k, when it outgrows a worker."""
    import ray

    from ..util import collect_arrow

    df_tbl = collect_arrow(doc_frequency(ds, text_col, id_col))
    if df_tbl is None:
        df_tbl = pa.table(
            {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
        )
    ref = ray.put(df_tbl.combine_chunks())
    return ds.map_batches(
        _TopTermsBatch(ref, text_col, id_col, k), batch_format="pyarrow"
    )


def vocab_stats(ds, text_col: str = "text", group_col: str = "source"):
    """Per-``group_col`` vocabulary profile: total token count, distinct
    token count (types), hapax count (tokens seen exactly once in the
    group), type/token ratio and hapax/type ratio — the lexical-diversity
    view of a corpus (low TTR = TEMPLATED/boilerplate-heavy source, high
    hapax ratio = noisy OCR or unseen-domain text; both standard
    quality-triage signals next to :func:`quality_by_source`).

    Combiner-first, two slim tree folds, token VOLUME never shuffles:
    each block explodes whitespace tokens vectorized (``_tokenize_block``:
    a ``\\S+`` split + ``list_parent_indices``, zero Python per token) and
    pre-aggregates (group, token, n) with Arrow ``group_by``;
    ``tree_group_sum`` folds vocabulary-sized rows; a per-block
    projection then reduces each vocabulary row to (group, tokens, types,
    hapax) partials and a second ``tree_group_sum`` finishes.  Null groups are
    dropped (documented: SQL parity keeps ``WHERE group IS NOT NULL``);
    groups whose texts have no tokens are absent, as in SQL GROUP BY over
    the exploded token table."""

    from ..util import column_type

    grp_type = column_type(ds, group_col, pa.string())

    def token_partials(t: pa.Table) -> pa.Table:
        sub = t.select([group_col, text_col]).filter(
            pc.is_valid(t.column(group_col)))
        flat, parent = _tokenize_block(sub.column(text_col))
        empty = pa.table({group_col: pa.array([], grp_type),
                          "__tk": pa.array([], pa.string()),
                          "__n": pa.array([], pa.int64())})
        if len(flat) == 0:
            return empty
        grp = sub.column(group_col).take(pa.array(parent, pa.int64()))
        agg = group_by(pa.table({group_col: grp, "__tk": flat}),
                       [group_col, "__tk"], [([], "count_all")])
        return agg.rename_columns([group_col, "__tk", "__n"])

    from ..functions.shuffle import tree_group_sum

    vocab = tree_group_sum(
        ds.map_batches(token_partials, batch_format="pyarrow"),
        [group_col, "__tk"], ["__n"])

    def group_partials(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("__n"), pa.int64())
        flat_tbl = pa.table({
            group_col: t.column(group_col),
            "__tok": n,
            "__typ": pa.array(np.ones(len(t), dtype=np.int64)),
            "__hap": pc.cast(pc.equal(n, 1), pa.int64()),
        })
        agg = flat_tbl.group_by([group_col]).aggregate(
            [("__tok", "sum"), ("__typ", "sum"), ("__hap", "sum")])
        return agg.rename_columns([group_col, "__tok", "__typ", "__hap"])

    folded = tree_group_sum(
        vocab.map_batches(group_partials, batch_format="pyarrow"),
        [group_col], ["__tok", "__typ", "__hap"])

    def finish(t: pa.Table) -> pa.Table:
        tok = pc.cast(t.column("__tok"), pa.int64())
        typ = pc.cast(t.column("__typ"), pa.int64())
        hap = pc.cast(t.column("__hap"), pa.int64())
        ttr = pc.round(pc.divide(pc.cast(typ, pa.float64()),
                                 pc.cast(tok, pa.float64())), ndigits=6)
        hr = pc.round(pc.divide(pc.cast(hap, pa.float64()),
                                pc.cast(typ, pa.float64())), ndigits=6)
        return pa.table({group_col: t.column(group_col), "n_tokens": tok,
                         "n_types": typ, "n_hapax": hap,
                         "type_token_ratio": ttr, "hapax_ratio": hr})

    return folded.map_batches(finish, batch_format="pyarrow")


def inverted_index(ds, text_col: str = "text", id_col: str = "doc_id",
                   max_postings: int = 100_000):
    """Inverted-index postings in relational form: one row per
    ``(term, rank, doc)`` where ``rank`` is the 1-based position in the
    term's doc-id-sorted posting list, capped at ``max_postings`` per term
    (stopword-class terms would otherwise emit the whole corpus; the TRUE
    document frequency — uncapped — is :func:`doc_frequency`, which
    composes alongside).  Rows-not-lists is the Ray-native index layout:
    write it partitioned by term hash and a lookup reads one partition.

    Scale shape: per-block DISTINCT (term, doc) pairs via dictionary
    codes (zero Python per token, the :func:`doc_frequency` kernel), then
    a vectorized per-term running row-number on one hash exchange on the
    term (:func:`~hooqu_ray.pipelines.windows.running_agg`) and a cap
    filter.
    Assumes one document per input row, so block-local distinct pairs are
    globally distinct."""
    from .windows import running_agg

    if max_postings < 1:
        raise ValueError(f"max_postings must be >= 1, got {max_postings}")

    def distinct_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"term": pa.array([], pa.string()),
                          id_col: pa.array([], pa.int64()),
                          "__tie": pa.array([], pa.int64()),
                          "__v": pa.array([], pa.int64())})
        flat, parent = _tokenize_block(t.column(text_col))
        if len(flat) == 0:
            return empty
        ids = np.asarray(t.column(id_col), dtype=np.int64)[parent]
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((codes, parent))
        p_s, c_s = parent[order], codes[order]
        first = np.r_[True, (p_s[1:] != p_s[:-1]) | (c_s[1:] != c_s[:-1])]
        doc = pa.array(ids[order][first])
        return pa.table({
            "term": enc.dictionary.take(pa.array(c_s[first], pa.int64())),
            id_col: doc,
            "__tie": doc,
            "__v": doc,
        })

    run = running_agg(
        ds.map_batches(distinct_pairs, batch_format="pyarrow"),
        key="term", ts_col=id_col, tie="__tie", value_col="__v",
    )

    def finish(t: pa.Table) -> pa.Table:
        rn = pc.cast(t.column("run_n"), pa.int64())
        sub = pa.table({"term": t.column("term"), "rank": rn,
                        id_col: pc.cast(t.column(id_col), pa.int64())})
        return sub.filter(pc.less_equal(rn, pa.scalar(max_postings)))

    return run.map_batches(finish, batch_format="pyarrow")


def bm25_scores_multi(ds, queries, *, text_col: str = "text",
                      id_col: str = "doc_id", k1: float = 1.2,
                      b: float = 0.75):
    """Batch BM25 retrieval: score every matching document against EACH
    of a driver-side set of queries (``{query_id: query string}``) in
    the SAME single corpus pass — the shape of decontamination triage
    ("score the corpus against every eval prompt") and bulk search,
    where per-query passes would re-read the corpus |Q| times.

    Same scoring as :func:`bm25_scores` (Lucene non-negative ``idf =
    ln(1 + (N − df + 0.5)/(df + 0.5))``, whitespace tokens); the match
    table is built once over the UNION of all query terms, document
    frequencies are per TERM (shared across queries), and the per-query
    per-doc sums stay block-local (a document is one input row, so its
    match rows share a block).  Returns ``[query_id, id_col, score]``
    for (query, doc) pairs sharing ≥ 1 term."""
    import ray.data as rd

    from ..functions.shuffle import tree_group_sum
    from ..util import collect_arrow, column_type

    if not isinstance(queries, dict):
        queries = dict(queries)
    if not queries:
        raise ValueError("queries must be non-empty")
    per_query = {}
    for qid, qs in queries.items():
        terms = sorted(set(qs.split()))
        if not terms:
            raise ValueError(
                f"query {qid!r} must contain at least one token")
        per_query[str(qid)] = terms
    q_terms = sorted({t for ts in per_query.values() for t in ts})
    q_arr = pa.array(q_terms, pa.string())
    nq = len(q_terms)
    term_pos = {t: i for i, t in enumerate(q_terms)}
    # per-query membership mask over the union term list
    q_ids = sorted(per_query)
    memberships = {
        qid: np.isin(np.arange(nq),
                     [term_pos[t] for t in per_query[qid]])
        for qid in q_ids}

    id_type = column_type(ds, id_col, pa.int64())
    typed_out_empty = pa.table({"query_id": pa.array([], pa.string()),
                                id_col: pa.array([], id_type),
                                "score": pa.array([], pa.float64())})

    def emit(t: pa.Table) -> pa.Table:
        flat, parent = _tokenize_block(t.column(text_col))
        nrows = len(t)
        dl = np.bincount(parent, minlength=nrows).astype(np.int64)
        stats = pa.table({
            id_col: pa.array([None], id_type),
            "term": pa.array([None], pa.string()),
            "tf": pa.array([0], pa.int64()), "dl": pa.array([0], pa.int64()),
            "n_docs": pa.array([nrows], pa.int64()),
            "sum_dl": pa.array([int(dl.sum())], pa.int64())})
        if len(flat) == 0:
            return stats
        qidx = pc.index_in(flat, q_arr)
        hit = pc.is_valid(qidx).to_numpy(zero_copy_only=False)
        if not hit.any():
            return stats
        p = parent[hit]
        qi = qidx.to_numpy(zero_copy_only=False)[hit].astype(np.int64)
        m = np.zeros((nrows, nq), dtype=np.int64)
        np.add.at(m, (p, qi), 1)
        rows, cols = np.nonzero(m)
        ids = t.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        matches = pa.table({
            id_col: ids.take(pa.array(rows, pa.int64())),
            "term": q_arr.take(pa.array(cols, pa.int64())),
            "tf": pa.array(m[rows, cols], pa.int64()),
            "dl": pa.array(dl[rows], pa.int64()),
            "n_docs": pa.array(np.zeros(len(rows), np.int64)),
            "sum_dl": pa.array(np.zeros(len(rows), np.int64))})
        return pa.concat_tables([matches, stats])

    mat = ds.map_batches(emit, batch_format="pyarrow").materialize()
    sums = mat.sum(["n_docs", "sum_dl"]) or {}
    n_total = sums.get("sum(n_docs)") or 0
    if n_total == 0:
        return rd.from_arrow(typed_out_empty)
    avgdl = float(sums.get("sum(sum_dl)") or 0) / float(n_total)

    def term_ones(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.is_valid(t.column("term"))).select(["term"])
        return sub.append_column("df", pa.array(np.ones(len(sub), np.int64)))

    df_tbl = collect_arrow(tree_group_sum(
        mat.map_batches(term_ones, batch_format="pyarrow"),
        ["term"], ["df"]))
    if df_tbl is None or len(df_tbl) == 0:
        return rd.from_arrow(typed_out_empty)
    df_map = dict(zip(df_tbl.column("term").to_pylist(),
                      df_tbl.column("df").to_pylist()))
    df_vec = np.array([df_map.get(term, 0) for term in q_terms], np.float64)
    with np.errstate(divide="ignore"):
        idf = np.log(1.0 + (n_total - df_vec + 0.5) / (df_vec + 0.5))

    def score(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("term")))
        if len(t) == 0:
            return typed_out_empty
        qi = pc.index_in(t.column("term"), q_arr).to_numpy(
            zero_copy_only=False).astype(np.int64)
        tfv = t.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dlv = t.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        contrib = idf[qi] * (tfv * (k1 + 1.0)) / (
            tfv + k1 * (1.0 - b + b * (dlv / avgdl)))
        ids = t.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        # all rows of a doc share this block (a doc is one input row) —
        # each query's per-doc sum is block-local, no exchange
        enc = ids.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        parts = []
        for qid in q_ids:
            sel = np.flatnonzero(memberships[qid][qi])
            if sel.size == 0:
                continue
            c = codes[sel]
            order = np.argsort(c, kind="stable")
            c_s = c[order]
            starts = np.r_[True, c_s[1:] != c_s[:-1]]
            sums_q = np.add.reduceat(contrib[sel][order],
                                     np.flatnonzero(starts))
            doc_codes = c_s[starts]
            parts.append(pa.table({
                "query_id": pa.array([qid] * len(doc_codes), pa.string()),
                id_col: enc.dictionary.take(
                    pa.array(doc_codes, pa.int64())),
                "score": pa.array(sums_q, pa.float64())}))
        if not parts:
            return typed_out_empty
        return pa.concat_tables(parts)

    # batch_size=None (whole blocks): a doc's match rows were emitted into
    # one block and the per-doc sums are block-local — row-count batching
    # would split a doc's rows and emit duplicate partial-score rows.
    # The typed-empty anchor keeps the schema when NO document shares a
    # term with any query (every score block legitimately empty)
    return mat.map_batches(
        score, batch_format="pyarrow", batch_size=None
    ).union(rd.from_arrow(typed_out_empty))


def bm25_scores(ds, query: str, *, text_col: str = "text",
                id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75):
    """BM25 relevance of every MATCHING document against a driver-side
    query string (Robertson/Spärck Jones with Lucene's non-negative
    ``idf = ln(1 + (N − df + 0.5)/(df + 0.5))``) — the keyword-retrieval
    companion to the embedding k-NN family (``similarity.py``): corpus
    search, decontamination probes, eval-set leakage triage.

    Tokenization is the engine's whitespace convention (``\\S+`` runs,
    case-sensitive — ``doc_frequency``/``top_terms`` parity, so the SQL
    oracle reproduces it with ``regexp_extract_all(text, '\\S+')``).

    ONE corpus pass, NO key exchange: each block emits slim
    ``(id, term, tf, dl)`` rows for its docs × query terms (vectorized
    dense tf counting — #query-terms columns, not vocabulary) plus one
    per-block ``(n_docs, Σdl)`` stats row; everything downstream reads
    the MATERIALIZED match table (≤ #matching-docs × #terms rows).  The
    per-term document frequencies fold driver-side (≤ #query-terms
    rows), and scoring is block-local: a document is one input row, so
    all its match rows share a block and the per-doc sum never shuffles.
    Thin wrapper over :func:`bm25_scores_multi` (one implementation).
    Returns ``[id_col, score]`` for documents containing ≥ 1 query term
    (null-text docs count toward N / avgdl, SQL ``COALESCE('')``
    parity)."""
    import ray.data as rd

    from ..util import dataset_arrow_schema

    s = dataset_arrow_schema(ds)  # input schema — no lazy execution
    id_type = (s.field(id_col).type if s is not None
               and id_col in s.names else pa.int64())
    out = bm25_scores_multi(ds, {"__q": query}, text_col=text_col,
                            id_col=id_col, k1=k1, b=b)
    anchor = pa.table({id_col: pa.array([], id_type),
                       "score": pa.array([], pa.float64())})
    return out.map_batches(
        lambda t: t.drop_columns(["query_id"]),
        batch_format="pyarrow").union(rd.from_arrow(anchor))
