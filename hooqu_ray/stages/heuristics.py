"""Per-turn heuristic quality features + PII/toxicity scrub.

One stateless ``map_batches`` stage (Arrow in / Arrow out) computes every
Gopher/C4-style feature the keep/drop rules need, plus the scrubbed text.
Everything except the 2-gram repetition statistic is a vectorized Arrow
kernel.  The scrub runs three RE2 ``replace_substring_regex`` passes over
every row; only non-ASCII rows, where RE2 and Python ``re`` can disagree,
go through the Python ``re`` ``scrub_text`` and are spliced back.

Feature definitions are frozen in ``spec`` (shared with the test oracle).
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import patterns
from . import spec

# ASCII-pinned classes so RE2 (engine) and Python re (oracle) agree exactly
SYMBOL_PATTERN = r"[^0-9A-Za-z_\s]"
WHITESPACE_PATTERN = r"\s"
STOPWORD_PATTERN = r"\b(?:%s)\b" % "|".join(sorted(spec.STOPWORDS))

_SCRUB_RULES = (
    (spec.EMAIL, spec.EMAIL_TOKEN),
    (spec.CREDITCARD, spec.CC_TOKEN),
    (spec.TOXIC_RE, spec.TOX_TOKEN),
)

# The same rules as RE2 patterns.  On ASCII text RE2's \d, \b and (?i)
# match exactly what Python re's Unicode forms match, so these passes are
# byte-equal to scrub_text there; CREDITCARD needs its backref-free form.
_SCRUB_RE2 = (
    (spec.EMAIL.pattern, spec.EMAIL_TOKEN),
    (patterns.CREDITCARD_RE2_EXACT, spec.CC_TOKEN),
    ("(?i)" + spec.TOXIC_RE.pattern, spec.TOX_TOKEN),
)


def scrub_text(text: Optional[str]) -> Optional[str]:
    """Fixed-order global substitution (EMAIL → CC → TOX); None passes through."""
    if text is None:
        return None
    for rx, token in _SCRUB_RULES:
        text = rx.sub(token, text)
    return text


try:
    import polars as _pl

    def _token_hashes(flat_tokens: pa.Array) -> np.ndarray:
        return _pl.from_arrow(flat_tokens).hash(seed=0).to_numpy().astype(np.uint64)

except ImportError:  # pragma: no cover
    def _token_hashes(flat_tokens: pa.Array) -> np.ndarray:
        # PROCESS-STABLE fallback: these hashes are compared ACROSS Ray
        # workers (minhash signatures, content dedup), so builtin hash() —
        # randomized per process by PYTHONHASHSEED — would silently break
        # cross-block equality.  blake2b is slow but deterministic.
        import hashlib

        return np.fromiter(
            (
                int.from_bytes(
                    hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest(),
                    "little",
                )
                for t in flat_tokens.to_pylist()
            ),
            dtype=np.uint64,
            count=len(flat_tokens),
        )


def _dup_2gram_from_tokens(
    tok_hash: np.ndarray, tok_parent: np.ndarray, n_rows: int, n_words: np.ndarray
) -> np.ndarray:
    """Vectorized duplicate-2gram fraction: hash consecutive token pairs per
    row, lexsort by (row, pair-hash); duplicates are adjacent equal entries.
    Identical to the set-based loop up to 64-bit hash collisions (~1e-19 per
    document)."""
    out = np.zeros(n_rows)
    if tok_hash.size < 2:
        return out
    same_row = tok_parent[:-1] == tok_parent[1:]
    pair_hash = tok_hash[:-1] * np.uint64(0x9E3779B97F4A7C15) + tok_hash[1:]
    pair_row = tok_parent[:-1][same_row]
    pair_hash = pair_hash[same_row]
    if pair_hash.size == 0:
        return out
    order = np.lexsort((pair_hash, pair_row))
    sr, sh = pair_row[order], pair_hash[order]
    dup_adj = (sr[1:] == sr[:-1]) & (sh[1:] == sh[:-1])
    dups = np.zeros(n_rows, dtype=np.int64)
    np.add.at(dups, sr[1:][dup_adj], 1)
    n_pairs = np.zeros(n_rows, dtype=np.int64)
    np.add.at(n_pairs, pair_row, 1)
    valid = n_words >= 3
    with np.errstate(invalid="ignore", divide="ignore"):
        out[valid] = dups[valid] / np.maximum(n_pairs[valid], 1)
    return out


def compute_features(batch: pa.Table) -> pa.Table:
    """Append feature + scrubbed-text columns to a transcript batch."""
    text = batch.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n = len(batch)

    n_chars = pc.fill_null(pc.utf8_length(text), 0).to_numpy(zero_copy_only=False)
    n_sym = pc.fill_null(
        pc.count_substring_regex(text, pattern=SYMBOL_PATTERN), 0
    ).to_numpy(zero_copy_only=False)

    words = pc.utf8_split_whitespace(text)
    n_words_arr = pc.fill_null(pc.list_value_length(words), 0).to_numpy(zero_copy_only=False)
    # split_whitespace emits empty tokens at padded edges; the spec counts
    # str.split() words (no empties), so subtract them per row
    flat = pc.list_flatten(words)
    empty_mask = pc.equal(flat, "")
    # per-row count of empty split tokens via parent indices
    parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    empties_per_row = np.zeros(n, dtype=np.int64)
    em = empty_mask.to_numpy(zero_copy_only=False)
    if len(parent):
        np.add.at(empties_per_row, parent[em], 1)
    n_words = n_words_arr - empties_per_row

    lower = pc.ascii_lower(text)  # ASCII-only by spec (matches oracle translate table)
    n_stop = pc.fill_null(
        pc.count_substring_regex(lower, pattern=STOPWORD_PATTERN), 0
    ).to_numpy(zero_copy_only=False)

    # token views (shared by mean_word_len + dup-2gram)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    nonempty_mask = ~em
    tok_parent = parent[nonempty_mask] if len(parent) else parent
    if len(flat) and nonempty_mask.any():
        flat_ne = flat.filter(pa.array(nonempty_mask))
        tok_hash = _token_hashes(flat_ne)
        tok_lens = pc.utf8_length(flat_ne).to_numpy(zero_copy_only=False)
    else:
        flat_ne = None
        tok_hash = np.empty(0, dtype=np.uint64)
        tok_parent = np.empty(0, dtype=np.int64)
        tok_lens = np.empty(0, dtype=np.int64)
    # sum of token lengths per row — byte-identical to the oracle's
    # sum(len(w) for w in text.split()); (n_chars − ascii-\s count) would
    # diverge on non-ASCII whitespace like U+00A0
    sum_word_chars = np.zeros(n, dtype=np.int64)
    if len(tok_parent):
        np.add.at(sum_word_chars, tok_parent, tok_lens)

    with np.errstate(invalid="ignore", divide="ignore"):
        mean_word_len = np.where(n_words > 0, sum_word_chars / np.maximum(n_words, 1), 0.0)
        symbol_ratio = np.where(n_chars > 0, n_sym / np.maximum(n_chars, 1), 0.0)
        stopword_ratio = np.where(n_words > 0, n_stop / np.maximum(n_words, 1), 0.0)

    dup2 = _dup_2gram_from_tokens(tok_hash, tok_parent, n, n_words)

    has_toxic = pc.fill_null(
        pc.match_substring_regex(lower, pattern=spec.TOXIC_RE.pattern), False)

    scrubbed = text
    for pattern, token in _SCRUB_RE2:
        scrubbed = pc.replace_substring_regex(scrubbed, pattern=pattern, replacement=token)
    # non-ASCII rows (Unicode \d, \b and case folding) take Python re and
    # are spliced back in order; every other row keeps its RE2 result
    non_ascii = pc.invert(pc.fill_null(pc.string_is_ascii(text), True))
    if pc.any(non_ascii).as_py():
        fixed = [scrub_text(t) for t in text.filter(non_ascii).to_pylist()]
        scrubbed = pc.replace_with_mask(scrubbed, non_ascii, pa.array(fixed, text.type))

    return batch.append_column("n_chars", pa.array(n_chars, pa.int64())) \
        .append_column("n_words", pa.array(n_words, pa.int64())) \
        .append_column("mean_word_len", pa.array(mean_word_len, pa.float64())) \
        .append_column("symbol_ratio", pa.array(symbol_ratio, pa.float64())) \
        .append_column("stopword_ratio", pa.array(stopword_ratio, pa.float64())) \
        .append_column("dup_2gram", pa.array(dup2, pa.float64())) \
        .append_column("has_toxic", has_toxic) \
        .append_column("text_scrubbed", scrubbed)
