"""Deterministic language-ID and perplexity models.

Stand-ins for fastText lid.176 and a KenLM n-gram model (no downloads in
this sandbox) with the same execution shape: the model tables are built
ONCE in ``__init__`` (under 1 ms) and applied per batch with fully
vectorized numpy — one concatenated byte buffer per batch, per-position
table lookups, and ``np.add.reduceat`` segment sums.  No
Python-per-character work in the hot path; the only per-row Python is
``str.encode``.

Math (shared with the test oracle via ``spec``):

- LangID: for each language L, score(text) = mean over char trigrams t of
  log P_L(t) with Laplace-smoothed hashed trigram counts
  (``spec.trigram_bucket``); predicted language = argmax.  Texts with < 3
  bytes score 0 for every language and argmax falls back to "en".
- Perplexity: char-bigram model over ``spec.LM_CORPUS_EN``;
  ppl(text) = exp(mean over adjacent byte pairs of −log P(c2|c1)),
  P Laplace-smoothed per ``spec.BIGRAM_SMOOTHING``.  Texts with < 2 bytes
  get ppl = 1.0.

Both ASCII-lowercase the raw utf-8 bytes and fold bytes ≥ 128 into bucket
127 (ASCII-only case by spec — see ``_byte_codes``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import spec


def _byte_codes(texts: Sequence[Optional[str]]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ASCII-lowercased utf-8 bytes of all texts (None → empty).

    Returns (codes int64 folded to <128, offsets int64 of length n+1).
    Lowercasing is ASCII-only BY SPEC: bytes ≥128 fold into one bucket, so
    non-ASCII case is invisible to the models anyway, and ASCII-only lowering
    is bit-identical across the engine byte path, pc.ascii_lower, and the
    oracle's translate table (full Unicode lowering is not — e.g. U+0130)."""
    encoded = [(t or "").encode("utf-8") for t in texts]
    lens = np.fromiter((len(b) for b in encoded), dtype=np.int64, count=len(encoded))
    buf = np.frombuffer(b"".join(encoded), dtype=np.uint8).astype(np.int64)
    _ascii_lower_codes(buf)
    np.minimum(buf, 127, out=buf)
    offsets = np.empty(len(encoded) + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lens, out=offsets[1:])
    return buf, offsets


def _ascii_lower_codes(codes: np.ndarray) -> None:
    """In-place ASCII lowercase of an int64 byte-code array."""
    upper = (codes >= 65) & (codes <= 90)
    codes[upper] += 32


def _byte_codes_arrow(col) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-copy variant: byte codes + offsets straight from an Arrow string
    array's buffers; ASCII-only lowercase applied on the code array (see
    ``_byte_codes`` — by spec, and bit-identical to the list path)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr = pc.fill_null(col, "")
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    raw_offsets = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    codes = data[raw_offsets[0] : raw_offsets[-1]].astype(np.int64)
    _ascii_lower_codes(codes)
    np.minimum(codes, 127, out=codes)
    return codes, raw_offsets - raw_offsets[0]


def _segment_means(values: np.ndarray, offsets: np.ndarray, min_len: int) -> np.ndarray:
    """Mean of values per text segment, where segment i covers value indices
    [offsets[i], offsets[i+1] - (min_len - 1)) — i.e. n-gram positions that
    do not cross text boundaries.  Segments shorter than min_len get 0."""
    n = len(offsets) - 1
    k = min_len - 1
    n_values = len(values)
    if n_values == 0:
        return np.zeros(n)
    # n-gram value at position p belongs to segment i iff p+k stays inside the
    # segment; clip because trailing empty texts put start offsets past the
    # last valid n-gram position
    starts = np.clip(offsets[:-1], 0, n_values)
    ends = np.clip(np.maximum(offsets[1:] - k, starts), 0, n_values)
    ends = np.maximum(ends, starts)
    counts = ends - starts
    cum = np.concatenate([[0.0], np.cumsum(values)])
    sums = cum[ends] - cum[starts]
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return means


class CharBigramLM:
    """KenLM-style scorer: -log P per char bigram."""

    def __init__(self, corpus: str = spec.LM_CORPUS_EN):
        codes, _ = _byte_codes([corpus])
        counts = np.zeros((spec.N_CHAR_BUCKETS, spec.N_CHAR_BUCKETS), dtype=np.float64)
        if len(codes) >= 2:
            np.add.at(counts, (codes[:-1], codes[1:]), 1.0)
        s = spec.BIGRAM_SMOOTHING
        probs = (counts + s) / (counts.sum(axis=1, keepdims=True) + s * spec.N_CHAR_BUCKETS)
        self.neg_logp = -np.log(probs)

    def perplexity(self, texts: Sequence[Optional[str]]) -> np.ndarray:
        return self.perplexity_codes(*_byte_codes(texts))

    def perplexity_codes(self, codes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        if len(codes) >= 2:
            nlp = self.neg_logp[codes[:-1], codes[1:]]
        else:
            nlp = np.zeros(0)
        means = _segment_means(nlp, offsets, min_len=2)
        return np.exp(means)


class TrigramLangID:
    """fastText-style language identifier over hashed char trigrams."""

    def __init__(self, corpora=None):
        corpora = corpora or spec.LM_CORPORA
        self.langs: List[str] = list(corpora)
        tables = []
        s = spec.TRIGRAM_SMOOTHING
        for lang in self.langs:
            codes, _ = _byte_codes([corpora[lang]])
            counts = np.zeros(spec.TRIGRAM_BUCKETS, dtype=np.float64)
            if len(codes) >= 3:
                buckets = ((codes[:-2] * 31 + codes[1:-1]) * 31 + codes[2:]) % spec.TRIGRAM_BUCKETS
                np.add.at(counts, buckets, 1.0)
            logp = np.log((counts + s) / (counts.sum() + s * spec.TRIGRAM_BUCKETS))
            tables.append(logp)
        self.tables = np.stack(tables)  # (n_langs, TRIGRAM_BUCKETS)

    def predict(self, texts: Sequence[Optional[str]]) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (lang strings, score margin best−second).  Empty/short
        texts predict the first language with margin 0."""
        return self.predict_codes(*_byte_codes(texts))

    def predict_codes(self, codes: np.ndarray, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        n_texts = len(offsets) - 1
        if len(codes) >= 3:
            buckets = ((codes[:-2] * 31 + codes[1:-1]) * 31 + codes[2:]) % spec.TRIGRAM_BUCKETS
            scores = np.stack(
                [_segment_means(tbl[buckets], offsets, min_len=3) for tbl in self.tables]
            )  # (n_langs, n_texts)
        else:
            scores = np.zeros((len(self.langs), n_texts))
        best = np.argmax(scores, axis=0)  # ties → first language ("en")
        cols = np.arange(scores.shape[1])
        best_scores = scores[best, cols]
        rest = scores.copy()
        rest[best, cols] = -np.inf
        margin = best_scores - rest.max(axis=0)
        langs = np.asarray(self.langs, dtype=object)[best]
        return langs, margin
