"""Document-level quality filter with reason codes — the C4/Gopher-style
rule stack over a documents table (the flagship transcripts pipeline's
policy, re-expressed for whole documents), one vectorized Arrow pass per
batch, embarrassingly parallel at any scale.

Rules fire in a FIXED order and each document reports its first failing
rule (``reason``; empty string when kept), so a curation run can read the
drop composition straight off a ``groupby(reason).count()``:

1. ``too_short``     fewer than ``min_tokens`` whitespace tokens
2. ``symbolic``      symbol chars / total chars above ``max_symbol_ratio``
3. ``low_stopword``  stopword tokens / total tokens below
                     ``min_stopword_ratio`` (word-soup / non-language)
4. ``repetitive``    most frequent word's share above ``max_top_word_frac``

Every metric is exactly reproducible in SQL (same RE2 regexes, same
ratios), so the kept/dropped decision is value-hash-checkable end to end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.strings import whitespace_token_counts
from ..stages.heuristics import STOPWORD_PATTERN, SYMBOL_PATTERN

DEFAULT_RULES = {
    "min_tokens": 16,
    "max_symbol_ratio": 0.3,
    "min_stopword_ratio": 0.03,
    "max_top_word_frac": 0.15,
}


def quality_filter_stage(batch: pa.Table, text_col: str = "text",
                         id_col: str = "doc_id",
                         rules: dict = DEFAULT_RULES) -> pa.Table:
    """Per-batch rule evaluation: rows (id, kept, reason)."""
    from .dedup import _batch_token_hashes

    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(batch)
    filled = pc.fill_null(texts, "")
    n_chars = pc.utf8_length(filled).to_numpy(zero_copy_only=False).astype(np.int64)
    n_tok = whitespace_token_counts(filled)
    n_sym = pc.count_substring_regex(filled, pattern=SYMBOL_PATTERN).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    n_stop = pc.count_substring_regex(
        pc.utf8_lower(filled), pattern=STOPWORD_PATTERN
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        sym_ratio = np.where(n_chars > 0, n_sym / np.maximum(n_chars, 1), 0.0)
        stop_ratio = np.where(n_tok > 0, n_stop / np.maximum(n_tok, 1), 0.0)
    # most-frequent word share (hash run counting, repetition_stats kernel)
    h, tp, _ = _batch_token_hashes(filled)
    max_wc = np.zeros(n, dtype=np.int64)
    if tp.size:
        order = np.lexsort((h, tp))
        tp_s, h_s = tp[order], h[order]
        new_run = np.r_[True, (tp_s[1:] != tp_s[:-1]) | (h_s[1:] != h_s[:-1])]
        run_id = np.cumsum(new_run) - 1
        run_counts = np.bincount(run_id)
        np.maximum.at(max_wc, tp_s[new_run], run_counts)
    top_word_frac = max_wc / np.maximum(n_tok, 1)

    reason = np.full(n, "", dtype=object)
    checks = (
        ("too_short", n_tok < rules["min_tokens"]),
        ("symbolic", sym_ratio > rules["max_symbol_ratio"]),
        ("low_stopword", stop_ratio < rules["min_stopword_ratio"]),
        ("repetitive", top_word_frac > rules["max_top_word_frac"]),
    )
    undecided = np.ones(n, dtype=bool)
    for name, fails in checks:
        hit = undecided & fails
        reason[hit] = name
        undecided &= ~hit
    return pa.table(
        {
            id_col: batch.column(id_col),
            "kept": pa.array(undecided),
            "reason": pa.array(reason, pa.string()),
        }
    )


def quality_filter(ds, text_col: str = "text", id_col: str = "doc_id",
                   rules: dict = DEFAULT_RULES):
    """Dataset wrapper: one streaming ``map_batches`` pass producing
    (id, kept, reason) for every document."""
    return ds.map_batches(
        lambda t, _tc=text_col, _ic=id_col, _r=rules: quality_filter_stage(
            t, _tc, _ic, _r
        ),
        batch_format="pyarrow",
    )


def blocklist_pattern(terms, *, word_boundary: bool = True,
                      case_insensitive: bool = True) -> str:
    """ONE RE2 alternation for a phrase blocklist (shared by the engine
    filter and any SQL oracle — both pyarrow and DuckDB run RE2, so the
    same string means the same matches).  Terms are regex-escaped;
    ``word_boundary`` requires start/end of text or a character that is not
    a Unicode letter, digit or ``_`` on each side of the match.  (RE2's
    ``\\b`` is ASCII-only and needs a word character at the term's edge, so
    ``über``, ``c++`` or ``@handle`` would never match under it.)"""
    import re as _re

    if not terms:
        raise ValueError("blocklist_pattern: empty term list")
    alt = "|".join(_re.escape(t) for t in terms)
    edge = "[^\\pL\\pN_]"
    pat = (f"(?:^|{edge})(?:{alt})(?:$|{edge})" if word_boundary
           else f"(?:{alt})")
    return ("(?i)" + pat) if case_insensitive else pat


class _BlocklistFilter:
    """Per-batch blocklist stage, passed to ``map_batches`` as an instance
    (a stateless task).  RE2 builds a DFA whose match cost is independent
    of term count, so each batch pays one vectorized
    ``match_substring_regex`` (pyarrow compiles the pattern per call)."""

    def __init__(self, pattern: str, text_col: str, invert: bool):
        self.pattern = pattern
        self.text_col = text_col
        self.invert = invert
        # probe-compile on a NON-empty array, on the driver: a pattern RE2
        # rejects raises here, not mid-stream (empty arrays skip compilation)
        pc.match_substring_regex(pa.array(["x"]), pattern=pattern)

    def __call__(self, t: pa.Table) -> pa.Table:
        text = pc.fill_null(pc.cast(t.column(self.text_col), pa.string()), "")
        hit = pc.match_substring_regex(text, pattern=self.pattern)
        return t.filter(hit if self.invert else pc.invert(hit))


def blocklist_filter(ds, terms, text_col: str = "text", *,
                     word_boundary: bool = True,
                     case_insensitive: bool = True,
                     invert: bool = False):
    """Drop every row whose text contains ANY blocklisted phrase — the
    C4-style "bad words" filter (public badwords lists run to ~400 terms
    per language).  ``invert=True`` keeps only matching rows (the audit
    view).  Embarrassingly parallel; no shuffle at any scale.  Exactly
    reproducible in SQL via :func:`blocklist_pattern`."""
    pat = blocklist_pattern(terms, word_boundary=word_boundary,
                            case_insensitive=case_insensitive)
    return ds.map_batches(_BlocklistFilter(pat, text_col, invert),
                          batch_format="pyarrow")
