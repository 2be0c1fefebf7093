"""``strings.whitespace_token_counts`` against the RE2 count it replaces,
``pc.fill_null(pc.count_substring_regex(a, r"\\S+"), 0)``.

The text alphabet is ASCII 0–127 (every RE2 ``\\s`` byte, ``\\v`` and
the other control characters) plus NBSP, U+3000, NEL and an emoji: all
non-ASCII whitespace that ``\\S+`` treats as token characters.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hooqu_ray.functions.strings import whitespace_token_counts

HYPO = settings(max_examples=300, deadline=None)

_ALPHABET = st.sampled_from(
    [chr(i) for i in range(128)] + [" ", "　", "\u0085", "\U0001f600"])
_TEXTS = st.lists(st.one_of(st.none(), st.text(_ALPHABET, max_size=12)),
                  max_size=30)


def _regex_counts(a) -> np.ndarray:
    return np.asarray(pc.fill_null(pc.count_substring_regex(a, r"\S+"), 0),
                      dtype=np.int64)


def _check(a):
    got = whitespace_token_counts(a)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _regex_counts(a))


@HYPO
@given(_TEXTS, st.sampled_from([pa.string(), pa.large_string()]),
       st.data())
@example([], pa.string(), None)
@example([None, None], pa.string(), None)
@example(["", " ", "\t\n\f\r", "\v", "a b", "x　y\u0085z"],
         pa.large_string(), None)
def test_matches_regex_count(texts, typ, data):
    a = pa.array(texts, typ)
    _check(a)
    if data is None or not texts:
        return
    start = data.draw(st.integers(0, len(a)))
    length = data.draw(st.integers(0, len(a) - start))
    _check(a.slice(start, length))
    cut = data.draw(st.integers(0, len(a)))
    _check(pa.chunked_array([a.slice(0, cut), a.slice(cut)], typ))


def test_null_slot_with_bytes_counts_zero():
    """Arrow lets a null slot span bytes; they are not its tokens."""
    a = pa.StringArray.from_buffers(
        3, pa.py_buffer(np.array([0, 3, 7, 9], np.int32).tobytes()),
        pa.py_buffer(b"a bc d ef g"), pa.py_buffer(bytes([0b101])), 1)
    assert a.to_pylist() == ["a b", None, "ef"]
    _check(a)
    assert whitespace_token_counts(a).tolist() == [2, 0, 1]


@pytest.mark.parametrize("a", [
    pa.chunked_array([], pa.string()),
    pa.chunked_array([pa.array([], pa.large_string())]),
], ids=["no-chunks", "empty-chunk"])
def test_empty_chunked_arrays(a):
    got = whitespace_token_counts(a)
    assert got.dtype == np.int64 and len(got) == 0


@pytest.mark.parametrize("a", [
    pa.array([1, 2]), pa.array([None, None]),
    pa.array(["a b"]).dictionary_encode(),
], ids=["int", "null-type", "dictionary"])
def test_rejects_non_string(a):
    """The types ``count_substring_regex`` has no kernel for either."""
    with pytest.raises(TypeError):
        whitespace_token_counts(a)


@pytest.mark.parametrize("texts", [
    ["a\x0bb", "a\u00a0b", "a\u3000b", "a\u0085b", "a\x1cb", None],
    [" a\tb\n\nc\f\rd ", "", None, "\x0b", "x  y"],
], ids=["non-re2-space", "re2-space"])
def test_tokenize_block_splits_on_re2_space_only(texts):
    """``textstats._tokenize_block`` yields, per row, as many tokens as
    ``\\S+`` counts: ``\\v``, NBSP, U+3000, NEL and ``\\x1c`` are token
    characters, and null text has none."""
    from hooqu_ray.pipelines.textstats import _tokenize_block

    a = pa.array(texts)
    flat, parent = _tokenize_block(a)
    assert len(flat) == len(parent)
    np.testing.assert_array_equal(np.bincount(parent, minlength=len(a)),
                                  whitespace_token_counts(a))


def test_block_ngram_counts_use_re2_tokens():
    """``top_ngrams``' combiner tokenizes like ``\\S+`` (its SQL oracle):
    ``\\v`` and NBSP stay inside a token."""
    from hooqu_ray.pipelines.textstats import _block_ngram_counts

    t = pa.table({"text": ["a\x0bb c", "x\u00a0y z", None, ""]})
    got = _block_ngram_counts(t, "text", 2).to_pydict()
    assert dict(zip(got["ngram"], got["n"])) == {"a\x0bb c": 1,
                                                 "x\u00a0y z": 1}


_NON_RE2_SPACE = ["a\x0bb c", "a\u00a0b", "x a\u3000b", "a\u0085b a",
                  "a\x1cb", None, ""]


def test_vocab_counts_total_matches_token_counts(ray_session):
    """``scoring._vocab_counts_in``'s corpus token total and vocab counts
    tokenize like ``\\S+`` (``_tokenize_block``): ``\\v``, NBSP, U+3000,
    NEL and ``\\x1c`` stay inside a token."""
    import ray.data as rd

    from hooqu_ray.pipelines.scoring import _vocab_counts_in

    a = pa.array(_NON_RE2_SPACE)
    ds = rd.from_arrow(pa.table({"text": a})).repartition(2)
    counts, total = _vocab_counts_in(ds, "text",
                                     pa.array(["a", "b", "a\x0bb", "x"]))
    assert total == int(whitespace_token_counts(a).sum())
    got = dict(zip(*counts.to_pydict().values()))
    assert got == {"a\x0bb": 1, "a": 1, "x": 1}


def test_llr_scorer_token_counts_match_token_counts():
    """``scoring._LLRScoreBatch``'s per-document ``n_tokens`` is the
    ``\\S+`` count, and only whole ``\\S+`` tokens hit the vocab."""
    from hooqu_ray.pipelines.scoring import _LLRScoreBatch

    a = pa.array(_NON_RE2_SPACE)
    t = pa.table({"doc_id": pa.array(range(len(a)), pa.int64()), "text": a})
    lr = pa.table({"token": ["a", "b"], "lr": [1.0, 2.0]})
    out = _LLRScoreBatch(lr, "text", "doc_id")(t).to_pydict()
    np.testing.assert_array_equal(out["n_tokens"], whitespace_token_counts(a))
    assert out["n_invocab"] == [0, 0, 0, 1, 0, 0, 0]


def test_packing_tokens_match_token_counts():
    """``packing._block_tokens`` (the packer's tokens) splits like
    ``\\S+``."""
    from hooqu_ray.pipelines.packing import _block_tokens

    a = pa.array(_NON_RE2_SPACE)
    assert len(_block_tokens(pa.table({"text": a}), "text")) == int(
        whitespace_token_counts(a).sum())
