"""The PII/toxicity scrub in ``compute_features`` against ``scrub_text``.

ASCII rows are scrubbed by three RE2 passes, non-ASCII rows by Python
``re``; each test runs one multi-row batch, so the splice runs too."""

import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hooqu_ray import patterns
from hooqu_ray.stages import heuristics
from hooqu_ray.stages.heuristics import compute_features, scrub_text

from reference_impl import oracle_scrub

EMAILS = [
    "alice@example.org", "bob.smith+tag@mail.example.co", "Carol@Example.com",
    '"john..doe"@example.org', '"a b"@x.io', "user@[192.168.0.1]",
    "x@[ipv6:2001:db8::1]", "@", "a@b", "name@-bad-.com",
]
CARDS = [
    "4111 1111 1111 1111", "4111-1111-1111-1111", "4111111111111111",
    "4111 1111-1111 1111", "4111-1111 1111-1111", "5500 0000 0000 0004",
    "6011-0000-0000-0004", "6500000000000002", "3782 822463 10005",
    "3782-822463-10005", "378282246310005", "3782 822463-10005",
    "3400 000000 00009", "41111111111111111", "1234 5678 9012 3456",
]
TOXIC = [
    "frakking", "FRAKKING", "Dangblast", "scuzzBucket", "xfrakking",
    "frakking_", "frakking1", "_frakking", "frakking-", "1frakking",
]
FILLERS = [
    " ", "  ", "-", "_", ".", "@", "x", "ok", "\t", "\n", "1", "12", "1234",
    "[EMAIL]", "[CC]", "[TOX]", "\"", "[", "]",
]

ascii_row = st.lists(
    st.one_of(st.sampled_from(EMAILS + CARDS + TOXIC + FILLERS),
              st.text(st.characters(max_codepoint=127), max_size=4)),
    max_size=10,
).map("".join)


def _scrubbed(texts):
    batch = pa.table({"text": pa.array(texts, pa.string())})
    return compute_features(batch).column("text_scrubbed").to_pylist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), ascii_row), min_size=1, max_size=16))
@example(["4111 1111-1111 1111", None, "card 4111-1111-1111-1111 ok"])
@example(["xfrakking frakking_ frakking1 frakking", "[EMAIL]frakking",
          "a@b.co[EMAIL]4111111111111111"])
@example(['"a b"@x.io user@[192.168.0.1] 3782 822463 10005', None])
def test_ascii_rows_match_scrub_text(texts):
    assert all(t is None or t.isascii() for t in texts)
    assert _scrubbed(texts) == [scrub_text(t) for t in texts]


NON_ASCII = [
    "card 4\u0661\u0661\u0661 \u0661\u0661\u0661\u0661 \u0661\u0661\u0661\u0661 "
    "\u0661\u0661\u0661\u0661 ok",              # Python \d matches Arabic-Indic digits
    "\u00e9frakking x",                         # no \b between é and f
    "caf\u00e9 frakking",
    "bad scuzzbuc\u212aet indeed",              # Kelvin sign folds to k
    "ok \u017fcuzzbucket here",                 # long s folds to s
    "FRAKK\u0130NG loud",                       # dotted capital I
    "frakk\u0131ng here",                       # dotless small i
    "card 4111\u00a01111\u00a01111\u00a01111 ok",  # no-break space separators
    "mail bob@example.com from K\u00f6ln",
]


def test_non_ascii_rows_take_python_path(monkeypatch):
    seen = []

    def spy(text):
        seen.append(text)
        return scrub_text(text)

    monkeypatch.setattr(heuristics, "scrub_text", spy)
    texts = ["plain ascii frakking", None] + NON_ASCII + ["4111 1111 1111 1111"]
    assert _scrubbed(texts) == [oracle_scrub(t) for t in texts]
    assert seen == NON_ASCII
    assert oracle_scrub(NON_ASCII[0]) == "card [CC] ok"
    assert oracle_scrub(NON_ASCII[1]) == NON_ASCII[1]


card_sep = st.sampled_from(["", " ", "-", "  ", "--", " -", "_", "."])
card_row = st.tuples(
    st.sampled_from(["", " ", "x", "1", "_", "-", "a "]),
    st.sampled_from(["3", "34", "37", "4", "5", "51", "55", "56", "65", "6011", "6"]),
    st.lists(st.tuples(card_sep, st.text("0123456789", min_size=1, max_size=6)),
             max_size=5),
    st.sampled_from(["", " ", "x", "1", "_", "-", " ok"]),
).map(lambda p: p[0] + p[1] + "".join(s + d for s, d in p[2]) + p[3])


@settings(max_examples=400, deadline=None)
@given(st.lists(card_row, min_size=1, max_size=8))
@example(["4111 1111-1111 1111", "3782 822463 10005", "378282246310005",
          "x3782-822463-10005", "3782-822463-10005 ok"])
def test_creditcard_re2_exact_matches_python(texts):
    """The RE2 card pattern replaces exactly what ``CREDITCARD.sub`` does,
    mixed separators left alone.  Arrays are non-empty: pyarrow compiles
    the pattern only when there is a row to match."""
    got = pc.replace_substring_regex(pa.array(texts, pa.string()),
                                     pattern=patterns.CREDITCARD_RE2_EXACT,
                                     replacement="[CC]")
    assert got.to_pylist() == [patterns.CREDITCARD.sub("[CC]", t) for t in texts]

