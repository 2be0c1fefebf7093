"""Document quality filter tests: planted rule violations + pandas oracle."""

import re

import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"


class TestQualityFilter:
    def test_planted_violations(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.filters import quality_filter

        long_clean = ("the cat and the dog are in the house with a ball "
                      "and it is a good day for all of us to be here now "
                      "because the sun is out and the sky is blue today")
        df = pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4, 5],
                "text": [
                    long_clean,                                 # kept
                    "short text",                               # too_short
                    "@#$% ^&*( )!@# $%^& *()! @#$% " * 4,       # symbolic
                    "zebra quartz viola kilogram " * 8,          # low_stopword
                    "the spam spam spam spam spam spam spam "
                    "spam spam spam spam spam spam spam spam",   # fails before 'repetitive'? no stopwords ratio ok ('the'), top word 'spam'
                ],
            }
        )
        got = (
            quality_filter(rd.from_pandas(df).repartition(3))
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert got.loc[0, "kept"] and got.loc[0, "reason"] == ""
        assert got.loc[1, "reason"] == "too_short"
        assert got.loc[2, "reason"] == "symbolic"
        assert got.loc[3, "reason"] == "low_stopword"
        assert got.loc[4, "reason"] == "repetitive"
        assert not got.loc[1:, "kept"].any()

    def test_matches_pandas_oracle(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.filters import quality_filter, DEFAULT_RULES
        from hooqu_ray.stages.heuristics import SYMBOL_PATTERN, STOPWORD_PATTERN

        pdf = pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
        got = (
            quality_filter(rd.from_pandas(pdf).repartition(4))
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        sym_re, stop_re = re.compile(SYMBOL_PATTERN), re.compile(STOPWORD_PATTERN)

        def expected(text):
            t = text or ""
            toks = t.split()
            n_tok = len(toks)
            if n_tok < DEFAULT_RULES["min_tokens"]:
                return "too_short"
            sym = len(sym_re.findall(t)) / max(len(t), 1) if len(t) else 0.0
            if sym > DEFAULT_RULES["max_symbol_ratio"]:
                return "symbolic"
            stop = len(stop_re.findall(t.lower())) / max(n_tok, 1) if n_tok else 0.0
            if stop < DEFAULT_RULES["min_stopword_ratio"]:
                return "low_stopword"
            top = max(pd.Series(toks).value_counts()) / max(n_tok, 1)
            if top > DEFAULT_RULES["max_top_word_frac"]:
                return "repetitive"
            return ""

        exp = [expected(t) for t in pdf.sort_values("doc_id")["text"]]
        assert got["reason"].tolist() == exp
        assert (got["kept"] == (got["reason"] == "")).all()
        # the filter splits the corpus non-trivially at these thresholds
        assert 0 < got["kept"].sum() < len(got)


class TestBlocklistFilter:
    def test_word_boundary_case_and_phrase(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.filters import blocklist_filter

        t = pa.table({
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array([
                "a BADWORD here",            # case-insensitive hit
                "badwords is a longer word",  # boundary: no hit
                "two part phrase inside",     # phrase hit
                "clean text",
                None,                         # null text: kept
            ], pa.string()),
        })
        kept = blocklist_filter(
            rd.from_arrow(t).repartition(2), ["badword", "part phrase"]
        ).to_pandas().sort_values("doc_id")
        assert kept["doc_id"].tolist() == [2, 4, 5]
        audit = blocklist_filter(
            rd.from_arrow(t), ["badword", "part phrase"], invert=True
        ).to_pandas().sort_values("doc_id")
        assert audit["doc_id"].tolist() == [1, 3]

    def test_regex_metachars_escaped(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.filters import blocklist_filter

        t = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["price (a.b) listed", "price aXb listed"],
                             pa.string()),
        })
        kept = blocklist_filter(
            rd.from_arrow(t), ["(a.b)"], word_boundary=False
        ).to_pandas()
        assert kept["doc_id"].tolist() == [2]  # dot escaped, not wildcard

    def test_empty_terms_raise(self, ray_session):
        import pytest

        from hooqu_ray.pipelines.filters import blocklist_pattern

        with pytest.raises(ValueError):
            blocklist_pattern([])

    def test_unicode_and_symbol_term_boundaries(self, ray_session):
        """Terms that start or end in a non-ASCII letter or a symbol match
        at a text edge or next to a non-letter/digit/underscore, and not
        inside a word; the engine and DuckDB's RE2 agree."""
        import duckdb
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.filters import (blocklist_filter,
                                                 blocklist_pattern)

        terms = ["über", "naïve café", "c++", "c#", "@handle", "spark"]
        hits = ["über", "Über uns", "I write c++", "in c#.", "ping @handle",
                "a naïve café", "spark", "one spark."]
        misses = ["grüber", "überall", "sparky", "SPARK_x", "éspark",
                  "mail x@handle", "c++x", "clean"]
        t = pa.table({"doc_id": pa.array(range(len(hits) + len(misses)),
                                         pa.int64()),
                      "text": pa.array(hits + misses, pa.string())})
        audit = blocklist_filter(rd.from_arrow(t).repartition(3), terms,
                                 invert=True).to_pandas()
        assert sorted(audit["text"]) == sorted(hits)
        pat = blocklist_pattern(terms)
        got = [duckdb.execute("SELECT regexp_matches(?, ?)",
                              [s, pat]).fetchone()[0] for s in hits + misses]
        assert got == [True] * len(hits) + [False] * len(misses)
