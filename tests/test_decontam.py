"""Decontamination / dup-ngram / split-assign / quality-rollup tests with
pandas-level oracles (pure-Python n-gram reimplementation)."""

import hashlib

import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"


def _py_ngrams(text, n):
    toks = (text or "").split()
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


@pytest.fixture(scope="module")
def docs_pdf():
    return pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).repartition(4)


class TestContamination:
    def test_matches_python_oracle(self, docs_ds, docs_pdf):
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import contamination_stats

        bench_pdf = docs_pdf[docs_pdf["doc_id"] % 101 == 0]
        bench = rd.from_pandas(bench_pdf).repartition(2)
        got = (
            contamination_stats(docs_ds, bench, n=5)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        bench_grams = set()
        for t in bench_pdf["text"]:
            bench_grams.update(_py_ngrams(t, 5))
        exp_hits, exp_tot = [], []
        for t in docs_pdf.sort_values("doc_id")["text"]:
            gs = _py_ngrams(t, 5)
            exp_tot.append(len(gs))
            exp_hits.append(sum(g in bench_grams for g in gs))
        assert got["n_ngrams"].tolist() == exp_tot
        assert got["n_contaminated"].tolist() == exp_hits
        assert (got["contaminated"] == (got["n_contaminated"] > 0)).all()

    def test_empty_benchmark(self, docs_ds, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import contamination_stats

        bench = rd.from_pandas(pd.DataFrame({"doc_id": [], "text": []}))
        got = contamination_stats(docs_ds, bench, n=5).to_pandas()
        assert (got["n_contaminated"] == 0).all()
        assert not got["contaminated"].any()

    def test_short_docs_zero_ngrams(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import contamination_stats

        df = pd.DataFrame({"doc_id": [1, 2], "text": ["one two", None]})
        bench = rd.from_pandas(pd.DataFrame({"doc_id": [9], "text": ["one two three four five"]}))
        got = (
            contamination_stats(rd.from_pandas(df), bench, n=5)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert got["n_ngrams"].tolist() == [0, 0]
        assert got["contaminated_frac"].tolist() == [0.0, 0.0]


class TestDecontaminate:
    def test_matches_stats_and_python(self, docs_ds, docs_pdf, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import contamination_stats, decontaminate

        bench_pdf = docs_pdf[docs_pdf["doc_id"] % 101 == 0]
        bench = rd.from_pandas(bench_pdf).repartition(2)
        kept = decontaminate(docs_ds, bench, n=5).to_pandas()
        stats = contamination_stats(docs_ds, bench, n=5).to_pandas()
        clean_ids = set(stats.loc[~stats["contaminated"], "doc_id"])
        assert set(kept["doc_id"]) == clean_ids
        # kept rows carry all input columns unchanged
        assert set(kept.columns) == {"doc_id", "text"}
        # every benchmark doc with >= 1 n-gram was dropped (self-overlap)
        bench_with_grams = {
            d for d, t in zip(bench_pdf["doc_id"], bench_pdf["text"])
            if len(_py_ngrams(t, 5)) > 0
        }
        assert not (bench_with_grams & set(kept["doc_id"]))


class TestDupNgrams:
    def _py_oracle(self, texts, n=5, min_count=2):
        from collections import Counter

        counts = Counter()
        for t in texts:
            counts.update(_py_ngrams(t, n))
        hits, tots = [], []
        for t in texts:
            gs = _py_ngrams(t, n)
            tots.append(len(gs))
            hits.append(sum(counts[g] >= min_count for g in gs))
        return tots, hits

    def test_matches_python_oracle(self, docs_ds, docs_pdf):
        from hooqu_ray.pipelines.decontam import dup_ngram_stats

        got = (
            dup_ngram_stats(docs_ds, n=5)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        ordered = docs_pdf.sort_values("doc_id")["text"].tolist()
        exp_tot, exp_hits = self._py_oracle(ordered)
        assert got["n_ngrams"].tolist() == exp_tot
        assert got["n_dup"].tolist() == exp_hits

    def test_sharded_path_matches_single(self, monkeypatch,
                                         hash_shard_counts, docs_ds):
        from hooqu_ray.pipelines import decontam
        from hooqu_ray.pipelines.decontam import dup_ngram_stats

        one = (
            dup_ngram_stats(docs_ds, n=5)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        # ~1184 hot 5-grams at sf0.001 → gate 400 forces 3 shards without
        # paying hundreds of per-shard corpus passes
        monkeypatch.setattr(decontam, "_DRIVER_HOT_GRAMS_MAX", 400)
        hash_shard_counts.clear()
        many = (
            dup_ngram_stats(docs_ds, n=5)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert max(hash_shard_counts) >= 2
        pd.testing.assert_frame_equal(
            one[["doc_id", "n_ngrams", "n_dup", "dup_ngram_frac"]],
            many[["doc_id", "n_ngrams", "n_dup", "dup_ngram_frac"]],
        )

    def test_planted_boilerplate(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import dup_ngram_stats

        boiler = "all rights reserved click here to subscribe now"
        df = pd.DataFrame(
            {
                "doc_id": [1, 2, 3],
                "text": [f"alpha beta {boiler}", f"gamma delta {boiler}", "x y z w v u"],
            }
        )
        got = (
            dup_ngram_stats(rd.from_pandas(df).repartition(3), n=5)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        exp_tot, exp_hits = TestDupNgrams._py_oracle(self, df["text"].tolist())
        assert got["n_dup"].tolist() == exp_hits
        assert got["n_dup"][2] == 0  # the unique doc has no corpus-dup grams


class TestSplitAssign:
    def test_matches_md5_oracle(self, docs_ds, docs_pdf):
        from hooqu_ray.pipelines.relational import split_assign

        got = (
            split_assign(docs_ds, "doc_id")
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )

        def expected(key):
            b = int(hashlib.md5(str(key).encode()).hexdigest()[:8], 16) % 100
            return "train" if b < 80 else ("val" if b < 90 else "test")

        exp = [expected(k) for k in sorted(docs_pdf["doc_id"])]
        assert got["split"].tolist() == exp
        # all three splits non-empty at 500 docs and deterministic
        assert set(got["split"]) == {"train", "val", "test"}

    def test_weights_validation(self, docs_ds):
        from hooqu_ray.pipelines.relational import split_assign

        with pytest.raises(ValueError):
            split_assign(docs_ds, "doc_id", splits=(("a", 80), ("b", 30)))


class TestSplitTokenBudget:
    def test_matches_pandas_oracle(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.textstats import split_token_budget

        pdf = pd.read_parquet(
            f"{SF_DIR}/documents.parquet", columns=["doc_id", "source", "text"]
        )
        got = (
            split_token_budget(rd.from_pandas(pdf).repartition(4))
            .to_pandas()
            .sort_values(["split", "source"], ignore_index=True)
        )

        def split_of(key):
            b = int(hashlib.md5(str(key).encode()).hexdigest()[:8], 16) % 100
            return "train" if b < 80 else ("val" if b < 90 else "test")

        pdf = pdf.assign(
            split=pdf["doc_id"].map(split_of),
            n_tok=pdf["text"].fillna("").map(lambda t: len(t.split())),
        )
        exp = (
            pdf.groupby(["split", "source"])
            .agg(n_docs=("doc_id", "size"), total_tokens=("n_tok", "sum"))
            .reset_index()
            .sort_values(["split", "source"], ignore_index=True)
        )
        pd.testing.assert_frame_equal(
            got.astype({"n_docs": "int64", "total_tokens": "int64"}), exp
        )
        # totals conserve: every doc and token lands in exactly one cell
        assert got["n_docs"].sum() == len(pdf)
        assert got["total_tokens"].sum() == pdf["n_tok"].sum()


class TestQualityBySource:
    def test_matches_pandas_oracle(self, ray_session):
        import ray.data as rd
        import re
        from hooqu_ray.pipelines.textstats import quality_by_source
        from hooqu_ray.stages.heuristics import SYMBOL_PATTERN, STOPWORD_PATTERN

        pdf = pd.read_parquet(
            f"{SF_DIR}/documents.parquet", columns=["source", "text"]
        )
        got = (
            quality_by_source(rd.from_pandas(pdf).repartition(4))
            .to_pandas()
            .sort_values("source", ignore_index=True)
        )
        sym_re, stop_re = re.compile(SYMBOL_PATTERN), re.compile(STOPWORD_PATTERN)
        rows = []
        for src, grp in pdf.groupby("source"):
            texts = grp["text"].fillna("")
            n_chars = texts.str.len()
            n_tok = texts.map(lambda t: len(t.split()))
            sym_r = [
                len(sym_re.findall(t)) / max(c, 1) if c > 0 else 0.0
                for t, c in zip(texts, n_chars)
            ]
            stop_r = [
                len(stop_re.findall(t.lower())) / max(k, 1) if k > 0 else 0.0
                for t, k in zip(texts, n_tok)
            ]
            rows.append(
                (src, len(grp), n_chars.mean(), n_tok.mean(),
                 np.mean(sym_r), np.mean(stop_r))
            )
        exp = pd.DataFrame(
            rows,
            columns=["source", "n_docs", "avg_chars", "avg_tokens",
                     "avg_symbol_ratio", "avg_stopword_ratio"],
        ).sort_values("source", ignore_index=True)
        assert got["source"].tolist() == exp["source"].tolist()
        assert got["n_docs"].tolist() == exp["n_docs"].tolist()
        for c in ("avg_chars", "avg_tokens", "avg_symbol_ratio", "avg_stopword_ratio"):
            np.testing.assert_allclose(got[c], exp[c], rtol=1e-9)


class TestSplitTokenBudgetNullSource:
    def test_null_source_is_its_own_budget_row(self, ray_session):
        """Code-review regression: the tree-fold migration silently dropped
        null-source rows although the SQL oracle's GROUP BY keeps the NULL
        group — a null source must be ITS OWN (split, NULL) budget row."""
        import ray.data as rd
        from hooqu_ray.pipelines.textstats import split_token_budget

        pdf = pd.DataFrame({
            "doc_id": [f"d{i}" for i in range(40)],
            "source": [None if i % 4 == 0 else f"s{i % 3}"
                       for i in range(40)],
            "text": [f"tok{i} alpha beta" for i in range(40)],
        })
        got = split_token_budget(
            rd.from_pandas(pdf).repartition(3)).to_pandas()
        null_rows = got[got["source"].isna()]
        assert int(null_rows["n_docs"].sum()) == 10  # every 4th doc
        assert int(null_rows["total_tokens"].sum()) == 30  # 3 tokens each
        # non-null groups intact too
        assert int(got["n_docs"].sum()) == 40


class TestScrubDupNgrams:
    """scrub_dup_ngrams: inline corpus-duplicated-span removal."""

    @staticmethod
    def _py_scrub(pdf, n=5, min_count=2):
        """Naive single-process model of the documented semantics."""
        from collections import Counter

        counts = Counter()
        for t in pdf.text:
            counts.update(_py_ngrams(t, n))
        hot = {g for g, c in counts.items() if c >= min_count}
        texts, removed = [], []
        for t in pdf.text:
            if t is None:
                texts.append(None)
                removed.append(0)
                continue
            toks = t.split()
            cov = [False] * len(toks)
            for i in range(len(toks) - n + 1):
                if " ".join(toks[i:i + n]) in hot:
                    for d in range(n):
                        cov[i + d] = True
            nr = sum(cov)
            texts.append(" ".join(tk for tk, c in zip(toks, cov) if not c)
                         if nr else t)
            removed.append(nr)
        return pd.DataFrame({"doc_id": pdf.doc_id, "text": texts,
                             "n_removed": removed})

    def test_matches_python_oracle_on_corpus(self, docs_ds, docs_pdf):
        from hooqu_ray.pipelines.decontam import scrub_dup_ngrams

        got = (scrub_dup_ngrams(docs_ds, n=5).to_pandas()
               .sort_values("doc_id", ignore_index=True))
        exp = (self._py_scrub(docs_pdf, n=5)
               .sort_values("doc_id", ignore_index=True))
        pd.testing.assert_frame_equal(got, exp, check_like=True)

    def test_edges_and_within_doc_duplicates(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import scrub_dup_ngrams

        span = "a b c d e"
        pdf = pd.DataFrame({
            "doc_id": np.arange(5, dtype=np.int64),
            "text": [
                f"{span} tail words here",   # cross-doc dup
                f"lead {span} more",         # cross-doc dup
                f"{span} mid {span}",        # within-doc dup counts too
                "completely   unique\ttokens stay  byte-faithful",
                None,
            ],
        })
        t = pa.Table.from_pandas(pdf, preserve_index=False)
        got = (scrub_dup_ngrams(
                   rd.from_arrow([t.slice(0, 2), t.slice(2)]), n=5)
               .to_pandas().sort_values("doc_id", ignore_index=True))
        exp = self._py_scrub(pdf, n=5)
        pd.testing.assert_frame_equal(got, exp, check_like=True)
        # untouched doc keeps its exact original whitespace
        assert got.loc[3, "text"] == pdf.loc[3, "text"]
        assert got.loc[3, "n_removed"] == 0
        # overlapping spans in doc 2: "a b c d e mid a b c d e" also
        # contains grams straddling 'mid' only if duplicated — union holds
        assert got.loc[2, "n_removed"] >= 10

    def test_fully_covered_doc_becomes_empty(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import scrub_dup_ngrams

        pdf = pd.DataFrame({"doc_id": [0, 1],
                            "text": ["x y z w v", "x y z w v"]})
        got = (scrub_dup_ngrams(rd.from_pandas(pdf), n=5).to_pandas()
               .sort_values("doc_id", ignore_index=True))
        assert (got.text == "").all()
        assert (got.n_removed == 5).all()

    def test_validation(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import scrub_dup_ngrams

        ds = rd.from_pandas(pd.DataFrame({"doc_id": [0], "text": ["a"]}))
        with pytest.raises(ValueError, match="min_count"):
            scrub_dup_ngrams(ds, min_count=1)
        with pytest.raises(ValueError, match="n must"):
            scrub_dup_ngrams(ds, n=0)

    def test_multi_shard_hot_set_matches_single(self, monkeypatch,
                                                hash_shard_counts, docs_ds,
                                                docs_pdf):
        """Force the hash-range-sharded hot-set path (tiny driver gate):
        the cross-shard membership OR-union in _SpanScrubber must scrub
        exactly what the single-shard run scrubs."""
        from hooqu_ray.pipelines import decontam
        from hooqu_ray.pipelines.decontam import scrub_dup_ngrams

        single = (scrub_dup_ngrams(docs_ds, n=5).to_pandas()
                  .sort_values("doc_id", ignore_index=True))
        monkeypatch.setattr(decontam, "_DRIVER_HOT_GRAMS_MAX", 40)
        hash_shard_counts.clear()
        sharded = (scrub_dup_ngrams(docs_ds, n=5)
                   .to_pandas().sort_values("doc_id", ignore_index=True))
        assert max(hash_shard_counts) >= 2
        pd.testing.assert_frame_equal(sharded, single, check_like=True)
        assert (single.n_removed > 0).any()  # the corpus has real dups


class TestCrossSourceOverlap:
    def test_matches_duckdb_string_grams(self, ray_session):
        import duckdb
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import cross_source_overlap

        rng = np.random.RandomState(2)
        vocab = ["w%d" % i for i in range(30)]
        # zz-source sorts AFTER the others: catches code-vs-string order
        srcs = ["zz", "aa", "mm"]
        rows = []
        shared = " ".join(rng.choice(vocab, 12))  # a run shared by all
        for d in range(90):
            s = srcs[d % 3]
            txt = " ".join(rng.choice(vocab, rng.randint(4, 40)))
            if d % 5 == 0:
                txt = txt + " " + shared
            rows.append((d, s, txt))
        df = pd.DataFrame(rows, columns=["doc_id", "source", "text"])
        df.loc[7, "text"] = None    # null text contributes nothing
        df.loc[11, "source"] = None  # null source drops
        got = cross_source_overlap(
            rd.from_pandas(df).repartition(7), n=3
        ).to_pandas().sort_values(["source_a", "source_b"],
                                  ignore_index=True)
        exp = duckdb.sql("""
            WITH toks AS (SELECT source, list_filter(
              regexp_split_to_array(COALESCE(text, ''), '\\s+'),
              t -> t <> '') AS w FROM df WHERE source IS NOT NULL),
            ng AS (SELECT source, UNNEST([array_to_string(w[i:i+2], ' ')
              FOR i IN generate_series(1, len(w) - 2)]) AS g FROM toks),
            d AS (SELECT DISTINCT source, g FROM ng)
            SELECT a.source AS source_a, b.source AS source_b,
              CAST(count(*) AS BIGINT) AS n_shared
            FROM d a JOIN d b ON a.g = b.g AND a.source < b.source
            GROUP BY 1, 2 ORDER BY 1, 2""").df()
        pd.testing.assert_frame_equal(got, exp)

    def test_disjoint_and_empty(self, ray_session):
        import pandas as pd
        import pyarrow as pa
        import pytest
        import ray.data as rd
        from hooqu_ray.pipelines.decontam import cross_source_overlap

        df = pd.DataFrame({"doc_id": [0, 1],
                           "source": ["a", "b"],
                           "text": ["p q r s t", "v w x y z"]})
        out = cross_source_overlap(rd.from_pandas(df), n=5)
        assert out.count() == 0  # nothing shared
        assert out.schema().names == ["source_a", "source_b", "n_shared"]
        with pytest.raises(ValueError):
            cross_source_overlap(rd.from_pandas(df), n=0)
