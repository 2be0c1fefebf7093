"""Dedup / similarity / textstats operator tests with pandas-level oracles."""

import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def docs_pdf():
    return pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])


class TestExactDedup:
    def test_unique_texts_all_kept(self, docs_ds, docs_pdf):
        from hooqu_ray.pipelines.dedup import exact_dedup

        kept = exact_dedup(docs_ds).to_pandas()
        expected = docs_pdf.groupby("text")["doc_id"].min()
        assert sorted(kept["doc_id"]) == sorted(expected)

    def test_planted_duplicates_removed(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import exact_dedup

        df = pd.DataFrame(
            {"doc_id": [5, 1, 2, 3, 4], "text": ["a b c", "a b c", "x y", "x y", "z"]}
        )
        kept = exact_dedup(rd.from_pandas(df).repartition(3)).to_pandas()
        assert sorted(kept["doc_id"]) == [1, 2, 4]


class TestMinHash:
    def test_near_duplicates_found(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import minhash_lsh_pairs, ngram_jaccard

        base = ("the quick brown fox jumps over the lazy dog and runs far away "
                "into the deep green forest looking for food and water")
        near = base.replace("green", "dark")  # one word differs
        far = "completely different text about databases and query planning engines"
        df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [base, near, far]})
        pairs = minhash_lsh_pairs(rd.from_pandas(df), threshold=0.3).to_pandas()
        assert (1, 2) in set(zip(pairs.id_a, pairs.id_b))
        assert (1, 3) not in set(zip(pairs.id_a, pairs.id_b))
        # signature estimate should track exact jaccard
        est = pairs.set_index(["id_a", "id_b"]).loc[(1, 2), "est_jaccard"]
        exact = ngram_jaccard(base, near)
        assert abs(est - exact) < 0.25

    def test_signature_determinism(self):
        from hooqu_ray.pipelines.dedup import MinHasher

        a = MinHasher().signature("some text about things and stuff")
        b = MinHasher().signature("some text about things and stuff")
        assert (a == b).all()


class TestSimHash:
    def test_similar_texts_close_hamming(self):
        from hooqu_ray.pipelines.dedup import SimHasher

        sh = SimHasher()
        base = "the quick brown fox jumps over the lazy dog near the river bank today"
        near = base.replace("today", "tonight")
        far = "entirely unrelated words concerning galaxies and spectral telescopes"
        d_near = bin(sh.simhash(base) ^ sh.simhash(near)).count("1")
        d_far = bin(sh.simhash(base) ^ sh.simhash(far)).count("1")
        assert d_near < d_far
        assert d_near <= 16


class TestKnn:
    @pytest.fixture(scope="class")
    def emb(self, ray_session):
        import ray.data as rd

        ds = rd.read_parquet(f"{SF_DIR}/embeddings.parquet")
        pdf = pd.read_parquet(f"{SF_DIR}/embeddings.parquet")
        return ds, pdf

    def test_brute_force_matches_numpy(self, emb):
        from hooqu_ray.pipelines.similarity import knn_brute_force

        ds, pdf = emb
        mat = np.stack(pdf["embedding"].to_numpy()).astype(np.float64)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        q = mat[:2]
        res = knn_brute_force(ds.repartition(4), q, k=5, query_ids=[0, 1])
        res_df = res.to_pandas()
        for qi in (0, 1):
            sims = q[qi] @ mat.T
            sims[qi] = -np.inf  # self excluded
            expected = set(np.argsort(-sims)[:5])
            got = set(res_df[res_df.query_idx == qi]["vec_id"])
            assert got == expected

    def test_ivf_recall(self, emb):
        from hooqu_ray.pipelines.similarity import knn_brute_force, knn_ivf

        ds, pdf = emb
        mat = np.stack(pdf["embedding"].to_numpy()).astype(np.float64)
        q = mat[:3]
        exact = knn_brute_force(ds, q, k=10).to_pandas()
        approx = knn_ivf(ds, q, k=10, n_centroids=8, nprobe=4).to_pandas()
        recalls = []
        for qi in range(3):
            e = set(exact[exact.query_idx == qi]["vec_id"])
            a = set(approx[approx.query_idx == qi]["vec_id"])
            recalls.append(len(e & a) / len(e))
        assert np.mean(recalls) >= 0.5  # nprobe=4 of 8 centroids

    def test_ivf_index_read_is_pruned(self, emb, tmp_path):
        """VERDICT r2 item 7: the partitioned index must exist on disk with
        one hive dir per populated centroid, and a probe must touch ONLY the
        nprobe cells — not filter-scan the whole corpus."""
        import os

        from hooqu_ray.pipelines.similarity import build_ivf_index

        ds, pdf = emb
        idx_dir = str(tmp_path / "ivf")
        index = build_ivf_index(ds, n_centroids=8, index_dir=idx_dir)
        parts = sorted(d for d in os.listdir(idx_dir) if d.startswith("centroid="))
        assert 2 <= len(parts) <= 8
        # every vector landed in exactly one partition
        import pyarrow.dataset as pads

        total = sum(
            pads.dataset(os.path.join(idx_dir, d), format="parquet").count_rows()
            for d in parts
        )
        assert total == len(pdf)
        mat = np.stack(pdf["embedding"].to_numpy()).astype(np.float64)
        q = mat[:2]
        touched = index.probe_paths(q, nprobe=2)
        assert 1 <= len(touched) <= 4 < len(parts) + 1
        assert all(os.path.dirname(p) == idx_dir for p in touched)
        res = index.search(q, k=5, nprobe=2, query_ids=[0, 1]).to_pandas()
        assert len(res) == 10 and (res.groupby("query_idx").size() == 5).all()
        # refuse to merge into a stale index dir
        with pytest.raises(ValueError, match="not empty"):
            build_ivf_index(ds, n_centroids=8, index_dir=idx_dir)


class TestTextStats:
    def test_token_count_matches_split(self, docs_ds, docs_pdf):
        from hooqu_ray.pipelines.textstats import token_count_stage

        res = (
            docs_ds.map_batches(token_count_stage, batch_format="pyarrow")
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        expected = res["text"].str.split().str.len()
        assert (res["n_tokens"].values == expected.values).all()

    def test_bpe_token_count_matches_python_regex(self, docs_ds):
        import regex
        from hooqu_ray.pipelines.textstats import BPE_TOKEN_PATTERN, token_count_stage

        res = (
            docs_ds.map_batches(token_count_stage, batch_format="pyarrow")
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        pat = regex.compile(BPE_TOKEN_PATTERN)
        exp = res["text"].map(lambda t: len(pat.findall(t or "")))
        assert (res["n_bpe_tokens"].values == exp.values).all()

    def test_bpe_token_count_punctuation_heavy(self):
        import pyarrow as pa
        from hooqu_ray.pipelines.textstats import token_count_stage

        t = pa.table(
            {"doc_id": [1, 2], "text": ["it's a test, isn't it?", None]}
        )
        out = token_count_stage(t).to_pandas()
        # "it|'s| a| test|,| isn|'t| it|?" = 9 pre-tokens vs 5 words
        assert out["n_bpe_tokens"].tolist() == [9, 0]
        assert out["n_tokens"].tolist() == [5, 0]

    def test_fingerprint_md5(self):
        import hashlib

        from hooqu_ray.pipelines.textstats import fingerprint_stage
        import pyarrow as pa

        t = pa.table({"doc_id": [1], "text": ["hello world"]})
        out = fingerprint_stage(t)
        assert out.column("md5")[0].as_py() == hashlib.md5(b"hello world").hexdigest()


class TestEmbeddingDedup:
    def test_finds_planted_near_dup(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import embedding_cosine_pairs

        rng = np.random.default_rng(3)
        base = rng.standard_normal(64)
        near = base + rng.standard_normal(64) * 0.01
        far = rng.standard_normal(64)
        df = pd.DataFrame(
            {"vec_id": [1, 2, 3], "embedding": [base.astype(np.float32),
                                                near.astype(np.float32),
                                                far.astype(np.float32)]}
        )
        pairs = embedding_cosine_pairs(rd.from_pandas(df), threshold=0.95).to_pandas()
        assert (1, 2) in set(zip(pairs.id_a, pairs.id_b))


class TestVerifyPairs:
    def test_exact_jaccard_verification(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import minhash_lsh_pairs, verify_pairs, ngram_jaccard

        base = ("the quick brown fox jumps over the lazy dog and runs far away "
                "into the deep green forest looking for food and water")
        near = base.replace("green", "dark")
        far = "completely different text about databases and query planning engines"
        df = __import__("pandas").DataFrame({"doc_id": [1, 2, 3], "text": [base, near, far]})
        ds = rd.from_pandas(df)
        candidates = minhash_lsh_pairs(ds, threshold=0.3)
        verified = verify_pairs(ds, candidates).to_pandas()
        row = verified[(verified.id_a == 1) & (verified.id_b == 2)]
        assert len(row) == 1
        assert abs(row.jaccard.iloc[0] - ngram_jaccard(base, near)) < 1e-12
        # threshold filter removes weak pairs
        strict = verify_pairs(ds, candidates, threshold=0.99).to_pandas()
        assert len(strict) == 0


class TestSimhashNearPairs:
    def test_finds_small_hamming_pairs(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import simhash_near_pairs

        base = ("the quick brown fox jumps over the lazy dog near the river "
                "bank today while the sun shines on the calm green water")
        near = base.replace("today", "tonight")
        far = "entirely unrelated words concerning galaxies and spectral telescopes"
        df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [base, near, far]})
        pairs = simhash_near_pairs(rd.from_pandas(df), max_hamming=8).to_pandas()
        got = set(zip(pairs.id_a, pairs.id_b))
        assert (1, 2) in got
        assert (1, 3) not in got and (2, 3) not in got


class TestVerifyPairsDistributed:
    def test_multiblock_pairs_no_driver_texts(self, ray_session):
        """VERDICT r1 item 4: verify_pairs must stay correct when the pair
        set spans multiple blocks (the round-1 version collected all pairs
        and texts to the driver)."""
        import pandas as pd
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import ngram_jaccard, verify_pairs

        words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
                 "lambda mu nu xi omicron pi rho sigma tau upsilon").split()
        docs, pairs = [], []
        for i in range(20):
            base = " ".join(words[j % len(words)] for j in range(i, i + 12))
            near = base.replace(words[i % len(words)], "changed", 1)
            docs.append({"doc_id": 2 * i, "text": base})
            docs.append({"doc_id": 2 * i + 1, "text": near})
            pairs.append({"id_a": 2 * i, "id_b": 2 * i + 1})
        # a pair with an id absent from the corpus must not verify
        pairs.append({"id_a": 0, "id_b": 9999})
        corpus = rd.from_pandas(pd.DataFrame(docs)).repartition(4)
        pair_ds = rd.from_pandas(pd.DataFrame(pairs)).repartition(5)
        out = verify_pairs(corpus, pair_ds).to_pandas()
        assert len(out) == 20  # the stale pair is dropped
        got = {(int(r.id_a), int(r.id_b)): r.jaccard for r in out.itertuples()}
        for i in range(20):
            expect = ngram_jaccard(docs[2 * i]["text"], docs[2 * i + 1]["text"])
            assert abs(got[(2 * i, 2 * i + 1)] - expect) < 1e-12
        strict = verify_pairs(corpus, pair_ds, threshold=0.999).to_pandas()
        assert len(strict) == 0


class TestEmbeddingDedupSkew:
    def test_hot_bucket_flagged_not_materialized(self, ray_session):
        """VERDICT r1 item 6: one dense LSH bucket must yield a flag row,
        not O(n²) pair work in a single reducer; cold (singleton) vectors
        never reach the per-bucket UDF at all."""
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import embedding_cosine_pairs

        rng = np.random.default_rng(11)
        base = rng.standard_normal(64)
        hot = [base + rng.standard_normal(64) * 1e-3 for _ in range(12)]
        cold = [rng.standard_normal(64) for _ in range(8)]
        df = pd.DataFrame(
            {
                "vec_id": list(range(20)),
                "embedding": [v.astype(np.float32) for v in hot + cold],
            }
        )
        out = embedding_cosine_pairs(
            rd.from_pandas(df), threshold=0.9, max_bucket_rows=5
        ).to_pandas()
        assert "__oversized_bucket" in out.columns
        flags = out[out["__oversized_bucket"].notna()]
        assert len(flags) >= 1
        assert (flags["__bucket_rows"] >= 12).any()
        # no quadratic pair explosion from the hot bucket
        real = out[out["__oversized_bucket"].isna()] if "id_a" in out.columns else out.iloc[0:0]
        assert len(real) < 66  # 12-choose-2 pairs would be 66

    def test_uncapped_still_finds_pairs(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import embedding_cosine_pairs

        rng = np.random.default_rng(11)
        base = rng.standard_normal(64)
        hot = [base + rng.standard_normal(64) * 1e-3 for _ in range(6)]
        df = pd.DataFrame(
            {
                "vec_id": list(range(6)),
                "embedding": [v.astype(np.float32) for v in hot],
            }
        )
        out = embedding_cosine_pairs(rd.from_pandas(df), threshold=0.95).to_pandas()
        assert len(out) == 15  # all 6-choose-2 near-dup pairs


class TestVerifyPairsEdgeCases:
    def test_null_text_pair_matches_sql_coalesce(self, ray_session):
        """Code-review r2: two PRESENT docs with null text must verify like
        the SQL oracle's COALESCE(text,'') — jaccard 1.0 — not crash."""
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import verify_pairs

        corpus = pd.DataFrame(
            {"doc_id": [1, 2, 3], "text": [None, None, "real text here today"]}
        )
        pairs = pd.DataFrame({"id_a": [1], "id_b": [2]})
        out = verify_pairs(rd.from_pandas(corpus), rd.from_pandas(pairs)).to_pandas()
        assert len(out) == 1
        assert out.jaccard.iloc[0] == 1.0

    def test_duplicate_candidate_pairs_verified_once(self, ray_session):
        """Code-review r2: a pair present twice in the candidate set (e.g. a
        union of two LSH seeds) must be verified, once — not silently
        dropped."""
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import ngram_jaccard, verify_pairs

        a = "the quick brown fox jumps over the lazy dog near the river"
        b = a.replace("river", "creek")
        corpus = pd.DataFrame({"doc_id": [1, 2], "text": [a, b]})
        pairs = pd.DataFrame({"id_a": [1, 1], "id_b": [2, 2]})
        out = verify_pairs(rd.from_pandas(corpus), rd.from_pandas(pairs)).to_pandas()
        assert len(out) == 1
        assert abs(out.jaccard.iloc[0] - ngram_jaccard(a, b)) < 1e-12


class TestVectorizedKernels:
    def test_rolling_hash_batch_matches_scalar(self):
        import pyarrow as pa
        from hooqu_ray.pipelines.textstats import rolling_hash64, rolling_hash64_batch

        texts = [
            "hello world", "", None, "a", "ünïcödé ßtring — emoji 🦊",
            "x" * 5000, "the quick brown fox", " ", "\n\t", "0" * 63,
        ]
        arr = pa.chunked_array([pa.array(texts[:4], pa.string()),
                                pa.array(texts[4:], pa.string())])
        batch = rolling_hash64_batch(arr)
        for i, t in enumerate(texts):
            assert int(batch[i]) == rolling_hash64(t), (i, t)

    def test_rolling_hash_batch_sliced_array(self):
        import pyarrow as pa
        from hooqu_ray.pipelines.textstats import rolling_hash64, rolling_hash64_batch

        arr = pa.array(["pad", "alpha", "beta gamma", "pad2"]).slice(1, 2)
        batch = rolling_hash64_batch(arr)
        assert int(batch[0]) == rolling_hash64("alpha")
        assert int(batch[1]) == rolling_hash64("beta gamma")

    def test_simhash_batch_matches_scalar(self):
        import pyarrow as pa
        from hooqu_ray.pipelines.dedup import SimHasher

        sh = SimHasher()
        texts = ["one two three", "", None, "single", "many words in this one here",
                 "  spaced   out  "]
        batch = sh.simhashes(pa.array(texts, pa.string()))
        for i, t in enumerate(texts):
            assert int(batch[i]) == sh.simhash(t), (i, t)


class TestLshBucketCaps:
    def test_minhash_oversized_bucket_flagged(self, ray_session):
        """Code-review r2b: a degenerate bucket (identical texts) larger than
        the cap must yield a flag row, not O(n²) pairs."""
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import minhash_lsh_pairs

        same = "exactly the same words in every single document here"
        df = pd.DataFrame({"doc_id": range(12), "text": [same] * 12})
        out = minhash_lsh_pairs(
            rd.from_pandas(df), threshold=0.5, max_bucket_rows=5
        ).to_pandas()
        flags = out[out["__oversized_bucket"].notna()]
        assert len(flags) >= 1 and (flags["__bucket_rows"] >= 12).any()
        assert out["id_a"].notna().sum() == 0  # no pair explosion

    def test_minhash_under_cap_unchanged(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import minhash_lsh_pairs

        same = "exactly the same words in every single document here"
        df = pd.DataFrame({"doc_id": range(6), "text": [same] * 6})
        out = minhash_lsh_pairs(rd.from_pandas(df), threshold=0.5).to_pandas()
        pairs = out[out["id_a"].notna()]
        assert len(pairs) == 15  # all 6-choose-2, each emitted exactly once

    def test_simhash_oversized_bucket_flagged(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import simhash_near_pairs

        same = "identical words compose this entire document body text"
        df = pd.DataFrame({"doc_id": range(10), "text": [same] * 10})
        out = simhash_near_pairs(
            rd.from_pandas(df), max_hamming=3, max_bucket_rows=4
        ).to_pandas()
        flags = out[out["__oversized_bucket"].notna()]
        assert len(flags) >= 1 and (flags["__bucket_rows"] >= 10).any()
        assert out["id_a"].notna().sum() == 0


class TestJoinNullKeys:
    def test_anti_join_drops_null_keys_like_not_in(self, ray_session):
        """Code-review r2b: SQL NOT IN excludes null keys; anti_join must
        agree (and semi_join already does via is_in's null semantics)."""
        import ray.data as rd
        from hooqu_ray.functions.joins import anti_join, semi_join

        import pyarrow as pa

        df = pd.DataFrame({"id": [1, 2, 3, 4], "k": [10.0, 20.0, None, 30.0]})
        keys = pa.array([20.0], pa.float64())
        semi = semi_join(rd.from_pandas(df), keys, "k").to_pandas()
        anti = anti_join(rd.from_pandas(df), keys, "k").to_pandas()
        assert sorted(semi["id"]) == [2]
        assert sorted(anti["id"]) == [1, 4]  # null-key row excluded


def test_isin_mask_inverted_probe_matches_direct(monkeypatch):
    import pyarrow as pa

    from hooqu_ray import util
    from hooqu_ray.util import isin_mask

    rng = np.random.default_rng(2)
    col = pa.array(rng.integers(0, 1000, 5000))
    values = pa.array(np.unique(rng.integers(0, 1000, 700)))
    monkeypatch.setattr(util, "_DIRECT_ISIN_MAX", 1 << 30)
    direct = isin_mask(col, values).to_pylist()
    monkeypatch.setattr(util, "_DIRECT_ISIN_MAX", 1)
    inverted = isin_mask(col, values).to_pylist()
    assert direct == inverted


class TestLineDedup:
    def test_first_occurrence_kept_corpus_wide(self, ray_session):
        import duckdb
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import line_dedup

        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "a unique first line here\nshort\nrepeated boilerplate line text",
                    "repeated boilerplate line text\nanother unique line of text\nshort",
                    None,
                    "short\nrepeated boilerplate line text\na unique first line here",
                ],
            }
        )
        got = (
            line_dedup(rd.from_pandas(df).repartition(3))
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        oracle = duckdb.sql(
            "WITH t AS (SELECT doc_id, string_split(COALESCE(text, chr(1)), chr(10)) AS ls, "
            "text IS NULL AS doc_null FROM df), "
            "l AS (SELECT doc_id, doc_null, UNNEST(ls) AS line, "
            "generate_subscripts(ls, 1) AS line_idx FROM t), "
            "m AS (SELECT doc_id, doc_null, line_idx, line, "
            "CASE WHEN length(line) < 10 THEN TRUE ELSE "
            "row_number() OVER (PARTITION BY line ORDER BY doc_id, line_idx) = 1 END AS keep FROM l) "
            "SELECT doc_id, CASE WHEN bool_or(doc_null) THEN NULL "
            "ELSE COALESCE(string_agg(CASE WHEN keep THEN line END, chr(10) ORDER BY line_idx), '') "
            "END AS text FROM m GROUP BY doc_id ORDER BY doc_id"
        ).df()
        pd.testing.assert_frame_equal(got, oracle)
        # dup line survives only at its first (doc 0) occurrence
        assert "repeated boilerplate" in got.text[0]
        assert "repeated boilerplate" not in got.text[1]
        # short lines always survive
        assert got.text[1].count("short") == 1

    def test_within_document_repeats_removed(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import line_dedup

        df = pd.DataFrame(
            {"doc_id": [5], "text": ["the same long line repeated\nthe same long line repeated"]}
        )
        got = line_dedup(rd.from_pandas(df)).to_pandas()
        # dropped lines leave no empty join slot (string_agg semantics)
        assert got.text[0] == "the same long line repeated"

    def test_custom_delimiter(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import line_dedup

        df = pd.DataFrame({"doc_id": [0, 1], "text": ["alpha beta alpha", "beta gamma"]})
        got = (
            line_dedup(rd.from_pandas(df), min_line_chars=4, delimiter=" ")
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert got.text.tolist() == ["alpha beta", "gamma"]


class TestLineDedupGuards:
    def test_doc_id_overflow_raises(self, ray_session):
        """Code-review r2c: int64 shift wrap on huge doc ids must raise,
        not silently corrupt winner selection."""
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import line_dedup

        df = pd.DataFrame({"doc_id": [1 << 50], "text": ["some line of text here"]})
        with pytest.raises(Exception) as err:
            line_dedup(rd.from_pandas(df)).to_pandas()
        assert "overflow" in str(err.value) or "doc_id" in str(err.value)

    def test_custom_text_col_and_extra_columns_preserved(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import line_dedup

        df = pd.DataFrame(
            {
                "doc_id": [0, 1],
                "content": ["a long repeated line here\nunique one", "a long repeated line here"],
                "lang": ["en", "de"],
            }
        )
        out = (
            line_dedup(rd.from_pandas(df), text_col="content")
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert list(out.columns) == ["doc_id", "content", "lang"]
        assert out.lang.tolist() == ["en", "de"]
        assert out.content.tolist() == ["a long repeated line here\nunique one", ""]


class TestSnapshotDiff:
    def test_statuses_match_full_outer_join(self, ray_session):
        import duckdb
        import ray.data as rd

        from hooqu_ray.pipelines.dedup import snapshot_diff

        rng = np.random.default_rng(29)
        old = pd.DataFrame(
            {"k": np.arange(500, dtype=np.int64),
             "txt": [f"doc {i}" for i in range(500)],
             "v": np.round(rng.normal(0, 1, 500), 3)}
        )
        new = old[old["k"] % 11 != 0].copy()
        new.loc[new["k"] % 5 == 0, "txt"] = "MUTATED"
        extra = pd.DataFrame({"k": [900, 901], "txt": ["x", "y"], "v": [0.0, 1.0]})
        new = pd.concat([new, extra], ignore_index=True)
        got = (
            snapshot_diff(
                rd.from_pandas(old).repartition(4),
                rd.from_pandas(new).repartition(3),
                "k", ["txt", "v"],
            )
            .to_pandas()
            .sort_values("key", ignore_index=True)
        )
        exp = duckdb.sql(
            "WITH j AS (SELECT COALESCE(o.k, n.k) AS key, "
            "CASE WHEN o.k IS NULL THEN 'added' WHEN n.k IS NULL THEN 'removed' "
            "WHEN o.txt IS DISTINCT FROM n.txt OR o.v IS DISTINCT FROM n.v "
            "THEN 'changed' ELSE '' END AS status "
            "FROM old o FULL OUTER JOIN new n ON o.k = n.k) "
            "SELECT key, status FROM j WHERE status != '' ORDER BY key"
        ).df()
        assert got["key"].tolist() == exp["key"].tolist()
        assert got["status"].tolist() == exp["status"].tolist()

    def test_duplicate_keys_raise(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.dedup import snapshot_diff

        dup = pd.DataFrame({"k": [1, 1], "txt": ["a", "b"]})
        ok = pd.DataFrame({"k": [1], "txt": ["a"]})
        with pytest.raises(Exception, match="duplicate keys"):
            snapshot_diff(
                rd.from_pandas(dup), rd.from_pandas(ok), "k", ["txt"]
            ).to_pandas()

    def test_null_to_empty_transition_detected(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.dedup import snapshot_diff

        old = pd.DataFrame({"k": [1, 2, 3], "txt": ["", "x", None]})
        new = pd.DataFrame({"k": [1, 2, 3], "txt": [None, "x", ""]})
        got = (
            snapshot_diff(rd.from_pandas(old), rd.from_pandas(new), "k", ["txt"])
            .to_pandas()
            .sort_values("key", ignore_index=True)
        )
        # ''<->NULL is a change (IS DISTINCT FROM); 'x'=='x' is not
        assert got["key"].tolist() == [1, 3]
        assert set(got["status"]) == {"changed"}


class TestGroupedVectorMean:
    def test_matches_numpy_across_blocks(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.similarity import grouped_vector_mean

        rng = np.random.default_rng(7)
        n, dim = 50, 4
        m = rng.normal(size=(n, dim))
        labels = rng.integers(0, 3, size=n)
        t = pa.table({
            "label": pa.array(labels, pa.int32()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.astype(np.float32).ravel()), dim),
        })
        got = grouped_vector_mean(
            rd.from_arrow(t).repartition(5), "embedding", "label"
        ).to_pandas().sort_values(["label", "pos"], ignore_index=True)
        for lab in range(3):
            want = m[labels == lab].astype(np.float32).astype(np.float64)
            want = want.mean(axis=0).round(6)
            sub = got[got.label == lab]["mean"].to_numpy()
            np.testing.assert_allclose(sub, want, atol=2e-6)

    def test_null_rows_dropped(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.similarity import grouped_vector_mean

        t = pa.table({
            "label": pa.array([1, 1, None, 2], pa.int32()),
            "embedding": pa.array(
                [[1.0, 3.0], [3.0, 5.0], [9.0, 9.0], None],
                pa.list_(pa.float32())),
        })
        got = grouped_vector_mean(
            rd.from_arrow(t), "embedding", "label"
        ).to_pandas().sort_values(["label", "pos"], ignore_index=True)
        assert got["label"].tolist() == [1, 1]   # label 2: null vec dropped
        assert got["mean"].tolist() == [2.0, 4.0]


class TestJsonlRoundtrip:
    def test_lossless(self, ray_session):
        import shutil
        import tempfile

        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.sources.io import read_jsonl, write_jsonl

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ['a "quoted"\nnewline', "ünïcodé ✓", ""], pa.string()),
        })
        d = tempfile.mkdtemp(prefix="hooqu_jsonl_test_")
        try:
            write_jsonl(rd.from_arrow(t), d, min_rows_per_file=2)
            back = read_jsonl(d).to_pandas().sort_values(
                "doc_id", ignore_index=True)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        assert back.equals(t.to_pandas())


class TestCsvRoundtrip:
    def test_lossless_adversarial(self, ray_session):
        """CSV boundary must survive commas, quotes, embedded newlines,
        unicode AND the null-vs-empty-string split (strings_can_be_null +
        quoted_strings_can_be_null=False)."""
        import shutil
        import tempfile

        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.sources.io import read_csv, write_csv

        t = pa.table({
            "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
            "text": pa.array(
                ['a "quoted"\nnewline,with,commas', "ünïcodé ✓", "",
                 None, "plain", "00456", None], pa.string()),
            "score": pa.array([1.5, None, 0.0, 2.0, 3.0, np.nan, 4.0],
                              pa.float64()),
        })
        d = tempfile.mkdtemp(prefix="hooqu_csv_test_")
        try:
            write_csv(rd.from_arrow(t), d, min_rows_per_file=2)
            back = read_csv(d, schema=t.schema).to_pandas().sort_values(
                "doc_id", ignore_index=True)[["doc_id", "text", "score"]]
        finally:
            shutil.rmtree(d, ignore_errors=True)
        # typed read: "00456" keeps its leading zeros AND stays a string;
        # NaN stays NaN (distinct from null); null text stays null
        pd.testing.assert_frame_equal(back, t.to_pandas())
        # single-column null rows render as blank lines — they must NOT
        # be dropped (ignore_empty_lines=False)
        t1 = pa.table({"score": pa.array([np.nan, 1.5, None], pa.float64())})
        d1 = tempfile.mkdtemp(prefix="hooqu_csv_test1_")
        try:
            write_csv(rd.from_arrow(t1), d1, min_rows_per_file=5)
            back1 = read_csv(d1, schema=t1.schema).to_pandas()
        finally:
            shutil.rmtree(d1, ignore_errors=True)
        assert len(back1) == 3
        assert np.isnan(back1.score[0]) and pd.isna(back1.score[2])
        # column pruning happens at the parse, not after
        d2 = tempfile.mkdtemp(prefix="hooqu_csv_test2_")
        try:
            write_csv(rd.from_arrow(t), d2, min_rows_per_file=5)
            slim = read_csv(d2, columns=["doc_id", "score"]).to_pandas()
        finally:
            shutil.rmtree(d2, ignore_errors=True)
        assert sorted(slim.columns) == ["doc_id", "score"]


class TestDupRateBySource:
    def test_cross_block_duplicates_counted(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.dedup import dup_rate_by_source

        # "same" appears twice in DIFFERENT blocks — only the cross-block
        # fold can see the duplication
        t = pa.table({
            "source": pa.array(["a", "a", "a", "b", None], pa.string()),
            "text": pa.array(["same", "other", "same", "x", "dropped"],
                             pa.string()),
        })
        got = dup_rate_by_source(
            rd.from_arrow(t).repartition(5), "text", "source"
        ).to_pandas().sort_values("source", ignore_index=True)
        assert got["source"].tolist() == ["a", "b"]
        assert got["n_docs"].tolist() == [3, 1]
        assert got["n_unique"].tolist() == [2, 1]
        assert got["dup_frac"].round(6).tolist() == [0.333333, 0.0]


class TestEmbeddingPrep:
    def test_l2_normalize_norms_and_zero_vec(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.similarity import l2_normalize

        t = pa.table({
            "vec_id": pa.array([1, 2], pa.int64()),
            "embedding": pa.array([[3.0, 4.0], [0.0, 0.0]],
                                  pa.list_(pa.float32())),
        })
        got = l2_normalize(rd.from_arrow(t)).to_pandas().sort_values(
            "vec_id", ignore_index=True)
        np.testing.assert_allclose(list(got["embedding"][0]), [0.6, 0.8])
        assert list(got["embedding"][1]) == [0.0, 0.0]

    def test_quantize_int8_max_codes_127(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.similarity import quantize_int8

        t = pa.table({
            "vec_id": pa.array([1, 2], pa.int64()),
            "embedding": pa.array([[0.5, -1.0, 0.25], [0.0, 0.0, 0.0]],
                                  pa.list_(pa.float32())),
        })
        got = quantize_int8(rd.from_arrow(t)).to_pandas().sort_values(
            "vec_id", ignore_index=True)
        assert [int(x) for x in got["qvec"][0]] == [63, -127, 31]
        assert got["scale"][0] == 1.0
        assert [int(x) for x in got["qvec"][1]] == [0, 0, 0]
        assert got["scale"][1] == 0.0


class TestDedupLinesWithinDoc:
    def test_keep_first_and_short_lines(self, ray_session):
        import ray.data as rd
        import pandas as pd
        from hooqu_ray.pipelines.dedup import dedup_lines_within_doc

        df = pd.DataFrame({"doc_id": [0, 1, 2], "text": [
            "this line repeats here\nshort\nthis line repeats here\n"
            "another unique line\nshort",
            None,
            "",
        ]})
        out = dedup_lines_within_doc(
            rd.from_pandas(df), min_line_chars=10).to_pandas()
        got = dict(zip(out.doc_id, out.text))
        assert got[0] == ("this line repeats here\nshort\n"
                          "another unique line\nshort")
        assert got[1] is None or got[1] != got[1]  # null passes through
        assert got[2] == ""  # empty doc unchanged

    def test_matches_pandas_oracle_on_documents(self, ray_session):
        import ray.data as rd
        import pandas as pd
        from hooqu_ray.pipelines.dedup import dedup_lines_within_doc

        pdf = pd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet",
            columns=["doc_id", "text"])
        # inject in-doc repeats so the op provably fires
        pdf.loc[pdf.index[:20], "text"] = pdf.text.iloc[:20].map(
            lambda t: "\n".join([str(t).split("\n")[0]] * 3 + [str(t)]))
        got = dedup_lines_within_doc(
            rd.from_pandas(pdf).repartition(4),
            min_line_chars=10).to_pandas().sort_values(
            "doc_id", ignore_index=True)

        def oracle(t):
            if t is None or t != t:
                return t
            seen, out = set(), []
            for line in str(t).split("\n"):
                if len(line) >= 10:
                    if line in seen:
                        continue
                    seen.add(line)
                out.append(line)
            return "\n".join(out)

        exp = pdf.assign(text=pdf.text.map(oracle)).sort_values(
            "doc_id", ignore_index=True)
        pd.testing.assert_frame_equal(got[["doc_id", "text"]],
                                      exp[["doc_id", "text"]])


class TestRegexExtract:
    def test_duckdb_parity_and_validation(self, ray_session):
        import duckdb
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.functions.strings import regex_extract

        t = pa.table({
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "s": pa.array(["order 42 of 77", "no digits here", None, "9"],
                          pa.string()),
        })
        got = (regex_extract(rd.from_arrow(t), "s", r"(?P<num>[0-9]+)")
               .to_pandas().sort_values("id", ignore_index=True))
        con = duckdb.connect()
        con.register("t", t.to_pandas())
        exp = con.execute(
            "SELECT id, regexp_extract(s, '(?P<num>[0-9]+)', 1) AS num "
            "FROM t ORDER BY id").df()
        # DuckDB returns NULL input as null, no-match as ''
        assert got["num"].tolist()[:2] == exp["num"].tolist()[:2] == ["42", ""]
        assert pd.isna(got["num"][2]) and pd.isna(exp["num"][2])
        assert got["num"][3] == "9"
        with pytest.raises(ValueError, match="ONE named group"):
            regex_extract(rd.from_arrow(t), "s", "([0-9]+)")
        with pytest.raises(ValueError, match="RE2-compatible"):
            regex_extract(rd.from_arrow(t), "s", r"(?P<x>a)\1")
        # a valid RE2 pattern with an extra UNNAMED group gets the real
        # diagnosis, not a bogus "not RE2-compatible"
        with pytest.raises(ValueError, match="NAMED groups only"):
            regex_extract(rd.from_arrow(t), "s", r"(?P<w>[a-z]+)([0-9]+)")
        # output-name collision raises instead of duplicating the column
        with pytest.raises(Exception, match="already exists"):
            regex_extract(rd.from_arrow(t), "s",
                          r"(?P<s>[a-z]+)").to_pandas()
