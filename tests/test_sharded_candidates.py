"""Hash-range sharding of candidate/winner sets (VERDICT r2 items 2 & 6):
forcing >= 2 shards must reproduce the unsharded results exactly — a key
lives in exactly one shard and pair ownership is decided locally, so shard
unions equal the global answer."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from hooqu_ray.functions import broadcast
from hooqu_ray.pipelines import dedup

SF_DIR = "/root/testdata/sf0.01"


def _pair_set(df):
    return set(zip(df["id_a"].astype("int64"), df["id_b"].astype("int64")))


@pytest.fixture(scope="module")
def near_dup_corpus():
    """~60 docs with several planted near-duplicate clusters."""
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(200)]
    rows = []
    doc_id = 0
    for c in range(12):
        base = " ".join(rng.choice(words, size=30))
        rows.append((doc_id, base)); doc_id += 1
        toks = base.split()
        toks[5] = "changed"
        rows.append((doc_id, " ".join(toks))); doc_id += 1
    for _ in range(36):
        rows.append((doc_id, " ".join(rng.choice(words, size=25)))); doc_id += 1
    return pd.DataFrame(rows, columns=["doc_id", "text"])


class TestMinhashSharded:
    def test_forced_shards_same_pairs(self, ray_session, monkeypatch,
                                      hash_shard_counts, near_dup_corpus):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import minhash_lsh_pairs

        ds = rd.from_pandas(near_dup_corpus).repartition(4)
        base = minhash_lsh_pairs(ds, threshold=0.3).to_pandas()
        base = base[base["id_a"].notna()]
        # _DRIVER_BANDS_MAX=0 forces the distributed count path;
        # a tiny shard size forces >= 2 key-range shards
        monkeypatch.setattr(dedup, "_DRIVER_BANDS_MAX", 0)
        monkeypatch.setattr(dedup, "MINHASH_SURVIVOR_ROWS_PER_SHARD", 300)
        sharded = minhash_lsh_pairs(ds, threshold=0.3).to_pandas()
        assert max(hash_shard_counts) >= 2
        sharded = sharded[sharded["id_a"].notna()]
        assert len(base) > 0
        assert _pair_set(base) == _pair_set(sharded)

    def test_sf001_corpus_sharded_matches(self, ray_session, monkeypatch,
                                          hash_shard_counts):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import minhash_lsh_pairs

        ds = rd.read_parquet(
            f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
        )
        base = minhash_lsh_pairs(ds, threshold=0.4).to_pandas()
        base = base[base["id_a"].notna()]
        # 1353 hot band rows at sf0.01 -> 3 key-range shards
        monkeypatch.setattr(dedup, "_DRIVER_BANDS_MAX", 0)
        monkeypatch.setattr(dedup, "MINHASH_SURVIVOR_ROWS_PER_SHARD", 500)
        sharded = minhash_lsh_pairs(ds, threshold=0.4).to_pandas()
        assert max(hash_shard_counts) >= 2
        sharded = sharded[sharded["id_a"].notna()]
        assert _pair_set(base) == _pair_set(sharded)
        assert len(base) > 0  # the sf0.01 corpus has planted near-dups


class TestSimhashSharded:
    def test_forced_shards_same_pairs(self, ray_session, monkeypatch,
                                      hash_shard_counts, near_dup_corpus):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import simhash_near_pairs

        ds = rd.from_pandas(near_dup_corpus).repartition(4)
        base = simhash_near_pairs(ds, max_hamming=8).to_pandas()
        base = base[base["id_a"].notna()]
        monkeypatch.setattr(dedup, "_DRIVER_BANDS_MAX", 0)
        monkeypatch.setattr(dedup, "SIMHASH_SURVIVOR_ROWS_PER_SHARD", 40)
        sharded = simhash_near_pairs(ds, max_hamming=8).to_pandas()
        assert max(hash_shard_counts) >= 2
        sharded = sharded[sharded["id_a"].notna()]
        assert len(base) > 0
        assert _pair_set(base) == _pair_set(sharded)


class TestWinnerBroadcastSharded:
    def test_exact_dedup_forced_shards(self, ray_session, monkeypatch,
                                       hash_shard_counts):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import exact_dedup

        df = pd.DataFrame(
            {
                "doc_id": list(range(12)),
                "text": ["a b", "a b", "c d", "c d", "e f", "e f",
                         "g h", "g h", "i j", "i j", "k l", "m n"],
            }
        )
        ds = rd.from_pandas(df).repartition(3)
        base = sorted(exact_dedup(ds).to_pandas()["doc_id"])
        # 5 duplicate groups with ROWS_PER_SHARD=2 -> 3 winner shards
        monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 2)
        hash_shard_counts.clear()
        sharded = sorted(exact_dedup(ds).to_pandas()["doc_id"])
        assert hash_shard_counts == [3]
        assert base == sharded == [0, 2, 4, 6, 8, 10, 11]

    def test_line_dedup_forced_shards(self, ray_session, monkeypatch,
                                      hash_shard_counts):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import line_dedup

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1, 2],
                "text": [
                    "first unique line\nshared line one\nshared line two",
                    "shared line one\nanother unique line\nshared line three",
                    "shared line two\nshared line three\nlast unique line",
                ],
            }
        )
        ds = rd.from_pandas(docs).repartition(2)
        base = line_dedup(ds).to_pandas().sort_values("doc_id", ignore_index=True)
        monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 1)
        hash_shard_counts.clear()
        sharded = (
            line_dedup(ds)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert max(hash_shard_counts) >= 2
        assert list(base["text"]) == list(sharded["text"])
        # first occurrence kept, later copies dropped
        assert base.loc[2, "text"] == "last unique line"


class TestVerifyPairsSharded:
    def test_forced_shards_same_verified(self, ray_session, monkeypatch,
                                         hash_shard_counts, near_dup_corpus):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import minhash_lsh_pairs, verify_pairs

        ds = rd.from_pandas(near_dup_corpus).repartition(4)
        cands = minhash_lsh_pairs(ds, num_perm=128, bands=64, threshold=0.0)
        base = verify_pairs(ds, cands, threshold=0.5).to_pandas()
        cands2 = minhash_lsh_pairs(ds, num_perm=128, bands=64, threshold=0.0)
        monkeypatch.setattr(dedup, "VERIFY_PAIRS_PER_SHARD", 3)
        hash_shard_counts.clear()
        sharded = verify_pairs(ds, cands2, threshold=0.5).to_pandas()
        assert max(hash_shard_counts) >= 2
        assert len(base) > 0
        assert _pair_set(base) == _pair_set(sharded)
        j_base = base.sort_values(["id_a", "id_b"])["jaccard"].round(9).tolist()
        j_shard = sharded.sort_values(["id_a", "id_b"])["jaccard"].round(9).tolist()
        assert j_base == j_shard

    def test_flag_rows_dropped_with_warning(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import verify_pairs

        docs = pd.DataFrame(
            {"doc_id": [1, 2], "text": ["a b c d e", "a b c d e"]}
        )
        pairs = pa.table(
            {
                "id_a": pa.array([1, None], pa.int64()),
                "id_b": pa.array([2, None], pa.int64()),
                "est_jaccard": pa.array([1.0, None], pa.float64()),
                "__oversized_bucket": pa.array([None, 77], pa.int64()),
                "__bucket_rows": pa.array([None, 99999], pa.int64()),
            }
        )
        with pytest.warns(UserWarning, match="oversized-bucket"):
            out = verify_pairs(
                rd.from_pandas(docs), rd.from_arrow(pairs), threshold=0.5
            ).to_pandas()
        assert _pair_set(out) == {(1, 2)}
        assert out["id_a"].notna().all()


class TestShardCodes:
    def test_partition_complete_and_deterministic(self):
        from hooqu_ray.util import shard_codes

        ints = pa.array(list(range(1000)), pa.int64())
        s1 = shard_codes(ints, 7)
        s2 = shard_codes(ints, 7)
        assert (s1 == s2).all()
        assert s1.min() >= 0 and s1.max() < 7
        # roughly balanced (hash-mixed): no shard holds > 40% of the keys
        counts = np.bincount(s1, minlength=7)
        assert counts.max() < 400
        strs = pa.array([f"key-{i}" for i in range(500)])
        t1 = shard_codes(strs, 5)
        assert (t1 == shard_codes(strs, 5)).all()
        assert t1.min() >= 0 and t1.max() < 5

    def test_nulls_land_in_a_shard(self):
        from hooqu_ray.util import shard_codes

        s = shard_codes(pa.array([None, 1, None], pa.int64()), 4)
        assert s[0] == s[2]


class TestEmbeddingMatrix:
    def test_fixed_size_list_zero_copy(self):
        from hooqu_ray.util import embedding_matrix

        data = np.arange(24, dtype=np.float32).reshape(6, 4)
        col = pa.FixedSizeListArray.from_arrays(pa.array(data.ravel()), 4)
        m = embedding_matrix(col, np.float64)
        np.testing.assert_array_equal(m, data.astype(np.float64))
        # sliced (offset-carrying) array must stay aligned
        m2 = embedding_matrix(col.slice(2, 3), np.float64)
        np.testing.assert_array_equal(m2, data[2:5].astype(np.float64))

    def test_regular_list_and_ragged_fallback(self):
        from hooqu_ray.util import embedding_matrix

        col = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(
            embedding_matrix(col, np.float64), [[1, 2], [3, 4], [5, 6]]
        )
        with pytest.raises(ValueError):
            embedding_matrix(pa.array([[1.0], [2.0, 3.0]]), np.float64)
