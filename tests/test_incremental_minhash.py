"""Incremental near-dup probe tests: persisted MinHash index + new-shard
probe (the continuous-crawl ingestion gate)."""

import shutil

import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_pdf():
    return pd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def index_path(ray_session, docs_pdf, tmp_path_factory):
    import ray.data as rd
    from hooqu_ray.pipelines.dedup import minhash_index_write

    path = str(tmp_path_factory.mktemp("mh_index"))
    shutil.rmtree(path, ignore_errors=True)
    old = docs_pdf[docs_pdf.doc_id % 7 != 0]
    minhash_index_write(rd.from_pandas(old).repartition(4), path)
    return path


class TestMinhashProbe:
    def test_layout_written(self, index_path):
        import pyarrow.parquet as pq
        import glob, os

        sig_files = glob.glob(f"{index_path}/signatures/*.parquet")
        band_files = glob.glob(f"{index_path}/bands/*.parquet")
        assert sig_files and band_files
        s = pq.read_schema(sig_files[0])
        assert set(s.names) == {"doc_id", "signature"}
        b = pq.read_schema(band_files[0])
        assert set(b.names) == {"band", "band_key", "doc_id"}

    def test_planted_near_dups_found(self, ray_session, docs_pdf, index_path):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import minhash_probe_index

        old = docs_pdf[docs_pdf.doc_id % 7 != 0]
        planted = old.head(20).copy()
        planted["doc_id"] += 2_000_000
        planted["text"] = planted["text"].str.replace("data", "datum")
        pairs = minhash_probe_index(
            rd.from_pandas(planted), index_path, threshold=0.3
        ).to_pandas()
        pairs = pairs[pairs["new_id"].notna()]
        found = set(pairs["new_id"].astype(int) - 2_000_000) & set(
            old.head(20)["doc_id"]
        )
        assert len(found) == 20  # every perturbed copy matches its original
        # estimates are high for one-word perturbations
        own = pairs[pairs["old_id"] == pairs["new_id"] - 2_000_000]
        assert (own["est_jaccard"] > 0.5).all()

    def test_fresh_docs_no_pairs(self, ray_session, index_path):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import minhash_probe_index

        fresh = pd.DataFrame(
            {
                "doc_id": [9_000_001, 9_000_002],
                "text": [
                    "zxq wvu tsr qpo nml kji hgf edc",
                    "completely novel vocabulary nowhere else present",
                ],
            }
        )
        pairs = minhash_probe_index(
            rd.from_pandas(fresh), index_path, threshold=0.3
        ).to_pandas()
        # Ray 2.49 drops the schema of an all-empty dataset — emptiness is
        # the assertion (flag rows would surface as real rows)
        if len(pairs):
            pairs = pairs[pairs["new_id"].notna()]
        assert len(pairs) == 0

    def test_sharded_matches_unsharded(self, ray_session, monkeypatch,
                                       hash_shard_counts, docs_pdf,
                                       index_path):
        import ray.data as rd
        from hooqu_ray.pipelines import dedup
        from hooqu_ray.pipelines.dedup import minhash_probe_index

        planted = docs_pdf[docs_pdf.doc_id % 7 != 0].head(20).copy()
        planted["doc_id"] += 2_000_000
        planted["text"] = planted["text"].str.replace("data", "datum")
        new_ds = rd.from_pandas(planted)
        one = minhash_probe_index(new_ds, index_path, threshold=0.3).to_pandas()
        assert hash_shard_counts == [1]
        monkeypatch.setattr(dedup, "PROBE_NEW_ROWS_PER_SHARD", 100)
        many = minhash_probe_index(new_ds, index_path,
                                   threshold=0.3).to_pandas()
        assert hash_shard_counts[-1] >= 2
        cols = ["new_id", "old_id", "est_jaccard"]
        a = one[one["new_id"].notna()].sort_values(cols[:2], ignore_index=True)[cols]
        b = many[many["new_id"].notna()].sort_values(cols[:2], ignore_index=True)[cols]
        pd.testing.assert_frame_equal(a, b)
