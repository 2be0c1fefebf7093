"""Distributed-path tests: the same analyzers over a ray.data.Dataset must
agree with the local backend / pandas oracle, including shuffled
(frequency) and selection (quantile) operators."""

import numpy as np
import pandas as pd
import pytest

import hooqu_ray as hq
from hooqu_ray.checks import Check, CheckLevel, CheckStatus
from hooqu_ray.runner import do_analysis_run
from hooqu_ray.verification import VerificationSuite

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def lineitem_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF_DIR}/lineitem.parquet")


@pytest.fixture(scope="module")
def lineitem_pdf():
    return pd.read_parquet(f"{SF_DIR}/lineitem.parquet")


def test_scan_analyzers_match_pandas(lineitem_ds, lineitem_pdf):
    analyzers = [
        hq.Size(),
        hq.Mean("l_quantity"),
        hq.Minimum("l_extendedprice"),
        hq.Maximum("l_extendedprice"),
        hq.Sum("l_discount"),
        hq.StandardDeviation("l_quantity"),
        hq.Completeness("l_returnflag"),
        hq.Compliance("qty>25", "l_quantity > 25"),
    ]
    ctx = do_analysis_run(lineitem_ds, analyzers)
    pdf = lineitem_pdf
    expected = {
        "Size": float(len(pdf)),
        "Mean": pdf.l_quantity.mean(),
        "Minimum": pdf.l_extendedprice.min(),
        "Maximum": pdf.l_extendedprice.max(),
        "Sum": pdf.l_discount.sum(),
        "StandardDeviation": pdf.l_quantity.std(ddof=0),
        "Completeness": 1.0,
        "Compliance": (pdf.l_quantity > 25).mean(),
    }
    for a in analyzers:
        np.testing.assert_allclose(
            ctx.metric_map[a].value.get(), expected[a.name], rtol=1e-9
        )


def test_where_filter_on_dataset(lineitem_ds, lineitem_pdf):
    a = hq.Mean("l_extendedprice", where="l_quantity > 25")
    ctx = do_analysis_run(lineitem_ds, [a])
    expected = lineitem_pdf.query("l_quantity > 25").l_extendedprice.mean()
    np.testing.assert_allclose(ctx.metric_map[a].value.get(), expected, rtol=1e-9)


def test_quantile_exact_on_dataset(lineitem_ds, lineitem_pdf):
    for q in (0.1, 0.5, 0.9):
        a = hq.Quantile("l_extendedprice", q)
        ctx = do_analysis_run(lineitem_ds, [a])
        expected = lineitem_pdf.l_extendedprice.quantile(q, interpolation="nearest")
        assert ctx.metric_map[a].value.get() == expected


def test_uniqueness_on_dataset(lineitem_ds, lineitem_pdf):
    a = hq.Uniqueness(["l_orderkey"])
    d = hq.Distinctness(["l_returnflag"])
    ctx = do_analysis_run(lineitem_ds, [a, d])
    freq = lineitem_pdf.groupby("l_orderkey").size()
    assert ctx.metric_map[a].value.get() == (freq == 1).sum() / len(lineitem_pdf)
    assert (
        ctx.metric_map[d].value.get()
        == lineitem_pdf.l_returnflag.nunique() / len(lineitem_pdf)
    )


def test_suite_on_dataset(ray_session, lineitem_ds):
    check = (
        Check(CheckLevel.ERROR, "lineitem integrity")
        .is_complete("l_orderkey")
        .is_non_negative("l_quantity")
        .has_size(lambda n: n > 1000)
        .is_contained_in("l_linestatus", ("O", "F"))
    )
    result = VerificationSuite().on_data(lineitem_ds).add_check(check).run()
    assert result.status == CheckStatus.SUCCESS


def test_mutual_information_distributed_matches_local(ray_session):
    """High-cardinality MI: the Ray path folds scalar summaries (joint + two
    marginals) and must match the LocalRunner's in-memory joint-table path.
    Includes null keys (own-group semantics) and a where filter."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    n = 60_000
    x = rng.integers(0, 20_000, n).astype("float64")  # ~20k distinct values
    y = (x // 3 + rng.integers(0, 40, n)).astype("float64")  # correlated, ~7k distinct
    x[::97] = np.nan
    y[::131] = np.nan
    pdf = pd.DataFrame({"x": x, "y": y, "f": rng.integers(0, 2, n)})

    for a in (
        hq.MutualInformation(["x", "y"]),
        hq.MutualInformation(["x", "y"], where="f > 0"),
    ):
        local = do_analysis_run(pdf, [a]).metric_map[a].value.get()
        ds = rd.from_pandas(pdf).repartition(8)
        distributed = do_analysis_run(ds, [a]).metric_map[a].value.get()
        np.testing.assert_allclose(distributed, local, rtol=1e-9)
        assert distributed > 0.5  # sanity: the columns really are dependent


def test_ray_runner_has_no_driver_joint_collect():
    """The ungated O(#groups) driver collect (`joint_frequencies.take_all`)
    is gone from the Ray backend — only the scalar-summary path exists."""
    from hooqu_ray.runner import RayRunner

    assert not hasattr(RayRunner, "joint_frequencies")
    assert hasattr(RayRunner, "mutual_information_stats")


def test_documents_pattern_match(ray_session):
    import ray.data as rd

    ds = rd.read_parquet(f"{SF_DIR}/documents.parquet")
    pdf = pd.read_parquet(f"{SF_DIR}/documents.parquet")
    a = hq.PatternMatch("text", hq.patterns.EMAIL)
    ctx = do_analysis_run(ds, [a])
    expected = pdf.text.str.contains(hq.patterns.EMAIL).sum() / len(pdf)
    np.testing.assert_allclose(ctx.metric_map[a].value.get(), expected, rtol=1e-12)


def test_multinode_shared_scratch_guard(tmp_path):
    """Simulated 2-node cluster (ray.cluster_utils.Cluster in a SUBPROCESS —
    the session fixture owns this process's Ray): filter_and_scrub must
    refuse node-local default scratch on a multi-node cluster and succeed
    end-to-end when given shared scratch."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(f"""
        import os, sys
        os.environ.pop("RAY_ADDRESS", None)
        os.environ.pop("HOOQU_SCRATCH_DIR", None)
        import ray
        from ray.cluster_utils import Cluster
        cluster = Cluster(initialize_head=True,
                          head_node_args={{"num_cpus": 2}})
        cluster.add_node(num_cpus=2)
        ray.init(address=cluster.address,
                 include_dashboard=False, log_to_driver=False)
        assert len([n for n in ray.nodes() if n["Alive"]]) == 2, ray.nodes()
        import ray.data as rd
        from hooqu_ray.pipelines.transcripts import (
            filter_and_scrub, transcripts_from_documents)
        docs = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet",
            columns=["doc_id", "text"])
        tr = transcripts_from_documents(docs)
        try:
            filter_and_scrub(tr)
            print("GUARD-MISSED"); sys.exit(1)
        except ValueError as ex:
            assert "shared storage" in str(ex), ex
        out = filter_and_scrub(tr, scratch_dir={str(tmp_path)!r})
        df = out.to_pandas()
        assert len(df) > 0 and "keep" in df.columns
        assert df.keep.any() and (~df.keep).any()
        ray.shutdown()
        cluster.shutdown()
        print("MULTINODE-OK", len(df))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=420, cwd="/root/repo",
        env={**__import__("os").environ, "PYTHONPATH": "/root/repo"})
    assert "MULTINODE-OK" in proc.stdout, (
        proc.stdout[-2000:], proc.stderr[-2000:])


def test_frequencies_skewed_clustered_input_matches_local(ray_session):
    """Hot-key guard: a clustered input whose HEAD is near-unique but whose
    tail is one mega-key (the case a head-of-dataset cardinality probe
    misclassifies).  The per-block adaptive combiner must (a) stay correct
    and (b) collapse the mega-key to <= 1 shuffle row per block."""
    import pyarrow as pa
    import ray.data as rd

    from hooqu_ray.runner import _ProjectKeys

    unique = pd.DataFrame({"k": [f"u{i}" for i in range(5_000)]})
    hot = pd.DataFrame({"k": ["MEGA"] * 50_000})
    pdf = pd.concat([unique, hot], ignore_index=True)
    for a in (hq.Uniqueness(["k"]), hq.Entropy(["k"]),
              hq.Distinctness(["k"]), hq.UniqueValueRatio(["k"])):
        local = do_analysis_run(pdf, [a]).metric_map[a].value.get()
        ds = rd.from_pandas(pdf).repartition(8)
        dist = do_analysis_run(ds, [a]).metric_map[a].value.get()
        np.testing.assert_allclose(dist, local, rtol=1e-12)
    # block-level guarantee: an all-hot block emits ONE partial row
    hot_block = pa.table({"k": pa.array(["MEGA"] * 10_000)})
    out = _ProjectKeys(["k"])(hot_block)
    assert len(out) == 1 and out.column("__pcount")[0].as_py() == 10_000
    # ...and a near-unique block ships raw rows (no wasted local group_by)
    uniq_block = pa.table({"k": pa.array([f"u{i}" for i in range(10_000)])})
    out2 = _ProjectKeys(["k"])(uniq_block)
    assert len(out2) == 10_000
    assert out2.column("__pcount").to_pylist() == [1] * 10_000


def test_fork_groups_mega_group_combiner(ray_session):
    """Hot-group guard: ONE fork group spanning every conversation across
    many blocks — the per-block fp combiner must produce the same members/
    winner/size as the semantics promise."""
    import pyarrow as pa
    import ray.data as rd

    from hooqu_ray.pipelines import transcripts as tp

    n = 4_000
    conv = np.repeat([f"c{i:05d}" for i in range(n)], 2)
    idx = np.tile([0, 1], n)
    text = np.where(idx == 0, "shared prompt", "shared ack")  # all identical
    t = pa.table({"conv_id": pa.array(conv), "turn_idx": pa.array(idx),
                  "text": pa.array(text.astype(object), pa.string())})
    ds = rd.from_arrow([t.slice(i, 500) for i in range(0, len(t), 500)])
    out = tp.conversation_fork_groups(ds, 2).to_pandas()
    assert len(out) == n  # every conversation is a member
    assert (out.n_convs == n).all()
    assert (out.fork_group == "c00000").all()  # min conv id wins


def test_tree_group_sum_two_node_cluster(tmp_path):
    """Simulated 2-node cluster: the tree fold's repartition rounds move
    whole blocks ACROSS nodes — assert the fold is exact when partial
    blocks live on different nodes (the round-4 primitive's only
    multi-node-critical behavior)."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import os, sys
        os.environ.pop("RAY_ADDRESS", None)
        import ray
        from ray.cluster_utils import Cluster
        cluster = Cluster(initialize_head=True,
                          head_node_args={"num_cpus": 2})
        cluster.add_node(num_cpus=2)
        ray.init(address=cluster.address,
                 include_dashboard=False, log_to_driver=False)
        assert len([n for n in ray.nodes() if n["Alive"]]) == 2, ray.nodes()
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from hooqu_ray.functions.shuffle import tree_group_sum
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"k": rng.integers(0, 500, 100_000),
                           "v": rng.integers(0, 100, 100_000)})
        ds = rd.from_pandas(df).repartition(16).materialize()
        out = tree_group_sum(ds, ["k"], ["v"]).to_pandas()
        exp = df.groupby("k", as_index=False).v.sum()
        got = out.sort_values("k", ignore_index=True)
        pd.testing.assert_frame_equal(got, exp, check_like=True)
        ray.shutdown()
        cluster.shutdown()
        print("TREE-MULTINODE-OK", len(got))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=600, cwd="/root/repo",
        env={**__import__("os").environ, "PYTHONPATH": "/root/repo"},
    )
    assert "TREE-MULTINODE-OK" in proc.stdout, (
        proc.stdout[-2000:], proc.stderr[-2000:])


def test_uniqueness_bucketed_exchange_two_node_cluster(tmp_path):
    """Simulated 2-node cluster: the corpus-cardinality BUCKETED hash
    exchange (round-5 `shuffle.bucketed_group_fold`, the uniqueness /
    grouped-count-distinct path) must fold keys exactly when a key's rows
    start on DIFFERENT nodes — same-key co-location relies on the hash
    being cross-worker deterministic, which PYTHONHASHSEED-style
    randomness would break."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import os, sys
        os.environ.pop("RAY_ADDRESS", None)
        import ray
        from ray.cluster_utils import Cluster
        cluster = Cluster(initialize_head=True,
                          head_node_args={"num_cpus": 2})
        cluster.add_node(num_cpus=2)
        ray.init(address=cluster.address,
                 include_dashboard=False, log_to_driver=False)
        assert len([n for n in ray.nodes() if n["Alive"]]) == 2, ray.nodes()
        import numpy as np
        import pandas as pd
        import ray.data as rd
        import hooqu_ray as hq
        from hooqu_ray.functions.shuffle import bucketed_group_fold
        from hooqu_ray.runner import do_analysis_run
        rng = np.random.default_rng(3)
        # near-unique string keys (corpus-cardinality regime) + dup tail
        keys = np.array([f"k{i:06d}" for i in range(40_000)], dtype=object)
        df = pd.DataFrame({
            "k": np.concatenate([keys, keys[:10_000]]),
            "v": rng.integers(0, 100, 50_000),
        })
        ds = rd.from_pandas(df).repartition(16).materialize()
        out = bucketed_group_fold(ds, ["k"], ["v"]).to_pandas()
        exp = df.groupby("k", as_index=False).v.sum()
        pd.testing.assert_frame_equal(
            out.sort_values("k", ignore_index=True), exp, check_like=True)
        # the analyzer path that rides the exchange, vs local pandas
        a = hq.Uniqueness(["k"])
        local = do_analysis_run(df, [a]).metric_map[a].value.get()
        dist = do_analysis_run(ds, [a]).metric_map[a].value.get()
        assert abs(dist - local) < 1e-12, (dist, local)
        ray.shutdown()
        cluster.shutdown()
        print("BUCKETED-MULTINODE-OK", len(out))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=600, cwd="/root/repo",
        env={**__import__("os").environ, "PYTHONPATH": "/root/repo"},
    )
    assert "BUCKETED-MULTINODE-OK" in proc.stdout, (
        proc.stdout[-2000:], proc.stderr[-2000:])


def test_fork_index_probe_two_node_cluster(tmp_path):
    """Simulated 2-node cluster: persisted fork-prefix index written by
    one session, probed in the same multi-node cluster — exercises the
    cross-node legs of the write sink, the sharded broadcast probe and
    the witness stamp (retries must match, fresh tasks must not)."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(f"""
        import os, sys
        os.environ.pop("RAY_ADDRESS", None)
        import ray
        from ray.cluster_utils import Cluster
        cluster = Cluster(initialize_head=True,
                          head_node_args={{"num_cpus": 2}})
        cluster.add_node(num_cpus=2)
        ray.init(address=cluster.address,
                 include_dashboard=False, log_to_driver=False)
        assert len([n for n in ray.nodes() if n["Alive"]]) == 2, ray.nodes()
        import pyarrow as pa
        import ray.data as rd
        from hooqu_ray.pipelines import transcripts as tp

        def corpus(conv_ids, salt=""):
            conv, idx, text = [], [], []
            for c in conv_ids:
                for j in range(4):
                    conv.append(c); idx.append(j)
                    # prefix (turns 0-1) depends only on the TASK number
                    # modulo 200 → retries share it; salt mutates it
                    base = int(c.split("-")[1]) % 200
                    text.append((f"task {{base}} turn {{j}}" + salt)
                                if j < 2 else f"{{c}} tail {{j}}")
            t = pa.table({{"conv_id": pa.array(conv, pa.string()),
                          "turn_idx": pa.array(idx, pa.int64()),
                          "text": pa.array(text, pa.string())}})
            return rd.from_arrow(
                [t.slice(i, 100) for i in range(0, len(t), 100)])

        base = corpus([f"conv-{{i:05d}}" for i in range(200)])
        retries = [f"conv-{{i + 1000:05d}}" for i in range(0, 100, 2)]
        fresh = [f"conv-{{i + 2000:05d}}" for i in range(30)]
        new = corpus(retries).union(corpus(fresh, salt=" fresh"))
        path = {str(tmp_path / "forkidx")!r}
        tp.fork_index_write(base, 2, path)
        out = tp.fork_index_probe(new, path, 2).to_pandas()
        got = sorted(out.conv_id)
        assert got == sorted(retries), (len(got), got[:5])
        # witness = MIN indexed conv id with that prefix
        w = dict(zip(out.conv_id, out.matched_conv))
        for c in retries:
            assert w[c] == f"conv-{{int(c.split('-')[1]) % 200:05d}}", (c, w[c])
        ray.shutdown()
        cluster.shutdown()
        print("FORKPROBE-MULTINODE-OK", len(out))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=600, cwd="/root/repo",
        env={**__import__("os").environ, "PYTHONPATH": "/root/repo"},
    )
    assert "FORKPROBE-MULTINODE-OK" in proc.stdout, (
        proc.stdout[-2000:], proc.stderr[-2000:])


def test_scrub_dup_ngrams_two_node_cluster(tmp_path):
    """Simulated 2-node cluster: scrub_dup_ngrams' bucketed gram-count
    exchange and sharded hot-set broadcast must produce the same rewrite
    when duplicate spans live on DIFFERENT nodes."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import os, sys
        os.environ.pop("RAY_ADDRESS", None)
        import ray
        from ray.cluster_utils import Cluster
        cluster = Cluster(initialize_head=True,
                          head_node_args={"num_cpus": 2})
        cluster.add_node(num_cpus=2)
        ray.init(address=cluster.address,
                 include_dashboard=False, log_to_driver=False)
        assert len([n for n in ray.nodes() if n["Alive"]]) == 2, ray.nodes()
        import pyarrow as pa
        import ray.data as rd
        from hooqu_ray.functions import broadcast
        from hooqu_ray.pipelines import decontam
        from hooqu_ray.pipelines.decontam import scrub_dup_ngrams
        span = "alpha beta gamma delta epsilon"
        texts, ids = [], []
        for i in range(2_000):
            ids.append(i)
            texts.append(f"{span} tail {i}" if i % 3 == 0
                         else f"unique {i} body content words here")
        t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts, pa.string())})
        ds = rd.from_arrow([t.slice(i, 100) for i in range(0, 2_000, 100)])
        # _DRIVER_HOT_GRAMS_MAX=1 forces the hot set (2 grams) into TWO
        # hash-range shards, so the cross-shard OR-union actually runs
        decontam._DRIVER_HOT_GRAMS_MAX = 1
        shard_counts, hash_shards = [], broadcast.hash_shards

        def spy(*args):
            shards = list(hash_shards(*args))
            shard_counts.append(len(shards))
            return iter(shards)

        broadcast.hash_shards = spy
        out = (scrub_dup_ngrams(ds, n=5)
               .to_pandas().sort_values("doc_id", ignore_index=True))
        assert shard_counts == [2], shard_counts
        dup = out[out.doc_id % 3 == 0]
        # "<span> tail {i}": the 5-gram span AND the shifted
        # "beta..epsilon tail" gram are both corpus-hot -> 6 covered
        # tokens, only the unique id survives
        assert (dup.n_removed == 6).all(), dup.n_removed.value_counts()
        assert (dup.text == dup.doc_id.astype(str)).all()
        clean = out[out.doc_id % 3 != 0]
        assert (clean.n_removed == 0).all()
        ray.shutdown()
        cluster.shutdown()
        print("SCRUB-MULTINODE-OK", len(out))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=600, cwd="/root/repo",
        env={**__import__("os").environ, "PYTHONPATH": "/root/repo"},
    )
    assert "SCRUB-MULTINODE-OK" in proc.stdout, (
        proc.stdout[-2000:], proc.stderr[-4000:])
