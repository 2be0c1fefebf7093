"""Connected-components clustering over dup pairs
(hooqu_ray/pipelines/cluster.py) — labels vs a DuckDB recursive-CTE
reachability oracle, convergence on high-diameter graphs, id-type and
flag-row handling."""

import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _components(pairs_df, ray_session, **kw):
    import ray.data as rd

    from hooqu_ray.pipelines.cluster import connected_components

    ds = rd.from_pandas(pairs_df) if len(pairs_df) else rd.from_arrow(
        pa.table({"id_a": pa.array([], pa.int64()),
                  "id_b": pa.array([], pa.int64())})
    )
    out = connected_components(ds, **kw).to_pandas()
    if len(out) == 0:  # Ray's to_pandas drops schema on a 0-row dataset
        return pd.DataFrame({"node": [], "cluster_id": []})
    return out.sort_values("node", ignore_index=True)


def _oracle(pairs_df):
    import duckdb

    if len(pairs_df) == 0:
        return pd.DataFrame({"node": [], "cluster_id": []})
    return duckdb.sql(
        "WITH RECURSIVE e AS ("
        "SELECT id_a AS u, id_b AS v FROM pairs_df "
        "UNION SELECT id_b, id_a FROM pairs_df), "
        "walk(node, reach) AS ("
        "SELECT u, u FROM e "
        "UNION SELECT w.node, e.v FROM walk w JOIN e ON e.u = w.reach) "
        "SELECT node, min(reach) AS cluster_id FROM walk "
        "GROUP BY node ORDER BY node"
    ).df()


class TestConnectedComponents:
    def test_two_components_match_sql_oracle(self, ray_session):
        pairs = pd.DataFrame(
            {"id_a": [10, 20, 10, 77, 99], "id_b": [20, 30, 30, 88, 77]}
        )
        got = _components(pairs, ray_session)
        exp = _oracle(pairs)
        assert got["node"].tolist() == exp["node"].tolist()
        assert got["cluster_id"].tolist() == exp["cluster_id"].tolist()

    def test_chain_graph_needs_many_sweeps(self, ray_session):
        # path 0-1-2-...-12: diameter 12 exercises multi-sweep propagation
        n = 13
        pairs = pd.DataFrame({"id_a": range(n - 1), "id_b": range(1, n)})
        got = _components(pairs, ray_session)
        assert got["node"].tolist() == list(range(n))
        assert set(got["cluster_id"]) == {0}

    def test_non_convergence_warns(self, ray_session):
        pairs = pd.DataFrame({"id_a": range(9), "id_b": range(1, 10)})
        with pytest.warns(UserWarning, match="not converged"):
            got = _components(pairs, ray_session, max_iters=2)
        # labels are an upper bound, nodes still all present
        assert got["node"].tolist() == list(range(10))

    def test_string_ids(self, ray_session):
        pairs = pd.DataFrame(
            {"id_a": ["b", "c", "x"], "id_b": ["a", "b", "y"]}
        )
        got = _components(pairs, ray_session)
        exp = _oracle(pairs)
        assert got["node"].tolist() == exp["node"].tolist()
        assert got["cluster_id"].tolist() == exp["cluster_id"].tolist()

    def test_empty_pairs(self, ray_session):
        got = _components(pd.DataFrame({"id_a": [], "id_b": []}), ray_session)
        assert len(got) == 0

    def test_null_and_flag_rows_dropped(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.cluster import connected_components

        t = pa.table(
            {
                "id_a": pa.array([1, None, 3], pa.int64()),
                "id_b": pa.array([2, None, 4], pa.int64()),
                "__oversized_bucket": pa.array([None, 7, None], pa.int64()),
            }
        )
        got = (
            connected_components(rd.from_arrow(t))
            .to_pandas()
            .sort_values("node", ignore_index=True)
        )
        assert got["node"].tolist() == [1, 2, 3, 4]
        assert got["cluster_id"].tolist() == [1, 1, 3, 3]

    def test_id_type_cast(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.cluster import connected_components

        t = pa.table(
            {
                "id_a": pa.array([1.0, 2.0], pa.float64()),
                "id_b": pa.array([2.0, 3.0], pa.float64()),
            }
        )
        got = (
            connected_components(rd.from_arrow(t), id_type=pa.int64())
            .to_pandas()
            .sort_values("node", ignore_index=True)
        )
        assert got["node"].dtype.kind == "i"
        assert got["cluster_id"].tolist() == [1, 1, 1]

    def test_random_graph_matches_oracle_multibucket(self, ray_session):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 200, 300)
        off = rng.integers(1, 40, 300)
        pairs = pd.DataFrame({"id_a": a, "id_b": a + off})
        got = _components(pairs, ray_session)
        exp = _oracle(pairs)
        assert got["node"].tolist() == exp["node"].tolist()
        assert got["cluster_id"].tolist() == exp["cluster_id"].tolist()

    def test_representatives(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.cluster import (
            cluster_representatives,
            connected_components,
        )

        pairs = pd.DataFrame({"id_a": [5, 6, 11], "id_b": [6, 7, 12]})
        comp = connected_components(rd.from_pandas(pairs))
        reps = (
            cluster_representatives(comp)
            .to_pandas()
            .sort_values("node", ignore_index=True)
        )
        assert reps["node"].tolist() == [5, 11]

    def test_deterministic_across_runs(self, ray_session):
        pairs = pd.DataFrame(
            {"id_a": [3, 1, 4, 1, 5], "id_b": [9, 2, 6, 5, 3]}
        )
        a = _components(pairs, ray_session)
        b = _components(pairs, ray_session)
        pd.testing.assert_frame_equal(a, b)


class TestSplitByCluster:
    def test_clusters_never_straddle_splits(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.cluster import split_by_cluster

        # 40 docs; pairs chain 0-1-2, 10-11, 20-21-22-23
        docs = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64)})
        pairs = pd.DataFrame({
            "id_a": [0, 1, 10, 20, 21, 22],
            "id_b": [1, 2, 11, 21, 22, 23],
        })
        out = split_by_cluster(
            rd.from_pandas(docs).repartition(4),
            rd.from_pandas(pairs),
            id_col="doc_id", id_type=pa.int64(),
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        assert len(out) == 40 and set(out.columns) == {"doc_id", "split"}
        for cluster in ([0, 1, 2], [10, 11], [20, 21, 22, 23]):
            sp = out[out.doc_id.isin(cluster)]["split"].unique()
            assert len(sp) == 1, (cluster, sp)

    def test_pair_free_corpus_equals_split_assign(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.cluster import split_by_cluster
        from hooqu_ray.pipelines.relational import split_assign

        docs = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64)})
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64")})
        got = split_by_cluster(
            rd.from_pandas(docs), rd.from_pandas(empty),
            id_col="doc_id", id_type=pa.int64(),
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        want = split_assign(
            rd.from_pandas(docs), "doc_id"
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        pd.testing.assert_frame_equal(got, want)

    def test_weight_validation(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.cluster import split_by_cluster

        docs = rd.from_pandas(pd.DataFrame({"doc_id": [1]}))
        pairs = rd.from_pandas(pd.DataFrame({"id_a": [1], "id_b": [1]}))
        with pytest.raises(ValueError):
            split_by_cluster(docs, pairs,
                             splits=(("a", 80), ("b", 30)))
