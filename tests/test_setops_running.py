"""Round-3 session-4 operators: set ops, outer hash joins, running
aggregates, grouped z-score / approx count-distinct, sequence packing,
frequent-line removal, keep-best cluster dedup — each against a DuckDB or
pandas oracle."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _key(df):
    return sorted(map(str, df.itertuples(index=False)))


@pytest.fixture(scope="module")
def events(ray_session):
    rng = np.random.RandomState(11)
    n = 4000
    return pd.DataFrame(
        {
            "k": rng.randint(0, 37, n),
            "ts": pd.to_datetime(rng.randint(0, 10**6, n), unit="s"),
            "id": np.arange(n, dtype=np.int64),
            "v": np.where(rng.rand(n) < 0.08, np.nan, rng.randn(n) * 5),
        }
    )


class TestSetOps:
    def _sides(self, rd):
        a = pd.DataFrame({"u": [1, 2, 2, 3, None, 5], "t": list("xyyznw")})
        b = pd.DataFrame({"u": [2, 3, 3, 4, None], "t": list("yzzqn")})
        return (
            a, b,
            rd.from_pandas(a).repartition(3),
            rd.from_pandas(b).repartition(2),
        )

    def test_union_intersect_except_match_duckdb(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.setops import (
            except_distinct, intersect_distinct, union_distinct)

        a, b, da, db = self._sides(rd)
        con = duckdb.connect()
        con.register("a", a)
        con.register("b", b)
        for fn, sql in [
            (union_distinct, "UNION"),
            (intersect_distinct, "INTERSECT"),
            (except_distinct, "EXCEPT"),
        ]:
            got = fn(da, db).to_pandas()
            exp = con.execute(f"SELECT * FROM a {sql} SELECT * FROM b").df()
            assert _key(got) == _key(exp), sql

    def test_column_subset_and_missing_column(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.setops import intersect_distinct

        a, b, da, db = self._sides(rd)
        got = intersect_distinct(da, db, ["u"]).to_pandas()["u"]
        exp = duckdb.sql(
            "SELECT u FROM a INTERSECT SELECT u FROM b"
        ).df()["u"]
        assert sorted(map(str, got)) == sorted(map(str, exp))
        with pytest.raises(KeyError):
            intersect_distinct(da, db, ["nope"])


class TestOuterHashJoin:
    def test_all_hows_match_duckdb(self, ray_session):
        import ray.data as rd
        from hooqu_ray.functions.joins import hash_join

        rng = np.random.RandomState(3)
        l = pd.DataFrame(
            {
                "k": np.where(rng.rand(300) < 0.05, np.nan, rng.randint(0, 60, 300)),
                "lv": rng.randn(300),
            }
        )
        r = pd.DataFrame(
            {
                "k": np.where(rng.rand(200) < 0.05, np.nan, rng.randint(30, 90, 200)),
                "rv": rng.randn(200),
            }
        )
        dl = rd.from_pandas(l).repartition(4)
        dr = rd.from_pandas(r).repartition(3)
        con = duckdb.connect()
        con.register("l", l)
        con.register("r", r)
        for how in ["inner", "left", "right", "full"]:
            got = hash_join(dl, dr, on="k", how=how).to_pandas()
            exp = con.execute(f"SELECT * FROM l {how.upper()} JOIN r USING(k)").df()
            got_r = got.round(9)
            exp_r = exp[got.columns].round(9)
            assert _key(got_r) == _key(exp_r), how

    def test_bad_how(self, ray_session):
        import ray.data as rd
        from hooqu_ray.functions.joins import hash_join

        d = rd.from_pandas(pd.DataFrame({"k": [1]}))
        with pytest.raises(ValueError):
            hash_join(d, d, on="k", how="cross")


class TestRunningAgg:
    def test_matches_sql_window(self, ray_session, events):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import running_agg

        ds = rd.from_pandas(events).repartition(7)
        got = running_agg(ds, "k", "ts", "id", "v").to_pandas().sort_values(
            ["k", "ts", "id"], ignore_index=True
        )
        con = duckdb.connect()
        con.register("t", events)
        exp = con.execute(
            """SELECT k, ts, id,
               SUM(v) OVER (PARTITION BY k ORDER BY ts, id
                            ROWS UNBOUNDED PRECEDING) AS run_sum,
               ROW_NUMBER() OVER (PARTITION BY k ORDER BY ts, id) AS run_n
               FROM t ORDER BY k, ts, id"""
        ).df()
        assert len(got) == len(exp)
        assert np.allclose(
            got["run_sum"].to_numpy(), exp["run_sum"].to_numpy(),
            equal_nan=True, atol=1e-9,
        )
        assert (got["run_n"].to_numpy() == exp["run_n"].to_numpy()).all()

    def test_single_key_spanning_blocks(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import running_agg

        df = pd.DataFrame(
            {
                "k": np.zeros(500, dtype=np.int64),
                "ts": pd.to_datetime(np.arange(500), unit="s"),
                "id": np.arange(500, dtype=np.int64),
                "v": np.ones(500),
            }
        )
        got = running_agg(
            rd.from_pandas(df).repartition(5), "k", "ts", "id", "v"
        ).to_pandas().sort_values("id", ignore_index=True)
        assert np.allclose(got["run_sum"].to_numpy(), np.arange(1.0, 501.0))
        assert (got["run_n"].to_numpy() == np.arange(1, 501)).all()


class TestGroupedZscore:
    def test_matches_sql_window(self, ray_session, events):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_zscore

        ds = rd.from_pandas(events).repartition(6)
        got = grouped_zscore(ds, "k", "v").to_pandas().sort_values(
            "id", ignore_index=True
        )
        con = duckdb.connect()
        con.register("t", events)
        exp = con.execute(
            """SELECT id, CASE WHEN STDDEV_POP(v) OVER (PARTITION BY k) > 0
               THEN (v - AVG(v) OVER (PARTITION BY k))
                    / STDDEV_POP(v) OVER (PARTITION BY k) END AS z
               FROM t ORDER BY id"""
        ).df()
        assert np.allclose(
            got["zscore"].to_numpy(), exp["z"].to_numpy(),
            equal_nan=True, atol=1e-8,
        )

    def test_constant_group_yields_null(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_zscore

        df = pd.DataFrame({"k": [1, 1, 2, 2], "v": [5.0, 5.0, 1.0, 3.0]})
        got = grouped_zscore(rd.from_pandas(df), "k", "v").to_pandas()
        assert got.loc[got["k"] == 1, "zscore"].isna().all()
        assert not got.loc[got["k"] == 2, "zscore"].isna().any()


class TestGroupedApproxCountDistinct:
    def test_within_bound_vs_exact(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_approx_count_distinct

        rng = np.random.RandomState(5)
        df = pd.DataFrame(
            {"g": rng.randint(0, 6, 30000), "u": rng.randint(0, 4000, 30000)}
        )
        got = grouped_approx_count_distinct(
            rd.from_pandas(df).repartition(5), "g", "u", p=12
        ).to_pandas().set_index("g")["approx_distinct"]
        exact = df.groupby("g")["u"].nunique()
        for g, d in exact.items():
            assert abs(got[g] - d) / d < 0.05, (g, got[g], d)

    def test_nulls_not_counted(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_approx_count_distinct

        df = pd.DataFrame({"g": [1, 1, 1], "u": [None, None, 7.0]})
        got = grouped_approx_count_distinct(rd.from_pandas(df), "g", "u")
        out = got.to_pandas()
        assert out.loc[out["g"] == 1, "approx_distinct"].iloc[0] == 1


class TestPackSequences:
    def test_matches_sql_prefix_sums(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import pack_sequences

        rng = np.random.RandomState(9)
        docs = pd.DataFrame(
            {
                "doc_id": [f"d{i:05d}" for i in range(800)],
                "n_tokens": rng.randint(0, 700, 800).astype(np.int64),
            }
        )
        got = pack_sequences(
            rd.from_pandas(docs).repartition(5), "doc_id", "n_tokens", 2048
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        start = np.concatenate([[0], np.cumsum(docs["n_tokens"].to_numpy())[:-1]])
        end = start + docs["n_tokens"].to_numpy()
        seq_start = start // 2048
        seq_end = np.where(docs["n_tokens"].to_numpy() > 0, (end - 1) // 2048, seq_start)
        assert (got["token_start"].to_numpy() == start).all()
        assert (got["seq_start"].to_numpy() == seq_start).all()
        assert (got["seq_end"].to_numpy() == seq_end).all()
        assert (got["n_seqs"].to_numpy() == seq_end - seq_start + 1).all()
        # conservation: every token is covered exactly once
        assert got["n_tokens"].sum() == docs["n_tokens"].sum()


class TestLineFilterFrequent:
    def test_removes_all_occurrences(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import line_filter_frequent

        docs = pd.DataFrame(
            {
                "doc_id": np.arange(4, dtype=np.int64),
                "text": [
                    "keep this unique line\nshared boilerplate footer line",
                    "shared boilerplate footer line\nanother keeper line",
                    "shared boilerplate footer line\nshared boilerplate footer line",
                    "nothing shared here at all",
                ],
            }
        )
        out = line_filter_frequent(
            rd.from_pandas(docs).repartition(2), min_count=2, min_line_chars=10
        ).to_pandas().sort_values("doc_id")["text"].tolist()
        assert out == [
            "keep this unique line",
            "another keeper line",
            "",
            "nothing shared here at all",
        ]

    def test_threshold_and_short_lines(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.dedup import line_filter_frequent

        docs = pd.DataFrame(
            {
                "doc_id": np.arange(3, dtype=np.int64),
                "text": ["dup line body\nok", "dup line body\nok", "dup line body\nok"],
            }
        )
        # min_count=4 > occurrences → nothing removed; 'ok' is under min chars
        out = line_filter_frequent(
            rd.from_pandas(docs).repartition(2), min_count=4, min_line_chars=10
        ).to_pandas()["text"].tolist()
        assert out == docs["text"].tolist()


class TestDedupKeepBest:
    def test_keeps_highest_score_per_cluster(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.cluster import dedup_keep_best

        docs = pd.DataFrame(
            {
                "doc_id": np.arange(8, dtype=np.int64),
                "score": [0.1, 0.9, 0.5, 0.5, 0.2, 0.8, 0.3, 0.4],
                "payload": list("abcdefgh"),
            }
        )
        pairs = pd.DataFrame(
            {
                "id_a": np.array([0, 1, 2, 5], dtype=np.int64),
                "id_b": np.array([1, 2, 3, 6], dtype=np.int64),
            }
        )
        kept = dedup_keep_best(
            rd.from_pandas(docs).repartition(3),
            rd.from_pandas(pairs).repartition(2),
            id_col="doc_id", score_col="score", id_type=pa.int64(),
        ).to_pandas()
        assert sorted(kept["doc_id"].tolist()) == [1, 4, 5, 7]
        assert set(kept.columns) == {"doc_id", "score", "payload"}

    def test_no_pairs_returns_docs(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.cluster import dedup_keep_best

        docs = pd.DataFrame({"doc_id": [1, 2], "score": [0.5, 0.6]})
        pairs = pd.DataFrame(
            {"id_a": pd.array([], dtype="Int64"), "id_b": pd.array([], dtype="Int64")}
        )
        kept = dedup_keep_best(
            rd.from_pandas(docs), rd.from_pandas(pairs),
            id_col="doc_id", score_col="score", id_type=pa.int64(),
        ).to_pandas()
        assert sorted(kept["doc_id"].tolist()) == [1, 2]


class TestPackTexts:
    def _docs(self):
        rng = np.random.RandomState(21)
        words = np.array([f"w{i}" for i in range(50)])
        return pd.DataFrame(
            {
                "doc_id": np.arange(300, dtype=np.int64),
                "text": [
                    " ".join(rng.choice(words, rng.randint(0, 40)))
                    for _ in range(300)
                ],
            }
        )

    def test_matches_sql_packing(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.packing import pack_texts

        docs = self._docs()
        got = pack_texts(
            rd.from_pandas(docs).repartition(5), "doc_id", "text", 64
        ).to_pandas().sort_values("seq_id", ignore_index=True)
        con = duckdb.connect()
        con.register("d", docs)
        exp = con.execute(
            """WITH w AS (SELECT doc_id, list_filter(regexp_split_to_array(
                 COALESCE(text,''),'\\s+'), t->t<>'') AS ws FROM d),
               c AS (SELECT doc_id, ws, COALESCE(SUM(len(ws)) OVER (ORDER BY doc_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),0) AS off FROM w),
               t AS (SELECT c.off + generate_subscripts(ws,1) - 1 AS gidx,
                 UNNEST(ws) AS tok FROM c)
               SELECT CAST(gidx // 64 AS BIGINT) AS seq_id,
                      CAST(count(*) AS BIGINT) AS n_tokens,
                      string_agg(tok, ' ' ORDER BY gidx) AS text
               FROM t GROUP BY 1 ORDER BY 1"""
        ).df()
        assert got["seq_id"].tolist() == exp["seq_id"].tolist()
        assert got["n_tokens"].tolist() == exp["n_tokens"].tolist()
        assert got["text"].tolist() == exp["text"].tolist()
        # every sequence except the last is exactly full
        assert (got["n_tokens"].to_numpy()[:-1] == 64).all()

    def test_empty_and_null_docs(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.packing import pack_texts

        docs = pd.DataFrame(
            {"doc_id": [1, 2, 3, 4], "text": ["a b c", "", None, "d e"]}
        )
        got = pack_texts(
            rd.from_pandas(docs).repartition(2), "doc_id", "text", 4
        ).to_pandas().sort_values("seq_id", ignore_index=True)
        assert got["text"].tolist() == ["a b c d", "e"]
        assert got["n_tokens"].tolist() == [4, 1]


class TestMixSources:
    def test_matches_sql_budget_selection(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import mix_sources

        rng = np.random.RandomState(2)
        docs = pd.DataFrame(
            {
                "doc_id": np.arange(400, dtype=np.int64),
                "source": [f"s{i % 4}" for i in range(400)],
                "n_tokens": rng.randint(1, 60, 400).astype(np.int64),
            }
        )
        got = mix_sources(
            rd.from_pandas(docs).repartition(5), "source", "doc_id", "n_tokens",
            budgets={"s0": 500, "s1": 300}, default_budget=200,
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        con = duckdb.connect()
        con.register("d", docs)
        exp = con.execute(
            """WITH r AS (SELECT doc_id, source, n_tokens,
                 CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)),1,8))
                      AS BIGINT) AS rk FROM d),
               c AS (SELECT doc_id, source, CAST(SUM(n_tokens) OVER
                 (PARTITION BY source ORDER BY rk, doc_id
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_tokens FROM r)
               SELECT doc_id, source, cum_tokens FROM c
               WHERE cum_tokens <= CASE source WHEN 's0' THEN 500
                                   WHEN 's1' THEN 300 ELSE 200 END
               ORDER BY doc_id"""
        ).df()
        assert got["doc_id"].tolist() == exp["doc_id"].tolist()
        assert got["cum_tokens"].tolist() == exp["cum_tokens"].astype(int).tolist()
        # budgets respected per source
        tot = got.groupby("source")["cum_tokens"].max()
        assert tot.get("s0", 0) <= 500 and tot.get("s1", 0) <= 300
        for s in ("s2", "s3"):
            assert tot.get(s, 0) <= 200

    def test_zero_default_drops_unbudgeted(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import mix_sources

        docs = pd.DataFrame(
            {"doc_id": [1, 2], "source": ["a", "b"], "n_tokens": [5, 5]}
        )
        got = mix_sources(
            rd.from_pandas(docs), "source", "doc_id", "n_tokens",
            budgets={"a": 10},
        ).to_pandas()
        assert got["source"].tolist() == ["a"]


class TestJsonField:
    def test_matches_duckdb_json_extract(self, ray_session):
        import ray.data as rd
        from hooqu_ray.functions.jsonx import json_field

        ev = pd.DataFrame(
            {
                "event_id": np.arange(100, dtype=np.int64),
                "props": [
                    f'{{"k": {i * 3}}}' if i % 10 else None for i in range(100)
                ],
            }
        )
        got = json_field(
            rd.from_pandas(ev).repartition(3), "props", "k", arrow_type=pa.int64()
        ).to_pandas().sort_values("event_id", ignore_index=True)
        con = duckdb.connect()
        con.register("e", ev)
        exp = con.execute(
            "SELECT event_id, CAST(json_extract_string(props,'$.k') AS BIGINT) "
            "AS k FROM e ORDER BY event_id"
        ).df()
        assert got["k"].fillna(-1).tolist() == exp["k"].fillna(-1).tolist()

    def test_missing_key_and_invalid_json(self, ray_session):
        import ray.data as rd
        from hooqu_ray.functions.jsonx import json_field

        ev = pd.DataFrame(
            {"event_id": [1, 2, 3], "props": ['{"x": 1}', "notjson", '{"k": "s"}']}
        )
        got = json_field(rd.from_pandas(ev), "props", "k").to_pandas()
        got = got.sort_values("event_id")["k"].tolist()
        assert got[0] is None and got[1] is None and got[2] == "s"


class TestLagDelta:
    def test_matches_sql_lag(self, ray_session, events):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import lag_delta

        con = duckdb.connect()
        con.register("t", events)
        for p in (1, 3):
            got = lag_delta(
                rd.from_pandas(events).repartition(7), "k", "ts", "id", "v",
                periods=p,
            ).to_pandas().sort_values(["k", "ts", "id"], ignore_index=True)
            exp = con.execute(
                f"""SELECT k, ts, id,
                    LAG(v, {p}) OVER (PARTITION BY k ORDER BY ts, id) AS pv,
                    v - LAG(v, {p}) OVER (PARTITION BY k ORDER BY ts, id) AS d
                    FROM t ORDER BY k, ts, id"""
            ).df()
            assert len(got) == len(exp)
            assert np.allclose(
                got["prev_value"].to_numpy(), exp["pv"].to_numpy(), equal_nan=True
            ), p
            assert np.allclose(
                got["delta"].to_numpy(), exp["d"].to_numpy(), equal_nan=True
            ), p

    def test_key_spanning_blocks(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import lag_delta

        df = pd.DataFrame(
            {
                "k": np.zeros(400, dtype=np.int64),
                "ts": pd.to_datetime(np.arange(400), unit="s"),
                "id": np.arange(400, dtype=np.int64),
                "v": np.arange(400, dtype=np.float64),
            }
        )
        got = lag_delta(
            rd.from_pandas(df).repartition(5), "k", "ts", "id", "v", 2
        ).to_pandas().sort_values("id", ignore_index=True)
        assert got["prev_value"].isna().tolist()[:3] == [True, True, False]
        assert np.allclose(got["delta"].to_numpy()[2:], 2.0)

    def test_bad_periods(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import lag_delta

        d = rd.from_pandas(pd.DataFrame({"k": [1], "ts": [1], "id": [1], "v": [1.0]}))
        with pytest.raises(ValueError):
            lag_delta(d, "k", "ts", "id", "v", periods=0)


class TestLeadDelta:
    def test_matches_sql_lead(self, ray_session, events):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import lead_delta

        con = duckdb.connect()
        con.register("t", events)
        for p in (1, 3):
            got = lead_delta(
                rd.from_pandas(events).repartition(7), "k", "ts", "id", "v",
                periods=p,
            ).to_pandas().sort_values(["k", "ts", "id"], ignore_index=True)
            exp = con.execute(
                f"""SELECT k, ts, id,
                    LEAD(v, {p}) OVER (PARTITION BY k ORDER BY ts, id) AS nv,
                    LEAD(v, {p}) OVER (PARTITION BY k ORDER BY ts, id) - v AS d
                    FROM t ORDER BY k, ts, id"""
            ).df()
            assert len(got) == len(exp)
            assert np.allclose(
                got["next_value"].to_numpy(), exp["nv"].to_numpy(), equal_nan=True
            ), p
            assert np.allclose(
                got["delta"].to_numpy(), exp["d"].to_numpy(), equal_nan=True
            ), p

    def test_key_spanning_blocks(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import lead_delta

        df = pd.DataFrame(
            {
                "k": np.zeros(400, dtype=np.int64),
                "ts": pd.to_datetime(np.arange(400), unit="s"),
                "id": np.arange(400, dtype=np.int64),
                "v": np.arange(400, dtype=np.float64),
            }
        )
        got = lead_delta(
            rd.from_pandas(df).repartition(5), "k", "ts", "id", "v", 2
        ).to_pandas().sort_values("id", ignore_index=True)
        assert got["next_value"].isna().tolist()[-3:] == [False, True, True]
        assert np.allclose(got["delta"].to_numpy()[:-2], 2.0)

    def test_bad_periods(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import lead_delta

        d = rd.from_pandas(pd.DataFrame({"k": [1], "ts": [1], "id": [1], "v": [1.0]}))
        with pytest.raises(ValueError):
            lead_delta(d, "k", "ts", "id", "v", periods=0)


class TestGroupedFirstLast:
    def test_matches_sql_window(self, ray_session, events):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import grouped_first_last

        df = events.copy()
        df.loc[3, "k"] = None  # null key / ts rows must drop
        con = duckdb.connect()
        con.register("t", df)
        got = grouped_first_last(
            rd.from_pandas(df).repartition(7), "k", "ts", "id", "v"
        ).to_pandas().sort_values("k", ignore_index=True)
        exp = con.execute(
            """SELECT DISTINCT k,
               FIRST_VALUE(v) OVER (PARTITION BY k ORDER BY ts, id) AS fv,
               LAST_VALUE(v) OVER (PARTITION BY k ORDER BY ts, id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS lv
               FROM t WHERE k IS NOT NULL ORDER BY k"""
        ).df()
        assert len(got) == len(exp)
        assert np.allclose(got["first_value"].to_numpy(), exp["fv"].to_numpy(),
                           equal_nan=True)
        assert np.allclose(got["last_value"].to_numpy(), exp["lv"].to_numpy(),
                           equal_nan=True)

    def test_bucketed_fallback_identical(self, ray_session, exchange_tasks,
                                         events):
        import ray.data as rd
        from hooqu_ray.pipelines.windows import grouped_first_last

        src = rd.from_pandas(events).repartition(7)
        whole = grouped_first_last(src.repartition(1), "k", "ts", "id", "v") \
            .to_pandas().sort_values("k", ignore_index=True)
        exchange_tasks.clear()
        # 7 blocks: candidates per block, then ONE hash exchange on the key
        bucketed = grouped_first_last(src, "k", "ts", "id", "v") \
            .to_pandas().sort_values("k", ignore_index=True)
        assert exchange_tasks["exchanges"] == 1, exchange_tasks
        pd.testing.assert_frame_equal(whole, bucketed)

    def test_value_dtype_preserved_and_empty(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from hooqu_ray.pipelines.windows import grouped_first_last

        df = pd.DataFrame({"k": [1, 1, 2], "ts": [1, 2, 3],
                           "id": [0, 1, 2], "v": ["a", "b", "c"]})
        got = grouped_first_last(rd.from_pandas(df), "k", "ts", "id", "v") \
            .to_pandas().sort_values("k", ignore_index=True)
        assert got["first_value"].tolist() == ["a", "c"]
        assert got["last_value"].tolist() == ["b", "c"]

        e = rd.from_arrow(pa.table({
            "k": pa.array([], pa.int64()), "ts": pa.array([], pa.int64()),
            "id": pa.array([], pa.int64()), "v": pa.array([], pa.float64())}))
        ge = grouped_first_last(e, "k", "ts", "id", "v")
        assert ge.schema().names == ["k", "first_value", "last_value"]
        assert ge.count() == 0


class TestKeepBestForcedShards:
    def test_many_losers_forced_multi_shard(self, ray_session, monkeypatch,
                                            shard_counts):
        """Loser broadcast sharded (ROWS_PER_SHARD below the loser count):
        chained anti-membership filters must equal the one-shot semantics."""
        import ray.data as rd
        from hooqu_ray.functions import broadcast
        from hooqu_ray.pipelines.cluster import dedup_keep_best

        n = 60
        docs = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "score": np.arange(n, dtype=np.float64) % 7,
            }
        )
        # chain 0-1-2-...-29 (one big cluster) plus 15 two-doc clusters
        pairs = pd.DataFrame(
            {
                "id_a": np.r_[np.arange(29), np.arange(30, 60, 2)].astype(np.int64),
                "id_b": np.r_[np.arange(1, 30), np.arange(31, 60, 2)].astype(np.int64),
            }
        )
        kept_one = dedup_keep_best(
            rd.from_pandas(docs).repartition(4),
            rd.from_pandas(pairs).repartition(3),
            id_col="doc_id", score_col="score", id_type=pa.int64(),
            max_iters=40,
        ).to_pandas()
        monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 5)
        shard_counts.clear()
        kept_sharded = dedup_keep_best(
            rd.from_pandas(docs).repartition(4),
            rd.from_pandas(pairs).repartition(3),
            id_col="doc_id", score_col="score", id_type=pa.int64(),
            max_iters=40,
        ).to_pandas()
        assert max(shard_counts) >= 2
        assert sorted(kept_sharded["doc_id"]) == sorted(kept_one["doc_id"])
        # big cluster keeps exactly one member: max score 6, tie → min id 6
        big = [d for d in kept_sharded["doc_id"] if d < 30]
        assert big == [6]


class TestHypothesisDifferentials:
    def test_running_block_vs_pandas(self, ray_session):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from hooqu_ray.pipelines.windows import _running_block

        @settings(max_examples=60, deadline=None)
        @given(
            st.lists(
                st.tuples(
                    st.integers(0, 3),
                    st.one_of(st.none(), st.floats(-1e6, 1e6)),
                ),
                min_size=1, max_size=60,
            )
        )
        def prop(rows):
            df = pd.DataFrame(
                {
                    "k": [r[0] for r in rows],
                    "ts": pd.to_datetime(range(len(rows)), unit="s"),
                    "id": range(len(rows)),
                    "v": pd.Series([r[1] for r in rows], dtype="float64"),
                }
            ).sort_values(["k", "ts", "id"], ignore_index=True)
            t = pa.Table.from_pandas(df, preserve_index=False)
            finals = _running_block(t, "k", "v").to_pandas()
            # the kernel sees whole keys: every row is final
            assert len(finals) == len(df)
            if len(finals):
                # SQL running-sum semantics: a null row carries the sum of
                # prior non-nulls (pandas cumsum would emit NaN AT the row)
                s = df["v"].fillna(0.0).groupby(df["k"]).cumsum()
                c = df["v"].notna().groupby(df["k"]).cumsum()
                exp = (
                    df.assign(
                        run_sum=s.where(c > 0),
                        run_n=df.groupby("k").cumcount() + 1,
                    )
                    .merge(finals[["k", "id"]], on=["k", "id"])
                )
                got = finals.sort_values(["k", "id"], ignore_index=True)
                exp = exp.sort_values(["k", "id"], ignore_index=True)
                assert np.allclose(
                    got["run_sum"].to_numpy(), exp["run_sum"].to_numpy(),
                    equal_nan=True, atol=1e-9,
                )
                assert (got["run_n"].to_numpy() == exp["run_n"].to_numpy()).all()

        prop()

    def test_pack_fragments_token_conservation(self, ray_session):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from hooqu_ray.pipelines.packing import _block_tokens, _fragments_block

        @settings(max_examples=60, deadline=None)
        @given(
            st.lists(
                st.text(alphabet=" ab\t\n", max_size=20),
                min_size=0, max_size=20,
            ),
            st.integers(1, 7),
            st.integers(0, 100),
        )
        def prop(texts, max_len, base):
            t = pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
            n_tok = len(_block_tokens(t, "text")) if len(texts) else 0
            frags = _fragments_block(t, "text", max_len, base)
            assert int(frags["n_tokens"].to_pandas().sum()) == n_tok
            # every fragment respects the max_len cut
            fd = frags.to_pandas()
            for _, row in fd.iterrows():
                assert row["frag_start"] // max_len == row["seq_id"]
                assert (row["frag_start"] + row["n_tokens"] - 1) // max_len == row["seq_id"]

        prop()


class TestGroupedMinmax:
    def test_matches_sql_window(self, ray_session, events):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_minmax

        got = grouped_minmax(
            rd.from_pandas(events).repartition(6), "k", "v"
        ).to_pandas().sort_values("id", ignore_index=True)
        con = duckdb.connect()
        con.register("t", events)
        exp = con.execute(
            """SELECT id, (v - MIN(v) OVER (PARTITION BY k))
               / NULLIF(MAX(v) OVER (PARTITION BY k)
                        - MIN(v) OVER (PARTITION BY k), 0) AS m
               FROM t ORDER BY id"""
        ).df()
        assert np.allclose(
            got["minmax"].to_numpy(), exp["m"].to_numpy(),
            equal_nan=True, atol=1e-12,
        )

    def test_constant_group_yields_null(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_minmax

        df = pd.DataFrame({"k": [1, 1, 2, 2], "v": [3.0, 3.0, 0.0, 10.0]})
        got = grouped_minmax(rd.from_pandas(df), "k", "v").to_pandas()
        assert got.loc[got["k"] == 1, "minmax"].isna().all()
        assert sorted(got.loc[got["k"] == 2, "minmax"]) == [0.0, 1.0]


class TestHeavyHitters:
    def test_zipfian_recall_and_overcount(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.cms import heavy_hitters

        rng = np.random.RandomState(3)
        vals = np.floor(rng.pareto(1.1, 100000)).astype(np.int64) % 3000
        df = pd.DataFrame({"tok": [f"t{v}" for v in vals]})
        hh = heavy_hitters(
            rd.from_pandas(df).repartition(6), "tok", 20, width=8192, depth=4
        ).to_pandas()
        exact = df["tok"].value_counts()
        top_exact = set(exact.head(20).index)
        assert len(set(hh["tok"]) & top_exact) >= 18
        for t, e in zip(hh["tok"], hh["est_count"]):
            assert e >= exact[t]  # CMS never undercounts

    def test_deterministic_and_bounded(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.cms import heavy_hitters

        df = pd.DataFrame({"tok": ["a"] * 50 + ["b"] * 30 + ["c"] * 5})
        ds = rd.from_pandas(df).repartition(2)
        r1 = heavy_hitters(ds, "tok", 2, width=256, depth=4).to_pandas()
        r2 = heavy_hitters(ds, "tok", 2, width=256, depth=4).to_pandas()
        assert r1["tok"].tolist() == r2["tok"].tolist() == ["a", "b"]
        assert r1["est_count"].tolist() == [50, 30]
        with pytest.raises(ValueError):
            heavy_hitters(ds, "tok", 0)


class TestBloomPrefilterJoin:
    def test_results_identical_and_guarded(self, ray_session):
        import ray.data as rd
        from hooqu_ray.functions.joins import hash_join

        rng = np.random.RandomState(4)
        l = pd.DataFrame({"k": rng.randint(0, 50000, 20000), "lv": rng.randn(20000)})
        r = pd.DataFrame({"k": rng.randint(0, 1000, 400), "rv": rng.randn(400)})
        dl = rd.from_pandas(l).repartition(5)
        dr = rd.from_pandas(r).repartition(2)

        def key(df):
            return sorted(map(str, df.round(9).itertuples(index=False)))

        base = hash_join(dl, dr, on="k", how="inner").to_pandas()
        for pf in ("left", "both"):
            got = hash_join(
                dl, dr, on="k", how="inner", bloom_prefilter=pf
            ).to_pandas()
            assert key(got) == key(base), pf
        # a retained side must not be prefiltered
        with pytest.raises(ValueError):
            hash_join(dl, dr, on="k", how="left", bloom_prefilter="left")
        with pytest.raises(ValueError):
            hash_join(dl, dr, on="k", how="inner", bloom_prefilter="nope")


class TestSaltedHashJoin:
    def test_salted_equals_unsalted_and_guards(self, ray_session):
        import ray.data as rd
        from hooqu_ray.functions.joins import detect_hot_keys, hash_join

        rng = np.random.RandomState(8)
        k = np.where(rng.rand(8000) < 0.7, 7, rng.randint(0, 300, 8000))
        l = pd.DataFrame({"k": k.astype(np.int64), "lv": rng.randn(8000)})
        r = pd.DataFrame({"k": np.arange(300, dtype=np.int64), "rv": rng.randn(300)})
        # duplicate the hot key on the right: many-to-many under salting
        r = pd.concat(
            [r, pd.DataFrame({"k": [7, 7], "rv": [1.5, -2.5]})], ignore_index=True
        )
        dl = rd.from_pandas(l).repartition(5)
        dr = rd.from_pandas(r).repartition(2)
        hot = detect_hot_keys(dl, "k", n_buckets=8)
        assert 7 in hot

        def key(df):
            return sorted(map(str, df.round(9).itertuples(index=False)))

        for how in ("inner", "left"):
            base = hash_join(dl, dr, on="k", how=how).to_pandas()
            salted = hash_join(
                dl, dr, on="k", how=how,
                salt_keys=hot, salt_factor=4,
            ).to_pandas()
            assert key(base) == key(salted), how
        with pytest.raises(ValueError):
            hash_join(dl, dr, on="k", how="full", salt_keys=[7])
        with pytest.raises(ValueError):
            hash_join(dl, dr, on="k", how="inner", salt_keys=[7], salt_factor=1)


class TestLengthBucketBatches:
    def test_matches_window_sql(self, ray_session):
        import duckdb
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.packing import length_bucket_batches

        t = pa.table({
            "doc_id": pa.array(list(range(12)), pa.int64()),
            "text": pa.array(
                ["w " * n for n in [1, 2, 3, 70, 80, 90, 200, 300, 5, 6,
                                    0, 64]], pa.string()),
        })
        got = length_bucket_batches(
            rd.from_arrow(t).repartition(4), "doc_id", "text", [64, 128], 2
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        con = duckdb.connect()
        con.register("docs", t)
        want = con.execute(
            "WITH tk AS (SELECT doc_id, len(regexp_extract_all("
            "COALESCE(text, ''), '\\S+')) AS n FROM docs), "
            "b AS (SELECT doc_id, CASE WHEN n < 64 THEN 0 "
            "WHEN n < 128 THEN 1 ELSE 2 END AS bucket FROM tk), "
            "r AS (SELECT doc_id, bucket, row_number() OVER "
            "(PARTITION BY bucket ORDER BY doc_id) AS rn FROM b) "
            "SELECT doc_id, CAST(bucket AS BIGINT) AS bucket, "
            "CAST((rn - 1) // 2 AS BIGINT) AS batch_idx FROM r "
            "ORDER BY doc_id"
        ).df().reset_index(drop=True)
        assert got[want.columns.tolist()].equals(want)

    def test_batch_size_validation(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data as rd

        from hooqu_ray.pipelines.packing import length_bucket_batches

        t = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array(["x"], pa.string())})
        with pytest.raises(ValueError):
            length_bucket_batches(rd.from_arrow(t), "doc_id", "text",
                                  [64], 0)
