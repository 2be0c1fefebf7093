"""Unit tests for the round-2 relational operators: sessionization,
grouped top-k, deterministic hash sampling, broadcast semi/anti joins."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events_frame():
    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = []
    # user 1: three events in one session, then a 2h gap, then two more
    for i, off in enumerate([0, 60, 120, 7800, 7860]):
        rows.append((100 + i, base + np.timedelta64(off, "s"), 1, "click", float(i)))
    # user 2: single event
    rows.append((200, base, 2, "view", 9.0))
    return pd.DataFrame(rows, columns=["event_id", "ts", "user_id", "event_type", "value"])


def test_session_stats_gap_semantics(ray_session):
    import ray.data as rd
    from hooqu_ray.pipelines.sessions import session_stats

    out = (
        session_stats(rd.from_pandas(_events_frame()), gap_seconds=3600)
        .to_pandas()
        .sort_values(["user_id", "session_idx"], ignore_index=True)
    )
    assert out[["user_id", "session_idx", "n_events"]].values.tolist() == [
        [1, 0, 3],
        [1, 1, 2],
        [2, 0, 1],
    ]
    s0 = out.iloc[0]
    assert (s0.t_end - s0.t_start) == pd.Timedelta(seconds=120)


def test_session_boundary_is_strict(ray_session):
    import ray.data as rd
    from hooqu_ray.pipelines.sessions import session_stats

    base = np.datetime64("2024-01-01T00:00:00", "us")
    df = pd.DataFrame(
        {
            "event_id": [1, 2, 3],
            "ts": [base, base + np.timedelta64(3600, "s"),
                   base + np.timedelta64(3600 * 2 + 1, "s")],
            "user_id": [7, 7, 7],
        }
    )
    out = session_stats(rd.from_pandas(df), gap_seconds=3600).to_pandas()
    # gap == 3600s does NOT break; gap == 3601s does
    assert sorted(out["n_events"].tolist()) == [1, 2]


def test_session_stats_matches_pandas_reference(ray_session):
    """The sort-based boundary-merge implementation must agree with an
    independent per-user pandas sessionization (the ``lag`` + running
    ``sum`` shape of the SQL oracle) on a many-block input where keys
    straddle block boundaries."""
    import ray.data as rd
    from hooqu_ray.pipelines.sessions import session_stats

    rng = np.random.default_rng(17)
    n = 4000
    base = np.datetime64("2024-01-01T00:00:00", "us")
    # 40 users, bursty timestamps: mostly small gaps with occasional >1h jumps
    gaps = np.where(rng.random(n) < 0.05, rng.integers(3600, 20000, n),
                    rng.integers(0, 1800, n))
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 40, n),
            "ts": base + np.cumsum(gaps).astype("timedelta64[s]"),
            "event_id": np.arange(n),
        }
    )
    # shuffle row order so the input is NOT pre-sorted
    df = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
    ds = rd.from_pandas(df).repartition(13)
    cols = ["user_id", "session_idx", "n_events", "t_start", "t_end"]
    got = (
        session_stats(ds, "user_id", "ts", gap_seconds=3600)
        .to_pandas()[cols]
        .sort_values(["user_id", "session_idx"], ignore_index=True)
    )
    ref = df.sort_values(["user_id", "ts"], ignore_index=True)
    gap = ref.groupby("user_id")["ts"].diff()
    ref["session_idx"] = (
        (gap.isna() | (gap > pd.Timedelta(seconds=3600))).astype("int64")
        .groupby(ref["user_id"]).cumsum() - 1)
    expect = (
        ref.groupby(["user_id", "session_idx"])["ts"]
        .agg(n_events="count", t_start="min", t_end="max")
        .reset_index()
    )
    pd.testing.assert_frame_equal(got, expect, check_dtype=False)


def test_session_stats_key_spanning_many_blocks(ray_session):
    """A single hot key whose events span every block must still produce
    correctly fused sessions (the boundary merge sees >2 partials)."""
    import ray.data as rd
    from hooqu_ray.pipelines.sessions import session_stats

    base = np.datetime64("2024-01-01T00:00:00", "us")
    # one user, 1000 events, a >1h break every 250 events -> 4 sessions
    secs = np.arange(1000) * 10
    secs[250:] += 7200
    secs[500:] += 7200
    secs[750:] += 7200
    df = pd.DataFrame({"user_id": np.full(1000, 5), "ts": base + secs.astype("timedelta64[s]"),
                       "event_id": np.arange(1000)})
    out = (
        session_stats(rd.from_pandas(df).repartition(20), gap_seconds=3600)
        .to_pandas()
        .sort_values("session_idx", ignore_index=True)
    )
    assert out["session_idx"].tolist() == [0, 1, 2, 3]
    assert out["n_events"].tolist() == [250, 250, 250, 250]


def test_grouped_top_k_matches_pandas(ray_session):
    import ray.data as rd
    from hooqu_ray.pipelines.relational import grouped_top_k

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 500),
            "v": rng.standard_normal(500).round(3),
            "id": np.arange(500),
        }
    )
    got = grouped_top_k(
        rd.from_pandas(df).repartition(7), "g", "v", 4, "id"
    ).to_pandas()
    expect = (
        df.sort_values(["g", "v", "id"], ascending=[True, False, True])
        .groupby("g", sort=False)
        .head(4)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), expect)


def test_grouped_top_k_distributed_fallback(ray_session, exchange_tasks):
    """Nine blocks merge through one hash exchange on the group and give
    pandas' result."""
    import ray.data as rd
    from hooqu_ray.pipelines.relational import grouped_top_k

    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "g": rng.choice([f"g{i:03d}" for i in range(80)], 3000),
            "v": rng.standard_normal(3000).round(3),
            "id": np.arange(3000),
        }
    )
    ds = rd.from_pandas(df).repartition(9)
    got = grouped_top_k(ds, "g", "v", 3, "id")
    assert exchange_tasks["exchanges"] == 1  # one distributed merge
    got = got.to_pandas().sort_values(["g", "v", "id"], ascending=[True, False, True],
                                      ignore_index=True)
    expect = (
        df.sort_values(["g", "v", "id"], ascending=[True, False, True])
        .groupby("g", sort=False)
        .head(3)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, expect)


def test_hash_sample_deterministic_and_sql_compatible(ray_session):
    import duckdb
    import ray.data as rd
    from hooqu_ray.pipelines.relational import hash_sample

    df = pd.DataFrame({"event_id": np.arange(1000), "value": np.arange(1000) * 0.5})
    got = sorted(
        hash_sample(rd.from_pandas(df), "event_id", buckets=10, keep_bucket=3)
        .to_pandas()["event_id"]
        .tolist()
    )
    expect = sorted(
        r[0]
        for r in duckdb.sql(
            "SELECT event_id FROM df WHERE CAST(concat('0x', "
            "substr(md5(CAST(event_id AS VARCHAR)), 1, 8)) AS BIGINT) % 10 = 3"
        ).fetchall()
    )
    assert got == expect
    assert 50 < len(got) < 200  # roughly 10%


def test_semi_and_anti_join_partition_rows(ray_session):
    import ray.data as rd
    from hooqu_ray.functions.joins import anti_join, semi_join

    df = pd.DataFrame({"id": np.arange(100), "k": np.arange(100) % 10})
    ds = rd.from_pandas(df).repartition(3)
    keys = pa.array([2, 5], pa.int64())
    semi = semi_join(ds, keys, "k").to_pandas()
    anti = anti_join(ds, keys, "k").to_pandas()
    assert set(semi["k"]) == {2, 5} and len(semi) == 20
    assert set(anti["k"]) == set(range(10)) - {2, 5} and len(anti) == 80
    # small side as a Dataset with key_col
    keys_ds = rd.from_pandas(pd.DataFrame({"k": [2, 5, 5]}))
    semi2 = semi_join(ds, keys_ds, "k", key_col="k").to_pandas()
    assert sorted(semi2["id"]) == sorted(semi["id"])


def test_top_ngrams_matches_pandas(ray_session):
    import ray.data as rd
    from collections import Counter
    from hooqu_ray.pipelines.textstats import top_ngrams

    rng = np.random.default_rng(9)
    vocab = ["alpha", "beta", "gamma", "delta"]
    docs = [" ".join(rng.choice(vocab, rng.integers(0, 12))) for _ in range(200)]
    df = pd.DataFrame({"doc_id": range(200), "text": docs})
    got = top_ngrams(rd.from_pandas(df).repartition(5), n=2, k=5).to_pandas()
    cnt = Counter()
    for d in docs:
        ws = d.split()
        cnt.update(" ".join(ws[i : i + 2]) for i in range(len(ws) - 1))
    expect = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(zip(got.ngram, got.n)) == expect


def test_referential_integrity(ray_session):
    import ray.data as rd
    from hooqu_ray.functions.joins import referential_integrity

    child = pd.DataFrame({"fk": [1, 2, 2, 9, None]})
    parent = pd.DataFrame({"pk": [1, 2, 3]})
    frac = referential_integrity(
        rd.from_pandas(child).repartition(2), rd.from_pandas(parent), "fk", "pk"
    )
    assert frac == 3 / 5  # 9 and null are violations
    import math

    assert math.isnan(
        referential_integrity(
            rd.from_pandas(child.iloc[0:0]), rd.from_pandas(parent), "fk", "pk"
        )
    )


class TestReservoirSample:
    def _df(self):
        rng = np.random.default_rng(5)
        return pd.DataFrame(
            {
                "event_id": np.arange(500, dtype=np.int64),
                "event_type": rng.choice(["a", "b", "c"], 500),
                "user_id": rng.integers(0, 50, 500),
            }
        )

    def _oracle(self, df, k):
        import duckdb

        return duckdb.sql(
            "WITH r AS (SELECT event_type, event_id, user_id, "
            "row_number() OVER (PARTITION BY event_type ORDER BY "
            "CAST(concat('0x', substr(md5(CAST(event_id AS VARCHAR)), 1, 8)) AS BIGINT), "
            f"event_id) AS rn FROM df) "
            f"SELECT event_type, event_id, user_id FROM r WHERE rn <= {k} "
            "ORDER BY event_type, event_id"
        ).df()

    def _got(self, df, k, ray_session, **kw):
        import ray.data as rd

        from hooqu_ray.pipelines.relational import reservoir_sample

        out = reservoir_sample(
            rd.from_pandas(df).repartition(4), "event_type", "event_id", k,
            extra_cols=("user_id",), **kw
        )
        got = out.to_pandas()
        return got[["event_type", "event_id", "user_id"]].sort_values(
            ["event_type", "event_id"], ignore_index=True
        )

    def test_matches_sql_rank(self, ray_session):
        df = self._df()
        pd.testing.assert_frame_equal(
            self._got(df, 7, ray_session), self._oracle(df, 7), check_dtype=False
        )

    def test_deterministic(self, ray_session):
        df = self._df()
        pd.testing.assert_frame_equal(
            self._got(df, 3, ray_session), self._got(df, 3, ray_session)
        )


class TestQuantileBuckets:
    def test_matches_sql_breakpoint_rule(self, ray_session):
        import duckdb
        import ray.data as rd

        from hooqu_ray.pipelines.relational import quantile_buckets

        rng = np.random.default_rng(13)
        df = pd.DataFrame(
            {
                "event_id": np.arange(400, dtype=np.int64),
                # duplicated values → breakpoint ties exercise side='right'
                "value": np.round(rng.normal(0, 10, 400), 1),
            }
        )
        got = (
            quantile_buckets(
                rd.from_pandas(df).repartition(4), "value", n_buckets=4,
                keep_cols=["event_id"],
            )
            .to_pandas()
            .sort_values("event_id", ignore_index=True)
        )
        exp = duckdb.sql(
            "WITH s AS (SELECT value AS v FROM df WHERE value IS NOT NULL), "
            "n AS (SELECT count(*) AS c FROM s), "
            "r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM s), "
            "qs AS (SELECT UNNEST([0.25, 0.5, 0.75]) AS q), "
            "i AS (SELECT q, CAST(floor(q * (c - 1)) AS BIGINT) AS k0, "
            "q * (c - 1) - floor(q * (c - 1)) AS frac FROM qs, n), "
            "kk AS (SELECT q, k0 + (CASE WHEN frac > 0.5 THEN 1 "
            "WHEN frac = 0.5 AND k0 % 2 = 1 THEN 1 ELSE 0 END) AS k FROM i), "
            "bp AS (SELECT r.v FROM r JOIN kk ON r.rn = kk.k + 1) "
            "SELECT e.event_id, CAST((SELECT count(*) FROM bp WHERE bp.v <= e.value) "
            "AS BIGINT) AS bucket FROM df e ORDER BY e.event_id"
        ).df()
        assert got["bucket"].tolist() == exp["bucket"].tolist()
        # roughly balanced quartiles
        sizes = got.groupby("bucket").size()
        assert len(sizes) == 4 and sizes.min() > 50

    def test_bad_n_buckets(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.relational import quantile_buckets

        with pytest.raises(ValueError, match="n_buckets"):
            quantile_buckets(
                rd.from_pandas(pd.DataFrame({"value": [1.0]})), "value",
                n_buckets=1,
            )


class TestPivotCounts:
    def test_matches_duckdb_case_sums(self, ray_session):
        import duckdb
        import ray.data as rd

        from hooqu_ray.pipelines.relational import pivot_counts

        rng = np.random.default_rng(21)
        df = pd.DataFrame(
            {
                "user_id": rng.integers(0, 25, 400),
                "event_type": rng.choice(["click", "view", "error"], 400),
            }
        )
        df.loc[::40, "event_type"] = None  # null col keys not counted
        got = (
            pivot_counts(rd.from_pandas(df).repartition(4), "user_id", "event_type")
            .to_pandas()
            .sort_values("user_id", ignore_index=True)
        )
        exp = duckdb.sql(
            "SELECT user_id, "
            "sum(CASE WHEN event_type='click' THEN 1 ELSE 0 END)::BIGINT AS n_click, "
            "sum(CASE WHEN event_type='error' THEN 1 ELSE 0 END)::BIGINT AS n_error, "
            "sum(CASE WHEN event_type='view' THEN 1 ELSE 0 END)::BIGINT AS n_view "
            "FROM df GROUP BY user_id ORDER BY user_id"
        ).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_max_cols_guard(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.relational import pivot_counts

        df = pd.DataFrame({"r": [1, 2, 3], "c": ["a", "b", "c"]})
        with pytest.raises(ValueError, match="max_cols"):
            pivot_counts(rd.from_pandas(df), "r", "c", max_cols=2)


class TestFunnelCounts:
    def test_strict_ordering_semantics(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.relational import funnel_counts

        base = np.datetime64("2024-01-01T00:00:00", "us")
        rows = [
            # user 1 completes A → B → C in order
            (1, base + np.timedelta64(0, "s"), "A"),
            (1, base + np.timedelta64(10, "s"), "B"),
            (1, base + np.timedelta64(20, "s"), "C"),
            # user 2: B happens BEFORE A → never reaches step 2
            (2, base + np.timedelta64(0, "s"), "B"),
            (2, base + np.timedelta64(10, "s"), "A"),
            # user 3: A and B, no C
            (3, base + np.timedelta64(0, "s"), "A"),
            (3, base + np.timedelta64(5, "s"), "B"),
            # user 4: only C
            (4, base, "C"),
        ]
        df = pd.DataFrame(rows, columns=["user_id", "ts", "step"])
        got = funnel_counts(
            rd.from_pandas(df).repartition(3), "user_id", "ts", "step",
            ["A", "B", "C"],
        ).to_pandas()
        assert got["n_keys"].tolist() == [3, 2, 1]

    def test_simultaneous_not_counted(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.relational import funnel_counts

        base = np.datetime64("2024-01-01T00:00:00", "us")
        df = pd.DataFrame(
            {"user_id": [1, 1], "ts": [base, base], "step": ["A", "B"]}
        )
        got = funnel_counts(
            rd.from_pandas(df), "user_id", "ts", "step", ["A", "B"]
        ).to_pandas()
        # ts equal: strictly-after semantics → step 2 not reached
        assert got["n_keys"].tolist() == [1, 0]

    def test_empty_tail_short_circuits(self, ray_session):
        import ray.data as rd

        from hooqu_ray.pipelines.relational import funnel_counts

        base = np.datetime64("2024-01-01T00:00:00", "us")
        df = pd.DataFrame({"user_id": [1], "ts": [base], "step": ["A"]})
        got = funnel_counts(
            rd.from_pandas(df), "user_id", "ts", "step", ["X", "A", "Y"]
        ).to_pandas()
        assert got["n_keys"].tolist() == [0, 0, 0]


def test_quantile_buckets_approx_close_to_exact(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import quantile_buckets

    rng = np.random.default_rng(31)
    df = pd.DataFrame(
        {"event_id": np.arange(4000, dtype=np.int64),
         "value": rng.normal(0, 10, 4000)}
    )
    ds = rd.from_pandas(df).repartition(4)
    exact = quantile_buckets(ds, "value", n_buckets=4,
                             keep_cols=["event_id"]).to_pandas()
    approx = quantile_buckets(ds, "value", n_buckets=4, keep_cols=["event_id"],
                              approx=True).to_pandas()
    merged = exact.merge(approx, on="event_id", suffixes=("_e", "_a"))
    agree = (merged["bucket_e"] == merged["bucket_a"]).mean()
    assert agree > 0.97  # digest rank error shifts only boundary rows


class TestGlobalRowNumber:
    def test_matches_sql_with_ties(self, ray_session):
        import duckdb
        import ray.data as rd

        from hooqu_ray.pipelines.relational import global_row_number

        rng = np.random.default_rng(17)
        df = pd.DataFrame(
            {"event_id": np.arange(2000, dtype=np.int64),
             "value": np.round(rng.normal(0, 3, 2000), 1)}
        )
        got = (
            global_row_number(rd.from_pandas(df).repartition(6), "value", "event_id")
            .to_pandas()
            .sort_values("row_number", ignore_index=True)
        )
        exp = duckdb.sql(
            "SELECT event_id, value, row_number() OVER (ORDER BY value, event_id) "
            "AS row_number FROM df ORDER BY row_number"
        ).df()
        pd.testing.assert_frame_equal(
            got[["event_id", "value", "row_number"]], exp, check_dtype=False
        )

    def test_descending(self, ray_session):
        import duckdb
        import ray.data as rd

        from hooqu_ray.pipelines.relational import global_row_number

        df = pd.DataFrame({"event_id": [1, 2, 3, 4], "value": [5.0, 1.0, 5.0, 3.0]})
        got = (
            global_row_number(
                rd.from_pandas(df).repartition(2), "value", "event_id",
                descending=True,
            )
            .to_pandas()
            .sort_values("row_number", ignore_index=True)
        )
        assert got["event_id"].tolist() == [3, 1, 4, 2]

    @pytest.mark.parametrize("descending", [False, True])
    def test_null_and_nan_order_values_match_duckdb(self, ray_session,
                                                    descending):
        """Null order values rank last and NaN above every number, in
        either direction, as DuckDB's ``row_number() OVER (ORDER BY ...)``
        ranks them (its default NULLS LAST)."""
        import duckdb
        import ray.data as rd

        from hooqu_ray.pipelines.relational import global_row_number
        from hooqu_ray.util import collect_arrow

        rng = np.random.default_rng(23)
        n = 1500
        v = np.round(rng.normal(0, 2, n), 1)
        v[rng.random(n) < 0.1] = np.nan
        t = pa.table({
            "event_id": pa.array(rng.permutation(n), pa.int64()),
            "value": pa.array(v, pa.float64(), mask=rng.random(n) < 0.1),
        })
        got = collect_arrow(global_row_number(
            rd.from_arrow(t).repartition(7), "value", "event_id",
            descending=descending)).to_pandas().sort_values(
                "row_number", ignore_index=True)
        d = "DESC" if descending else "ASC"
        exp = duckdb.sql(
            f"SELECT event_id, value, row_number() OVER (ORDER BY value {d}, "
            f"event_id {d}) AS row_number FROM t ORDER BY row_number").df()
        assert np.isnan(got["value"]).sum() > 100  # nulls and NaNs both
        pd.testing.assert_frame_equal(
            got[["event_id", "value", "row_number"]], exp, check_dtype=False)


def test_percentile_rank_accuracy(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import percentile_rank

    rng = np.random.default_rng(41)
    df = pd.DataFrame(
        {"event_id": np.arange(3000, dtype=np.int64),
         "value": rng.normal(0, 5, 3000)}
    )
    got = percentile_rank(
        rd.from_pandas(df).repartition(5), "value", keep_cols=["event_id"]
    ).to_pandas()
    exact = df.copy()
    exact["pr"] = (exact["value"].rank(method="min") - 1) / (len(df) - 1)
    m = got.merge(exact[["event_id", "pr"]], on="event_id")
    assert (m["pct_rank"] - m["pr"]).abs().max() < 0.02
    # nulls get NaN rank
    df2 = pd.DataFrame({"event_id": [0, 1], "value": [1.0, None]})
    g2 = percentile_rank(rd.from_pandas(df2), "value",
                         keep_cols=["event_id"]).to_pandas()
    assert g2.sort_values("event_id")["pct_rank"].isna().tolist() == [False, True]


def test_global_row_number_duplicate_first_pairs_guarded(ray_session):
    """All-identical rows: either the range sort lands them in one block
    (ranks well-defined — must be a dense 1..n) or several blocks share
    the same first (order, tie) pair and the ambiguity guard must raise
    rather than emit silently-wrong ranks."""
    import ray.data as rd

    from hooqu_ray.pipelines.relational import global_row_number

    df = pd.DataFrame({"v": [1.0] * 40, "t": [7] * 40})
    try:
        out = global_row_number(
            rd.from_pandas(df).repartition(4), "v", "t"
        ).to_pandas()
    except Exception as ex:  # noqa: BLE001
        assert "unique" in str(ex)
    else:
        assert sorted(out["row_number"]) == list(range(1, 41))


def test_importance_sample_deterministic_and_monotone(ray_session):
    """Keep decision is a pure function of (key, score): md5_frac < sigmoid;
    raising a row's score can only ADD it to the sample, never remove it."""
    import hashlib
    import math

    import ray.data as rd

    from hooqu_ray.pipelines.relational import importance_sample

    df = pd.DataFrame(
        {
            "doc_id": range(200),
            "score": np.linspace(-3, 3, 200),
        }
    )
    kept = importance_sample(
        rd.from_pandas(df).repartition(4), "doc_id", "score", temperature=1.0
    ).to_pandas()

    def expected(k, s):
        frac = int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16) / 4294967296.0
        return frac < 1.0 / (1.0 + math.exp(-s))

    exp = {k for k, s in zip(df["doc_id"], df["score"]) if expected(k, s)}
    assert set(kept["doc_id"]) == exp
    assert 0 < len(kept) < len(df)
    # monotone: boosting every score only grows the sample
    df2 = df.assign(score=df["score"] + 2.0)
    kept2 = importance_sample(
        rd.from_pandas(df2).repartition(4), "doc_id", "score", temperature=1.0
    ).to_pandas()
    assert set(kept["doc_id"]) <= set(kept2["doc_id"])
    # NaN scores are dropped
    df3 = df.assign(score=np.nan)
    kept3 = importance_sample(
        rd.from_pandas(df3), "doc_id", "score"
    ).to_pandas()
    assert len(kept3) == 0


def test_deterministic_shuffle_is_permutation_and_stable(ray_session):
    """Positions are the 1-based rank in (md5 bucket, key) order: an exact
    permutation, identical across runs and block layouts."""
    import hashlib

    import ray.data as rd

    from hooqu_ray.pipelines.relational import deterministic_shuffle

    df = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
    )
    a = deterministic_shuffle(
        rd.from_pandas(df).repartition(4), "doc_id"
    ).to_pandas().sort_values("doc_id", ignore_index=True)
    b = deterministic_shuffle(
        rd.from_pandas(df).repartition(9), "doc_id"
    ).to_pandas().sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(a, b)  # layout-independent
    assert sorted(a["shuffle_pos"]) == list(range(1, len(df) + 1))
    exp = df.assign(
        b=df["doc_id"].map(
            lambda k: int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16)
        )
    ).sort_values(["b", "doc_id"], ignore_index=True)
    exp["pos"] = range(1, len(exp) + 1)
    m = a.merge(exp[["doc_id", "pos"]], on="doc_id")
    assert (m["shuffle_pos"] == m["pos"]).all()
    assert "__shuffle_bucket" not in a.columns


class TestGroupedMode:
    def test_matches_pandas_min_tie(self, ray_session):
        import ray.data as rd
        import numpy as np
        import pandas as pd
        from hooqu_ray.pipelines.relational import grouped_mode

        rng = np.random.default_rng(11)
        df = pd.DataFrame({"k": rng.integers(0, 30, 4000),
                           "v": rng.integers(0, 12, 4000)})
        out = grouped_mode(
            rd.from_pandas(df).repartition(6).materialize(), "k", "v")
        got = {r["k"]: (r["mode_value"], r["n"])
               for r in out.take_all()}

        exp = {}
        for k, g in df.groupby("k"):
            vc = g.v.value_counts()
            top_n = vc.max()
            exp[k] = (min(vc[vc == top_n].index), top_n)
        assert got == exp

    def test_nulls_ignored(self, ray_session):
        import ray.data as rd
        import pandas as pd
        from hooqu_ray.pipelines.relational import grouped_mode

        df = pd.DataFrame({"k": ["a", "a", "a", None, "b"],
                           "v": [1.0, None, None, 5.0, None]})
        out = grouped_mode(rd.from_pandas(df), "k", "v")
        rows = out.take_all()
        # null values never count; group b (all null) and the null group drop
        assert rows == [{"k": "a", "mode_value": 1.0, "n": 1}]

    def test_empty_and_all_null_inputs(self, ray_session):
        """Code-review regression: an empty (or all-null-pair) input used
        to reach grouped_top_k as one schema-less block -> KeyError."""
        import ray.data as rd
        import pandas as pd
        import pyarrow as pa
        from hooqu_ray.pipelines.relational import grouped_mode

        allnull = pd.DataFrame({"k": [None, None], "v": [None, None]})
        out = grouped_mode(rd.from_pandas(allnull), "k", "v")
        assert out.count() == 0

        typed_empty = pa.table({"k": pa.array([], pa.string()),
                                "v": pa.array([], pa.int64())})
        out2 = grouped_mode(rd.from_arrow(typed_empty), "k", "v")
        assert out2.count() == 0


class TestGroupedCorr:
    def test_matches_duckdb_corr(self, ray_session):
        import duckdb
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_corr

        rng = np.random.RandomState(3)
        n = 6000
        df = pd.DataFrame({
            "g": rng.randint(0, 23, n),
            "x": rng.randn(n) * 4 + 100.0,  # offset mean exercises raw sums
            "y": rng.randn(n) * 2,
        })
        df["y"] += 0.6 * df["x"]  # induce correlation
        df.loc[rng.rand(n) < 0.07, "x"] = np.nan  # pairwise-valid rule
        df.loc[rng.rand(n) < 0.07, "y"] = np.nan
        got = grouped_corr(rd.from_pandas(df).repartition(9), "g", "x", "y") \
            .to_pandas().sort_values("g", ignore_index=True)
        exp = duckdb.sql(
            "SELECT g, corr(x, y) AS corr_xy FROM df GROUP BY g ORDER BY g"
        ).df()
        assert len(got) == len(exp)
        assert np.allclose(got["corr_xy"].to_numpy(), exp["corr_xy"].to_numpy(),
                           atol=1e-9, equal_nan=True)

    def test_degenerate_groups_null(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_corr

        df = pd.DataFrame({
            "g": ["n1", "n1", "const", "const", "single", None],
            "x": [1.0, 2.0, 5.0, 5.0, 3.0, 1.0],   # const: zero x-variance
            "y": [1.0, np.nan, 1.0, 2.0, 4.0, 1.0],  # n1: one valid pair
        })
        got = grouped_corr(rd.from_pandas(df), "g", "x", "y").to_pandas()
        got = got.set_index("g")["corr_xy"]
        assert set(got.index) == {"n1", "const", "single"}  # null key drops
        assert got.isna().all()  # n<2 or zero variance -> null (SQL parity)

    def test_empty_keeps_schema(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_corr

        # all-null keys -> legitimately empty output must keep its schema
        df = pd.DataFrame({"g": [None, None], "x": [1.0, 2.0],
                           "y": [3.0, 4.0]})
        out = grouped_corr(rd.from_pandas(df), "g", "x", "y")
        assert out.schema().names == ["g", "corr_xy"]
        assert out.count() == 0


class TestWeightedSample:
    def test_matches_duckdb_priority_order(self, ray_session):
        import duckdb
        import ray.data as rd
        from hooqu_ray.pipelines.relational import weighted_sample

        rng = np.random.RandomState(5)
        n = 3000
        df = pd.DataFrame({
            "id": np.arange(n, dtype=np.int64),
            "w": np.abs(rng.randn(n)) * 10,
        })
        df.loc[rng.rand(n) < 0.05, "w"] = 0.0       # dropped (w must be > 0)
        df.loc[rng.rand(n) < 0.05, "w"] = np.nan    # dropped
        got = weighted_sample(rd.from_pandas(df).repartition(6), "id", "w", 200) \
            .to_pandas().sort_values("id", ignore_index=True)
        exp = duckdb.sql("""
            SELECT id, w FROM (
              SELECT id, w, w / ((CAST(concat('0x',
                substr(md5(CAST(id AS VARCHAR)), 1, 8)) AS BIGINT) + 1)
                / 4294967296.0) AS q
              FROM df WHERE w > 0 ORDER BY q DESC, id LIMIT 200
            ) ORDER BY id""").df()
        assert got["id"].tolist() == exp["id"].tolist()
        assert np.allclose(got["w"].to_numpy(), exp["w"].to_numpy())

    def test_weight_proportional_bias(self, ray_session):
        """A heavy row (weight >> others) must be selected essentially
        always; with uniform weights the sample hits ~n/N of each half."""
        import ray.data as rd
        from hooqu_ray.pipelines.relational import weighted_sample

        df = pd.DataFrame({"id": np.arange(2000, dtype=np.int64),
                           "w": np.ones(2000)})
        df.loc[7, "w"] = 1e9
        got = weighted_sample(rd.from_pandas(df).repartition(4), "id", "w", 50) \
            .to_pandas()
        assert 7 in set(got["id"])
        assert len(got) == 50

    def test_empty_and_bad_n(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from hooqu_ray.pipelines.relational import weighted_sample

        e = rd.from_arrow(pa.table({"id": pa.array([], pa.int64()),
                                    "w": pa.array([], pa.float64())}))
        assert weighted_sample(e, "id", "w", 5).count() == 0
        with pytest.raises(ValueError):
            weighted_sample(e, "id", "w", 0)


class TestValueHistogram:
    def test_counts_ratio_and_null_bin(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import value_histogram

        df = pd.DataFrame({"c": ["a"] * 5 + ["b"] * 3 + [None] * 2 + ["d"]})
        got = value_histogram(rd.from_pandas(df).repartition(3), "c", k=3) \
            .to_pandas().sort_values("count", ascending=False,
                                     ignore_index=True)
        assert got["value"].tolist() == ["a", "b", "NullValue"]
        assert got["count"].tolist() == [5, 3, 2]
        assert np.allclose(got["ratio"].to_numpy(),
                           np.array([5, 3, 2]) / 11.0)

    def test_tie_break_and_int_column(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import value_histogram

        df = pd.DataFrame({"c": [10, 10, 2, 2, 33]})
        got = value_histogram(rd.from_pandas(df), "c", k=2).to_pandas()
        got = got.sort_values(["count", "value"],
                              ascending=[False, True], ignore_index=True)
        # ties (10 and 2, both count 2) break by ascending string value
        assert got["value"].tolist() == ["10", "2"]

    def test_empty_and_bad_k(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from hooqu_ray.pipelines.relational import value_histogram

        e = rd.from_arrow(pa.table({"c": pa.array([], pa.string())}))
        out = value_histogram(e, "c", k=5)
        assert out.count() == 0
        assert out.schema().names == ["value", "count", "ratio"]
        with pytest.raises(ValueError):
            value_histogram(e, "c", k=0)


class TestGroupedWeightedSample:
    def test_matches_duckdb_per_group(self, ray_session):
        import duckdb
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_weighted_sample

        rng = np.random.RandomState(8)
        n = 2500
        df = pd.DataFrame({
            "g": rng.choice(["a", "b", "c"], n),
            "id": np.arange(n, dtype=np.int64),
            "w": np.abs(rng.randn(n)) * 3,
        })
        df.loc[rng.rand(n) < 0.04, "w"] = np.nan
        df.loc[3, "g"] = None  # null group drops
        out = grouped_weighted_sample(
            rd.from_pandas(df).repartition(6), "g", "id", "w", 40)
        got = out.to_pandas().sort_values(["g", "id"], ignore_index=True)
        exp = duckdb.sql("""
            SELECT g, id, w FROM (
              SELECT g, id, w, row_number() OVER (PARTITION BY g ORDER BY
                w / ((CAST(concat('0x', substr(md5(CAST(id AS VARCHAR)), 1, 8))
                  AS BIGINT) + 1) / 4294967296.0) DESC, id) AS rn
              FROM df WHERE w > 0 AND g IS NOT NULL
            ) WHERE rn <= 40 ORDER BY g, id""").df()
        assert got["id"].tolist() == exp["id"].tolist()
        assert got["g"].tolist() == exp["g"].tolist()
        assert np.allclose(got["w"].to_numpy(), exp["w"].to_numpy())

    def test_small_group_keeps_all_and_bad_k(self, ray_session):
        import pyarrow as pa
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_weighted_sample

        df = pd.DataFrame({"g": ["x", "x", "y"], "id": [1, 2, 3],
                           "w": [1.0, 2.0, 5.0]})
        out = grouped_weighted_sample(rd.from_pandas(df), "g", "id", "w", 10)
        got = out.to_pandas().sort_values("id", ignore_index=True)
        assert got["id"].tolist() == [1, 2, 3]  # groups smaller than k keep all
        with pytest.raises(ValueError):
            grouped_weighted_sample(
                rd.from_arrow(pa.table({"g": pa.array([], pa.string()),
                                        "id": pa.array([], pa.int64()),
                                        "w": pa.array([], pa.float64())})),
                "g", "id", "w", 0)


class TestGroupedRobustStats:
    def test_matches_independent_model(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_robust_stats

        rng = np.random.RandomState(4)
        n = 4000
        df = pd.DataFrame({"g": rng.choice(["a", "b", "c", "d"], n),
                           "v": rng.standard_normal(n) * 5})
        m1 = rng.rand(n) < 0.02
        df.loc[m1, "v"] = rng.standard_normal(int(m1.sum())) * 200
        df.loc[rng.rand(n) < 0.05, "v"] = np.nan
        df.loc[5, "g"] = None  # null key drops

        got = grouped_robust_stats(
            rd.from_pandas(df).repartition(7), "g", "v"
        ).to_pandas().sort_values("g", ignore_index=True)

        def nearest_med(a):
            a = np.sort(a[~np.isnan(a)])
            vi = 0.5 * (len(a) - 1)
            k0 = int(np.floor(vi))
            frac = vi - k0
            k = k0 + (1 if (frac > 0.5 or (frac == 0.5 and k0 % 2 == 1))
                      else 0)
            return a[k]

        exp_rows = []
        for g, grp in df[df["g"].notna()].groupby("g"):
            vv = grp["v"].to_numpy(dtype=float)
            vv = vv[~np.isnan(vv)]
            med = nearest_med(vv)
            mad = nearest_med(np.abs(vv - med))
            no = (int((np.abs(0.6745 * (vv - med) / mad) > 3.5).sum())
                  if mad > 0 else 0)
            exp_rows.append((g, med, mad, no))
        exp = pd.DataFrame(exp_rows,
                           columns=["g", "median", "mad", "n_outliers"])
        assert got["g"].tolist() == exp["g"].tolist()
        assert np.allclose(got[["median", "mad"]].to_numpy(),
                           exp[["median", "mad"]].to_numpy())
        assert got["n_outliers"].tolist() == exp["n_outliers"].tolist()

    def test_zero_mad_and_constant_group(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_robust_stats

        # constant group: MAD 0 -> no outliers even with a huge spike
        # (majority-at-median group: MAD 0 by construction)
        df = pd.DataFrame({"g": ["c"] * 9 + ["c"],
                           "v": [5.0] * 9 + [1e9]})
        got = grouped_robust_stats(rd.from_pandas(df), "g", "v").to_pandas()
        assert got["median"].tolist() == [5.0]
        assert got["mad"].tolist() == [0.0]
        assert got["n_outliers"].tolist() == [0]


class TestLateReviewRegressions:
    def test_robust_stats_empty_and_all_null(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_robust_stats

        allnull = rd.from_arrow(pa.table({
            "g": pa.array(["a", "b"], pa.string()),
            "v": pa.array([None, None], pa.float64())}))
        out = grouped_robust_stats(allnull, "g", "v")
        assert out.schema().names == ["g", "median", "mad", "n_outliers"]
        assert out.count() == 0

    def test_weighted_sample_empty_keeps_dtypes(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_weighted_sample

        # every row fails the weight filter -> empty result must keep
        # the INPUT dtypes (not type-null columns)
        df = pd.DataFrame({"g": ["x"], "id": np.array([1], dtype=np.int64),
                           "w": [-1.0]})
        out = grouped_weighted_sample(rd.from_pandas(df), "g", "id", "w", 3)
        assert out.count() == 0
        schema = out.schema().base_schema
        assert schema.field("id").type == pa.int64()
        assert schema.field("w").type == pa.float64()

    def test_weighted_sample_alias_columns_raise(self, ray_session):
        import ray.data as rd
        from hooqu_ray.pipelines.relational import grouped_weighted_sample

        d = rd.from_pandas(pd.DataFrame({"g": ["x"], "w": [1.0]}))
        with pytest.raises(ValueError, match="distinct"):
            grouped_weighted_sample(d, "g", "g", "w", 3)


def _typed_input(filtered: bool) -> pa.Table:
    """Two rows every gated op drops (``filtered``: null group and conv,
    non-positive null-free weights, null values) or no rows at all."""
    n = 2 if filtered else 0
    return pa.table({
        "g": pa.array([None] * n, pa.int32()),
        "id": pa.array(range(n), pa.int64()),
        "v": pa.array([-1.0] * n, pa.float64()),
        "nv": pa.array([None] * n, pa.float64()),
        "conv_id": pa.array([None] * n, pa.string()),
        "text": pa.array(["hello there"] * n, pa.string()),
    })


def _typed_ops():
    from hooqu_ray.pipelines import relational as rel
    from hooqu_ray.pipelines import transcripts as tp
    from hooqu_ray.pipelines.cluster import dedup_keep_best

    def keep_best(ds):  # pairs name docs the corpus lacks (none if empty)
        import ray.data as rd

        n = 1 if ds.count() else 0
        pairs = pa.table({"id_a": pa.array([7] * n, pa.int64()),
                          "id_b": pa.array([8] * n, pa.int64())})
        return dedup_keep_best(ds, rd.from_arrow(pairs), id_col="id",
                               score_col="v", id_type=pa.int64())

    int32, int64, f64 = pa.int32(), pa.int64(), pa.float64()
    return {
        "grouped_top_k": (lambda ds: rel.grouped_top_k(ds, "g", "v", 2, "id"),
                          {"g": int32, "v": f64, "id": int64}),
        "reservoir_sample": (
            lambda ds: rel.reservoir_sample(ds, "g", "id", 2,
                                            extra_cols=("v",)),
            {"g": int32, "id": int64, "v": f64}),
        "grouped_mode": (lambda ds: rel.grouped_mode(ds, "g", "nv"),
                         {"g": int32, "mode_value": f64, "n": int64}),
        "grouped_weighted_sample": (
            lambda ds: rel.grouped_weighted_sample(ds, "g", "id", "v", 2),
            {"g": int32, "id": int64, "v": f64}),
        "conversation_majority_lang": (
            tp.conversation_majority_lang, {"conv_id": pa.string()}),
        "dedup_keep_best": (keep_best, {"id": int64, "v": f64}),
        "grouped_approx_quantile": (
            lambda ds: rel.grouped_approx_quantile(ds, "g", "nv", 0.5),
            {"g": int32, "q_value": f64}),
    }


@pytest.mark.parametrize("filtered", [False, True], ids=["empty",
                                                         "all_filtered"])
@pytest.mark.parametrize("op", sorted(_typed_ops()))
def test_gated_ops_return_typed_dataset_when_empty(ray_session, op, filtered):
    """Both arms of the top-k / approx-quantile gates return a Dataset; on
    the driver arm an empty result keeps the input's key/value dtypes."""
    import ray.data as rd

    from hooqu_ray.util import dataset_arrow_schema

    run, want = _typed_ops()[op]
    out = run(rd.from_arrow(_typed_input(filtered)))
    assert isinstance(out, rd.Dataset)
    if op == "dedup_keep_best":  # docs pass through: the pair ids miss
        assert out.count() == len(_typed_input(filtered))
    else:
        assert out.count() == 0
    schema = dataset_arrow_schema(out)
    assert {c: schema.field(c).type for c in want} == want
