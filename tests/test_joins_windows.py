"""Unit tests for the round-3 operators: as-of join, rolling window mean,
dimension-enrichment join, stratified hash sampling, grouped approximate
quantile.  Each has a many-block differential so the boundary-merge paths
are exercised, not just the single-block fast path."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ---------------------------------------------------------------- asof join


def _asof_oracle(events: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
    """Row-at-a-time re-derivation of the as-of semantics: latest order at
    or before each event's ts per user, ties by largest o_orderkey."""
    rows = []
    for e in events.itertuples():
        if pd.isna(e.user_id) or pd.isna(e.ts):
            continue
        cand = orders[
            (orders.o_custkey == e.user_id) & (orders.o_orderdate <= e.ts)
        ]
        if len(cand):
            best = cand.sort_values(
                ["o_orderdate", "o_orderkey"], ascending=[False, False]
            ).iloc[0]
            rows.append((e.event_id, best.o_orderkey))
        else:
            rows.append((e.event_id, None))
    return (
        pd.DataFrame(rows, columns=["event_id", "o_orderkey"])
        .astype({"o_orderkey": "float64"})
        .sort_values("event_id", ignore_index=True)
    )


def _asof_frames(n_users=7, n_events=160, n_orders=60, seed=11):
    rng = np.random.default_rng(seed)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    events = pd.DataFrame(
        {
            "event_id": np.arange(n_events, dtype=np.int64),
            "user_id": rng.integers(0, n_users, n_events).astype("int64"),
            "ts": base + rng.integers(0, 10_000, n_events).astype("timedelta64[s]"),
        }
    )
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(n_orders, dtype=np.int64),
            "o_custkey": rng.integers(0, n_users + 2, n_orders).astype("int64"),
            "o_orderdate": base
            + rng.integers(0, 10_000, n_orders).astype("timedelta64[s]"),
        }
    )
    # force ts ties: several orders share one timestamp for one user
    orders.loc[:3, "o_custkey"] = 0
    orders.loc[:3, "o_orderdate"] = base + np.timedelta64(500, "s")
    events.loc[0, ["user_id", "ts"]] = [0, base + np.timedelta64(500, "s")]
    return events, orders


def _run_asof(events, orders, ray_blocks):
    import ray.data as rd

    from hooqu_ray.pipelines.asof import asof_join

    lds = rd.from_pandas(events).repartition(ray_blocks)
    rds = rd.from_pandas(orders).repartition(max(1, ray_blocks // 2))
    out = asof_join(
        lds, rds, "user_id", "o_custkey", "ts", "o_orderdate",
        ["event_id"], ["o_orderkey"],
    ).to_pandas()
    return (
        out[["event_id", "o_orderkey"]]
        .astype({"event_id": "int64", "o_orderkey": "float64"})
        .sort_values("event_id", ignore_index=True)
    )


def test_asof_join_matches_oracle_many_blocks(ray_session):
    events, orders = _asof_frames()
    expected = _asof_oracle(events, orders)
    for blocks in (1, 13):  # single block and key-straddling blocks
        got = _run_asof(events, orders, blocks)
        pd.testing.assert_frame_equal(got, expected)


def test_asof_join_hot_key_sparse_states(ray_session):
    """Skew path: ONE key owns nearly all probes and its only states sit at
    the very front of the time axis, so with many blocks almost every block
    is 100% pending — the broadcast-context repair must still finish every
    probe (the old groupby(key) repair funnelled all of these into a single
    group task)."""
    base = np.datetime64("2024-01-01T00:00:00", "us")
    n = 400
    events = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": np.r_[np.full(n - 4, 9), [1, 1, 2, 2]].astype("int64"),
            "ts": base + (np.arange(n) + 100).astype("timedelta64[s]"),
        }
    )
    orders = pd.DataFrame(
        {
            "o_orderkey": [70, 71, 80],
            "o_custkey": [9, 9, 1],
            "o_orderdate": [base, base + np.timedelta64(50, "s"), base],
        }
    )
    got = _run_asof(events, orders, 19)
    expected = _asof_oracle(events, orders)
    pd.testing.assert_frame_equal(got, expected)
    # every hot-key probe resolved to the latest front state
    hot = got[got.event_id < n - 4]
    assert (hot.o_orderkey == 71.0).all()


def test_asof_join_half_hot_key_over_64_blocks(ray_session, monkeypatch):
    """One user holds exactly half the probes and a third of the states,
    over 64 probe blocks: its rows span several ranges of the exchange,
    and each range's halo must still resolve every probe.  Then over
    about 26 ranges (``BUCKET_MAX_ROWS`` = 50) with the user's states
    thinned to its three earliest, so a probe's match sits several ranges
    back and reaches it only through halos composed over the ranges in
    between."""
    import ray
    import ray.data as rd

    from hooqu_ray.functions import shuffle

    events, orders = _asof_frames(n_users=40, n_events=1280, n_orders=300,
                                  seed=12)
    events.loc[: len(events) // 2 - 1, "user_id"] = 3
    orders.loc[: len(orders) // 3, "o_custkey"] = 3
    events = events.sample(frac=1, random_state=0, ignore_index=True)
    got = _run_asof(events, orders, 64)
    pd.testing.assert_frame_equal(got, _asof_oracle(events, orders))
    hot = got.event_id.isin(events.event_id[events.user_id == 3])
    assert got.o_orderkey[hot].notna().sum() > 100

    monkeypatch.setattr(shuffle, "BUCKET_MAX_ROWS", 50)
    ranges = shuffle.range_exchange(
        rd.from_pandas(events).repartition(64),
        [("user_id", "ascending"), ("ts", "ascending")])
    assert sum(3 in t.column("user_id").to_pylist()
               for t in ray.get(ranges.to_arrow_refs())) >= 3
    hot_states = orders[orders.o_custkey == 3].sort_values("o_orderdate")
    sparse = orders.drop(hot_states.index[3:])
    got = _run_asof(events, sparse, 64)
    pd.testing.assert_frame_equal(got, _asof_oracle(events, sparse))
    last = hot_states.o_orderkey.iloc[2]
    assert (got.o_orderkey[hot] == last).sum() > 300


def test_asof_join_tie_and_boundary_semantics(ray_session):
    base = np.datetime64("2024-01-01T00:00:00", "us")
    events = pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4],
            "user_id": [5, 5, 5, pd.NA],
            "ts": [
                base,                                # before any order -> null
                base + np.timedelta64(100, "s"),     # tie: orders 11 & 12 at 100s
                base + np.timedelta64(99, "s"),      # strictly before both
                base,                                # null user -> dropped
            ],
        }
    ).astype({"user_id": "Int64"})
    orders = pd.DataFrame(
        {
            "o_orderkey": [11, 12],
            "o_custkey": [5, 5],
            "o_orderdate": [base + np.timedelta64(100, "s")] * 2,
        }
    )
    got = _run_asof(events.dropna().astype({"user_id": "int64"}), orders, 1)
    by_id = dict(zip(got.event_id, got.o_orderkey))
    assert np.isnan(by_id[1])
    assert by_id[2] == 12.0  # ties at equal ts -> largest orderkey
    assert np.isnan(by_id[3])


def test_asof_join_empty_sides(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.asof import asof_join

    base = np.datetime64("2024-01-01T00:00:00", "us")
    events = pd.DataFrame(
        {"event_id": [1], "user_id": [5], "ts": [base]}
    )
    orders = pd.DataFrame(
        {"o_orderkey": [11], "o_custkey": [5], "o_orderdate": [base]}
    )
    # empty right side: every probe survives with a null payload
    got = asof_join(
        rd.from_pandas(events),
        rd.from_pandas(orders).filter(lambda r: False),
        "user_id", "o_custkey", "ts", "o_orderdate",
        ["event_id"], ["o_orderkey"],
    ).to_pandas()
    assert len(got) == 1 and got["o_orderkey"].isna().all()
    # empty left side: no output rows
    got = asof_join(
        rd.from_pandas(events).filter(lambda r: False),
        rd.from_pandas(orders),
        "user_id", "o_custkey", "ts", "o_orderdate",
        ["event_id"], ["o_orderkey"],
    ).to_pandas()
    assert len(got) == 0


def test_single_key_spans_all_blocks(ray_session):
    """One key owning the whole table across many blocks exercises every
    boundary path of the window ops at maximum depth."""
    import ray.data as rd

    from hooqu_ray.pipelines.windows import rolling_mean, time_window_mean

    n = 120
    base = np.datetime64("2024-01-01T00:00:00", "us")
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": np.zeros(n, dtype=np.int64),
            "ts": base + np.arange(n).astype("timedelta64[s]"),
            "value": np.arange(n, dtype=np.float64),
        }
    )
    ds = rd.from_pandas(df).repartition(11)
    rm = rolling_mean(ds, "user_id", "ts", "event_id", "value", 4).to_pandas()
    exp = df["value"].rolling(4, min_periods=1).mean()
    got = rm.sort_values("event_id", ignore_index=True)["rolling_mean"]
    assert np.allclose(got, exp)
    tw = time_window_mean(ds, "user_id", "ts", "event_id", "value", 3.0).to_pandas()
    tw = tw.sort_values("event_id", ignore_index=True)
    assert np.allclose(tw["tw_mean"], _time_window_oracle(df, 3.0)["tw_mean"])


# ------------------------------------------------------------ interval join


def _interval_oracle(points: pd.DataFrame, ivals: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for p in points.dropna(subset=["k", "ts"]).itertuples():
        for i in ivals.itertuples():
            if i.ik == p.k and i.start <= p.ts < i.end:
                rows.append((p.pid, i.payload))
    return pd.DataFrame(rows, columns=["pid", "payload"]).sort_values(
        ["pid", "payload"], ignore_index=True
    )


def test_interval_join_overlapping_matches_bruteforce(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.intervals import interval_join

    rng = np.random.default_rng(13)
    n, m = 400, 60
    points = pd.DataFrame(
        {
            "pid": np.arange(n, dtype=np.int64),
            "k": rng.integers(0, 6, n).astype("int64"),
            "ts": rng.integers(0, 1000, n).astype("float64"),
        }
    )
    ivals = pd.DataFrame(
        {
            "ik": rng.integers(0, 8, m).astype("int64"),
            "start": rng.integers(0, 900, m).astype("float64"),
            "payload": np.arange(m, dtype=np.int64),
        }
    )
    ivals["end"] = ivals["start"] + rng.integers(1, 400, m)  # overlapping
    got = (
        interval_join(
            rd.from_pandas(points).repartition(7), rd.from_pandas(ivals),
            "k", "ik", "ts", "start", "end", ["payload"],
        )
        .to_pandas()[["pid", "payload"]]
        .astype({"pid": "int64", "payload": "int64"})
        .sort_values(["pid", "payload"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(got, _interval_oracle(points, ivals))
    assert len(got) > n  # overlap produced real many-to-many fan-out


def test_interval_join_empty_interval_side(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.intervals import interval_join

    points = rd.from_pandas(
        pd.DataFrame({"pid": [1], "k": [1], "ts": [5.0]})
    )
    ivals = rd.from_pandas(
        pd.DataFrame({"ik": [1], "start": [0.0], "end": [10.0],
                      "payload": [9]})
    ).filter(lambda r: False)  # becomes empty at execution time
    out = interval_join(points, ivals, "k", "ik", "ts", "start", "end",
                        ["payload"]).to_pandas()
    assert len(out) == 0


def test_interval_join_disjoint_fast_path(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.intervals import interval_join

    points = pd.DataFrame(
        {"pid": [1, 2, 3, 4], "k": [1, 1, 1, 2],
         "ts": [5.0, 15.0, 25.0, 5.0]}
    )
    ivals = pd.DataFrame(
        {"ik": [1, 1, 2], "start": [0.0, 10.0, 100.0],
         "end": [10.0, 20.0, 200.0], "payload": [100, 200, 300]}
    )
    for disjoint in (False, True):
        got = interval_join(
            rd.from_pandas(points), rd.from_pandas(ivals),
            "k", "ik", "ts", "start", "end", ["payload"],
            assume_disjoint=disjoint,
        ).to_pandas().sort_values("pid", ignore_index=True)
        # pid 3 falls after both windows, pid 4's key has no covering window
        assert got["pid"].tolist() == [1, 2]
        assert got["payload"].tolist() == [100, 200]


# ------------------------------------------------------------- rolling mean


def _rolling_oracle(df: pd.DataFrame, w: int) -> pd.DataFrame:
    df = df.dropna(subset=["user_id", "ts"]).sort_values(["user_id", "ts", "event_id"])
    out = df.copy()
    out["rolling_mean"] = (
        df.groupby("user_id")["value"]
        .transform(lambda s: s.rolling(w, min_periods=1).mean())
    )
    return out[["event_id", "rolling_mean"]].sort_values(
        "event_id", ignore_index=True
    )


def test_rolling_mean_matches_pandas_many_blocks(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.windows import rolling_mean

    rng = np.random.default_rng(3)
    n = 300
    base = np.datetime64("2024-01-01T00:00:00", "us")
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 9, n).astype("int64"),
            "ts": base + np.arange(n).astype("timedelta64[s]"),
            "value": rng.normal(size=n),
        }
    )
    df.loc[rng.choice(n, 30, replace=False), "value"] = np.nan  # null skipping
    for w, blocks in ((3, 1), (3, 17), (1, 17), (5, 17)):
        got = (
            rolling_mean(
                rd.from_pandas(df).repartition(blocks),
                "user_id", "ts", "event_id", "value", w,
            )
            .to_pandas()[["event_id", "rolling_mean"]]
            .sort_values("event_id", ignore_index=True)
        )
        pd.testing.assert_frame_equal(got, _rolling_oracle(df, w), atol=1e-12)


def test_rolling_mean_all_null_window_is_null(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.windows import rolling_mean

    base = np.datetime64("2024-01-01T00:00:00", "us")
    df = pd.DataFrame(
        {
            "event_id": [0, 1, 2],
            "user_id": [1, 1, 1],
            "ts": base + np.arange(3).astype("timedelta64[s]"),
            "value": [np.nan, np.nan, 6.0],
        }
    )
    got = (
        rolling_mean(rd.from_pandas(df), "user_id", "ts", "event_id", "value", 2)
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )
    assert np.isnan(got["rolling_mean"].iloc[0])  # all-null window
    assert np.isnan(got["rolling_mean"].iloc[1])
    assert got["rolling_mean"].iloc[2] == 6.0     # null neighbor skipped


# -------------------------------------------------------- time window mean


def _time_window_oracle(df: pd.DataFrame, span_s: float) -> pd.DataFrame:
    df = df.dropna(subset=["user_id", "ts"])
    span = pd.Timedelta(seconds=span_s)
    rows = []
    for p in df.itertuples():
        w = df[(df.user_id == p.user_id) & (df.ts >= p.ts - span) & (df.ts <= p.ts)]
        rows.append((p.event_id, w["value"].mean(), len(w)))
    return pd.DataFrame(rows, columns=["event_id", "tw_mean", "tw_n"]).astype(
        {"tw_n": "int64"}
    ).sort_values("event_id", ignore_index=True)


def test_time_window_mean_matches_bruteforce_many_blocks(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.windows import time_window_mean

    rng = np.random.default_rng(17)
    n = 250
    base = np.datetime64("2024-01-01T00:00:00", "us")
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 5, n).astype("int64"),
            # dense ties: a few shared timestamps so peer inclusion is tested
            "ts": base + rng.integers(0, 40, n).astype("timedelta64[s]"),
            "value": rng.normal(size=n),
        }
    )
    df.loc[rng.choice(n, 25, replace=False), "value"] = np.nan
    expected = _time_window_oracle(df, 10.0)
    for blocks in (1, 23):  # windows much wider than a block at 23 blocks
        got = (
            time_window_mean(
                rd.from_pandas(df).repartition(blocks),
                "user_id", "ts", "event_id", "value", 10.0,
            )
            .to_pandas()[["event_id", "tw_mean", "tw_n"]]
            .astype({"event_id": "int64", "tw_n": "int64"})
            .sort_values("event_id", ignore_index=True)
        )
        pd.testing.assert_frame_equal(got, expected, atol=1e-12)


# -------------------------------------------------------------- enrich join


def test_enrich_join_left_and_inner(ray_session):
    import ray.data as rd

    from hooqu_ray.functions.joins import enrich_join

    facts = pd.DataFrame({"k": [1, 2, 3, 2], "x": [10.0, 20.0, 30.0, 40.0]})
    dim = pa.table({"dk": [1, 2], "seg": ["a", "b"]})
    left = (
        enrich_join(rd.from_pandas(facts), dim, "k", "dk", ["seg"])
        .to_pandas()
        .sort_values(["k", "x"], ignore_index=True)
    )
    assert left["seg"].tolist() == ["a", "b", "b", None]
    inner = enrich_join(
        rd.from_pandas(facts), dim, "k", "dk", ["seg"], how="inner"
    ).to_pandas()
    assert len(inner) == 3 and set(inner["seg"]) == {"a", "b"}


def test_enrich_join_rejects_duplicate_dim_keys(ray_session):
    import ray.data as rd

    from hooqu_ray.functions.joins import enrich_join

    facts = rd.from_pandas(pd.DataFrame({"k": [1]}))
    dim = pa.table({"dk": [1, 1], "seg": ["a", "b"]})
    with pytest.raises(ValueError, match="duplicate"):
        enrich_join(facts, dim, "k", "dk", ["seg"])
    with pytest.raises(KeyError, match="not found"):
        enrich_join(facts, pa.table({"dk": [1]}), "k", "dk", ["missing"])


# -------------------------------------------------------- stratified sample


def _md5_bucket_py(v) -> int:
    return int(hashlib.md5(str(v).encode()).hexdigest()[:8], 16)


def test_stratified_sample_exact_thresholds(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import stratified_sample

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "event_id": np.arange(2000, dtype=np.int64),
            "event_type": rng.choice(["click", "view", "error"], 2000),
        }
    )
    rates = {"click": 0.5, "view": 0.1, "error": 1.0}
    got = (
        stratified_sample(
            rd.from_pandas(df).repartition(5),
            "event_type", "event_id", rates, buckets=1000,
        )
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )
    thr = {s: int(round(r * 1000)) for s, r in rates.items()}
    keep = df[
        df.apply(
            lambda r: _md5_bucket_py(r.event_id) % 1000 < thr[r.event_type], axis=1
        )
    ].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, keep)
    # all three strata present and error kept whole
    assert (got.event_type == "error").sum() == (df.event_type == "error").sum()


def test_stratified_sample_default_rate_and_null_stratum(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import stratified_sample

    df = pd.DataFrame(
        {"event_id": [1, 2, 3], "event_type": ["click", "other", None]}
    )
    got = stratified_sample(
        rd.from_pandas(df), "event_type", "event_id",
        {"click": 1.0}, buckets=10, default_rate=0.0,
    ).to_pandas()
    assert got["event_id"].tolist() == [1]  # unknown + null strata dropped


# --------------------------------------------------- grouped approx quantile


def _quantile_gate_arms(monkeypatch):
    """Run the loop body once per merge arm: the default gate (driver
    merge), then the gate constant at 0 (distributed merge).  A spy on the
    distributed merge asserts the arm each pass took."""
    from hooqu_ray.pipelines import relational

    merges = []
    merge = relational._distributed_quantile_merge
    monkeypatch.setattr(relational, "_distributed_quantile_merge",
                        lambda *a: merges.append(1) or merge(*a))
    yield
    assert not merges
    monkeypatch.setattr(relational, "QUANTILE_DRIVER_MAX_GROUPS", 0)
    yield
    assert merges == [1]


def test_grouped_approx_quantile_accuracy_and_paths(ray_session, monkeypatch):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import grouped_approx_quantile

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 5000),
            "v": np.abs(rng.lognormal(4.0, 1.0, 5000)),
        }
    )
    exact = df.groupby("g")["v"].quantile(0.5)
    # driver path and distributed merge path
    for _ in _quantile_gate_arms(monkeypatch):
        res = grouped_approx_quantile(
            rd.from_pandas(df).repartition(6), "g", "v", 0.5)
        out = res.to_pandas().sort_values("g", ignore_index=True)
        assert out["g"].tolist() == ["a", "b", "c"]
        for _, row in out.iterrows():
            rel = abs(row.q_value - exact[row.g]) / exact[row.g]
            assert rel < 0.01, (row.g, row.q_value, exact[row.g])


def test_grouped_approx_quantile_dense_groups_exact(ray_session, monkeypatch):
    """Round-5 vectorization pin: groups smaller than the digest compression
    keep one centroid per value, so the estimate is EXACT (np.interp
    midpoint semantics) — checked against the same interpolation in pandas,
    on both the driver and the distributed bucketed-exchange merge path.
    10k groups × ~10 rows is the high-group-density shape the old per-group
    Python loop was slowest on (9.9× measured, BASELINE.md)."""
    import ray.data as rd

    from hooqu_ray.pipelines.relational import grouped_approx_quantile

    rng = np.random.default_rng(13)
    n = 100_000
    df = pd.DataFrame({
        "g": [f"g{i:05d}" for i in rng.integers(0, 10_000, n)],
        "v": rng.normal(100.0, 25.0, n),
    })

    def interp_median(s):
        v = np.sort(s.to_numpy(dtype=np.float64))
        cum = np.arange(len(v)) + 0.5
        return float(np.interp(0.5 * len(v), cum, v))

    exact = df.groupby("g")["v"].apply(interp_median)
    for _ in _quantile_gate_arms(monkeypatch):
        res = grouped_approx_quantile(
            rd.from_pandas(df).repartition(8), "g", "v", 0.5)
        out = res.to_pandas()
        assert len(out) == exact.size
        got = out.set_index("g")["q_value"]
        # single-block groups (all rows of a group land in one block) are
        # exact; multi-block groups interleave centroids and stay within
        # a tight bound — both far inside the 1%-of-exact oracle gate
        rel = (got - exact).abs() / exact.abs()
        assert rel.max() < 0.005, rel.sort_values().tail()


def test_grouped_approx_quantile_null_groups_dropped(ray_session, monkeypatch):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import grouped_approx_quantile

    df = pd.DataFrame({"g": ["a", None, "a", None, "b"],
                       "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    for _ in _quantile_gate_arms(monkeypatch):
        res = grouped_approx_quantile(
            rd.from_pandas(df).repartition(2), "g", "v", 0.5)
        assert sorted(res.to_pandas().g) == ["a", "b"]


class TestHashJoin:
    """Distributed bucketed hash join (functions.joins.hash_join) vs DuckDB."""

    def _frames(self):
        import numpy as np
        import pandas as pd

        rng = np.random.default_rng(3)
        l = pd.DataFrame(
            {
                "k": rng.integers(0, 50, 400).astype("float64"),
                "lv": np.arange(400, dtype=np.int64),
            }
        )
        l.loc[::97, "k"] = None
        r = pd.DataFrame(
            {
                "rk": rng.integers(0, 60, 120),
                "rv": [f"v{i}" for i in range(120)],
                "lv": rng.integers(0, 9, 120),  # name collision → lv_r
            }
        )
        return l, r

    def test_inner_matches_duckdb(self, ray_session):
        import duckdb
        import pandas as pd
        import ray.data as rd

        from hooqu_ray.functions.joins import hash_join

        l, r = self._frames()
        got = hash_join(
            rd.from_pandas(l).repartition(5), rd.from_pandas(r).repartition(3),
            on="k", right_on="rk", how="inner",
        ).to_pandas().sort_values(["k", "lv", "rv"], ignore_index=True)
        exp = duckdb.sql(
            "SELECT l.k, l.lv, r.rv, r.lv AS lv_r FROM l JOIN r ON l.k = r.rk "
            "ORDER BY l.k, l.lv, r.rv"
        ).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_left_matches_duckdb(self, ray_session):
        import duckdb
        import pandas as pd
        import ray.data as rd

        from hooqu_ray.functions.joins import hash_join

        l, r = self._frames()
        got = hash_join(
            rd.from_pandas(l).repartition(5), rd.from_pandas(r).repartition(3),
            on="k", right_on="rk", how="left",
        ).to_pandas().sort_values(
            ["k", "lv", "rv"], ignore_index=True, na_position="last"
        )
        exp = duckdb.sql(
            "SELECT l.k, l.lv, r.rv, r.lv AS lv_r FROM l LEFT JOIN r ON l.k = r.rk "
            "ORDER BY l.k NULLS LAST, l.lv, r.rv NULLS LAST"
        ).df()
        assert len(got) == len(exp)
        # null-key left rows survive unmatched; matched values identical
        pd.testing.assert_frame_equal(
            got.fillna({"rv": ""}), exp.fillna({"rv": ""}), check_dtype=False
        )

    def test_int_float_key_mix_buckets_align(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from hooqu_ray.functions.joins import hash_join

        l = pd.DataFrame({"k": pd.array([1.0, 2.0, 3.0], dtype="float64"),
                          "lv": [1, 2, 3]})
        r = pd.DataFrame({"k": pd.array([1, 2, 4], dtype="int64"),
                          "rv": ["a", "b", "c"]})
        got = hash_join(
            rd.from_pandas(l), rd.from_pandas(r), on="k"
        ).to_pandas().sort_values("lv", ignore_index=True)
        assert got["rv"].tolist() == ["a", "b"]

    def test_bad_how_raises(self, ray_session):
        import pandas as pd
        import pytest
        import ray.data as rd

        from hooqu_ray.functions.joins import hash_join

        with pytest.raises(ValueError, match="how"):
            hash_join(
                rd.from_pandas(pd.DataFrame({"k": [1]})),
                rd.from_pandas(pd.DataFrame({"k": [1]})),
                on="k", how="outer",
            )


class TestHoppingWindow:
    def test_matches_duckdb_union_derivation(self, ray_session):
        import duckdb
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from hooqu_ray.pipelines.windows import hopping_window_agg

        H = 10_000_000  # 10s hop, 30s window → 3 windows per event
        base = np.datetime64("2024-03-01T00:00:00", "us")
        rng = np.random.default_rng(23)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b"], 300),
                "ts": base + (rng.integers(0, 120, 300) * 1_000_000).astype(
                    "timedelta64[us]"
                ),
                "v": np.round(rng.normal(0, 2, 300), 3),
            }
        )
        got = hopping_window_agg(
            rd.from_pandas(df).repartition(4), "k", "ts", "v", 3 * H, H
        ).to_pandas()
        got["avg_value"] = got["avg_value"].round(6)
        got = got.sort_values(["k", "w_start"], ignore_index=True)
        exp = duckdb.sql(
            f"WITH e AS (SELECT k, epoch_us(ts) AS t, v FROM df), "
            f"x AS (SELECT k, v, CAST(floor(t / {H}) AS BIGINT) * {H} AS ws FROM e "
            f"UNION ALL SELECT k, v, (CAST(floor(t / {H}) AS BIGINT) - 1) * {H} AS ws FROM e "
            f"UNION ALL SELECT k, v, (CAST(floor(t / {H}) AS BIGINT) - 2) * {H} AS ws FROM e) "
            "SELECT k, make_timestamp(ws) AS w_start, count(*)::BIGINT AS n, "
            "ROUND(avg(v), 6) AS avg_value FROM x GROUP BY k, ws ORDER BY k, w_start"
        ).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_tumbling_special_case(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from hooqu_ray.pipelines.windows import hopping_window_agg

        base = np.datetime64("2024-03-01T00:00:00", "us")
        df = pd.DataFrame(
            {"k": ["a"] * 4,
             "ts": base + (np.array([0, 5, 10, 15]) * 1_000_000).astype(
                 "timedelta64[us]"),
             "v": [1.0, 2.0, 3.0, 4.0]}
        )
        H = 10_000_000
        got = hopping_window_agg(
            rd.from_pandas(df), "k", "ts", "v", H, H
        ).to_pandas().sort_values("w_start", ignore_index=True)
        assert got["n"].tolist() == [2, 2]
        assert got["avg_value"].tolist() == [1.5, 3.5]

    def test_invalid_params(self, ray_session):
        import pandas as pd
        import pytest
        import ray.data as rd

        from hooqu_ray.pipelines.windows import hopping_window_agg

        with pytest.raises(ValueError, match="multiple"):
            hopping_window_agg(
                rd.from_pandas(pd.DataFrame({"k": [], "ts": [], "v": []})),
                "k", "ts", "v", 15, 10,
            )

    def test_null_values_count_but_skip_avg(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from hooqu_ray.pipelines.windows import hopping_window_agg

        base = np.datetime64("2024-03-01T00:00:00", "us")
        df = pd.DataFrame(
            {"k": ["a", "a", "b"],
             "ts": [base, base + np.timedelta64(1, "s"), base],
             "v": [2.0, None, None]}
        )
        H = 10_000_000
        got = hopping_window_agg(
            rd.from_pandas(df), "k", "ts", "v", H, H
        ).to_pandas().sort_values("k", ignore_index=True)
        # n counts the null-value row; avg skips it; all-null window → null
        assert got["n"].tolist() == [2, 1]
        assert got["avg_value"].tolist()[0] == 2.0
        assert pd.isna(got["avg_value"].tolist()[1])


class TestWindowedCountDistinct:
    def test_matches_duckdb_bucket(self, ray_session):
        import duckdb
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from hooqu_ray.pipelines.windows import windowed_count_distinct

        rng = np.random.RandomState(3)
        n = 5000
        df = pd.DataFrame({
            "ts": pd.to_datetime(rng.randint(0, 86400 * 3, n), unit="s"),
            "u": rng.randint(0, 200, n),
        })
        df.loc[3, "ts"] = None   # dropped
        df.loc[5, "u"] = None    # not counted
        # 90-minute windows exercise the generic epoch floor (not a
        # date_trunc unit)
        got = windowed_count_distinct(
            rd.from_pandas(df).repartition(7), "ts", "u", 5400.0
        ).to_pandas().sort_values("window_start", ignore_index=True)
        exp = duckdb.sql("""
            SELECT to_timestamp(floor(epoch(ts) / 5400) * 5400)
                     AT TIME ZONE 'UTC' AS window_start,
                   CAST(count(DISTINCT u) AS BIGINT) AS n_distinct
            FROM df WHERE ts IS NOT NULL
            GROUP BY window_start ORDER BY window_start""").df()
        assert len(got) == len(exp)
        assert got["n_distinct"].tolist() == exp["n_distinct"].tolist()
        assert (pd.to_datetime(got["window_start"]).to_numpy()
                == pd.to_datetime(exp["window_start"]).to_numpy()).all()

    def test_bad_window(self, ray_session):
        import pandas as pd
        import pytest
        import ray.data as rd
        from hooqu_ray.pipelines.windows import windowed_count_distinct

        d = rd.from_pandas(pd.DataFrame({"ts": [1], "u": [1]}))
        with pytest.raises(ValueError):
            windowed_count_distinct(d, "ts", "u", 0)


class TestWindowedCountDistinctEmptyBlocks:
    def test_int_values_with_empty_block(self, ray_session):
        """An empty input block must not degrade the int64 value column to
        the old hardcoded string fallback (mixed-schema union crash)."""
        import numpy as np
        import pandas as pd
        import ray.data as rd
        from hooqu_ray.pipelines.windows import windowed_count_distinct

        df = pd.DataFrame({
            "ts": pd.to_datetime(np.arange(100), unit="s"),
            "u": np.arange(100, dtype=np.int64) % 7,
        })
        # repartition far beyond the row count guarantees empty blocks
        ds = rd.from_pandas(df).repartition(150)
        got = windowed_count_distinct(ds, "ts", "u", 60.0).to_pandas()
        assert got["n_distinct"].sum() == 7 * 2  # two full minutes
