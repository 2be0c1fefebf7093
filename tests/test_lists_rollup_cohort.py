"""Unit tests for explode (UNNEST w/ ordinality), rollup_agg (GROUP BY
ROLLUP) and cohort_retention — pinned semantics: null/empty lists emit
nothing, rollup levels compose from the finest aggregate, cohorts are
first-seen periods over distinct (key, period) pairs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# -- explode -----------------------------------------------------------------

def test_explode_positions_and_null_semantics(ray_session):
    import ray.data as rd

    from hooqu_ray.functions.lists import explode

    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "xs": pa.array(
                [[10, 20, 30], [], None, [7]], pa.list_(pa.int64())
            ),
        }
    )
    out = (
        explode(rd.from_arrow(t), "xs", ["id"])
        .to_pandas()
        .sort_values(["id", "pos"], ignore_index=True)
    )
    # null and empty lists emit NO rows (SQL UNNEST)
    assert out.values.tolist() == [
        [1, 0, 10],
        [1, 1, 20],
        [1, 2, 30],
        [4, 0, 7],
    ]


def test_explode_fixed_size_list_and_base(ray_session):
    import ray.data as rd

    from hooqu_ray.functions.lists import explode

    fsl = pa.FixedSizeListArray.from_arrays(
        pa.array([1.0, 2.0, 3.0, 4.0], pa.float32()), 2
    )
    t = pa.table({"id": pa.array([10, 11], pa.int64()), "v": fsl})
    out = (
        explode(rd.from_arrow(t), "v", ["id"], base=1)
        .to_pandas()
        .sort_values(["id", "pos"], ignore_index=True)
    )
    assert out["pos"].tolist() == [1, 2, 1, 2]
    assert out["el"].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_explode_rejects_non_list(ray_session):
    import ray.data as rd

    from hooqu_ray.functions.lists import explode

    t = pa.table({"id": pa.array([1]), "v": pa.array(["x"])})
    with pytest.raises(Exception, match="not a list"):
        explode(rd.from_arrow(t), "v", ["id"]).materialize()


# -- rollup ------------------------------------------------------------------

def _rollup_frame():
    return pd.DataFrame(
        {
            "a": ["x", "x", "x", "y", "y"],
            "b": ["p", "p", "q", "p", "q"],
            "v": [1.0, 2.0, 4.0, 8.0, 16.0],
        }
    )


def test_rollup_levels_match_pandas(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import rollup_agg

    out = (
        rollup_agg(rd.from_pandas(_rollup_frame()), ["a", "b"], "v")
        .to_pandas()
        .sort_values(["level", "a", "b"], ignore_index=True)
    )
    got = {
        (r.a, r.b, r.level): (r.sum_value, r.n) for r in out.itertuples()
    }
    assert got[("x", "p", 2)] == (3.0, 2)
    assert got[("x", "q", 2)] == (4.0, 1)
    assert got[("y", "p", 2)] == (8.0, 1)
    assert got[("y", "q", 2)] == (16.0, 1)
    assert got[("x", "ALL", 1)] == (7.0, 3)
    assert got[("y", "ALL", 1)] == (24.0, 2)
    assert got[("ALL", "ALL", 0)] == (31.0, 5)
    assert len(got) == 7


def test_rollup_single_column(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import rollup_agg

    out = (
        rollup_agg(rd.from_pandas(_rollup_frame()), ["a"], "v")
        .to_pandas()
        .sort_values(["level", "a"], ignore_index=True)
    )
    assert out[["a", "level", "sum_value", "n"]].values.tolist() == [
        [u"ALL", 0, 31.0, 5],
        [u"x", 1, 7.0, 3],
        [u"y", 1, 24.0, 2],
    ]


# -- cohort retention --------------------------------------------------------

def test_cohort_retention_weekly(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import cohort_retention

    base = np.datetime64("2024-01-01T12:00:00", "us")  # a Monday
    wk = np.timedelta64(7, "D")
    rows = [
        # user 1: weeks 0, 1, 2 (duplicate events within a week collapse)
        (1, base), (1, base), (1, base + wk), (1, base + 2 * wk),
        # user 2: first seen week 1, active week 2
        (2, base + wk), (2, base + 2 * wk),
        # user 3: week 0 only
        (3, base),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    out = (
        cohort_retention(
            rd.from_pandas(df), "user_id", "ts", unit="week", fmt="%Y-%m-%d"
        )
        .to_pandas()
        .sort_values(["cohort", "period"], ignore_index=True)
    )
    assert out.values.tolist() == [
        ["2024-01-01", "2024-01-01", 2],
        ["2024-01-01", "2024-01-08", 1],
        ["2024-01-01", "2024-01-15", 1],
        ["2024-01-08", "2024-01-08", 1],
        ["2024-01-08", "2024-01-15", 1],
    ]


def test_cohort_retention_null_keys_dropped(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.relational import cohort_retention

    df = pd.DataFrame(
        {
            "user_id": pd.array([1, None], dtype="Int64"),
            "ts": [np.datetime64("2024-01-01", "us")] * 2,
        }
    )
    out = cohort_retention(rd.from_pandas(df), "user_id", "ts").to_pandas()
    assert out["n_users"].sum() == 1


# -- drift (PSI) ---------------------------------------------------------------

def test_drift_report_psi_semantics(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.drift import drift_report

    ref = pd.DataFrame({"v": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]})
    # new snapshot: mass shifted up, one value beyond the ref range (clamps
    # into the top bucket), one below (clamps into bucket 0)
    new = pd.DataFrame({"v": [9.0, 9.5, 12.0, -3.0]})
    out = drift_report(
        rd.from_pandas(ref), rd.from_pandas(new), "v", n_buckets=5
    ).to_pandas()
    assert out["bucket"].tolist() == [0, 1, 2, 3, 4]
    assert out["n_ref"].sum() == 10 and out["n_new"].sum() == 4
    # clamped rows: -3.0 → bucket 0, 12.0 → bucket 4
    assert out["n_new"].tolist() == [1, 0, 0, 0, 3]
    # PSI contribution formula: (pr - pn) * ln(pr / pn) with eps for zeros
    pr = np.where(out["p_ref"].to_numpy() == 0, 1e-6, out["p_ref"].to_numpy())
    pn = np.where(out["p_new"].to_numpy() == 0, 1e-6, out["p_new"].to_numpy())
    np.testing.assert_allclose(out["psi"].to_numpy(), (pr - pn) * np.log(pr / pn))
    assert out["psi"].sum() > 0.25  # an obvious drift trips the retrain gate


def test_drift_report_rejects_constant_reference(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines.drift import drift_report

    const = pd.DataFrame({"v": [1.0, 1.0, 1.0]})
    with pytest.raises(ValueError, match="no bucketable"):
        drift_report(rd.from_pandas(const), rd.from_pandas(const), "v")


def test_cohort_retention_forced_hash_join_gate(ray_session, monkeypatch):
    """COHORT_BROADCAST_MAX_KEYS=0 forces the distributed hash_join stamp;
    the matrix must be identical to the broadcast path."""
    import ray.data as rd

    from hooqu_ray.functions import joins
    from hooqu_ray.pipelines import relational
    from hooqu_ray.pipelines.relational import cohort_retention

    stamps = []
    hash_join = joins.hash_join
    monkeypatch.setattr(joins, "hash_join", lambda *a, **kw: (
        stamps.append(1) or hash_join(*a, **kw)))

    base = np.datetime64("2024-01-01T12:00:00", "us")
    wk = np.timedelta64(7, "D")
    rows = [(u, base + (u % 3) * wk) for u in range(1, 30)] + [
        (u, base + 3 * wk) for u in range(1, 30, 2)
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    kw = dict(unit="week", fmt="%Y-%m-%d")
    a = (
        cohort_retention(rd.from_pandas(df), "user_id", "ts", **kw)
        .to_pandas().sort_values(["cohort", "period"], ignore_index=True)
    )
    assert not stamps  # the default gate broadcasts the cohort table
    monkeypatch.setattr(relational, "COHORT_BROADCAST_MAX_KEYS", 0)
    b = (
        cohort_retention(rd.from_pandas(df), "user_id", "ts", **kw)
        .to_pandas().sort_values(["cohort", "period"], ignore_index=True)
    )
    assert stamps == [1]
    assert a.equals(b)
    assert a["n_users"].sum() == len(rows)  # every (user, week) distinct here
