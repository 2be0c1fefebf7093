"""tree_group_sum: per-block combine, then one hash exchange — equivalence
vs pandas groupby, one exchange per call, null-key drop parity, and
empty/edge inputs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from hooqu_ray.functions.shuffle import tree_group_sum


def _frame(n=20_000, keys=300, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "k": rng.integers(0, keys, n),
        "k2": rng.integers(0, 3, n),
        "v": rng.normal(size=n),
        "w": np.ones(n, np.int64),
    })


def _expect(df, keys, spec):
    return (df.groupby(keys, as_index=False)
            .agg(**{c: (c, f) for c, f in spec.items()}))


@pytest.mark.parametrize("nblocks", [1, 7, 64])
def test_matches_pandas_groupby(ray_session, nblocks):
    df = _frame()
    ds = rd.from_pandas(df).repartition(nblocks).materialize()
    out = tree_group_sum(ds, ["k"], ["v", "w"]).to_pandas()
    exp = _expect(df, ["k"], {"v": "sum", "w": "sum"})
    pd.testing.assert_frame_equal(
        out.sort_values("k").reset_index(drop=True), exp,
        check_like=True, atol=1e-9)


def test_multi_key_and_min_max(ray_session):
    df = _frame()
    ds = rd.from_pandas(df).repartition(16).materialize()
    out = tree_group_sum(ds, ["k", "k2"], ["v", "w"],
                         funcs=["min", "max"]).to_pandas()
    exp = _expect(df, ["k", "k2"], {"v": "min", "w": "max"})
    pd.testing.assert_frame_equal(
        out.sort_values(["k", "k2"]).reset_index(drop=True),
        exp.sort_values(["k", "k2"]).reset_index(drop=True),
        check_like=True, atol=1e-12)


def test_fallback_path_identical(ray_session, exchange_tasks):
    # 16 blocks fold through exactly one hash exchange
    df = _frame()
    ds = rd.from_pandas(df).repartition(16).materialize()
    out = tree_group_sum(ds, ["k"], ["v", "w"]).to_pandas()
    assert exchange_tasks["exchanges"] == 1, exchange_tasks
    exp = _expect(df, ["k"], {"v": "sum", "w": "sum"})
    pd.testing.assert_frame_equal(
        out.sort_values("k").reset_index(drop=True), exp,
        check_like=True, atol=1e-9)


def test_null_keys_drop_like_ray_groupby(ray_session):
    df = pd.DataFrame({"k": [1.0, None, 2.0, None, 1.0],
                       "v": [1, 2, 3, 4, 5]})
    ds = rd.from_pandas(df).repartition(2).materialize()
    out = tree_group_sum(ds, ["k"], ["v"]).to_pandas()
    assert sorted(out.k.tolist()) == [1.0, 2.0]
    assert out.set_index("k").v.to_dict() == {1.0: 6, 2.0: 3}


def test_empty_input(ray_session):
    t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    out = tree_group_sum(rd.from_arrow(t), ["k"], ["v"])
    assert out.count() == 0


def test_rejects_non_mergeable_funcs(ray_session):
    t = pa.table({"k": [1], "v": [1]})
    with pytest.raises(ValueError, match="self-mergeable"):
        tree_group_sum(rd.from_arrow(t), ["k"], ["v"], funcs=["mean"])


def test_keep_null_keys_matches_sql_group_by(ray_session, exchange_tasks):
    # drop_null_keys=False: SQL GROUP BY / Ray-groupby parity — the null
    # key is its own group: it hashes like any value, so it rides the one
    # exchange natively, with no null-split
    df = pd.DataFrame({"k": ["a", None, "a", None], "v": [1, 2, 3, 4]})
    ds = rd.from_pandas(df).repartition(2).materialize()
    out = tree_group_sum(ds, ["k"], ["v"], drop_null_keys=False).to_pandas()
    got = {(None if k is None or k != k else k): v
           for k, v in zip(out.k, out.v)}
    assert got == {"a": 4, None: 6}
    assert exchange_tasks["exchanges"] == 1, exchange_tasks


def test_hot_key_skew_no_reducer_blowup(ray_session):
    # one mega-key holding 90% of rows over 64 blocks: each block combines
    # before the exchange, so the hot key's fold sees one row per block
    rng = np.random.default_rng(4)
    n = 200_000
    k = np.where(rng.random(n) < 0.9, 7, rng.integers(100, 1100, n))
    df = pd.DataFrame({"k": k.astype(np.int64), "v": np.ones(n, np.int64)})
    ds = rd.from_pandas(df).repartition(64).materialize()
    out = tree_group_sum(ds, ["k"], ["v"]).to_pandas()
    exp = df.groupby("k", as_index=False).v.sum()
    pd.testing.assert_frame_equal(
        out.sort_values("k").reset_index(drop=True), exp, check_like=True)


def test_rerun_bit_identical(ray_session):
    # Ray task retries re-execute map fns: the fold must be deterministic
    # (same input, same result — ordering aside) across independent runs
    df = _frame(seed=9)
    ds = rd.from_pandas(df).repartition(16).materialize()
    a = tree_group_sum(ds, ["k"], ["v", "w"]).to_pandas().sort_values(
        "k", ignore_index=True)
    b = tree_group_sum(ds, ["k"], ["v", "w"]).to_pandas().sort_values(
        "k", ignore_index=True)
    pd.testing.assert_frame_equal(a, b)  # incl. float bit-equality
