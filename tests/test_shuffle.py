"""Grouped-fold tests (hot key, the null-safe ``group_by`` helper) +
conversation sequence feature tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_tree_group_sum_hot_key_matches_plain(ray_session):
    """The per-block combine bounds a hot key (half of all rows) to one
    partial row per block — the skew case the retired salted two-phase
    aggregate existed for."""
    import ray.data as rd

    from hooqu_ray.functions.shuffle import tree_group_sum

    rng = np.random.default_rng(11)
    n = 20_000
    # skewed: one hot key owns half the rows
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 200, n))
    df = pd.DataFrame({"user_id": keys, "value": rng.random(n).round(3)})
    res = (
        tree_group_sum(rd.from_pandas(df).repartition(8), "user_id", ["value"],
                       drop_null_keys=False)
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )
    expected = df.groupby("user_id", as_index=False)["value"].sum().sort_values(
        "user_id", ignore_index=True
    )
    assert res["user_id"].tolist() == expected["user_id"].tolist()
    np.testing.assert_allclose(res["value"], expected["value"], rtol=1e-9)


def test_conversation_features(ray_session):
    import ray.data as rd

    from hooqu_ray.pipelines import transcripts as tp
    from hooqu_ray.pipelines.synth import generate_transcripts

    table = generate_transcripts(n_convs=30, seed=21)
    feats = tp.conversation_features(rd.from_arrow(table).repartition(4)).to_pandas()
    pdf = table.to_pandas()
    assert len(feats) == pdf["conv_id"].nunique()
    sizes = pdf.groupby("conv_id").size()
    merged = feats.set_index("conv_id")
    assert (merged["n_turns"] == sizes.loc[merged.index]).all()
    # ts monotone by construction in the generator
    assert merged["ts_monotone"].all()


def test_conversation_features_matches_pandas_reference(ray_session):
    """The sort-based pass (vectorized kernel + boundary re-apply) must
    agree with a per-conversation pandas reference on adversarial input:
    conversations that straddle block boundaries, broken role
    alternation, ts regressions at and away from seams, and core-role-free
    (tool/system-only) spans."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from hooqu_ray.pipelines import transcripts as tp

    rng = np.random.default_rng(5)
    rows = []
    base = np.datetime64("2025-03-01T00:00:00", "us")
    for c in range(40):
        n = int(rng.integers(1, 30))
        roles = rng.choice(["user", "assistant", "system", "tool"], size=n,
                           p=[0.4, 0.4, 0.1, 0.1])
        ts = base + np.cumsum(rng.integers(-5, 60, size=n)).astype("timedelta64[s]")
        for i in range(n):
            rows.append((f"c{c:03d}", i, str(roles[i]), ts[i]))
    pdf = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "ts"])
    pdf["ts"] = pdf["ts"].astype("datetime64[us]")

    def per_conv(g):
        g = g.sort_values("turn_idx")
        core = [r for r in g["role"] if r in ("user", "assistant")]
        return pd.Series({
            "n_turns": len(g),
            "role_alternates": all(a != b for a, b in zip(core, core[1:])),
            "ts_monotone": bool(g["ts"].is_monotonic_increasing),
            "first_role": g["role"].iloc[0],
        })

    expect = (pdf.groupby("conv_id").apply(per_conv, include_groups=False)
              .reset_index())
    for nparts in (1, 7):
        ds = rd.from_pandas(pdf.sample(frac=1.0, random_state=3)).repartition(nparts)
        got = (
            tp.conversation_features(ds)
            .to_pandas()
            .sort_values("conv_id", ignore_index=True)
        )
        pd.testing.assert_frame_equal(got, expect[got.columns],
                                      check_dtype=False)


def _key_column(kind, rng, n):
    vals = [None if rng.random() < 0.4 else int(v) for v in rng.integers(0, 3, n)]
    if kind == "s":
        return pa.array([None if v is None else f"k{v}" for v in vals], pa.string())
    if kind == "f":
        return pa.array([None if v is None else v / 2 for v in vals], pa.float64())
    if kind == "B":
        return pa.array([None if v is None else v == 1 for v in vals], pa.bool_())
    return pa.array(vals, {"i": pa.int64(), "I": pa.int32(), "h": pa.int16()}[kind])


@pytest.mark.parametrize("kinds", ["si", "sf", "ssi", "sis", "isi", "Ii", "Bs", "hs"])
def test_group_by_null_keys_like_pandas(kinds):
    """``shuffle.group_by`` groups nullable multi-column keys the way pandas
    ``dropna=False`` does, whatever the key order, and returns the keys in
    the caller's order and types (plain pyarrow 16.1 splits the null group
    for each of these orders)."""
    from hooqu_ray.functions.shuffle import group_by

    rng = np.random.default_rng(len(kinds) * 100 + sum(map(ord, kinds)))
    keys = [f"k{j}" for j in range(len(kinds))]
    t = pa.table({k: _key_column(kind, rng, 300) for k, kind in zip(keys, kinds)}
                 | {"v": pa.array(rng.integers(0, 10, 300))})
    out = group_by(t, keys, [("v", "sum"), ([], "count_all")])
    assert out.column_names == keys + ["v_sum", "count_all"]
    assert out.schema.types[:len(keys)] == t.schema.types[:len(keys)]

    def norm(row):
        return tuple(None if pd.isna(v) else v for v in row)

    pdf = t.to_pandas()
    exp = pdf.groupby(keys, dropna=False).agg(v_sum=("v", "sum"), n=("v", "size"))
    expected = {norm(k): (s, c) for k, s, c in zip(exp.index, exp["v_sum"], exp["n"])}
    got = {norm(row[:-2]): (row[-2], row[-1])
           for row in zip(*[c.to_pylist() for c in out.columns])}
    assert got == expected


def test_setop_block_distinct_keeps_one_row_per_null_key():
    """The set ops' per-block DISTINCT (``setops._tag_side``) keeps null
    keys (SQL DISTINCT): on ``[string, int64]`` columns with nulls it
    must emit one row per distinct tuple, which plain pyarrow 16.1
    ``group_by`` does not."""
    from hooqu_ray.pipelines.setops import _tag_side

    rng = np.random.default_rng(7)
    t = pa.table({"s": _key_column("s", rng, 300), "i": _key_column("i", rng, 300)})
    out = _tag_side(["s", "i"], True)(t)
    assert len(out) == len(t.to_pandas().drop_duplicates())
    assert out.column_names == ["s", "i", "__in_a", "__in_b"]


def test_tree_group_sum_string_int_null_keys(ray_session):
    """The per-block combine groups through ``shuffle.group_by``: a
    ``[string, int64]`` key with nulls folds to the SQL GROUP BY groups."""
    import ray.data as rd

    from hooqu_ray.functions.shuffle import tree_group_sum

    rng = np.random.default_rng(5)
    t = pa.table({"s": _key_column("s", rng, 2000), "i": _key_column("i", rng, 2000),
                  "v": pa.array(np.ones(2000, dtype=np.int64))})
    res = tree_group_sum(rd.from_arrow(t).repartition(4), ["s", "i"], ["v"],
                         drop_null_keys=False).to_pandas()
    exp = t.to_pandas().groupby(["s", "i"], dropna=False)["v"].sum()
    assert len(res) == len(exp)
    assert sorted(res["v"].tolist()) == sorted(exp.tolist())
