"""Grouped-fold hot-key test + conversation sequence feature tests."""

import numpy as np
import pandas as pd
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
