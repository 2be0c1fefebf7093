"""One read per verification suite.

Two switches decide how many passes a suite pays:

- the quantile profile carries the finite values while there are at most
  ``quantile.COLLECT_LIMIT`` of them (answer from the scan), else the
  histogram-refinement + collect passes run;
- on Ray, the shared scan rides the first frequency fold, and falls back to
  a scan of its own when that fold raises.

Each arm is checked against pandas ``nearest`` / ``LocalRunner``."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import hooqu_ray as hq
from hooqu_ray import runner as runner_mod
from hooqu_ray.analyzers import quantile as qmod
from hooqu_ray.analyzers.quantile import (
    QuantileProfile,
    QuantileProfileBound,
    _ValuesState,
    select_nearest,
)
from hooqu_ray.runner import RayRunner, do_analysis_run
from hooqu_ray.states import merge_states

QS = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)
N = 128
BLOCKS = (1, 7, 64)


def _columns() -> pd.DataFrame:
    rng = np.random.default_rng(3)
    inf = rng.normal(size=N)
    inf[::5], inf[1::7] = np.inf, -np.inf
    nan = rng.normal(size=N)
    nan[::3] = np.nan
    zeros = rng.choice([-0.0, 0.0, -1.5, 2.5], size=N)
    subnormal = rng.integers(1, 4096, size=N) * np.finfo(np.float64).smallest_subnormal
    heavy = rng.standard_cauchy(N) * 10.0 ** rng.integers(0, 300, size=N)
    return pd.DataFrame({"equal": np.full(N, 3.25), "inf": inf, "nan": nan,
                         "zeros": zeros, "subnormal": subnormal, "heavy": heavy})


FRAMES = {
    "columns": _columns(),
    "empty": pd.DataFrame({"v": pd.Series([], dtype=np.float64)}),
    "one_row": pd.DataFrame({"v": [42.0]}),
}


def _quantiles(df):
    return [hq.Quantile(c, q) for c in df.columns for q in QS]


def _assert_matches_pandas(ctx, df):
    for a in _quantiles(df):
        got = ctx.metric_map[a].value.get()
        expected = df[a.column].quantile(a.quantile, interpolation="nearest")
        # `+ 0.0`: pandas' pick among -0.0/0.0 ties is partition order
        np.testing.assert_equal(got + 0.0, expected + 0.0, err_msg=repr(a))


def _count_selection_passes(monkeypatch):
    passes = []
    make = runner_mod._make_selection_scanner

    def counting(runner, analyzer, schema):
        scan = make(runner, analyzer, schema)
        return lambda spec: passes.append(spec[0]) or scan(spec)

    monkeypatch.setattr(runner_mod, "_make_selection_scanner", counting)
    return passes


@pytest.mark.parametrize("cap", [None, 50], ids=["values", "refine"])
@pytest.mark.parametrize("blocks", BLOCKS)
@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_quantile_both_arms_match_pandas(monkeypatch, frame, blocks, cap):
    df = FRAMES[frame]
    if cap is not None:
        monkeypatch.setattr(qmod, "COLLECT_LIMIT", cap)
    passes = _count_selection_passes(monkeypatch)
    chunk = max(1, -(-len(df) // blocks))
    ctx = do_analysis_run(df, _quantiles(df), chunk_rows=chunk)
    _assert_matches_pandas(ctx, df)
    # the values arm never runs a selection pass; the refine arm must reach
    # the histogram + collect loop on every column it cannot answer early
    if cap is None or frame != "columns":
        assert passes == []
    else:
        assert "hist" in passes and "collect" in passes


@pytest.mark.parametrize("blocks", BLOCKS)
def test_quantile_values_arm_on_ray_matches_pandas(ray_session, blocks):
    import ray.data as rd

    for df in FRAMES.values():
        ds = rd.from_pandas(df).repartition(blocks)
        _assert_matches_pandas(do_analysis_run(ds, _quantiles(df)), df)


def test_profile_drops_values_past_the_cap(monkeypatch):
    monkeypatch.setattr(qmod, "COLLECT_LIMIT", 50)
    bound = QuantileProfileBound("v")
    parts = [bound.update(pa.table({"v": np.arange(20, dtype=np.float64) + i}))
             for i in range(4)]
    assert all(p.values is not None for p in parts)
    merged = None
    for i, p in enumerate(parts):
        merged = merge_states(merged, p)
        assert (merged.values is None) == (20 * (i + 1) > 50)
    # once dropped, a merge with a small profile cannot bring values back
    assert merge_states(merged, parts[0]).values is None
    big = bound.update(pa.table({"v": np.arange(60, dtype=np.float64)}))
    assert big.values is None and big.n_valid == 60


def test_select_nearest_raises_on_inconsistent_passes():
    profile = QuantileProfile(10, 0, 0, 0.0, 9.0)  # no values: scanner path

    def stub(spec):
        assert spec[0] == "collect"
        return _ValuesState(np.array([1.0, 2.0]).tobytes())

    with pytest.raises(ValueError, match="inconsistent"):
        select_nearest(profile, 0.9, stub)


def test_inconsistent_collect_is_a_failure_metric(monkeypatch):
    """A collect pass that sees different data than the profile (e.g. a
    nondeterministic upstream) is a Failure, never Success(NaN)."""
    monkeypatch.setattr(qmod, "COLLECT_LIMIT", 5)
    make = runner_mod._make_selection_scanner

    def corrupting(runner, analyzer, schema):
        scan = make(runner, analyzer, schema)
        return lambda spec: _ValuesState(b"") if spec[0] == "collect" else scan(spec)

    monkeypatch.setattr(runner_mod, "_make_selection_scanner", corrupting)
    a = hq.Quantile("v", 0.5)
    value = do_analysis_run(pd.DataFrame({"v": np.arange(40.0)}), [a]).metric_map[a].value
    assert value.isFailure and "inconsistent" in str(value.failed().get())


def _fused_table() -> pa.Table:
    rng = np.random.default_rng(11)
    n = 700
    k1 = rng.choice(["a", "b", "c", None], size=n, p=[0.4, 0.3, 0.2, 0.1])
    k2 = pa.array([None if r < 0.1 else f"u{i}" for r, i in
                   zip(rng.random(n), rng.integers(0, 40, size=n))])
    t = pa.table({"k1": pa.array(k1, pa.string()), "k2": k2,
                  "v": rng.normal(10, 3, size=n),
                  "flag": rng.choice(["A", "N", "R"], size=n)})
    # rows 300..399: every grouping key null
    null_keys = np.zeros(n, dtype=bool)
    null_keys[300:400] = True
    mask = pa.array(null_keys)
    return t.set_column(0, "k1", pa.compute.if_else(mask, None, t["k1"])) \
            .set_column(1, "k2", pa.compute.if_else(mask, None, t["k2"]))


FUSED_SUITE = [
    hq.Size(where="v > 10"),
    hq.Mean("v", where="flag == 'A'"),
    hq.Maximum("v"),
    hq.Completeness("k1"),
    hq.Compliance("poisoned", "v.bogus() > 1"),  # raises per block
    hq.Uniqueness(["k1", "k2"], where="flag != 'R'"),  # hosts the scan
    hq.Distinctness(["k1", "k2"], where="flag != 'R'"),  # counts groups
    hq.Distinctness(["k1"]),
    hq.Entropy(["k2"], where="v > 8"),
    hq.MutualInformation(["k1", "flag"], where="v > 9"),
    hq.Quantile("v", 0.5, where="flag == 'N'"),
    hq.Quantile("v", 0.9),
]


def _assert_same_metrics(got, expected, analyzers):
    for a in analyzers:
        g, e = got.metric_map[a].value, expected.metric_map[a].value
        assert g.isSuccess == e.isSuccess, (a, g, e)
        if e.isSuccess:
            np.testing.assert_allclose(g.get(), e.get(), rtol=1e-9,
                                       err_msg=repr(a))


@pytest.mark.parametrize("blocks", BLOCKS)
def test_fused_scan_matches_local(ray_session, blocks):
    import ray.data as rd

    t = _fused_table()
    size = -(-len(t) // blocks)
    # block-aligned slices: with 7 blocks, block 3 holds only null keys
    ds = rd.from_arrow([t.slice(i, size) for i in range(0, len(t), size)])
    ctx = do_analysis_run(ds, FUSED_SUITE)
    local = do_analysis_run(t, FUSED_SUITE)
    _assert_same_metrics(ctx, local, FUSED_SUITE)
    assert ctx.metric_map[FUSED_SUITE[4]].value.isFailure


def test_fused_fold_failure_falls_back_to_a_scan(ray_session, monkeypatch):
    import ray.data as rd

    def boom(self, plan, columns, predicate):
        raise RuntimeError("fused fold failed")

    monkeypatch.setattr(RayRunner, "scan_and_frequencies", boom)
    t = _fused_table()
    scan = [hq.Mean("v"), hq.Size(where="flag == 'A'"), hq.Quantile("v", 0.5)]
    uniq = hq.Uniqueness(["k1"])
    ctx = do_analysis_run(rd.from_arrow(t).repartition(4), scan + [uniq])
    _assert_same_metrics(ctx, do_analysis_run(t, scan), scan)
    value = ctx.metric_map[uniq].value
    assert value.isFailure and "fused fold failed" in str(value.failed().get())


def test_grouping_where_error_keeps_scan_metrics(ray_session):
    """A where-filter that raises inside the fused projection fails only
    the grouping analyzer; the scan metrics come from the fallback scan."""
    import ray.data as rd

    t = _fused_table()
    scan = [hq.Mean("v"), hq.Quantile("v", 0.25)]
    bad = hq.Uniqueness(["k1"], where="v.bogus() > 1")
    ctx = do_analysis_run(rd.from_arrow(t).repartition(4), scan + [bad])
    local = do_analysis_run(t, scan + [bad])
    _assert_same_metrics(ctx, local, scan + [bad])
    assert ctx.metric_map[bad].value.isFailure
    assert not math.isnan(ctx.metric_map[scan[0]].value.get())
