"""Every keyed aggregate in ``hooqu_ray`` runs through the grouped folds of
``hooqu_ray.functions.shuffle`` (``tree_group_sum`` / ``tree_distinct`` /
``bucketed_group_fold``), all on its one ``hash_exchange``: "tree" below
is ``tree_group_sum`` (a per-block combine in the split tasks, then one
combine per bucket), "bucketed" is ``bucketed_group_fold`` (a projection,
then one fold per bucket).  This module checks each op that carries such
a fold site:

- empty input raises nothing, and an op whose empty result was typed
  keeps that schema;
- the same rows in 1 and in 7 blocks give identical results;
- a fixture with null keys and a hot key (in every block) matches a
  pandas reference that applies the op's documented null-key policy.

Sites (module: op → fold): setops ``_setop`` → bucketed max/max (null
rows equal); scoring ``_vocab_counts_in`` → tree; drift ``_bucket_counts``
→ tree; cms ``heavy_hitters`` → tree + tree_distinct; windows
``hopping_window_agg`` → tree; textstats ``quality_by_source`` → tree
(null source is a group); dedup ``_hot_survivor_shards`` (band keys) →
bucketed, ``embedding_cosine_pairs`` → tree, ``dup_rate_by_source`` →
bucketed + tree; relational ``funnel_counts`` → tree min (a null key
counts once at step 1), ``grouped_zscore`` / ``grouped_minmax`` → tree,
``rollup_agg`` → tree per level (null group kept), ``cohort_retention``
→ tree_distinct + tree min + tree count; similarity ``grouped_vector_mean``
→ tree; transcripts ``_write_dropped_index_distributed`` → bucketed
(null convs drop).

The module also pins the Ray behaviour the deleted empty-block guards
relied on, and that no module under ``hooqu_ray/`` calls Ray's
``groupby().aggregate``/``.count()`` directly.
"""

import ast
import functools
import hashlib
import os
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

BASE_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00
HOUR_US = 3_600_000_000
N_ROWS = 280
N_BLOCKS = 7
DIM = 8


def _fixture() -> pa.Table:
    rng = np.random.default_rng(17)
    n = N_ROWS
    keys = [f"u{k}" for k in rng.integers(0, 9, n)]
    keys = ["u_hot" if rng.random() < 0.4 else k for k in keys]
    keys = [None if rng.random() < 0.08 else k for k in keys]
    grps = [None if rng.random() < 0.08 else f"s{k}"
            for k in rng.integers(0, 4, n)]
    vals = rng.integers(-8, 9, n) / 4.0
    vals = [None if rng.random() < 0.1 else float(v) for v in vals]
    words = ["alpha", "beta", "gamma", "delta", "the", "of", "data"]
    texts = [" ".join(rng.choice(words, int(rng.integers(3, 8))))
             for _ in range(n)]
    texts = [t if i % 5 else texts[i // 5 % 11] for i, t in enumerate(texts)]
    texts = [None if i % 23 == 0 else t for i, t in enumerate(texts)]
    base = rng.integers(-8, 9, (40, DIM)) / 4.0
    base[np.all(base == 0, axis=1)] = 1.0
    emb_rows = base[np.arange(n) % 40]
    emb = pa.FixedSizeListArray.from_arrays(
        pa.array(emb_rows.ravel(), pa.float64()), DIM)
    # ~4 months of timestamps so cohorts span several periods
    ts = BASE_US + rng.integers(0, 120 * 24, n) * HOUR_US \
        + rng.integers(0, HOUR_US, n)
    t = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "key": pa.array(keys, pa.string()),
        "grp": pa.array(grps, pa.string()),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "value": pa.array(vals, pa.float64()),
        "step": pa.array(rng.choice(["view", "cart", "buy"], n).tolist()),
        "text": pa.array(texts, pa.string()),
        "emb": emb,
    })
    return t


TABLE = _fixture()
DF = TABLE.to_pandas()


def _dataset(table: pa.Table, n_blocks: int):
    import ray.data as rd

    if n_blocks == 1 or len(table) == 0:
        return rd.from_arrow(table)
    bounds = np.linspace(0, len(table), n_blocks + 1).astype(int)
    return rd.from_arrow([table.slice(a, b - a)
                          for a, b in zip(bounds[:-1], bounds[1:])])


def _frame(out) -> pd.DataFrame:
    """Canonical pandas form of an op result: columns sorted, rows sorted
    on the non-float columns first (nulls last), floats rounded to 9
    decimals."""
    if isinstance(out, pa.Table):
        df = out.to_pandas()
    elif isinstance(out, pd.DataFrame):
        df = out
    else:
        df = out.to_pandas()
    df = df[sorted(df.columns)].copy()
    floats = [c for c in df.columns if df[c].dtype.kind == "f"]
    for c in floats:
        df[c] = df[c].round(9)
    order = [c for c in df.columns if c not in floats] + floats
    if order:
        df = df.sort_values(order, na_position="last", ignore_index=True)
    return df


def _null(x):
    return x is None or (isinstance(x, float) and np.isnan(x)) or x is pd.NaT


def _assert_same(got: pd.DataFrame, want):
    want = _frame(want)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    for c in got.columns:
        for g, w in zip(got[c].tolist(), want[c].tolist()):
            if _null(g) or _null(w):
                assert _null(g) and _null(w), (c, g, w)
            elif isinstance(g, float) or isinstance(w, float):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9), (c, g, w)
            else:
                assert g == w, (c, g, w)


# ---------------------------------------------------------------- runners


def _setop(kind):
    def run(ds, table):
        from hooqu_ray.pipelines import setops

        def side(drop):
            return _dataset(table.filter(pc.not_equal(table.column("step"),
                                                      drop)), ds.num_blocks())

        side_a, side_b = side("buy"), side("view")
        fn = {"union": setops.union_distinct,
              "intersect": setops.intersect_distinct,
              "except": setops.except_distinct}[kind]
        return fn(side_a, side_b, ["key", "grp"])

    def ref(df):
        def rows(sub):
            return {(k, g) for k, g in zip(sub["key"], sub["grp"])}

        a, b = rows(df[df["step"] != "buy"]), rows(df[df["step"] != "view"])
        keep = {"union": a | b, "intersect": a & b, "except": a - b}[kind]
        return pd.DataFrame(sorted(keep, key=repr), columns=["key", "grp"])

    return run, ref


VOCAB = ["alpha", "the", "data", "zeta"]


def _vocab_run(ds, table):
    import ray

    from hooqu_ray.pipelines.scoring import _vocab_counts_in

    counts, total = _vocab_counts_in(ds, "text", ray.put(pa.array(VOCAB)))
    return pa.concat_tables([counts, pa.table({
        "token": pa.array(["<total>"]), "n": pa.array([total], pa.int64())})])


def _vocab_ref(df):
    toks = [w for t in df["text"] for w in (t or "").split()]
    counts = pd.Series(toks).value_counts()
    rows = [(w, int(counts[w])) for w in VOCAB if w in counts]
    rows.append(("<total>", len(toks)))
    return pd.DataFrame(rows, columns=["token", "n"])


DRIFT_LO, DRIFT_W, DRIFT_K = -1.5, 0.5, 6


def _drift_run(ds, table):
    from hooqu_ray.pipelines.drift import _bucket_counts

    out = _bucket_counts(ds, "value", DRIFT_LO, DRIFT_W, DRIFT_K)
    return pd.DataFrame({"bucket": np.arange(DRIFT_K), "n": out})


def _drift_ref(df):
    v = df["value"].dropna().to_numpy()
    codes = np.clip(np.floor((v - DRIFT_LO) / DRIFT_W).astype(np.int64),
                    0, DRIFT_K - 1)
    return pd.DataFrame({"bucket": np.arange(DRIFT_K),
                         "n": np.bincount(codes, minlength=DRIFT_K)})


def _heavy_run(ds, table):
    from hooqu_ray.pipelines.cms import heavy_hitters

    return heavy_hitters(ds, "key", 5)


def _heavy_ref(df):
    vc = df["key"].dropna().value_counts()
    top = sorted(vc.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    return pd.DataFrame(top, columns=["key", "est_count"])


HOP_WINDOW_US, HOP_US = 4 * HOUR_US, 2 * HOUR_US


def _hopping_run(ds, table):
    from hooqu_ray.pipelines.windows import hopping_window_agg

    return hopping_window_agg(ds, "key", "ts", "value", HOP_WINDOW_US, HOP_US)


def _hopping_ref(df):
    rows = []
    for k, ts, v in zip(df["key"], df["ts"], df["value"]):
        if k is None:
            continue
        us = int(pd.Timestamp(ts).value // 1000)
        for i in range(us // HOP_US - HOP_WINDOW_US // HOP_US + 1,
                       us // HOP_US + 1):
            rows.append((k, i * HOP_US, v))
    x = pd.DataFrame(rows, columns=["key", "ws", "v"])
    g = x.groupby(["key", "ws"])
    out = pd.DataFrame({"n": g.size(), "avg_value": g["v"].mean()}) \
        .reset_index()
    out["w_start"] = pd.to_datetime(out["ws"], unit="us")
    return out[["key", "w_start", "n", "avg_value"]]


def _quality_run(ds, table):
    from hooqu_ray.pipelines.textstats import quality_by_source

    return quality_by_source(ds, "text", "grp")


def _quality_ref(df):
    from hooqu_ray.pipelines.textstats import TOKEN_PATTERN, quality_stage

    q = quality_stage(TABLE, "text").to_pandas()
    q["n_tok"] = pc.fill_null(pc.count_substring_regex(
        TABLE.column("text"), pattern=TOKEN_PATTERN), 0).to_numpy()
    g = q.groupby("grp", dropna=False)
    out = pd.DataFrame({
        "n_docs": g.size(),
        "avg_chars": g["q_n_chars"].mean(),
        "avg_tokens": g["n_tok"].mean(),
        "avg_symbol_ratio": g["q_symbol_ratio"].mean(),
        "avg_stopword_ratio": g["q_stopword_ratio"].mean(),
    }).reset_index()
    out["grp"] = out["grp"].astype(object).where(out["grp"].notna(), None)
    return out


def _lsh_run(ds, table):
    from hooqu_ray.functions import shuffle
    from hooqu_ray.pipelines import dedup

    # _DRIVER_BANDS_MAX=0 forces the distributed bucketed band-key count,
    # witnessed by its bucketed_group_fold call
    folds = []
    fold = shuffle.bucketed_group_fold
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dedup, "_DRIVER_BANDS_MAX", 0)
        mp.setattr(shuffle, "bucketed_group_fold",
                   lambda *a, **kw: folds.append(1) or fold(*a, **kw))
        out = dedup.minhash_lsh_pairs(ds, "text", "doc_id", num_perm=32,
                                      bands=8)
    assert bool(folds) == (len(table) > 0)
    return out


def _lsh_ref(df):
    """The driver-side arm of the same adaptive switch (numpy dup-run scan
    of the collected band table) — the distributed arm must agree."""
    import ray.data as rd

    from hooqu_ray.pipelines.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(rd.from_arrow(TABLE), "text", "doc_id",
                             num_perm=32, bands=8).to_pandas()


def _cosine_run(ds, table):
    from hooqu_ray.pipelines.dedup import embedding_cosine_pairs

    out = embedding_cosine_pairs(ds, 0.999, DIM, "emb", "doc_id").to_pandas()
    return out[["id_a", "id_b"]].astype("int64") if len(out) else out


def _cosine_ref(df):
    base = df["doc_id"] % 40
    pairs = [(a, b) for a in df["doc_id"] for b in df["doc_id"]
             if a < b and base[a] == base[b]]
    return pd.DataFrame(pairs, columns=["id_a", "id_b"])


def _duprate_run(ds, table):
    from hooqu_ray.pipelines.dedup import dup_rate_by_source

    return dup_rate_by_source(ds, "text", "grp")


def _duprate_ref(df):
    x = df[df["grp"].notna()].copy()
    x["fp"] = [hashlib.md5((t or "").encode()).hexdigest() for t in x["text"]]
    g = x.groupby("grp")
    out = pd.DataFrame({"n_docs": g.size(), "n_unique": g["fp"].nunique()})
    out["dup_frac"] = (1.0 - out["n_unique"] / out["n_docs"]).round(6)
    return out.reset_index()


FUNNEL = ["view", "cart", "buy"]


def _funnel_run(ds, table):
    from hooqu_ray.pipelines.relational import funnel_counts

    return funnel_counts(ds, "key", "ts", "step", FUNNEL)


def _funnel_ref(df):
    first = df[df["step"] == FUNNEL[0]].groupby(
        "key", dropna=False)["ts"].min()
    counts = [len(first)]
    prev = first[first.index.notna()]
    for step in FUNNEL[1:]:
        ev = df[(df["step"] == step) & df["key"].isin(prev.index)]
        ev = ev[ev["ts"] > ev["key"].map(prev)]
        prev = ev.groupby("key")["ts"].min()
        counts.append(len(prev))
    return pd.DataFrame({"step_idx": np.arange(1, 4), "step": FUNNEL,
                         "n_keys": counts})


def _zscore_run(ds, table):
    from hooqu_ray.pipelines.relational import grouped_zscore

    return grouped_zscore(ds, "grp", "value").select_columns(
        ["doc_id", "zscore"])


def _zscore_ref(df):
    g = df.groupby("grp")["value"]
    mean, std = g.transform("mean"), g.transform(lambda s: s.std(ddof=0))
    z = (df["value"] - mean) / std.where(std > 0)
    return pd.DataFrame({"doc_id": df["doc_id"], "zscore": z})


def _minmax_run(ds, table):
    from hooqu_ray.pipelines.relational import grouped_minmax

    return grouped_minmax(ds, "grp", "value").select_columns(
        ["doc_id", "minmax"])


def _minmax_ref(df):
    g = df.groupby("grp")["value"]
    lo, hi = g.transform("min"), g.transform("max")
    rng = (hi - lo).where(hi > lo)
    return pd.DataFrame({"doc_id": df["doc_id"],
                         "minmax": (df["value"] - lo) / rng})


def _rollup_run(ds, table):
    from hooqu_ray.pipelines.relational import rollup_agg

    return rollup_agg(ds, ["grp", "step"], "value")


def _rollup_ref(df):
    def level(cols):
        g = df.groupby(cols, dropna=False)["value"]
        out = pd.DataFrame({"sum_value": g.sum(min_count=1),
                            "n": g.count()}).reset_index()
        for c in ("grp", "step"):
            if c not in cols:
                out[c] = "ALL"
            else:
                out[c] = out[c].astype(object).where(out[c].notna(), None)
        out["level"] = len(cols)
        return out

    grand = pd.DataFrame({"grp": ["ALL"], "step": ["ALL"], "level": [0],
                          "sum_value": [df["value"].sum()],
                          "n": [df["value"].count()]})
    return pd.concat([level(["grp", "step"]), level(["grp"]), grand],
                     ignore_index=True)


def _cohort_run(ds, table):
    from hooqu_ray.pipelines.relational import cohort_retention

    return cohort_retention(ds, "key", "ts")


def _cohort_ref(df):
    x = df[df["key"].notna()].copy()
    x["per"] = x["ts"].dt.strftime("%Y-%m")
    pairs = x[["key", "per"]].drop_duplicates()
    pairs["cohort"] = pairs["key"].map(pairs.groupby("key")["per"].min())
    out = pairs.groupby(["cohort", "per"]).size().reset_index(name="n_users")
    return out.rename(columns={"per": "period"})


def _vecmean_run(ds, table):
    from hooqu_ray.pipelines.similarity import grouped_vector_mean

    return grouped_vector_mean(ds, "emb", "grp")


def _vecmean_ref(df):
    x = df[df["grp"].notna()]
    rows = []
    for g, sub in x.groupby("grp"):
        m = np.stack(sub["emb"].to_list()).astype(np.float64).mean(axis=0)
        rows += [(g, p, round(float(v), 6)) for p, v in enumerate(m)]
    return pd.DataFrame(rows, columns=["grp", "pos", "mean"])


def _partials_table(table: pa.Table) -> pa.Table:
    """Conv-stat partials as the flagship's sidecar pass writes them: one
    row per (block, conv); ``key`` stands in for the conversation id."""
    kept = pc.fill_null(pc.greater(table.column("value"), 0.75), False)
    return pa.table({
        "conv_id": table.column("key"),
        "kept_partial": pc.cast(kept, pa.int64()),
        "total_partial": pa.array(np.ones(len(table), np.int64)),
    })


def _dropped_run(ds, table):
    import tempfile

    import pyarrow.parquet as pq

    from hooqu_ray.pipelines import transcripts as tp

    with tempfile.TemporaryDirectory(prefix="fold_sites_") as root:
        parts = os.path.join(root, "partials")
        out = os.path.join(root, "dropped")
        os.makedirs(parts)
        blocks = ds.num_blocks() if len(table) else 1
        bounds = np.linspace(0, len(table), blocks + 1).astype(int)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            pq.write_table(_partials_table(table.slice(a, b - a)),
                           os.path.join(parts, f"p{i}.parquet"))
        tp._write_dropped_index_distributed(parts, out, 4)
        ids = [c for f in sorted(os.listdir(out)) if f.endswith(".arrow")
               for c in pa.ipc.open_file(os.path.join(out, f)).read_all()
               .column("conv_id").to_pylist()]
    return pd.DataFrame({"conv_id": pd.Series(ids, dtype=object)})


def _dropped_ref(df):
    from hooqu_ray.pipelines.transcripts import _conv_ok

    p = _partials_table(TABLE).to_pandas()
    g = p.groupby("conv_id").sum()
    bad = g.index[~_conv_ok(g["kept_partial"], g["total_partial"])]
    return pd.DataFrame({"conv_id": pd.Series(sorted(bad), dtype=object)})


OPS = {
    "union_distinct": _setop("union"),
    "intersect_distinct": _setop("intersect"),
    "except_distinct": _setop("except"),
    "vocab_counts": (_vocab_run, _vocab_ref),
    "drift_bucket_counts": (_drift_run, _drift_ref),
    "heavy_hitters": (_heavy_run, _heavy_ref),
    "hopping_window_agg": (_hopping_run, _hopping_ref),
    "quality_by_source": (_quality_run, _quality_ref),
    "minhash_lsh_distributed": (_lsh_run, _lsh_ref),
    "embedding_cosine_pairs": (_cosine_run, _cosine_ref),
    "dup_rate_by_source": (_duprate_run, _duprate_ref),
    "funnel_counts": (_funnel_run, _funnel_ref),
    "grouped_zscore": (_zscore_run, _zscore_ref),
    "grouped_minmax": (_minmax_run, _minmax_ref),
    "rollup_agg": (_rollup_run, _rollup_ref),
    "cohort_retention": (_cohort_run, _cohort_ref),
    "grouped_vector_mean": (_vecmean_run, _vecmean_ref),
    "dropped_index_distributed": (_dropped_run, _dropped_ref),
}

# Typed results on empty input (the schema each op already had before its
# fold moved onto the shared primitives); every other op may return a
# schema-less empty dataset.
EMPTY_SCHEMAS = {
    "vocab_counts": [("n", "int64"), ("token", "string")],
    "heavy_hitters": [("est_count", "int64"), ("key", "string")],
    "minhash_lsh_distributed": [("est_jaccard", "double"),
                                ("id_a", "double"), ("id_b", "double")],
    "funnel_counts": [("n_keys", "int64"), ("step", "string"),
                      ("step_idx", "int64")],
    "rollup_agg": [("grp", "string"), ("level", "int64"), ("n", "int64"),
                   ("step", "string"), ("sum_value", "double")],
}


@functools.lru_cache(maxsize=None)
def _result(op: str, n_blocks: int) -> pd.DataFrame:
    run, _ = OPS[op]
    return _frame(run(_dataset(TABLE, n_blocks), TABLE))


@pytest.mark.parametrize("op", sorted(OPS))
def test_empty_input(ray_session, op):
    run, _ = OPS[op]
    empty = TABLE.slice(0, 0)
    out = run(_dataset(empty, 1), empty)
    if isinstance(out, pd.DataFrame):
        assert len(out) in (0, DRIFT_K, len(FUNNEL))
        return
    if isinstance(out, pa.Table):
        schema = out.schema
    else:
        schema = out.schema()
        if schema is not None:
            schema = pa.schema([pa.field(n, t) for n, t in
                                zip(schema.names, schema.types)])
    if op in EMPTY_SCHEMAS:
        assert schema is not None, op
        got = sorted((f.name, str(f.type)) for f in schema)
        assert got == EMPTY_SCHEMAS[op], got
    if op == "vocab_counts":
        assert out.column("n").to_pylist()[-1] == 0


@pytest.mark.parametrize("op", sorted(OPS))
def test_one_vs_seven_blocks(ray_session, op):
    one, seven = _result(op, 1), _result(op, N_BLOCKS)
    assert len(one) > 0, op
    pd.testing.assert_frame_equal(one, seven)


@pytest.mark.parametrize("op", sorted(OPS))
def test_null_keys_match_pandas_reference(ray_session, op):
    _, ref = OPS[op]
    _assert_same(_result(op, N_BLOCKS), ref(DF))


def test_fixture_has_null_and_hot_keys_in_every_block():
    bounds = np.linspace(0, N_ROWS, N_BLOCKS + 1).astype(int)
    for a, b in zip(bounds[:-1], bounds[1:]):
        keys = DF["key"].iloc[a:b]
        assert keys.isna().any() and (keys == "u_hot").any()
        assert DF["grp"].iloc[a:b].isna().any()


def test_map_batches_udf_never_sees_an_empty_block(ray_session, monkeypatch):
    """Ray 2.49 passes 0-row pyarrow blocks straight through without calling
    the UDF — including the schema-less empty blocks an exchange emits.
    The engine's fold consumers rely on this instead of per-UDF guards."""
    import ray.data as rd

    from hooqu_ray.functions import shuffle
    from hooqu_ray.functions.shuffle import bucketed_group_fold

    def spy(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            raise AssertionError("UDF called on a 0-row block")
        return t.append_column("__seen", pa.array(np.full(len(t), len(t))))

    t = pa.table({"k": pa.array(["a", "b", "a"]),
                  "v": pa.array([1, 2, 3], pa.int64())})
    mixed = rd.from_arrow([t, t.slice(0, 0), t, pa.table({})])
    assert mixed.map_batches(spy, batch_format="pyarrow").count() == 6
    assert rd.from_arrow(t.slice(0, 0)).map_batches(
        spy, batch_format="pyarrow").count() == 0
    # a bucketed fold of 2 keys over many buckets leaves most outputs empty
    monkeypatch.setattr(shuffle, "_default_buckets", lambda n: 16)
    folded = bucketed_group_fold(mixed, ["k"], ["v"])
    out = folded.map_batches(spy, batch_format="pyarrow").to_pandas()
    assert sorted(zip(out["k"], out["v"])) == [("a", 8), ("b", 4)]


def _raw_ray_aggregates(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("ray.data.aggregate"):
            found.append((node.lineno, "import ray.data.aggregate"))
        if isinstance(node, ast.Import) and any(
                a.name.startswith("ray.data.aggregate") for a in node.names):
            found.append((node.lineno, "import ray.data.aggregate"))
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("aggregate", "count", "sum", "min",
                                       "max", "mean", "std")
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Attribute)
                and node.func.value.func.attr == "groupby"):
            found.append((node.lineno, f"groupby(...).{node.func.attr}()"))
    return found


def test_no_raw_ray_groupby_aggregate_in_engine():
    root = pathlib.Path(__file__).resolve().parents[1] / "hooqu_ray"
    bad = {str(p.relative_to(root)): hits
           for p in sorted(root.rglob("*.py"))
           if (hits := _raw_ray_aggregates(p))}
    assert bad == {}


def test_structural_check_catches_a_raw_aggregate(tmp_path):
    src = ("from ray.data.aggregate import Sum\n"
           "def f(ds):\n"
           "    return ds.groupby('k').aggregate(Sum('v')), "
           "ds.groupby('k').count(), ds.groupby('k').map_groups(g)\n")
    p = tmp_path / "m.py"
    p.write_text(src)
    assert [h for _, h in _raw_ray_aggregates(p)] == [
        "import ray.data.aggregate", "groupby(...).aggregate()",
        "groupby(...).count()"]
