"""``shuffle.hash_exchange``: the one keyed exchange under the bucketed fold
and the complete-key sorted scan.

The same rows arrive in 1, 7 and 64 blocks.  Each fold call tags its rows
with a fresh id, so the tests see which call saw which key: no key may
reach two calls, and there is exactly one call per non-empty bucket.
"""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from hooqu_ray.functions import shuffle
from hooqu_ray.functions.shuffle import (_row_hash64, bucketed_group_fold,
                                         hash_exchange)
from hooqu_ray.functions.sorted_scan import sorted_scan

BLOCKS = (1, 7, 64)
BUCKETS = 16


@pytest.fixture
def sixteen_buckets(monkeypatch):
    monkeypatch.setattr(shuffle, "_default_buckets", lambda n: BUCKETS)


def _table(n=3000, seed=0) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = np.array([f"k{i}" for i in rng.integers(0, 400, n)], dtype=object)
    k[rng.random(n) < 0.05] = None
    j = rng.integers(0, 3, n).astype(float)
    j[rng.random(n) < 0.1] = np.nan
    return pa.table({
        "k": pa.array(k, pa.string()),
        "j": pa.array(j, pa.int64(), from_pandas=True),
        "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
        "a": pa.array(rng.integers(0, 5, n), pa.int64()),
        "b": pa.array(rng.normal(size=n).round(1), pa.float64()),
    })


def _dataset(table, blocks):
    import ray.data as rd

    return rd.from_arrow(table).repartition(blocks).materialize()


def _tagger():
    """A fold emitting one row per distinct key of its input, tagged with
    the call (a closure, so the workers unpickle it by value)."""
    def tag_keys(t: pa.Table) -> pa.Table:
        keys = t.group_by(["k"]).aggregate([])
        return keys.append_column(
            "call", pa.array([uuid.uuid4().hex] * len(keys), pa.string()))

    return tag_keys


def _buckets_hit(table, keys, buckets=BUCKETS) -> set:
    return set((_row_hash64(table, keys) % np.uint64(buckets)).tolist())


@pytest.mark.parametrize("blocks", BLOCKS)
def test_each_key_reaches_one_fold_once_per_bucket(ray_session,
                                                   sixteen_buckets, blocks):
    table = _table()
    out = hash_exchange(_dataset(table, blocks), ["k"], _tagger(),
                        pre=lambda t: t.select(["k"]))
    got = out.to_pandas()
    per_key = got.groupby("k", dropna=False)["call"].nunique()
    assert (per_key == 1).all()  # no key in two fold calls
    assert len(got) == pc.count_distinct(table.column("k"), mode="all").as_py()
    # one fold call, and one output block, per non-empty bucket
    n_buckets = len(_buckets_hit(table, ["k"]))
    assert got["call"].nunique() == n_buckets == out.num_blocks()


def test_single_block_fans_out_to_every_bucket(ray_session, sixteen_buckets):
    table = _table()
    assert len(_buckets_hit(table, ["k"])) == BUCKETS
    out = hash_exchange(_dataset(table, 1), ["k"], _tagger(),
                        pre=lambda t: t.select(["k"]))
    assert out.num_blocks() == BUCKETS
    assert out.to_pandas()["call"].nunique() == BUCKETS


@pytest.mark.parametrize("blocks", BLOCKS)
@pytest.mark.parametrize("keys", [["k"], ["k", "j"]], ids=["one", "tuple"])
def test_fold_equals_pandas_groupby_with_null_keys(ray_session, blocks, keys):
    """Null keys form one group (``drop_null_keys=False``), also when only
    one column of a key tuple is null: pandas ``dropna=False``."""
    table = _table()
    got = bucketed_group_fold(_dataset(table, blocks), keys, ["v", "a", "b"],
                              ["sum", "min", "max"]).to_pandas()
    exp = (table.to_pandas().groupby(keys, dropna=False, as_index=False)
           .agg(v=("v", "sum"), a=("a", "min"), b=("b", "max")))
    for df in (got, exp):  # one null marker on both sides
        df[keys] = df[keys].astype(object).where(df[keys].notna(), None)
    order = dict(ignore_index=True, na_position="last")
    pd.testing.assert_frame_equal(
        got.sort_values(keys, **order), exp.sort_values(keys, **order),
        check_dtype=False)
    assert exp[keys].isna().any(axis=1).any()  # the input has null keys


def _calls_per_key(out):
    """Fold calls of a :func:`_tagger` exchange, after checking that no
    key reached two of them."""
    got = out.to_pandas()
    assert (got.groupby("k", dropna=False)["call"].nunique() == 1).all()
    return got["call"].nunique()


@pytest.mark.parametrize("blocks", BLOCKS)
@pytest.mark.parametrize("cpus", [1, 3])
def test_buckets_follow_the_cluster_cpus(ray_session, monkeypatch,
                                         exchange_tasks, blocks, cpus):
    """One fold per non-empty bucket and at most one bucket per CPU for
    3000 rows, whatever the block count: one CPU folds once.  At most
    min(non-empty blocks, B) split tasks, not one per block."""
    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: cpus)
    table = _table()
    out = hash_exchange(_dataset(table, blocks), ["k"], _tagger(),
                        pre=lambda t: t.select(["k"]))
    calls = _calls_per_key(out)
    assert calls == out.num_blocks() == len(_buckets_hit(table, ["k"], cpus))
    assert calls <= cpus
    assert exchange_tasks["exchanges"] == 1
    assert 0 < exchange_tasks["_split_block"] <= min(blocks, cpus)


@pytest.mark.parametrize("blocks", BLOCKS)
@pytest.mark.parametrize("cpus", [1, 3])
def test_fold_sees_each_bucket_in_input_order(ray_session, monkeypatch,
                                              blocks, cpus):
    """Split tasks concatenate their runs of blocks in block order, and a
    fold concatenates the parts in run order: each bucket's rows arrive
    in input order."""
    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: cpus)
    table = _table()
    table = table.append_column("i", pa.array(np.arange(len(table))))

    def orders(t: pa.Table) -> pa.Table:
        i = np.asarray(t.column("i"), dtype=np.int64)
        return pa.table({"n": [len(i)],
                         "ordered": [bool((np.diff(i) > 0).all())]})

    got = hash_exchange(_dataset(table, blocks), ["k"], orders,
                        pre=lambda t: t.select(["k", "i"])).to_pandas()
    assert got["n"].sum() == len(table)
    assert got["ordered"].all()


@pytest.mark.parametrize("blocks", BLOCKS)
def test_pre_runs_per_block(ray_session, monkeypatch, blocks):
    """A split task over a run of blocks still calls ``pre`` once per
    block: a ``pre`` that emits one row per call yields one row per
    block."""
    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: 3)

    def one_row(t: pa.Table) -> pa.Table:
        return pa.table({"k": ["x"], "n": [len(t)]})

    got = hash_exchange(_dataset(_table(), blocks), ["k"], lambda t: t,
                        pre=one_row).to_pandas()
    assert len(got) == blocks
    assert got["n"].sum() == len(_table())


def test_contiguous_runs():
    runs = shuffle._contiguous_runs
    assert runs([], 0).tolist() == [0]
    assert runs(np.ones(7), 2).tolist() == [0, 4, 7]
    assert runs([10, 1, 1, 1], 2).tolist() == [0, 1, 4]
    assert runs([1, 1, 1, 10], 2).tolist() == [0, 3, 4]
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 70))
        r = int(rng.integers(1, n + 1))
        b = runs(rng.integers(1, 1000, n), r)
        # r runs, each of at least one block, covering every block once
        assert len(b) == r + 1 and b[0] == 0 and b[-1] == n
        assert (np.diff(b) >= 1).all()


def test_default_buckets_follow_the_cluster(ray_session, monkeypatch):
    # no fixed floor: a one-row input gets one bucket per cluster CPU
    assert shuffle._default_buckets(1) == shuffle._cluster_cpus()
    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: 2)
    assert shuffle._default_buckets(1) == 2
    # above BUCKET_MAX_ROWS a bucket, the row count raises B
    assert shuffle._default_buckets(600_000) == 3


def test_input_bytes_raise_the_bucket_count(ray_session, monkeypatch):
    """A small ``BUCKET_MAX_BYTES`` still raises B above the CPU count, so
    a fold's input stays bounded by bytes."""
    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: 1)
    table = _table()
    ds = _dataset(table, 7)
    buckets = 5
    monkeypatch.setattr(shuffle, "BUCKET_MAX_BYTES",
                        -(-ds.size_bytes() // buckets))
    out = hash_exchange(ds, ["k"], _tagger(),
                        pre=lambda t: t.select(["k"]))
    assert 1 < _calls_per_key(out) == len(_buckets_hit(table, ["k"], buckets))


def test_pandas_blocks(ray_session, sixteen_buckets):
    import ray

    ds = _dataset(_table(), 7).map_batches(
        lambda df: df, batch_format="pandas").materialize()
    first = next(iter(ds.iter_internal_ref_bundles())).blocks[0][0]
    assert isinstance(ray.get(first), pd.DataFrame)
    got = hash_exchange(ds, ["k"], _tagger(),
                        pre=lambda t: t.select(["k"])).to_pandas()
    assert (got.groupby("k", dropna=False)["call"].nunique() == 1).all()
    assert len(got) == pc.count_distinct(_table().column("k"),
                                         mode="all").as_py()


def test_all_empty_input(ray_session):
    import ray.data as rd

    from hooqu_ray.util import dataset_arrow_schema

    typed = rd.from_arrow([_table().slice(0, 0)] * 3).materialize()
    # no row reaches a fold: one block, the fold of the typed empty input
    # (through ``pre``), folded on the driver
    calls = []
    out = hash_exchange(typed, ["k"], lambda t: calls.append(1) or t,
                        pre=lambda t: t.select(["k", "v"]))
    assert out.count() == 0 and out.num_blocks() == 1 and calls == [1]
    assert dataset_arrow_schema(out) == pa.schema(
        [("k", pa.string()), ("v", pa.int64())])
    # no schema (a map over all-empty blocks): the fold of a 0-row table
    # with no columns, not ``pre``
    schemaless = typed.map_batches(lambda t: t, batch_format="pyarrow")
    out = hash_exchange(schemaless, ["k"], lambda t: calls.append(2) or t,
                        pre=lambda t: t.select(["k", "v"]))
    assert out.count() == 0 and out.num_blocks() == 1 and calls == [1, 2]
    # a fold keeps its own typed empty result for input with no key column
    empty = pa.table({"k": pa.array([], pa.string()),
                      "v": pa.array([], pa.int64())})
    folded = bucketed_group_fold(
        rd.from_arrow(pa.table({"z": [1, 2]})), ["k"], ["v"],
        combine=lambda t: empty if "k" not in t.column_names else t)
    assert folded.count() == 0
    assert folded.schema().names == ["k", "v"]


def _sum_by_k():
    """A per-key sum/count fold (a closure: the workers unpickle it by
    value)."""
    def fold(t: pa.Table) -> pa.Table:
        return t.group_by(["k"]).aggregate([("v", "sum"), ("v", "count")])

    return fold


def _sorted_rows(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values(
        "k", na_position="last", ignore_index=True)


@pytest.mark.parametrize("blocks", BLOCKS)
def test_pre_runs_in_the_split(ray_session, monkeypatch, blocks):
    """A ``pre`` that filters rows, emptying every block past the first
    1000 input rows, folds exactly what the same step run as a
    ``map_batches`` before the exchange folds.  A ``pre`` that empties
    every block submits no fold task."""
    table = _table()
    table = table.append_column("i", pa.array(np.arange(len(table))))
    ds = _dataset(table, blocks)

    def step(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(pc.less(t.column("i"), 1000),
                                pc.greater(t.column("v"), 0))).select(
            ["k", "v"])

    got = hash_exchange(ds, ["k"], _sum_by_k(), pre=step)
    exp = hash_exchange(ds.map_batches(step, batch_format="pyarrow"), ["k"],
                        _sum_by_k())
    pd.testing.assert_frame_equal(_sorted_rows(got), _sorted_rows(exp))
    assert got.num_blocks() == exp.num_blocks()
    if blocks > 1:  # the step empties the blocks past row 1000
        import ray

        assert min(len(step(ray.get(ref)))
                   for b in ds.iter_internal_ref_bundles()
                   for ref, _ in b.blocks) == 0

    folds = []
    remote = shuffle._remote
    monkeypatch.setattr(shuffle, "_remote", lambda fn: folds.append(
        fn.__name__) or remote(fn))
    none = hash_exchange(ds, ["k"], _sum_by_k(),
                         pre=lambda t: t.filter(pc.less(t.column("v"), -99)))
    # no fold task: the typed empty result is folded on the driver
    assert none.count() == 0 and none.num_blocks() == 1
    assert "_fold_bucket" not in folds
    assert folds.count("_split_block") == 1


@pytest.mark.parametrize("blocks", BLOCKS)
@pytest.mark.parametrize("descending", [
    False, [False, True, False], [True, False, True], True])
def test_sorted_scan_kernel_sees_sorted_complete_keys(ray_session, blocks,
                                                      descending):
    """Each kernel call holds whole keys, its rows in ``[key, *order]``
    order under the ``descending`` flags; rows with a null key drop."""
    table = _table()

    def kernel(t: pa.Table) -> pa.Table:
        return t.append_column(
            "call", pa.array([uuid.uuid4().hex] * len(t), pa.string()))

    out = sorted_scan(_dataset(table, blocks), ["k", "a", "b", "v"], "k",
                      ["a", "b"], kernel, descending=descending)
    got = out.to_pandas()
    ref = table.to_pandas().dropna(subset=["k"])
    assert len(got) == len(ref)
    assert (got.groupby("k")["call"].nunique() == 1).all()
    flags = ([descending] * 3 if isinstance(descending, bool)
             else descending)
    for _, part in got.groupby("call", sort=False):
        part = part[["k", "a", "b"]].reset_index(drop=True)
        exp = part.sort_values(["k", "a", "b"],
                               ascending=[not d for d in flags],
                               kind="stable", ignore_index=True)
        pd.testing.assert_frame_equal(part, exp)


def test_per_key_fold_calls_fn_once_per_key():
    t = _table(400)
    calls = []

    def fn(g: pa.Table) -> pa.Table:
        calls.append(len(g))
        head = g.select(["k", "j"]).slice(0, 1)
        return head.append_column(
            "n", pa.array([len(g)] * len(head), pa.int64()))

    out = shuffle.per_key_fold(["k", "j"], fn)(t).to_pandas()
    exp = t.to_pandas().groupby(["k", "j"], dropna=False).size()
    assert len(calls) == len(exp) == len(out)

    def norm(k, j):
        return (None if pd.isna(k) else k, None if pd.isna(j) else int(j))

    assert {norm(k, j): n for k, j, n in zip(out["k"], out["j"], out["n"])} \
        == {norm(k, j): n for (k, j), n in exp.items()}
    # a 0-row table reaches fn once, so the fold's result is typed
    calls.clear()
    empty = shuffle.per_key_fold(["k"], fn)(t.slice(0, 0))
    assert calls == [0] and empty.column_names == ["k", "j", "n"]


def _moved_ops():
    """Ops whose keyed step moved onto the exchange: each builds its typed
    empty inputs in ``n`` blocks and names its output columns."""
    import ray.data as rd

    from hooqu_ray.functions.joins import hash_join
    from hooqu_ray.pipelines.cluster import connected_components
    from hooqu_ray.pipelines.dedup import (embedding_cosine_pairs,
                                           snapshot_diff, verify_pairs)
    from hooqu_ray.pipelines.packing import pack_texts

    def empty(n, **cols):
        return rd.from_arrow([pa.table(cols)] * n).materialize()

    def ids(n):
        return empty(n, id_a=pa.array([], pa.int64()),
                     id_b=pa.array([], pa.int64()))

    def docs(n):
        return empty(n, doc_id=pa.array([], pa.int64()),
                     text=pa.array([], pa.string()))

    return {
        "hash_join": (lambda n: hash_join(
            empty(n, k=pa.array([], pa.string()), lv=pa.array([], pa.int64())),
            empty(n, rk=pa.array([], pa.string()), rv=pa.array([], pa.int64())),
            on="k", right_on="rk", how="full"), ["k", "lv", "rv"]),
        "snapshot_diff": (lambda n: snapshot_diff(docs(n), docs(n), "doc_id",
                                                  ["text"]),
                          ["key", "status"]),
        "connected_components": (lambda n: connected_components(ids(n)),
                                 ["node", "cluster_id"]),
        "verify_pairs": (lambda n: verify_pairs(docs(n), ids(n)),
                         ["id_a", "id_b", "jaccard"]),
        "embedding_cosine_pairs": (lambda n: embedding_cosine_pairs(
            empty(n, vec_id=pa.array([], pa.int64()),
                  embedding=pa.array([], pa.list_(pa.float32()))), dim=4),
            ["id_a", "id_b", "cosine"]),
        "pack_texts": (lambda n: pack_texts(docs(n), "doc_id", "text", 4),
                       ["seq_id", "n_tokens", "text"]),
    }


@pytest.mark.parametrize("blocks", [1, 7])
@pytest.mark.parametrize("op", ["hash_join", "snapshot_diff",
                                "connected_components", "verify_pairs",
                                "embedding_cosine_pairs", "pack_texts"])
def test_moved_ops_typed_on_empty_input(ray_session, op, blocks):
    from hooqu_ray.util import dataset_arrow_schema

    run, names = _moved_ops()[op]
    out = run(blocks)
    assert out.count() == 0
    schema = dataset_arrow_schema(out)
    assert schema is not None and schema.names == names, schema
