"""``functions.broadcast.BroadcastSet``: both arms of the probe-direction
switch equal a direct ``pc.is_in``/``pc.index_in`` (null keys, an empty set,
one and three shards), and the ops that moved onto it give the same output
with one shard per key as with the default shard size."""

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from hooqu_ray import util
from hooqu_ray.functions import broadcast
from hooqu_ray.functions.broadcast import BroadcastSet
from hooqu_ray.pipelines import transcripts as tp


def _key_table(n=600, seed=3) -> pa.Table:
    rng = np.random.default_rng(seed)
    keys = rng.choice(1000, n, replace=False)
    return pa.table({"k": pa.array(keys, pa.int64()),
                     "v": pa.array([f"v{k}" for k in keys])})


def _probe_table(seed=4) -> pa.Table:
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 1000, 2000)
    keys = pa.array(vals, pa.int64(), mask=rng.random(2000) < 0.05)
    t = pa.table({"k": keys, "row": pa.array(np.arange(2000))})
    return pa.concat_tables([t.slice(0, 700), t.slice(700)])  # 2 chunks


@pytest.mark.parametrize("direct_max", [1, 1 << 30],
                         ids=["inverted", "direct"])
@pytest.mark.parametrize("rows_per_shard, n_shards", [(600, 1), (200, 3)],
                         ids=["1-shard", "3-shards"])
def test_probes_match_direct_index_in(ray_session, monkeypatch, direct_max,
                                      rows_per_shard, n_shards):
    monkeypatch.setattr(util, "_DIRECT_ISIN_MAX", direct_max)
    monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", rows_per_shard)
    keys, t = _key_table(), _probe_table()
    bs = BroadcastSet.put(keys, "k")
    assert len(bs.refs) == n_shards
    col = t.column("k")
    assert bs.isin(col).to_pylist() == pc.is_in(
        col, value_set=keys.column("k"), skip_nulls=True).to_pylist()
    pos = pc.index_in(col, value_set=keys.column("k"), skip_nulls=True)
    hit = pc.is_valid(pos)
    want = t.filter(hit).append_column(
        "v", keys.column("v").take(pos.filter(hit)))
    got = bs.lookup(t, "k", ["v"])
    assert got.to_pydict() == want.to_pydict()
    assert 0 < len(got) < len(t)


def test_empty_set_matches_nothing(ray_session):
    t = _probe_table()
    bs = BroadcastSet.put(_key_table().slice(0, 0), "k")
    assert not bs and bs.tables() == []
    assert not any(bs.isin(t.column("k")).to_pylist())
    got = bs.lookup(t, "k", ["v"])
    assert len(got) == 0 and got.column_names == ["k", "row", "v"]


@pytest.mark.parametrize("op", ["semi", "anti"])
def test_semi_anti_keep_columns_on_empty_input(ray_session, op):
    import ray.data as rd

    bs = BroadcastSet.put(_key_table(), "k")
    out = getattr(bs, op)(rd.from_arrow(_probe_table().slice(0, 0)), "k")
    assert out.count() == 0
    assert util.dataset_arrow_schema(out) == _probe_table().schema


def test_dedup_keep_best_keeps_corpus_columns_when_empty(ray_session):
    """An empty typed corpus with a non-empty pair table: every pair id is
    a loser, and the anti filter over no rows keeps the corpus columns."""
    import ray.data as rd

    from hooqu_ray.pipelines.cluster import dedup_keep_best

    docs = pa.table({"doc_id": pa.array([], pa.int64()),
                     "score": pa.array([], pa.float64()),
                     "text": pa.array([], pa.string())})
    pairs = pa.table({"id_a": pa.array([1, 2], pa.int64()),
                      "id_b": pa.array([2, 3], pa.int64())})
    out = dedup_keep_best(rd.from_arrow(docs), rd.from_arrow(pairs),
                          id_type=pa.int64())
    assert out.count() == 0
    assert util.dataset_arrow_schema(out) == docs.schema


def test_collect_shards_by_key_hash(ray_session, monkeypatch):
    import ray.data as rd

    keys = _key_table()
    ds = rd.from_arrow(keys).repartition(4)
    one = BroadcastSet.collect(ds, "k")
    monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 200)
    three = BroadcastSet.collect(ds, "k")
    assert (len(one.refs), len(three.refs)) == (1, 3)
    for bs in (one, three):
        got = pa.concat_tables(bs.tables()).sort_by("k")
        assert got.equals(keys.sort_by("k"))
    # shards are disjoint hash ranges of the key
    codes = [set(util.shard_codes(w.column("k"), 3)) for w in three.tables()]
    assert all(len(c) == 1 for c in codes) and len(set.union(*codes)) == 3
    assert not BroadcastSet.collect(ds.filter(lambda r: False), "k")


def test_pickles_refs_not_fetched_tables(ray_session):
    bs = BroadcastSet.put(_key_table(), "k")
    assert len(bs.tables()[0]) == 600
    clone = pickle.loads(pickle.dumps(bs))
    assert clone._tables is None and clone.refs == bs.refs
    assert clone.tables()[0].equals(bs.tables()[0])


def _corpus(blocks=3):
    """30 conversations: convs equal mod 5 share their first turn (fork
    groups), every third conv leaks an email, and one row has no conv."""
    import ray.data as rd

    conv, idx, text = [], [], []
    for c in range(30):
        for i in range(3):
            conv.append(f"c{c:02d}")
            idx.append(i)
            text.append(f"task {c % 5}" if i == 0
                        else f"reply {c}-{i}" + (" at a@b.co" * (c % 3 == 0)))
    conv.append(None)
    idx.append(0)
    text.append("orphan a@b.co")
    t = pa.table({"conv_id": conv, "turn_idx": pa.array(idx, pa.int32()),
                  "role": ["user"] * len(conv), "text": text})
    return rd.from_arrow(t).repartition(blocks).materialize()


def _rows(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns), ignore_index=True)


@pytest.mark.parametrize("op", [
    lambda ds: tp.split_by_fork_group(ds, 1),
    lambda ds: tp.filter_pii_conversations(ds, 0),
    lambda ds: tp.sample_conversations(ds, 7),
], ids=["split_by_fork_group", "filter_pii_conversations",
        "sample_conversations"])
def test_one_shard_per_key_equals_default(ray_session, monkeypatch,
                                          shard_counts, op):
    ds = _corpus()
    default = _rows(op(ds))
    assert max(shard_counts) == 1
    shard_counts.clear()
    monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 1)
    forced = _rows(op(ds))
    assert max(shard_counts) >= 2
    assert len(default) > 0
    assert forced.equals(default)
