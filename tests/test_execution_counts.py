"""Ray executions per op on the SFT path and per verification suite.

On a small cluster one Ray Data execution costs more than the work of a
small op, so the count is pinned: a new hidden execution is a regression.
Counts use the ``executions`` fixture (``StreamingExecutor.execute`` calls
on the driver).
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import hooqu_ray as hq
from hooqu_ray.functions import shuffle
from hooqu_ray.pipelines import transcripts as tp
from hooqu_ray.runner import do_analysis_run
from hooqu_ray.util import collect_arrow


def _turns(n_convs=40, turns=6, seed=0) -> pa.Table:
    rng = np.random.default_rng(seed)
    conv, idx, role, text = [], [], [], []
    for c in range(n_convs):
        for i in range(turns):
            conv.append(f"c{c:03d}")
            idx.append(i)
            role.append("user" if i % 2 == 0 else "assistant")
            text.append("Hello! How can I help you today?" if i == 1
                        else f"turn {c}-{i} " + "w " * int(rng.integers(1, 9)))
    return pa.table({"conv_id": conv, "turn_idx": pa.array(idx, pa.int64()),
                     "role": role, "text": text})


def _dataset(blocks=4):
    import ray.data as rd

    return rd.from_arrow(_turns()).repartition(blocks).materialize()


def _plan_ops(ds):
    ops, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        ops.append(type(op).__name__)
        stack.extend(op.input_dependencies)
    return ops


def test_collect_arrow_runs_a_lazy_dataset_once(ray_session, executions):
    import ray.data as rd

    lazy = rd.from_arrow(_turns()).map_batches(lambda t: t,
                                               batch_format="pyarrow")
    assert len(collect_arrow(lazy)) == len(_turns())
    assert len(executions) == 1


def _lazy():
    """The rows of :func:`_dataset` behind one unexecuted map."""
    import ray.data as rd

    return rd.from_arrow(_turns()).map_batches(lambda t: t,
                                               batch_format="pyarrow")


def test_drop_boilerplate_turns_runs_one_execution(ray_session, executions):
    with pytest.raises(ValueError):
        tp.drop_boilerplate_turns(_lazy(), 0)
    assert not executions  # rejected before the input runs
    out = tp.drop_boilerplate_turns(_lazy(), 3)
    # the input's materialize; the capped pairs ride the exchange's split
    # tasks and the hot-set collect runs none
    assert len(executions) == 1
    assert "Hello! How can I help you today?" not in set(
        collect_arrow(out).column("text").to_pylist())


def test_sft_prepare_runs_one_execution_on_a_lazy_input(ray_session,
                                                         executions):
    out = tp.sft_prepare(_lazy(), boilerplate_min_convs=3)
    # the input's materialize; both exchanges' per-block steps (the
    # boilerplate pairs, the scan's projection) run in their split tasks
    assert len(executions) == 1
    assert len(collect_arrow(out)) > 0
    assert len(executions) == 1  # the collect reads materialized output


def test_sft_prepare_and_collect_executions(ray_session, executions):
    ds = _dataset()
    executions.clear()
    out = tp.sft_prepare(ds, boilerplate_min_convs=3)
    assert len(executions) == 0  # a materialized input runs none
    assert len(collect_arrow(out)) > 0
    assert len(executions) == 0


def test_sft_prepare_fold_tasks_follow_the_cluster(ray_session,
                                                   exchange_tasks):
    """Each exchange runs at most one fold task and one split task per
    session CPU (4), not a fixed 16 buckets or one split per block."""
    out = collect_arrow(tp.sft_prepare(_dataset(), boilerplate_min_convs=3))
    assert len(out) > 0
    exchanges = exchange_tasks["exchanges"]
    assert exchanges == 2, exchange_tasks
    assert 0 < exchange_tasks["_fold_bucket"] <= exchanges * 4, exchange_tasks
    assert 0 < exchange_tasks["_split_block"] <= exchanges * 4, exchange_tasks


def _grouped_folds():
    """The grouped folds on one ``hash_exchange`` over :func:`_turns`, each
    with its output columns as ``(name, input column)``: an empty result
    takes the input column's type."""
    from hooqu_ray.pipelines.relational import grouped_top_k
    from hooqu_ray.pipelines.windows import grouped_first_last

    return {
        "tree_group_sum": (
            lambda ds: shuffle.tree_group_sum(ds, ["conv_id"], ["turn_idx"]),
            [("conv_id", "conv_id"), ("turn_idx", "turn_idx")]),
        "tree_distinct": (
            lambda ds: shuffle.tree_distinct(ds, ["conv_id", "role"]),
            [("conv_id", "conv_id"), ("role", "role")]),
        "grouped_first_last": (
            lambda ds: grouped_first_last(ds, "conv_id", "turn_idx",
                                          "turn_idx", "text"),
            [("conv_id", "conv_id"), ("first_value", "text"),
             ("last_value", "text")]),
        "grouped_top_k": (
            lambda ds: grouped_top_k(ds, "conv_id", "turn_idx", 2, "text"),
            [("conv_id", "conv_id"), ("turn_idx", "turn_idx"),
             ("text", "text")]),
    }


@pytest.mark.parametrize("op", sorted(_grouped_folds()))
def test_grouped_fold_runs_no_execution_on_materialized_input(
        ray_session, executions, op):
    ds = _dataset()
    executions.clear()
    out = collect_arrow(_grouped_folds()[op][0](ds))
    assert len(out) > 0
    assert len(executions) == 0


@pytest.mark.parametrize("blocks", [1, 7])
@pytest.mark.parametrize("op", sorted(_grouped_folds()))
def test_grouped_fold_typed_when_empty(ray_session, op, blocks):
    import ray.data as rd

    from hooqu_ray.util import dataset_arrow_schema

    full = _turns()
    ds = rd.from_arrow(full).repartition(blocks).map_batches(
        lambda t: t.slice(0, 0), batch_format="pyarrow").materialize()
    assert ds.num_blocks() == blocks
    run, cols = _grouped_folds()[op]
    out = run(ds)
    assert out.count() == 0
    assert dataset_arrow_schema(out) == pa.schema(
        [(c, full.schema.field(src).type) for c, src in cols])


def _turns_with_ids() -> pa.Table:
    """:func:`_turns` plus a unique ``"<conv>:<turn_idx>"`` id ``tid``."""
    t = _turns()
    return t.append_column("tid", pc.binary_join_element_wise(
        t.column("conv_id"), pc.cast(t.column("turn_idx"), pa.string()), ":"))


def _ordered_ops():
    """The global-offset ops on ``shuffle.range_exchange`` and
    ``running_agg`` on the hash exchange, each with its output schema."""
    from hooqu_ray.pipelines.relational import global_row_number, pack_sequences
    from hooqu_ray.pipelines.windows import running_agg

    i64 = pa.int64()
    full = _turns_with_ids().schema
    return {
        "global_row_number": (
            lambda ds: global_row_number(ds, "conv_id", "turn_idx"),
            full.append(pa.field("row_number", i64))),
        "pack_sequences": (
            lambda ds: pack_sequences(ds, "tid", "turn_idx", 7),
            pa.schema([("tid", pa.string())] + [(c, i64) for c in (
                "turn_idx", "token_start", "seq_start", "seq_end",
                "n_seqs")])),
        "pack_sft_examples": (
            lambda ds: tp.pack_sft_examples(ds, 7, id_col="tid",
                                            prompt_col="role",
                                            target_col="text"),
            pa.schema([("tid", pa.string())] + [(c, i64) for c in (
                "n_prompt_tokens", "n_tokens", "token_start", "target_start",
                "target_end", "seq_start", "seq_end")])),
        "running_agg": (
            lambda ds: running_agg(ds, "conv_id", "tid", "role", "turn_idx"),
            pa.schema([("conv_id", pa.string()), ("tid", pa.string()),
                       ("role", pa.string()), ("run_sum", pa.float64()),
                       ("run_n", i64)])),
    }


@pytest.mark.parametrize("op", sorted(_ordered_ops()))
def test_ordered_op_runs_no_execution_on_materialized_input(
        ray_session, executions, op):
    import ray.data as rd

    ds = rd.from_arrow(_turns_with_ids()).repartition(4).materialize()
    executions.clear()
    run, schema = _ordered_ops()[op]
    out = collect_arrow(run(ds))
    assert len(out) > 0 and out.schema == schema
    assert len(executions) == 0


@pytest.mark.parametrize("blocks", [1, 7])
@pytest.mark.parametrize("op", sorted(_ordered_ops()))
def test_ordered_op_typed_when_empty(ray_session, op, blocks):
    import ray.data as rd

    from hooqu_ray.util import dataset_arrow_schema

    ds = rd.from_arrow(_turns_with_ids()).repartition(blocks).map_batches(
        lambda t: t.slice(0, 0), batch_format="pyarrow").materialize()
    assert ds.num_blocks() == blocks
    run, schema = _ordered_ops()[op]
    out = run(ds)
    assert out.count() == 0
    assert dataset_arrow_schema(out) == schema


def _events(blocks=4):
    import ray.data as rd

    rng = np.random.default_rng(2)
    n = 600
    ts = np.datetime64("2025-01-01T00:00:00", "us") + np.cumsum(
        rng.integers(0, 4000, n)).astype("timedelta64[s]")
    t = pa.table({"user_id": pa.array(rng.integers(0, 5, n), pa.int64()),
                  "ts": pa.array(rng.permutation(ts))})
    return rd.from_arrow(t).repartition(blocks).materialize()


@pytest.mark.parametrize("many_ranges", [True, False])
def test_driver_repair_plans_no_groupby(ray_session, monkeypatch,
                                        exchange_tasks, many_ranges):
    """``session_stats`` plans no Sort and runs two exchanges: the range
    exchange that sessionizes each range, and the hash exchange that fuses
    each key's sessions, over the default ranges or about 12."""
    from hooqu_ray.pipelines import sessions

    if many_ranges:
        monkeypatch.setattr(shuffle, "BUCKET_MAX_ROWS", 50)
    out = sessions.session_stats(_events(), "user_id", "ts", 1800.0)
    assert "Sort" not in _plan_ops(out)
    assert len(collect_arrow(out)) > 0
    assert exchange_tasks["exchanges"] == 2, exchange_tasks
    assert exchange_tasks["_fold_bucket"] > (12 if many_ranges else 0)


def _window_events() -> pa.Table:
    """:func:`_events`' users and timestamps, an ``event_id`` and a
    ``value`` with nulls."""
    rng = np.random.default_rng(3)
    n = 600
    ts = np.datetime64("2025-01-01T00:00:00", "us") + np.cumsum(
        rng.integers(0, 4000, n)).astype("timedelta64[s]")
    vals = rng.normal(size=n)
    vals[rng.random(n) < 0.1] = np.nan
    return pa.table({"user_id": pa.array(rng.integers(0, 5, n), pa.int64()),
                     "ts": pa.array(rng.permutation(ts)),
                     "event_id": pa.array(np.arange(n), pa.int64()),
                     "value": pa.array(vals, from_pandas=True)})


def _window_ops():
    """The ops on the range exchange with a halo, and ``session_stats``,
    each with its output schema over :func:`_window_events`."""
    from hooqu_ray.pipelines import sessions, windows
    from hooqu_ray.pipelines.asof import asof_join

    ev = ("user_id", "ts", "event_id", "value")
    i64, f64, ts = pa.int64(), pa.float64(), pa.timestamp("us")
    base = [("user_id", i64), ("ts", ts), ("event_id", i64)]
    return {
        "rolling_mean": (
            lambda ds: windows.rolling_mean(ds, *ev, 3),
            pa.schema(base + [("rolling_mean", f64)])),
        "time_window_mean": (
            lambda ds: windows.time_window_mean(ds, *ev, 1800.0),
            pa.schema(base + [("tw_mean", f64), ("tw_n", i64)])),
        "lag_delta": (
            lambda ds: windows.lag_delta(ds, *ev, 2),
            pa.schema(base + [("value", f64), ("prev_value", f64),
                              ("delta", f64)])),
        "lead_delta": (
            lambda ds: windows.lead_delta(ds, *ev, 2),
            pa.schema(base + [("value", f64), ("next_value", f64),
                              ("delta", f64)])),
        "session_stats": (
            lambda ds: sessions.session_stats(ds, "user_id", "ts", 1800.0),
            pa.schema([("user_id", i64), ("session_idx", i64),
                       ("n_events", i64), ("t_start", ts), ("t_end", ts)])),
        "asof_join": (
            lambda ds: asof_join(ds, ds, "user_id", "user_id", "ts", "ts",
                                 ["event_id"], ["value"]),
            pa.schema(base + [("value", f64)])),
    }


@pytest.mark.parametrize("op", sorted(_window_ops()))
def test_window_op_runs_no_execution_on_materialized_input(
        ray_session, executions, op):
    import ray.data as rd

    ds = rd.from_arrow(_window_events()).repartition(4).materialize()
    executions.clear()
    run, schema = _window_ops()[op]
    out = collect_arrow(run(ds))
    assert len(out) > 0 and out.schema == schema
    assert len(executions) == 0


@pytest.mark.parametrize("blocks", [1, 7])
@pytest.mark.parametrize("op", sorted(_window_ops()))
def test_window_op_typed_when_empty(ray_session, op, blocks):
    import ray.data as rd

    from hooqu_ray.util import dataset_arrow_schema

    ds = rd.from_arrow(_window_events()).repartition(blocks).map_batches(
        lambda t: t.slice(0, 0), batch_format="pyarrow").materialize()
    assert ds.num_blocks() == blocks
    run, schema = _window_ops()[op]
    out = run(ds)
    assert out.count() == 0
    assert dataset_arrow_schema(out) == schema


@pytest.fixture
def executed_ops(monkeypatch):
    """Names of every physical operator the driver executes while the test
    runs (``StreamingExecutor.execute`` DAGs, walked to their inputs)."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    names = []
    execute = StreamingExecutor.execute

    def spy(self, dag, *args, **kwargs):
        stack = [dag]
        while stack:
            op = stack.pop()
            names.append(op.name)
            stack.extend(op.input_dependencies)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    return names


def _with_ids(ds, drop_turn=None):
    """Turns keyed by a unique ``"<conv>:<turn_idx>"`` id ``tid``, without
    turn ``drop_turn`` (the map functions are closures: Ray workers cannot
    import this test module)."""
    def add(t: pa.Table) -> pa.Table:
        tid = pc.binary_join_element_wise(
            t.column("conv_id"), pc.cast(t.column("turn_idx"), pa.string()),
            ":")
        t = t.append_column("tid", tid)
        if drop_turn is not None:
            t = t.filter(pc.not_equal(t.column("turn_idx"), drop_turn))
        return t

    return ds.map_batches(add, batch_format="pyarrow")


def _join(ds):
    from hooqu_ray.functions.joins import hash_join

    right = ds.map_batches(lambda t: t.select(["conv_id", "turn_idx"])
                           .rename_columns(["cid", "n"]),
                           batch_format="pyarrow")
    return hash_join(ds, right, on="conv_id", right_on="cid", how="left")


def _snapshot_diff(ds):
    from hooqu_ray.pipelines.dedup import snapshot_diff

    return snapshot_diff(_with_ids(ds), _with_ids(ds, drop_turn=2), "tid",
                         ["text"])


def _turn_pairs(ds):
    """(id_a, id_b) = consecutive turns of a conversation."""
    def pairs(t: pa.Table) -> pa.Table:
        conv = t.column("conv_id")
        idx = t.column("turn_idx")
        keep = pc.less(idx, 5)
        return pa.table({
            "id_a": pc.binary_join_element_wise(
                conv, pc.cast(idx, pa.string()), ":").filter(keep),
            "id_b": pc.binary_join_element_wise(
                conv, pc.cast(pc.add(idx, 1), pa.string()), ":").filter(keep),
        })

    return ds.map_batches(pairs, batch_format="pyarrow")


def _verify_pairs(ds):
    from hooqu_ray.pipelines.dedup import verify_pairs

    return verify_pairs(_with_ids(ds), _turn_pairs(ds), "text", "tid")


def _components(ds):
    from hooqu_ray.pipelines.cluster import connected_components

    return connected_components(_turn_pairs(ds))


def _pack(ds):
    from hooqu_ray.pipelines.packing import pack_texts

    return pack_texts(_with_ids(ds), "tid", "text", 7)


@pytest.mark.parametrize("op, sorts", [
    (lambda ds: tp.truncate_conversations(ds, 20), 0),
    (lambda ds: tp.conversation_reports(ds, ["loop", "echo"])["loop"], 0),
    (lambda ds: shuffle.bucketed_group_fold(ds, ["conv_id"], ["turn_idx"]),
     0),
    (_join, 0), (_snapshot_diff, 0), (_verify_pairs, 0), (_components, 0),
    # the packer's range and boundary exchanges run no Ray Data sort
    (_pack, 0),
], ids=["kernel_sorted_scan", "conversation_reports", "bucketed_group_fold",
        "hash_join", "snapshot_diff", "verify_pairs", "connected_components",
        "pack_texts"])
def test_hash_exchange_plans_no_sort(ray_session, executed_ops, op, sorts):
    """Kernel-policy scans, the bucketed fold and the keyed ops on the
    hash exchange run no Ray Data Sort or Aggregate beyond an op's own
    range sort, neither while building nor in the returned plan."""
    ds = _dataset()
    executed_ops.clear()
    out = op(ds)
    assert len(collect_arrow(out)) > 0
    ops = _plan_ops(out) + executed_ops
    assert not [o for o in ops if "Aggregate" in o], ops
    assert len([o for o in ops if "Sort" in o]) == sorts, ops


def _lineitem(n=4000, blocks=8):
    import ray.data as rd

    rng = np.random.default_rng(1)
    t = pa.table({
        "l_orderkey": rng.integers(0, n // 3, n),
        "l_linenumber": rng.integers(1, 8, n),
        "l_quantity": rng.integers(1, 51, n).astype(np.float64),
        "l_extendedprice": rng.uniform(900, 100_000, n),
        "l_discount": rng.integers(0, 11, n) / 100,
        "l_returnflag": rng.choice(["A", "N", "R"], n),
    })
    return rd.from_arrow(t).repartition(blocks).materialize()


SCAN = [hq.Completeness("l_returnflag"), hq.Mean("l_quantity"),
        hq.Minimum("l_extendedprice"), hq.StandardDeviation("l_quantity"),
        hq.Correlation("l_quantity", "l_extendedprice"),
        hq.Compliance("discount_range",
                      "l_discount >= 0.0 and l_discount <= 0.1"),
        hq.ApproxCountDistinct("l_orderkey")]
QUANTILE = hq.Quantile("l_extendedprice", 0.5)
FLAG_QUANTILES = [hq.Quantile("l_extendedprice", 0.5,
                              where=f"l_returnflag == '{g}'") for g in "ANR"]


@pytest.mark.parametrize("suite, limit", [
    # the perfbench suite: the scan rides the Uniqueness fold (was 4), and
    # the fold's summary rows collect with no execution (was 2)
    (SCAN + [QUANTILE, hq.Uniqueness(["l_orderkey", "l_linenumber"])], 1),
    (SCAN + [QUANTILE], 1),  # no collect pass below the cap (was 2)
    (FLAG_QUANTILES + [hq.Size()], 1),  # one scan for every group (was 4)
    (SCAN, 1),
], ids=["perfbench", "scan+quantile", "where_quantiles+scan", "scan"])
def test_verification_suite_executions(ray_session, executions, suite, limit):
    ds = _lineitem()
    executions.clear()
    ctx = do_analysis_run(ds, suite)
    assert all(m.value.isSuccess for m in ctx.metric_map.values())
    assert 1 <= len(executions) <= limit


def _forked_dataset(blocks=4):
    """40 conversations of 3-6 turns: convs equal mod 7 share every turn
    text (fork groups), equal mod 28 are whole duplicates, and the
    shorter ones fail ``min_turns=5``."""
    import ray.data as rd

    conv, idx, role, text = [], [], [], []
    for c in range(40):
        for i in range(3 + c % 4):
            conv.append(f"c{c:03d}")
            idx.append(i)
            role.append("user" if i % 2 == 0 else "assistant")
            text.append(f"turn {c % 7}-{i} " + "w " * (c % 7 + i))
    t = pa.table({"conv_id": conv, "turn_idx": pa.array(idx, pa.int64()),
                  "role": role, "text": text})
    return rd.from_arrow(t).repartition(blocks).materialize()


# Counts at the commit that moved these ops onto functions.broadcast, with
# the consumer's collect included; each op must keep finding something.
@pytest.mark.parametrize("op, limit", [
    (lambda ds: tp.dedup_conversations(ds), 7),
    (lambda ds: tp.conversation_fork_groups(ds, 2), 6),
    (lambda ds: tp.filter_conversations(ds, min_turns=5), 4),
], ids=["dedup_conversations", "conversation_fork_groups",
        "filter_conversations"])
def test_broadcast_op_executions(ray_session, executions, op, limit):
    ds = _forked_dataset()
    n_in = ds.count()
    executions.clear()
    out = collect_arrow(op(ds))
    assert 0 < len(out) < n_in
    assert len(executions) <= limit


def test_fork_index_probe_executions(ray_session, executions, tmp_path):
    ds = _forked_dataset()
    path = str(tmp_path / "idx")
    tp.fork_index_write(ds, 2, path)
    executions.clear()
    out = collect_arrow(tp.fork_index_probe(ds, path, 2))
    assert len(out) == 40  # every conv's prefix is in the index
    assert len(executions) <= 7
