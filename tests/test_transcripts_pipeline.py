"""Flagship pipeline vs the independent pandas+re oracle.

north_rule gate: per-turn keep/drop F1 ≥ 0.99 (we assert exact agreement)
and scrubbed text byte-equal under stable (conv_id, turn_idx) order."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from hooqu_ray.functions import broadcast
from hooqu_ray.pipelines import transcripts as tp
from hooqu_ray.pipelines.synth import generate_transcripts

from reference_impl import OracleModels, oracle_pipeline, oracle_scrub


@pytest.fixture(scope="module")
def synth_table():
    return generate_transcripts(n_convs=80, seed=7)


@pytest.fixture(scope="module")
def engine_output(ray_session, synth_table):
    import ray.data as rd

    ds = rd.from_arrow(synth_table).repartition(5)
    out = tp.filter_and_scrub(ds)
    return out.to_pandas().sort_values(["conv_id", "turn_idx"], ignore_index=True)


@pytest.fixture(scope="module")
def oracle_output(synth_table):
    return oracle_pipeline(synth_table.to_pandas())


def test_keep_labels_exact(engine_output, oracle_output):
    assert len(engine_output) == len(oracle_output)
    assert (
        engine_output["conv_id"].tolist() == oracle_output["conv_id"].tolist()
    ), "row alignment"
    agree = engine_output["keep"].values == oracle_output["keep"].values
    assert agree.all(), f"{(~agree).sum()} label mismatches"
    # sanity: the filter actually does something in both directions
    kept = oracle_output["keep"].mean()
    assert 0.4 < kept < 0.95


def test_keep_f1_meets_north_rule(engine_output, oracle_output):
    e, o = engine_output["keep"].values, oracle_output["keep"].values
    tp_ = (e & o).sum()
    f1 = 2 * tp_ / (2 * tp_ + (e & ~o).sum() + (~e & o).sum())
    assert f1 >= 0.99


def test_scrubbed_text_byte_equal(engine_output, oracle_output):
    e = engine_output["text_scrubbed"].fillna("\0").values
    o = oracle_output["text_scrubbed"].fillna("\0").values
    assert (e == o).all()


def test_partitioned_verdict_join_matches_broadcast(
    ray_session, synth_table, engine_output, oracle_output, monkeypatch
):
    """VERDICT r2 item 10: with the broadcast gate forced to 0 bytes the
    verdict stamp must go through the partitioned hash join (bucketed mmap
    index under scratch) and produce EXACTLY the broadcast path's labels."""
    import ray.data as rd

    monkeypatch.setattr(tp, "_VERDICT_BROADCAST_MAX_BYTES", 0)
    monkeypatch.setattr(tp, "_VERDICT_INDEX_BUCKETS", 4)
    ds = rd.from_arrow(synth_table).repartition(5)
    out = (
        tp.filter_and_scrub(ds)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    )
    assert out["conv_id"].tolist() == engine_output["conv_id"].tolist()
    assert (out["keep"].values == engine_output["keep"].values).all()
    assert (out["keep"].values == oracle_output["keep"].values).all()


def test_distributed_dropped_index_both_gates_forced(
    ray_session, synth_table, engine_output, monkeypatch
):
    """With BOTH the conv-stats driver gate and the broadcast gate forced to
    0, the dropped index is built fully distributed (bucketed fold →
    per-bucket write tasks) and the verdict stamp goes through the
    partitioned lookup — labels must still match the default path's."""
    import ray.data as rd

    monkeypatch.setattr(tp, "_CONV_STATS_DRIVER_MAX_BYTES", 0)
    monkeypatch.setattr(tp, "_VERDICT_BROADCAST_MAX_BYTES", 0)
    monkeypatch.setattr(tp, "_VERDICT_INDEX_BUCKETS", 4)
    ds = rd.from_arrow(synth_table).repartition(5)
    out = (
        tp.filter_and_scrub(ds)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    )
    assert out["conv_id"].tolist() == engine_output["conv_id"].tolist()
    assert (out["keep"].values == engine_output["keep"].values).all()


def test_write_dropped_index_probe_roundtrip(tmp_path):
    """Every id written to the bucketed index is found by the searchsorted
    probe; absent ids (including hash-adjacent ones) are not."""
    import pyarrow as pa

    dropped = pa.array([f"conv-{i:08d}" for i in range(0, 500, 3)], pa.string())
    tp._write_dropped_index(dropped, str(tmp_path), 4)
    look = tp._PartitionedVerdictLookup(str(tmp_path), 4)
    batch = pa.table(
        {
            "conv_id": pa.array([f"conv-{i:08d}" for i in range(500)]),
            "turn_idx": pa.array(list(range(500)), pa.int32()),
            "keep_turn": pa.array([True] * 500),
        }
    )
    out = look(batch)
    keep = out.column("keep").to_pylist()
    for i in range(500):
        assert keep[i] == (i % 3 != 0), i


def test_scrub_replaces_pii():
    assert oracle_scrub("mail alice@example.org now") == "mail [EMAIL] now"
    assert tp and oracle_scrub("card 4111 1111 1111 1111 ok") == "card [CC] ok"
    assert oracle_scrub("you frakking robot") == "you [TOX] robot"
    assert oracle_scrub(None) is None
    # engine side must agree
    from hooqu_ray.stages.heuristics import scrub_text

    for t in ("mail alice@example.org now", "card 4111 1111 1111 1111 ok",
              "you frakking robot", None):
        assert scrub_text(t) == oracle_scrub(t)


def test_scrub_splices_fixed_rows_into_mixed_batch():
    """Rows that need the Python scrub sit between clean, null and
    non-ASCII rows of ONE batch: only the fixed rows are replaced, in
    order, and every row equals the oracle."""
    from hooqu_ray.stages.heuristics import compute_features

    texts = [
        "plain clean words here",
        "mail alice@example.org now",
        None,
        "Grüße aus Köln, naïve café",
        "card 4111 1111 1111 1111 ok",
        "an @ sign and 2024 but nothing to scrub",
        "ok ſcuzzbucket here",
        None,
        "FRAKKING loud and bob@example.com",
        "日本語のテキスト",
    ]
    out = compute_features(pa.table({"text": pa.array(texts, pa.string())}))
    scrubbed = out.column("text_scrubbed")
    assert scrubbed.type == pa.string()
    assert scrubbed.to_pylist() == [oracle_scrub(t) for t in texts]
    assert scrubbed.null_count == 2


def _plan_scored(ds, monkeypatch):
    return tp.score_turns(ds)


def _plan_blocklist(ds, monkeypatch):
    from hooqu_ray.pipelines.filters import blocklist_filter

    return blocklist_filter(ds, ["spark"])


def _plan_simhash(ds, monkeypatch):
    from hooqu_ray.pipelines.dedup import simhash_signatures

    return simhash_signatures(ds, "text", "conv_id")


def _plan_partitioned_verdict(ds, monkeypatch):
    monkeypatch.setattr(tp, "_VERDICT_BROADCAST_MAX_BYTES", 0)
    monkeypatch.setattr(tp, "_VERDICT_INDEX_BUCKETS", 4)
    return tp.filter_and_scrub(ds)


@pytest.mark.parametrize("build, stage", [
    (_plan_scored, "_score_block"),
    (_plan_blocklist, "_BlocklistFilter"),
    (_plan_simhash, "SimHasher"),
    (_plan_partitioned_verdict, "_PartitionedVerdictLookup"),
], ids=["score_turns", "blocklist_filter", "simhash_signatures",
        "partitioned_verdict"])
def test_stage_plans_no_actor_pool(ray_session, synth_table, monkeypatch,
                                   build, stage):
    """Every model stage is a stateless task: an actor pool would cost a
    worker spawn per Dataset execution and block fusion with its
    neighbours."""
    import ray.data as rd
    from ray.data import ActorPoolStrategy

    ds = build(rd.from_arrow(synth_table), monkeypatch)
    ops, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        ops.append(op)
        stack.extend(op.input_dependencies)
    assert any(stage in op.name for op in ops), [op.name for op in ops]
    computes = [op._compute for op in ops if hasattr(op, "_compute")]
    assert computes, [op.name for op in ops]
    assert not [c for c in computes if isinstance(c, ActorPoolStrategy)]


def test_models_match_oracle_math():
    from hooqu_ray.stages.models import CharBigramLM, TrigramLangID

    texts = [
        "We reviewed the quarterly report and found the numbers were consistent.",
        "Der schnelle braune Fuchs springt über den faulen Hund am Flussufer.",
        "Nous avons examiné le rapport trimestriel hier soir.",
        "bcdfgh jklmnp qrstvw",
        "",
        "ok",
    ]
    lm, lid = CharBigramLM(), TrigramLangID()
    om = OracleModels()
    ppl_eng = lm.perplexity(texts)
    langs_eng, _ = lid.predict(texts)
    for i, t in enumerate(texts):
        np.testing.assert_allclose(ppl_eng[i], om.ppl(t), rtol=1e-9)
        assert langs_eng[i] == om.lang(t), t


def test_filtered_output_schema_and_order(ray_session, synth_table):
    import ray.data as rd

    out = tp.filtered_output(rd.from_arrow(synth_table).repartition(4))
    pdf = out.to_pandas()
    assert list(pdf.columns) == ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    key = list(zip(pdf["conv_id"], pdf["turn_idx"]))
    assert key == sorted(key)


def test_quality_report_runs(ray_session, synth_table):
    import ray.data as rd

    result = tp.quality_report(rd.from_arrow(synth_table))
    names = {m.instance for m in result.metrics.values()}
    assert {"language", "perplexity", "toxicity"} <= names
    assert all(m.value.isSuccess for m in result.metrics.values())


def test_no_full_materialize_in_flagship():
    """VERDICT r1 item 1: the flagship must stream through partitioned
    parquet, never pin the scored turn table in the object store."""
    import inspect

    src = inspect.getsource(tp.filter_and_scrub)
    assert ".materialize()" not in src


def test_sidecar_partial_names_distinguish_colliding_blocks(tmp_path):
    """ADVICE r2: two DISTINCT blocks sharing boundary rows, row count, and
    kept/total sums (dirty input with duplicated (conv_id, turn_idx) rows)
    must NOT collide to one sidecar file; a retried identical block must."""
    import os

    import pyarrow as pa

    def block(mid_turn):
        return pa.table(
            {
                "conv_id": pa.array(["c1", "c1", "c1"], pa.string()),
                "turn_idx": pa.array([0, mid_turn, 9], pa.int32()),
                "keep_turn": pa.array([True, False, True], pa.bool_()),
            }
        )

    d = str(tmp_path)
    stage = tp._SidecarPartials(d)
    stage(block(3))
    stage(block(5))  # old boundary-keyed scheme: identical name -> overwrite
    assert len([f for f in os.listdir(d) if f.endswith(".parquet")]) == 2
    stage(block(3))  # retry of an identical block overwrites, no new file
    assert len([f for f in os.listdir(d) if f.endswith(".parquet")]) == 2


def test_caller_scratch_dir_safe_to_reuse(ray_session, synth_table, tmp_path):
    """ADVICE r2: passing the same scratch_dir across runs must not merge
    stale parquet from the previous run into the new one."""
    import ray.data as rd

    ds = rd.from_arrow(synth_table).repartition(3)
    n1 = tp.filter_and_scrub(ds, scratch_dir=str(tmp_path)).count()
    n2 = tp.filter_and_scrub(ds, scratch_dir=str(tmp_path)).count()
    assert n1 == n2 == synth_table.num_rows


def test_mega_conversation_salted_branch(ray_session, monkeypatch):
    """VERDICT r1 item 8: a single 1M-turn conversation must flow through
    the distributed conv-stats branch (a bucketed fold of per-block
    partials, so the hot conversation is ≤ #blocks rows) and produce the
    right verdicts."""
    import pyarrow as pa
    import ray.data as rd

    monkeypatch.setattr(tp, "_CONV_STATS_DRIVER_MAX_BYTES", 0)

    n_mega = 1_000_000

    def make_turns(batch):
        idx = batch["id"]
        n = len(idx)
        good = "the quick brown fox jumps over the lazy dog again"
        base = np.datetime64("2025-01-01T00:00:00", "us")
        return pa.table(
            {
                "conv_id": pa.array(["conv-mega"] * n, pa.string()),
                "turn_idx": pa.array(idx.astype("int32"), pa.int32()),
                "role": pa.array(
                    np.where(idx % 2 == 0, "user", "assistant"), pa.string()
                ),
                "text": pa.array([good] * n, pa.string()),
                "tool": pa.array([None] * n, pa.string()),
                "ts": pa.array(base + idx.astype("timedelta64[s]"), pa.timestamp("us")),
            }
        )

    mega = rd.range(n_mega).map_batches(
        make_turns, batch_format="numpy", batch_size=50_000
    )
    base = np.datetime64("2025-01-01T00:00:00", "us")
    junk = rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array(["conv-junk"] * 3, pa.string()),
                "turn_idx": pa.array([0, 1, 2], pa.int32()),
                "role": pa.array(["user", "assistant", "user"], pa.string()),
                "text": pa.array(["zzzz", "qqqq", "xxxx"], pa.string()),
                "tool": pa.array([None] * 3, pa.string()),
                "ts": pa.array([base] * 3, pa.timestamp("us")),
            }
        )
    )
    out = tp.filter_and_scrub(mega.union(junk))
    agg = (
        out.map_batches(
            lambda t: pa.table(
                {
                    "conv_id": t.column("conv_id"),
                    "keep": pa.compute.cast(t.column("keep"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("conv_id")
        .sum("keep")
        .to_pandas()
        .set_index("conv_id")["sum(keep)"]
    )
    assert agg["conv-mega"] == n_mega  # every turn kept, conv kept
    assert agg["conv-junk"] == 0       # junk turns dropped -> conv dropped


class TestTruncateConversations:
    """Context-window suffix truncation: exact descending-running-SUM
    semantics vs a pandas re-derivation, plus edge cases."""

    @staticmethod
    def _run(rows, budget, **kw):
        import pyarrow as pa
        import ray.data as rd

        cols = {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        }
        ds = rd.from_arrow(pa.table(cols)).repartition(3)
        out = tp.truncate_conversations(ds, budget, **kw)
        import pandas as pd

        got = out.to_pandas()
        return got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    @staticmethod
    def _oracle(rows, budget):
        import pandas as pd

        df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "text"])
        df = df.dropna(subset=["conv_id", "turn_idx"])
        df["ntok"] = df["text"].fillna("").str.split().str.len()
        df = df.sort_values(["conv_id", "turn_idx"],
                            ascending=[True, False])
        df["suffix_tokens"] = df.groupby("conv_id")["ntok"].cumsum()
        df = df[df["suffix_tokens"] <= budget].drop(columns=["ntok"])
        return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    def test_matches_pandas_window(self, ray_session):
        import pandas as pd

        rows = []
        rng = np.random.RandomState(7)
        for c in range(20):
            for i in range(rng.randint(1, 12)):
                ntok = int(rng.randint(0, 9))
                rows.append((f"c{c:03d}", i, " ".join(["w"] * ntok)))
        got = self._run(rows, 20)
        exp = self._oracle(rows, 20)
        got["turn_idx"] = got["turn_idx"].astype("int64")
        exp["turn_idx"] = exp["turn_idx"].astype("int64")
        got["suffix_tokens"] = got["suffix_tokens"].astype("int64")
        exp["suffix_tokens"] = exp["suffix_tokens"].astype("int64")
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_oversized_turn_blocks_prefix(self, ray_session):
        # turn 2 alone exceeds the budget -> it AND turns 0..1 drop; only
        # the suffix after it survives (exact SQL window semantics)
        rows = [("c", 0, "a b"), ("c", 1, "a"), ("c", 2, " ".join(["x"] * 50)),
                ("c", 3, "a b c"), ("c", 4, "d")]
        got = self._run(rows, 10)
        assert got["turn_idx"].tolist() == [3, 4]
        assert got["suffix_tokens"].tolist() == [4, 1]

    def test_null_and_empty_text(self, ray_session):
        rows = [("c", 0, None), ("c", 1, ""), ("c", 2, "one two")]
        got = self._run(rows, 2)
        # null/empty turns cost 0 tokens and are kept within the suffix
        assert got["turn_idx"].tolist() == [0, 1, 2]

    def test_null_conv_dropped_budget_zero(self, ray_session):
        rows = [(None, 0, "a"), ("c", 0, "a"), ("c", 1, "")]
        got = self._run(rows, 0)
        # budget 0: only zero-token suffixes survive; null conv dropped
        assert got["conv_id"].tolist() == ["c"]
        assert got["turn_idx"].tolist() == [1]
        import pytest as _pytest

        with _pytest.raises(ValueError):
            self._run(rows, -1)


class TestDropBoilerplateTurns:
    """Distinct-conversation counting semantics + sentinel/shard edges."""

    @staticmethod
    def _run(rows, **kw):
        import pyarrow as pa
        import ray.data as rd

        cols = {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        }
        ds = rd.from_arrow(pa.table(cols)).repartition(3)
        got = tp.drop_boilerplate_turns(ds, **kw).to_pandas()
        return got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    def test_distinct_convs_not_occurrences(self, ray_session):
        # "the same banner here" repeats 3x inside conv a (NOT boilerplate:
        # one conversation) but "shared canned greeting!" spans a and b
        rows = [
            ("a", 0, "the same banner here"), ("a", 1, "the same banner here"),
            ("a", 2, "the same banner here"), ("a", 3, "shared canned greeting!"),
            ("b", 0, "shared canned greeting!"), ("b", 1, "unique content b"),
        ]
        got = self._run(rows, min_convs=2)
        assert got[got.conv_id == "a"]["turn_idx"].tolist() == [0, 1, 2]
        assert got[got.conv_id == "b"]["turn_idx"].tolist() == [1]

    def test_short_null_and_nullconv_survive(self, ray_session):
        # texts under min_chars (even cross-conv) and null texts are never
        # candidates; null conv rows pass through untouched
        rows = [("a", 0, "hi"), ("b", 0, "hi"), ("a", 1, None),
                ("b", 1, None), (None, 0, "this crosses nothing at all")]
        got = self._run(rows, min_convs=2, min_chars=10)
        assert len(got) == 5

    def test_forced_sharding_matches_unsharded(self, ray_session, monkeypatch,
                                               hash_shard_counts):
        rows = []
        for c in range(6):
            for i in range(4):
                # texts 0/1 span all convs (boilerplate); 2/3 are unique
                shared = i < 2
                txt = (f"shared boilerplate text {i}" if shared
                       else f"unique text {c}-{i} padded out")
                rows.append((f"c{c}", i, txt))
        one = self._run(rows, min_convs=2)
        assert max(hash_shard_counts) == 1
        monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 1)
        many = self._run(rows, min_convs=2)
        assert max(hash_shard_counts) >= 2
        import pandas as pd

        pd.testing.assert_frame_equal(one, many)
        assert sorted(one["turn_idx"].unique().tolist()) == [2, 3]

    def test_min_convs_validation(self, ray_session):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            self._run([("a", 0, "x")], min_convs=0)


HOT_TEXT = "Hello! How can I help you today?"


def _boilerplate_rows():
    """30 conversations.  HOT_TEXT opens every one (after the shuffle it is
    in every block, so a block holding ``min_convs`` of its conversations
    hits the per-block cap); one text spans every third conversation, one
    repeats only inside c00; short, null-text and null-conv turns ride
    along."""
    rows = []
    for c in range(30):
        cid = f"c{c:02d}"
        rows += [(cid, 0, HOT_TEXT), (cid, 1, f"unique turn text {c:02d}"),
                 (cid, 2, "short"), (cid, 3, None)]
        if c % 3 == 0:
            rows.append((cid, 4, "shared by every third conversation"))
    rows += [("c00", 5 + i, "repeated inside one conversation only")
             for i in range(8)]
    rows += [(None, i, HOT_TEXT) for i in range(3)]
    return rows


def _boilerplate_oracle(df, min_convs, min_chars=10):
    elig = ((df["text"].fillna("").str.len() >= min_chars)
            & df["conv_id"].notna())
    n_convs = df[elig].groupby("text")["conv_id"].nunique()
    hot = n_convs[n_convs >= min_convs].index
    return df[~(elig & df["text"].isin(hot))]


def _canonical(df):
    df = df.reset_index(drop=True)
    if len(df):
        key = df.astype(str)
        df = df.iloc[np.lexsort([key[c].to_numpy()
                                 for c in reversed(df.columns)])]
    return df.reset_index(drop=True)


BOILERPLATE_CASES = {
    "cap": (_boilerplate_rows, dict(min_convs=3)),
    "min_convs_1": (_boilerplate_rows, dict(min_convs=1)),
    "min_convs_11": (_boilerplate_rows, dict(min_convs=11)),
    # ROWS_PER_SHARD is monkeypatched to the value under "rows_per_shard"
    "sharded": (_boilerplate_rows, dict(min_convs=2, rows_per_shard=1)),
    "all_null_text": (lambda: [(f"c{i % 4}", i, None) for i in range(20)],
                      dict(min_convs=2)),
    "empty": (lambda: [], dict(min_convs=2)),
}


@pytest.mark.parametrize("blocks", [1, 7, 64])
@pytest.mark.parametrize("case", sorted(BOILERPLATE_CASES))
def test_drop_boilerplate_turns_matches_pandas(ray_session, monkeypatch,
                                               hash_shard_counts, case,
                                               blocks):
    import ray.data as rd

    make, kw = BOILERPLATE_CASES[case]
    kw = dict(kw)
    rows_per_shard = kw.pop("rows_per_shard", None)
    if rows_per_shard is not None:
        monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", rows_per_shard)
    rows = make()
    rng = np.random.default_rng(blocks)
    rows = [rows[i] for i in rng.permutation(len(rows))]
    table = pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int64()),
        "text": pa.array([r[2] for r in rows], pa.string()),
    })
    ds = rd.from_arrow(table)
    if blocks > 1:
        ds = ds.repartition(blocks)
    out = tp.drop_boilerplate_turns(ds, **kw).materialize()
    if rows_per_shard is not None:
        assert max(hash_shard_counts) >= 2

    def names(d):  # an empty input repartitioned to 7+ blocks has none
        schema = d.schema()
        return None if schema is None else schema.names

    assert names(out) == names(ds.materialize())
    exp = _boilerplate_oracle(table.to_pandas(), kw["min_convs"])
    got = out.to_pandas()  # Ray drops the columns of an empty result here
    if len(exp) == 0:
        assert len(got) == 0
        return
    pd.testing.assert_frame_equal(_canonical(got), _canonical(exp),
                                  check_dtype=False, obj=f"{case}/{blocks}")


class TestMergeConsecutiveTurns:
    """Run-merge semantics: null-role runs, cross-block conversations,
    separator joins, n_merged accounting."""

    @staticmethod
    def _run(rows, n_parts=4, **kw):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "ts": pa.array([r[4] for r in rows], pa.timestamp("us")),
        })
        ds = rd.from_arrow(t).repartition(n_parts)
        got = tp.merge_consecutive_turns(ds, **kw).to_pandas()
        return got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    def test_runs_merge_with_metadata(self, ray_session):
        rows = [
            ("a", 0, "user", "u0", 100), ("a", 1, "assistant", "a1", 200),
            ("a", 2, "assistant", "a2", 300), ("a", 3, "assistant", None, 400),
            ("a", 4, "user", "u4", 500),
            ("b", 0, None, "x0", 10), ("b", 1, None, "x1", 20),
            ("b", 2, "user", "u2", 30), (None, 0, "user", "drop", 1),
        ]
        got = self._run(rows)
        assert got["text"].tolist() == ["u0", "a1\na2\n", "u4", "x0\nx1", "u2"]
        assert got["n_merged"].tolist() == [1, 3, 1, 2, 1]
        assert got["turn_idx"].tolist() == [0, 1, 4, 0, 2]
        # first turn's ts survives per run
        assert got["ts"].astype("int64").tolist() == [100, 200, 500, 10, 30]

    def test_single_run_conversation_across_blocks(self, ray_session):
        # one conversation, one role, spread over many blocks: the boundary
        # re-merge must collapse it into exactly ONE row
        rows = [("mono", i, "assistant", f"t{i}", i) for i in range(40)]
        got = self._run(rows, n_parts=8)
        assert len(got) == 1
        assert got["n_merged"].iloc[0] == 40
        assert got["text"].iloc[0] == "\n".join(f"t{i}" for i in range(40))

    def test_custom_separator_no_ts(self, ray_session):
        rows = [("a", 0, "u", "x", 1), ("a", 1, "u", "y", 2)]
        got = self._run(rows, sep=" | ", ts_col=None)
        assert got["text"].tolist() == ["x | y"]
        assert "ts" not in got.columns


class TestExtractTrainingExamples:
    """Budget-bounded SFT window extraction: context clamping, over-budget
    target drop, cross-block conversations."""

    @staticmethod
    def _run(rows, budget, n_parts=3, **kw):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        ds = rd.from_arrow(t).repartition(n_parts)
        got = tp.extract_training_examples(ds, budget, **kw).to_pandas()
        return got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    def test_window_clamps_to_budget_and_conv(self, ray_session):
        rows = [
            ("a", 0, "user", "one two three"),        # 3 tokens
            ("a", 1, "assistant", "four five"),       # 2 tokens
            ("a", 2, "user", "six"),                  # 1 token
            ("a", 3, "assistant", "seven eight nine"),  # 3 tokens
            ("b", 0, "assistant", "solo answer"),     # context empty: new conv
        ]
        got = self._run(rows, budget=6)
        # a@1: ctx=turn0 (3+2=5<=6); a@3: 3 tokens target, ctx turns 1-2
        # (2+1+3=6<=6, turn0 would make 9); b@0: no context
        assert got["turn_idx"].tolist() == [1, 3, 0]
        assert got["prompt"].tolist() == [
            "one two three", "four five\nsix", ""]
        assert got["target"].tolist() == [
            "four five", "seven eight nine", "solo answer"]
        assert got["n_context_turns"].tolist() == [1, 2, 0]
        assert got["n_tokens"].tolist() == [5, 6, 2]

    def test_overbudget_target_dropped_empty_prompt_kept(self, ray_session):
        rows = [
            ("a", 0, "user", "w w w w w"),
            ("a", 1, "assistant", "x x x x x x"),   # 6 tokens > 5: dropped
            ("a", 2, "assistant", "y y y y y"),     # 5 tokens: fits alone
        ]
        got = self._run(rows, budget=5)
        assert got["turn_idx"].tolist() == [2]
        assert got["prompt"].tolist() == [""]
        assert got["n_tokens"].tolist() == [5]

    def test_long_conversation_across_blocks(self, ray_session):
        # every turn has 1 token; budget 4 -> each assistant turn takes
        # exactly 3 context turns (after warmup), across 6 blocks
        rows = [("long", i, "assistant" if i % 2 else "user", f"t{i}")
                for i in range(60)]
        got = self._run(rows, budget=4, n_parts=6)
        odd = [i for i in range(60) if i % 2]
        assert got["turn_idx"].tolist() == odd
        expect_ctx = [min(i, 3) for i in odd]
        assert got["n_context_turns"].tolist() == expect_ctx
        assert got.loc[got.turn_idx == 7, "prompt"].iloc[0] == "t4\nt5\nt6"

    def test_budget_validation(self, ray_session):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            self._run([("a", 0, "assistant", "x")], budget=-1)


class TestDedupConversations:
    """Whole-conversation dedup: winner-by-min-conv, order sensitivity,
    forced sharding, null-conv survival."""

    @staticmethod
    def _run(rows, n_parts=4, **kw):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })
        ds = rd.from_arrow(t).repartition(n_parts)
        got = tp.dedup_conversations(ds, **kw).to_pandas()
        return got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    def test_min_conv_wins_order_matters(self, ray_session):
        rows = [
            ("b", 0, "hello"), ("b", 1, "world"),      # dup of a -> dropped
            ("a", 0, "hello"), ("a", 1, "world"),      # winner
            ("c", 0, "world"), ("c", 1, "hello"),      # same texts, other
                                                        # order -> distinct
            ("d", 0, "hello"),                          # prefix only -> kept
            (None, 0, "hello"), (None, 1, "world"),     # null conv survives
        ]
        got = self._run(rows)
        assert got["conv_id"].fillna("~null~").tolist() == [
            "a", "a", "c", "c", "d", "~null~", "~null~"]

    def test_forced_sharding_matches(self, ray_session, monkeypatch,
                                     hash_shard_counts):
        import pandas as pd

        rows = []
        for c in range(8):
            src = c % 4  # 4 distinct conversations, each duplicated once
            for i in range(3):
                rows.append((f"c{c}", i, f"text {src} {i}"))
        one = self._run(rows)
        monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 1)
        hash_shard_counts.clear()
        many = self._run(rows)
        assert max(hash_shard_counts) >= 2
        pd.testing.assert_frame_equal(one, many)
        assert sorted(one["conv_id"].unique().tolist()) == [
            "c0", "c1", "c2", "c3"]

    def test_no_duplicates_identity(self, ray_session):
        rows = [("a", 0, "x"), ("b", 0, "y")]
        got = self._run(rows)
        assert got["conv_id"].tolist() == ["a", "b"]


class TestConversationTexts:
    def test_assembles_in_turn_order_across_blocks(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [("a", i, f"t{i}") for i in range(30)] + [
            ("b", 1, "y"), ("b", 0, "x"), (None, 0, "dropped")]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })
        got = tp.conversation_texts(
            rd.from_arrow(t).repartition(5)).to_pandas()
        got = got.sort_values("conv_id").reset_index(drop=True)
        assert got["conv_id"].tolist() == ["a", "b"]
        assert got["text"].tolist() == [
            "\n".join(f"t{i}" for i in range(30)), "x\ny"]
        assert got["n_turns"].tolist() == [30, 2]


class TestValidateConversations:
    @staticmethod
    def _turns(rows):
        import pyarrow as pa

        return pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })

    def test_flags_each_violation(self, ray_session):
        import ray.data as rd

        rows = [
            # ok: user/assistant alternating, dense from 0, non-empty
            ("ok", 0, "user", "hi"), ("ok", 1, "assistant", "hello"),
            # gap: missing turn 1
            ("gap", 0, "user", "a"), ("gap", 2, "assistant", "b"),
            # dup: duplicate turn_idx 0 (min=0, max=1, but 3 rows)
            ("dup", 0, "user", "a"), ("dup", 0, "user", "a2"),
            ("dup", 1, "assistant", "b"),
            # late: starts at 1 (turn 0 missing)
            ("late", 1, "assistant", "b"), ("late", 2, "user", "c"),
            # empty: blank + null texts
            ("empty", 0, "user", ""), ("empty", 1, "assistant", None),
            # tail: ends with a user turn
            ("tail", 0, "user", "a"), ("tail", 1, "assistant", "b"),
            ("tail", 2, "user", "c"),
            (None, 0, "user", "null conv dropped"),
        ]
        got = tp.validate_conversations(
            rd.from_arrow(self._turns(rows)).repartition(4)
        ).to_pandas().sort_values("conv_id").reset_index(drop=True)
        by = got.set_index("conv_id")
        assert by.loc["ok"].tolist() == [2, True, True, True, False, True]
        assert by.loc["gap"].tolist() == [2, True, True, False, False, False]
        assert by.loc["dup"].tolist() == [3, True, True, False, False, False]
        assert by.loc["late"].tolist() == [2, False, False, False, False, False]
        assert by.loc["empty"].tolist() == [2, True, True, True, True, False]
        assert by.loc["tail"].tolist() == [3, True, False, True, False, False]
        assert "None" not in by.index and None not in by.index

    def test_boundary_conversation_across_blocks(self, ray_session):
        import ray.data as rd

        # one 40-turn dense conversation split across many blocks, plus a
        # conversation whose gap sits exactly at a block seam
        rows = [("big", i, "user" if i % 2 == 0 else "assistant", f"t{i}")
                for i in range(40)]
        rows += [("seam", 0, "user", "a"), ("seam", 1, "assistant", "b"),
                 ("seam", 5, "assistant", "c")]
        got = tp.validate_conversations(
            rd.from_arrow(self._turns(rows)).repartition(8)
        ).to_pandas().set_index("conv_id")
        assert got.loc["big", "n_turns"] == 40
        assert bool(got.loc["big", "dense_index"])
        assert bool(got.loc["big", "valid"])
        assert got.loc["seam", "n_turns"] == 3
        assert not bool(got.loc["seam", "dense_index"])

    def test_matches_duckdb_on_synthetic_corruption(self, ray_session):
        """End-to-end differential vs the oracle SQL shape on a tiny
        deterministic corpus (mirrors the driver-contract query)."""
        import duckdb
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        rng = np.random.RandomState(7)
        rows = []
        for conv in range(25):
            n = int(rng.randint(1, 9))
            for i in range(n):
                if conv % 5 == 0 and i == 0:
                    continue
                if conv % 11 == 0 and i == 2:
                    continue
                txt = "" if (conv % 7 == 0 and i == 1) else f"w{conv}-{i}"
                rows.append((f"conv-{conv:08d}", i,
                             "user" if i % 2 == 0 else "assistant", txt))
        if not rows:
            return
        t = self._turns(rows)
        got = tp.validate_conversations(
            rd.from_arrow(t).repartition(5)
        ).to_pandas().sort_values("conv_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("turns", t)
        want = con.execute(
            "WITH agg AS (SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns, "
            "arg_min(role, turn_idx) = 'user' AS starts_with_user, "
            "arg_max(role, turn_idx) = 'assistant' AS ends_with_assistant, "
            "(min(turn_idx) = 0 AND max(turn_idx) = count(*) - 1 AND "
            "count(DISTINCT turn_idx) = count(*)) AS dense_index, "
            "bool_or(COALESCE(text, '') = '') AS has_empty_text "
            "FROM turns GROUP BY conv_id) "
            "SELECT conv_id, n_turns, starts_with_user, ends_with_assistant, "
            "dense_index, has_empty_text, (starts_with_user AND "
            "ends_with_assistant AND dense_index AND NOT has_empty_text) AS "
            "valid FROM agg ORDER BY conv_id"
        ).df().reset_index(drop=True)
        assert got[want.columns.tolist()].equals(want)


class TestToolUsageStats:
    def test_counts_and_distinct(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [
            ("a", 0, "search"), ("a", 1, "search"), ("a", 2, "python"),
            ("a", 3, None),                       # null tool not counted
            ("b", 0, None),                       # conv with no calls: absent
            ("c", 0, "bash"), (None, 0, "bash"),  # null conv dropped
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "tool": pa.array([r[2] for r in rows], pa.string()),
        })
        got = tp.tool_usage_stats(
            rd.from_arrow(t).repartition(3)).to_pandas()
        got = got.sort_values("conv_id").reset_index(drop=True)
        assert got["conv_id"].tolist() == ["a", "c"]
        assert got["n_tool_calls"].tolist() == [3, 1]
        assert got["n_distinct_tools"].tolist() == [2, 1]


class TestPackSftExamples:
    def test_plan_offsets_and_masks(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [
            (1, "a b c", "d e"),      # 3+2 -> [0,5), target [3,5)
            (2, "", "x y z"),         # 0+3 -> [5,8), target [5,8)
            (3, None, "q"),           # null prompt: 0+1 -> [8,9)
            (4, "w " * 3, ""),        # 3+0 -> [9,12), empty target [12,12)
        ]
        t = pa.table({
            "example_id": pa.array([r[0] for r in rows], pa.int64()),
            "prompt": pa.array([r[1] for r in rows], pa.string()),
            "target": pa.array([r[2] for r in rows], pa.string()),
        })
        got = tp.pack_sft_examples(
            rd.from_arrow(t).repartition(2), max_len=4).to_pandas()
        got = got.sort_values("example_id").reset_index(drop=True)
        assert got["token_start"].tolist() == [0, 5, 8, 9]
        assert got["target_start"].tolist() == [3, 5, 8, 12]
        assert got["target_end"].tolist() == [5, 8, 9, 12]
        assert got["seq_start"].tolist() == [0, 1, 2, 2]
        assert got["seq_end"].tolist() == [1, 1, 2, 2]

    def test_validation(self, ray_session):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            tp.pack_sft_examples(None, max_len=0)


class TestNonStringConvIds:
    """Review regression: empty-block fallbacks must carry the INPUT's conv
    id type (int64 here), or unions emit mixed-schema blocks that strict
    consumers (write_parquet, schema-validating unions) reject."""

    def test_extract_and_merge_with_int64_conv(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [(c, i, "assistant" if i % 2 else "user", f"w{c} t{i}")
                for c in range(6) for i in range(4)]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.int64()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        ds = rd.from_arrow(t).repartition(4)
        ex = tp.extract_training_examples(ds, 8)
        schemas = {
            str(pa.table(b).schema)
            for b in ex.iter_batches(batch_format="pyarrow") if len(b["conv_id"])
        }
        assert len(schemas) == 1 and "int64" in next(iter(schemas))
        got = tp.merge_consecutive_turns(ds, ts_col=None).to_pandas()
        assert got["conv_id"].dtype.kind == "i"
        kept = tp.dedup_conversations(ds).to_pandas()
        assert len(kept) == len(rows)  # all distinct, int ids round-trip


class TestDedupTurns:
    def test_first_occurrence_wins_within_conv_only(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [
            ("a", 0, "retry tool call"), ("a", 3, "retry tool call"),
            ("a", 1, "unique turn a"),
            ("b", 0, "retry tool call"),       # cross-conv repeat kept
            ("b", 2, None), ("b", 5, None),    # null texts dedup in-conv
            ("c", 0, None),                    # other conv's null kept
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })
        got = tp.dedup_turns(
            rd.from_arrow(t).repartition(3)).to_pandas()
        got = got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        assert list(zip(got["conv_id"], got["turn_idx"])) == [
            ("a", 0), ("a", 1), ("b", 0), ("b", 2), ("c", 0)]


class TestSftPrepare:
    def test_stages_compose(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = []
        # two convs sharing a boilerplate banner; long enough to truncate
        for c in ("a", "b"):
            rows.append((c, 0, "user", "shared cookie banner text"))
            for i in range(1, 9):
                rows.append((c, i, "assistant" if i % 2 else "user",
                             " ".join([f"{c}{i}w{k}" for k in range(4)])))
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        got = tp.sft_prepare(
            rd.from_arrow(t).repartition(3),
            boilerplate_min_convs=2, context_budget=16, example_budget=12,
        ).to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        # banner removed (not in any prompt), truncation keeps the last 4
        # turns (16 tokens), targets are assistant turns within 12 tokens
        assert not got["prompt"].str.contains("banner").any()
        assert not (got["target"] == "shared cookie banner text").any()
        assert set(got["turn_idx"]) <= {5, 7}     # assistant turns kept
        assert (got["n_tokens"] <= 12).all()
        assert len(got) == 4                      # 2 per conversation


class TestPiiStats:
    def test_counts_match_duckdb(self, ray_session):
        import duckdb
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray import patterns

        rows = [
            ("a", "mail bob@example.com and card 4000 1234 5678 9010"),
            ("a", "see https://x.io/a and ftp://files.example.org/x"),
            ("b", "perfectly clean text"),          # absent from report
            ("c", "two mails x@y.io z@w.io"),
            ("c", "amex 3412 123456 12345 mixed 4000 1234-5678 9010"),
            (None, "dropped@null.conv"),             # null conv dropped
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        })
        got = tp.pii_stats(rd.from_arrow(t).repartition(3)).to_pandas()
        got = got.sort_values("conv_id").reset_index(drop=True)

        con = duckdb.connect()
        con.register("turns", t)
        pats = {"n_email": patterns.EMAIL.pattern,
                "n_url": patterns.URL.pattern,
                "n_cc": patterns.CREDITCARD_RE2}
        sel = ", ".join(
            "len(regexp_extract_all(text, '%s')) AS %s"
            % (p.replace("'", "''"), k) for k, p in pats.items())
        want = con.execute(
            f"WITH m AS (SELECT conv_id, {sel} FROM turns "
            "WHERE conv_id IS NOT NULL) "
            "SELECT conv_id, CAST(SUM(n_email) AS BIGINT) AS n_email, "
            "CAST(SUM(n_url) AS BIGINT) AS n_url, "
            "CAST(SUM(n_cc) AS BIGINT) AS n_cc, "
            "CAST(SUM(CASE WHEN n_email + n_url + n_cc > 0 THEN 1 ELSE 0 "
            "END) AS BIGINT) AS n_pii_turns FROM m GROUP BY conv_id "
            "HAVING SUM(n_email) + SUM(n_url) + SUM(n_cc) > 0 "
            "ORDER BY conv_id"
        ).df().reset_index(drop=True)
        assert got[want.columns.tolist()].equals(want)
        assert set(got["conv_id"]) == {"a", "c"}

    def test_null_text_and_empty_blocks(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["a", "a"], pa.string()),
            "text": pa.array([None, "ok bob@example.com"], pa.string()),
        })
        got = tp.pii_stats(rd.from_arrow(t).repartition(4)).to_pandas()
        assert got["conv_id"].tolist() == ["a"]
        assert got["n_email"].tolist() == [1]
        assert got["n_pii_turns"].tolist() == [1]


class TestToxicityStats:
    def test_counts_case_insensitive(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["a", "a", "b", "c"], pa.string()),
            "text": pa.array([
                "you Frakking tool",
                "DANGBLAST it all dangblast",
                "clean conversation",
                "scuzzbucketed is no word-boundary match",
            ], pa.string()),
        })
        got = tp.toxicity_stats(rd.from_arrow(t).repartition(2)).to_pandas()
        got = got.sort_values("conv_id").reset_index(drop=True)
        assert got["conv_id"].tolist() == ["a"]
        assert got["n_toxic"].tolist() == [3]
        assert got["n_toxic_turns"].tolist() == [2]


class TestConversationMajorityLang:
    def test_majority_and_tiebreak(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.stages.models import TrigramLangID

        model = TrigramLangID()
        en = "the quick brown fox jumps over the lazy dog near the river"
        de = "der schnelle braune fuchs springt über den faulen hund am ufer"
        # sanity: the model actually separates these
        import numpy as np
        codes_en = np.frombuffer(en.encode(), dtype=np.uint8)
        assert model.predict_codes(
            np.minimum(codes_en, 127).astype(np.int64)[None, :].ravel(),
            np.array([0, len(codes_en)]))[0][0] == "en"

        rows = [
            ("a", en), ("a", en), ("a", de),   # majority en
            ("b", de), ("b", de),              # all de
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        })
        got = tp.conversation_majority_lang(
            rd.from_arrow(t).repartition(2))
        if not isinstance(got, pa.Table):
            got = pa.Table.from_pylist(got.take_all())
        df = got.to_pandas().sort_values("conv_id", ignore_index=True)
        assert df["conv_id"].tolist() == ["a", "b"]
        assert df["major_lang"].tolist() == ["en", "de"]
        assert df["n_major_turns"].tolist() == [2, 2]


class TestTurnGapStats:
    def test_gaps_across_blocks(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        base = np.datetime64("2025-01-01T00:00:00", "us")
        rows = [
            ("a", 0, base),
            ("a", 1, base + np.timedelta64(10, "s")),
            ("a", 2, base + np.timedelta64(40, "s")),   # gaps 10, 30
            ("b", 0, base),                              # single turn: absent
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        })
        got = tp.turn_gap_stats(
            rd.from_arrow(t).repartition(4)).to_pandas()
        got = got.sort_values("conv_id").reset_index(drop=True)
        assert got["conv_id"].tolist() == ["a"]
        assert got["max_gap_s"].tolist() == [30.0]
        assert got["mean_gap_s"].tolist() == [20.0]
        assert got["n_gaps"].tolist() == [2]


class TestConversationForkGroups:
    def test_prefix_groups_and_singletons(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [
            ("a", 0, "hello"), ("a", 1, "do x"), ("a", 2, "result 1"),
            ("b", 0, "hello"), ("b", 1, "do x"), ("b", 2, "result 2"),
            ("c", 0, "hello"), ("c", 1, "do y"), ("c", 2, "zzz"),
            ("d", 0, "solo"),
            ("e", 0, "short"), ("f", 0, "short"),  # 1-turn twins
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })
        got = tp.conversation_fork_groups(
            rd.from_arrow(t).repartition(4), 2
        ).to_pandas().sort_values("conv_id", ignore_index=True)
        assert got["conv_id"].tolist() == ["a", "b", "e", "f"]
        assert got["fork_group"].tolist() == ["a", "a", "e", "e"]
        assert got["n_convs"].tolist() == [2, 2, 2, 2]

    def test_short_conv_never_groups_with_longer_prefix(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        # g has 1 turn, h has 2; first turns identical — n_turns mixes
        # into the fingerprint, so they must NOT group
        rows = [("g", 0, "same"), ("h", 0, "same"), ("h", 1, "more")]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })
        got = tp.conversation_fork_groups(rd.from_arrow(t), 2).to_pandas()
        assert len(got) == 0

    def test_prefix_turns_validation(self, ray_session):
        import pytest
        import ray.data as rd
        import pyarrow as pa

        t = pa.table({"conv_id": pa.array(["x"], pa.string()),
                      "turn_idx": pa.array([0], pa.int32()),
                      "text": pa.array(["y"], pa.string())})
        with pytest.raises(ValueError):
            tp.conversation_fork_groups(rd.from_arrow(t), 0)


class TestForkGroupsSharded:
    def test_forced_multi_shard_stamping(self, ray_session, monkeypatch,
                                         hash_shard_counts):
        # ROWS_PER_SHARD=1 forces every fork group into its own broadcast
        # shard; results must be identical to the single-shard path
        import pyarrow as pa
        import ray.data as rd

        rows = [
            ("a", 0, "p1"), ("b", 0, "p1"),
            ("c", 0, "p2"), ("d", 0, "p2"), ("e", 0, "p2"),
            ("f", 0, "solo"),
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })
        base = tp.conversation_fork_groups(
            rd.from_arrow(t), 1).to_pandas().sort_values(
            "conv_id", ignore_index=True)
        monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 1)
        hash_shard_counts.clear()
        sharded = tp.conversation_fork_groups(
            rd.from_arrow(t), 1).to_pandas().sort_values(
            "conv_id", ignore_index=True)
        assert max(hash_shard_counts) >= 2
        assert base.equals(sharded)
        assert base["conv_id"].tolist() == ["a", "b", "c", "d", "e"]
        assert base["n_convs"].tolist() == [2, 2, 3, 3, 3]


class TestPreferencePairs:
    def _table(self):
        import pyarrow as pa

        rows = []
        for conv, tail in [("a", ["long assistant answer here", "more"]),
                           ("b", ["short"]),
                           ("c", ["the longest assistant tail of all",
                                  "x", "y"])]:
            rows += [(conv, 0, "user", "task p1"),
                     (conv, 1, "assistant", "ack p1")]
            for i, txt in enumerate(tail):
                rows.append((conv, 2 + i,
                             "assistant" if i % 2 == 0 else "user", txt))
        rows += [("d", 0, "user", "solo"), ("d", 1, "assistant", "resp")]
        rows += [("e", 0, "user", "task p2"), ("f", 0, "user", "task p2")]
        return pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })

    def test_chosen_rejected_semantics(self, ray_session):
        import ray.data as rd

        out = tp.preference_pairs(rd.from_arrow(self._table()), 2) \
            .to_pandas().sort_values("rejected_conv", ignore_index=True)
        # group (a,b,c): c has the longest assistant tail (33 + 1 chars)
        # -> chosen; a (26) and b (5) rejected.  singleton d absent.
        # group (e,f): both tails empty -> tie at 0, chosen = min conv id.
        assert out["rejected_conv"].tolist() == ["a", "b", "f"]
        assert out["chosen_conv"].tolist() == ["c", "c", "e"]
        assert out["chosen_score"].tolist() == [34, 34, 0]
        assert out["rejected_score"].tolist() == [26, 5, 0]
        assert out["n_convs"].tolist() == [3, 3, 2]
        assert out["fork_group"].tolist() == ["a", "a", "e"]

    def test_forced_multi_shard_identical(self, ray_session, monkeypatch,
                                          hash_shard_counts):
        import ray.data as rd

        base = tp.preference_pairs(rd.from_arrow(self._table()), 2) \
            .to_pandas().sort_values("rejected_conv", ignore_index=True)
        monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 1)
        hash_shard_counts.clear()
        sharded = tp.preference_pairs(rd.from_arrow(self._table()), 2) \
            .to_pandas().sort_values("rejected_conv", ignore_index=True)
        assert max(hash_shard_counts) >= 2
        assert base.equals(sharded)

    def test_int_keys_and_null_fields(self, ray_session):
        """Int conv ids keep their type through the fused fold; null
        idx/role/text rows neither fingerprint nor score (null idx is in
        neither prefix nor tail; null role never matches chosen_role;
        null tail text scores 0 chars)."""
        import pyarrow as pa
        import ray.data as rd

        rows = [
            (10, 0, "user", "same prompt"), (10, 1, "assistant", "longer"),
            (20, 0, "user", "same prompt"), (20, 1, "assistant", None),
            (20, None, "assistant", "null idx never scores"),
            (20, 1, None, "null role never scores"),
            (None, 0, "user", "null conv dropped"),
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.int64()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int64()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        out = tp.preference_pairs(rd.from_arrow(t), 1)
        assert out.schema().base_schema.field("fork_group").type == pa.int64()
        df = out.to_pandas()
        assert df.chosen_conv.tolist() == [10]  # 'longer' (6) beats None (0)
        assert df.rejected_conv.tolist() == [20]
        assert df.chosen_score.tolist() == [6]
        assert df.rejected_score.tolist() == [0]
        assert df.n_convs.tolist() == [2]

    def test_no_fork_groups_empty(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["x", "y"], pa.string()),
            "turn_idx": pa.array([0, 0], pa.int32()),
            "role": pa.array(["user", "user"], pa.string()),
            "text": pa.array(["p", "q"], pa.string()),
        })
        out = tp.preference_pairs(rd.from_arrow(t), 1)
        # the typed empty anchor keeps the schema (Ray to_pandas drops
        # columns on empty datasets regardless)
        assert out.schema().names == [
            "fork_group", "chosen_conv", "rejected_conv",
            "chosen_score", "rejected_score", "n_convs"]
        assert out.count() == 0


class TestAssistantLoopStats:
    def _run(self, rows, min_run=2, n_blocks=1):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        ds = rd.from_arrow(t)
        if n_blocks > 1:
            ds = ds.repartition(n_blocks)
        return tp.assistant_loop_stats(ds, min_run) \
            .to_pandas().sort_values("conv_id", ignore_index=True)

    def test_run_semantics(self, ray_session):
        rows = [
            ("a", 0, "user", "q"), ("a", 1, "assistant", "x"),
            ("a", 2, "user", "q2"), ("a", 3, "assistant", "x"),
            ("a", 4, "user", "q3"), ("a", 5, "assistant", "x"),
            ("a", 6, "user", "q4"), ("a", 7, "assistant", "y"),
            ("b", 1, "assistant", "x"), ("b", 3, "assistant", "y"),
            ("b", 5, "assistant", "y"), ("b", 7, "assistant", "x"),
            ("c", 0, "user", "only"),
            ("d", 1, "assistant", None), ("d", 3, "assistant", None),
        ]
        out = self._run(rows)
        assert out["conv_id"].tolist() == ["a", "b", "d"]  # c absent
        assert out["max_run"].tolist() == [3, 2, 2]  # nulls group (d)
        assert out["n_loops"].tolist() == [1, 1, 1]
        assert out["n_role_turns"].tolist() == [4, 4, 2]

    def test_boundary_straddling_blocks(self, ray_session):
        # one conversation with a 6-run split across many tiny blocks:
        # the boundary repair must see the complete conversation
        rows = [("solo", i, "assistant", "same") for i in range(6)]
        rows += [("z", 0, "assistant", "a"), ("z", 1, "assistant", "b")]
        out = self._run(rows, n_blocks=4)
        assert out["conv_id"].tolist() == ["solo", "z"]
        assert out["max_run"].tolist() == [6, 1]
        assert out["n_loops"].tolist() == [1, 0]

    def test_min_run_validation(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({"conv_id": pa.array(["a"], pa.string()),
                      "turn_idx": pa.array([0], pa.int32()),
                      "role": pa.array(["assistant"], pa.string()),
                      "text": pa.array(["x"], pa.string())})
        with pytest.raises(ValueError):
            tp.assistant_loop_stats(rd.from_arrow(t), 0)


class TestConversationFilter:
    def _table(self):
        import pyarrow as pa

        rows = [
            ("good", 0, "user", "q"), ("good", 1, "assistant", "a"),
            ("short", 0, "user", "only"),
            ("astart", 0, "assistant", "a"), ("astart", 1, "user", "q"),
            ("gap", 0, "user", "q"), ("gap", 2, "assistant", "a"),
            ("blank", 0, "user", ""), ("blank", 1, "assistant", "a"),
            (None, 0, "user", "orphan"),
        ]
        return pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })

    def test_report_reason_priority(self, ray_session):
        import ray.data as rd

        rep = tp.conversation_filter_report(rd.from_arrow(self._table())) \
            .to_pandas().sort_values("conv_id", ignore_index=True)
        assert rep["conv_id"].tolist() == [
            "astart", "blank", "gap", "good", "short"]
        assert rep["reason"].tolist() == [
            "no_user_start", "empty_text", "sparse_index", "ok",
            "too_few_turns"]
        assert rep["keep"].tolist() == [False, False, False, True, False]

    def test_rules_toggle(self, ray_session):
        import ray.data as rd

        rep = tp.conversation_filter_report(
            rd.from_arrow(self._table()), min_turns=1,
            require_user_start=False, require_dense_index=False,
            allow_empty_text=True,
        ).to_pandas()
        assert rep["keep"].all()  # every rule disabled -> everything kept
        # assistant-end rule, when enabled, fires on user-ending convs
        rep2 = tp.conversation_filter_report(
            rd.from_arrow(self._table()), min_turns=1,
            require_user_start=False, require_assistant_end=True,
            require_dense_index=False, allow_empty_text=True,
        ).to_pandas().set_index("conv_id")
        assert rep2.loc["astart", "reason"] == "no_assistant_end"
        assert rep2.loc["good", "reason"] == "ok"

    def test_filter_drops_whole_conversations(self, ray_session):
        import ray.data as rd

        kept = tp.filter_conversations(rd.from_arrow(self._table())) \
            .to_pandas()
        assert sorted(kept["conv_id"].tolist()) == ["good", "good"]
        assert list(kept.columns) == ["conv_id", "turn_idx", "role", "text"]

    def test_filter_nothing_dropped_keeps_all_non_null(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["k", "k", None], pa.string()),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "role": pa.array(["user", "assistant", "user"], pa.string()),
            "text": pa.array(["q", "a", "x"], pa.string()),
        })
        kept = tp.filter_conversations(rd.from_arrow(t)).to_pandas()
        assert sorted(kept["conv_id"].tolist()) == ["k", "k"]


class TestEchoStats:
    def test_semantics(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [
            ("a", 0, "user", "hello"), ("a", 1, "assistant", "hello"),
            ("a", 2, "user", "next"), ("a", 3, "assistant", "reply"),
            # tool interposed: no adjacent user->assistant pair
            ("b", 0, "user", "x"), ("b", 1, "tool", "x"),
            ("b", 2, "assistant", "x"),
            # assistant-first: a->u is not a pair
            ("c", 0, "assistant", "a"), ("c", 1, "user", "b"),
            # null texts: pair but never an echo
            ("d", 0, "user", None), ("d", 1, "assistant", None),
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        out = tp.echo_stats(rd.from_arrow(t)).to_pandas() \
            .sort_values("conv_id", ignore_index=True)
        assert out["conv_id"].tolist() == ["a", "d"]
        assert out["n_echoes"].tolist() == [1, 0]
        assert out["n_pairs"].tolist() == [2, 1]

    def test_boundary_straddling_blocks(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        # echo at the very junction turns of a conversation split across
        # blocks: the boundary repair must see the full sequence
        rows = [("big", i, "user" if i % 2 == 0 else "assistant",
                 "same") for i in range(8)]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        out = tp.echo_stats(rd.from_arrow(t).repartition(4)).to_pandas()
        assert out["n_echoes"].tolist() == [4]
        assert out["n_pairs"].tolist() == [4]


class TestClipTurnTexts:
    def test_clip_semantics(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["a"] * 5, pa.string()),
            "turn_idx": pa.array(range(5), pa.int32()),
            "text": pa.array(["one two three four",
                              "  spaced   out  tokens here five ",
                              "short", None, ""], pa.string()),
        })
        out = tp.clip_turn_texts(rd.from_arrow(t), 3).to_pandas() \
            .sort_values("turn_idx", ignore_index=True)
        assert out["text"].tolist()[:3] == [
            "one two three", "spaced out tokens", "short"]
        assert out["text"][3] is None and out["text"][4] == ""
        assert out["clipped"].tolist() == [True, True, False, False, False]

    def test_under_budget_passthrough_byte_identical(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        weird = "a\tb\n c"  # 3 tokens, odd whitespace must survive
        t = pa.table({"conv_id": pa.array(["x"], pa.string()),
                      "turn_idx": pa.array([0], pa.int32()),
                      "text": pa.array([weird], pa.string())})
        out = tp.clip_turn_texts(rd.from_arrow(t), 3).to_pandas()
        assert out["text"][0] == weird and not out["clipped"][0]

    def test_validation(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({"text": pa.array(["x"], pa.string())})
        with pytest.raises(ValueError):
            tp.clip_turn_texts(rd.from_arrow(t), 0)


class TestRoleBalanceStats:
    def test_semantics(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [("a", "user", "hi"), ("a", "assistant", "hello there"),
                ("a", "tool", "{}"), ("a", None, "x"),
                ("b", "user", None), (None, "user", "drop")]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array(range(len(rows)), pa.int32()),
            "role": pa.array([r[1] for r in rows], pa.string()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })
        out = tp.role_balance_stats(rd.from_arrow(t)).to_pandas() \
            .sort_values("conv_id", ignore_index=True)
        assert out["conv_id"].tolist() == ["a", "b"]
        assert out["n_user"].tolist() == [1, 1]
        assert out["n_assistant"].tolist() == [1, 0]
        assert out["n_other"].tolist() == [2, 0]  # tool + null role
        assert out["user_chars"].tolist() == [2, 0]  # null text -> 0
        assert out["assistant_chars"].tolist() == [11, 0]


class TestToolTransitionCounts:
    def test_semantics(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [
            ("a", 0, None), ("a", 1, "search"), ("a", 2, None),
            ("a", 3, "code"), ("a", 4, "code"),
            ("b", 0, "search"), ("b", 1, "code"),
            ("c", 0, "solo"),
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "tool": pa.array([r[2] for r in rows], pa.string()),
        })
        out = tp.tool_transition_counts(rd.from_arrow(t)).to_pandas() \
            .sort_values(["tool_from", "tool_to"], ignore_index=True)
        assert out.values.tolist() == [
            ["code", "code", 1], ["search", "code", 2]]

    def test_boundary_straddling_blocks(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        # one conversation's tool chain split across blocks: the junction
        # transition must not be lost or double-counted
        rows = [("big", i, f"t{i % 2}") for i in range(6)]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "tool": pa.array([r[2] for r in rows], pa.string()),
        })
        out = tp.tool_transition_counts(
            rd.from_arrow(t).repartition(3)).to_pandas() \
            .sort_values(["tool_from", "tool_to"], ignore_index=True)
        assert out.values.tolist() == [
            ["t0", "t1", 3], ["t1", "t0", 2]]


class TestSequenceOpDifferentials:
    def test_loop_echo_tool_vs_pandas(self, ray_session):
        """Hypothesis differential for the three newest sequence kernels
        (loop runs / echo pairs / tool transitions) including the
        boundary-merge path: random tables, random block splits, compared
        against straight pandas re-derivations."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd
        from hypothesis import given, settings
        from hypothesis import strategies as st

        rows_st = st.lists(
            st.tuples(
                st.integers(0, 3),                      # conv bucket
                st.sampled_from(["user", "assistant", "tool"]),
                st.one_of(st.none(), st.sampled_from(["x", "y", "zz"])),
                st.one_of(st.none(), st.sampled_from(["t0", "t1"])),
            ),
            min_size=1, max_size=40,
        )

        @settings(max_examples=25, deadline=None)
        @given(rows_st, st.integers(1, 5))
        def prop(rows, n_blocks):
            df = pd.DataFrame({
                "conv_id": [f"c{r[0]}" for r in rows],
                "role": [r[1] for r in rows],
                "text": [r[2] for r in rows],
                "tool": [r[3] for r in rows],
            })
            df["turn_idx"] = df.groupby("conv_id").cumcount()
            t = pa.table({
                "conv_id": pa.array(df["conv_id"], pa.string()),
                "turn_idx": pa.array(df["turn_idx"], pa.int32()),
                "role": pa.array(df["role"], pa.string()),
                "text": pa.array(df["text"], pa.string()),
                "tool": pa.array(df["tool"], pa.string()),
            })
            ds = rd.from_arrow(t).repartition(n_blocks)

            # --- loop stats (assistant runs, nulls group together) ---
            def py_loops(g):
                texts = g.loc[g["role"] == "assistant", "text"].tolist()
                if not texts:
                    return None
                runs, cur = [], 1
                for a, b in zip(texts, texts[1:]):
                    if (a is None and b is None) or a == b:
                        cur += 1
                    else:
                        runs.append(cur)
                        cur = 1
                runs.append(cur)
                return (max(runs), sum(r >= 2 for r in runs), len(texts))

            exp = {}
            for conv, g in df.sort_values("turn_idx").groupby("conv_id"):
                r = py_loops(g)
                if r is not None:
                    exp[conv] = r
            got = tp.assistant_loop_stats(ds, 2).to_pandas()
            got_map = {r.conv_id: (r.max_run, r.n_loops, r.n_role_turns)
                       for r in got.itertuples()}
            assert got_map == exp

            # --- echo stats ---
            exp_e = {}
            for conv, g in df.sort_values("turn_idx").groupby("conv_id"):
                roles = g["role"].tolist()
                texts = g["text"].tolist()
                pairs = echoes = 0
                for i in range(1, len(roles)):
                    if roles[i] == "assistant" and roles[i - 1] == "user":
                        pairs += 1
                        if (texts[i] is not None and texts[i - 1] is not None
                                and texts[i] == texts[i - 1]):
                            echoes += 1
                if pairs:
                    exp_e[conv] = (echoes, pairs)
            got_e = tp.echo_stats(ds).to_pandas()
            got_e_map = {r.conv_id: (r.n_echoes, r.n_pairs)
                         for r in got_e.itertuples()}
            assert got_e_map == exp_e

            # --- tool transitions ---
            exp_t = {}
            for conv, g in df.sort_values("turn_idx").groupby("conv_id"):
                tools = [x for x in g["tool"].tolist() if x is not None]
                for a, b in zip(tools, tools[1:]):
                    exp_t[(a, b)] = exp_t.get((a, b), 0) + 1
            got_t = tp.tool_transition_counts(ds).to_pandas()
            got_t_map = {(r.tool_from, r.tool_to): r.n
                         for r in got_t.itertuples()}
            assert got_t_map == exp_t

        prop()


class TestCurateConversations:
    def test_composed_stages_all_nonidentity(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [
            ("good", 0, "user", "one two three four"),
            ("good", 1, "assistant", "ok"),
            # exact duplicate of good under a later id -> deduped
            ("gooddup", 0, "user", "one two three four"),
            ("gooddup", 1, "assistant", "ok"),
            ("short", 0, "user", "only"),            # structural drop
            ("other", 0, "user", "alpha"),
            ("other", 1, "assistant", "beta"),
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        out = tp.curate_conversations(rd.from_arrow(t), clip_tokens=3) \
            .to_pandas().sort_values(["conv_id", "turn_idx"],
                                     ignore_index=True)
        assert out["conv_id"].tolist() == ["good", "good", "other", "other"]
        assert out["text"].tolist() == ["one two three", "ok", "alpha",
                                        "beta"]
        assert out["clipped"].tolist() == [True, False, False, False]

    def test_no_clip_keeps_schema(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["k", "k"], pa.string()),
            "turn_idx": pa.array([0, 1], pa.int32()),
            "role": pa.array(["user", "assistant"], pa.string()),
            "text": pa.array(["q", "a"], pa.string()),
        })
        out = tp.curate_conversations(rd.from_arrow(t)).to_pandas()
        assert "clipped" not in out.columns and len(out) == 2


class TestSplitByForkGroup:
    def test_members_co_split(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [("a", 0, "user", "same task"), ("b", 0, "user", "same task"),
                ("solo", 0, "user", "unique")]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        out = tp.split_by_fork_group(rd.from_arrow(t), 1).to_pandas() \
            .sort_values("conv_id", ignore_index=True)
        assert out["conv_id"].tolist() == ["a", "b", "solo"]
        assert out["group_id"].tolist() == ["a", "a", "solo"]
        assert out.loc[0, "split"] == out.loc[1, "split"]
        assert set(out["split"]) <= {"train", "val", "test"}

    def test_matches_split_assign_rule_for_singletons(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.relational import split_assign

        convs = [f"conv-{i:04d}" for i in range(50)]
        t = pa.table({
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array([0] * 50, pa.int32()),
            "role": pa.array(["user"] * 50, pa.string()),
            "text": pa.array(convs, pa.string()),  # all unique: no forks
        })
        got = tp.split_by_fork_group(rd.from_arrow(t), 1).to_pandas() \
            .sort_values("conv_id", ignore_index=True)
        ref = split_assign(
            rd.from_arrow(pa.table({"conv_id": pa.array(convs)})),
            "conv_id").to_pandas().sort_values("conv_id",
                                               ignore_index=True)
        assert got["split"].tolist() == ref["split"].tolist()
        assert (got["group_id"] == got["conv_id"]).all()

    def test_bad_weights(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({"conv_id": pa.array(["a"], pa.string()),
                      "turn_idx": pa.array([0], pa.int32()),
                      "role": pa.array(["user"], pa.string()),
                      "text": pa.array(["x"], pa.string())})
        with pytest.raises(ValueError):
            tp.split_by_fork_group(rd.from_arrow(t), 1,
                                   splits=(("a", 80), ("b", 30)))


class TestReviewFixRegressions:
    """Session self-review findings: null-role verdicts, int conv-id empty
    fallbacks, Unicode-trim clip divergence, empty-result schema anchors."""

    def test_filter_report_null_first_role_no_crash(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        # null first/last role: SQL `WHEN NOT flag` is not-true on NULL,
        # so neither user-start nor assistant-end fires (and no TypeError)
        t = pa.table({
            "conv_id": pa.array(["n", "n"], pa.string()),
            "turn_idx": pa.array([0, 1], pa.int32()),
            "role": pa.array([None, None], pa.string()),
            "text": pa.array(["q", "a"], pa.string()),
        })
        rep = tp.conversation_filter_report(
            rd.from_arrow(t), require_assistant_end=True).to_pandas()
        assert rep["reason"].tolist() == ["ok"]

    def test_loop_echo_int_conv_ids_multiblock(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        # int64 conv ids + small blocks: empty-kernel fallbacks must carry
        # the input dtype or the finals/merged union fails to unify
        rows = [(i // 4, i % 4, "assistant" if i % 2 else "user", "s")
                for i in range(16)]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.int64()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
        })
        ds = rd.from_arrow(t).repartition(5)
        loops = tp.assistant_loop_stats(ds, 2).to_pandas()
        assert sorted(loops["conv_id"]) == [0, 1, 2, 3]
        assert (loops["max_run"] == 2).all()
        echo = tp.echo_stats(ds).to_pandas()
        assert sorted(echo["conv_id"]) == [0, 1, 2, 3]
        assert (echo["n_echoes"] == 2).all()
        rb = tp.role_balance_stats(ds).to_pandas()
        assert sorted(rb["conv_id"]) == [0, 1, 2, 3]

    def test_clip_preserves_non_ascii_whitespace_tokens(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        # NBSP is \S for RE2: it must survive as part of the first token
        # exactly like regexp_extract_all in the oracle
        txt = " x1 x2 x3 x4"
        t = pa.table({"conv_id": pa.array(["u"], pa.string()),
                      "turn_idx": pa.array([0], pa.int32()),
                      "text": pa.array([txt], pa.string())})
        out = tp.clip_turn_texts(rd.from_arrow(t), 3).to_pandas()
        assert out["text"][0] == " x1 x2 x3"

    def test_empty_results_keep_schema(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["only"], pa.string()),
            "turn_idx": pa.array([0], pa.int32()),
            "role": pa.array(["user"], pa.string()),
            "text": pa.array(["x"], pa.string()),
        })
        ds = rd.from_arrow(t)
        assert tp.assistant_loop_stats(ds, 2).schema().names == [
            "conv_id", "max_run", "n_loops", "n_role_turns"]
        assert tp.echo_stats(ds).schema().names == [
            "conv_id", "n_echoes", "n_pairs"]

    def test_split_matches_split_assign_exactly(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.relational import split_assign

        # custom weights flow through to the shared rule
        convs = [f"c{i}" for i in range(40)]
        t = pa.table({
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array([0] * 40, pa.int32()),
            "role": pa.array(["user"] * 40, pa.string()),
            "text": pa.array(convs, pa.string()),
        })
        got = tp.split_by_fork_group(
            rd.from_arrow(t), 1, splits=(("a", 50), ("b", 50))) \
            .to_pandas().sort_values("conv_id", ignore_index=True)
        ref = split_assign(
            rd.from_arrow(pa.table({"k": pa.array(convs)})), "k",
            splits=(("a", 50), ("b", 50))).to_pandas() \
            .sort_values("k", ignore_index=True)
        assert got["split"].tolist() == ref["split"].tolist()


class TestReindexTurns:
    def test_dense_rank_and_passthrough(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["a", "a", "a", "b", "b"], pa.string()),
            "turn_idx": pa.array([2, 5, 9, 1, 7], pa.int32()),
            "role": pa.array(["user", "assistant", "user", "user",
                              "assistant"], pa.string()),
            "text": pa.array(["q", "a", "q2", "x", "y"], pa.string()),
        })
        out = tp.reindex_turns(rd.from_arrow(t).repartition(3)) \
            .to_pandas().sort_values(["conv_id", "turn_idx"],
                                     ignore_index=True)
        assert out["turn_idx"].tolist() == [0, 1, 2, 0, 1]
        assert out["orig_turn_idx"].tolist() == [2, 5, 9, 1, 7]
        assert out["text"].tolist() == ["q", "a", "q2", "x", "y"]
        # dtype preserved
        assert out["turn_idx"].dtype.name == "int32"

    def test_validates_dense_after_reindex(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        # sparse-index conversation becomes valid dense after reindexing
        t = pa.table({
            "conv_id": pa.array(["g", "g"], pa.string()),
            "turn_idx": pa.array([3, 8], pa.int32()),
            "role": pa.array(["user", "assistant"], pa.string()),
            "text": pa.array(["q", "a"], pa.string()),
        })
        re_ds = tp.reindex_turns(rd.from_arrow(t))
        rep = tp.validate_conversations(re_ds).to_pandas()
        assert rep["dense_index"].tolist() == [True]
        assert rep["valid"].tolist() == [True]


class TestSecondReviewRegressions:
    def test_clip_keeps_vertical_tab(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        # \x0b is \S for RE2 here: it must stay part of the first token
        txt = "\x0bx1 x2 x3 x4"
        t = pa.table({"conv_id": pa.array(["v"], pa.string()),
                      "turn_idx": pa.array([0], pa.int32()),
                      "text": pa.array([txt], pa.string())})
        out = tp.clip_turn_texts(rd.from_arrow(t), 3).to_pandas()
        assert out["text"][0] == "\x0bx1 x2 x3"

    def test_filter_report_int_conv_ids(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array([1, 1, 2], pa.int64()),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "role": pa.array(["user", "assistant", "user"], pa.string()),
            "text": pa.array(["q", "a", "solo"], pa.string()),
        })
        rep = tp.conversation_filter_report(rd.from_arrow(t)) \
            .to_pandas().sort_values("conv_id", ignore_index=True)
        # validate_conversations canonicalizes conv ids to string
        assert rep["conv_id"].tolist() == ["1", "2"]
        assert rep["reason"].tolist() == ["ok", "too_few_turns"]

    def test_reindex_rejects_double_application(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["a"], pa.string()),
            "turn_idx": pa.array([4], pa.int32()),
            "role": pa.array(["user"], pa.string()),
            "text": pa.array(["x"], pa.string()),
        })
        once = tp.reindex_turns(rd.from_arrow(t))
        with pytest.raises(ValueError):
            tp.reindex_turns(once)

    def test_filter_conversations_int_conv_ids(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array([1, 1, 2], pa.int64()),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "role": pa.array(["user", "assistant", "user"], pa.string()),
            "text": pa.array(["q", "a", "solo"], pa.string()),
        })
        kept = tp.filter_conversations(rd.from_arrow(t)).to_pandas()
        # conv 2 (too few turns) must actually be dropped despite the
        # report's string-canonical ids
        assert sorted(kept["conv_id"].tolist()) == [1, 1]
        assert kept["conv_id"].dtype.name == "int64"


class TestConversationDiff:
    def _tbl(self, rows):
        import pyarrow as pa

        return pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })

    def test_added_removed_changed(self, ray_session):
        import ray.data as rd

        old = self._tbl([("same", 0, "x"), ("same", 1, "y"),
                         ("gone", 0, "a"), ("edit", 0, "before")])
        new = self._tbl([("same", 0, "x"), ("same", 1, "y"),
                         ("edit", 0, "after"), ("brand", 0, "n")])
        out = tp.conversation_diff(rd.from_arrow(old), rd.from_arrow(new)) \
            .to_pandas().sort_values("conv_id", ignore_index=True)
        assert out.values.tolist() == [
            ["brand", "added"], ["edit", "changed"], ["gone", "removed"]]

    def test_turn_order_is_content(self, ray_session):
        import ray.data as rd

        # same texts at swapped turn indices = changed (order-sensitive)
        old = self._tbl([("c", 0, "p"), ("c", 1, "q")])
        new = self._tbl([("c", 0, "q"), ("c", 1, "p")])
        out = tp.conversation_diff(rd.from_arrow(old), rd.from_arrow(new)) \
            .to_pandas()
        assert out.values.tolist() == [["c", "changed"]]

    def test_identical_snapshots_empty_with_schema(self, ray_session):
        import ray.data as rd

        t = self._tbl([("c", 0, "p")])
        out = tp.conversation_diff(rd.from_arrow(t), rd.from_arrow(t))
        assert out.count() == 0
        assert out.schema().names == ["conv_id", "status"]


class TestForkIndex:
    def _tbl(self, rows):
        import pyarrow as pa

        return pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })

    def test_write_probe_roundtrip(self, ray_session, tmp_path):
        import ray.data as rd

        old = self._tbl([("t1", 0, "task one"), ("t1", 1, "ack"),
                         ("t1b", 0, "task one"), ("t1b", 1, "ack"),
                         ("t2", 0, "task two"), ("t2", 1, "ack")])
        new = self._tbl([("r1", 0, "task one"), ("r1", 1, "ack"),
                         ("r1", 2, "retry tail"),
                         ("fresh", 0, "task three"), ("fresh", 1, "ack")])
        d = str(tmp_path / "idx")
        tp.fork_index_write(rd.from_arrow(old), 2, d)
        out = tp.fork_index_probe(rd.from_arrow(new), d, 2) \
            .to_pandas().sort_values("conv_id", ignore_index=True)
        # r1's identical 2-turn prefix matches; witness is the MIN of the
        # two same-prefix indexed convs; fresh has no indexed prefix
        assert out.values.tolist() == [["r1", "t1"]]

    def test_short_conversation_prefix_semantics(self, ray_session,
                                                 tmp_path):
        import ray.data as rd

        # a 1-turn conv keys on its full shorter sequence: it must NOT
        # match a 2-turn indexed conv sharing turn 0
        old = self._tbl([("long", 0, "same start"), ("long", 1, "more")])
        new = self._tbl([("short", 0, "same start")])
        d = str(tmp_path / "idx")
        tp.fork_index_write(rd.from_arrow(old), 2, d)
        out = tp.fork_index_probe(rd.from_arrow(new), d, 2).to_pandas()
        assert len(out) == 0

    def test_empty_new_shard_keeps_schema(self, ray_session, tmp_path):
        import pyarrow as pa
        import ray.data as rd

        old = self._tbl([("a", 0, "x")])
        d = str(tmp_path / "idx")
        tp.fork_index_write(rd.from_arrow(old), 1, d)
        empty = pa.table({
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "text": pa.array([], pa.string()),
        })
        out = tp.fork_index_probe(rd.from_arrow(empty), d, 1)
        assert out.count() == 0
        assert out.schema().names == ["conv_id", "matched_conv"]


class TestSampleConversations:
    def test_deterministic_exact_n(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.pipelines.relational import md5_bucket

        convs = [f"c{i:03d}" for i in range(20)]
        rows = [(c, j) for c in convs for j in range(3)]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array(["x"] * len(rows), pa.string()),
        })
        out = tp.sample_conversations(
            rd.from_arrow(t).repartition(4), 5).to_pandas()
        rank = md5_bucket(pa.array(convs))
        exp = sorted([c for _, c in sorted(zip(rank, convs))][:5])
        assert sorted(out["conv_id"].unique()) == exp
        assert len(out) == 15  # whole conversations, all turns
        # rerun identical (pure function of the ids)
        out2 = tp.sample_conversations(
            rd.from_arrow(t).repartition(7), 5).to_pandas()
        assert sorted(out2["conv_id"].unique()) == exp

    def test_n_larger_than_corpus_keeps_all(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["a", "b"], pa.string()),
            "turn_idx": pa.array([0, 0], pa.int32()),
            "text": pa.array(["x", "y"], pa.string()),
        })
        out = tp.sample_conversations(rd.from_arrow(t), 10).to_pandas()
        assert sorted(out["conv_id"]) == ["a", "b"]

    def test_driver_gate(self, ray_session, monkeypatch):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array([f"c{i}" for i in range(30)], pa.string()),
            "turn_idx": pa.array([0] * 30, pa.int32()),
            "text": pa.array(["x"] * 30, pa.string()),
        })
        # the default gate merges on the driver
        assert tp.sample_conversations(rd.from_arrow(t), 25).count() == 25
        monkeypatch.setattr(tp, "SAMPLE_DRIVER_MAX_ROWS", 10)
        with pytest.raises(ValueError):
            tp.sample_conversations(rd.from_arrow(t), 25)


class TestFilterPiiConversations:
    def test_threshold_semantics(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        rows = [
            ("clean", 0, "no pii here"),
            ("leaky", 0, "mail a@b.co and c@d.org plus http://x.io"),
            ("mild", 0, "just one a@b.co"),
            (None, 0, "null conv"),
        ]
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })
        strict = tp.filter_pii_conversations(rd.from_arrow(t), 0) \
            .to_pandas()
        assert sorted(strict["conv_id"]) == ["clean"]
        loose = tp.filter_pii_conversations(rd.from_arrow(t), 2) \
            .to_pandas()
        assert sorted(loose["conv_id"]) == ["clean", "mild"]
        with pytest.raises(ValueError):
            tp.filter_pii_conversations(rd.from_arrow(t), -1)


class TestConversationIndexDiff:
    def test_index_diff_equals_direct(self, ray_session, tmp_path):
        import pyarrow as pa
        import ray.data as rd

        def tbl(rows):
            return pa.table({
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "text": pa.array([r[2] for r in rows], pa.string()),
            })

        old = tbl([("same", 0, "x"), ("gone", 0, "a"),
                   ("edit", 0, "before")])
        new = tbl([("same", 0, "x"), ("edit", 0, "after"),
                   ("brand", 0, "n")])
        d = str(tmp_path / "cidx")
        tp.conversation_index_write(rd.from_arrow(old), d)
        got = tp.conversation_diff_against_index(rd.from_arrow(new), d) \
            .to_pandas().sort_values("conv_id", ignore_index=True)
        direct = tp.conversation_diff(
            rd.from_arrow(old), rd.from_arrow(new)) \
            .to_pandas().sort_values("conv_id", ignore_index=True)
        assert got.equals(direct)
        assert got["status"].tolist() == ["added", "changed", "removed"]

    def test_identical_new_snapshot_empty(self, ray_session, tmp_path):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array(["c"], pa.string()),
            "turn_idx": pa.array([0], pa.int32()),
            "text": pa.array(["p"], pa.string()),
        })
        d = str(tmp_path / "cidx")
        tp.conversation_index_write(rd.from_arrow(t), d)
        out = tp.conversation_diff_against_index(rd.from_arrow(t), d)
        assert out.count() == 0
        assert out.schema().names == ["conv_id", "status"]


class TestTurnDiff:
    def test_turn_level_statuses(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        def tbl(rows):
            return pa.table({
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "text": pa.array([r[2] for r in rows], pa.string()),
            })

        old = tbl([("c", 0, "keep"), ("c", 1, "drop me"),
                   ("c", 2, "edit me"), ("d", 0, None)])
        new = tbl([("c", 0, "keep"), ("c", 2, "edited"),
                   ("c", 3, "appended"), ("d", 0, "was null")])
        out = tp.turn_diff(rd.from_arrow(old), rd.from_arrow(new)) \
            .to_pandas().sort_values(["conv_id", "turn_idx"],
                                     ignore_index=True)
        assert out.values.tolist() == [
            ["c", 1, "removed"], ["c", 2, "changed"], ["c", 3, "added"],
            ["d", 0, "changed"],  # NULL -> text is a change
        ]

    def test_identical_empty_with_schema(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({"conv_id": pa.array(["c"], pa.string()),
                      "turn_idx": pa.array([0], pa.int32()),
                      "text": pa.array(["same"], pa.string())})
        out = tp.turn_diff(rd.from_arrow(t), rd.from_arrow(t))
        assert out.count() == 0
        assert out.schema().names == ["conv_id", "turn_idx", "status"]


class TestThirdReviewRegressions:
    def test_fork_probe_forced_multi_shard(self, ray_session, monkeypatch,
                                           hash_shard_counts, tmp_path):
        """Finding: chained per-shard keep filters AND to nothing.  With
        ROWS_PER_SHARD=1 every new fp lands in its own shard; matches
        must equal the single-shard result."""
        import pyarrow as pa
        import ray.data as rd

        def tbl(rows):
            return pa.table({
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "text": pa.array([r[2] for r in rows], pa.string()),
            })

        old = tbl([("t1", 0, "task one"), ("t2", 0, "task two"),
                   ("t3", 0, "task three")])
        new = tbl([("r1", 0, "task one"), ("r2", 0, "task two"),
                   ("r3", 0, "task three"), ("miss", 0, "task four")])
        d = str(tmp_path / "idx")
        tp.fork_index_write(rd.from_arrow(old), 1, d)
        one = tp.fork_index_probe(rd.from_arrow(new), d, 1) \
            .to_pandas().sort_values("conv_id", ignore_index=True)
        monkeypatch.setattr(broadcast, "ROWS_PER_SHARD", 1)
        hash_shard_counts.clear()
        sharded = tp.fork_index_probe(rd.from_arrow(new), d, 1) \
            .to_pandas().sort_values("conv_id", ignore_index=True)
        assert max(hash_shard_counts) >= 2
        assert one.equals(sharded)
        assert one["conv_id"].tolist() == ["r1", "r2", "r3"]
        assert one["matched_conv"].tolist() == ["t1", "t2", "t3"]

    def test_index_writers_refuse_stale_sink(self, ray_session, tmp_path):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({"conv_id": pa.array(["a"], pa.string()),
                      "turn_idx": pa.array([0], pa.int32()),
                      "text": pa.array(["x"], pa.string())})
        d = str(tmp_path / "idx")
        tp.fork_index_write(rd.from_arrow(t), 1, d)
        with pytest.raises(ValueError):
            tp.fork_index_write(rd.from_arrow(t), 1, d)
        d2 = str(tmp_path / "cidx")
        tp.conversation_index_write(rd.from_arrow(t), d2)
        with pytest.raises(ValueError):
            tp.conversation_index_write(rd.from_arrow(t), d2)

    def test_turn_diff_null_idx_visible(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        old = pa.table({"conv_id": pa.array(["c"], pa.string()),
                        "turn_idx": pa.array([None], pa.int32()),
                        "text": pa.array(["x"], pa.string())})
        new = pa.table({"conv_id": pa.array(["c"], pa.string()),
                        "turn_idx": pa.array([None], pa.int32()),
                        "text": pa.array(["y"], pa.string())})
        out = tp.turn_diff(rd.from_arrow(old), rd.from_arrow(new)) \
            .to_pandas()
        assert out.values.tolist() == [["c", -1, "changed"]]

    def test_sample_gate_before_collect(self, ray_session, monkeypatch):
        import pyarrow as pa
        import ray.data as rd

        t = pa.table({
            "conv_id": pa.array([f"c{i}" for i in range(30)], pa.string()),
            "turn_idx": pa.array([0] * 30, pa.int32()),
            "text": pa.array(["x"] * 30, pa.string()),
        })
        # still raises (the gate moved before the collect)
        monkeypatch.setattr(tp, "SAMPLE_DRIVER_MAX_ROWS", 10)
        with pytest.raises(ValueError):
            tp.sample_conversations(rd.from_arrow(t), 25)


class TestClipDifferential:
    def test_clip_vs_python_regex(self, ray_session):
        """Hypothesis differential for clip_turn_texts vs a straight
        re.findall(r'\\S+') reference — including the RE2 \\s subtleties
        (\\x0b and NBSP are \\S; only space/\\t/\\n/\\f/\\r separate)."""
        import re

        import pyarrow as pa
        import ray.data as rd
        from hypothesis import given, settings
        from hypothesis import strategies as st

        token_re = re.compile(r"[^ \t\n\f\r]+")

        texts_st = st.lists(
            st.one_of(
                st.none(),
                st.text(alphabet=" \t\n\f\r\x0b\xa0ab日.'", max_size=30),
            ),
            min_size=1, max_size=12,
        )

        @settings(max_examples=40, deadline=None)
        @given(texts_st, st.integers(1, 4))
        def prop(texts, max_tokens):
            t = pa.table({
                "conv_id": pa.array(["c"] * len(texts), pa.string()),
                "turn_idx": pa.array(range(len(texts)), pa.int32()),
                "text": pa.array(texts, pa.string()),
            })
            out = tp.clip_turn_texts(rd.from_arrow(t), max_tokens) \
                .to_pandas().sort_values("turn_idx", ignore_index=True)
            for i, txt in enumerate(texts):
                toks = token_re.findall(txt) if txt is not None else []
                if txt is None or len(toks) <= max_tokens:
                    exp, clipped = txt, False
                else:
                    exp, clipped = " ".join(toks[:max_tokens]), True
                assert out["text"][i] == exp or (
                    txt is None and out["text"][i] is None), (txt, i)
                assert bool(out["clipped"][i]) == clipped, (txt, i)

        prop()


class TestConversationReportsFused:
    """conversation_reports: the four-report family from ONE sort must be
    row-identical to each standalone op — on a synthetic corpus with
    multi-block boundary-spanning conversations, injected loops, echoes,
    'other' roles, tool calls, and null texts/roles/tools."""

    def _corpus(self):
        import numpy as np
        rng = np.random.default_rng(21)
        rows = []
        for c in range(120):
            conv = f"conv-{c:04d}"
            n_turns = int(rng.integers(2, 14))
            for i in range(n_turns):
                role = ("user" if i % 2 == 0 else "assistant")
                if c % 6 == 1 and i == 1:
                    role = "tool"
                text = f"text {c} {i}"
                if c % 7 == 3 and i % 2 == 1 and i <= 5:
                    text = "RETRY output"          # loop runs
                if c % 9 == 4 and i == 1:
                    text = f"text {c} 0"           # echo of turn 0
                if c % 11 == 5 and i == 2:
                    text = None                    # null text
                tool = (f"tool-{i % 3}"
                        if c % 4 == 2 and i % 2 == 1 else None)
                rows.append((conv, i, role, text, tool))
        t = pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int64()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "tool": pa.array([r[4] for r in rows], pa.string()),
        })
        import ray.data as rd
        # many small blocks => conversations straddle block boundaries
        return rd.from_arrow(t).repartition(17).materialize()

    def test_all_four_match_standalone(self, ray_session):
        ds = self._corpus()
        fused = tp.conversation_reports(ds, min_run=2)
        assert set(fused) == {"loop", "echo", "role_balance",
                              "alternation", "tool_transitions"}

        def df(d, keys):
            out = d.to_pandas()
            return out.sort_values(keys, ignore_index=True)

        pd.testing.assert_frame_equal(
            df(fused["loop"], ["conv_id"]),
            df(tp.assistant_loop_stats(ds, 2), ["conv_id"]))
        pd.testing.assert_frame_equal(
            df(fused["echo"], ["conv_id"]),
            df(tp.echo_stats(ds), ["conv_id"]))
        pd.testing.assert_frame_equal(
            df(fused["role_balance"], ["conv_id"]),
            df(tp.role_balance_stats(ds), ["conv_id"]))
        pd.testing.assert_frame_equal(
            df(fused["tool_transitions"], ["tool_from", "tool_to"]),
            df(tp.tool_transition_counts(ds), ["tool_from", "tool_to"]))

    def test_alternation_matches_pandas(self, ray_session):
        """The fused-only alternation family vs an independent pandas
        re-derivation — including a null role (its pairs must not count
        as switches) and boundary-spanning conversations."""
        import numpy as np
        ds = self._corpus()

        def nullify(t: pa.Table) -> pa.Table:
            conv = t.column("conv_id").to_numpy(zero_copy_only=False)
            idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
            c = np.array([int(s[5:]) for s in conv])
            role = t.column("role").to_numpy(
                zero_copy_only=False).astype(object)
            role[(c % 10 == 7) & (idx == 1)] = None
            return t.set_column(t.column_names.index("role"), "role",
                                pa.array(role, pa.string()))

        ds2 = ds.map_batches(nullify, batch_format="pyarrow")
        got = tp.conversation_reports(ds2, which="alternation")[
            "alternation"].to_pandas().sort_values(
            "conv_id", ignore_index=True)
        pdf = ds2.to_pandas().sort_values(["conv_id", "turn_idx"])
        exp_rows = []
        for conv, g in pdf.groupby("conv_id", sort=True):
            r = g["role"].tolist()
            n_adj = len(r) - 1
            n_sw = sum(1 for a, b in zip(r, r[1:])
                       if a is not None and b is not None and a != b)
            exp_rows.append((conv, n_adj, n_sw))
        exp = pd.DataFrame(exp_rows,
                           columns=["conv_id", "n_adj", "n_switches"])
        pd.testing.assert_frame_equal(got, exp)

    def test_subset_and_validation(self, ray_session):
        ds = self._corpus()
        only = tp.conversation_reports(ds, which="echo")
        assert set(only) == {"echo"}
        with pytest.raises(ValueError, match="unknown report"):
            tp.conversation_reports(ds, which=["echo", "nope"])
        with pytest.raises(ValueError, match="min_run"):
            tp.conversation_reports(ds, which="loop", min_run=0)

    def test_prefiltered_single_family_matches_standalone(self, ray_session):
        """loop-only / tool-only / loop+tool requests prune the turn table
        BEFORE the sort (the standalone ops' shape) — results must stay
        row-identical to the standalone ops and to the full fused run."""
        ds = self._corpus()

        def df(d, keys):
            return d.to_pandas().sort_values(keys, ignore_index=True)

        only_loop = tp.conversation_reports(ds, which="loop", min_run=2)
        pd.testing.assert_frame_equal(
            df(only_loop["loop"], ["conv_id"]),
            df(tp.assistant_loop_stats(ds, 2), ["conv_id"]))
        only_tool = tp.conversation_reports(ds, which="tool_transitions")
        pd.testing.assert_frame_equal(
            df(only_tool["tool_transitions"], ["tool_from", "tool_to"]),
            df(tp.tool_transition_counts(ds), ["tool_from", "tool_to"]))
        both = tp.conversation_reports(ds, which=["loop", "tool_transitions"],
                                       min_run=2)
        pd.testing.assert_frame_equal(
            df(both["loop"], ["conv_id"]),
            df(tp.assistant_loop_stats(ds, 2), ["conv_id"]))
        pd.testing.assert_frame_equal(
            df(both["tool_transitions"], ["tool_from", "tool_to"]),
            df(tp.tool_transition_counts(ds), ["tool_from", "tool_to"]))

    def test_tool_only_request_needs_no_role_column(self, ray_session):
        """A (conv, idx, tool) table — no role, no text — must work for
        which='tool_transitions' exactly like the standalone op does."""
        import ray.data as rd
        t = pa.table({
            "conv_id": pa.array(["a"] * 4 + ["b"] * 3, pa.string()),
            "turn_idx": pa.array([0, 1, 2, 3, 0, 1, 2], pa.int64()),
            "tool": pa.array(["x", None, "y", "x", "y", "y", None],
                             pa.string()),
        })
        ds = rd.from_arrow([t.slice(0, 4), t.slice(4)])
        fused = tp.conversation_reports(ds, which="tool_transitions")
        got = (fused["tool_transitions"].to_pandas()
               .sort_values(["tool_from", "tool_to"], ignore_index=True))
        exp = (tp.tool_transition_counts(ds).to_pandas()
               .sort_values(["tool_from", "tool_to"], ignore_index=True))
        pd.testing.assert_frame_equal(got, exp)
        assert got.n.sum() == 3  # a: x->y, y->x; b: y->y

    def test_empty_corpus_keeps_schemas(self, ray_session):
        import ray.data as rd
        t = pa.table({
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int64()),
            "role": pa.array([], pa.string()),
            "text": pa.array([], pa.string()),
            "tool": pa.array([], pa.string()),
        })
        fused = tp.conversation_reports(rd.from_arrow(t))
        assert fused["loop"].schema().names == [
            "conv_id", "max_run", "n_loops", "n_role_turns"]
        assert fused["echo"].schema().names == [
            "conv_id", "n_echoes", "n_pairs"]
        assert fused["role_balance"].schema().names == [
            "conv_id", "n_user", "n_assistant", "n_other",
            "user_chars", "assistant_chars"]
        assert fused["tool_transitions"].schema().names == [
            "tool_from", "tool_to", "n"]
        for d in fused.values():
            assert d.count() == 0


class TestSplitConversationsByGap:
    def test_matches_sql_running_gap_count(self, ray_session):
        import duckdb
        import ray.data as rd

        rng = np.random.default_rng(9)
        rows = []
        base = np.datetime64("2025-02-01T00:00:00", "us")
        for c in range(60):
            t = base + np.timedelta64(int(c) * 1000, "s")
            for i in range(int(rng.integers(1, 12))):
                # occasional > 1h jumps open sub-conversations
                t = t + np.timedelta64(
                    int(rng.choice([30, 30, 30, 7200])), "s")
                rows.append((f"c{c:03d}", i, t))
        df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "ts"])
        got = tp.split_conversations_by_gap(
            rd.from_pandas(df).repartition(11), 3600.0
        ).to_pandas().sort_values(["conv_id", "turn_idx"],
                                  ignore_index=True)
        exp = duckdb.sql("""
            WITH l AS (SELECT conv_id, turn_idx,
              CASE WHEN ts - LAG(ts) OVER
                    (PARTITION BY conv_id ORDER BY turn_idx)
                  > INTERVAL 3600 SECOND THEN 1 ELSE 0 END AS brk FROM df)
            SELECT conv_id, turn_idx,
              SUM(brk) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS sub
            FROM l ORDER BY conv_id, turn_idx""").df()
        assert got["sub_conv"].tolist() == exp["sub"].astype(int).tolist()
        # all original columns survive the stamp
        assert {"conv_id", "turn_idx", "ts", "sub_conv"} <= set(got.columns)

    def test_null_ts_no_break_and_bad_gap(self, ray_session):
        import ray.data as rd

        base = np.datetime64("2025-02-01T00:00:00", "us")
        df = pd.DataFrame({
            "conv_id": ["a"] * 4,
            "turn_idx": [0, 1, 2, 3],
            "ts": [base, None, base + np.timedelta64(9000, "s"),
                   base + np.timedelta64(9030, "s")],
        })
        got = tp.split_conversations_by_gap(rd.from_pandas(df), 3600.0) \
            .to_pandas().sort_values("turn_idx", ignore_index=True)
        # null junctions (0->1 and 1->2) produce no break
        assert got["sub_conv"].tolist() == [0, 0, 0, 0]
        with pytest.raises(ValueError):
            tp.split_conversations_by_gap(rd.from_pandas(df), 0)

    def test_resplit_guard(self, ray_session):
        import ray.data as rd

        base = np.datetime64("2025-02-01T00:00:00", "us")
        df = pd.DataFrame({"conv_id": ["a"], "turn_idx": [0], "ts": [base]})
        once = tp.split_conversations_by_gap(
            rd.from_pandas(df), 3600.0).materialize()
        with pytest.raises(ValueError, match="sub_conv"):
            tp.split_conversations_by_gap(once, 3600.0)
