"""Block-layout test for every op on the shared sorted scan
(``hooqu_ray.functions.sorted_scan``).

The same rows arrive in 1, 7 and 64 blocks.  One hot key holds most rows
and sits in every input block, so after the range exchange it spans
several ranges and each range's halo carries it over from the ranges
before.  The degenerate inputs are an empty table, one row, and a table
whose keys are all null.  Ops with an independent pandas reference must
match it on every input; every op must give identical rows in every
layout, and an empty result keeps the op's typed schema.

Kernel (complete-key) ops ride the hash exchange; the windows, LAG/LEAD
and sessions ride the range exchange.  A third test cuts every exchange
into many buckets and requires the default buckets' rows and schema on
every input.  A fourth gives every range op a key holding exactly half
the rows over 64 blocks, once over the default ranges and once over
about 26 ranges with windows, periods, spans and session gaps wider than
one range, so that each halo composes over several earlier ranges.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


BASE = np.datetime64("2025-01-01T00:00:00", "us")
CASES = ("p1", "p7", "p64", "empty", "one", "allnull")


def _turns() -> pa.Table:
    rng = np.random.default_rng(3)
    conv, idx = [], []
    for c in range(25):
        n = int(rng.integers(1, 10))
        conv += [f"c{c:03d}"] * n
        idx += list(range(n))
    conv += ["c_hot"] * 300
    idx += list(range(300))
    n = len(conv)
    words = ["hi", "ok", "foo bar", "x y z", "", None, "a b c d"]
    ts = BASE + (np.array(idx) * 30 + rng.integers(-40, 40, n)).astype(
        "timedelta64[s]")
    t = pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(idx, pa.int64()),
        "role": pa.array(rng.choice(["user", "assistant", "tool"], n,
                                    p=[0.45, 0.45, 0.1]).tolist()),
        "text": pa.array([words[k] for k in rng.integers(0, len(words), n)],
                         pa.string()),
        "tool": pa.array([None if rng.random() < 0.6 else f"t{k}"
                          for k in rng.integers(0, 3, n)], pa.string()),
        "ts": pa.array(ts.astype("datetime64[us]")),
    })
    return t.take(pa.array(rng.permutation(n)))


def _events() -> pa.Table:
    rng = np.random.default_rng(4)
    users = np.r_[rng.integers(0, 20, 250), np.full(350, 99)]
    n = len(users)
    ts = rng.permutation(
        BASE + np.cumsum(rng.integers(0, 900, n)).astype("timedelta64[s]"))
    vals = rng.normal(size=n).round(2)  # rounding makes ties for the ranks
    vals[rng.random(n) < 0.1] = np.nan
    return pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "event_id": pa.array(np.arange(n), pa.int64()),
        "value": pa.array(vals, pa.float64(), from_pandas=True),
        "cat": pa.array(rng.integers(0, 5, n).astype(str).tolist()),
    })


TURNS = _turns()
EVENTS = _events()


def _input(table: pa.Table, key: str, case: str) -> pa.Table:
    if case == "empty":
        return table.slice(0, 0)
    if case == "one":
        return table.slice(0, 1)
    if case == "allnull":
        return table.slice(0, 20).set_column(
            table.schema.get_field_index(key), key,
            pa.nulls(20, table.schema.field(key).type))
    return table


def _dataset(table, key, case):
    import ray.data as rd

    ds = rd.from_arrow(_input(table, key, case))
    return ds.repartition(int(case[1:])) if case.startswith("p") else ds


def _collect(ds):
    """(schema names or None, rows sorted by every column)."""
    ds = ds.materialize()
    schema = ds.schema()
    df = ds.to_pandas()
    if len(df):
        order = df.astype(str)
        df = df.iloc[np.lexsort([order[c].to_numpy()
                                 for c in reversed(df.columns)])]
    return (list(schema.names) if schema is not None else None,
            df.reset_index(drop=True))


def _sorted_like(df: pd.DataFrame, cols) -> pd.DataFrame:
    df = df[cols].reset_index(drop=True)
    if len(df):
        order = df.astype(str)
        df = df.iloc[np.lexsort([order[c].to_numpy()
                                 for c in reversed(df.columns)])]
    return df.reset_index(drop=True)


def _valid(df, *cols):
    return df.dropna(subset=list(cols))


# -- pandas references ---------------------------------------------------------

def ref_truncate(df, budget=20):
    df = _valid(df, "conv_id", "turn_idx").copy()
    df["__n"] = df["text"].fillna("").str.split().str.len()
    df = df.sort_values(["conv_id", "turn_idx"], ascending=[True, False])
    df["suffix_tokens"] = df.groupby("conv_id")["__n"].cumsum()
    return df[df["suffix_tokens"] <= budget].drop(columns="__n")


def ref_merge_turns(df):
    df = _valid(df, "conv_id", "turn_idx").sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    role = df["role"].fillna("\0")
    brk = (df["conv_id"] != df["conv_id"].shift()) | (role != role.shift())
    run = brk.cumsum()
    out = df[brk].drop(columns=["text", "tool"]).reset_index(drop=True)
    out["text"] = df["text"].fillna("").groupby(run).agg("\n".join).to_numpy()
    out["n_merged"] = run.value_counts().sort_index().to_numpy()
    return out


def _per_conv(df, fn):
    df = _valid(df, "conv_id", "turn_idx").sort_values(["conv_id", "turn_idx"])
    rows = [dict(conv_id=c, **fn(g)) for c, g in df.groupby("conv_id")]
    return pd.DataFrame(rows)


def ref_conv_features(df):
    def fn(g):
        core = [r for r in g["role"] if r in ("user", "assistant")]
        return {"n_turns": len(g),
                "role_alternates": all(a != b for a, b in zip(core, core[1:])),
                "ts_monotone": bool(g["ts"].is_monotonic_increasing),
                "first_role": g["role"].iloc[0]}
    return _per_conv(df, fn)


def ref_validate(df):
    def fn(g):
        swu = g["role"].iloc[0] == "user"
        ewa = g["role"].iloc[-1] == "assistant"
        dense = g["turn_idx"].tolist() == list(range(len(g)))
        empty = bool((g["text"].fillna("") == "").any())
        return {"n_turns": len(g), "starts_with_user": swu,
                "ends_with_assistant": ewa, "dense_index": dense,
                "has_empty_text": empty,
                "valid": swu and ewa and dense and not empty}
    return _per_conv(df, fn)


def _by_key(df, *order):
    return _valid(df, "user_id", "ts").sort_values(
        ["user_id", *order], ignore_index=True)


def ref_time_window(df, span=pd.Timedelta(seconds=1800)):
    df = _by_key(df, "ts", "event_id")
    means, counts = [], []
    for _, g in df.groupby("user_id", sort=False):
        ts, v = g["ts"].to_numpy(), g["value"].to_numpy()
        for t in ts:
            w = v[(ts >= t - span) & (ts <= t)]
            counts.append(len(w))
            means.append(np.nanmean(w) if np.isfinite(w).any() else np.nan)
    return df.drop(columns=["value", "cat"]).assign(tw_mean=means, tw_n=counts)


def ref_rolling(df, window=3):
    df = _by_key(df, "ts", "event_id")
    mean = df.groupby("user_id")["value"].transform(
        lambda s: s.rolling(window, min_periods=1).mean())
    return df.drop(columns=["value", "cat"]).assign(rolling_mean=mean)


def ref_running(df):
    df = _by_key(df, "ts", "event_id")
    g = df.groupby("user_id")
    # SQL running SUM carries the prior total across a null row
    total = df["value"].fillna(0).groupby(df["user_id"]).cumsum()
    seen = df["value"].notna().groupby(df["user_id"]).cumsum()
    return df.drop(columns=["value", "cat"]).assign(
        run_sum=total.where(seen > 0), run_n=g.cumcount() + 1)


def ref_lag(df, periods=2):
    df = _by_key(df, "ts", "event_id")
    prev = df.groupby("user_id")["value"].shift(periods)
    return df.drop(columns="cat").assign(prev_value=prev,
                                         delta=df["value"] - prev)


def ref_lead(df, periods=2):
    df = _by_key(df, "ts", "event_id")
    nxt = df.groupby("user_id")["value"].shift(-periods)
    return df.drop(columns="cat").assign(next_value=nxt,
                                         delta=nxt - df["value"])


def ref_sessions(df, gap=pd.Timedelta(seconds=1800)):
    df = _by_key(df, "ts")
    d = df.groupby("user_id")["ts"].diff()
    sid = (d.isna() | (d > gap)).astype("int64").groupby(
        df["user_id"]).cumsum() - 1
    return (df.assign(session_idx=sid)
            .groupby(["user_id", "session_idx"])["ts"]
            .agg(n_events="count", t_start="min", t_end="max").reset_index())


def ref_rank(df):
    df = _valid(df, "user_id", "value")
    rank = df.groupby("user_id")["value"].rank(method="min").astype("int64")
    return df[["user_id", "value", "event_id"]].assign(rank=rank)


def _ops(window=3, periods=2, span=1800.0):
    """Each reference op with its input table, its run and its pandas
    reference, at a ``window`` and ``periods`` and a ``span`` that is both
    the time window's span and the session gap, in seconds."""
    from hooqu_ray.pipelines import ranks, sessions, windows
    from hooqu_ray.pipelines import transcripts as tp

    ev = ("user_id", "ts", "event_id", "value")
    gap = pd.Timedelta(seconds=span)
    return {
        "truncate_conversations": (
            TURNS, lambda ds: tp.truncate_conversations(ds, 20), ref_truncate),
        "merge_consecutive_turns": (
            TURNS, tp.merge_consecutive_turns, ref_merge_turns),
        "conversation_features": (
            TURNS, tp.conversation_features, ref_conv_features),
        "validate_conversations": (
            TURNS, tp.validate_conversations, ref_validate),
        "time_window_mean": (
            EVENTS, lambda ds: windows.time_window_mean(ds, *ev, span),
            lambda df: ref_time_window(df, gap)),
        "rolling_mean": (
            EVENTS, lambda ds: windows.rolling_mean(ds, *ev, window),
            lambda df: ref_rolling(df, window)),
        "running_agg": (
            EVENTS, lambda ds: windows.running_agg(ds, *ev), ref_running),
        "lag_delta": (
            EVENTS, lambda ds: windows.lag_delta(ds, *ev, periods),
            lambda df: ref_lag(df, periods)),
        "lead_delta": (
            EVENTS, lambda ds: windows.lead_delta(ds, *ev, periods),
            lambda df: ref_lead(df, periods)),
        "session_stats": (
            EVENTS, lambda ds: sessions.session_stats(
                ds, "user_id", "ts", span), lambda df: ref_sessions(df, gap)),
        "grouped_rank": (
            EVENTS, lambda ds: ranks.grouped_rank(
                ds, "user_id", "value", "event_id"), ref_rank),
    }


def _top_k_distributed(ds):
    """``grouped_top_k``, whose merge is one hash exchange on the group
    (witnessed by a spy) for every input layout."""
    from hooqu_ray.functions import shuffle
    from hooqu_ray.pipelines import relational

    merges = []
    exchange = shuffle.hash_exchange
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shuffle, "hash_exchange",
                   lambda *a, **kw: merges.append(1) or exchange(*a, **kw))
        out = relational.grouped_top_k(ds, "user_id", "value", 3, "event_id")
    assert merges == [1]
    return out


def _layout_ops():
    """Migrated ops whose exact outputs other test modules pin against
    references; here they must not depend on the block layout.  The value
    is the typed schema an empty input keeps: every op's kernel runs once
    over the typed empty projection when no row reaches the exchange."""
    from hooqu_ray.pipelines import ranks
    from hooqu_ray.pipelines import transcripts as tp

    loop = ["conv_id", "max_run", "n_loops", "n_role_turns"]
    echo = ["conv_id", "n_echoes", "n_pairs"]
    tools = ["tool_from", "tool_to", "n"]
    example = ["conv_id", "turn_idx", "prompt", "target", "n_context_turns",
               "n_tokens"]
    turns = list(TURNS.column_names)
    ev_rank = ("user_id", "value", "event_id")
    return {
        "extract_training_examples": (
            TURNS, lambda ds: tp.extract_training_examples(ds, 30), example),
        "sft_prepare": (
            TURNS, lambda ds: tp.sft_prepare(ds, boilerplate_min_convs=3),
            example),
        "assistant_loop_stats": (TURNS, tp.assistant_loop_stats, loop),
        "echo_stats": (TURNS, tp.echo_stats, echo),
        "tool_transition_counts": (TURNS, tp.tool_transition_counts, tools),
        "reindex_turns": (TURNS, tp.reindex_turns,
                          turns + ["orig_turn_idx"]),
        "split_conversations_by_gap": (
            TURNS, lambda ds: tp.split_conversations_by_gap(ds, 60),
            turns + ["sub_conv"]),
        "reports_loop": (
            TURNS, lambda ds: tp.conversation_reports(ds)["loop"], loop),
        "reports_alternation": (
            TURNS, lambda ds: tp.conversation_reports(ds)["alternation"],
            ["conv_id", "n_adj", "n_switches"]),
        "reports_tool_transitions": (
            TURNS, lambda ds: tp.conversation_reports(
                ds, ["loop", "tool_transitions"])["tool_transitions"], tools),
        "grouped_exact_quantile": (
            EVENTS, lambda ds: ranks.grouped_exact_quantile(
                ds, "user_id", "value", 0.5), ["user_id", "q_value"]),
        "grouped_ntile": (
            EVENTS, lambda ds: ranks.grouped_ntile(ds, *ev_rank, 3),
            [*ev_rank, "tile"]),
        "grouped_percent_rank": (
            EVENTS, lambda ds: ranks.grouped_percent_rank(ds, *ev_rank),
            [*ev_rank, "pct"]),
        "grouped_string_agg": (
            EVENTS, lambda ds: ranks.grouped_string_agg(
                ds, "user_id", "cat", "ts", "event_id"), ["user_id", "agg"]),
        "grouped_top_k_distributed": (
            EVENTS, _top_k_distributed, ["user_id", "value", "event_id"]),
    }


REFERENCE_OPS = sorted([
    "truncate_conversations", "merge_consecutive_turns",
    "conversation_features", "validate_conversations", "time_window_mean",
    "rolling_mean", "running_agg", "lag_delta", "lead_delta",
    "session_stats", "grouped_rank"])
LAYOUT_OPS = sorted([
    "extract_training_examples", "sft_prepare", "assistant_loop_stats",
    "echo_stats", "tool_transition_counts", "reindex_turns",
    "split_conversations_by_gap", "reports_loop", "reports_alternation",
    "reports_tool_transitions", "grouped_exact_quantile", "grouped_ntile",
    "grouped_percent_rank", "grouped_string_agg",
    "grouped_top_k_distributed"])
# the ops on the range exchange
RANGE_OPS = sorted([
    "time_window_mean", "rolling_mean", "lag_delta", "lead_delta",
    "session_stats"])


@pytest.mark.parametrize("op", REFERENCE_OPS)
def test_matches_pandas_reference_in_every_layout(ray_session, op):
    table, run, ref = _ops()[op]
    key = "conv_id" if table is TURNS else "user_id"
    full_names = None
    for case in CASES:
        names, got = _collect(run(_dataset(table, key, case)))
        exp = ref(_input(table, key, case).to_pandas())
        if case == "p1":
            full_names = names
        if len(exp) == 0:
            assert len(got) == 0, (op, case)
            assert names in (None, full_names), (op, case, names)
            continue
        assert names == full_names, (op, case, names)
        pd.testing.assert_frame_equal(got, _sorted_like(exp, names),
                                      check_dtype=False, obj=f"{op}/{case}")


@pytest.mark.parametrize("op", LAYOUT_OPS)
def test_identical_in_every_layout(ray_session, op):
    table, run, empty_names = _layout_ops()[op]
    key = "conv_id" if table is TURNS else "user_id"
    outs = {case: _collect(run(_dataset(table, key, case))) for case in CASES}
    names, base = outs["p1"]
    assert len(base) > 0, op
    for case in ("p7", "p64"):
        assert outs[case][0] == names, (op, case)
        pd.testing.assert_frame_equal(outs[case][1], base, obj=f"{op}/{case}")
    assert outs["empty"][0] == empty_names, op
    assert len(outs["empty"][1]) == 0 and len(outs["allnull"][1]) == 0, op


@pytest.mark.parametrize("op", sorted(REFERENCE_OPS + LAYOUT_OPS))
def test_distributed_repair_matches_driver_repair(ray_session, monkeypatch,
                                                  op):
    """Every op with its exchanges cut into many buckets
    (``BUCKET_MAX_ROWS`` = 50: about 12 over ``EVENTS``, so a range
    exchange's halos compose over several ranges).  Each input must give
    the rows and schema of its default-bucket run; the one-block run of
    the default buckets is what the tests above check against the pandas
    reference, and so are the degenerate inputs."""
    from hooqu_ray.functions import shuffle

    table, run, _ = {**_ops(), **_layout_ops()}[op]
    key = "conv_id" if table is TURNS else "user_id"
    base = {case: _collect(run(_dataset(table, key, case)))
            for case in ("p1", "empty", "one", "allnull")}
    monkeypatch.setattr(shuffle, "BUCKET_MAX_ROWS", 50)
    for case in CASES:
        names, got = base["p1" if case.startswith("p") else case]
        out_names, out = _collect(run(_dataset(table, key, case)))
        assert out_names == names, (op, case)
        pd.testing.assert_frame_equal(out, got, obj=f"{op}/{case}")


def _half_hot_events() -> pa.Table:
    """User 7 holds exactly half the rows; the other half spreads over 40
    users.  Timestamps repeat (``event_id`` breaks the ties) and a tenth
    of the values are null."""
    rng = np.random.default_rng(8)
    n = 1280
    users = np.r_[np.full(n // 2, 7), rng.integers(100, 140, n // 2)]
    ts = BASE + rng.integers(0, 3 * 86400, n).astype("timedelta64[s]")
    vals = rng.normal(size=n).round(2)
    vals[rng.random(n) < 0.1] = np.nan
    t = pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "event_id": pa.array(np.arange(n), pa.int64()),
        "value": pa.array(vals, pa.float64(), from_pandas=True),
        "cat": pa.array(rng.integers(0, 5, n).astype(str).tolist()),
    })
    return t.take(pa.array(rng.permutation(n)))


def _hot_ranges(ds, key_cols):
    """The ``user_id == 7`` rows of each range of ``ds`` on ``key_cols``
    that holds any, as pandas frames in range order."""
    import ray

    from hooqu_ray.functions.shuffle import range_exchange

    ranges = range_exchange(ds, [(c, "ascending") for c in key_cols])
    frames = [t.to_pandas() for t in ray.get(ranges.to_arrow_refs())]
    return [f[f.user_id == 7] for f in frames if (f.user_id == 7).any()]


@pytest.mark.parametrize("many_ranges", [True, False])
@pytest.mark.parametrize("op", RANGE_OPS)
def test_half_hot_key_over_64_blocks_matches_reference(ray_session,
                                                       monkeypatch, op,
                                                       many_ranges):
    import ray.data as rd

    from hooqu_ray.functions import shuffle

    table = _half_hot_events()
    ds = rd.from_arrow(table).repartition(64).materialize()
    params = {}
    if many_ranges:
        monkeypatch.setattr(shuffle, "BUCKET_MAX_ROWS", 50)  # B = 26
        params = dict(window=160, periods=160, span=24 * 3600.0)
    hot = _hot_ranges(ds, ("user_id", "ts", "event_id"))
    assert len(hot) >= (3 if many_ranges else 2)
    if many_ranges:
        # each window, shift, span and session gap reaches back over at
        # least two whole earlier ranges of the hot key
        inner = hot[1:-1]
        assert max(map(len, inner)) * 2 < params["window"] - 1
        cover = max(f.ts.max() - f.ts.min() for f in inner)
        assert cover * 2 < pd.Timedelta(seconds=params["span"])
    _, run, ref = _ops(**params)[op]
    names, got = _collect(run(ds))
    pd.testing.assert_frame_equal(
        got, _sorted_like(ref(table.to_pandas()), names), check_dtype=False,
        obj=op)
