"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship transcript quality-filter + scrub over transcripts
derived deterministically from sf0.001 documents.

``queries()`` / ``oracle_sql()`` — one entry per operator from SURVEY.md §2
(analyzers, frequency family, quantiles, correlation) plus the
training-data ops (dedup, similarity, text stats).  Aggregate values are
rounded to 6 decimals on BOTH sides so float summation order cannot flip the
driver's value hash; all columns are named identically in Ray and SQL.

Ray is initialised by the driver before import; nothing here calls
``ray.init``/``ray.shutdown``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _corrupt_transcripts(t: pa.Table) -> pa.Table:
    """Deterministic validate-style corruption shared (ONE definition) by
    the validate / filter / curate transcript queries and mirrored in
    their SQL oracles: drop turn 0 where doc_id%5=0, drop turn 2 where
    doc_id%11=0, blank turn 1's text where doc_id%7=0."""
    doc = pc.cast(
        pc.utf8_slice_codeunits(t.column("conv_id"), 5), pa.int64()
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
    keep = ~(((doc % 5 == 0) & (idx == 0)) | ((doc % 11 == 0) & (idx == 2)))
    t = t.filter(pa.array(keep))
    blank = (doc[keep] % 7 == 0) & (idx[keep] == 1)
    if blank.any():
        text = t.column("text").to_numpy(zero_copy_only=False).astype(object)
        text[blank] = ""
        t = t.set_column(
            t.schema.get_field_index("text"), "text", pa.array(text, pa.string())
        )
    return t


def _inject_forks(t: pa.Table) -> pa.Table:
    """Forked-replica injection shared (ONE definition) by the fork-group
    / preference-pair / fork-split transcript queries and mirrored in
    their SQL oracles: every doc_id % 5 == 0 conversation gets a copy at
    conv id +2*10^7 whose turns from idx 2 on carry ' fork-tail' —
    identical prefix, diverging tail."""
    doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                  pa.int64()).to_numpy(zero_copy_only=False)
    m = doc % 5 == 0
    if not m.any():
        return t
    sub = t.filter(pa.array(m))
    sdoc = doc[m]
    idx = np.asarray(sub.column("turn_idx"), dtype=np.int64)
    text = sub.column("text").to_numpy(zero_copy_only=False).astype(object)
    text = np.where(idx >= 2, text + " fork-tail", text)
    conv = np.array([f"conv-{d + 20000000:08d}" for d in sdoc], dtype=object)
    rep = pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": sub.column("turn_idx"),
        "role": sub.column("role"),
        "text": pa.array(text, pa.string()),
        "tool": sub.column("tool"),
        "ts": sub.column("ts"),
    })
    return pa.concat_tables([t, rep])


def _pii_inject(t: pa.Table) -> pa.Table:
    """Deterministic PII injection shared (ONE definition) by the
    pii-report and pii-filter transcript queries and mirrored in their
    SQL oracles: turns with turn_idx % 5 == 1 gain
    ' contact user<doc_id>@example.com', turns with turn_idx % 11 == 3
    gain ' card 4000 1234 5678 9010'."""
    idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
    doc = pc.cast(
        pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13), pa.int64()
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    text = t.column("text").to_numpy(zero_copy_only=False).astype(object)
    m5 = idx % 5 == 1
    if m5.any():
        sfx = np.char.add(
            np.char.add(" contact user", doc[m5].astype(str)),
            "@example.com").astype(object)
        text[m5] = text[m5] + sfx
    m11 = idx % 11 == 3
    if m11.any():
        text[m11] = text[m11] + " card 4000 1234 5678 9010"
    return t.set_column(
        t.schema.get_field_index("text"), "text",
        pa.array(text, pa.string()))


def _metric(analyzer, name: str, sf_dir: str, table: str, columns) -> pa.Table:
    """Run one analyzer distributed and return {name: round(value, 6)}."""
    from hooqu_ray.runner import do_analysis_run

    ds = _read(sf_dir, table, columns)
    ctx = do_analysis_run(ds, [analyzer])
    value = ctx.metric_map[analyzer].value.get()
    return pa.table({name: pa.array([round(float(value), 6)], pa.float64())})


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: documents → transcripts → quality-filter + scrub."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read("/root/testdata/sf0.001", "documents", ["doc_id", "text"])
    transcripts = tp.transcripts_from_documents(docs)
    return tp.filter_and_scrub(transcripts)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    import hooqu_ray as hq

    out: dict[str, Callable[[str], Any]] = {}

    # -- scan analyzers over lineitem/events ------------------------------
    analyzer_specs = {
        "size_lineitem": (lambda: hq.Size(), "size", "lineitem", ["l_orderkey"]),
        "size_lineitem_filtered": (
            lambda: hq.Size(where="l_quantity > 25"), "size", "lineitem", ["l_quantity"]),
        "completeness_orders_custkey": (
            lambda: hq.Completeness("o_custkey"), "completeness", "orders", ["o_custkey"]),
        "compliance_discount_range": (
            lambda: hq.Compliance("disc", "l_discount >= 0.0 and l_discount <= 0.1"),
            "compliance", "lineitem", ["l_discount"]),
        "mean_quantity": (lambda: hq.Mean("l_quantity"), "mean_qty", "lineitem", ["l_quantity"]),
        "mean_price_filtered": (
            lambda: hq.Mean("l_extendedprice", where="l_quantity > 25"),
            "mean_price", "lineitem", ["l_extendedprice", "l_quantity"]),
        "min_extendedprice": (
            lambda: hq.Minimum("l_extendedprice"), "min_price", "lineitem", ["l_extendedprice"]),
        "max_extendedprice": (
            lambda: hq.Maximum("l_extendedprice"), "max_price", "lineitem", ["l_extendedprice"]),
        "sum_quantity": (lambda: hq.Sum("l_quantity"), "sum_qty", "lineitem", ["l_quantity"]),
        "std_quantity": (
            lambda: hq.StandardDeviation("l_quantity"), "std_qty", "lineitem", ["l_quantity"]),
        "corr_quantity_price": (
            lambda: hq.Correlation("l_quantity", "l_extendedprice"),
            "corr_qp", "lineitem", ["l_quantity", "l_extendedprice"]),
        "quantile50_extendedprice": (
            lambda: hq.Quantile("l_extendedprice", 0.5), "q50", "lineitem", ["l_extendedprice"]),
        "quantile90_extendedprice": (
            lambda: hq.Quantile("l_extendedprice", 0.9), "q90", "lineitem", ["l_extendedprice"]),
        "pattern_error_events": (
            lambda: hq.PatternMatch("event_type", "^err"), "frac", "events", ["event_type"]),
        "min_length_text": (
            lambda: hq.MinLength("text"), "min_len", "documents", ["text"]),
        "max_length_text": (
            lambda: hq.MaxLength("text"), "max_len", "documents", ["text"]),
        "uniqueness_orders_custkey": (
            lambda: hq.Uniqueness(["o_custkey"]), "uniq", "orders", ["o_custkey"]),
        "uniqueness_lineitem_pk": (
            lambda: hq.Uniqueness(["l_orderkey", "l_linenumber"]),
            "uniq", "lineitem", ["l_orderkey", "l_linenumber"]),
        "distinctness_event_type": (
            lambda: hq.Distinctness(["event_type"]), "distinctness", "events", ["event_type"]),
        "count_distinct_users": (
            lambda: hq.CountDistinct(["user_id"]), "n_distinct", "events", ["user_id"]),
        "entropy_returnflag": (
            lambda: hq.Entropy(["l_returnflag"]), "entropy", "lineitem", ["l_returnflag"]),
        "unique_value_ratio_custkey": (
            lambda: hq.UniqueValueRatio(["o_custkey"]), "uvr", "orders", ["o_custkey"]),
        "mutual_info_flag_status": (
            lambda: hq.MutualInformation(["l_returnflag", "l_linestatus"]),
            "mi", "lineitem", ["l_returnflag", "l_linestatus"]),
        # temporal where= surface: `.dt` field accessor + ISO timestamp
        # literal, both pc-compiled (functions/expr.py _DT_FIELDS /
        # _coerce_literal) — pandas dayofweek Monday=0, so < 5 = weekday
        "temporal_where_mean": (
            lambda: hq.Mean(
                "value",
                where="ts.dt.dayofweek < 5 and ts >= '2024-01-10 06:30:00'"),
            "mean_val", "events", ["value", "ts"]),
        "temporal_dt_compliance": (
            lambda: hq.Compliance("morning", "ts.dt.hour < 12"),
            "frac", "events", ["ts"]),
        # .str accessor surface: RE2-compiled contains + affix + len
        # (functions/expr.py _str_call)
        "str_where_mean": (
            lambda: hq.Mean(
                "value",
                where="event_type.str.startswith('err') or "
                      "event_type.str.contains('ick')"),
            "mean_val2", "events", ["value", "event_type"]),
        "str_len_compliance": (
            lambda: hq.Compliance("short_type", "event_type.str.len() <= 5"),
            "frac2", "events", ["event_type"]),
        # where()/coalesce() conditional surface (functions/expr.py
        # _func_call): CASE WHEN with ELSE NULL re-coalesced — exercises
        # null-producing where, NaN/null-skipping coalesce, and composition
        "case_coalesce_compliance": (
            lambda: hq.Compliance(
                "boosted",
                "coalesce(where(l_discount > 0.05, "
                "l_extendedprice * (1 - l_discount), None), 0.0) > 20000"),
            "frac3", "lineitem", ["l_discount", "l_extendedprice"]),
        "case_where_mean": (
            lambda: hq.Mean(
                "value", where="where(event_type == 'error', -value, value) > 0"),
            "mean_val3", "events", ["value", "event_type"]),
        # greatest()/least() element-wise extremes (functions/expr.py
        # _func_call): DuckDB NULL-identity semantics, literal mixing,
        # composition — NaN-free columns so both sides agree exactly
        # schema-check tier (driver-side, zero data passes): the oracle
        # derives the SAME property independently from DuckDB's view of
        # the identical parquet (DESCRIBE / typeof)
        "schema_column_exists": (
            lambda: hq.ColumnExists("l_quantity"),
            "col_ok", "lineitem", ["l_quantity"]),
        "schema_dtype_numeric": (
            lambda: hq.ColumnDtype("l_quantity", "numeric"),
            "dtype_ok", "lineitem", ["l_quantity"]),
        "schema_dtype_not_string": (
            lambda: hq.ColumnDtype("l_quantity", "string"),
            "is_str", "lineitem", ["l_quantity"]),
        "greatest_least_compliance": (
            lambda: hq.Compliance(
                "clamped",
                "greatest(l_tax, l_discount, 0.03) <= "
                "least(l_extendedprice / 400000 + 0.02, 0.07)"),
            "frac4", "lineitem", ["l_tax", "l_discount", "l_extendedprice"]),
    }
    for qname, (make, col, table, columns) in analyzer_specs.items():
        out[qname] = (
            lambda sf_dir, _m=make, _c=col, _t=table, _cols=columns: _metric(
                _m(), _c, sf_dir, _t, _cols
            )
        )

    # -- relational / pipeline ops ---------------------------------------
    out["topk_events_by_value"] = _topk_events
    out["groupby_event_type"] = _groupby_event_type
    out["dedup_events_user_type"] = _dedup_events_user_type
    out["exact_dedup_documents"] = _exact_dedup_documents
    out["token_counts_documents"] = _token_counts_documents
    out["symbol_ratio_documents"] = _symbol_ratio_documents
    out["fingerprint_documents"] = _fingerprint_documents
    out["lang_counts_documents"] = _lang_counts_documents
    out["repetition_stats_documents"] = _repetition_stats_documents
    out["normalize_text_documents"] = _normalize_text_documents
    out["top_terms_documents"] = _top_terms_documents
    out["contamination_documents"] = _contamination_documents
    out["decontaminate_documents"] = _decontaminate_documents
    out["dup_ngram_stats_documents"] = _dup_ngram_stats_documents
    out["scrub_dup_ngrams_documents"] = _scrub_dup_ngrams_documents
    out["split_assign_documents"] = _split_assign_documents
    out["quality_by_source_documents"] = _quality_by_source_documents
    out["chunk_documents"] = _chunk_documents_q
    out["domain_llr_documents"] = _domain_llr_documents
    out["split_token_budget_documents"] = _split_token_budget_documents
    out["quality_filter_documents"] = _quality_filter_documents
    out["importance_sample_documents"] = _importance_sample_documents
    out["deterministic_shuffle_documents"] = _deterministic_shuffle_documents
    out["knn_embeddings"] = _knn_embeddings

    out["windowed_events_hourly"] = _windowed_events_hourly
    out["histogram_quantity"] = _histogram_quantity
    out["salted_group_sum_events"] = _salted_group_sum_events
    out["session_stats_events"] = _session_stats_events
    out["top3_events_per_type"] = _top3_events_per_type
    out["hash_sample_events"] = _hash_sample_events
    out["semi_join_top_users"] = _semi_join_top_users
    out["anti_join_top_users"] = _anti_join_top_users
    out["line_dedup_documents"] = _line_dedup_documents
    out["top_bigrams_documents"] = _top_bigrams_documents
    out["referential_integrity_events_customer"] = _ref_integrity

    out["asof_join_events_orders"] = _asof_events_orders
    out["interval_join_events_errors"] = _interval_events_errors
    out["enrich_join_events_customer"] = _enrich_events_customer
    out["hash_join_orders_customer"] = _hash_join_orders_customer
    out["stratified_sample_events"] = _stratified_sample_events
    out["reservoir_sample_events"] = _reservoir_sample_events
    out["bloom_new_events"] = _bloom_new_events
    out["pivot_user_event_counts"] = _pivot_user_event_counts
    out["funnel_signup_click_purchase"] = _funnel_counts_events
    out["distinct_users_per_type"] = _distinct_users_per_type
    out["row_number_events_by_value"] = _row_number_events
    out["hopping_window_events"] = _hopping_window_events
    out["snapshot_diff_events"] = _snapshot_diff_events
    out["value_deciles_events"] = _value_deciles_events
    out["rolling_mean_events"] = _rolling_mean_events
    out["time_window_events"] = _time_window_events
    out["union_users_click_purchase"] = _union_users_click_purchase
    out["intersect_users_click_purchase"] = _intersect_users_click_purchase
    out["except_pairs_low_value"] = _except_pairs_low_value
    out["full_join_orders_customer"] = _full_join_orders_customer
    out["running_sum_events"] = _running_sum_events
    out["lag_delta_events"] = _lag_delta_events
    out["lag2_delta_events"] = (
        lambda sf_dir: _lag_delta_events(sf_dir, periods=2))
    out["lead_delta_events"] = _lead_delta_events
    out["first_last_value_events"] = _first_last_value_events
    out["grouped_corr_lineitem"] = _grouped_corr_lineitem
    out["weighted_sample_events"] = _weighted_sample_events
    out["value_histogram_events"] = _value_histogram_events
    out["bm25_scores_documents"] = _bm25_scores_documents
    out["schema_diff_documents"] = _schema_diff_documents
    out["alternation_stats_transcripts"] = _alternation_stats
    out["grouped_weighted_sample_events"] = _grouped_weighted_sample_events
    out["robust_stats_events"] = _robust_stats_events
    out["split_by_gap_transcripts"] = _split_by_gap_transcripts
    out["cross_source_overlap_documents"] = _cross_source_overlap_documents
    out["grouped_profile_documents"] = _grouped_profile_documents
    out["bm25_multi_documents"] = _bm25_multi_documents
    out["windowed_distinct_users"] = _windowed_distinct_users
    out["hashed_vectors_documents"] = _hashed_vectors_documents
    out["zscore_events_by_type"] = _zscore_events_by_type
    out["minmax_events_by_type"] = _minmax_events_by_type
    out["pack_sequences_documents"] = _pack_sequences_documents
    out["line_filter_frequent_documents"] = _line_filter_frequent_documents
    out["pack_texts_documents"] = _pack_texts_documents
    out["mix_sources_documents"] = _mix_sources_documents
    out["json_field_events"] = _json_field_events
    out["regex_extract_documents"] = _regex_extract_documents
    out["explode_embeddings"] = _explode_embeddings
    out["rollup_events_type_day"] = _rollup_events_type_day
    out["cohort_retention_events"] = _cohort_retention_events
    out["psi_drift_events"] = _psi_drift_events

    # -- oracled via SQL derivation / bound predicates --------------------
    out["conversation_features"] = _conversation_features
    out["validate_conversations_transcripts"] = _validate_conversations_q
    out["truncate_conversations_transcripts"] = _truncate_conversations
    out["boilerplate_turns_transcripts"] = _boilerplate_turns
    out["merge_turns_transcripts"] = _merge_turns
    out["training_examples_transcripts"] = _training_examples
    out["dedup_conversations_transcripts"] = _dedup_conversations
    out["near_dup_conversations_transcripts"] = _near_dup_conversations
    out["tool_usage_transcripts"] = _tool_usage
    out["pii_stats_transcripts"] = _pii_stats
    out["toxicity_stats_transcripts"] = _toxicity_stats
    out["majority_lang_transcripts"] = _conv_majority_lang
    out["turn_gap_stats_transcripts"] = _turn_gap_stats
    out["fork_groups_transcripts"] = _fork_groups
    out["preference_pairs_transcripts"] = _preference_pairs
    out["loop_stats_transcripts"] = _loop_stats
    out["filter_conversations_transcripts"] = _filter_conversations_q
    out["echo_stats_transcripts"] = _echo_stats
    out["clip_turns_transcripts"] = _clip_turns
    out["tool_transitions_transcripts"] = _tool_transitions
    out["curate_pipeline_transcripts"] = _curate_pipeline
    out["split_by_fork_transcripts"] = _split_by_fork
    out["reindex_turns_transcripts"] = _reindex_turns
    out["conversation_diff_transcripts"] = _conversation_diff
    out["fork_index_probe_transcripts"] = _fork_index_probe
    out["sample_conversations_transcripts"] = _sample_conversations
    out["filter_pii_conversations_transcripts"] = _filter_pii_convs
    out["diff_against_index_transcripts"] = _diff_against_index
    out["turn_diff_transcripts"] = _turn_diff
    out["role_balance_transcripts"] = _role_balance
    out["split_by_cluster_documents"] = _split_by_cluster_documents
    out["vocab_stats_documents"] = _vocab_stats_documents
    out["jsonl_roundtrip_documents"] = _jsonl_roundtrip_documents
    out["csv_roundtrip_documents"] = _csv_roundtrip_documents
    out["vector_mean_embeddings"] = _grouped_vector_mean
    out["length_bucket_batches_documents"] = _length_bucket_batches
    out["blocklist_filter_documents"] = _blocklist_filter_documents
    out["dup_rate_by_source_documents"] = _dup_rate_by_source
    out["l2_normalize_embeddings"] = _l2_normalize_embeddings
    out["quantize_int8_embeddings"] = _quantize_int8_embeddings
    out["inverted_index_documents"] = _inverted_index_documents
    out["pack_sft_transcripts"] = _pack_sft
    out["dedup_turns_transcripts"] = _dedup_turns
    out["sft_pipeline_transcripts"] = _sft_pipeline
    out["grouped_quantile_price_by_flag"] = _grouped_quantile_by_flag
    out["profile_events"] = _profile_events
    out["near_dup_pairs_documents"] = _near_dup_pairs
    out["dedup_clusters_documents"] = _dedup_clusters
    out["embedding_dup_pairs"] = _embedding_dup_pairs
    out["approx_count_distinct_users"] = _approx_distinct_users
    out["approx_quantile_price"] = _approx_quantile_price
    out["knn_ivf_embeddings"] = _knn_ivf
    out["kmeans_embeddings"] = _kmeans_embeddings
    out["percentile_rank_events"] = _percentile_rank_events
    out["rank_events_by_type"] = _rank_events_by_type
    out["dense_rank_events_by_type"] = (
        lambda sf_dir: _rank_events_by_type(sf_dir, dense=True))
    out["grouped_quantile_exact_price"] = _grouped_quantile_exact_price
    out["ntile_events_by_type"] = _ntile_events_by_type
    out["mode_value_by_type"] = _mode_value_by_type
    out["string_agg_users_by_type"] = _string_agg_users_by_type
    out["dedup_lines_within_doc"] = _dedup_lines_within_doc
    out["percent_rank_events_by_type"] = (
        lambda sf_dir: _percent_rank_by_type(sf_dir, cume=False))
    out["cume_dist_events_by_type"] = (
        lambda sf_dir: _percent_rank_by_type(sf_dir, cume=True))
    out["approx_distinct_users_per_type"] = _approx_distinct_users_per_type
    out["keep_best_dedup_documents"] = _keep_best_dedup_documents
    out["heavy_hitter_tokens"] = _heavy_hitter_tokens
    out["multimodal_image_stats"] = _multimodal_image_stats
    out["multimodal_png_mixed_stats"] = (
        lambda sf_dir: _multimodal_image_stats(sf_dir, kind="image_mixed"))
    out["multimodal_audio_stats"] = _multimodal_audio_stats
    out["multimodal_frame_stats"] = _multimodal_frame_stats

    # -- bound-style oracles for the non-SQL-expressible ops --------------
    out["minhash_lsh_pairs_documents"] = _minhash_pairs
    out["minhash_probe_new_documents"] = _minhash_probe_new
    out["perplexity_documents"] = _perplexity_documents
    out["simhash_documents"] = _simhash_docs
    out["langid_documents"] = _langid_docs
    out["transcript_filter_stats"] = _transcript_filter_stats
    out["multimodal_resize_pipeline"] = _multimodal_resize_pipeline

    return out


# -- op implementations ----------------------------------------------------

def _topk_events(sf_dir: str):
    """Top 20 events by value: a per-block top 20, then the top 20 of
    those on the driver."""
    from hooqu_ray.functions.shuffle import top_n
    from hooqu_ray.util import collect_arrow

    by = [("value", "descending"), ("event_id", "ascending")]
    ds = _read(sf_dir, "events", ["event_id", "value"])
    t = top_n(collect_arrow(ds.map_batches(
        lambda b: top_n(b, by, 20), batch_format="pyarrow",
        batch_size=None)), by, 20)
    return pa.table(
        {"event_id": t.column("event_id"), "value": pc.round(t.column("value"), 6)}
    )


def _groupby_event_type(sf_dir: str):
    from ray.data.aggregate import Count, Mean

    ds = _read(sf_dir, "events", ["event_type", "value"])
    res = ds.groupby("event_type").aggregate(Count(), Mean("value")).to_pandas()
    res = res.rename(columns={"count()": "n", "mean(value)": "avg_value"})
    res["avg_value"] = res["avg_value"].round(6)
    res["n"] = res["n"].astype("int64")
    return res


def _dedup_events_user_type(sf_dir: str):
    from ray.data.aggregate import Min

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])
    res = ds.groupby(["user_id", "event_type"]).aggregate(Min("event_id")).to_pandas()
    return res.rename(columns={"min(event_id)": "event_id"})


def _exact_dedup_documents(sf_dir: str):
    from hooqu_ray.pipelines.dedup import exact_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    kept = exact_dedup(ds, "text", "doc_id")
    return pa.Table.from_pylist(kept.take_all()).select(["doc_id"])


def _token_counts_documents(sf_dir: str):
    from hooqu_ray.pipelines.textstats import token_count_stage

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    res = ds.map_batches(token_count_stage, batch_format="pyarrow")
    return pa.Table.from_pylist(res.take_all()).select(
        ["doc_id", "n_tokens", "n_bpe_tokens"]
    )


def _symbol_ratio_documents(sf_dir: str):
    from hooqu_ray.pipelines.textstats import quality_stage

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    res = ds.map_batches(quality_stage, batch_format="pyarrow").to_pandas()
    out = res[["doc_id"]].copy()
    out["symbol_ratio"] = res["q_symbol_ratio"].round(6)
    return out


def _fingerprint_documents(sf_dir: str):
    from hooqu_ray.pipelines.textstats import fingerprint_stage

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    res = ds.map_batches(
        lambda t: fingerprint_stage(t).select(["doc_id", "md5"]), batch_format="pyarrow"
    )
    return pa.Table.from_pylist(res.take_all())


def _repetition_stats_documents(sf_dir: str):
    """Gopher-style within-doc repetition metrics (dup line/char fraction,
    top word share, dup 2-gram fraction) — one streaming vectorized pass."""
    from hooqu_ray.pipelines.textstats import repetition_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = repetition_stats(ds).to_pandas()
    for c in ("dup_line_frac", "dup_line_char_frac", "top_word_frac",
              "dup_2gram_frac"):
        df[c] = df[c].round(6)
    df["n_lines"] = df["n_lines"].astype("int64")
    return df.sort_values("doc_id", ignore_index=True)


def _lang_counts_documents(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["lang"])
    res = ds.groupby("lang").aggregate(Count()).to_pandas()
    res = res.rename(columns={"count()": "n"})
    res["n"] = res["n"].astype("int64")
    return res


_DECONTAM_N = 5
_BENCH_MOD = 101  # benchmark set = documents with doc_id % 101 == 0


def _contamination_documents(sf_dir: str):
    """Benchmark decontamination: per-doc exact word 5-gram overlap with
    the deterministic doc_id % 101 == 0 'eval set'."""
    from hooqu_ray.pipelines.decontam import contamination_stats

    def _bench_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % _BENCH_MOD == 0))

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _bench_rows, batch_format="pyarrow"
    )
    df = contamination_stats(ds, bench, n=_DECONTAM_N).to_pandas()
    df["contaminated_frac"] = df["contaminated_frac"].round(6)
    return df.sort_values("doc_id", ignore_index=True)


def _decontaminate_documents(sf_dir: str):
    """Kept (benchmark-clean) documents after 5-gram decontamination."""
    from hooqu_ray.pipelines.decontam import decontaminate

    def _bench_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % _BENCH_MOD == 0))

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _bench_rows, batch_format="pyarrow"
    )
    kept = decontaminate(ds, bench, n=_DECONTAM_N)
    df = kept.to_pandas()[["doc_id"]]
    return df.sort_values("doc_id", ignore_index=True)


def _dup_ngram_stats_documents(sf_dir: str):
    """Corpus-wide duplicated word 5-gram fractions per document."""
    from hooqu_ray.pipelines.decontam import dup_ngram_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = dup_ngram_stats(ds, n=_DECONTAM_N).to_pandas()
    df["dup_ngram_frac"] = df["dup_ngram_frac"].round(6)
    return df.sort_values("doc_id", ignore_index=True)


def _scrub_dup_ngrams_documents(sf_dir: str):
    """Inline removal of corpus-duplicated word 5-gram spans (Lee et al.
    2022 style): touched documents rebuilt from surviving tokens, untouched
    ones byte-faithful, plus the covered-position count."""
    from hooqu_ray.pipelines.decontam import scrub_dup_ngrams

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = scrub_dup_ngrams(ds, n=_DECONTAM_N).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def _split_assign_documents(sf_dir: str):
    """Deterministic md5-bucket train/val/test split assignment."""
    from hooqu_ray.pipelines.relational import split_assign

    ds = _read(sf_dir, "documents", ["doc_id"])
    df = split_assign(ds, "doc_id").to_pandas()
    return df.sort_values("doc_id", ignore_index=True)


_IMPORTANCE_T = 0.1


def _importance_sample_documents(sf_dir: str):
    """DSIR pipeline: domain-LLR scores → deterministic sigmoid-threshold
    resampling (keep iff md5_frac(doc_id) < sigmoid(llr / T))."""
    from hooqu_ray.pipelines.relational import importance_sample
    from hooqu_ray.pipelines.scoring import domain_llr_score

    def _bench_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % _BENCH_MOD == 0))

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    target = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _bench_rows, batch_format="pyarrow"
    )
    scored = domain_llr_score(ds, target, vocab_size=_LLR_VOCAB)
    kept = importance_sample(scored, "doc_id", "llr_score",
                             temperature=_IMPORTANCE_T)
    df = kept.to_pandas()[["doc_id"]]
    return df.sort_values("doc_id", ignore_index=True)


def _deterministic_shuffle_documents(sf_dir: str):
    """Reproducible global shuffle positions by (md5 bucket, doc_id)."""
    from hooqu_ray.pipelines.relational import deterministic_shuffle

    ds = _read(sf_dir, "documents", ["doc_id"])
    df = deterministic_shuffle(ds, "doc_id").to_pandas()[["doc_id", "shuffle_pos"]]
    return df.sort_values("doc_id", ignore_index=True)


def _quality_filter_documents(sf_dir: str):
    """C4/Gopher-style document quality filter with first-failing-rule
    reason codes."""
    from hooqu_ray.pipelines.filters import quality_filter

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = quality_filter(ds).to_pandas()
    return df.sort_values("doc_id", ignore_index=True)


def _split_token_budget_documents(sf_dir: str):
    """Token-budget report per (train/val/test split, source)."""
    from hooqu_ray.pipelines.textstats import split_token_budget

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    df = split_token_budget(ds).to_pandas()
    return df.sort_values(["split", "source"], ignore_index=True)


def _quality_by_source_documents(sf_dir: str):
    """Per-source corpus quality rollup (counts + mean quality features)."""
    from hooqu_ray.pipelines.textstats import quality_by_source

    ds = _read(sf_dir, "documents", ["source", "text"])
    df = quality_by_source(ds).to_pandas()
    for c in ("avg_chars", "avg_tokens", "avg_symbol_ratio", "avg_stopword_ratio"):
        df[c] = df[c].round(6)
    return df.sort_values("source", ignore_index=True)


_CHUNK_SIZE, _CHUNK_OVERLAP = 16, 4
_LLR_VOCAB = 16


def _chunk_documents_q(sf_dir: str):
    """Overlapping fixed-token document chunking (sequence prep)."""
    from hooqu_ray.pipelines.chunking import chunk_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = chunk_documents(ds, size=_CHUNK_SIZE, overlap=_CHUNK_OVERLAP).to_pandas()
    return df.sort_values(["doc_id", "chunk_idx"], ignore_index=True)


def _domain_llr_documents(sf_dir: str):
    """DSIR-style unigram log-likelihood-ratio vs the doc_id % 101 == 0
    target-domain sample (capped top-V vocabulary)."""
    from hooqu_ray.pipelines.scoring import domain_llr_score

    def _bench_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % _BENCH_MOD == 0))

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    target = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _bench_rows, batch_format="pyarrow"
    )
    df = domain_llr_score(ds, target, vocab_size=_LLR_VOCAB).to_pandas()
    df["llr_score"] = df["llr_score"].round(6)
    return df.sort_values("doc_id", ignore_index=True)


_N_KNN_QUERIES = 3
_KNN_K = 10


def _knn_embeddings(sf_dir: str):
    from hooqu_ray.pipelines.similarity import knn_brute_force

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(
        (r for r in ds.take(32) if r["vec_id"] < _N_KNN_QUERIES),
        key=lambda r: r["vec_id"],
    )
    queries = np.stack([r["embedding"] for r in qrows])
    qids = [r["vec_id"] for r in qrows]
    res = knn_brute_force(ds, queries, k=_KNN_K, query_ids=qids)
    import pyarrow.compute as pc

    qid_arr = pa.array([qids[i] for i in res.column("query_idx").to_pylist()], pa.int64())
    return pa.table(
        {
            "query_id": qid_arr,
            "vec_id": res.column("vec_id"),
            "cosine": pc.round(res.column("cosine"), 6),
        }
    )


def _knn_ivf(sf_dir: str):
    """Bound-style oracle: the result cardinality hash-matches the SQL
    (k non-self rows per query, matching the oracle's vec_id != query_id)
    and the approximate search's recall against the engine's own exact
    top-k — the same query_ids configuration the knn_embeddings gate
    hash-verifies — is asserted >= 0.7 (measured 0.81 at sf0.01; without
    self-exclusion every query would get a free 1/k of recall)."""
    from hooqu_ray.pipelines.similarity import knn_brute_force, knn_ivf

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(
        (r for r in ds.take(32) if r["vec_id"] < _N_KNN_QUERIES),
        key=lambda r: r["vec_id"],
    )
    queries = np.stack([r["embedding"] for r in qrows])
    qids = [r["vec_id"] for r in qrows]
    ivf = knn_ivf(ds, queries, k=_KNN_K, query_ids=qids)
    exact = knn_brute_force(ds, queries, k=_KNN_K, query_ids=qids)

    def by_query(tbl):
        out: dict = {}
        for q, v in zip(tbl.column("query_idx").to_pylist(), tbl.column("vec_id").to_pylist()):
            out.setdefault(q, set()).add(v)
        return out

    ex, iv = by_query(exact), by_query(ivf)
    recalls = [len(ex[q] & iv.get(q, set())) / len(ex[q]) for q in ex]
    mean_recall = sum(recalls) / len(recalls)
    return pa.table(
        {
            "n_results": pa.array([len(ivf)], pa.int64()),
            "recall_ok": pa.array([mean_recall >= 0.7], pa.bool_()),
        }
    )


def _rank_events_by_type(sf_dir: str, dense: bool = False):
    """SQL RANK()/DENSE_RANK() OVER (PARTITION BY event_type ORDER BY
    user_id) — user_id repeats within a type, so tie semantics (shared
    ranks, gaps vs no gaps) are genuinely exercised.  Null event_type /
    user_id rows drop on both sides (pipelines/ranks.py contract)."""
    from hooqu_ray.pipelines.ranks import grouped_rank

    ds = _read(sf_dir, "events", ["event_type", "user_id", "event_id"])
    return grouped_rank(ds, "event_type", "user_id", "event_id", dense=dense)


def _dedup_lines_within_doc(sf_dir: str):
    """In-document line dedup over documents with INJECTED self-repeats
    (doc_id % 7 == 0 gets its first line tripled) — byte-equal vs a SQL
    window rebuild.  Null-text docs filtered on both sides (UNNEST drops
    them from the SQL side)."""
    from hooqu_ray.pipelines.dedup import dedup_lines_within_doc

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def inject(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("text")))
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        text = t.column("text").to_numpy(zero_copy_only=False).astype(object)
        m = ids % 7 == 0
        if m.any():
            first = np.array([s.split("\n")[0] for s in text[m]], object)
            text[m] = first + "\n" + text[m] + "\n" + first
        return pa.table({"doc_id": t.column("doc_id"),
                         "text": pa.array(text, pa.string())})

    out = dedup_lines_within_doc(
        ds.map_batches(inject, batch_format="pyarrow"), min_line_chars=10)
    return out.to_pandas().sort_values("doc_id", ignore_index=True)


def _string_agg_users_by_type(sf_dir: str):
    """SQL string_agg(user_id, ',' ORDER BY user_id, event_id) per
    event_type — a tie column makes the concatenation deterministic.
    Restricted to 'signup' events so the joined cell stays gate-sized."""
    from hooqu_ray.pipelines.ranks import grouped_string_agg

    ds = _read(sf_dir, "events", ["event_type", "user_id", "event_id"])

    def signup_str(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("event_type"), "signup"))
        return t.append_column(
            "user_str", pc.cast(t.column("user_id"), pa.string()))

    return grouped_string_agg(
        ds.map_batches(signup_str, batch_format="pyarrow"),
        "event_type", "user_str", "user_id", "event_id")


def _mode_value_by_type(sf_dir: str):
    """SQL mode() per event_type over user_id, ties to the SMALLEST value
    (deterministic — oracled with a row_number window, not mode())."""
    from hooqu_ray.pipelines.relational import grouped_mode

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    out = grouped_mode(ds, "event_type", "user_id")
    return out.to_pandas().sort_values("event_type", ignore_index=True)


def _percent_rank_by_type(sf_dir: str, cume: bool):
    """SQL PERCENT_RANK()/CUME_DIST() OVER (PARTITION BY event_type ORDER
    BY user_id) — tie-heavy order column, 6-decimal rounding both sides."""
    from hooqu_ray.pipelines.ranks import grouped_percent_rank

    ds = _read(sf_dir, "events", ["event_type", "user_id", "event_id"])
    return grouped_percent_rank(ds, "event_type", "user_id", "event_id",
                                cume=cume)


def _ntile_events_by_type(sf_dir: str):
    """SQL NTILE(4) OVER (PARTITION BY event_type ORDER BY user_id,
    event_id) — equal (user_id) ties are resolved by the unique event_id,
    so the bucket assignment is deterministic on both sides."""
    from hooqu_ray.pipelines.ranks import grouped_ntile

    ds = _read(sf_dir, "events", ["event_type", "user_id", "event_id"])
    return grouped_ntile(ds, "event_type", "user_id", "event_id", 4)


def _grouped_quantile_exact_price(sf_dir: str):
    """EXACT per-group median (pandas-nearest rule) of l_extendedprice by
    l_returnflag — the exact counterpart of grouped_quantile_price_by_flag
    (t-digest).  Values rounded to 6 decimals on both sides."""
    from hooqu_ray.pipelines.ranks import grouped_exact_quantile

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    out = grouped_exact_quantile(ds, "l_returnflag", "l_extendedprice", 0.5)

    def rnd(t: pa.Table) -> pa.Table:
        if "q_value" not in t.column_names:
            return t
        return t.set_column(t.column_names.index("q_value"), "q_value",
                            pc.round(t.column("q_value"), ndigits=6))

    return out.map_batches(rnd, batch_format="pyarrow")


def _percentile_rank_events(sf_dir: str):
    """Bound-style oracle: the one-pass t-digest percentile rank must sit
    within 2% of the exact SQL percent_rank for EVERY row (measured max
    error 0.1% at sf0.01), with one output row per input (count
    hash-matches).  The exact reference here is a driver pandas rank —
    gate-scale only; the operator itself never materializes."""
    import pandas as pd

    from hooqu_ray.pipelines.relational import percentile_rank

    ds = _read(sf_dir, "events", ["event_id", "value"])
    got = percentile_rank(ds, "value", keep_cols=["event_id"]).to_pandas()
    exact = _read(sf_dir, "events", ["event_id", "value"]).to_pandas()
    n = len(exact)
    exact["pr"] = (exact["value"].rank(method="min") - 1) / max(n - 1, 1)
    m = got.merge(exact[["event_id", "pr"]], on="event_id")
    err = (m["pct_rank"] - m["pr"]).abs().max()
    return pa.table(
        {
            "n_rows": pa.array([len(got)], pa.int64()),
            "within_tol": pa.array([bool(err <= 0.02)], pa.bool_()),
        }
    )


def _kmeans_embeddings(sf_dir: str):
    """Bound-style oracle for the distributed spherical k-means (iterative,
    not SQL-expressible): every vector is assigned (count hash-matches
    count(*)), the Lloyd's objective history is monotone non-decreasing
    (each half-step provably improves the spherical objective), and two
    independent distributed runs agree bit-for-bit (hash-of-id init +
    order-insensitive partial sums)."""
    from hooqu_ray.pipelines.similarity import kmeans

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent, assign, hist = kmeans(ds, n_clusters=8, n_iters=4)
    n = assign.count()
    cent2, _, hist2 = kmeans(ds, n_clusters=8, n_iters=4)
    monotone = all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
    deterministic = bool(
        np.allclose(cent, cent2, atol=1e-9)
        and np.allclose(hist, hist2, atol=1e-6)
    )
    return pa.table(
        {
            "n_vectors": pa.array([int(n)], pa.int64()),
            "k": pa.array([int(cent.shape[0])], pa.int64()),
            "monotone_ok": pa.array([monotone], pa.bool_()),
            "deterministic_ok": pa.array([deterministic], pa.bool_()),
        }
    )


def _minhash_pairs(sf_dir: str):
    """Bound-style oracle (IVF template): the LSH pairs at threshold 0.4 are
    exact-Jaccard-verified; the count of emitted pairs with exact J >= 0.5
    must hash-match the SQL all-pairs self-join count at the same threshold
    (emitted∩truth == |truth| ⟺ recall 1.0 — measured exactly equal at
    sf0.001 and sf0.01), and every emitted pair's exact Jaccard must clear a
    0.3 precision floor (measured min 0.89; LSH false positives would sit
    near the 0.4 estimate)."""
    import pandas as pd

    from hooqu_ray.pipelines.dedup import minhash_lsh_pairs, verify_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cand = minhash_lsh_pairs(ds, threshold=0.4)
    ver = verify_pairs(ds, cand, threshold=0.0).to_pandas()
    n_true = int((ver["jaccard"] >= 0.5).sum()) if len(ver) else 0
    prec_ok = bool((ver["jaccard"] >= 0.3).all()) if len(ver) else True
    return pa.table(
        {
            "n_true_pairs": pa.array([n_true], pa.int64()),
            "precision_ok": pa.array([prec_ok], pa.bool_()),
        }
    )


def _perplexity_documents(sf_dir: str):
    """Bound-style oracle: one perplexity per document (count hash-matches
    count(*)); smoothed bigram probabilities are < 1 so every perplexity is
    >= 1 (empty text scores exactly 1); two independent distributed runs
    agree bit-for-bit (deterministic model + libm)."""
    from hooqu_ray.pipelines.textstats import PerplexityStage

    def run():
        ds = _read(sf_dir, "documents", ["doc_id", "text"])
        return (
            ds.map_batches(PerplexityStage(), batch_format="pyarrow")
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )

    a, b = run(), run()
    deterministic = bool(a["doc_id"].equals(b["doc_id"]) and a["perplexity"].equals(b["perplexity"]))
    return pa.table(
        {
            "n_docs": pa.array([len(a)], pa.int64()),
            "ppl_ge_1_ok": pa.array([bool((a["perplexity"] >= 1.0).all())], pa.bool_()),
            "deterministic_ok": pa.array([deterministic], pa.bool_()),
        }
    )


_PROBE_ID_SHIFT = 1_000_000


def _minhash_probe_new(sf_dir: str):
    """Bound-style oracle for the incremental near-dup probe: index the
    doc_id % 7 != 0 corpus, probe the % 7 == 0 shard (ids shifted to a
    disjoint space) as the 'new crawl increment'.  Every emitted pair is
    exact-Jaccard-verified; the count with exact J >= 0.5 must hash-match
    the SQL cross-subset all-pairs count (recall 1.0), with a 0.3
    precision floor."""
    import shutil
    import tempfile

    from hooqu_ray.pipelines.dedup import (
        minhash_index_write,
        minhash_probe_index,
        verify_pairs,
    )

    def _old_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 7 != 0))

    def _new_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % 7 == 0))
        shifted = pa.array(
            t.column("doc_id").to_numpy(zero_copy_only=False) + _PROBE_ID_SHIFT,
            pa.int64(),
        )
        return t.set_column(t.column_names.index("doc_id"), "doc_id", shifted)

    old_ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _old_rows, batch_format="pyarrow"
    )
    new_ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _new_rows, batch_format="pyarrow"
    )
    path = tempfile.mkdtemp(prefix="mh_index_contract_")
    try:
        minhash_index_write(old_ds, path)
        pairs = minhash_probe_index(new_ds, path, threshold=0.4)
        renamed = pairs.map_batches(
            lambda t: pa.table(
                {
                    "id_a": t.column("new_id"),
                    "id_b": t.column("old_id"),
                    "__oversized_bucket": t.column("__oversized_bucket"),
                }
            ),
            batch_format="pyarrow",
        )
        ver = verify_pairs(old_ds.union(new_ds), renamed, threshold=0.0).to_pandas()
    finally:
        shutil.rmtree(path, ignore_errors=True)
    n_true = int((ver["jaccard"] >= 0.5).sum()) if len(ver) else 0
    prec_ok = bool((ver["jaccard"] >= 0.3).all()) if len(ver) else True
    return pa.table(
        {
            "n_true_pairs": pa.array([n_true], pa.int64()),
            "precision_ok": pa.array([prec_ok], pa.bool_()),
        }
    )


def _simhash_docs(sf_dir: str):
    """Bound-style oracle: (a) signature count hash-matches count(*); (b)
    two independent distributed runs agree bit-for-bit (process-stable
    hashing — builtin hash() would fail this across Ray workers); (c) every
    true near-dup pair (exact word-3-gram J >= 0.5, the SQL-verified set)
    has signature Hamming distance <= 12 of 64 bits (measured max 8; random
    pairs average ~17)."""
    import pandas as pd

    from hooqu_ray.pipelines.dedup import (
        minhash_lsh_pairs,
        simhash_signatures,
        verify_pairs,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    sig1 = pd.DataFrame(simhash_signatures(ds).take_all()).sort_values(
        "doc_id", ignore_index=True
    )
    sig2 = pd.DataFrame(simhash_signatures(ds).take_all()).sort_values(
        "doc_id", ignore_index=True
    )
    deterministic = bool(
        sig1["doc_id"].equals(sig2["doc_id"]) and sig1["simhash"].equals(sig2["simhash"])
    )
    truth = verify_pairs(
        ds, minhash_lsh_pairs(ds, num_perm=128, bands=64, threshold=0.0), threshold=0.5
    ).to_pandas()
    sigmap = dict(zip(sig1["doc_id"], sig1["simhash"].astype("uint64")))
    hams = [
        bin(int(sigmap[a]) ^ int(sigmap[b])).count("1")
        for a, b in zip(truth["id_a"].astype(int), truth["id_b"].astype(int))
    ]
    return pa.table(
        {
            "n_docs": pa.array([len(sig1)], pa.int64()),
            "deterministic_ok": pa.array([deterministic], pa.bool_()),
            "near_dup_hamming_ok": pa.array(
                [max(hams, default=0) <= 12], pa.bool_()
            ),
        }
    )


def _langid_docs(sf_dir: str):
    """Bound-style oracle: one prediction per document (count hash-matches
    count(*)), predictions drawn from the model's closed language set, and
    accuracy against the ground-truth ``lang`` column >= 0.35 (the trigram
    model measures ~0.43 on this synthetic corpus — the bound is a floor,
    not a claim of quality)."""
    import pyarrow.compute as pc

    from hooqu_ray.pipelines.textstats import LangIdStage
    from hooqu_ray.stages.models import TrigramLangID

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    res = ds.map_batches(LangIdStage(), batch_format="pyarrow")
    t = _collect_arrow_entry(res)
    langs = set(TrigramLangID().langs)
    preds = t.column("pred_lang").to_pylist()
    truth = t.column("lang").to_pylist()
    acc = (
        sum(p == g for p, g in zip(preds, truth)) / len(preds) if preds else 1.0
    )
    return pa.table(
        {
            "n_docs": pa.array([len(t)], pa.int64()),
            "preds_valid": pa.array(
                [all(p in langs for p in preds)], pa.bool_()
            ),
            "acc_ok": pa.array([acc >= 0.35], pa.bool_()),
        }
    )


def _collect_arrow_entry(ds) -> pa.Table:
    """take_all() → Arrow without a pandas round-trip (small results only)."""
    return pa.Table.from_pylist(ds.take_all())


def _approx_distinct_users(sf_dir: str):
    """Bound-style oracle: the EXACT distributed distinct count hash-matches
    the SQL, and the HLL estimate is asserted within 5% of it (standard
    error for the sketch's precision is ~1%)."""
    import hooqu_ray as hq
    from hooqu_ray.runner import do_analysis_run

    exact_a = hq.CountDistinct(["user_id"])
    approx_a = hq.ApproxCountDistinct("user_id")
    ds = _read(sf_dir, "events", ["user_id"])
    # the HLL scan rides the CountDistinct fold: one read, two executions
    ctx = do_analysis_run(ds, [exact_a, approx_a])
    exact = float(ctx.metric_map[exact_a].value.get())
    est = float(ctx.metric_map[approx_a].value.get())
    return pa.table(
        {
            "n_exact": pa.array([round(exact, 6)], pa.float64()),
            "within_tol": pa.array([abs(est - exact) / max(exact, 1.0) <= 0.05], pa.bool_()),
        }
    )


def _approx_quantile_price(sf_dir: str):
    """Bound-style oracle: the EXACT distributed nearest-quantile
    hash-matches the SQL, and the t-digest estimate is asserted within 1%."""
    import hooqu_ray as hq
    from hooqu_ray.runner import do_analysis_run

    exact_a = hq.Quantile("l_extendedprice", 0.5)
    approx_a = hq.ApproxQuantile("l_extendedprice", 0.5)
    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    ctx = do_analysis_run(ds, [exact_a, approx_a])
    exact = float(ctx.metric_map[exact_a].value.get())
    est = float(ctx.metric_map[approx_a].value.get())
    return pa.table(
        {
            "q50_exact": pa.array([round(exact, 6)], pa.float64()),
            "within_tol": pa.array([abs(est - exact) / abs(exact) <= 0.01], pa.bool_()),
        }
    )


def _near_dup_pairs(sf_dir: str):
    """LSH candidates at high recall (r=2, 64 bands: a true Jaccard-0.5 pair
    escapes with probability (1-0.25)^64 ≈ 1e-8) verified with the exact
    word-3-gram Jaccard — equal to the SQL all-pairs self-join at the 0.5
    threshold."""
    from hooqu_ray.pipelines.dedup import minhash_lsh_pairs, verify_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cands = minhash_lsh_pairs(ds, num_perm=128, bands=64, threshold=0.0)
    ver = verify_pairs(ds, cands, threshold=0.5).to_pandas()
    ver["jaccard"] = ver["jaccard"].round(6)
    ver["id_a"] = ver["id_a"].astype("int64")
    ver["id_b"] = ver["id_b"].astype("int64")
    return ver.sort_values(["id_a", "id_b"], ignore_index=True)


def _dedup_clusters(sf_dir: str):
    """Connected components over the exact-verified near-dup pair set (the
    same pairs the near_dup_pairs_documents gate hash-matches): every doc
    that appears in a Jaccard>=0.5 pair is labeled with its component's
    minimum doc_id via distributed min-label propagation — equal to the
    SQL recursive-CTE reachability closure."""
    import pandas as pd

    from hooqu_ray.pipelines.cluster import connected_components
    from hooqu_ray.pipelines.dedup import minhash_lsh_pairs, verify_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cands = minhash_lsh_pairs(ds, num_perm=128, bands=64, threshold=0.0)
    ver = verify_pairs(ds, cands, threshold=0.5)
    comp = connected_components(ver, id_type=pa.int64())
    df = comp.to_pandas()
    if len(df) == 0:  # 0-row to_pandas drops schema
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"),
             "cluster_id": pd.Series(dtype="int64")}
        )
    df = df.rename(columns={"node": "doc_id"})
    df["doc_id"] = df["doc_id"].astype("int64")
    df["cluster_id"] = df["cluster_id"].astype("int64")
    return df.sort_values("doc_id", ignore_index=True)


def _transcript_filter_stats(sf_dir: str):
    """Bound-style oracle: the flagship's total turn count hash-matches the
    SQL re-derivation of the deterministic documents→transcripts explosion
    (ceil(words/12) turns per doc), and the kept fraction sits in a sanity
    band (measured 0.44 at sf0.01 — the exact keep decision is pinned
    byte-for-byte by tests/reference_impl.py, not by SQL)."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = tp.filter_and_scrub(tp.transcripts_from_documents(docs))
    import pyarrow.compute as pc

    stats = out.map_batches(
        lambda t: pa.table(
            {
                "kept": [pc.sum(pc.cast(t.column("keep"), pa.int64())).as_py() or 0],
                "total": [len(t)],
            }
        ),
        batch_format="pyarrow",
    ).to_pandas()
    kept, total = int(stats["kept"].sum()), int(stats["total"].sum())
    frac = kept / total if total else 0.0
    return pa.table(
        {
            "total": pa.array([total], pa.int64()),
            "kept_frac_ok": pa.array([0.1 <= frac <= 0.9], pa.bool_()),
        }
    )


def _windowed_events_hourly(sf_dir: str):
    """Tumbling-window aggregate: (event_type, hour) → count + avg value.
    Hour truncation per batch (vectorized Arrow), then one grouped
    aggregate — the streaming-shaped workload pattern for a batch engine."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Mean

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def add_hour(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": pc.cast(
                    pc.floor_temporal(t.column("ts"), unit="hour"), pa.timestamp("us")
                ),
                "value": t.column("value"),
            }
        )

    res = (
        ds.map_batches(add_hour, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(Count(), Mean("value"))
        .to_pandas()
    )
    res = res.rename(columns={"count()": "n", "mean(value)": "avg_value"})
    res["avg_value"] = res["avg_value"].round(6)
    res["n"] = res["n"].astype("int64")
    # Ray's groupby round-trips the timestamp at seconds resolution; pin the
    # dtype to µs so it hash-compares equal to DuckDB's
    res["hour"] = res["hour"].astype("datetime64[us]")
    return res


def _histogram_quantity(sf_dir: str):
    """Equi-width histogram of l_quantity (10 buckets of width 5 from 1)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "lineitem", ["l_quantity"])

    def bucketize(t: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.floor(pc.divide(pc.subtract(t.column("l_quantity"), 1.0), 5.0)),
            pa.int64(),
        )
        return pa.table({"bucket": b})

    res = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Count())
        .to_pandas()
        .rename(columns={"count()": "n"})
    )
    res["n"] = res["n"].astype("int64")
    return res


def _salted_group_sum_events(sf_dir: str):
    """Skew-safe grouped sum: the per-block combine bounds a hot key to
    ≤ #blocks partial rows before the keyed exchange
    (functions.shuffle.tree_group_sum; the null user keeps its group)."""
    from hooqu_ray.functions.shuffle import tree_group_sum

    ds = _read(sf_dir, "events", ["user_id", "value"])
    res = tree_group_sum(ds, "user_id", ["value"],
                         drop_null_keys=False).to_pandas()
    res = res.rename(columns={"value": "sum_value"})
    res["sum_value"] = res["sum_value"].round(6)
    return res


def _session_stats_events(sf_dir: str):
    """Sessionization (1h gap) — the streaming-window-shaped operator."""
    from hooqu_ray.pipelines.sessions import session_stats

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    res = session_stats(ds, "user_id", "ts", gap_seconds=3600).to_pandas()
    res["user_id"] = res["user_id"].astype("int64")
    res["session_idx"] = res["session_idx"].astype("int64")
    res["n_events"] = res["n_events"].astype("int64")
    res["t_start"] = res["t_start"].astype("datetime64[us]")
    res["t_end"] = res["t_end"].astype("datetime64[us]")
    return res


def _top3_events_per_type(sf_dir: str):
    from hooqu_ray.pipelines.relational import grouped_top_k

    ds = _read(sf_dir, "events", ["event_type", "event_id", "value"])
    df = grouped_top_k(ds, "event_type", "value", 3, "event_id").to_pandas()
    df["value"] = df["value"].round(6)
    return df


def _hash_sample_events(sf_dir: str):
    from hooqu_ray.pipelines.relational import hash_sample

    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_id", "value"])
    res = hash_sample(ds, "event_id", buckets=20, keep_bucket=0)
    return res.map_batches(
        lambda t: pa.table(
            {"event_id": t.column("event_id"), "value": pc.round(t.column("value"), 6)}
        ),
        batch_format="pyarrow",
    )


def _asof_events_orders(sf_dir: str):
    """Events as-of joined to each user's latest preceding order — exact
    SQL parity with a LEFT JOIN LATERAL ... ORDER BY o_orderdate DESC,
    o_orderkey DESC LIMIT 1 (ties pinned by the orderkey tie-break)."""
    from hooqu_ray.pipelines.asof import asof_join

    events = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    res = asof_join(
        events, orders, "user_id", "o_custkey", "ts", "o_orderdate",
        ["event_id"], ["o_orderkey"],
    )
    df = res.to_pandas()[["event_id", "o_orderkey"]]
    # pandas upcasts int64 through null-bearing intermediate blocks; the
    # probe ids themselves are never null, so pin the dtype for the hash
    df["event_id"] = df["event_id"].astype("int64")
    return df.sort_values("event_id", ignore_index=True)


def _interval_events_errors(sf_dir: str):
    """Range join: every event paired with each same-user error event whose
    10-minute window [ts, ts+10min) contains it — exact SQL parity with the
    self-join ON user match + range predicates (self-pairs included on both
    sides)."""
    import pyarrow.compute as pc

    from hooqu_ray.pipelines.intervals import interval_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def mk_intervals(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("event_type"), "error"))
        start = t.column("ts")
        end = pc.add(start, pa.scalar(600_000_000, pa.duration("us")))
        return pa.table({"user_id": t.column("user_id"), "w_start": start,
                         "w_end": end, "error_id": t.column("event_id")})

    intervals = ev.map_batches(mk_intervals, batch_format="pyarrow")
    res = interval_join(ev, intervals, "user_id", "user_id", "ts",
                        "w_start", "w_end", ["error_id"])
    df = res.to_pandas()[["event_id", "error_id"]]
    df = df.astype({"event_id": "int64", "error_id": "int64"})
    return df.sort_values(["event_id", "error_id"], ignore_index=True)


def _enrich_events_customer(sf_dir: str):
    """Broadcast dimension-enrichment join (events × customer mktsegment)
    folded to per-segment counts/means; a missed lookup lands in the null
    segment, matching SQL LEFT JOIN."""
    from ray.data.aggregate import Count, Mean

    from hooqu_ray.functions.joins import enrich_join

    events = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    enr = enrich_join(events, cust, "user_id", "c_custkey", ["c_mktsegment"])
    res = enr.groupby("c_mktsegment").aggregate(Count(), Mean("value")).to_pandas()
    res = res.rename(columns={"count()": "n", "mean(value)": "avg_value"})
    res["avg_value"] = res["avg_value"].round(6)
    res["n"] = res["n"].astype("int64")
    return res.sort_values("c_mktsegment", ignore_index=True)


def _stratified_sample_events(sf_dir: str):
    """Deterministic per-stratum hash sample — integer-exact thresholds on
    the md5 bucket, so SQL re-derives the identical row set."""
    from hooqu_ray.pipelines.relational import stratified_sample

    ds = _read(sf_dir, "events", ["event_id", "event_type"])
    res = stratified_sample(
        ds, "event_type", "event_id",
        {"click": 0.5, "view": 0.1, "error": 1.0}, buckets=1000,
    )
    df = res.to_pandas()
    return df.sort_values("event_id", ignore_index=True)


def _rolling_mean_events(sf_dir: str):
    """Trailing 3-row mean of value per user in (ts, event_id) order —
    exact parity with SQL AVG OVER (... ROWS BETWEEN 2 PRECEDING AND
    CURRENT ROW), values rounded to 6 decimals on both sides."""
    from hooqu_ray.pipelines.windows import rolling_mean

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    res = rolling_mean(ds, "user_id", "ts", "event_id", "value", 3)
    df = res.to_pandas()[["event_id", "rolling_mean"]]
    df["rolling_mean"] = df["rolling_mean"].round(6)
    return df.sort_values("event_id", ignore_index=True)


def _time_window_events(sf_dir: str):
    """Trailing 10-minute time-window mean + row count per user — exact
    parity with the SQL correlated subquery over the ts-set window (the
    peer-inclusive RANGE semantics, order-free)."""
    from hooqu_ray.pipelines.windows import time_window_mean

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    res = time_window_mean(ds, "user_id", "ts", "event_id", "value", 600.0)
    df = res.to_pandas()[["event_id", "tw_mean", "tw_n"]]
    df["tw_mean"] = df["tw_mean"].round(6)
    df = df.astype({"event_id": "int64", "tw_n": "int64"})
    return df.sort_values("event_id", ignore_index=True)


def _grouped_quantile_by_flag(sf_dir: str):
    """Bound-style oracle for the grouped t-digest quantile: the group keys
    and the EXACT per-group nearest-median (computed by the distributed
    Quantile analyzer: one shared scan serves every group's where-filter)
    hash-match the SQL, and the digest estimate is asserted within 1% of
    exact per group."""
    import hooqu_ray as hq
    from hooqu_ray.pipelines.relational import grouped_approx_quantile
    from hooqu_ray.runner import do_analysis_run

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    approx = grouped_approx_quantile(ds, "l_returnflag", "l_extendedprice", 0.5)
    approx_df = approx.to_pandas()
    groups = sorted(approx_df["l_returnflag"])
    analyzers = [
        hq.Quantile("l_extendedprice", 0.5, where=f"l_returnflag == '{g}'")
        for g in groups
    ]
    ctx = do_analysis_run(ds, analyzers)  # one shared scan, 3 states
    rows = []
    for g, a in zip(groups, analyzers):
        exact = float(ctx.metric_map[a].value.get())
        est = float(approx_df.loc[approx_df["l_returnflag"] == g, "q_value"].iloc[0])
        rows.append((g, round(exact, 6), abs(est - exact) / abs(exact) <= 0.01))
    return pa.table(
        {
            "l_returnflag": pa.array([r[0] for r in rows]),
            "q50_exact": pa.array([r[1] for r in rows], pa.float64()),
            "within_tol": pa.array([r[2] for r in rows], pa.bool_()),
        }
    )


def _embedding_dup_pairs(sf_dir: str):
    """Embedding-cosine near-dup over a deterministically planted corpus:
    every vec_id % 10 == 0 vector is re-inserted scaled x2 (same direction
    -> cosine exactly 1.0, and sign(H.v) is scale-invariant so hyperplane
    LSH puts each copy in its original's bucket — recall is 1.0 by
    construction, not luck).  The synthetic table itself has max pairwise
    cosine ~0.51, so at threshold 0.99 the emitted set equals the planted
    pairs and hash-matches the SQL all-pairs self-join exactly."""
    import numpy as np
    import pyarrow.compute as pc

    from hooqu_ray.pipelines.dedup import embedding_cosine_pairs
    from hooqu_ray.util import embedding_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(ids % 10 == 0)
        sub = t.take(pa.array(sel, pa.int64()))
        m = embedding_matrix(sub.column("embedding")) * 2.0
        dim = m.shape[1] if len(m) else 0
        offsets = pa.array(np.arange(len(sub) + 1, dtype=np.int32) * dim)
        values = pa.array(m.astype(np.float32).ravel(), pa.float32())
        emb = pa.ListArray.from_arrays(offsets, values)
        return pa.table(
            {"vec_id": pa.array(ids[sel] + 100000, pa.int64()),
             "embedding": emb.cast(t.schema.field("embedding").type)}
        )

    planted = ds.map_batches(plant, batch_format="pyarrow")
    pairs = embedding_cosine_pairs(ds.union(planted), threshold=0.99)
    tbl = pairs.to_pandas()
    tbl = tbl[tbl["id_a"].notna() & tbl["id_b"].notna()]  # drop flag rows
    a = tbl["id_a"].to_numpy(dtype=np.int64)
    b = tbl["id_b"].to_numpy(dtype=np.int64)
    import pandas as pd

    out = pd.DataFrame(
        {"id_a": np.minimum(a, b), "id_b": np.maximum(a, b)}
    ).drop_duplicates()
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


def _profile_events(sf_dir: str):
    """Single-scan column profiler over events: exact stats (completeness,
    min/max/mean/std, string lengths) hash-match the SQL per column; the
    HLL distinct estimate is asserted within 5% of the exact distributed
    count (bound-oracle pattern, cf. _approx_distinct_users)."""
    import hooqu_ray as hq
    from hooqu_ray.profiler import profile
    from hooqu_ray.runner import do_analysis_run

    cols = ["event_id", "event_type", "props", "user_id", "value"]
    ds = _read(sf_dir, "events", cols)
    prof = profile(ds, cols).to_pandas()
    exact_as = {c: hq.CountDistinct([c]) for c in cols}
    ctx = do_analysis_run(ds, list(exact_as.values()))
    distinct_ok = []
    for c in prof["column"]:
        exact = float(ctx.metric_map[exact_as[c]].value.get())
        est = float(prof.loc[prof["column"] == c, "approx_distinct"].iloc[0])
        distinct_ok.append(abs(est - exact) / exact <= 0.05)
    out = prof[["column", "completeness", "min", "max", "mean", "std",
                "min_len", "max_len"]].copy()
    for c in ("completeness", "min", "max", "mean", "std"):
        out[c] = out[c].round(6)
    out["distinct_ok"] = distinct_ok
    return out.sort_values("column", ignore_index=True)


def _top50_user_ids(sf_dir: str):
    """Top-50 users by total value (ties by ascending user_id) via the
    skew-safe tree fold.  Sums are rounded to 6 decimals BEFORE ranking —
    the engine folds per-block partials while the oracle streams one sum, so
    last-ulp float differences must not flip the rank-50 boundary (repo
    convention: 6-decimal rounding on both sides of any compared aggregate)."""
    from hooqu_ray.functions.shuffle import tree_group_sum

    ds = _read(sf_dir, "events", ["user_id", "value"])
    sums = tree_group_sum(ds, "user_id", ["value"],
                          drop_null_keys=False).to_pandas()
    sums["value"] = sums["value"].round(6)
    sums = sums.sort_values(
        ["value", "user_id"], ascending=[False, True], kind="mergesort"
    )
    return sums["user_id"].head(50).to_numpy()


def _semi_join_top_users(sf_dir: str):
    from hooqu_ray.functions.joins import semi_join

    top = pa.array(_top50_user_ids(sf_dir), pa.int64())
    ds = _read(sf_dir, "events", ["event_id", "user_id"])
    return semi_join(ds, top, "user_id")


def _anti_join_top_users(sf_dir: str):
    from hooqu_ray.functions.joins import anti_join

    top = pa.array(_top50_user_ids(sf_dir), pa.int64())
    ds = _read(sf_dir, "events", ["event_id", "user_id"])
    return anti_join(ds, top, "user_id")


def _ref_integrity(sf_dir: str):
    """Fraction of events whose user_id exists in customer.c_custkey —
    cross-table referential-integrity metric (broadcast key set, one
    streaming counting pass, no shuffle)."""
    from hooqu_ray.functions.joins import referential_integrity

    child = _read(sf_dir, "events", ["user_id"])
    parent = _read(sf_dir, "customer", ["c_custkey"])
    frac = referential_integrity(child, parent, "user_id", "c_custkey")
    return pa.table({"ref_ok": pa.array([round(frac, 6)], pa.float64())})


def _top_bigrams_documents(sf_dir: str):
    from hooqu_ray.pipelines.textstats import top_ngrams

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return top_ngrams(ds, n=2, k=20)


def _line_dedup_documents(sf_dir: str):
    """Corpus-wide first-occurrence line dedup.  The synthetic documents are
    single-line, so the gate splits on spaces (delimiter=' ', min 4 chars)
    to exercise the winner/rebuild machinery on real duplication; the
    default operator splits on newlines (C4/CCNet style)."""
    from hooqu_ray.pipelines.dedup import line_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return line_dedup(ds, min_line_chars=4, delimiter=" ")


def _snapshot_diff_events(sf_dir: str):
    """Delta detection old vs new snapshot (both derived deterministically
    from events: new drops id%13 rows, doubles value on id%7 rows, adds
    shifted id%17 rows) — one bucketed exchange of (key, content-hash)
    rows, never the payload."""
    import pyarrow.compute as pc

    from hooqu_ray.pipelines.dedup import snapshot_diff

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def mk_new(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("event_id"))
        keep = ids % 13 != 0
        t2 = t.filter(pa.array(keep))
        ids2 = np.asarray(t2.column("event_id"))
        vals = np.asarray(t2.column("value"), dtype=np.float64)
        vals = np.where(ids2 % 7 == 0, vals * 2.0, vals)
        base = pa.table(
            {
                "event_id": t2.column("event_id"),
                "event_type": t2.column("event_type"),
                "value": pa.array(vals, pa.float64()),
            }
        )
        add_mask = ids % 17 == 0
        t3 = t.filter(pa.array(add_mask))
        added = pa.table(
            {
                "event_id": pc.add(
                    pc.cast(t3.column("event_id"), pa.int64()),
                    pa.scalar(1_000_000, pa.int64()),
                ),
                "event_type": t3.column("event_type"),
                "value": pc.cast(t3.column("value"), pa.float64()),
            }
        )
        return pa.concat_tables([base, added])

    old = ds.map_batches(
        lambda t: pa.table(
            {
                "event_id": pc.cast(t.column("event_id"), pa.int64()),
                "event_type": t.column("event_type"),
                "value": pc.cast(t.column("value"), pa.float64()),
            }
        ),
        batch_format="pyarrow",
    )
    new = ds.map_batches(mk_new, batch_format="pyarrow")
    df = snapshot_diff(old, new, "event_id",
                       ["event_type", "value"]).to_pandas()
    df = df.rename(columns={"key": "event_id"})
    df["event_id"] = df["event_id"].astype("int64")
    return df.sort_values("event_id", ignore_index=True)


_HOUR_US = 3_600_000_000


def _hopping_window_events(sf_dir: str):
    """Overlapping 2h windows hopping 1h per event_type: vectorized window
    enumeration + per-block pre-aggregation before the one groupby."""
    from hooqu_ray.pipelines.windows import hopping_window_agg

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    df = hopping_window_agg(
        ds, "event_type", "ts", "value", 2 * _HOUR_US, _HOUR_US
    ).to_pandas()
    df["n"] = df["n"].astype("int64")
    df["avg_value"] = df["avg_value"].round(6)
    return df.sort_values(["event_type", "w_start"], ignore_index=True)


def _row_number_events(sf_dir: str):
    """Exact global row_number: one range exchange whose folds number
    their rows from the row count of the earlier ranges."""
    from hooqu_ray.pipelines.relational import global_row_number

    ds = _read(sf_dir, "events", ["event_id", "value"])
    df = global_row_number(ds, "value", "event_id").to_pandas()
    df["event_id"] = df["event_id"].astype("int64")
    df["row_number"] = df["row_number"].astype("int64")
    df["value"] = df["value"].round(6)
    return df.sort_values("row_number", ignore_index=True)


def _distinct_users_per_type(sf_dir: str):
    """Exact grouped count-distinct: per-block distinct-pair combiner +
    two slim shuffles."""
    from hooqu_ray.pipelines.relational import grouped_count_distinct

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    df = grouped_count_distinct(ds, "event_type", "user_id").to_pandas()
    df["n_distinct"] = df["n_distinct"].astype("int64")
    return df.sort_values("event_type", ignore_index=True)


def _funnel_counts_events(sf_dir: str):
    """Ordered conversion funnel (first-touch, strict ts ordering) over a
    derived step column (event_type × value>100) so each stage genuinely
    narrows: 121 → 82 → 47 users at sf0.01."""
    import pyarrow.compute as pc

    from hooqu_ray.pipelines.relational import funnel_counts

    def derive(t: pa.Table) -> pa.Table:
        hi = pc.if_else(
            pc.greater(t.column("value"), 100.0),
            pa.scalar("_hi"), pa.scalar("_lo"),
        )
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "ts": t.column("ts"),
                "step": pc.binary_join_element_wise(
                    pc.cast(t.column("event_type"), pa.string()), hi, ""
                ),
            }
        )

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type", "value"])
    ev = ds.map_batches(derive, batch_format="pyarrow")
    return funnel_counts(
        ev, "user_id", "ts", "step", ["signup_hi", "click_hi", "purchase_hi"]
    )


def _pivot_user_event_counts(sf_dir: str):
    """Crosstab: per-user counts by event_type (wide int64 matrix via
    per-block bincount combiner + one groupby(user).sum shuffle)."""
    from hooqu_ray.pipelines.relational import pivot_counts

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    df = pivot_counts(ds, "user_id", "event_type").to_pandas()
    df["user_id"] = df["user_id"].astype("int64")
    for c in df.columns:
        if c != "user_id":
            df[c] = df[c].astype("int64")
    return df.sort_values("user_id", ignore_index=True)


def _top_terms_documents(sf_dir: str):
    """Per-doc top-3 characteristic terms: distributed document frequency
    (combiner + one vocab-sized shuffle) broadcast into a per-batch
    (tf DESC, df ASC, term ASC) integer-exact ranking."""
    from hooqu_ray.pipelines.textstats import top_terms

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = top_terms(ds, k=3).to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    df["tf"] = df["tf"].astype("int64")
    df["df"] = df["df"].astype("int64")
    return df.sort_values(
        ["doc_id", "tf", "df", "term"], ascending=[True, False, True, True],
        ignore_index=True,
    )


def _normalize_text_documents(sf_dir: str):
    """Canonical normalization (NFC, lower, \\s+ collapse, trim) — byte-
    equal to the SQL expression per doc."""
    from hooqu_ray.pipelines.textstats import normalize_text

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = normalize_text(ds).to_pandas()[["doc_id", "norm_text"]]
    return df.sort_values("doc_id", ignore_index=True)


def _value_deciles_events(sf_dir: str):
    """Quality-decile bucketing: 9 exact quantile breakpoints from ONE
    shared analyzer scan, broadcast, vectorized searchsorted assignment —
    bucket = count(breakpoints <= value), SQL-exact."""
    from hooqu_ray.pipelines.relational import quantile_buckets

    ds = _read(sf_dir, "events", ["event_id", "value"])
    df = quantile_buckets(
        ds, "value", n_buckets=10, keep_cols=["event_id"]
    ).to_pandas()
    df["event_id"] = df["event_id"].astype("int64")
    df["bucket"] = df["bucket"].astype("int64")
    return df.sort_values("event_id", ignore_index=True)


def _bloom_new_events(sf_dir: str):
    """Bloom-filter incremental dedup: events with event_id % 5 == 0 are
    the NEW shard, the rest the existing corpus; keep new rows whose
    value is absent from the corpus's Bloom bitmap (float keys hash by
    bit pattern).  Bloom has no false negatives, so the kept set ⊆ the
    exact SQL NOT IN set; at this scale (2^22 bits vs ~10^4 keys) the
    deterministic FP probability is ~1e-8 per probe, so the result is
    hash-EXACT vs SQL (verified at sf0.001 and sf0.01)."""
    from hooqu_ray.pipelines.bloom import bloom_new_rows

    def shard(t: pa.Table, keep_new: bool) -> pa.Table:
        mod = np.asarray(t.column("event_id")) % 5 == 0
        return t.filter(pa.array(mod if keep_new else ~mod))

    ds = _read(sf_dir, "events", ["event_id", "value"])
    corpus = ds.map_batches(
        lambda t: shard(t, False), batch_format="pyarrow"
    )
    new = ds.map_batches(lambda t: shard(t, True), batch_format="pyarrow")
    out = bloom_new_rows(new, corpus, "value").to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["value"] = out["value"].round(6)
    return out.sort_values("event_id", ignore_index=True)


def _reservoir_sample_events(sf_dir: str):
    """Deterministic 5-per-event_type sample by md5 hash rank — integer-
    exact SQL re-derivation via row_number() over the same md5 expression."""
    from hooqu_ray.pipelines.relational import reservoir_sample

    ds = _read(sf_dir, "events", ["event_id", "event_type", "user_id"])
    out = reservoir_sample(ds, "event_type", "event_id", 5,
                           extra_cols=("user_id",))
    df = out.to_pandas()
    df = df[["event_type", "event_id", "user_id"]]
    df["event_id"] = df["event_id"].astype("int64")
    df["user_id"] = df["user_id"].astype("int64")
    return df.sort_values(["event_type", "event_id"], ignore_index=True)


def _hash_join_orders_customer(sf_dir: str):
    """General distributed bucketed hash join (both sides shuffle once by
    key-hash bucket; local vectorized merge per bucket) — orders × customer
    on custkey, the two-large-tables exchange join enrich_join can't do."""
    from hooqu_ray.functions.joins import hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    df = hash_join(
        orders, cust, on="o_custkey", right_on="c_custkey", how="inner",
    ).to_pandas()
    df["c_acctbal"] = df["c_acctbal"].round(6)
    df["o_orderkey"] = df["o_orderkey"].astype("int64")
    df["o_custkey"] = df["o_custkey"].astype("int64")
    return df.sort_values("o_orderkey", ignore_index=True)


def _conversation_features(sf_dir: str):
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return tp.conversation_features(tp.transcripts_from_documents(docs))


def _validate_conversations_q(sf_dir: str):
    """Conversation schema-validation report.  The synthetic transcripts
    are uniformly well-formed, so deterministic corruption is injected on
    BOTH sides to exercise every flag: drop turn 0 where doc_id%5=0
    (breaks starts_with_user + dense_index), drop turn 2 where doc_id%11=0
    (breaks dense_index mid-conversation), blank turn 1's text where
    doc_id%7=0 (sets has_empty_text)."""
    import numpy as np

    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    tr = tp.transcripts_from_documents(docs).map_batches(
        _corrupt_transcripts, batch_format="pyarrow")
    return tp.validate_conversations(tr)


def _filter_conversations_q(sf_dir: str):
    """Conversation-granularity keep/drop report.  Same deterministic
    corruption as ``_validate_conversations_q`` so every reason code can
    fire: dropped turn 0 (doc_id%5=0 → no_user_start), dropped turn 2
    (doc_id%11=0 → sparse_index), blanked turn 1 (doc_id%7=0 →
    empty_text); one-turn conversations → too_few_turns."""
    import numpy as np

    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    tr = tp.transcripts_from_documents(docs).map_batches(
        _corrupt_transcripts, batch_format="pyarrow")
    return tp.conversation_filter_report(tr)


def _truncate_conversations(sf_dir: str):
    """Context-window truncation over the deterministic transcript table:
    keep each conversation's maximal turn SUFFIX fitting a 96-token budget
    (exact SQL: descending running SUM over re-derived 12-word chunks)."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = tp.truncate_conversations(tp.transcripts_from_documents(docs), 96)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
                "role": t.column("role"),
                "text": t.column("text"),
                "suffix_tokens": t.column("suffix_tokens"),
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


def _boilerplate_turns(sf_dir: str):
    """Cross-conversation boilerplate removal over the deterministic
    transcript table: drop every turn whose exact text (>= 10 chars)
    appears in >= 2 distinct conversations."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = tp.drop_boilerplate_turns(
        tp.transcripts_from_documents(docs), min_convs=2)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
                "role": t.column("role"),
                "text": t.column("text"),
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


def _merge_turns(sf_dir: str):
    """Alternation normalization: merge consecutive same-role turns.  The
    synthetic transcripts alternate strictly, so roles are re-derived as
    ``turn_idx % 3`` (user, assistant, assistant, ...) on BOTH sides to
    exercise real multi-turn runs."""
    import numpy as np

    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def reroll(t: pa.Table) -> pa.Table:
        mod = np.asarray(t.column("turn_idx"), dtype=np.int64) % 3
        role = pa.array(np.where(mod == 0, "user", "assistant"), pa.string())
        return t.set_column(t.schema.get_field_index("role"), "role", role)

    tr = tp.transcripts_from_documents(docs).map_batches(
        reroll, batch_format="pyarrow")
    out = tp.merge_consecutive_turns(tr, ts_col=None)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
                "role": t.column("role"),
                "text": t.column("text"),
                "n_merged": t.column("n_merged"),
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


def _training_examples(sf_dir: str):
    """SFT example extraction: one (prompt, target) pair per assistant turn
    with budget-bounded preceding context (48 tokens incl. the target)."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return tp.extract_training_examples(
        tp.transcripts_from_documents(docs), 48)


def _dedup_conversations(sf_dir: str):
    """Whole-conversation exact dedup.  The corpus has no natural duplicate
    texts, so duplicates are injected deterministically on BOTH sides:
    documents with ``doc_id % 7 = 0`` are re-added under ``doc_id + 10^7``,
    producing conversations with identical (turn_idx, text) sequences whose
    lexically-minimum conv id (the original) must win."""
    import numpy as np

    from hooqu_ray.pipelines import transcripts as tp

    # consumed four times (union of two branches, then partials + filter
    # passes) — materialize the tiny input once instead of re-reading
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).materialize()

    def dup_shard(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        sub = t.filter(pa.array(ids % 7 == 0))
        return sub.set_column(
            sub.schema.get_field_index("doc_id"), "doc_id",
            pc.add(sub.column("doc_id"), pa.scalar(10_000_000)))

    both = docs.union(docs.map_batches(dup_shard, batch_format="pyarrow"))
    out = tp.dedup_conversations(tp.transcripts_from_documents(both))

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
                "role": t.column("role"),
                "text": t.column("text"),
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


def _near_dup_conversations(sf_dir: str):
    """Conversation-granularity near-dup: turns assemble into one text per
    conversation (``conversation_texts``), then the SAME high-recall LSH +
    exact word-3-gram Jaccard pipeline used for documents runs over them.
    Joining chunks with a whitespace separator preserves the original word
    sequence, so the oracle is the document all-pairs Jaccard self-join
    with conv-numbered ids."""
    from hooqu_ray.pipelines import transcripts as tp
    from hooqu_ray.pipelines.dedup import minhash_lsh_pairs, verify_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    ct = tp.conversation_texts(tp.transcripts_from_documents(docs))

    def addnum(t: pa.Table) -> pa.Table:
        num = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 99),
                      pa.int64())
        return t.append_column("conv_num", num)

    ct = ct.map_batches(addnum, batch_format="pyarrow").materialize()
    cands = minhash_lsh_pairs(ct, text_col="text", id_col="conv_num",
                              num_perm=128, bands=64, threshold=0.0)
    ver = verify_pairs(ct, cands, text_col="text", id_col="conv_num",
                       threshold=0.5).to_pandas()
    ver["jaccard"] = ver["jaccard"].round(6)
    ver["id_a"] = ver["id_a"].astype("int64")
    ver["id_b"] = ver["id_b"].astype("int64")
    return ver.sort_values(["id_a", "id_b"], ignore_index=True)


def _tool_usage(sf_dir: str):
    """Per-conversation tool-usage stats.  The synthetic transcripts carry a
    null tool everywhere, so tools are derived deterministically on BOTH
    sides: assistant turns get 'search' when turn_idx % 3 == 1 and
    'python' when turn_idx % 3 == 2."""
    import numpy as np

    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def derive_tool(t: pa.Table) -> pa.Table:
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        role = t.column("role").to_numpy(zero_copy_only=False)
        mod = idx % 3
        tool = np.where(mod == 1, "search",
                        np.where(mod == 2, "python", None))
        tool = np.where(role == "assistant", tool, None)
        return t.set_column(
            t.schema.get_field_index("tool"), "tool",
            pa.array(tool.tolist(), pa.string()))

    tr = tp.transcripts_from_documents(docs).map_batches(
        derive_tool, batch_format="pyarrow")
    return tp.tool_usage_stats(tr)


def _pii_stats(sf_dir: str):
    """Per-conversation PII exposure report.  The synthetic transcripts are
    clean, so PII is injected deterministically on BOTH sides: turns with
    turn_idx % 5 == 1 gain ' contact user<doc_id>@example.com', turns with
    turn_idx % 11 == 3 gain ' card 4000 1234 5678 9010'; URL hits come from
    the raw document text.  Engine counts via RE2 (pyarrow
    count_substring_regex), oracle via DuckDB regexp_extract_all — the SAME
    pattern strings, both RE2."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    tr = tp.transcripts_from_documents(docs).map_batches(
        _pii_inject, batch_format="pyarrow")
    return tp.pii_stats(tr)


def _toxicity_stats(sf_dir: str):
    """Per-conversation toxicity exposure report.  The synthetic corpus is
    clean, so toxic terms are injected deterministically on BOTH sides:
    turns with turn_idx % 7 == 2 gain ' utterly frakking broken', turns
    with turn_idx % 13 == 5 gain ' you scuzzbucket'.  Engine counts via
    RE2 (?i) pattern, oracle the SAME string in DuckDB."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def inject(t: pa.Table) -> pa.Table:
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        text = t.column("text").to_numpy(zero_copy_only=False).astype(object)
        m7 = idx % 7 == 2
        if m7.any():
            text[m7] = text[m7] + " utterly frakking broken"
        m13 = idx % 13 == 5
        if m13.any():
            text[m13] = text[m13] + " you scuzzbucket"
        return t.set_column(
            t.schema.get_field_index("text"), "text",
            pa.array(text, pa.string()))

    tr = tp.transcripts_from_documents(docs).map_batches(
        inject, batch_format="pyarrow")
    return tp.toxicity_stats(tr)


def _conv_majority_lang(sf_dir: str):
    """Bound-style oracle (model-based op): one majority row per
    conversation (n_convs hash-matches SQL count(*)), every majority
    language from the model's closed set, and the pigeonhole invariant
    3 × n_major_turns >= n_turns per conversation (3 languages)."""
    from hooqu_ray.pipelines import transcripts as tp
    from hooqu_ray.stages.models import TrigramLangID

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    tr = tp.transcripts_from_documents(docs)
    top = tp.conversation_majority_lang(tr).to_pandas()
    counts = tp.transcripts_from_documents(docs).map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("conv_id")], names=["conv_id"]),
        batch_format="pyarrow",
    ).groupby("conv_id").count().to_pandas()
    top_df = top.merge(
        counts.rename(columns={"count()": "n_turns"}), on="conv_id")
    langs = set(TrigramLangID().langs)
    ok_pigeon = bool(
        (3 * top_df["n_major_turns"] >= top_df["n_turns"]).all())
    return pa.table({
        "n_convs": pa.array([len(top)], pa.int64()),
        "langs_valid": pa.array(
            [all(p in langs for p in top_df["major_lang"])], pa.bool_()),
        "pigeonhole_ok": pa.array([ok_pigeon], pa.bool_()),
    })


def _turn_gap_stats(sf_dir: str):
    """Per-conversation inter-turn gap stats.  The synthetic timestamps
    are a uniform 30 s grid, so deterministic jitter (+(i*i) % 17 seconds)
    is injected on BOTH sides to make the deltas non-trivial."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def jitter(t: pa.Table) -> pa.Table:
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        us = t.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.int64)
        us = us + ((idx * idx) % 17) * 1_000_000
        return t.set_column(
            t.schema.get_field_index("ts"), "ts",
            pa.array(us).cast(pa.timestamp("us")))

    tr = tp.transcripts_from_documents(docs).map_batches(
        jitter, batch_format="pyarrow")
    return tp.turn_gap_stats(tr)


def _fork_groups(sf_dir: str):
    """Retry-fork detection.  Forked replicas are injected on BOTH sides:
    every doc_id % 5 == 0 conversation gets a copy at conv id +2*10^7
    whose turns from idx 2 on carry a ' fork-tail' marker — identical
    2-turn prefix, diverging tail."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    tr = tp.transcripts_from_documents(docs).map_batches(
        _inject_forks, batch_format="pyarrow")
    out = tp.conversation_fork_groups(tr, 2)
    df = out.to_pandas()
    return df.sort_values("conv_id", ignore_index=True)


def _preference_pairs(sf_dir: str):
    """DPO-style chosen/rejected pairs over the retry-fork groups: same
    forked-replica injection as ``_fork_groups`` (doc_id % 5 == 0 gets a
    copy at +2*10^7 with ' fork-tail' appended from turn 2 on), scored by
    divergent-tail assistant char length — the replica outscores the base
    exactly when the tail has an assistant turn."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    tr = tp.transcripts_from_documents(docs).map_batches(
        _inject_forks, batch_format="pyarrow")
    out = tp.preference_pairs(tr, 2)
    df = out.to_pandas()
    return df.sort_values("rejected_conv", ignore_index=True)


def _loop_stats(sf_dir: str):
    """Stuck-agent loop detection.  Loops are injected on BOTH sides:
    every doc_id % 7 == 3 conversation gets its assistant turns at
    i <= 5 overwritten with the constant 'RETRY output' — a run of up to
    3 identical consecutive assistant texts (i = 1, 3, 5)."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_loops(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                      pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        m = (doc % 7 == 3) & (idx % 2 == 1) & (idx <= 5)
        if not m.any():
            return t
        text = t.column("text").to_numpy(zero_copy_only=False).astype(
            object)
        text[m] = "RETRY output"
        return t.set_column(t.column_names.index("text"), "text",
                            pa.array(text, pa.string()))

    tr = tp.transcripts_from_documents(docs).map_batches(
        add_loops, batch_format="pyarrow")
    # via the fused report family (one-sort scaffold shared with the
    # other reports); row-identical to tp.assistant_loop_stats(tr, 2)
    out = tp.conversation_reports(tr, which="loop", min_run=2)["loop"]
    df = out.to_pandas()
    return df.sort_values("conv_id", ignore_index=True)


def _echo_stats(sf_dir: str):
    """Assistant-parroting report.  Echoes are injected on BOTH sides:
    every doc_id % 9 == 4 conversation gets turn 1's text overwritten
    with turn 0's (assistant echoing the opening user turn)."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_echoes(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                      pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        m = (doc % 9 == 4) & (idx == 1)
        if not m.any():
            return t
        conv = t.column("conv_id")
        zero = t.filter(pa.array(idx == 0))
        pos = pc.index_in(conv, value_set=zero.column("conv_id"))
        text = t.column("text").to_numpy(zero_copy_only=False).astype(
            object)
        t0 = zero.column("text").to_numpy(zero_copy_only=False)
        # index_in yields null where the lookup missed; a null here means
        # turn 0 landed in a different batch than its turn 1 (the whole-
        # conversation-block assumption broke) — fail loudly instead of
        # letting NaN→int64 produce a garbage index
        pos_np = np.asarray(pc.fill_null(pos, -1), dtype=np.int64)
        if (pos_np[m] < 0).any():
            raise AssertionError(
                "add_echoes: a conversation's turn 0 is not in the same "
                "batch as its turn 1 (batching no longer yields whole "
                "per-document blocks)")
        text[m] = t0[pos_np[m]]
        return t.set_column(t.column_names.index("text"), "text",
                            pa.array(text, pa.string()))

    tr = tp.transcripts_from_documents(docs).map_batches(
        add_echoes, batch_format="pyarrow")
    # via the fused report family; row-identical to tp.echo_stats(tr)
    out = tp.conversation_reports(tr, which="echo")["echo"]
    df = out.to_pandas()
    return df.sort_values("conv_id", ignore_index=True)


def _filter_pii_convs(sf_dir: str):
    """Conversation-level PII threshold filter: same injection as
    ``_pii_stats``; conversations with more than 2 total matches are
    dropped whole."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    tr = tp.transcripts_from_documents(docs).map_batches(
        _pii_inject, batch_format="pyarrow")
    out = tp.filter_pii_conversations(tr, 2)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
        })

    return out.map_batches(proj, batch_format="pyarrow").to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)


def _sample_conversations(sf_dir: str):
    """Reproducible 120-conversation subset by (md5 bucket, conv) rank."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = tp.sample_conversations(tp.transcripts_from_documents(docs), 120)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
        })

    return out.map_batches(proj, batch_format="pyarrow").to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)


def _fork_index_probe(sf_dir: str):
    """Incremental retry detection: index the base corpus's 2-turn
    prefixes, probe a NEW shard of (a) forked replicas (doc_id % 5 == 0
    at +2*10^7 — identical prefix, must match) and (b) fresh tasks
    (doc_id % 9 == 2 at +5*10^7 with ' fresh' appended to prefix turns —
    must not match unless that mutated prefix collides with some other
    original, which the SQL oracle models exactly)."""
    import shutil
    import tempfile

    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def news_only(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                      pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        text = t.column("text").to_numpy(zero_copy_only=False).astype(
            object)
        parts = []
        m = doc % 5 == 0
        if m.any():
            sub = t.filter(pa.array(m))
            conv = np.array([f"conv-{d + 20000000:08d}" for d in doc[m]],
                            dtype=object)
            stext = np.where(idx[m] >= 2, text[m] + " fork-tail", text[m])
            parts.append(pa.table({
                "conv_id": pa.array(conv, pa.string()),
                "turn_idx": sub.column("turn_idx"),
                "role": sub.column("role"),
                "text": pa.array(stext, pa.string()),
                "tool": sub.column("tool"),
                "ts": sub.column("ts"),
            }))
        f = doc % 9 == 2
        if f.any():
            sub = t.filter(pa.array(f))
            conv = np.array([f"conv-{d + 50000000:08d}" for d in doc[f]],
                            dtype=object)
            stext = np.where(idx[f] < 2, text[f] + " fresh", text[f])
            parts.append(pa.table({
                "conv_id": pa.array(conv, pa.string()),
                "turn_idx": sub.column("turn_idx"),
                "role": sub.column("role"),
                "text": pa.array(stext, pa.string()),
                "tool": sub.column("tool"),
                "ts": sub.column("ts"),
            }))
        if not parts:
            return t.slice(0, 0)
        return pa.concat_tables(parts)

    base = tp.transcripts_from_documents(docs)
    new = tp.transcripts_from_documents(docs).map_batches(
        news_only, batch_format="pyarrow")
    d = tempfile.mkdtemp(prefix="forkidx_", dir="/tmp")
    try:
        tp.fork_index_write(base, 2, d)
        out = tp.fork_index_probe(new, d, 2).to_pandas()
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return out.sort_values("conv_id", ignore_index=True)


def _diff_against_index(sf_dir: str):
    """Incremental snapshot diff: base corpus fingerprints persisted
    once, the mutated new snapshot (same mutation as
    ``_conversation_diff``) classified against the index — results must
    equal the direct two-corpus diff, so the oracle is the same SQL."""
    import shutil
    import tempfile

    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    base = tp.transcripts_from_documents(docs)
    new = tp.transcripts_from_documents(docs).map_batches(
        _diff_mutate, batch_format="pyarrow")
    d = tempfile.mkdtemp(prefix="convidx_", dir="/tmp")
    try:
        tp.conversation_index_write(base, d)
        out = tp.conversation_diff_against_index(new, d).to_pandas()
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return out.sort_values("conv_id", ignore_index=True)


def _diff_mutate(t: pa.Table) -> pa.Table:
    """Shared snapshot mutation (ONE definition) for the direct and
    index-based diff queries: doc_id % 13 == 3 removed, % 13 == 7 turn 1
    edited (' v2'), % 13 == 5 replicated at +4*10^7."""
    doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                  pa.int64()).to_numpy(zero_copy_only=False)
    t = t.filter(pa.array(doc % 13 != 3))
    doc = doc[doc % 13 != 3]
    idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
    edit = (doc % 13 == 7) & (idx == 1)
    if edit.any():
        text = t.column("text").to_numpy(zero_copy_only=False).astype(
            object)
        text[edit] = text[edit] + " v2"
        t = t.set_column(t.column_names.index("text"), "text",
                         pa.array(text, pa.string()))
    add = doc % 13 == 5
    if add.any():
        sub = t.filter(pa.array(add))
        conv = np.array([f"conv-{d + 40000000:08d}"
                         for d in doc[add]], dtype=object)
        rep = sub.set_column(
            sub.column_names.index("conv_id"), "conv_id",
            pa.array(conv, pa.string()))
        t = pa.concat_tables([t, rep])
    return t


def _turn_diff(sf_dir: str):
    """Turn-granular snapshot delta over the same shared mutation as the
    conversation-level diff."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    old = tp.transcripts_from_documents(docs)
    new = tp.transcripts_from_documents(docs).map_batches(
        _diff_mutate, batch_format="pyarrow")
    return tp.turn_diff(old, new).to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)


def _conversation_diff(sf_dir: str):
    """Cross-snapshot conversation delta.  new vs old, mutated
    deterministically on BOTH sides: doc_id % 13 == 3 conversations are
    absent from new (removed), % 13 == 7 get turn 1's text + ' v2'
    (changed), and % 13 == 5 gain a replica at +4*10^7 in new (added)."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    old = tp.transcripts_from_documents(docs)
    new = tp.transcripts_from_documents(docs).map_batches(
        _diff_mutate, batch_format="pyarrow")
    out = tp.conversation_diff(old, new)
    return out.to_pandas().sort_values("conv_id", ignore_index=True)


def _reindex_turns(sf_dir: str):
    """Dense re-indexing after the shared corruption drops turns: new
    turn_idx = 0-based rank of the surviving original index."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    tr = tp.transcripts_from_documents(docs).map_batches(
        _corrupt_transcripts, batch_format="pyarrow")
    out = tp.reindex_turns(tr)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
            "orig_turn_idx": pc.cast(t.column("orig_turn_idx"), pa.int64()),
            "role": t.column("role"),
            "text": t.column("text"),
        })

    return out.map_batches(proj, batch_format="pyarrow").to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)


def _split_by_fork(sf_dir: str):
    """Fork-aware leakage-safe split: same forked-replica injection as
    ``_fork_groups`` so fork groups exist; members must co-split under
    the group winner's md5 bucket."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    tr = tp.transcripts_from_documents(docs).map_batches(
        _inject_forks, batch_format="pyarrow")
    return tp.split_by_fork_group(tr, 2).to_pandas() \
        .sort_values("conv_id", ignore_index=True)


def _curate_pipeline(sf_dir: str):
    """Composed curation DAG (filter → conversation dedup → clip).  Every
    stage is non-identity: the validate-style corruption makes the filter
    drop conversations, duplicate replicas (doc_id % 10 == 6 at +3*10^7,
    IDENTICAL corrupted turns) make the dedup drop, and clip_tokens=8
    rewrites the 12-word turns."""
    import numpy as np

    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_dups(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                      pa.int64()).to_numpy(zero_copy_only=False)
        m = doc % 10 == 6
        if not m.any():
            return t
        sub = t.filter(pa.array(m))
        conv = np.array([f"conv-{d + 30000000:08d}" for d in doc[m]],
                        dtype=object)
        rep = sub.set_column(sub.column_names.index("conv_id"), "conv_id",
                             pa.array(conv, pa.string()))
        return pa.concat_tables([t, rep])

    tr = tp.transcripts_from_documents(docs) \
        .map_batches(_corrupt_transcripts, batch_format="pyarrow") \
        .map_batches(add_dups, batch_format="pyarrow")
    out = tp.curate_conversations(tr, clip_tokens=8)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
            "role": t.column("role"),
            "text": t.column("text"),
            "clipped": t.column("clipped"),
        })

    return out.map_batches(proj, batch_format="pyarrow").to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)


def _tool_transitions(sf_dir: str):
    """Tool-transition matrix.  Tool calls are injected on BOTH sides:
    every doc_id % 4 == 2 conversation's odd turns carry
    tool = 'tool-<i%3>'."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_tools(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                      pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        m = (doc % 4 == 2) & (idx % 2 == 1)
        tool = np.full(len(t), None, dtype=object)
        tool[m] = np.char.add("tool-", (idx[m] % 3).astype(str))
        return t.set_column(t.column_names.index("tool"), "tool",
                            pa.array(tool, pa.string()))

    tr = tp.transcripts_from_documents(docs).map_batches(
        add_tools, batch_format="pyarrow")
    # via the fused report family; row-identical to
    # tp.tool_transition_counts(tr)
    out = tp.conversation_reports(tr, which="tool_transitions")
    return out["tool_transitions"].to_pandas() \
        .sort_values(["tool_from", "tool_to"], ignore_index=True)


def _clip_turns(sf_dir: str):
    """Token-budget turn clipping: 12-word turns clipped to 8 tokens."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = tp.clip_turn_texts(tp.transcripts_from_documents(docs), 8)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
            "text": t.column("text"),
            "clipped": t.column("clipped"),
        })

    return out.map_batches(proj, batch_format="pyarrow").to_pandas() \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)


def _role_balance(sf_dir: str):
    """Role-balance profile; 'other' roles injected on both sides (every
    doc_id % 6 == 1 conversation's turn 1 becomes role='tool')."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def retool(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                      pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        m = (doc % 6 == 1) & (idx == 1)
        if not m.any():
            return t
        role = t.column("role").to_numpy(zero_copy_only=False).astype(
            object)
        role[m] = "tool"
        return t.set_column(t.column_names.index("role"), "role",
                            pa.array(role, pa.string()))

    tr = tp.transcripts_from_documents(docs).map_batches(
        retool, batch_format="pyarrow")
    # via the fused report family; row-identical to
    # tp.role_balance_stats(tr) on dense-index transcripts
    out = tp.conversation_reports(tr, which="role_balance")
    return out["role_balance"].to_pandas() \
        .sort_values("conv_id", ignore_index=True)


def _alternation_stats(sf_dir: str):
    """Per-conversation role-alternation report via the fused family.
    Corruption injected on BOTH sides: doc_id % 5 == 1 conversations get
    'tool' roles at turns 1-2 (an adjacent same-role pair), and
    doc_id % 11 == 6 conversations get a NULL role at turn 2 (its two
    pairs must not count as switches — the SQL null rule)."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def corrupt(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                      pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        role = t.column("role").to_numpy(zero_copy_only=False).astype(
            object)
        role[(doc % 5 == 1) & ((idx == 1) | (idx == 2))] = "tool"
        # null wins over tool on rows matching both (SQL CASE order)
        role[(doc % 11 == 6) & (idx == 2)] = None
        return t.set_column(t.column_names.index("role"), "role",
                            pa.array(role, pa.string()))

    tr = tp.transcripts_from_documents(docs).map_batches(
        corrupt, batch_format="pyarrow")
    out = tp.conversation_reports(tr, which="alternation")
    return out["alternation"].to_pandas() \
        .sort_values("conv_id", ignore_index=True)


def _split_by_gap_transcripts(sf_dir: str):
    """Inactivity-gap conversation splitting.  Gaps injected on BOTH
    sides: every doc_id % 4 == 2 conversation's turns at i >= 3 shift
    +2 h, so a 1-hour threshold opens exactly one sub-conversation
    boundary there (30 s everywhere else)."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def shift(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                      pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        ts = t.column("ts").to_numpy(zero_copy_only=False).copy()
        m = (doc % 4 == 2) & (idx >= 3)
        ts[m] += np.timedelta64(7200, "s")
        return t.set_column(t.column_names.index("ts"), "ts",
                            pa.array(ts, pa.timestamp("us")))

    tr = tp.transcripts_from_documents(docs).map_batches(
        shift, batch_format="pyarrow")
    df = tp.split_conversations_by_gap(tr, 3600.0).to_pandas()
    df = df[["conv_id", "turn_idx", "sub_conv"]]
    df["turn_idx"] = df["turn_idx"].astype("int64")
    return df.sort_values(["conv_id", "turn_idx"], ignore_index=True)


def _cross_source_overlap_documents(sf_dir: str):
    """Pairwise shared-distinct-5-gram counts between sources (string
    order a < b) — engine counts by 63-bit gram hash, oracle by gram
    string (the documented ~2^-63 collision class)."""
    from hooqu_ray.pipelines.decontam import cross_source_overlap

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    df = cross_source_overlap(ds, n=5).to_pandas()
    df["n_shared"] = df["n_shared"].astype("int64")
    return df.sort_values(["source_a", "source_b"], ignore_index=True)


def _grouped_profile_documents(sf_dir: str):
    """Per-source report card over (lang, n_chars, text): row / null /
    exact-distinct counts per (source, column) — the grouped drill-down
    of the single-scan profiler."""
    from hooqu_ray.profiler import grouped_profile

    ds = _read(sf_dir, "documents", ["source", "lang", "n_chars", "text"])
    df = grouped_profile(ds, "source", ["lang", "n_chars", "text"]) \
        .to_pandas()
    for c in ("n_rows", "n_null", "n_distinct"):
        df[c] = df[c].astype("int64")
    return df.sort_values(["source", "col_name"], ignore_index=True)


def _pack_sft(sf_dir: str):
    """Loss-mask packing plan over the extracted SFT examples: 48-token
    windows packed into 256-token sequences, target spans recorded."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    ex = tp.extract_training_examples(tp.transcripts_from_documents(docs), 48)

    def addid(t: pa.Table) -> pa.Table:
        num = pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 99),
                      pa.int64())
        ex_id = pc.add(pc.multiply(num, pa.scalar(100_000, pa.int64())),
                       pc.cast(t.column("turn_idx"), pa.int64()))
        return t.append_column("example_id", ex_id)

    return tp.pack_sft_examples(
        ex.map_batches(addid, batch_format="pyarrow"), 256)


def _dedup_turns(sf_dir: str):
    """Within-conversation turn dedup.  Turns with turn_idx % 4 == 1 are
    re-injected at turn_idx + 1000 on BOTH sides (same conv, same text —
    the retried-tool-call shape); the first occurrence must win."""
    import numpy as np

    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    tr = tp.transcripts_from_documents(docs)

    def inject(t: pa.Table) -> pa.Table:
        idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
        sub = t.filter(pa.array(idx % 4 == 1))
        dup = sub.set_column(
            sub.schema.get_field_index("turn_idx"), "turn_idx",
            pc.cast(pc.add(sub.column("turn_idx"), pa.scalar(1000)),
                    pa.int32()))
        return pa.concat_tables([t, dup])

    out = tp.dedup_turns(tr.map_batches(inject, batch_format="pyarrow"))

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
                "role": t.column("role"),
                "text": t.column("text"),
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


def _sft_pipeline(sf_dir: str):
    """Composed end-to-end SFT preparation: boilerplate removal (>= 2
    convs) -> 96-token context truncation -> 48-token example extraction.
    Every stage changes the output at sf0.01, so the oracle exercises the
    composition, not three identities."""
    from hooqu_ray.pipelines import transcripts as tp

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return tp.sft_prepare(tp.transcripts_from_documents(docs))


# ---------------------------------------------------------------------------
# oracle SQL
# ---------------------------------------------------------------------------

# word 5-gram list per document (tokens = nonempty \s+ splits, joined with a
# single space — exactly the engine's utf8_split_whitespace tokenization)
_NGRAM_SQL = (
    "WITH toks AS (SELECT doc_id, list_filter("
    "regexp_split_to_array(COALESCE(text, ''), '\\s+'), t -> t <> '') AS w "
    "FROM documents), "
    f"ng AS (SELECT doc_id, [array_to_string(w[i:i+{_DECONTAM_N - 1}], ' ') "
    f"FOR i IN generate_series(1, len(w) - {_DECONTAM_N - 1})] AS gs FROM toks)"
)


# domain-LLR score per document (UNROUNDED, shared by the llr and
# importance-sample oracles); mirrors pipelines/scoring.domain_llr_score
_LLR_SQL_CTE = (
    "WITH t AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents), "
    "tok AS (SELECT doc_id, UNNEST(regexp_extract_all(text, '\\S+')) AS tok "
    "FROM t), "
    f"tgt AS (SELECT tok FROM tok WHERE doc_id % {_BENCH_MOD} = 0), "
    "nt AS (SELECT count(*) AS n FROM tgt), "
    "nr AS (SELECT count(*) AS n FROM tok), "
    "vocab AS (SELECT tok, count(*) AS ct FROM tgt GROUP BY tok "
    f"ORDER BY ct DESC, tok ASC LIMIT {_LLR_VOCAB}), "
    "vc AS (SELECT count(*) AS v FROM vocab), "
    "rawc AS (SELECT tok, count(*) AS cr FROM tok "
    "WHERE tok IN (SELECT tok FROM vocab) GROUP BY tok), "
    "lr AS (SELECT vocab.tok, ln((vocab.ct + 1.0) / (nt.n + vc.v)) "
    "- ln((COALESCE(rawc.cr, 0) + 1.0) / (nr.n + vc.v)) AS lr "
    "FROM vocab LEFT JOIN rawc USING (tok), nt, nr, vc), "
    "hits AS (SELECT tok.doc_id, count(*) AS n_iv, sum(lr.lr) AS s "
    "FROM tok JOIN lr USING (tok) GROUP BY tok.doc_id), "
    "tot AS (SELECT doc_id, count(*) AS n_tok FROM tok GROUP BY doc_id), "
    "score AS (SELECT d.doc_id, COALESCE(tot.n_tok, 0) AS n_tok, "
    "COALESCE(hits.n_iv, 0) AS n_iv, "
    "CASE WHEN COALESCE(hits.n_iv, 0) > 0 THEN hits.s / hits.n_iv "
    "ELSE 0.0 END AS llr "
    "FROM documents d LEFT JOIN tot USING (doc_id) "
    "LEFT JOIN hits USING (doc_id))"
)


def _stopword_sql_pattern() -> str:
    from hooqu_ray.stages.heuristics import STOPWORD_PATTERN

    return STOPWORD_PATTERN


_STOPWORD_SQL_PATTERN = _stopword_sql_pattern()


_NEAREST_Q_SQL = """
WITH s AS (SELECT {col} AS v FROM {table} WHERE {col} IS NOT NULL),
     n AS (SELECT count(*) AS c FROM s),
     i AS (SELECT CAST(floor({q} * (c - 1)) AS BIGINT) AS k0,
                  {q} * (c - 1) - floor({q} * (c - 1)) AS frac FROM n),
     kk AS (SELECT k0 + (CASE WHEN frac > 0.5 THEN 1
                              WHEN frac = 0.5 AND k0 % 2 = 1 THEN 1
                              ELSE 0 END) AS k FROM i),
     r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM s)
SELECT ROUND(v, 6) AS {name} FROM r, kk WHERE rn = k + 1
"""


def oracle_sql() -> dict[str, str]:
    from hooqu_ray import patterns as _pats

    # the SAME RE2 pattern strings the engine's pii_stats uses, single
    # quotes doubled for SQL literals (DuckDB regexp is RE2 too)
    email_pat = _pats.EMAIL.pattern.replace("'", "''")
    url_pat = _pats.URL.pattern.replace("'", "''")
    cc_pat = _pats.CREDITCARD_RE2.replace("'", "''")
    from hooqu_ray.stages import spec as _spec

    tox_pat = ("(?i)" + _spec.TOXIC_RE.pattern).replace("'", "''")
    from hooqu_ray.pipelines.filters import blocklist_pattern as _blp

    block_pat = _blp(_BLOCKLIST_TERMS).replace("'", "''")
    uniq_sql = (
        "WITH f AS (SELECT {cols}, count(*) AS cnt FROM {table} "
        "WHERE {notnull} GROUP BY {cols}) "
        "SELECT ROUND(CAST(sum(CASE WHEN cnt = 1 THEN 1 ELSE 0 END) AS DOUBLE) "
        "/ sum(cnt), 6) AS uniq FROM f"
    )
    d = {
        "size_lineitem": "SELECT ROUND(CAST(count(*) AS DOUBLE), 6) AS size FROM lineitem",
        "size_lineitem_filtered": (
            "SELECT ROUND(CAST(count(*) AS DOUBLE), 6) AS size FROM lineitem WHERE l_quantity > 25"
        ),
        "completeness_orders_custkey": (
            "SELECT ROUND(CAST(count(o_custkey) AS DOUBLE) / count(*), 6) AS completeness FROM orders"
        ),
        "compliance_discount_range": (
            "SELECT ROUND(avg(CASE WHEN l_discount >= 0.0 AND l_discount <= 0.1 "
            "THEN 1.0 ELSE 0.0 END), 6) AS compliance FROM lineitem"
        ),
        "mean_quantity": "SELECT ROUND(avg(l_quantity), 6) AS mean_qty FROM lineitem",
        "mean_price_filtered": (
            "SELECT ROUND(avg(l_extendedprice), 6) AS mean_price FROM lineitem WHERE l_quantity > 25"
        ),
        "min_extendedprice": "SELECT ROUND(min(l_extendedprice), 6) AS min_price FROM lineitem",
        "max_extendedprice": "SELECT ROUND(max(l_extendedprice), 6) AS max_price FROM lineitem",
        "sum_quantity": "SELECT ROUND(sum(l_quantity), 6) AS sum_qty FROM lineitem",
        "std_quantity": "SELECT ROUND(stddev_pop(l_quantity), 6) AS std_qty FROM lineitem",
        "corr_quantity_price": (
            "SELECT ROUND(corr(l_quantity, l_extendedprice), 6) AS corr_qp FROM lineitem"
        ),
        "quantile50_extendedprice": _NEAREST_Q_SQL.format(
            col="l_extendedprice", table="lineitem", q=0.5, name="q50"
        ),
        "quantile90_extendedprice": _NEAREST_Q_SQL.format(
            col="l_extendedprice", table="lineitem", q=0.9, name="q90"
        ),
        "min_length_text": (
            "SELECT ROUND(CAST(min(length(text)) AS DOUBLE), 6) AS min_len FROM documents"
        ),
        "max_length_text": (
            "SELECT ROUND(CAST(max(length(text)) AS DOUBLE), 6) AS max_len FROM documents"
        ),
        "pattern_error_events": (
            "SELECT ROUND(CAST(sum(CASE WHEN regexp_matches(event_type, '^err') "
            "THEN 1 ELSE 0 END) AS DOUBLE) / count(*), 6) AS frac FROM events"
        ),
        "uniqueness_orders_custkey": uniq_sql.format(
            cols="o_custkey", table="orders", notnull="o_custkey IS NOT NULL"
        ),
        "uniqueness_lineitem_pk": uniq_sql.format(
            cols="l_orderkey, l_linenumber",
            table="lineitem",
            notnull="l_orderkey IS NOT NULL OR l_linenumber IS NOT NULL",
        ),
        "distinctness_event_type": (
            "SELECT ROUND(CAST(count(DISTINCT event_type) AS DOUBLE) / count(*), 6) "
            "AS distinctness FROM events WHERE event_type IS NOT NULL"
        ),
        "count_distinct_users": (
            "SELECT ROUND(CAST(count(DISTINCT user_id) AS DOUBLE), 6) AS n_distinct "
            "FROM events WHERE user_id IS NOT NULL"
        ),
        "entropy_returnflag": (
            "WITH f AS (SELECT l_returnflag, count(*) AS cnt FROM lineitem "
            "WHERE l_returnflag IS NOT NULL GROUP BY l_returnflag), "
            "t AS (SELECT sum(cnt) AS n FROM f) "
            "SELECT ROUND(ln(n) - sum(cnt * ln(cnt)) / n, 6) AS entropy FROM f, t GROUP BY n"
        ),
        "mutual_info_flag_status": (
            "WITH j AS (SELECT l_returnflag AS x, l_linestatus AS y, count(*) AS c "
            "FROM lineitem WHERE l_returnflag IS NOT NULL OR l_linestatus IS NOT NULL "
            "GROUP BY x, y), n AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM j), "
            "mx AS (SELECT x, CAST(sum(c) AS DOUBLE) AS cx FROM j GROUP BY x), "
            "my AS (SELECT y, CAST(sum(c) AS DOUBLE) AS cy FROM j GROUP BY y) "
            "SELECT ROUND(sum((j.c / n.n) * ln((j.c * n.n) / (mx.cx * my.cy))), 6) AS mi "
            "FROM j JOIN mx ON j.x = mx.x JOIN my ON j.y = my.y CROSS JOIN n"
        ),
        # isodow: Monday=1..Sunday=7, so <=5 == pandas dayofweek < 5
        "temporal_where_mean": (
            "SELECT ROUND(avg(value), 6) AS mean_val FROM events "
            "WHERE isodow(ts) <= 5 AND ts >= TIMESTAMP '2024-01-10 06:30:00'"
        ),
        "temporal_dt_compliance": (
            "SELECT ROUND(CAST(sum(CASE WHEN hour(ts) < 12 THEN 1 ELSE 0 END) "
            "AS DOUBLE) / count(*), 6) AS frac FROM events"
        ),
        "str_where_mean": (
            "SELECT ROUND(avg(value), 6) AS mean_val2 FROM events "
            "WHERE event_type LIKE 'err%' OR event_type LIKE '%ick%'"
        ),
        "str_len_compliance": (
            "SELECT ROUND(CAST(sum(CASE WHEN length(event_type) <= 5 "
            "THEN 1 ELSE 0 END) AS DOUBLE) / count(*), 6) AS frac2 FROM events"
        ),
        "case_coalesce_compliance": (
            "SELECT ROUND(CAST(sum(CASE WHEN COALESCE(CASE WHEN l_discount > 0.05 "
            "THEN l_extendedprice * (1 - l_discount) ELSE NULL END, 0.0) > 20000 "
            "THEN 1 ELSE 0 END) AS DOUBLE) / count(*), 6) AS frac3 FROM lineitem"
        ),
        "schema_column_exists": (
            "SELECT CAST((SELECT count(*) FROM (DESCRIBE lineitem) "
            "WHERE column_name = 'l_quantity') AS DOUBLE) AS col_ok"
        ),
        "schema_dtype_numeric": (
            "SELECT CAST(CASE WHEN lower(typeof(l_quantity)) IN "
            "('tinyint','smallint','integer','bigint','hugeint','utinyint',"
            "'usmallint','uinteger','ubigint','float','double') "
            "OR lower(typeof(l_quantity)) LIKE 'decimal%' "
            "THEN 1.0 ELSE 0.0 END AS DOUBLE) AS dtype_ok "
            "FROM lineitem LIMIT 1"
        ),
        "schema_dtype_not_string": (
            "SELECT CAST(CASE WHEN lower(typeof(l_quantity)) = 'varchar' "
            "THEN 1.0 ELSE 0.0 END AS DOUBLE) AS is_str FROM lineitem LIMIT 1"
        ),
        "greatest_least_compliance": (
            "SELECT ROUND(CAST(sum(CASE WHEN "
            "greatest(l_tax, l_discount, 0.03) <= "
            "least(l_extendedprice / 400000 + 0.02, 0.07) "
            "THEN 1 ELSE 0 END) AS DOUBLE) / count(*), 6) AS frac4 "
            "FROM lineitem"
        ),
        "case_where_mean": (
            "SELECT ROUND(avg(value), 6) AS mean_val3 FROM events "
            "WHERE (CASE WHEN event_type = 'error' THEN -value ELSE value END) > 0"
        ),
        "unique_value_ratio_custkey": (
            "WITH f AS (SELECT o_custkey, count(*) AS cnt FROM orders "
            "WHERE o_custkey IS NOT NULL GROUP BY o_custkey) "
            "SELECT ROUND(CAST(sum(CASE WHEN cnt = 1 THEN 1 ELSE 0 END) AS DOUBLE) "
            "/ count(*), 6) AS uvr FROM f"
        ),
        "topk_events_by_value": (
            "SELECT event_id, ROUND(value, 6) AS value FROM events "
            "ORDER BY value DESC, event_id LIMIT 20"
        ),
        "groupby_event_type": (
            "SELECT event_type, count(*) AS n, ROUND(avg(value), 6) AS avg_value "
            "FROM events GROUP BY event_type"
        ),
        "dedup_events_user_type": (
            "SELECT user_id, event_type, min(event_id) AS event_id FROM events "
            "GROUP BY user_id, event_type"
        ),
        "exact_dedup_documents": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        "token_counts_documents": (
            "SELECT doc_id, CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) "
            "AS n_tokens, CAST(len(regexp_extract_all(text, "
            "'''(?:s|t|re|ve|m|ll|d)| ?\\p{L}+| ?\\p{N}+| ?[^\\s\\p{L}\\p{N}]+|\\s+'"
            ")) AS BIGINT) AS n_bpe_tokens FROM documents"
        ),
        "symbol_ratio_documents": (
            "SELECT doc_id, ROUND(CASE WHEN length(text) > 0 THEN "
            "CAST(len(regexp_extract_all(text, '[^0-9A-Za-z_\\s]')) AS DOUBLE) "
            "/ length(text) ELSE 0 END, 6) AS symbol_ratio FROM documents"
        ),
        "fingerprint_documents": "SELECT doc_id, md5(text) AS md5 FROM documents",
        "lang_counts_documents": "SELECT lang, count(*) AS n FROM documents GROUP BY lang",
        "repetition_stats_documents": (
            # within-doc repetition: dup line / char fractions, top word
            # share, dup word-2-gram fraction (Gopher-style quality metrics)
            "WITH t AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents), "
            "ln AS (SELECT doc_id, UNNEST(string_split(text, chr(10))) AS line FROM t), "
            "lc AS (SELECT doc_id, line, count(*) AS c FROM ln GROUP BY doc_id, line), "
            "ls AS (SELECT doc_id, sum(c) AS n_lines, "
            "sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup_lines, "
            "sum(c * length(line)) AS tot_chars, "
            "sum(CASE WHEN c > 1 THEN c * length(line) ELSE 0 END) AS dup_chars "
            "FROM lc GROUP BY doc_id), "
            "w AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM t), "
            "wu AS (SELECT doc_id, UNNEST(ws) AS word FROM w), "
            "wc AS (SELECT doc_id, word, count(*) AS c FROM wu GROUP BY doc_id, word), "
            "wstat AS (SELECT doc_id, sum(c) AS n_words, max(c) AS max_wc "
            "FROM wc GROUP BY doc_id), "
            "g AS (SELECT doc_id, UNNEST([ws[i] || ' ' || ws[i+1] "
            "for i in range(1, len(ws))]) AS gram FROM w), "
            "gc AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY doc_id, gram), "
            "gstat AS (SELECT doc_id, sum(c) AS n_grams, count(*) AS n_distinct "
            "FROM gc GROUP BY doc_id) "
            "SELECT t.doc_id, CAST(ls.n_lines AS BIGINT) AS n_lines, "
            "ROUND(CAST(ls.dup_lines AS DOUBLE) / GREATEST(ls.n_lines, 1), 6) "
            "AS dup_line_frac, "
            "ROUND(CAST(ls.dup_chars AS DOUBLE) / GREATEST(ls.tot_chars, 1), 6) "
            "AS dup_line_char_frac, "
            "ROUND(CAST(COALESCE(wstat.max_wc, 0) AS DOUBLE) "
            "/ GREATEST(COALESCE(wstat.n_words, 0), 1), 6) AS top_word_frac, "
            "ROUND(CAST(COALESCE(gstat.n_grams - gstat.n_distinct, 0) AS DOUBLE) "
            "/ GREATEST(COALESCE(gstat.n_grams, 0), 1), 6) AS dup_2gram_frac "
            "FROM t JOIN ls USING (doc_id) LEFT JOIN wstat USING (doc_id) "
            "LEFT JOIN gstat USING (doc_id) ORDER BY t.doc_id"
        ),
        "windowed_distinct_users": (
            "SELECT date_trunc('hour', ts) AS window_start, "
            "CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct "
            "FROM events WHERE ts IS NOT NULL "
            "GROUP BY window_start HAVING count(user_id) > 0 "
            "ORDER BY window_start"
        ),
        "windowed_events_hourly": (
            "SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n, "
            "ROUND(avg(value), 6) AS avg_value FROM events GROUP BY event_type, hour"
        ),
        "histogram_quantity": (
            "SELECT CAST(floor((l_quantity - 1.0) / 5.0) AS BIGINT) AS bucket, "
            "count(*) AS n FROM lineitem GROUP BY bucket"
        ),
        "salted_group_sum_events": (
            "SELECT user_id, ROUND(sum(value), 6) AS sum_value FROM events GROUP BY user_id"
        ),
        "session_stats_events": (
            "WITH o AS (SELECT user_id, ts, lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts) AS prev FROM events), "
            "m AS (SELECT user_id, ts, CASE WHEN prev IS NULL OR "
            "date_diff('microsecond', prev, ts) > 3600000000 THEN 1 ELSE 0 END "
            "AS brk FROM o), "
            "s AS (SELECT user_id, ts, CAST(sum(brk) OVER (PARTITION BY user_id "
            "ORDER BY ts ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_idx FROM m) "
            "SELECT user_id, session_idx, CAST(count(*) AS BIGINT) AS n_events, "
            "min(ts) AS t_start, max(ts) AS t_end FROM s GROUP BY user_id, session_idx"
        ),
        "top3_events_per_type": (
            "WITH r AS (SELECT event_type, event_id, value, row_number() OVER "
            "(PARTITION BY event_type ORDER BY value DESC, event_id) AS rn FROM events) "
            "SELECT event_type, event_id, ROUND(value, 6) AS value FROM r WHERE rn <= 3"
        ),
        "hash_sample_events": (
            "SELECT event_id, ROUND(value, 6) AS value FROM events "
            "WHERE CAST(concat('0x', substr(md5(CAST(event_id AS VARCHAR)), 1, 8)) "
            "AS BIGINT) % 20 = 0"
        ),
        "semi_join_top_users": (
            "WITH s AS (SELECT user_id, ROUND(sum(value), 6) AS v FROM events GROUP BY user_id), "
            "r AS (SELECT user_id, row_number() OVER (ORDER BY v DESC, user_id) AS rn FROM s) "
            "SELECT e.event_id, e.user_id FROM events e "
            "JOIN (SELECT user_id FROM r WHERE rn <= 50) t ON e.user_id = t.user_id"
        ),
        "anti_join_top_users": (
            "WITH s AS (SELECT user_id, ROUND(sum(value), 6) AS v FROM events GROUP BY user_id), "
            "r AS (SELECT user_id, row_number() OVER (ORDER BY v DESC, user_id) AS rn FROM s) "
            "SELECT e.event_id, e.user_id FROM events e "
            "WHERE e.user_id NOT IN (SELECT user_id FROM r WHERE rn <= 50)"
        ),
        "referential_integrity_events_customer": (
            "SELECT ROUND(avg(CASE WHEN EXISTS (SELECT 1 FROM customer c "
            "WHERE c.c_custkey = e.user_id) THEN 1.0 ELSE 0.0 END), 6) "
            "AS ref_ok FROM events e"
        ),
        "asof_join_events_orders": (
            # LATERAL re-derivation of the as-of join: latest order at or
            # before each event's ts per user, ties broken by largest key
            "SELECT e.event_id, o.o_orderkey FROM events e "
            "LEFT JOIN LATERAL (SELECT o_orderkey FROM orders o "
            "WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts "
            "ORDER BY o.o_orderdate DESC, o.o_orderkey DESC LIMIT 1) o ON TRUE "
            "WHERE e.user_id IS NOT NULL AND e.ts IS NOT NULL"
        ),
        "interval_join_events_errors": (
            # self range-join: events into same-user 10-minute error windows
            "SELECT e.event_id, i.event_id AS error_id FROM events e "
            "JOIN events i ON e.user_id = i.user_id "
            "AND i.event_type = 'error' AND e.ts >= i.ts "
            "AND e.ts < i.ts + INTERVAL 10 MINUTE"
        ),
        "enrich_join_events_customer": (
            "SELECT c.c_mktsegment, CAST(count(*) AS BIGINT) AS n, "
            "ROUND(avg(e.value), 6) AS avg_value FROM events e "
            "LEFT JOIN customer c ON e.user_id = c.c_custkey "
            "GROUP BY c.c_mktsegment"
        ),
        "stratified_sample_events": (
            # same integer-exact md5-bucket decision as hash_sample_events,
            # thresholded per stratum (click 50%, view 10%, error 100%)
            "SELECT event_id, event_type FROM events "
            "WHERE CAST(concat('0x', substr(md5(CAST(event_id AS VARCHAR)), 1, 8)) "
            "AS BIGINT) % 1000 < CASE event_type WHEN 'click' THEN 500 "
            "WHEN 'view' THEN 100 WHEN 'error' THEN 1000 ELSE 0 END"
        ),
        "rolling_mean_events": (
            "SELECT event_id, ROUND(avg(value) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) "
            "AS rolling_mean FROM events "
            "WHERE user_id IS NOT NULL AND ts IS NOT NULL"
        ),
        "embedding_dup_pairs": (
            # all-pairs cosine over the SAME deterministically planted
            # corpus (originals + x2-scaled copies of vec_id % 10 == 0)
            "WITH t AS (SELECT vec_id, embedding FROM embeddings "
            "UNION ALL SELECT vec_id + 100000, "
            "list_transform(embedding, x -> x * 2.0) FROM embeddings "
            "WHERE vec_id % 10 = 0) "
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b FROM t a JOIN t b "
            "ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.99"
        ),
        "time_window_events": (
            # ts-SET window (equal-ts peers included regardless of order):
            # the correlated-subquery form, not a RANGE frame, so the
            # semantics are order-free
            "SELECT e.event_id, "
            "ROUND((SELECT avg(i.value) FROM events i WHERE i.user_id = "
            "e.user_id AND i.ts >= e.ts - INTERVAL 10 MINUTE AND "
            "i.ts <= e.ts), 6) AS tw_mean, "
            "(SELECT count(*) FROM events i WHERE i.user_id = e.user_id "
            "AND i.ts >= e.ts - INTERVAL 10 MINUTE AND i.ts <= e.ts) AS tw_n "
            "FROM events e "
            "WHERE e.user_id IS NOT NULL AND e.ts IS NOT NULL"
        ),
        "profile_events": (
            # one exact row per profiled column; distinct_ok is the HLL 5%
            # bound asserted on the Ray side
            " UNION ALL ".join(
                "SELECT '{c}' AS \"column\", "
                "ROUND(SUM(CASE WHEN {c} IS NULL THEN 0 ELSE 1 END) * 1.0 "
                "/ COUNT(*), 6) AS completeness, {num} AS \"min\", {num2} AS "
                "\"max\", {mean} AS mean, {std} AS std, {mnl} AS min_len, "
                "{mxl} AS max_len, TRUE AS distinct_ok FROM events".format(
                    c=c,
                    num=(f"ROUND(CAST(min({c}) AS DOUBLE), 6)" if num
                         else "CAST(NULL AS DOUBLE)"),
                    num2=(f"ROUND(CAST(max({c}) AS DOUBLE), 6)" if num
                          else "CAST(NULL AS DOUBLE)"),
                    mean=(f"ROUND(avg({c}), 6)" if num
                          else "CAST(NULL AS DOUBLE)"),
                    std=(f"ROUND(stddev_pop({c}), 6)" if num
                         else "CAST(NULL AS DOUBLE)"),
                    mnl=("CAST(NULL AS BIGINT)" if num
                         else f"min(length({c}))"),
                    mxl=("CAST(NULL AS BIGINT)" if num
                         else f"max(length({c}))"),
                )
                for c, num in (("event_id", True), ("event_type", False),
                               ("props", False), ("user_id", True),
                               ("value", True))
            )
        ),
        "grouped_quantile_price_by_flag": (
            # per-group nearest-rank median (same selection rule as
            # _NEAREST_Q_SQL); within_tol is the digest-vs-exact 1% bound
            # asserted on the Ray side
            "WITH s AS (SELECT l_returnflag AS g, l_extendedprice AS v "
            "FROM lineitem WHERE l_extendedprice IS NOT NULL "
            "AND l_returnflag IS NOT NULL), "
            "n AS (SELECT g, count(*) AS c FROM s GROUP BY g), "
            "i AS (SELECT g, CAST(floor(0.5 * (c - 1)) AS BIGINT) AS k0, "
            "0.5 * (c - 1) - floor(0.5 * (c - 1)) AS frac FROM n), "
            "kk AS (SELECT g, k0 + (CASE WHEN frac > 0.5 THEN 1 "
            "WHEN frac = 0.5 AND k0 % 2 = 1 THEN 1 ELSE 0 END) AS k FROM i), "
            "r AS (SELECT g, v, row_number() OVER (PARTITION BY g ORDER BY v) "
            "AS rn FROM s) "
            "SELECT r.g AS l_returnflag, ROUND(r.v, 6) AS q50_exact, "
            "TRUE AS within_tol FROM r JOIN kk ON r.g = kk.g AND r.rn = kk.k + 1"
        ),
        "top_bigrams_documents": (
            "WITH t AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), "
            "'\\S+') AS ws FROM documents), "
            "w AS (SELECT doc_id, UNNEST(ws) AS tok, generate_subscripts(ws, 1) "
            "AS i FROM t), "
            "b AS (SELECT tok || ' ' || lead(tok) OVER (PARTITION BY doc_id "
            "ORDER BY i) AS ngram FROM w), "
            "c AS (SELECT ngram, CAST(count(*) AS BIGINT) AS n FROM b "
            "WHERE ngram IS NOT NULL GROUP BY ngram) "
            "SELECT ngram, n FROM c ORDER BY n DESC, ngram LIMIT 20"
        ),
        "line_dedup_documents": (
            "WITH t AS (SELECT doc_id, string_split(COALESCE(text, chr(1)), ' ') "
            "AS ls, text IS NULL AS doc_null FROM documents), "
            "l AS (SELECT doc_id, doc_null, UNNEST(ls) AS line, "
            "generate_subscripts(ls, 1) AS line_idx FROM t), "
            "m AS (SELECT doc_id, doc_null, line_idx, line, "
            "CASE WHEN length(line) < 4 THEN TRUE ELSE "
            "row_number() OVER (PARTITION BY line ORDER BY doc_id, line_idx) = 1 "
            "END AS keep FROM l) "
            "SELECT doc_id, CASE WHEN bool_or(doc_null) THEN NULL "
            "ELSE COALESCE(string_agg(CASE WHEN keep THEN line END, ' ' "
            "ORDER BY line_idx), '') END AS text "
            "FROM m GROUP BY doc_id"
        ),
        "sft_pipeline_transcripts": (
            # the composed DAG: boilerplate NOT IN -> descending running-sum
            # suffix filter -> running-sum self-join example extraction
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "hot AS (SELECT text FROM turn WHERE length(text) >= 10 "
            "GROUP BY text HAVING count(DISTINCT conv_id) >= 2), "
            "clean AS (SELECT * FROM turn WHERE text NOT IN "
            "(SELECT text FROM hot)), "
            "ct AS (SELECT *, len(regexp_extract_all(text, '\\S+')) AS ntok "
            "FROM clean), "
            "rs AS (SELECT *, SUM(ntok) OVER (PARTITION BY conv_id ORDER BY "
            "turn_idx DESC) AS sfx FROM ct), "
            "kept AS (SELECT conv_id, turn_idx, role, text, ntok FROM rs "
            "WHERE sfx <= 96), "
            "rc AS (SELECT *, SUM(ntok) OVER (PARTITION BY conv_id ORDER BY "
            "turn_idx) AS c2 FROM kept) "
            "SELECT a.conv_id, a.turn_idx, "
            "COALESCE(string_agg(CASE WHEN b.turn_idx < a.turn_idx THEN "
            "b.text END, chr(10) ORDER BY b.turn_idx), '') AS prompt, "
            "ANY_VALUE(a.text) AS target, "
            "CAST(COUNT(*) - 1 AS BIGINT) AS n_context_turns, "
            "CAST(SUM(b.ntok) AS BIGINT) AS n_tokens "
            "FROM rc a JOIN rc b ON a.conv_id = b.conv_id "
            "AND b.turn_idx <= a.turn_idx AND a.c2 - b.c2 + b.ntok <= 48 "
            "WHERE a.role = 'assistant' GROUP BY a.conv_id, a.turn_idx"
        ),
        "dedup_turns_transcripts": (
            # inject duplicate turns (idx%4=1 re-added at idx+1000), then
            # keep the first occurrence of each (conv, text)
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "base AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "turn AS (SELECT * FROM base UNION ALL "
            "SELECT conv_id, turn_idx + 1000, role, text FROM base "
            "WHERE turn_idx % 4 = 1), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY conv_id, text "
            "ORDER BY turn_idx) AS rn FROM turn) "
            "SELECT conv_id, turn_idx, role, text FROM r WHERE rn = 1"
        ),
        "pack_sft_transcripts": (
            # the training_examples derivation + deterministic id, then the
            # global pack: exclusive running token sum in example_id order,
            # target span = [start + prompt_tokens, start + total)
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT doc_id, CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "tok AS (SELECT *, len(regexp_extract_all(text, '\\S+')) AS ntok "
            "FROM turn), "
            "rc AS (SELECT *, SUM(ntok) OVER (PARTITION BY doc_id ORDER BY "
            "turn_idx) AS c FROM tok), "
            "ex AS (SELECT a.doc_id * 100000 + a.turn_idx AS example_id, "
            "CAST(SUM(b.ntok) - ANY_VALUE(a.ntok) AS BIGINT) AS n_p, "
            "CAST(SUM(b.ntok) AS BIGINT) AS n "
            "FROM rc a JOIN rc b ON a.doc_id = b.doc_id "
            "AND b.turn_idx <= a.turn_idx AND a.c - b.c + b.ntok <= 48 "
            "WHERE a.role = 'assistant' GROUP BY a.doc_id, a.turn_idx), "
            "pk AS (SELECT example_id, n_p, n, "
            "CAST(COALESCE(SUM(n) OVER (ORDER BY example_id ROWS UNBOUNDED "
            "PRECEDING), 0) - n AS BIGINT) AS st FROM ex) "
            "SELECT example_id, n_p AS n_prompt_tokens, n AS n_tokens, "
            "st AS token_start, st + n_p AS target_start, st + n AS "
            "target_end, st // 256 AS seq_start, "
            "CAST(CASE WHEN n > 0 THEN (st + n - 1) // 256 ELSE st // 256 "
            "END AS BIGINT) AS seq_end FROM pk"
        ),
        "tool_usage_transcripts": (
            # derive tools on assistant turns (idx%3: 1->search, 2->python)
            # and count calls + distinct tools per conversation
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role "
            "FROM t), "
            "tt AS (SELECT conv_id, CASE WHEN role = 'assistant' AND "
            "i % 3 = 1 THEN 'search' WHEN role = 'assistant' AND i % 3 = 2 "
            "THEN 'python' END AS tool FROM turn) "
            "SELECT conv_id, CAST(COUNT(tool) AS BIGINT) AS n_tool_calls, "
            "CAST(COUNT(DISTINCT tool) AS BIGINT) AS n_distinct_tools "
            "FROM tt WHERE tool IS NOT NULL GROUP BY conv_id"
        ),
        "pii_stats_transcripts": (
            # same turn explosion + deterministic PII injection as the
            # engine side; counts per category with the engine's own RE2
            # pattern strings; only conversations with >= 1 match emitted
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, doc_id, "
            "i, array_to_string(ws[i*12+1:i*12+12], ' ') AS base FROM t), "
            "inj AS (SELECT conv_id, base || "
            "CASE WHEN i % 5 = 1 THEN ' contact user' || doc_id || "
            "'@example.com' ELSE '' END || "
            "CASE WHEN i % 11 = 3 THEN ' card 4000 1234 5678 9010' "
            "ELSE '' END AS text FROM turn), "
            "m AS (SELECT conv_id, "
            "len(regexp_extract_all(text, '" + email_pat + "')) AS e, "
            "len(regexp_extract_all(text, '" + url_pat + "')) AS u, "
            "len(regexp_extract_all(text, '" + cc_pat + "')) AS cc "
            "FROM inj), "
            "agg AS (SELECT conv_id, CAST(SUM(e) AS BIGINT) AS n_email, "
            "CAST(SUM(u) AS BIGINT) AS n_url, CAST(SUM(cc) AS BIGINT) AS "
            "n_cc, CAST(SUM(CASE WHEN e + u + cc > 0 THEN 1 ELSE 0 END) AS "
            "BIGINT) AS n_pii_turns FROM m GROUP BY conv_id) "
            "SELECT conv_id, n_email, n_url, n_cc, n_pii_turns FROM agg "
            "WHERE n_email + n_url + n_cc > 0"
        ),
        "majority_lang_transcripts": (
            # bound oracle: one majority row per conversation; validity and
            # the 3-language pigeonhole invariant asserted engine-side
            "SELECT CAST(count(*) AS BIGINT) AS n_convs, "
            "true AS langs_valid, true AS pigeonhole_ok FROM documents"
        ),
        "fork_groups_transcripts": (
            # inject forked replicas (doc_id % 5 == 0 -> +2*10^7, turns
            # i >= 2 marked), group by the exact 2-turn-prefix signature
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn0 AS (SELECT doc_id, i, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i, "
            "text FROM turn0 UNION ALL "
            "SELECT printf('conv-%08d', doc_id + 20000000), i, "
            "text || CASE WHEN i >= 2 THEN ' fork-tail' ELSE '' END "
            "FROM turn0 WHERE doc_id % 5 = 0), "
            "pref AS (SELECT conv_id, i, text FROM turn WHERE i < 2), "
            "sig AS (SELECT conv_id, string_agg(i || ':' || "
            "COALESCE(text, ''), chr(31) ORDER BY i) AS s FROM pref "
            "GROUP BY conv_id), "
            "g AS (SELECT s, MIN(conv_id) AS wc, COUNT(*) AS n FROM sig "
            "GROUP BY s HAVING COUNT(*) > 1) "
            "SELECT sig.conv_id, g.wc AS fork_group, "
            "CAST(g.n AS BIGINT) AS n_convs FROM sig JOIN g ON sig.s = g.s "
            "ORDER BY sig.conv_id"
        ),
        "preference_pairs_transcripts": (
            # same fork injection; score = divergent-tail (i >= 2)
            # assistant (i odd) char length; chosen = max score, ties to
            # the minimum conv id; one row per rejected member
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn0 AS (SELECT doc_id, i, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i, "
            "text FROM turn0 UNION ALL "
            "SELECT printf('conv-%08d', doc_id + 20000000), i, "
            "text || CASE WHEN i >= 2 THEN ' fork-tail' ELSE '' END "
            "FROM turn0 WHERE doc_id % 5 = 0), "
            "pref AS (SELECT conv_id, i, text FROM turn WHERE i < 2), "
            "sig AS (SELECT conv_id, string_agg(i || ':' || "
            "COALESCE(text, ''), chr(31) ORDER BY i) AS s FROM pref "
            "GROUP BY conv_id), "
            "g AS (SELECT s, MIN(conv_id) AS wc, COUNT(*) AS n FROM sig "
            "GROUP BY s HAVING COUNT(*) > 1), "
            "memb AS (SELECT sig.conv_id, g.wc AS fg, g.n FROM sig "
            "JOIN g ON sig.s = g.s), "
            "sc AS (SELECT m.conv_id, m.fg, m.n, COALESCE(SUM(CASE WHEN "
            "t2.i >= 2 AND t2.i % 2 = 1 THEN LENGTH(t2.text) ELSE 0 END), "
            "0) AS score FROM memb m LEFT JOIN turn t2 "
            "ON t2.conv_id = m.conv_id GROUP BY m.conv_id, m.fg, m.n), "
            "ch AS (SELECT fg, conv_id, score, ROW_NUMBER() OVER ("
            "PARTITION BY fg ORDER BY score DESC, conv_id ASC) AS rn "
            "FROM sc), "
            "win AS (SELECT fg, conv_id AS chosen_conv, score AS cscore "
            "FROM ch WHERE rn = 1) "
            "SELECT sc.fg AS fork_group, win.chosen_conv, "
            "sc.conv_id AS rejected_conv, "
            "CAST(win.cscore AS BIGINT) AS chosen_score, "
            "CAST(sc.score AS BIGINT) AS rejected_score, "
            "CAST(sc.n AS BIGINT) AS n_convs "
            "FROM sc JOIN win ON sc.fg = win.fg "
            "WHERE sc.conv_id <> win.chosen_conv "
            "ORDER BY rejected_conv"
        ),
        "filter_pii_conversations_transcripts": (
            # same injection as pii_stats; drop conversations whose total
            # match count exceeds 2, keep every turn of the rest
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, doc_id, "
            "i, array_to_string(ws[i*12+1:i*12+12], ' ') AS base FROM t), "
            "inj AS (SELECT conv_id, i, base || "
            "CASE WHEN i % 5 = 1 THEN ' contact user' || doc_id || "
            "'@example.com' ELSE '' END || "
            "CASE WHEN i % 11 = 3 THEN ' card 4000 1234 5678 9010' "
            "ELSE '' END AS text FROM turn), "
            "m AS (SELECT conv_id, "
            "len(regexp_extract_all(text, '" + email_pat + "')) + "
            "len(regexp_extract_all(text, '" + url_pat + "')) + "
            "len(regexp_extract_all(text, '" + cc_pat + "')) AS x "
            "FROM inj), "
            "bad AS (SELECT conv_id FROM m GROUP BY conv_id "
            "HAVING SUM(x) > 2) "
            "SELECT conv_id, CAST(i AS BIGINT) AS turn_idx FROM inj "
            "WHERE conv_id NOT IN (SELECT conv_id FROM bad) "
            "ORDER BY conv_id, turn_idx"
        ),
        "sample_conversations_transcripts": (
            # 120 smallest (md5-bucket, conv) ranked conversations
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx FROM t), "
            "sel AS (SELECT conv_id FROM (SELECT conv_id, ROW_NUMBER() "
            "OVER (ORDER BY CAST(concat('0x', substr(md5(conv_id), 1, 8)) "
            "AS BIGINT), conv_id) AS rn FROM "
            "(SELECT DISTINCT conv_id FROM turn)) WHERE rn <= 120) "
            "SELECT turn.conv_id AS conv_id, turn_idx FROM turn "
            "JOIN sel ON turn.conv_id = sel.conv_id "
            "ORDER BY turn.conv_id, turn_idx"
        ),
        "fork_index_probe_transcripts": (
            # index = base prefixes; new shard = replicas (+2e7, prefix
            # unchanged) + fresh (+5e7, prefix turns || ' fresh'); match
            # on the 2-turn-prefix signature, witness = min indexed conv
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT doc_id, printf('conv-%08d', doc_id) AS conv_id, "
            "i, array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "osig AS (SELECT conv_id, string_agg(i || ':' || "
            "COALESCE(text, ''), chr(31) ORDER BY i) AS s FROM turn "
            "WHERE i < 2 GROUP BY conv_id), "
            "wit AS (SELECT s, MIN(conv_id) AS wc FROM osig GROUP BY s), "
            "newt AS (SELECT printf('conv-%08d', doc_id + 20000000) AS "
            "conv_id, i, text FROM turn WHERE doc_id % 5 = 0 AND i < 2 "
            "UNION ALL SELECT printf('conv-%08d', doc_id + 50000000), i, "
            "text || ' fresh' FROM turn WHERE doc_id % 9 = 2 AND i < 2), "
            "nsig AS (SELECT conv_id, string_agg(i || ':' || "
            "COALESCE(text, ''), chr(31) ORDER BY i) AS s FROM newt "
            "GROUP BY conv_id) "
            "SELECT nsig.conv_id, wit.wc AS matched_conv FROM nsig "
            "JOIN wit ON nsig.s = wit.s ORDER BY nsig.conv_id"
        ),
        "turn_diff_transcripts": (
            # same shared mutation, FULL OUTER JOIN at (conv, turn) grain
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT doc_id, printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS i, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "newt AS (SELECT conv_id, i, "
            "CASE WHEN doc_id % 13 = 7 AND i = 1 THEN text || ' v2' "
            "ELSE text END AS text FROM turn WHERE doc_id % 13 != 3 "
            "UNION ALL SELECT printf('conv-%08d', doc_id + 40000000), i, "
            "text FROM turn WHERE doc_id % 13 = 5), "
            "j AS (SELECT COALESCE(turn.conv_id, newt.conv_id) AS conv_id, "
            "COALESCE(turn.i, newt.i) AS turn_idx, turn.text AS ot, "
            "newt.text AS nt, turn.conv_id IS NULL AS no_old, "
            "newt.conv_id IS NULL AS no_new FROM turn "
            "FULL OUTER JOIN newt ON turn.conv_id = newt.conv_id "
            "AND turn.i = newt.i) "
            "SELECT conv_id, turn_idx, CASE WHEN no_old THEN 'added' "
            "WHEN no_new THEN 'removed' ELSE 'changed' END AS status "
            "FROM j WHERE no_old OR no_new OR ot IS DISTINCT FROM nt "
            "ORDER BY conv_id, turn_idx"
        ),
        "conversation_diff_transcripts": (
            # both snapshots re-derived; FULL OUTER JOIN of the per-conv
            # (turn_idx, text) sequence signatures, status CASE
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT doc_id, printf('conv-%08d', doc_id) AS conv_id, "
            "i, array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "olds AS (SELECT conv_id, string_agg(i || ':' || "
            "COALESCE(text, ''), chr(31) ORDER BY i) AS s FROM turn "
            "GROUP BY conv_id), "
            "newt AS (SELECT conv_id, i, "
            "CASE WHEN doc_id % 13 = 7 AND i = 1 THEN text || ' v2' "
            "ELSE text END AS text FROM turn WHERE doc_id % 13 != 3 "
            "UNION ALL SELECT printf('conv-%08d', doc_id + 40000000), i, "
            "text FROM turn WHERE doc_id % 13 = 5), "
            "news AS (SELECT conv_id, string_agg(i || ':' || "
            "COALESCE(text, ''), chr(31) ORDER BY i) AS s FROM newt "
            "GROUP BY conv_id), "
            "j AS (SELECT COALESCE(olds.conv_id, news.conv_id) AS conv_id, "
            "olds.s AS so, news.s AS sn FROM olds FULL OUTER JOIN news "
            "ON olds.conv_id = news.conv_id) "
            "SELECT conv_id, CASE WHEN so IS NULL THEN 'added' "
            "WHEN sn IS NULL THEN 'removed' ELSE 'changed' END AS status "
            "FROM j WHERE so IS NULL OR sn IS NULL OR so <> sn "
            "ORDER BY conv_id"
        ),
        "reindex_turns_transcripts": (
            # same corruption; new index = ROW_NUMBER over surviving turns
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT doc_id, printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "corr AS (SELECT conv_id, turn_idx, role, "
            "CASE WHEN doc_id % 7 = 0 AND turn_idx = 1 THEN '' ELSE text END "
            "AS text FROM turn WHERE NOT ((doc_id % 5 = 0 AND turn_idx = 0) "
            "OR (doc_id % 11 = 0 AND turn_idx = 2))) "
            "SELECT conv_id, ROW_NUMBER() OVER (PARTITION BY conv_id "
            "ORDER BY turn_idx) - 1 AS turn_idx, "
            "turn_idx AS orig_turn_idx, role, text FROM corr "
            "ORDER BY conv_id, turn_idx"
        ),
        "split_by_fork_transcripts": (
            # fork groups via 2-turn-prefix signatures (same injection as
            # fork_groups_…), group = winner or self, split = md5 bucket
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn0 AS (SELECT doc_id, i, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i, "
            "text FROM turn0 UNION ALL "
            "SELECT printf('conv-%08d', doc_id + 20000000), i, "
            "text || CASE WHEN i >= 2 THEN ' fork-tail' ELSE '' END "
            "FROM turn0 WHERE doc_id % 5 = 0), "
            "pref AS (SELECT conv_id, i, text FROM turn WHERE i < 2), "
            "sig AS (SELECT conv_id, string_agg(i || ':' || "
            "COALESCE(text, ''), chr(31) ORDER BY i) AS s FROM pref "
            "GROUP BY conv_id), "
            "g AS (SELECT s, MIN(conv_id) AS wc, COUNT(*) AS n FROM sig "
            "GROUP BY s), "
            "gr AS (SELECT sig.conv_id, CASE WHEN g.n > 1 THEN g.wc "
            "ELSE sig.conv_id END AS group_id FROM sig "
            "JOIN g ON sig.s = g.s), "
            "b AS (SELECT conv_id, group_id, CAST(concat('0x', "
            "substr(md5(group_id), 1, 8)) AS BIGINT) % 100 AS bk FROM gr) "
            "SELECT conv_id, group_id, CASE WHEN bk < 80 THEN 'train' "
            "WHEN bk < 90 THEN 'val' ELSE 'test' END AS split "
            "FROM b ORDER BY conv_id"
        ),
        "curate_pipeline_transcripts": (
            # full chained-CTE re-derivation of the composed DAG: explode →
            # corrupt → duplicate replicas → structural filter → signature
            # dedup (min conv id wins) → 8-token clip
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT doc_id, printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "corr AS (SELECT doc_id, conv_id, turn_idx, role, "
            "CASE WHEN doc_id % 7 = 0 AND turn_idx = 1 THEN '' ELSE text END "
            "AS text FROM turn WHERE NOT ((doc_id % 5 = 0 AND turn_idx = 0) "
            "OR (doc_id % 11 = 0 AND turn_idx = 2))), "
            "dup AS (SELECT conv_id, turn_idx, role, text FROM corr "
            "UNION ALL SELECT printf('conv-%08d', doc_id + 30000000), "
            "turn_idx, role, text FROM corr WHERE doc_id % 10 = 6), "
            "agg AS (SELECT conv_id, count(*) AS n, "
            "arg_min(role, turn_idx) = 'user' AS swu, "
            "(min(turn_idx) = 0 AND max(turn_idx) = count(*) - 1 AND "
            "count(DISTINCT turn_idx) = count(*)) AS dense, "
            "bool_or(COALESCE(text, '') = '') AS empt "
            "FROM dup GROUP BY conv_id), "
            "keep AS (SELECT conv_id FROM agg WHERE n >= 2 AND swu AND "
            "dense AND NOT empt), "
            "kt AS (SELECT d.* FROM dup d JOIN keep USING (conv_id)), "
            "sig AS (SELECT conv_id, string_agg(turn_idx || ':' || "
            "COALESCE(text, ''), chr(31) ORDER BY turn_idx) AS s FROM kt "
            "GROUP BY conv_id), "
            "win AS (SELECT s, MIN(conv_id) AS wc FROM sig GROUP BY s), "
            "kept AS (SELECT kt.* FROM kt JOIN sig USING (conv_id) "
            "JOIN win ON sig.s = win.s AND kt.conv_id = win.wc), "
            "n2 AS (SELECT conv_id, turn_idx, role, text, "
            "len(regexp_extract_all(text, '\\S+')) AS nt FROM kept) "
            "SELECT conv_id, turn_idx, role, CASE WHEN nt > 8 THEN "
            "array_to_string(regexp_extract_all(text, '\\S+')[1:8], ' ') "
            "ELSE text END AS text, nt > 8 AS clipped FROM n2 "
            "ORDER BY conv_id, turn_idx"
        ),
        "tool_transitions_transcripts": (
            # same turn explosion + injected tool calls (doc_id % 4 == 2,
            # odd i -> 'tool-<i%3>'); LAG over the tool-only subsequence
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, UNNEST(range(n_turns)) AS i FROM c), "
            "tl AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i, "
            "'tool-' || CAST(i % 3 AS VARCHAR) AS tool FROM t "
            "WHERE doc_id % 4 = 2 AND i % 2 = 1), "
            "l AS (SELECT conv_id, tool, LAG(tool) OVER (PARTITION BY "
            "conv_id ORDER BY i) AS pt FROM tl) "
            "SELECT pt AS tool_from, tool AS tool_to, "
            "CAST(count(*) AS BIGINT) AS n FROM l WHERE pt IS NOT NULL "
            "GROUP BY pt, tool ORDER BY tool_from, tool_to"
        ),
        "clip_turns_transcripts": (
            # same turn explosion; clip = first 8 \S+ tokens joined with
            # single spaces when the token count exceeds 8
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "n AS (SELECT conv_id, turn_idx, text, "
            "len(regexp_extract_all(text, '\\S+')) AS nt FROM turn) "
            "SELECT conv_id, turn_idx, CASE WHEN nt > 8 THEN "
            "array_to_string(regexp_extract_all(text, '\\S+')[1:8], ' ') "
            "ELSE text END AS text, nt > 8 AS clipped FROM n "
            "ORDER BY conv_id, turn_idx"
        ),
        "grouped_profile_documents": (
            "SELECT source, col_name, n_rows, n_null, n_distinct FROM ("
            "SELECT source, 'lang' AS col_name, "
            "CAST(count(*) AS BIGINT) AS n_rows, "
            "CAST(SUM(CASE WHEN lang IS NULL THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_null, CAST(count(DISTINCT lang) AS BIGINT) AS n_distinct "
            "FROM documents WHERE source IS NOT NULL GROUP BY source "
            "UNION ALL "
            "SELECT source, 'n_chars', CAST(count(*) AS BIGINT), "
            "CAST(SUM(CASE WHEN n_chars IS NULL THEN 1 ELSE 0 END) AS BIGINT), "
            "CAST(count(DISTINCT n_chars) AS BIGINT) "
            "FROM documents WHERE source IS NOT NULL GROUP BY source "
            "UNION ALL "
            "SELECT source, 'text', CAST(count(*) AS BIGINT), "
            "CAST(SUM(CASE WHEN text IS NULL THEN 1 ELSE 0 END) AS BIGINT), "
            "CAST(count(DISTINCT text) AS BIGINT) "
            "FROM documents WHERE source IS NOT NULL GROUP BY source"
            ") ORDER BY source, col_name"
        ),
        "cross_source_overlap_documents": (
            "WITH toks AS (SELECT source, list_filter("
            "regexp_split_to_array(COALESCE(text, ''), '\\s+'), "
            "t -> t <> '') AS w FROM documents), "
            "ng AS (SELECT source, UNNEST([array_to_string(w[i:i+4], ' ') "
            "FOR i IN generate_series(1, len(w) - 4)]) AS g FROM toks), "
            "d AS (SELECT DISTINCT source, g FROM ng) "
            "SELECT a.source AS source_a, b.source AS source_b, "
            "CAST(count(*) AS BIGINT) AS n_shared "
            "FROM d a JOIN d b ON a.g = b.g AND a.source < b.source "
            "GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "split_by_gap_transcripts": (
            # same turn explosion + the injected +2h shift at i >= 3 for
            # doc_id % 4 == 2; running count of > 1h inter-turn gaps
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i, "
            "TIMESTAMP '2025-01-01 00:00:00' "
            "+ to_seconds(doc_id * 60 + i * 30 "
            "+ CASE WHEN doc_id % 4 = 2 AND i >= 3 THEN 7200 ELSE 0 END) "
            "AS ts FROM t), "
            "l AS (SELECT conv_id, i, CASE WHEN ts - "
            "LAG(ts) OVER (PARTITION BY conv_id ORDER BY i) "
            "> INTERVAL 3600 SECOND THEN 1 ELSE 0 END AS brk FROM turn) "
            "SELECT conv_id, i AS turn_idx, "
            "CAST(SUM(brk) OVER (PARTITION BY conv_id ORDER BY i) AS BIGINT) "
            "AS sub_conv FROM l ORDER BY conv_id, turn_idx"
        ),
        "alternation_stats_transcripts": (
            # same turn explosion + injected same-role pair (doc_id % 5
            # == 1, turns 1-2 -> 'tool') and NULL role (doc_id % 11 == 6,
            # turn 2; null wins); LAG-based switch counts with the SQL
            # both-non-null <> rule
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CASE WHEN doc_id % 11 = 6 AND i = 2 THEN NULL "
            "WHEN doc_id % 5 = 1 AND i IN (1, 2) THEN 'tool' "
            "WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, i "
            "FROM t), "
            "l AS (SELECT conv_id, role, "
            "LAG(role) OVER (PARTITION BY conv_id ORDER BY i) AS prev, "
            "ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY i) AS rn "
            "FROM turn) "
            "SELECT conv_id, "
            "CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_adj, "
            "CAST(SUM(CASE WHEN rn > 1 AND role IS NOT NULL AND prev IS NOT "
            "NULL AND role <> prev THEN 1 ELSE 0 END) AS BIGINT) AS n_switches "
            "FROM l GROUP BY conv_id ORDER BY conv_id"
        ),
        "role_balance_transcripts": (
            # same turn explosion + injected 'tool' role (doc_id % 6 == 1,
            # turn 1); per-conversation role-bucket counts and char sums
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CASE WHEN doc_id % 6 = 1 AND i = 1 THEN 'tool' "
            "WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t) "
            "SELECT conv_id, "
            "CAST(SUM(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT)"
            " AS n_user, "
            "CAST(SUM(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) AS "
            "BIGINT) AS n_assistant, "
            "CAST(SUM(CASE WHEN role NOT IN ('user', 'assistant') THEN 1 "
            "ELSE 0 END) AS BIGINT) AS n_other, "
            "CAST(SUM(CASE WHEN role = 'user' THEN LENGTH(text) ELSE 0 "
            "END) AS BIGINT) AS user_chars, "
            "CAST(SUM(CASE WHEN role = 'assistant' THEN LENGTH(text) "
            "ELSE 0 END) AS BIGINT) AS assistant_chars "
            "FROM turn GROUP BY conv_id ORDER BY conv_id"
        ),
        "echo_stats_transcripts": (
            # same turn explosion + injected echo (doc_id % 9 == 4 -> turn
            # 1 copies turn 0's text); LAG window over adjacent pairs
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "CASE WHEN doc_id % 9 = 4 AND i = 1 THEN "
            "array_to_string(ws[1:12], ' ') "
            "ELSE array_to_string(ws[i*12+1:i*12+12], ' ') END AS text "
            "FROM t), "
            "l AS (SELECT conv_id, role, text, "
            "LAG(role) OVER (PARTITION BY conv_id ORDER BY i) AS pr, "
            "LAG(text) OVER (PARTITION BY conv_id ORDER BY i) AS pt "
            "FROM turn), "
            "p AS (SELECT conv_id, "
            "CASE WHEN role = 'assistant' AND pr = 'user' THEN 1 ELSE 0 "
            "END AS is_pair, "
            "CASE WHEN role = 'assistant' AND pr = 'user' AND text IS NOT "
            "NULL AND pt IS NOT NULL AND text = pt THEN 1 ELSE 0 END AS "
            "echo FROM l) "
            "SELECT conv_id, CAST(SUM(echo) AS BIGINT) AS n_echoes, "
            "CAST(SUM(is_pair) AS BIGINT) AS n_pairs FROM p "
            "GROUP BY conv_id HAVING SUM(is_pair) > 0 ORDER BY conv_id"
        ),
        "loop_stats_transcripts": (
            # same turn explosion + injected assistant loops (doc_id % 7
            # == 3, odd i <= 5 -> 'RETRY output'); gaps-and-islands run
            # lengths over the assistant subsequence
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "doc_id, i, array_to_string(ws[i*12+1:i*12+12], ' ') AS text "
            "FROM t), "
            "a AS (SELECT conv_id, i, CASE WHEN doc_id % 7 = 3 AND i <= 5 "
            "THEN 'RETRY output' ELSE text END AS text FROM turn "
            "WHERE i % 2 = 1), "
            "r AS (SELECT conv_id, text, "
            "ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY i) - "
            "ROW_NUMBER() OVER (PARTITION BY conv_id, text ORDER BY i) "
            "AS grp FROM a), "
            "runs AS (SELECT conv_id, COUNT(*) AS rl FROM r "
            "GROUP BY conv_id, text, grp) "
            "SELECT conv_id, CAST(MAX(rl) AS BIGINT) AS max_run, "
            "CAST(SUM(CASE WHEN rl >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS "
            "n_loops, CAST(SUM(rl) AS BIGINT) AS n_role_turns "
            "FROM runs GROUP BY conv_id ORDER BY conv_id"
        ),
        "turn_gap_stats_transcripts": (
            # ts grid = doc_id*60 + i*30 seconds (+ the same (i*i)%17
            # jitter the engine injects); base epoch cancels in the deltas
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, UNNEST(range(n_turns)) AS i FROM c), "
            "g AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i, "
            "doc_id * 60 + i * 30 + (i * i) % 17 AS sec FROM t), "
            "l AS (SELECT conv_id, sec - LAG(sec) OVER (PARTITION BY "
            "conv_id ORDER BY i) AS d FROM g) "
            "SELECT conv_id, ROUND(CAST(MAX(d) AS DOUBLE), 6) AS max_gap_s, "
            "ROUND(CAST(AVG(d) AS DOUBLE), 6) AS mean_gap_s, "
            "CAST(COUNT(d) AS BIGINT) AS n_gaps FROM l "
            "WHERE d IS NOT NULL GROUP BY conv_id"
        ),
        "toxicity_stats_transcripts": (
            # same turn explosion + deterministic toxic-term injection as
            # the engine side; counts with the engine's own (?i) RE2 string
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS base FROM t), "
            "inj AS (SELECT conv_id, base || "
            "CASE WHEN i % 7 = 2 THEN ' utterly frakking broken' "
            "ELSE '' END || "
            "CASE WHEN i % 13 = 5 THEN ' you scuzzbucket' ELSE '' END AS "
            "text FROM turn), "
            "m AS (SELECT conv_id, "
            "len(regexp_extract_all(text, '" + tox_pat + "')) AS x "
            "FROM inj), "
            "agg AS (SELECT conv_id, CAST(SUM(x) AS BIGINT) AS n_toxic, "
            "CAST(SUM(CASE WHEN x > 0 THEN 1 ELSE 0 END) AS BIGINT) AS "
            "n_toxic_turns FROM m GROUP BY conv_id) "
            "SELECT conv_id, n_toxic, n_toxic_turns FROM agg "
            "WHERE n_toxic > 0"
        ),
        "near_dup_conversations_transcripts": (
            # conversation text = doc words rejoined (chunk boundaries add
            # only whitespace), so the exact all-pairs word-3-gram Jaccard
            # over documents IS the conversation-granularity ground truth
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), "
            "'\\S+') AS ws FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(ws) = 0 THEN []::VARCHAR[] "
            "WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')] "
            "ELSE [ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] "
            "for i in range(1, len(ws) - 1)] END AS s FROM w), "
            "d AS (SELECT doc_id, list_distinct(s) AS s FROM sh), "
            "p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CASE WHEN len(a.s) = 0 AND len(b.s) = 0 THEN 1.0 "
            "ELSE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) "
            "/ GREATEST(len(list_distinct(list_concat(a.s, b.s))), 1) END AS jaccard "
            "FROM d a JOIN d b ON a.doc_id < b.doc_id) "
            "SELECT id_a, id_b, ROUND(jaccard, 6) AS jaccard FROM p "
            "WHERE jaccard >= 0.5"
        ),
        "dedup_conversations_transcripts": (
            # inject duplicate docs (doc_id%7=0 re-added at +10^7), explode
            # to transcripts, keep only each identical (turn_idx, text)
            # sequence's minimum conv id
            "WITH d AS (SELECT doc_id, text FROM documents UNION ALL "
            "SELECT doc_id + 10000000, text FROM documents WHERE "
            "doc_id % 7 = 0), "
            "w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM d), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "sig AS (SELECT conv_id, string_agg(turn_idx || ':' || "
            "COALESCE(text, ''), chr(31) ORDER BY turn_idx) AS s FROM turn "
            "GROUP BY conv_id), "
            "win AS (SELECT s, MIN(conv_id) AS wc FROM sig GROUP BY s), "
            "keep AS (SELECT sig.conv_id FROM sig JOIN win ON sig.s = win.s "
            "WHERE sig.conv_id = win.wc) "
            "SELECT t.conv_id, t.turn_idx, t.role, t.text FROM turn t "
            "JOIN keep USING (conv_id)"
        ),
        "training_examples_transcripts": (
            # one example per assistant turn; prompt = maximal preceding run
            # with prompt+target <= 48 tokens (self-join on running sums; a
            # target alone over budget joins nothing and drops)
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "tok AS (SELECT *, len(regexp_extract_all(text, '\\S+')) AS ntok "
            "FROM turn), "
            "rc AS (SELECT *, SUM(ntok) OVER (PARTITION BY conv_id ORDER BY "
            "turn_idx) AS c FROM tok) "
            "SELECT a.conv_id, a.turn_idx, "
            "COALESCE(string_agg(CASE WHEN b.turn_idx < a.turn_idx THEN "
            "b.text END, chr(10) ORDER BY b.turn_idx), '') AS prompt, "
            "ANY_VALUE(a.text) AS target, "
            "CAST(COUNT(*) - 1 AS BIGINT) AS n_context_turns, "
            "CAST(SUM(b.ntok) AS BIGINT) AS n_tokens "
            "FROM rc a JOIN rc b ON a.conv_id = b.conv_id "
            "AND b.turn_idx <= a.turn_idx AND a.c - b.c + b.ntok <= 48 "
            "WHERE a.role = 'assistant' GROUP BY a.conv_id, a.turn_idx"
        ),
        "merge_turns_transcripts": (
            # re-derive transcripts with turn_idx%3 roles, then the segment
            # window: a segment breaks where the lagged role differs; merge
            # each segment (first idx/role, texts joined by \n, run length)
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 3 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "l AS (SELECT *, CASE WHEN lag(role) OVER (PARTITION BY conv_id "
            "ORDER BY turn_idx) IS DISTINCT FROM role THEN 1 ELSE 0 END AS "
            "brk FROM turn), "
            "s AS (SELECT *, SUM(brk) OVER (PARTITION BY conv_id ORDER BY "
            "turn_idx) AS seg FROM l) "
            "SELECT conv_id, CAST(MIN(turn_idx) AS BIGINT) AS turn_idx, "
            "MIN(role) AS role, "
            "string_agg(COALESCE(text, ''), chr(10) ORDER BY turn_idx) AS text, "
            "CAST(COUNT(*) AS BIGINT) AS n_merged "
            "FROM s GROUP BY conv_id, seg"
        ),
        "boilerplate_turns_transcripts": (
            # re-derive the transcript explosion and remove every turn whose
            # exact text (>= 10 chars) spans >= 2 distinct conversations
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "hot AS (SELECT text FROM turn WHERE length(text) >= 10 "
            "GROUP BY text HAVING count(DISTINCT conv_id) >= 2) "
            "SELECT conv_id, turn_idx, role, text FROM turn "
            "WHERE text NOT IN (SELECT text FROM hot)"
        ),
        "validate_conversations_transcripts": (
            # re-derive the documents→transcripts explosion, apply the SAME
            # deterministic corruption as the query wrapper, then the
            # per-conversation validation aggregates
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT doc_id, printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "corr AS (SELECT conv_id, turn_idx, role, "
            "CASE WHEN doc_id % 7 = 0 AND turn_idx = 1 THEN '' ELSE text END "
            "AS text FROM turn WHERE NOT ((doc_id % 5 = 0 AND turn_idx = 0) "
            "OR (doc_id % 11 = 0 AND turn_idx = 2))), "
            "agg AS (SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns, "
            "arg_min(role, turn_idx) = 'user' AS starts_with_user, "
            "arg_max(role, turn_idx) = 'assistant' AS ends_with_assistant, "
            "(min(turn_idx) = 0 AND max(turn_idx) = count(*) - 1 AND "
            "count(DISTINCT turn_idx) = count(*)) AS dense_index, "
            "bool_or(COALESCE(text, '') = '') AS has_empty_text "
            "FROM corr GROUP BY conv_id) "
            "SELECT conv_id, n_turns, starts_with_user, ends_with_assistant, "
            "dense_index, has_empty_text, (starts_with_user AND "
            "ends_with_assistant AND dense_index AND NOT has_empty_text) "
            "AS valid FROM agg"
        ),
        "filter_conversations_transcripts": (
            # same corruption + per-conv aggregates as validate_…, then the
            # engine's priority-ordered reason CASE (defaults: min_turns=2,
            # require_user_start, require_dense_index, no empty text;
            # assistant-end not required)
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT doc_id, printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "corr AS (SELECT conv_id, turn_idx, role, "
            "CASE WHEN doc_id % 7 = 0 AND turn_idx = 1 THEN '' ELSE text END "
            "AS text FROM turn WHERE NOT ((doc_id % 5 = 0 AND turn_idx = 0) "
            "OR (doc_id % 11 = 0 AND turn_idx = 2))), "
            "agg AS (SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns, "
            "arg_min(role, turn_idx) = 'user' AS swu, "
            "(min(turn_idx) = 0 AND max(turn_idx) = count(*) - 1 AND "
            "count(DISTINCT turn_idx) = count(*)) AS dense, "
            "bool_or(COALESCE(text, '') = '') AS empt "
            "FROM corr GROUP BY conv_id), "
            "v AS (SELECT conv_id, n_turns, CASE "
            "WHEN n_turns < 2 THEN 'too_few_turns' "
            "WHEN NOT swu THEN 'no_user_start' "
            "WHEN NOT dense THEN 'sparse_index' "
            "WHEN empt THEN 'empty_text' ELSE 'ok' END AS reason FROM agg) "
            "SELECT conv_id, n_turns, reason = 'ok' AS keep, reason FROM v"
        ),
        "truncate_conversations_transcripts": (
            # re-derive the documents→transcripts explosion (12-word chunks,
            # alternating roles) and apply the suffix-budget window: keep
            # turns whose descending running token total fits 96
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''),"
            " '\\S+') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, GREATEST(CAST(CEIL(len(ws) / 12.0) AS "
            "BIGINT), 1) AS n_turns FROM w), "
            "t AS (SELECT doc_id, ws, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, "
            "CAST(i AS BIGINT) AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "array_to_string(ws[i*12+1:i*12+12], ' ') AS text FROM t), "
            "tok AS (SELECT *, len(regexp_extract_all(text, '\\S+')) AS ntok "
            "FROM turn), "
            "rc AS (SELECT conv_id, turn_idx, role, text, "
            "CAST(SUM(ntok) OVER (PARTITION BY conv_id ORDER BY turn_idx "
            "DESC) AS BIGINT) AS suffix_tokens FROM tok) "
            "SELECT conv_id, turn_idx, role, text, suffix_tokens FROM rc "
            "WHERE suffix_tokens <= 96"
        ),
        "conversation_features": (
            # re-derive the deterministic documents→transcripts explosion in
            # SQL (12-word chunks, alternating roles, 30s turn spacing) and
            # check the per-conversation sequence features with window fns
            "WITH w AS (SELECT doc_id, COALESCE(len(regexp_extract_all("
            "COALESCE(text, ''), '\\S+')), 0) AS nw FROM documents), "
            "c AS (SELECT doc_id, GREATEST(CAST(CEIL(nw / 12.0) AS BIGINT), 1) "
            "AS n_turns FROM w), "
            "t AS (SELECT doc_id, n_turns, UNNEST(range(n_turns)) AS i FROM c), "
            "turn AS (SELECT printf('conv-%08d', doc_id) AS conv_id, i AS turn_idx, "
            "CASE WHEN i % 2 = 0 THEN 'user' ELSE 'assistant' END AS role, "
            "TIMESTAMP '2025-01-01 00:00:00' + to_microseconds(doc_id * 60000000 "
            "+ i * 30000000) AS ts FROM t), "
            "f AS (SELECT conv_id, turn_idx, role, ts, "
            "lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_role, "
            "lag(ts) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_ts FROM turn) "
            "SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns, "
            "COALESCE(bool_and(prev_role IS NULL OR role <> prev_role), TRUE) AS role_alternates, "
            "COALESCE(bool_and(prev_ts IS NULL OR ts >= prev_ts), TRUE) AS ts_monotone, "
            "min(CASE WHEN turn_idx = 0 THEN role END) AS first_role "
            "FROM f GROUP BY conv_id"
        ),
        "near_dup_pairs_documents": (
            # exact all-pairs word-3-gram Jaccard self-join (the engine gets
            # the same set via high-recall LSH + exact verification)
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), "
            "'\\S+') AS ws FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(ws) = 0 THEN []::VARCHAR[] "
            "WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')] "
            "ELSE [ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] "
            "for i in range(1, len(ws) - 1)] END AS s FROM w), "
            "d AS (SELECT doc_id, list_distinct(s) AS s FROM sh), "
            "p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CASE WHEN len(a.s) = 0 AND len(b.s) = 0 THEN 1.0 "
            "ELSE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) "
            "/ GREATEST(len(list_distinct(list_concat(a.s, b.s))), 1) END AS jaccard "
            "FROM d a JOIN d b ON a.doc_id < b.doc_id) "
            "SELECT id_a, id_b, ROUND(jaccard, 6) AS jaccard FROM p "
            "WHERE jaccard >= 0.5"
        ),
        "snapshot_diff_events": (
            "WITH o AS (SELECT event_id AS key, event_type, value FROM events), "
            "n AS (SELECT event_id AS key, event_type, "
            "CASE WHEN event_id % 7 = 0 THEN value * 2 ELSE value END AS value "
            "FROM events WHERE event_id % 13 != 0 "
            "UNION ALL SELECT event_id + 1000000, event_type, value "
            "FROM events WHERE event_id % 17 = 0), "
            "j AS (SELECT COALESCE(o.key, n.key) AS event_id, "
            "CASE WHEN o.key IS NULL THEN 'added' "
            "WHEN n.key IS NULL THEN 'removed' "
            "WHEN o.event_type IS DISTINCT FROM n.event_type "
            "OR o.value IS DISTINCT FROM n.value THEN 'changed' ELSE '' END AS status "
            "FROM o FULL OUTER JOIN n ON o.key = n.key) "
            "SELECT event_id, status FROM j WHERE status != '' ORDER BY event_id"
        ),
        "hopping_window_events": (
            # window = 2 x hop, so every event is in EXACTLY two hop-aligned
            # windows: the UNION ALL of the two shifted tumbling groupings
            "WITH e AS (SELECT event_type, epoch_us(ts) AS t, value FROM events), "
            "x AS (SELECT event_type, value, "
            "CAST(floor(t / 3600000000) AS BIGINT) * 3600000000 AS ws FROM e "
            "UNION ALL SELECT event_type, value, "
            "(CAST(floor(t / 3600000000) AS BIGINT) - 1) * 3600000000 AS ws FROM e) "
            "SELECT event_type, make_timestamp(ws) AS w_start, "
            "count(*)::BIGINT AS n, ROUND(avg(value), 6) AS avg_value "
            "FROM x GROUP BY event_type, ws ORDER BY event_type, w_start"
        ),
        "row_number_events_by_value": (
            "SELECT event_id, ROUND(value, 6) AS value, "
            "row_number() OVER (ORDER BY value, event_id) AS row_number "
            "FROM events ORDER BY row_number"
        ),
        "distinct_users_per_type": (
            "SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_distinct "
            "FROM events GROUP BY event_type ORDER BY event_type"
        ),
        "rank_events_by_type": (
            'SELECT event_type, user_id, event_id, CAST(RANK() OVER '
            '(PARTITION BY event_type ORDER BY user_id) AS BIGINT) AS "rank" '
            "FROM events WHERE event_type IS NOT NULL AND user_id IS NOT NULL"
        ),
        "dense_rank_events_by_type": (
            'SELECT event_type, user_id, event_id, CAST(DENSE_RANK() OVER '
            '(PARTITION BY event_type ORDER BY user_id) AS BIGINT) AS "rank" '
            "FROM events WHERE event_type IS NOT NULL AND user_id IS NOT NULL"
        ),
        "dedup_lines_within_doc": (
            "WITH base AS (SELECT doc_id, CASE WHEN doc_id % 7 = 0 THEN "
            "string_split(text, chr(10))[1] || chr(10) || text || chr(10) "
            "|| string_split(text, chr(10))[1] ELSE text END AS text "
            "FROM documents WHERE text IS NOT NULL), "
            "l AS (SELECT doc_id, UNNEST(string_split(text, chr(10))) AS "
            "line, generate_subscripts(string_split(text, chr(10)), 1) AS "
            "pos FROM base), "
            "r AS (SELECT doc_id, line, pos, row_number() OVER (PARTITION "
            "BY doc_id, line ORDER BY pos) AS rn FROM l) "
            "SELECT doc_id, string_agg(line, chr(10) ORDER BY pos) AS text "
            "FROM r WHERE rn = 1 OR length(line) < 10 "
            "GROUP BY doc_id ORDER BY doc_id"
        ),
        "string_agg_users_by_type": (
            "SELECT event_type, string_agg(CAST(user_id AS VARCHAR), ',' "
            "ORDER BY user_id, event_id) AS agg FROM events "
            "WHERE event_type = 'signup' AND user_id IS NOT NULL "
            "GROUP BY event_type"
        ),
        "mode_value_by_type": (
            "WITH c AS (SELECT event_type, user_id, count(*) AS n "
            "FROM events WHERE event_type IS NOT NULL AND user_id IS NOT "
            "NULL GROUP BY event_type, user_id), "
            "r AS (SELECT event_type, user_id, n, row_number() OVER "
            "(PARTITION BY event_type ORDER BY n DESC, user_id ASC) AS rn "
            "FROM c) SELECT event_type, user_id AS mode_value, "
            "CAST(n AS BIGINT) AS n FROM r WHERE rn = 1 ORDER BY event_type"
        ),
        "percent_rank_events_by_type": (
            "SELECT event_type, user_id, event_id, "
            "ROUND(PERCENT_RANK() OVER (PARTITION BY event_type "
            "ORDER BY user_id), 6) AS pct FROM events "
            "WHERE event_type IS NOT NULL AND user_id IS NOT NULL"
        ),
        "cume_dist_events_by_type": (
            "SELECT event_type, user_id, event_id, "
            "ROUND(CUME_DIST() OVER (PARTITION BY event_type "
            "ORDER BY user_id), 6) AS pct FROM events "
            "WHERE event_type IS NOT NULL AND user_id IS NOT NULL"
        ),
        "ntile_events_by_type": (
            "SELECT event_type, user_id, event_id, CAST(NTILE(4) OVER "
            "(PARTITION BY event_type ORDER BY user_id, event_id) AS BIGINT)"
            " AS tile FROM events "
            "WHERE event_type IS NOT NULL AND user_id IS NOT NULL"
        ),
        # per-group pandas-nearest median: same half-to-even .5 rule as the
        # global _NEAREST_Q_SQL, partitioned by key
        "grouped_quantile_exact_price": (
            "WITH s AS (SELECT l_returnflag AS k, l_extendedprice AS v "
            "FROM lineitem WHERE l_returnflag IS NOT NULL AND "
            "l_extendedprice IS NOT NULL), "
            "r AS (SELECT k, v, row_number() OVER (PARTITION BY k ORDER BY v)"
            " AS rn, count(*) OVER (PARTITION BY k) AS c FROM s), "
            "i AS (SELECT k, CAST(floor(0.5 * (c - 1)) AS BIGINT) AS k0, "
            "0.5 * (c - 1) - floor(0.5 * (c - 1)) AS frac "
            "FROM (SELECT DISTINCT k, c FROM r) t), "
            "kk AS (SELECT k, k0 + (CASE WHEN frac > 0.5 THEN 1 "
            "WHEN frac = 0.5 AND k0 % 2 = 1 THEN 1 ELSE 0 END) AS sel FROM i)"
            " SELECT r.k AS l_returnflag, ROUND(r.v, 6) AS q_value "
            "FROM r JOIN kk ON r.k = kk.k AND r.rn = kk.sel + 1"
        ),
        "funnel_signup_click_purchase": (
            "WITH ev AS (SELECT user_id, ts, event_type || "
            "(CASE WHEN value > 100 THEN '_hi' ELSE '_lo' END) AS step FROM events), "
            "s1 AS (SELECT user_id, min(ts) AS t FROM ev WHERE step = 'signup_hi' "
            "GROUP BY user_id), "
            "s2 AS (SELECT e.user_id, min(e.ts) AS t FROM ev e JOIN s1 USING (user_id) "
            "WHERE e.step = 'click_hi' AND e.ts > s1.t GROUP BY e.user_id), "
            "s3 AS (SELECT e.user_id, min(e.ts) AS t FROM ev e JOIN s2 USING (user_id) "
            "WHERE e.step = 'purchase_hi' AND e.ts > s2.t GROUP BY e.user_id) "
            "SELECT 1::BIGINT AS step_idx, 'signup_hi' AS step, "
            "(SELECT count(*) FROM s1)::BIGINT AS n_keys "
            "UNION ALL SELECT 2, 'click_hi', (SELECT count(*) FROM s2) "
            "UNION ALL SELECT 3, 'purchase_hi', (SELECT count(*) FROM s3) "
            "ORDER BY step_idx"
        ),
        "pivot_user_event_counts": (
            # the synthetic events table has exactly these five types
            "SELECT user_id, "
            "sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT AS n_click, "
            "sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)::BIGINT AS n_error, "
            "sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)::BIGINT AS n_purchase, "
            "sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)::BIGINT AS n_signup, "
            "sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)::BIGINT AS n_view "
            "FROM events GROUP BY user_id ORDER BY user_id"
        ),
        "top_terms_documents": (
            "WITH t AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents), "
            "wu AS (SELECT doc_id, UNNEST(regexp_extract_all(text, '\\S+')) AS term FROM t), "
            "tf AS (SELECT doc_id, term, count(*) AS tf FROM wu GROUP BY doc_id, term), "
            "df AS (SELECT term, count(*) AS df FROM "
            "(SELECT DISTINCT doc_id, term FROM wu) GROUP BY term), "
            "r AS (SELECT tf.doc_id, tf.term, tf.tf, df.df, "
            "row_number() OVER (PARTITION BY tf.doc_id "
            "ORDER BY tf.tf DESC, df.df ASC, tf.term ASC) AS rn "
            "FROM tf JOIN df USING (term)) "
            "SELECT doc_id, term, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df "
            "FROM r WHERE rn <= 3 ORDER BY doc_id, tf DESC, df, term"
        ),
        "normalize_text_documents": (
            "SELECT doc_id, trim(regexp_replace(lower(nfc_normalize(text)), "
            "'\\s+', ' ', 'g'), ' ') AS norm_text FROM documents ORDER BY doc_id"
        ),
        "contamination_documents": (
            # word 5-gram overlap vs the doc_id % 101 == 0 benchmark set;
            # engine matches by 63-bit n-gram hash (collision odds ~2^-63)
            _NGRAM_SQL + ", "
            "bench AS (SELECT DISTINCT UNNEST(gs) AS g FROM ng "
            f"WHERE doc_id % {_BENCH_MOD} = 0), "
            "pos AS (SELECT doc_id, UNNEST(gs) AS g FROM ng), "
            "hit AS (SELECT pos.doc_id, count(*) AS n_hit FROM pos "
            "JOIN bench USING (g) GROUP BY pos.doc_id) "
            "SELECT ng.doc_id, CAST(len(gs) AS BIGINT) AS n_ngrams, "
            "CAST(COALESCE(hit.n_hit, 0) AS BIGINT) AS n_contaminated, "
            "ROUND(CAST(COALESCE(hit.n_hit, 0) AS DOUBLE) "
            "/ GREATEST(len(gs), 1), 6) AS contaminated_frac, "
            "COALESCE(hit.n_hit, 0) > 0 AS contaminated "
            "FROM ng LEFT JOIN hit USING (doc_id) ORDER BY ng.doc_id"
        ),
        "decontaminate_documents": (
            _NGRAM_SQL + ", "
            "bench AS (SELECT DISTINCT UNNEST(gs) AS g FROM ng "
            f"WHERE doc_id % {_BENCH_MOD} = 0), "
            "pos AS (SELECT doc_id, UNNEST(gs) AS g FROM ng), "
            "dirty AS (SELECT DISTINCT pos.doc_id FROM pos "
            "JOIN bench USING (g)) "
            "SELECT doc_id FROM documents WHERE doc_id NOT IN "
            "(SELECT doc_id FROM dirty) ORDER BY doc_id"
        ),
        "dup_ngram_stats_documents": (
            # corpus-wide duplicated word 5-grams (occurrences >= 2 anywhere)
            _NGRAM_SQL + ", "
            "pos AS (SELECT doc_id, UNNEST(gs) AS g FROM ng), "
            "hot AS (SELECT g FROM pos GROUP BY g HAVING count(*) >= 2), "
            "hit AS (SELECT pos.doc_id, count(*) AS n_hit FROM pos "
            "JOIN hot USING (g) GROUP BY pos.doc_id) "
            "SELECT ng.doc_id, CAST(len(gs) AS BIGINT) AS n_ngrams, "
            "CAST(COALESCE(hit.n_hit, 0) AS BIGINT) AS n_dup, "
            "ROUND(CAST(COALESCE(hit.n_hit, 0) AS DOUBLE) "
            "/ GREATEST(len(gs), 1), 6) AS dup_ngram_frac "
            "FROM ng LEFT JOIN hit USING (doc_id) ORDER BY ng.doc_id"
        ),
        "scrub_dup_ngrams_documents": (
            # remove token positions covered by any corpus-duplicated
            # 5-gram occurrence (count >= 2 anywhere, own doc included);
            # touched docs rebuilt by single-space join, untouched docs
            # byte-faithful, fully-covered docs become ''
            _NGRAM_SQL + ", "
            "pos AS (SELECT doc_id, UNNEST(gs) AS g, "
            "generate_subscripts(gs, 1) AS i FROM ng), "
            "hot AS (SELECT g FROM pos GROUP BY g HAVING count(*) >= 2), "
            "cov AS (SELECT DISTINCT pos.doc_id, pos.i + r.range AS j "
            f"FROM pos JOIN hot USING (g) CROSS JOIN range({_DECONTAM_N}) r), "
            "wpos AS (SELECT doc_id, UNNEST(w) AS tok, "
            "generate_subscripts(w, 1) AS k FROM toks), "
            "kept AS (SELECT wp.doc_id, wp.tok, wp.k FROM wpos wp "
            "LEFT JOIN cov ON cov.doc_id = wp.doc_id AND cov.j = wp.k "
            "WHERE cov.doc_id IS NULL), "
            "rb AS (SELECT doc_id, string_agg(tok, ' ' ORDER BY k) "
            "AS new_text FROM kept GROUP BY doc_id), "
            "rem AS (SELECT doc_id, count(*) AS n_removed FROM cov "
            "GROUP BY doc_id) "
            "SELECT d.doc_id, CASE WHEN COALESCE(rem.n_removed, 0) > 0 "
            "THEN COALESCE(rb.new_text, '') ELSE d.text END AS text, "
            "CAST(COALESCE(rem.n_removed, 0) AS BIGINT) AS n_removed "
            "FROM documents d LEFT JOIN rem USING (doc_id) "
            "LEFT JOIN rb USING (doc_id) ORDER BY d.doc_id"
        ),
        "chunk_documents": (
            "WITH toks AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(COALESCE(text, ''), '\\s+'), t -> t <> '') AS w "
            "FROM documents), "
            f"ch AS (SELECT doc_id, [array_to_string(w[s:s+{_CHUNK_SIZE - 1}], ' ') "
            f"FOR s IN generate_series(1, len(w), {_CHUNK_SIZE - _CHUNK_OVERLAP})] AS cs "
            "FROM toks), "
            "u AS (SELECT doc_id, UNNEST(cs) AS chunk_text, "
            "UNNEST(range(len(cs))) AS chunk_idx FROM ch) "
            "SELECT doc_id, CAST(chunk_idx AS BIGINT) AS chunk_idx, chunk_text, "
            "CAST(len(string_split(chunk_text, ' ')) AS BIGINT) AS n_tokens "
            "FROM u ORDER BY doc_id, chunk_idx"
        ),
        "domain_llr_documents": (
            _LLR_SQL_CTE +
            " SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tokens, "
            "CAST(n_iv AS BIGINT) AS n_invocab, ROUND(llr, 6) AS llr_score "
            "FROM score ORDER BY doc_id"
        ),
        "importance_sample_documents": (
            # deterministic DSIR selection: keep iff md5_frac < sigmoid(llr/T)
            _LLR_SQL_CTE + ", "
            "b AS (SELECT doc_id, CAST(concat('0x', "
            "substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) "
            "/ 4294967296.0 AS frac FROM documents) "
            "SELECT s.doc_id FROM score s JOIN b USING (doc_id) "
            f"WHERE b.frac < 1.0 / (1.0 + exp(-s.llr / {_IMPORTANCE_T})) "
            "ORDER BY s.doc_id"
        ),
        "deterministic_shuffle_documents": (
            "WITH b AS (SELECT doc_id, CAST(concat('0x', "
            "substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) AS bucket "
            "FROM documents) "
            "SELECT doc_id, CAST(row_number() OVER (ORDER BY bucket, doc_id) "
            "AS BIGINT) AS shuffle_pos FROM b ORDER BY doc_id"
        ),
        "split_assign_documents": (
            "WITH b AS (SELECT doc_id, CAST(concat('0x', "
            "substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) % 100 AS bk "
            "FROM documents) "
            "SELECT doc_id, CASE WHEN bk < 80 THEN 'train' "
            "WHEN bk < 90 THEN 'val' ELSE 'test' END AS split "
            "FROM b ORDER BY doc_id"
        ),
        "quality_filter_documents": (
            "WITH t AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents), "
            "m AS (SELECT doc_id, length(text) AS n_chars, "
            "len(regexp_extract_all(text, '\\S+')) AS n_tok, "
            "len(regexp_extract_all(text, '[^0-9A-Za-z_\\s]')) AS n_sym, "
            "len(regexp_extract_all(lower(text), '" + _STOPWORD_SQL_PATTERN
            + "')) AS n_stop FROM t), "
            "w AS (SELECT doc_id, UNNEST(regexp_extract_all(text, '\\S+')) AS word "
            "FROM t), "
            "wc AS (SELECT doc_id, word, count(*) AS c FROM w GROUP BY doc_id, word), "
            "tw AS (SELECT doc_id, max(c) AS max_wc FROM wc GROUP BY doc_id), "
            "r AS (SELECT m.doc_id, CASE "
            "WHEN m.n_tok < 16 THEN 'too_short' "
            "WHEN (CASE WHEN m.n_chars > 0 THEN CAST(m.n_sym AS DOUBLE) "
            "/ GREATEST(m.n_chars, 1) ELSE 0 END) > 0.3 THEN 'symbolic' "
            "WHEN (CASE WHEN m.n_tok > 0 THEN CAST(m.n_stop AS DOUBLE) "
            "/ GREATEST(m.n_tok, 1) ELSE 0 END) < 0.03 THEN 'low_stopword' "
            "WHEN CAST(COALESCE(tw.max_wc, 0) AS DOUBLE) / GREATEST(m.n_tok, 1) "
            "> 0.15 THEN 'repetitive' ELSE '' END AS reason "
            "FROM m LEFT JOIN tw USING (doc_id)) "
            "SELECT doc_id, reason = '' AS kept, reason FROM r ORDER BY doc_id"
        ),
        "split_token_budget_documents": (
            "WITH b AS (SELECT doc_id, source, COALESCE(text, '') AS text, "
            "CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) "
            "AS BIGINT) % 100 AS bk FROM documents), "
            "s AS (SELECT CASE WHEN bk < 80 THEN 'train' WHEN bk < 90 THEN 'val' "
            "ELSE 'test' END AS split, source, "
            "len(regexp_extract_all(text, '\\S+')) AS n_tok FROM b) "
            "SELECT split, source, CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(n_tok) AS BIGINT) AS total_tokens "
            "FROM s GROUP BY split, source ORDER BY split, source"
        ),
        "quality_by_source_documents": (
            "WITH f AS (SELECT source, "
            "length(COALESCE(text, '')) AS n_chars, "
            "len(regexp_extract_all(COALESCE(text, ''), '\\S+')) AS n_tokens, "
            "len(regexp_extract_all(COALESCE(text, ''), '[^0-9A-Za-z_\\s]')) AS n_sym, "
            "len(regexp_extract_all(lower(COALESCE(text, '')), '" + _STOPWORD_SQL_PATTERN
            + "')) AS n_stop FROM documents) "
            "SELECT source, CAST(count(*) AS BIGINT) AS n_docs, "
            "ROUND(avg(n_chars), 6) AS avg_chars, "
            "ROUND(avg(n_tokens), 6) AS avg_tokens, "
            "ROUND(avg(CASE WHEN n_chars > 0 THEN CAST(n_sym AS DOUBLE) "
            "/ GREATEST(n_chars, 1) ELSE 0 END), 6) AS avg_symbol_ratio, "
            "ROUND(avg(CASE WHEN n_tokens > 0 THEN CAST(n_stop AS DOUBLE) "
            "/ GREATEST(n_tokens, 1) ELSE 0 END), 6) AS avg_stopword_ratio "
            "FROM f GROUP BY source ORDER BY source"
        ),
        "value_deciles_events": (
            # exact "nearest" quantile breakpoints (same selection rule as
            # _NEAREST_Q_SQL) for q=0.1..0.9, bucket = count(bp <= value)
            "WITH s AS (SELECT value AS v FROM events WHERE value IS NOT NULL), "
            "n AS (SELECT count(*) AS c FROM s), "
            "r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM s), "
            "qs AS (SELECT UNNEST([0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9]) AS q), "
            "i AS (SELECT q, CAST(floor(q * (c - 1)) AS BIGINT) AS k0, "
            "q * (c - 1) - floor(q * (c - 1)) AS frac FROM qs, n), "
            "kk AS (SELECT q, k0 + (CASE WHEN frac > 0.5 THEN 1 "
            "WHEN frac = 0.5 AND k0 % 2 = 1 THEN 1 ELSE 0 END) AS k FROM i), "
            "bp AS (SELECT r.v FROM r JOIN kk ON r.rn = kk.k + 1) "
            "SELECT e.event_id, CAST((SELECT count(*) FROM bp WHERE bp.v <= e.value) "
            "AS BIGINT) AS bucket FROM events e ORDER BY e.event_id"
        ),
        "bloom_new_events": (
            "SELECT event_id, ROUND(value, 6) AS value FROM events "
            "WHERE event_id % 5 = 0 AND value NOT IN "
            "(SELECT value FROM events WHERE event_id % 5 != 0) ORDER BY event_id"
        ),
        "reservoir_sample_events": (
            "WITH r AS (SELECT event_type, event_id, user_id, "
            "row_number() OVER (PARTITION BY event_type ORDER BY "
            "CAST(concat('0x', substr(md5(CAST(event_id AS VARCHAR)), 1, 8)) AS BIGINT), "
            "event_id) AS rn FROM events) "
            "SELECT event_type, event_id, user_id FROM r WHERE rn <= 5 "
            "ORDER BY event_type, event_id"
        ),
        "hash_join_orders_customer": (
            "SELECT o_orderkey, o_custkey, c_name, ROUND(c_acctbal, 6) AS c_acctbal "
            "FROM orders JOIN customer ON o_custkey = c_custkey ORDER BY o_orderkey"
        ),
        "dedup_clusters_documents": (
            # connected components of the exact near-dup pair graph
            # (same all-pairs word-3-gram Jaccard derivation as
            # near_dup_pairs_documents) via recursive reachability closure
            "WITH RECURSIVE w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), "
            "'\\S+') AS ws FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(ws) = 0 THEN []::VARCHAR[] "
            "WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')] "
            "ELSE [ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] "
            "for i in range(1, len(ws) - 1)] END AS s FROM w), "
            "d AS (SELECT doc_id, list_distinct(s) AS s FROM sh), "
            "p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CASE WHEN len(a.s) = 0 AND len(b.s) = 0 THEN 1.0 "
            "ELSE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) "
            "/ GREATEST(len(list_distinct(list_concat(a.s, b.s))), 1) END AS jaccard "
            "FROM d a JOIN d b ON a.doc_id < b.doc_id), "
            "pr AS (SELECT id_a, id_b FROM p WHERE jaccard >= 0.5), "
            "e AS (SELECT id_a AS u, id_b AS v FROM pr "
            "UNION SELECT id_b, id_a FROM pr), "
            "walk(node, reach) AS (SELECT u, u FROM e "
            "UNION SELECT wk.node, e.v FROM walk wk JOIN e ON e.u = wk.reach) "
            "SELECT CAST(node AS BIGINT) AS doc_id, "
            "CAST(min(reach) AS BIGINT) AS cluster_id FROM walk "
            "GROUP BY node ORDER BY doc_id"
        ),
        "percentile_rank_events": (
            "SELECT count(*)::BIGINT AS n_rows, TRUE AS within_tol FROM events"
        ),
        "kmeans_embeddings": (
            "SELECT count(*)::BIGINT AS n_vectors, 8::BIGINT AS k, "
            "TRUE AS monotone_ok, TRUE AS deterministic_ok FROM embeddings"
        ),
        "minhash_lsh_pairs_documents": (
            # truth count from the same all-pairs word-3-gram Jaccard
            # self-join as near_dup_pairs_documents; the Ray side must find
            # exactly this many exact-verified true pairs among its LSH
            # candidates (recall 1.0) with a 0.3 precision floor
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), "
            "'\\S+') AS ws FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(ws) = 0 THEN []::VARCHAR[] "
            "WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')] "
            "ELSE [ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] "
            "for i in range(1, len(ws) - 1)] END AS s FROM w), "
            "d AS (SELECT doc_id, list_distinct(s) AS s FROM sh), "
            "p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CASE WHEN len(a.s) = 0 AND len(b.s) = 0 THEN 1.0 "
            "ELSE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) "
            "/ GREATEST(len(list_distinct(list_concat(a.s, b.s))), 1) END AS jaccard "
            "FROM d a JOIN d b ON a.doc_id < b.doc_id) "
            "SELECT CAST(count(*) AS BIGINT) AS n_true_pairs, TRUE AS precision_ok "
            "FROM p WHERE jaccard >= 0.5"
        ),
        "minhash_probe_new_documents": (
            # truth: exact word-3-gram Jaccard >= 0.5 CROSS pairs between the
            # doc_id % 7 == 0 'new shard' and the indexed rest; the Ray probe
            # must find exactly this many exact-verified pairs (recall 1.0)
            "WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), "
            "'\\S+') AS ws FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(ws) = 0 THEN []::VARCHAR[] "
            "WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')] "
            "ELSE [ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] "
            "for i in range(1, len(ws) - 1)] END AS s FROM w), "
            "d AS (SELECT doc_id, list_distinct(s) AS s FROM sh), "
            "p AS (SELECT a.doc_id AS id_new, b.doc_id AS id_old, "
            "CASE WHEN len(a.s) = 0 AND len(b.s) = 0 THEN 1.0 "
            "ELSE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) "
            "/ GREATEST(len(list_distinct(list_concat(a.s, b.s))), 1) END AS jaccard "
            "FROM d a JOIN d b ON a.doc_id % 7 = 0 AND b.doc_id % 7 != 0) "
            "SELECT CAST(count(*) AS BIGINT) AS n_true_pairs, TRUE AS precision_ok "
            "FROM p WHERE jaccard >= 0.5"
        ),
        "simhash_documents": (
            "SELECT CAST(count(*) AS BIGINT) AS n_docs, TRUE AS deterministic_ok, "
            "TRUE AS near_dup_hamming_ok FROM documents"
        ),
        "perplexity_documents": (
            "SELECT CAST(count(*) AS BIGINT) AS n_docs, TRUE AS ppl_ge_1_ok, "
            "TRUE AS deterministic_ok FROM documents"
        ),
        "langid_documents": (
            "SELECT CAST(count(*) AS BIGINT) AS n_docs, TRUE AS preds_valid, "
            "TRUE AS acc_ok FROM documents"
        ),
        "transcript_filter_stats": (
            # total turns from the deterministic documents→transcripts
            # explosion (ceil(words/12) turns per doc, min 1)
            "WITH w AS (SELECT COALESCE(len(regexp_extract_all(COALESCE(text, ''), "
            "'\\S+')), 0) AS nw FROM documents) "
            "SELECT CAST(sum(GREATEST(CAST(CEIL(nw / 12.0) AS BIGINT), 1)) AS BIGINT) "
            "AS total, TRUE AS kept_frac_ok FROM w"
        ),
        "approx_count_distinct_users": (
            "SELECT ROUND(CAST(count(DISTINCT user_id) AS DOUBLE), 6) AS n_exact, "
            "TRUE AS within_tol FROM events WHERE user_id IS NOT NULL"
        ),
        "approx_quantile_price": (
            "SELECT q50_exact, TRUE AS within_tol FROM ("
            + _NEAREST_Q_SQL.format(
                col="l_extendedprice", table="lineitem", q=0.5, name="q50_exact"
            )
            + ")"
        ),
        "knn_ivf_embeddings": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings "
            f"WHERE vec_id < {_N_KNN_QUERIES}), "
            "sims AS (SELECT q.query_id, e.vec_id, "
            "list_cosine_similarity(CAST(q.qe AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) AS cos "
            "FROM q, embeddings e WHERE e.vec_id != q.query_id), "
            "ranked AS (SELECT query_id, row_number() OVER "
            "(PARTITION BY query_id ORDER BY cos DESC, vec_id) AS rn FROM sims) "
            f"SELECT CAST(count(*) AS BIGINT) AS n_results, TRUE AS recall_ok "
            f"FROM ranked WHERE rn <= {_KNN_K}"
        ),
        "knn_embeddings": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings "
            f"WHERE vec_id < {_N_KNN_QUERIES}), "
            "sims AS (SELECT q.query_id, e.vec_id, "
            "list_cosine_similarity(CAST(q.qe AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) AS cos "
            "FROM q, embeddings e WHERE e.vec_id != q.query_id), "
            "ranked AS (SELECT query_id, vec_id, cos, row_number() OVER "
            "(PARTITION BY query_id ORDER BY cos DESC, vec_id) AS rn FROM sims) "
            f"SELECT query_id, vec_id, ROUND(cos, 6) AS cosine FROM ranked WHERE rn <= {_KNN_K}"
        ),
        "union_users_click_purchase": (
            "SELECT CAST(user_id AS BIGINT) AS user_id FROM events "
            "WHERE event_type = 'click' "
            "UNION SELECT CAST(user_id AS BIGINT) FROM events "
            "WHERE event_type = 'purchase' ORDER BY user_id"
        ),
        "intersect_users_click_purchase": (
            "SELECT CAST(user_id AS BIGINT) AS user_id FROM events "
            "WHERE event_type = 'click' "
            "INTERSECT SELECT CAST(user_id AS BIGINT) FROM events "
            "WHERE event_type = 'purchase' ORDER BY user_id"
        ),
        "except_pairs_low_value": (
            "SELECT CAST(user_id AS BIGINT) AS user_id, event_type FROM events "
            "EXCEPT SELECT CAST(user_id AS BIGINT), event_type FROM events "
            "WHERE value > 50 ORDER BY user_id, event_type"
        ),
        "full_join_orders_customer": (
            "WITH c AS (SELECT c_custkey, c_acctbal FROM customer "
            "WHERE c_custkey % 3 != 0), "
            "j AS (SELECT o.o_orderkey, "
            "COALESCE(o.o_custkey, c.c_custkey) AS custkey, "
            "o.o_orderkey IS NOT NULL AS has_order, "
            "c.c_custkey IS NOT NULL AS has_cust, c.c_acctbal "
            "FROM orders o FULL JOIN c ON o.o_custkey = c.c_custkey) "
            "SELECT CAST(COALESCE(o_orderkey, -1) AS BIGINT) AS o_orderkey, "
            "CAST(custkey AS BIGINT) AS custkey, has_order, has_cust, "
            "ROUND(COALESCE(c_acctbal, 0.0), 6) AS c_acctbal "
            "FROM j ORDER BY o_orderkey, custkey"
        ),
        "running_sum_events": (
            "SELECT event_id, ROUND(SUM(value) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING), 6) AS run_sum, "
            "CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) "
            "AS BIGINT) AS run_n FROM events ORDER BY event_id"
        ),
        "zscore_events_by_type": (
            "SELECT event_id, ROUND(CASE WHEN "
            "STDDEV_POP(value) OVER (PARTITION BY event_type) > 0 THEN "
            "(value - AVG(value) OVER (PARTITION BY event_type)) "
            "/ STDDEV_POP(value) OVER (PARTITION BY event_type) END, 6) "
            "AS zscore FROM events ORDER BY event_id"
        ),
        "approx_distinct_users_per_type": (
            "SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) "
            "AS n_distinct, TRUE AS within_tol FROM events "
            "WHERE user_id IS NOT NULL GROUP BY event_type ORDER BY event_type"
        ),
        "pack_sequences_documents": (
            "WITH t AS (SELECT doc_id, CAST(len(regexp_extract_all(text, "
            "'\\S+')) AS BIGINT) AS n_tokens FROM documents), "
            "c AS (SELECT doc_id, n_tokens, CAST(COALESCE(SUM(n_tokens) OVER "
            "(ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), "
            "0) AS BIGINT) AS token_start FROM t), "
            "s AS (SELECT doc_id, n_tokens, token_start, "
            "CAST(token_start // 2048 AS BIGINT) AS seq_start, "
            "CAST(CASE WHEN n_tokens > 0 THEN (token_start + n_tokens - 1) // 2048 "
            "ELSE token_start // 2048 END AS BIGINT) AS seq_end FROM c) "
            "SELECT doc_id, n_tokens, token_start, seq_start, seq_end, "
            "CAST(seq_end - seq_start + 1 AS BIGINT) AS n_seqs FROM s "
            "ORDER BY doc_id"
        ),
        "line_filter_frequent_documents": (
            # word-granularity run of the boilerplate-line filter (docs are
            # single-line): every ≥4-char token with ≥5 corpus occurrences is
            # removed from every document, short tokens never participate
            "WITH t AS (SELECT doc_id, string_split(COALESCE(text, chr(1)), ' ') "
            "AS ls, text IS NULL AS doc_null FROM documents), "
            "l AS (SELECT doc_id, doc_null, UNNEST(ls) AS line, "
            "generate_subscripts(ls, 1) AS line_idx FROM t), "
            "hot AS (SELECT line FROM l WHERE length(line) >= 4 "
            "GROUP BY line HAVING count(*) >= 5), "
            "m AS (SELECT doc_id, doc_null, line_idx, line, "
            "CASE WHEN length(line) < 4 THEN TRUE ELSE "
            "line NOT IN (SELECT line FROM hot) END AS keep FROM l) "
            "SELECT doc_id, CASE WHEN bool_or(doc_null) THEN NULL "
            "ELSE COALESCE(string_agg(CASE WHEN keep THEN line END, ' ' "
            "ORDER BY line_idx), '') END AS text "
            "FROM m GROUP BY doc_id ORDER BY doc_id"
        ),
        "keep_best_dedup_documents": (
            # same recursive reachability closure as dedup_clusters_documents,
            # then a window argmax picks each cluster's highest-n_chars member
            # (ties to the smaller doc_id); kept = everyone but the losers
            "WITH RECURSIVE w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), "
            "'\\S+') AS ws FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(ws) = 0 THEN []::VARCHAR[] "
            "WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')] "
            "ELSE [ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] "
            "for i in range(1, len(ws) - 1)] END AS s FROM w), "
            "d AS (SELECT doc_id, list_distinct(s) AS s FROM sh), "
            "p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CASE WHEN len(a.s) = 0 AND len(b.s) = 0 THEN 1.0 "
            "ELSE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) "
            "/ GREATEST(len(list_distinct(list_concat(a.s, b.s))), 1) END AS jaccard "
            "FROM d a JOIN d b ON a.doc_id < b.doc_id), "
            "pr AS (SELECT id_a, id_b FROM p WHERE jaccard >= 0.5), "
            "e AS (SELECT id_a AS u, id_b AS v FROM pr "
            "UNION SELECT id_b, id_a FROM pr), "
            "walk(node, reach) AS (SELECT u, u FROM e "
            "UNION SELECT wk.node, e.v FROM walk wk JOIN e ON e.u = wk.reach), "
            "comp AS (SELECT node AS doc_id, min(reach) AS cluster_id "
            "FROM walk GROUP BY node), "
            "scored AS (SELECT c.doc_id, c.cluster_id, dd.n_chars FROM comp c "
            "JOIN documents dd ON dd.doc_id = c.doc_id), "
            "win AS (SELECT doc_id FROM (SELECT doc_id, row_number() OVER "
            "(PARTITION BY cluster_id ORDER BY n_chars DESC, doc_id) AS rn "
            "FROM scored) WHERE rn = 1), "
            "losers AS (SELECT doc_id FROM comp WHERE doc_id NOT IN "
            "(SELECT doc_id FROM win)) "
            "SELECT CAST(doc_id AS BIGINT) AS doc_id FROM documents "
            "WHERE doc_id NOT IN (SELECT doc_id FROM losers) ORDER BY doc_id"
        ),
        "dup_rate_by_source_documents": (
            # same duplicate injection (doc_id % 7 == 0 re-appended), then
            # per-source distinct-fingerprint counting
            "WITH d AS (SELECT source, text FROM documents UNION ALL "
            "SELECT source, text FROM documents WHERE doc_id % 7 = 0), "
            "h AS (SELECT source, md5(COALESCE(text, '')) AS fp FROM d "
            "WHERE source IS NOT NULL), "
            "c AS (SELECT source, fp, count(*) AS n FROM h "
            "GROUP BY source, fp) "
            "SELECT source, CAST(SUM(n) AS BIGINT) AS n_docs, "
            "CAST(COUNT(*) AS BIGINT) AS n_unique, "
            "ROUND(1 - COUNT(*) / CAST(SUM(n) AS DOUBLE), 6) AS dup_frac "
            "FROM c GROUP BY source ORDER BY source"
        ),
        "blocklist_filter_documents": (
            # keep = NOT match of the engine's own blocklist alternation
            "SELECT CAST(doc_id AS BIGINT) AS doc_id FROM documents "
            "WHERE NOT regexp_matches(COALESCE(text, ''), '" + block_pat
            + "') ORDER BY doc_id"
        ),
        "length_bucket_batches_documents": (
            # token-count length buckets (searchsorted right: n < 64 -> 0,
            # n < 128 -> 1, else 2), batch of 8 within bucket by doc_id
            "WITH tk AS (SELECT doc_id, len(regexp_extract_all("
            "COALESCE(text, ''), '\\S+')) AS n FROM documents), "
            "b AS (SELECT doc_id, CASE WHEN n < 64 THEN 0 "
            "WHEN n < 128 THEN 1 ELSE 2 END AS bucket FROM tk), "
            "r AS (SELECT doc_id, bucket, row_number() OVER "
            "(PARTITION BY bucket ORDER BY doc_id) AS rn FROM b) "
            "SELECT doc_id, CAST(bucket AS BIGINT) AS bucket, "
            "CAST((rn - 1) // 8 AS BIGINT) AS batch_idx FROM r "
            "ORDER BY doc_id"
        ),
        "l2_normalize_embeddings": (
            # same float64 math: norm over DOUBLE-cast elements, divide,
            # round 6; zero-norm vectors -> all zeros; exploded form
            "WITH n AS (SELECT vec_id, embedding, "
            "sqrt(list_aggregate([CAST(x AS DOUBLE) * CAST(x AS DOUBLE) "
            "for x in embedding], 'sum')) AS nrm FROM embeddings) "
            "SELECT CAST(vec_id AS BIGINT) AS vec_id, "
            "CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS pos, "
            "ROUND(CASE WHEN nrm > 0 THEN CAST(UNNEST(embedding) AS DOUBLE) "
            "/ nrm ELSE 0.0 END, 6) AS value "
            "FROM n ORDER BY vec_id, pos"
        ),
        "quantize_int8_embeddings": (
            # scale = max(|v|); code = TRUNC((x / scale) * 127) — division
            # FIRST on both sides so the max element codes exactly 127;
            # exploded form, plus one pos = -1 row per vector carrying
            # round(scale, 6) × 10^6 as an integer code
            "WITH s AS (SELECT vec_id, embedding, "
            "list_aggregate([abs(CAST(x AS DOUBLE)) for x in embedding], "
            "'max') AS scale FROM embeddings), "
            "codes AS (SELECT CAST(vec_id AS BIGINT) AS vec_id, "
            "CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS pos, "
            "CAST(TRUNC(CASE WHEN scale > 0 THEN "
            "CAST(UNNEST(embedding) AS DOUBLE) / scale ELSE 0.0 END * 127) "
            "AS BIGINT) AS code FROM s), "
            "sc AS (SELECT CAST(vec_id AS BIGINT) AS vec_id, "
            "CAST(-1 AS BIGINT) AS pos, "
            "CAST(ROUND(ROUND(scale, 6) * 1e6) AS BIGINT) AS code FROM s) "
            "SELECT * FROM codes UNION ALL SELECT * FROM sc "
            "ORDER BY vec_id, pos"
        ),
        "vector_mean_embeddings": (
            # per-label per-position mean over the exploded list column
            # (UNNEST + generate_subscripts; no WITH ORDINALITY in this
            # DuckDB build).  float32 storage is cast to DOUBLE before the
            # fold on BOTH sides.
            "WITH x AS (SELECT CAST(label AS BIGINT) AS label, "
            "generate_subscripts(embedding, 1) - 1 AS pos, "
            "CAST(UNNEST(embedding) AS DOUBLE) AS v FROM embeddings "
            "WHERE label IS NOT NULL AND embedding IS NOT NULL) "
            "SELECT label, CAST(pos AS BIGINT) AS pos, "
            "ROUND(SUM(v) / COUNT(*), 6) AS mean FROM x "
            "GROUP BY label, pos ORDER BY label, pos"
        ),
        "jsonl_roundtrip_documents": (
            # the engine writes documents to JSONL and reads them back; a
            # value-hash match against the source table proves losslessness
            "SELECT doc_id, text, lang, source, n_chars FROM documents "
            "ORDER BY doc_id"
        ),
        "regex_extract_documents": (
            # same RE2 pattern string on both engines (CLAUDE.md parity);
            # DuckDB counts the named group positionally as group 1
            "SELECT doc_id, regexp_extract(text, '(?P<w>[a-z]{7,})', 1) "
            "AS w FROM documents ORDER BY doc_id"
        ),
        "csv_roundtrip_documents": (
            # same losslessness proof for the CSV boundary
            "SELECT doc_id, text, lang, source, n_chars FROM documents "
            "ORDER BY doc_id"
        ),
        "inverted_index_documents": (
            # distinct (term, doc) pairs, doc-ordered rank per term,
            # capped at 5 postings per term
            "WITH tok AS (SELECT DISTINCT doc_id, UNNEST("
            "regexp_extract_all(COALESCE(text, ''), '\\S+')) AS term "
            "FROM documents), "
            "r AS (SELECT term, doc_id, row_number() OVER (PARTITION BY "
            "term ORDER BY doc_id) AS rank FROM tok) "
            "SELECT term, CAST(rank AS BIGINT) AS rank, "
            "CAST(doc_id AS BIGINT) AS doc_id FROM r WHERE rank <= 5 "
            "ORDER BY term, rank"
        ),
        "vocab_stats_documents": (
            # explode whitespace tokens, count per (source, token), then
            # per-source totals / distinct types / hapax + ratios
            "WITH tok AS (SELECT source, UNNEST(regexp_extract_all("
            "COALESCE(text, ''), '\\S+')) AS tk FROM documents "
            "WHERE source IS NOT NULL), "
            "c AS (SELECT source, tk, count(*) AS n FROM tok "
            "GROUP BY source, tk) "
            "SELECT source, CAST(SUM(n) AS BIGINT) AS n_tokens, "
            "CAST(COUNT(*) AS BIGINT) AS n_types, "
            "CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS "
            "n_hapax, "
            "ROUND(COUNT(*) / CAST(SUM(n) AS DOUBLE), 6) AS "
            "type_token_ratio, "
            "ROUND(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) / "
            "CAST(COUNT(*) AS DOUBLE), 6) AS hapax_ratio "
            "FROM c GROUP BY source ORDER BY source"
        ),
        "split_by_cluster_documents": (
            # recursive reachability closure over verified Jaccard>=0.5
            # pairs -> each doc's split = md5 bucket of its cluster-min id
            # (singletons: own id), same 80/10/10 CASE as split_assign
            "WITH RECURSIVE w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), "
            "'\\S+') AS ws FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(ws) = 0 THEN []::VARCHAR[] "
            "WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')] "
            "ELSE [ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] "
            "for i in range(1, len(ws) - 1)] END AS s FROM w), "
            "d AS (SELECT doc_id, list_distinct(s) AS s FROM sh), "
            "p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CASE WHEN len(a.s) = 0 AND len(b.s) = 0 THEN 1.0 "
            "ELSE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) "
            "/ GREATEST(len(list_distinct(list_concat(a.s, b.s))), 1) END AS jaccard "
            "FROM d a JOIN d b ON a.doc_id < b.doc_id), "
            "pr AS (SELECT id_a, id_b FROM p WHERE jaccard >= 0.5), "
            "e AS (SELECT id_a AS u, id_b AS v FROM pr "
            "UNION SELECT id_b, id_a FROM pr), "
            "walk(node, reach) AS (SELECT u, u FROM e "
            "UNION SELECT wk.node, e.v FROM walk wk JOIN e ON e.u = wk.reach), "
            "comp AS (SELECT node AS doc_id, min(reach) AS cluster_id "
            "FROM walk GROUP BY node), "
            "rep AS (SELECT dd.doc_id, COALESCE(c.cluster_id, dd.doc_id) AS r "
            "FROM documents dd LEFT JOIN comp c ON c.doc_id = dd.doc_id), "
            "b AS (SELECT doc_id, CAST(concat('0x', "
            "substr(md5(CAST(r AS VARCHAR)), 1, 8)) AS BIGINT) % 100 AS bk "
            "FROM rep) "
            "SELECT CAST(doc_id AS BIGINT) AS doc_id, "
            "CASE WHEN bk < 80 THEN 'train' WHEN bk < 90 THEN 'val' "
            "ELSE 'test' END AS split FROM b ORDER BY doc_id"
        ),
        "pack_texts_documents": (
            "WITH w AS (SELECT doc_id, list_filter(regexp_split_to_array("
            "COALESCE(text, ''), '\\s+'), t -> t <> '') AS ws FROM documents), "
            "c AS (SELECT doc_id, ws, COALESCE(SUM(len(ws)) OVER (ORDER BY doc_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off FROM w), "
            "t AS (SELECT c.off + generate_subscripts(ws, 1) - 1 AS gidx, "
            "UNNEST(ws) AS tok FROM c) "
            "SELECT CAST(gidx // 512 AS BIGINT) AS seq_id, "
            "CAST(count(*) AS BIGINT) AS n_tokens, "
            "string_agg(tok, ' ' ORDER BY gidx) AS text "
            "FROM t GROUP BY 1 ORDER BY 1"
        ),
        "mix_sources_documents": (
            "WITH tok AS (SELECT doc_id, source, CAST(len(regexp_extract_all("
            "text, '\\S+')) AS BIGINT) AS n_tokens FROM documents), "
            "r AS (SELECT doc_id, source, n_tokens, CAST(concat('0x', "
            "substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) AS rk FROM tok), "
            "c AS (SELECT doc_id, source, CAST(SUM(n_tokens) OVER "
            "(PARTITION BY source ORDER BY rk, doc_id ROWS UNBOUNDED PRECEDING) "
            "AS BIGINT) AS cum_tokens FROM r) "
            "SELECT doc_id, source, cum_tokens FROM c "
            "WHERE cum_tokens <= 700 ORDER BY doc_id"
        ),
        "json_field_events": (
            "SELECT event_id, CAST(json_extract_string(props, '$.k') AS BIGINT) "
            "AS k FROM events ORDER BY event_id"
        ),
        "explode_embeddings": (
            # WITH ORDINALITY spelled the DuckDB-sandbox way:
            # UNNEST + generate_subscripts zip positionally
            "SELECT vec_id, (generate_subscripts(embedding, 1) - 1)::BIGINT "
            "AS pos, ROUND(UNNEST(embedding)::DOUBLE, 6) AS el "
            "FROM embeddings ORDER BY vec_id, pos"
        ),
        "rollup_events_type_day": (
            "SELECT COALESCE(event_type, 'ALL') AS event_type, "
            "COALESCE(strftime(date_trunc('day', ts), '%Y-%m-%d'), 'ALL') AS d, "
            "(2 - GROUPING(event_type) "
            " - GROUPING(strftime(date_trunc('day', ts), '%Y-%m-%d')))::BIGINT "
            "AS level, ROUND(SUM(value), 6) AS sum_value, "
            "COUNT(value)::BIGINT AS n FROM events "
            "GROUP BY ROLLUP(event_type, strftime(date_trunc('day', ts), '%Y-%m-%d')) "
            "ORDER BY level, event_type, d"
        ),
        "psi_drift_events": (
            "WITH r AS (SELECT value FROM events WHERE event_id % 5 <> 0 "
            "AND value IS NOT NULL), "
            "nw AS (SELECT value FROM events WHERE event_id % 5 = 0 "
            "AND value IS NOT NULL), "
            "p AS (SELECT min(value) AS lo, (max(value) - min(value)) / 10.0 "
            "AS w FROM r), "
            "rc AS (SELECT LEAST(GREATEST(CAST(floor((value - p.lo) / p.w) AS "
            "BIGINT), 0), 9) AS bucket, count(*) AS n FROM r, p GROUP BY 1), "
            "nc AS (SELECT LEAST(GREATEST(CAST(floor((value - p.lo) / p.w) AS "
            "BIGINT), 0), 9) AS bucket, count(*) AS n FROM nw, p GROUP BY 1), "
            "tot AS (SELECT (SELECT count(*) FROM r) AS tr, "
            "(SELECT count(*) FROM nw) AS tn), "
            "g AS (SELECT bucket FROM range(0, 10) t(bucket)), "
            "j AS (SELECT g.bucket, COALESCE(rc.n, 0) AS n_ref, "
            "COALESCE(nc.n, 0) AS n_new, "
            "COALESCE(rc.n, 0)::DOUBLE / tot.tr AS p_ref, "
            "COALESCE(nc.n, 0)::DOUBLE / tot.tn AS p_new "
            "FROM g LEFT JOIN rc USING (bucket) LEFT JOIN nc USING (bucket), tot) "
            "SELECT j.bucket, ROUND(p.lo + p.w * j.bucket, 6) AS lo, "
            "ROUND(p.lo + p.w * (j.bucket + 1), 6) AS hi, "
            "j.n_ref, j.n_new, ROUND(j.p_ref, 6) AS p_ref, "
            "ROUND(j.p_new, 6) AS p_new, "
            "ROUND(((CASE WHEN j.p_ref = 0 THEN 1e-6 ELSE j.p_ref END) - "
            "(CASE WHEN j.p_new = 0 THEN 1e-6 ELSE j.p_new END)) * "
            "ln((CASE WHEN j.p_ref = 0 THEN 1e-6 ELSE j.p_ref END) / "
            "(CASE WHEN j.p_new = 0 THEN 1e-6 ELSE j.p_new END)), 6) AS psi "
            "FROM j, p ORDER BY j.bucket"
        ),
        "cohort_retention_events": (
            "WITH p AS (SELECT DISTINCT user_id, date_trunc('week', ts) AS per "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
            "f AS (SELECT user_id, min(per) AS coh FROM p GROUP BY user_id) "
            "SELECT strftime(f.coh, '%Y-%m-%d') AS cohort, "
            "strftime(p.per, '%Y-%m-%d') AS period, count(*)::BIGINT AS n_users "
            "FROM p JOIN f USING (user_id) GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "minmax_events_by_type": (
            "SELECT event_id, ROUND((value - MIN(value) OVER (PARTITION BY "
            "event_type)) / NULLIF(MAX(value) OVER (PARTITION BY event_type) "
            "- MIN(value) OVER (PARTITION BY event_type), 0), 6) AS minmax "
            "FROM events ORDER BY event_id"
        ),
        "heavy_hitter_tokens": (
            "SELECT CAST(20 AS BIGINT) AS k, TRUE AS recall_ok, TRUE AS all_ge"
        ),
        "lag_delta_events": (
            "SELECT event_id, "
            "ROUND(LAG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id), 6) "
            "AS prev_value, "
            "ROUND(value - LAG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id), 6) "
            "AS delta FROM events ORDER BY event_id"
        ),
        "lag2_delta_events": (
            "SELECT event_id, "
            "ROUND(LAG(value, 2) OVER (PARTITION BY user_id ORDER BY ts, event_id), 6) "
            "AS prev_value, "
            "ROUND(value - LAG(value, 2) OVER (PARTITION BY user_id ORDER BY ts, event_id), 6) "
            "AS delta FROM events ORDER BY event_id"
        ),
        "lead_delta_events": (
            "SELECT event_id, "
            "ROUND(LEAD(value) OVER (PARTITION BY user_id ORDER BY ts, event_id), 6) "
            "AS next_value, "
            "ROUND(LEAD(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) - value, 6) "
            "AS delta FROM events ORDER BY event_id"
        ),
        "schema_diff_documents": (
            "WITH da AS (SELECT column_name AS col, column_type AS ta FROM "
            "(DESCRIBE SELECT doc_id, text, lang, source, n_chars FROM documents)), "
            "db AS (SELECT column_name AS col, column_type AS tb FROM "
            "(DESCRIBE SELECT doc_id, lang, source, "
            "CAST(n_chars AS DOUBLE) AS n_chars, CAST(1 AS BIGINT) AS flag "
            "FROM documents)) "
            "SELECT COALESCE(da.col, db.col) AS col, "
            "CASE WHEN da.col IS NULL THEN 'added' "
            "WHEN db.col IS NULL THEN 'removed' "
            "WHEN ta <> tb THEN 'changed' ELSE 'unchanged' END AS status, "
            "ta AS dtype_a, tb AS dtype_b "
            "FROM da FULL OUTER JOIN db ON da.col = db.col ORDER BY col"
        ),
        "hashed_vectors_documents": (
            "WITH t AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents), "
            "wu AS (SELECT doc_id, UNNEST(regexp_extract_all(text, '\\S+')) AS term FROM t), "
            "d AS (SELECT doc_id, "
            "CAST(concat('0x', substr(md5(term), 1, 8)) AS BIGINT) % 16 AS dim "
            "FROM wu) "
            "SELECT doc_id, dim, CAST(count(*) AS BIGINT) AS value "
            "FROM d GROUP BY doc_id, dim ORDER BY doc_id, dim"
        ),
        "bm25_multi_documents": (
            "WITH q(query_id, term) AS (VALUES "
            "('q1', 'hash'), ('q1', 'join'), ('q2', 'merge'), "
            "('q2', 'stream'), ('q3', 'sort'), ('q3', 'scan'), "
            "('q3', 'table')), "
            "t AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents), "
            "wu AS (SELECT doc_id, UNNEST(regexp_extract_all(text, '\\S+')) AS term FROM t), "
            "dl AS (SELECT doc_id, count(*) AS dl FROM wu GROUP BY doc_id), "
            "st AS (SELECT (SELECT count(*) FROM t) AS n, "
            "(SELECT count(*) FROM wu) * 1.0 / (SELECT count(*) FROM t) AS avgdl), "
            "tf AS (SELECT doc_id, term, count(*) AS tf FROM wu "
            "WHERE term IN (SELECT DISTINCT term FROM q) GROUP BY doc_id, term), "
            "df AS (SELECT term, count(DISTINCT doc_id) AS df FROM wu "
            "WHERE term IN (SELECT DISTINCT term FROM q) GROUP BY term) "
            "SELECT q.query_id, tf.doc_id, ROUND(SUM("
            "ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5)) "
            "* (tf.tf * (1.2 + 1)) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * (dl.dl / st.avgdl)))"
            "), 6) AS score FROM q JOIN tf USING (term) JOIN df USING (term) "
            "JOIN dl USING (doc_id), st "
            "GROUP BY q.query_id, tf.doc_id ORDER BY q.query_id, tf.doc_id"
        ),
        "bm25_scores_documents": (
            "WITH t AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents), "
            "wu AS (SELECT doc_id, UNNEST(regexp_extract_all(text, '\\S+')) AS term FROM t), "
            "dl AS (SELECT doc_id, count(*) AS dl FROM wu GROUP BY doc_id), "
            "st AS (SELECT (SELECT count(*) FROM t) AS n, "
            "(SELECT count(*) FROM wu) * 1.0 / (SELECT count(*) FROM t) AS avgdl), "
            "tf AS (SELECT doc_id, term, count(*) AS tf FROM wu "
            "WHERE term IN ('hash','join','merge','stream') GROUP BY doc_id, term), "
            "df AS (SELECT term, count(DISTINCT doc_id) AS df FROM wu "
            "WHERE term IN ('hash','join','merge','stream') GROUP BY term) "
            "SELECT tf.doc_id, ROUND(SUM("
            "ln(1 + (st.n - df.df + 0.5) / (df.df + 0.5)) "
            "* (tf.tf * (1.2 + 1)) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * (dl.dl / st.avgdl)))"
            "), 6) AS score FROM tf JOIN df USING (term) JOIN dl USING (doc_id), st "
            "GROUP BY tf.doc_id ORDER BY tf.doc_id"
        ),
        "value_histogram_events": (
            "SELECT value, count, ROUND(count * 1.0 / "
            "(SELECT COUNT(*) FROM events), 6) AS ratio FROM ("
            "SELECT COALESCE(CAST(event_type AS VARCHAR), 'NullValue') AS value, "
            "COUNT(*) AS count FROM events GROUP BY 1 "
            "ORDER BY count DESC, value LIMIT 4"
            ") ORDER BY value"
        ),
        "robust_stats_events": (
            # nearest-rank (half-to-even) median and MAD per event_type,
            # then the modified-z outlier count with the same fixed
            # expression shape the engine computes
            "WITH s AS (SELECT event_type AS k, value AS v FROM events "
            "WHERE event_type IS NOT NULL AND value IS NOT NULL), "
            "r AS (SELECT k, v, row_number() OVER (PARTITION BY k ORDER BY v)"
            " AS rn, count(*) OVER (PARTITION BY k) AS c FROM s), "
            "i AS (SELECT k, CAST(floor(0.5 * (c - 1)) AS BIGINT) AS k0, "
            "0.5 * (c - 1) - floor(0.5 * (c - 1)) AS frac "
            "FROM (SELECT DISTINCT k, c FROM r) t), "
            "kk AS (SELECT k, k0 + (CASE WHEN frac > 0.5 THEN 1 "
            "WHEN frac = 0.5 AND k0 % 2 = 1 THEN 1 ELSE 0 END) AS sel FROM i), "
            "med AS (SELECT r.k, r.v AS med FROM r JOIN kk "
            "ON r.k = kk.k AND r.rn = kk.sel + 1), "
            "d AS (SELECT s.k, s.v, med.med, ABS(s.v - med.med) AS dev "
            "FROM s JOIN med ON s.k = med.k), "
            "r2 AS (SELECT k, dev, row_number() OVER (PARTITION BY k ORDER BY dev)"
            " AS rn, count(*) OVER (PARTITION BY k) AS c FROM d), "
            "i2 AS (SELECT k, CAST(floor(0.5 * (c - 1)) AS BIGINT) AS k0, "
            "0.5 * (c - 1) - floor(0.5 * (c - 1)) AS frac "
            "FROM (SELECT DISTINCT k, c FROM r2) t), "
            "kk2 AS (SELECT k, k0 + (CASE WHEN frac > 0.5 THEN 1 "
            "WHEN frac = 0.5 AND k0 % 2 = 1 THEN 1 ELSE 0 END) AS sel FROM i2), "
            "mad AS (SELECT r2.k, r2.dev AS mad FROM r2 JOIN kk2 "
            "ON r2.k = kk2.k AND r2.rn = kk2.sel + 1) "
            "SELECT d.k AS event_type, ROUND(MAX(d.med), 6) AS median, "
            "ROUND(MAX(mad.mad), 6) AS mad, "
            "CAST(SUM(CASE WHEN mad.mad > 0 AND "
            "ABS(0.6745 * (d.v - d.med) / mad.mad) > 3.5 THEN 1 ELSE 0 END) "
            "AS BIGINT) AS n_outliers "
            "FROM d JOIN mad ON d.k = mad.k GROUP BY d.k ORDER BY event_type"
        ),
        "grouped_weighted_sample_events": (
            "SELECT event_type, event_id, ROUND(value, 6) AS value FROM ("
            "SELECT event_type, event_id, value, row_number() OVER ("
            "PARTITION BY event_type ORDER BY value / "
            "((CAST(concat('0x', substr(md5(CAST(event_id AS VARCHAR)), 1, 8)) "
            "AS BIGINT) + 1) / 4294967296.0) DESC, event_id) AS rn "
            "FROM events WHERE value > 0 AND event_id IS NOT NULL "
            "AND event_type IS NOT NULL"
            ") WHERE rn <= 50 ORDER BY event_type, event_id"
        ),
        "weighted_sample_events": (
            "SELECT event_id, ROUND(value, 6) AS value FROM ("
            "SELECT event_id, value, value / "
            "((CAST(concat('0x', substr(md5(CAST(event_id AS VARCHAR)), 1, 8)) "
            "AS BIGINT) + 1) / 4294967296.0) AS q "
            "FROM events WHERE value > 0 AND event_id IS NOT NULL "
            "ORDER BY q DESC, event_id LIMIT 500"
            ") ORDER BY event_id"
        ),
        "grouped_corr_lineitem": (
            "SELECT l_returnflag, "
            "ROUND(corr(l_quantity, l_extendedprice), 6) AS corr_xy "
            "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"
        ),
        "first_last_value_events": (
            "SELECT DISTINCT event_type, "
            "ROUND(FIRST_VALUE(value) OVER "
            "(PARTITION BY event_type ORDER BY ts, event_id), 6) AS first_value, "
            "ROUND(LAST_VALUE(value) OVER "
            "(PARTITION BY event_type ORDER BY ts, event_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING), 6) "
            "AS last_value FROM events WHERE event_type IS NOT NULL "
            "ORDER BY event_type"
        ),
        # multimodal fixtures are real BMP/WAV/HQV1 payloads whose decoded
        # metrics are closed-form in the id (synth_*_params in
        # pipelines/multimodal.py); every double below is a dyadic rational,
        # IEEE-exact on both sides, so no rounding is needed
        "multimodal_image_stats": (
            "SELECT r.range AS image_id, "
            "CAST(16 + (r.range % 13) * 4 AS INTEGER) AS width, "
            "CAST(16 + ((r.range * 7) % 11) * 4 AS INTEGER) AS height, "
            "CAST(3 AS INTEGER) AS channels, "
            "CAST((r.range * 37) % 256 AS DOUBLE) AS mean_luma, "
            "TRUE AS real_decode "  # fixtures are real BMPs — the per-row
            # flag must say so (False would mean the fake path ran)
            "FROM range(200) r ORDER BY image_id"
        ),
        # same closed-form pixel content as image_stats, but the fixture
        # alternates BMP (even ids) / pure-stdlib PNG (odd ids) payloads —
        # real_decode must be TRUE for every row on BOTH decode paths
        "multimodal_png_mixed_stats": (
            "SELECT r.range AS image_id, "
            "CAST(16 + (r.range % 13) * 4 AS INTEGER) AS width, "
            "CAST(16 + ((r.range * 7) % 11) * 4 AS INTEGER) AS height, "
            "CAST(3 AS INTEGER) AS channels, "
            "CAST((r.range * 37) % 256 AS DOUBLE) AS mean_luma, "
            "TRUE AS real_decode "
            "FROM range(200) r ORDER BY image_id"
        ),
        "multimodal_audio_stats": (
            "SELECT r.range AS audio_id, "
            "CAST(16000 AS INTEGER) AS sample_rate, "
            "CAST(8000 + (r.range % 5) * 4000 AS DOUBLE) / 16000 "
            "AS duration_sec, "
            "CAST((r.range * 1000) % 20000 AS DOUBLE) / 32768 AS rms, "
            "TRUE AS real_decode "
            "FROM range(200) r ORDER BY audio_id"
        ),
        "multimodal_frame_stats": (
            "SELECT v.range AS video_id, "
            "CAST(j.range AS INTEGER) AS frame_idx, "
            "CAST(16 AS INTEGER) AS width, CAST(16 AS INTEGER) AS height, "
            "CAST((v.range * 31 + j.range * 17) % 256 AS DOUBLE) "
            "AS mean_luma, TRUE AS real_decode "
            "FROM range(200) v CROSS JOIN range(4) j "
            "WHERE j.range < 2 + (v.range % 3) "
            "ORDER BY video_id, frame_idx"
        ),
    }
    # incremental index diff shares the direct diff's exact semantics
    d["diff_against_index_transcripts"] = d["conversation_diff_transcripts"]
    return d


# -- round-3 session-4 ops ---------------------------------------------------

def _union_users_click_purchase(sf_dir: str):
    """Distributed SQL UNION (distinct): users seen in the click slice or
    the purchase slice — per-block Arrow distinct combiner, one groupby."""
    from hooqu_ray.pipelines.setops import union_distinct

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def slice_(etype):
        return ev.map_batches(
            lambda t, _e=etype: t.filter(
                pc.equal(t.column("event_type"), _e)
            ).select(["user_id"]),
            batch_format="pyarrow",
        )

    df = union_distinct(slice_("click"), slice_("purchase")).to_pandas()
    df["user_id"] = df["user_id"].astype("int64")
    return df.sort_values("user_id", ignore_index=True)


def _intersect_users_click_purchase(sf_dir: str):
    """Distributed SQL INTERSECT: users present in BOTH slices."""
    from hooqu_ray.pipelines.setops import intersect_distinct

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def slice_(etype):
        return ev.map_batches(
            lambda t, _e=etype: t.filter(
                pc.equal(t.column("event_type"), _e)
            ).select(["user_id"]),
            batch_format="pyarrow",
        )

    df = intersect_distinct(slice_("click"), slice_("purchase")).to_pandas()
    df["user_id"] = df["user_id"].astype("int64")
    return df.sort_values("user_id", ignore_index=True)


def _except_pairs_low_value(sf_dir: str):
    """Distributed SQL EXCEPT over a TWO-column row set: (user, event_type)
    pairs that never carried value > 50."""
    from hooqu_ray.pipelines.setops import except_distinct

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    a = ev.map_batches(
        lambda t: t.select(["user_id", "event_type"]), batch_format="pyarrow"
    )
    b = ev.map_batches(
        lambda t: t.filter(pc.greater(t.column("value"), 50.0)).select(
            ["user_id", "event_type"]
        ),
        batch_format="pyarrow",
    )
    df = except_distinct(a, b).to_pandas()
    df["user_id"] = df["user_id"].astype("int64")
    return df.sort_values(["user_id", "event_type"], ignore_index=True)


def _full_join_orders_customer(sf_dir: str):
    """FULL OUTER bucketed hash join — the customer side is filtered to
    ``c_custkey % 3 != 0`` so BOTH unmatched directions exist (orders whose
    customer was dropped, customers with no orders).  Nullable outputs are
    coalesced to sentinel/flag columns so the value-hash compare stays
    dtype-exact."""
    import pandas as pd

    from hooqu_ray.functions.joins import hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def keep_two_thirds(t: pa.Table) -> pa.Table:
        keys = np.asarray(t.column("c_custkey"))
        return t.filter(pa.array(keys % 3 != 0))

    cust_f = cust.map_batches(keep_two_thirds, batch_format="pyarrow")
    df = hash_join(
        orders, cust_f, on="o_custkey", right_on="c_custkey", how="full",
    ).to_pandas()
    out = pd.DataFrame(
        {
            "o_orderkey": df["o_orderkey"].fillna(-1).astype("int64"),
            "custkey": df["o_custkey"].astype("int64"),  # coalesced key
            "has_order": df["o_orderkey"].notna(),
            "has_cust": df["c_acctbal"].notna(),
            "c_acctbal": df["c_acctbal"].fillna(0.0).round(6),
        }
    )
    return out.sort_values(["o_orderkey", "custkey"], ignore_index=True)


def _running_sum_events(sf_dir: str):
    """Per-user running SUM + ROW_NUMBER in (ts, event_id) order — exact
    parity with the SQL UNBOUNDED PRECEDING window, rounded to 6 decimals
    on both sides."""
    from hooqu_ray.pipelines.windows import running_agg

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    df = running_agg(ds, "user_id", "ts", "event_id", "value").to_pandas()
    df = df[["event_id", "run_sum", "run_n"]]
    df["run_sum"] = df["run_sum"].round(6)
    df = df.astype({"event_id": "int64", "run_n": "int64"})
    return df.sort_values("event_id", ignore_index=True)


def _zscore_events_by_type(sf_dir: str):
    """Per-event-type z-score of value (population std) — combiner moments
    + one slim groupby + broadcast stamp; parity with the SQL window form."""
    from hooqu_ray.pipelines.relational import grouped_zscore

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    df = grouped_zscore(ds, "event_type", "value").to_pandas()
    df = df[["event_id", "zscore"]]
    df["zscore"] = df["zscore"].round(6)
    df["event_id"] = df["event_id"].astype("int64")
    return df.sort_values("event_id", ignore_index=True)


def _approx_distinct_users_per_type(sf_dir: str):
    """Bound-style oracle: the exact per-group distinct counts hash-match
    the SQL, and the per-group HLL estimates are asserted within 5 %."""
    from hooqu_ray.pipelines.relational import (
        grouped_approx_count_distinct, grouped_count_distinct)

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    exact = grouped_count_distinct(ds, "event_type", "user_id").to_pandas()
    approx = grouped_approx_count_distinct(
        ds, "event_type", "user_id", p=12
    ).to_pandas()
    m = exact.merge(approx, on="event_type")
    m["within_tol"] = (
        (m["approx_distinct"] - m["n_distinct"]).abs()
        / m["n_distinct"].clip(lower=1)
    ) <= 0.05
    m["n_distinct"] = m["n_distinct"].astype("int64")
    return m[["event_type", "n_distinct", "within_tol"]].sort_values(
        "event_type", ignore_index=True
    )


def _pack_sequences_documents(sf_dir: str):
    """GPT-style sequence-packing plan over whitespace token counts:
    global token offsets from one range exchange (never a full collect),
    sequences of 2048 tokens."""
    from hooqu_ray.pipelines.relational import pack_sequences
    from hooqu_ray.pipelines.textstats import token_count_stage

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    counted = ds.map_batches(token_count_stage, batch_format="pyarrow").map_batches(
        lambda t: t.select(["doc_id", "n_tokens"]), batch_format="pyarrow"
    )
    df = pack_sequences(counted, "doc_id", "n_tokens", 2048).to_pandas()
    for c in ["doc_id", "n_tokens", "token_start", "seq_start", "seq_end", "n_seqs"]:
        df[c] = df[c].astype("int64")
    return df.sort_values("doc_id", ignore_index=True)


def _line_filter_frequent_documents(sf_dir: str):
    """Boilerplate removal: every space-delimited token of ≥ 4 chars that
    occurs ≥ 5 times corpus-wide is removed from EVERY document (the
    synthetic docs are single-line, so the gate runs the operator at word
    granularity like line_dedup_documents does)."""
    from hooqu_ray.pipelines.dedup import line_filter_frequent

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = line_filter_frequent(
        ds, min_count=5, min_line_chars=4, delimiter=" "
    ).to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values("doc_id", ignore_index=True)


def _keep_best_dedup_documents(sf_dir: str):
    """Near-dup cluster collapse keeping the HIGHEST-n_chars member of each
    verified (Jaccard ≥ 0.5) cluster, ties to the smaller doc_id — the
    quality-aware dedup policy.  Oracle: recursive-CTE reachability closure
    + window argmax in SQL."""
    import pandas as pd

    from hooqu_ray.pipelines.cluster import dedup_keep_best
    from hooqu_ray.pipelines.dedup import minhash_lsh_pairs, verify_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    cands = minhash_lsh_pairs(docs, num_perm=128, bands=64, threshold=0.0)
    ver = verify_pairs(docs, cands, threshold=0.5)
    kept = dedup_keep_best(
        docs, ver, id_col="doc_id", score_col="n_chars", id_type=pa.int64()
    )
    df = kept.to_pandas()[["doc_id"]]
    if len(df) == 0:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64")})
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values("doc_id", ignore_index=True)


def _grouped_vector_mean(sf_dir: str):
    """Per-label mean embedding (centroid) in exploded (label, pos, mean)
    form — fully distributed vector aggregate."""
    from hooqu_ray.pipelines.similarity import grouped_vector_mean

    ds = _read(sf_dir, "embeddings", ["embedding", "label"])
    df = grouped_vector_mean(ds, "embedding", "label").to_pandas()
    df["label"] = df["label"].astype("int64")
    return df.sort_values(["label", "pos"], ignore_index=True)


def _dup_rate_by_source(sf_dir: str):
    """Per-source duplication rate.  Duplicates are injected on BOTH sides
    (docs with doc_id % 7 == 0 re-appended) so the metric is non-trivial."""
    from hooqu_ray.pipelines.dedup import dup_rate_by_source

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def dup_shard(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        return t.filter(pa.array(ids % 7 == 0))

    dups = docs.map_batches(dup_shard, batch_format="pyarrow")
    df = dup_rate_by_source(docs.union(dups), "text", "source").to_pandas()
    return df.sort_values("source", ignore_index=True)


def _blocklist_filter_documents(sf_dir: str):
    """C4-style blocklist filter: drop documents containing any listed
    phrase (word-boundary, case-insensitive).  Terms chosen so the filter
    actually drops rows on this corpus.  Oracle: NOT regexp_matches with
    the engine's own pattern string."""
    from hooqu_ray.pipelines.filters import blocklist_filter

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    kept = blocklist_filter(docs, _BLOCKLIST_TERMS)
    df = kept.to_pandas()[["doc_id"]]
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values("doc_id", ignore_index=True)


# a bare word, a multi-word phrase, and an absent term — kept
# rate ~22% on this corpus, so the filter is exercised both ways
_BLOCKLIST_TERMS = ["spark", "slow merge", "scuzzbucket"]


def _length_bucket_batches(sf_dir: str):
    """Padding-efficient batching plan: length buckets at [64, 128) tokens,
    batch of 8 within bucket in doc_id order."""
    from hooqu_ray.pipelines.packing import length_bucket_batches

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = length_bucket_batches(ds, "doc_id", "text", [64, 128], 8).to_pandas()
    return df.astype({"doc_id": "int64", "bucket": "int64",
                      "batch_idx": "int64"}).sort_values(
        "doc_id", ignore_index=True)


def _explode_vec(t: pa.Table, id_col: str, vec_col: str, out_val: str,
                 val_type) -> "Any":
    """(id, list) → exploded (id, pos, value) DataFrame — the driver's
    value hash can't digest list cells, so list-valued ops are checked in
    exploded form (same convention as vector_mean_embeddings)."""
    col = t.column(vec_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_fixed_size_list(col.type):
        col = col.cast(pa.list_(col.type.value_type))
    flat = pc.list_flatten(col)
    parent = pc.list_parent_indices(col)
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
    pos = np.concatenate([np.arange(n, dtype=np.int64) for n in lens]) \
        if len(lens) else np.array([], dtype=np.int64)
    out = pa.table({
        id_col: pc.cast(t.column(id_col).take(parent), pa.int64()),
        "pos": pa.array(pos),
        out_val: pc.cast(flat, val_type),
    }).to_pandas()
    return out.sort_values([id_col, "pos"], ignore_index=True)


def _l2_normalize_embeddings(sf_dir: str):
    """Row-wise L2 normalization; zero vectors -> all zeros.  Checked in
    exploded (vec_id, pos, value) form."""
    from hooqu_ray.pipelines.similarity import l2_normalize

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    t = pa.Table.from_pandas(l2_normalize(ds).to_pandas(),
                             preserve_index=False)
    t = pa.table({"vec_id": t.column("vec_id"),
                  "embedding": pa.array(
                      t.column("embedding").to_pylist(),
                      pa.list_(pa.float64()))})
    return _explode_vec(t, "vec_id", "embedding", "value", pa.float64())


def _quantize_int8_embeddings(sf_dir: str):
    """Symmetric per-vector int8 quantization (TRUNC toward zero).
    Checked in exploded (vec_id, pos, code) form; the per-vector scale is
    checked separately inside the same result (pos = -1 row carries it)."""
    from hooqu_ray.pipelines.similarity import quantize_int8

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    df = quantize_int8(ds).to_pandas()[["vec_id", "qvec", "scale"]]
    t = pa.table({"vec_id": pa.array(df["vec_id"].astype("int64")),
                  "qvec": pa.array(df["qvec"].map(
                      lambda v: [int(x) for x in v]),
                      pa.list_(pa.int64()))})
    codes = _explode_vec(t, "vec_id", "qvec", "code", pa.int64())
    import pandas as pd

    scales = pd.DataFrame({
        "vec_id": df["vec_id"].astype("int64"),
        "pos": np.int64(-1),
        "code": np.round(df["scale"].astype("float64") * 1e6).astype(
            "int64"),  # scale×10^6 as the pos=-1 code row
    })
    out = pd.concat([codes, scales], ignore_index=True)
    return out.sort_values(["vec_id", "pos"], ignore_index=True)


def _roundtrip_documents(sf_dir: str, write_fn, read_back, prefix: str):
    """Shared sink→source round-trip scaffold: documents written through a
    boundary and read back must be value-identical — a value-hash match
    against the original table (the oracle) proves the boundary is
    lossless.  ``read_back(dir, cols)`` returns the re-read DataFrame."""
    import shutil
    import tempfile

    docs = _read(sf_dir, "documents")
    d = tempfile.mkdtemp(prefix=prefix)
    try:
        write_fn(docs, d, min_rows_per_file=200)
        cols = ["doc_id", "text", "lang", "source", "n_chars"]
        df = read_back(d, cols)[cols]
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return df.sort_values("doc_id", ignore_index=True)


def _jsonl_roundtrip_documents(sf_dir: str):
    """JSONL boundary (unicode, quotes, newlines, empty strings)."""
    from hooqu_ray.sources.io import read_jsonl, write_jsonl

    return _roundtrip_documents(
        sf_dir, write_jsonl,
        lambda d, cols: read_jsonl(d).to_pandas(), "hooqu_jsonl_rt_")


def _csv_roundtrip_documents(sf_dir: str):
    """CSV boundary (quoting preserves commas/quotes/newlines; the typed
    read pins dtypes so numeric-looking strings survive inference; the
    null-vs-empty-string split stays exact)."""
    from hooqu_ray.sources.io import read_csv, write_csv

    schema = pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string()),
        ("lang", pa.string()), ("source", pa.string()),
        ("n_chars", pa.int64())])

    return _roundtrip_documents(
        sf_dir, write_csv,
        lambda d, cols: read_csv(d, columns=cols,
                                 schema=schema).to_pandas(),
        "hooqu_csv_rt_")


def _regex_extract_documents(sf_dir: str):
    """Regex field extraction (functions/strings.regex_extract): first
    7+-letter word in each document, DuckDB regexp_extract parity — rows
    without a match carry '' (both cases occur at sf0.01)."""
    from hooqu_ray.functions.strings import regex_extract

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = regex_extract(ds, "text", r"(?P<w>[a-z]{7,})").to_pandas()
    return out[["doc_id", "w"]].sort_values("doc_id", ignore_index=True)


def _inverted_index_documents(sf_dir: str):
    """Capped inverted-index postings (term, rank, doc_id); cap at 5 so
    the truncation path is exercised on corpus-frequent terms."""
    from hooqu_ray.pipelines.textstats import inverted_index

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = inverted_index(ds, "text", "doc_id", max_postings=5).to_pandas()
    return df.astype({"rank": "int64", "doc_id": "int64"}).sort_values(
        ["term", "rank"], ignore_index=True)


def _vocab_stats_documents(sf_dir: str):
    """Per-source vocabulary profile: tokens, types, hapax, TTR."""
    from hooqu_ray.pipelines.textstats import vocab_stats

    docs = _read(sf_dir, "documents", ["source", "text"])
    df = vocab_stats(docs, "text", "source").to_pandas()
    return df.sort_values("source", ignore_index=True)


def _split_by_cluster_documents(sf_dir: str):
    """Leakage-safe split: every verified (Jaccard >= 0.5) near-dup cluster
    lands in ONE split — split = md5 bucket of the cluster's minimum
    doc_id; singletons use their own id.  Oracle: recursive-CTE
    reachability closure + the split_assign md5-percentile CASE."""
    import pandas as pd

    from hooqu_ray.pipelines.cluster import split_by_cluster
    from hooqu_ray.pipelines.dedup import minhash_lsh_pairs, verify_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    cands = minhash_lsh_pairs(docs, num_perm=128, bands=64, threshold=0.0)
    ver = verify_pairs(docs, cands, threshold=0.5)
    out = split_by_cluster(docs, ver, id_col="doc_id", id_type=pa.int64())
    df = out.to_pandas()[["doc_id", "split"]]
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values("doc_id", ignore_index=True)


def _pack_texts_documents(sf_dir: str):
    """Materialized sequence packing: 512-token training sequences from the
    id-ordered global token stream (the writer counterpart of
    pack_sequences_documents' plan table)."""
    from hooqu_ray.pipelines.packing import pack_texts

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = pack_texts(ds, "doc_id", "text", 512).to_pandas()
    df = df.astype({"seq_id": "int64", "n_tokens": "int64"})
    return df.sort_values("seq_id", ignore_index=True)


def _mix_sources_documents(sf_dir: str):
    """Deterministic data-mixing selection: per source keep docs in
    md5(doc_id) rank order while the running token total stays ≤ 700."""
    from hooqu_ray.pipelines.relational import mix_sources
    from hooqu_ray.pipelines.textstats import token_count_stage

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    counted = ds.map_batches(token_count_stage, batch_format="pyarrow")
    df = mix_sources(
        counted, "source", "doc_id", "n_tokens", default_budget=700
    ).to_pandas()
    df = df.astype({"doc_id": "int64", "cum_tokens": "int64"})
    return df.sort_values("doc_id", ignore_index=True)


def _json_field_events(sf_dir: str):
    """Vectorized JSON field extraction from the events props payload."""
    from hooqu_ray.functions.jsonx import json_field

    ds = _read(sf_dir, "events", ["event_id", "props"])
    df = json_field(ds, "props", "k", arrow_type=pa.int64()).to_pandas()
    df = df[["event_id", "k"]].astype({"event_id": "int64", "k": "int64"})
    return df.sort_values("event_id", ignore_index=True)


def _explode_embeddings(sf_dir: str):
    """UNNEST-with-ordinality over a real list<float> column: one shuffle-
    free map_batches (Arrow list offsets → parent indices + positions)."""
    from hooqu_ray.functions.lists import explode

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    df = explode(ds, "embedding", ["vec_id"]).to_pandas()
    df["el"] = df["el"].astype("float64").round(6)
    df = df[["vec_id", "pos", "el"]].astype(
        {"vec_id": "int64", "pos": "int64"}
    )
    return df.sort_values(["vec_id", "pos"], ignore_index=True)


def _rollup_events_type_day(sf_dir: str):
    """GROUP BY ROLLUP(event_type, day): finest level from one combiner +
    one shuffle, coarser levels re-aggregate the finest aggregate."""
    from hooqu_ray.pipelines.relational import rollup_agg

    def add_day(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "d": pc.strftime(
                    pc.floor_temporal(t.column("ts"), unit="day"),
                    format="%Y-%m-%d",
                ),
                "value": t.column("value"),
            }
        )

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"]).map_batches(
        add_day, batch_format="pyarrow"
    )
    df = rollup_agg(ds, ["event_type", "d"], "value").to_pandas()
    df["sum_value"] = df["sum_value"].round(6)
    df = df.astype({"level": "int64", "n": "int64"})
    return df.sort_values(
        ["level", "event_type", "d"], ignore_index=True
    )[["event_type", "d", "level", "sum_value", "n"]]


def _cohort_retention_events(sf_dir: str):
    """Weekly cohort retention matrix over events (distinct-pair combiner,
    slim shuffles, broadcast cohort stamp)."""
    from hooqu_ray.pipelines.relational import cohort_retention

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    df = cohort_retention(
        ds, "user_id", "ts", unit="week", fmt="%Y-%m-%d"
    ).to_pandas()
    df["n_users"] = df["n_users"].astype("int64")
    return df.sort_values(["cohort", "period"], ignore_index=True)


def _psi_drift_events(sf_dir: str):
    """PSI distribution drift of events.value between two derived
    snapshots (event_id % 5 != 0 as reference, == 0 as new): equal-width
    buckets over the reference range, per-bucket counts via bincount
    combiners, the proportions/PSI arithmetic mirrored exactly in SQL."""
    from hooqu_ray.pipelines.drift import drift_report

    def shard(keep_new: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t.column("event_id").to_numpy(zero_copy_only=False)
            is_new = (ids % 5) == 0
            return t.filter(pa.array(is_new if keep_new else ~is_new))

        return f

    ds = _read(sf_dir, "events", ["event_id", "value"])
    ref = ds.map_batches(shard(False), batch_format="pyarrow")
    new = ds.map_batches(shard(True), batch_format="pyarrow")
    df = drift_report(ref, new, "value", n_buckets=10).to_pandas()
    for c in ("lo", "hi", "p_ref", "p_new", "psi"):
        df[c] = df[c].round(6)
    return df.sort_values("bucket", ignore_index=True)


def _lag_delta_events(sf_dir: str, periods: int = 1):
    """Per-user LAG(value, periods) + delta in (ts, event_id) order —
    exact parity with the SQL LAG window, rounded to 6 decimals on both
    sides."""
    from hooqu_ray.pipelines.windows import lag_delta

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    df = lag_delta(ds, "user_id", "ts", "event_id", "value",
                   periods=periods).to_pandas()
    df = df[["event_id", "prev_value", "delta"]]
    df["prev_value"] = df["prev_value"].round(6)
    df["delta"] = df["delta"].round(6)
    df["event_id"] = df["event_id"].astype("int64")
    return df.sort_values("event_id", ignore_index=True)


def _lead_delta_events(sf_dir: str, periods: int = 1):
    """Per-user LEAD(value, periods) + forward delta in (ts, event_id)
    order — exact parity with the SQL LEAD window, rounded to 6 decimals
    on both sides."""
    from hooqu_ray.pipelines.windows import lead_delta

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    df = lead_delta(ds, "user_id", "ts", "event_id", "value",
                    periods=periods).to_pandas()
    df = df[["event_id", "next_value", "delta"]]
    df["next_value"] = df["next_value"].round(6)
    df["delta"] = df["delta"].round(6)
    df["event_id"] = df["event_id"].astype("int64")
    return df.sort_values("event_id", ignore_index=True)


def _first_last_value_events(sf_dir: str):
    """Per-event-type FIRST_VALUE / LAST_VALUE in (ts, event_id) order —
    the fold-based window (no corpus sort), exact parity with the SQL
    FIRST_VALUE/LAST_VALUE windows (selection, so rounding is belt and
    braces only)."""
    from hooqu_ray.pipelines.windows import grouped_first_last

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])
    df = grouped_first_last(ds, "event_type", "ts", "event_id",
                            "value").to_pandas()
    df["first_value"] = df["first_value"].round(6)
    df["last_value"] = df["last_value"].round(6)
    return df.sort_values("event_type", ignore_index=True)


def _grouped_corr_lineitem(sf_dir: str):
    """Per-returnflag Pearson corr(quantity, extendedprice) — the
    tree-fold raw-co-moment reduction vs DuckDB's streaming corr(),
    rounded to 6 decimals on both sides."""
    from hooqu_ray.pipelines.relational import grouped_corr

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])
    df = grouped_corr(ds, "l_returnflag", "l_quantity",
                      "l_extendedprice").to_pandas()
    df["corr_xy"] = df["corr_xy"].round(6)
    return df.sort_values("l_returnflag", ignore_index=True)


def _grouped_weighted_sample_events(sf_dir: str):
    """Per-event-type 50-row priority sample (q = w/u within each group)
    — the balanced-per-source selection; bit-identical priorities in
    DuckDB, so the per-group row SETS match exactly."""
    from hooqu_ray.pipelines.relational import grouped_weighted_sample

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    out = grouped_weighted_sample(ds, "event_type", "event_id", "value", 50)
    df = out.to_pandas()
    df["value"] = df["value"].round(6)
    df["event_id"] = df["event_id"].astype("int64")
    return df.sort_values(["event_type", "event_id"], ignore_index=True)


def _robust_stats_events(sf_dir: str):
    """Per-event-type robust dispersion profile (median, MAD, modified-z
    outlier count at the Iglewicz–Hoaglin z=3.5 default) — both
    quantiles are the engine's pandas-nearest rule, the outlier
    predicate a fixed IEEE expression, so all three columns match the
    SQL re-derivation exactly."""
    from hooqu_ray.pipelines.relational import grouped_robust_stats

    ds = _read(sf_dir, "events", ["event_type", "value"])
    df = grouped_robust_stats(ds, "event_type", "value").to_pandas()
    df["median"] = df["median"].round(6)
    df["mad"] = df["mad"].round(6)
    df["n_outliers"] = df["n_outliers"].astype("int64")
    return df.sort_values("event_type", ignore_index=True)


def _weighted_sample_events(sf_dir: str):
    """Priority sampling (q = w/u, u the exact dyadic md5 fraction): the
    500 largest-priority positive-value events — bit-identical priority
    in DuckDB, so the selected row SET matches exactly."""
    from hooqu_ray.pipelines.relational import weighted_sample

    ds = _read(sf_dir, "events", ["event_id", "value"])
    df = weighted_sample(ds, "event_id", "value", 500).to_pandas()
    df["value"] = df["value"].round(6)
    df["event_id"] = df["event_id"].astype("int64")
    return df.sort_values("event_id", ignore_index=True)


def _value_histogram_events(sf_dir: str):
    """Deequ-Histogram-shaped top-4 event_type distribution
    (value, count, ratio) — exercises the k-cut and the ratio
    denominator (all rows, not just surviving bins)."""
    from hooqu_ray.pipelines.relational import value_histogram

    ds = _read(sf_dir, "events", ["event_type"])
    df = value_histogram(ds, "event_type", k=4).to_pandas()
    df["ratio"] = df["ratio"].round(6)
    df["count"] = df["count"].astype("int64")
    return df.sort_values("value", ignore_index=True)


def _bm25_scores_documents(sf_dir: str):
    """BM25 relevance of every matching document for a fixed 4-term
    query — Lucene idf, k1=1.2 b=0.75, whitespace tokens; the oracle
    computes the identical closed-form expression, rounded to 6
    decimals on both sides (measured agreement ~1e-16)."""
    from hooqu_ray.pipelines.textstats import bm25_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = bm25_scores(ds, "hash join merge stream").to_pandas()
    df["score"] = df["score"].round(6)
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values("doc_id", ignore_index=True)


def _schema_diff_documents(sf_dir: str):
    """Column-level drift between the documents snapshot and a mutated
    variant (text dropped, n_chars re-typed to DOUBLE, flag added) —
    driver-side schema diff vs a DESCRIBE FULL OUTER JOIN oracle."""
    from hooqu_ray.analyzers.schema_checks import schema_diff

    a = _read(sf_dir, "documents",
              ["doc_id", "text", "lang", "source", "n_chars"])

    def mutate(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["text"])
        t = t.set_column(t.column_names.index("n_chars"), "n_chars",
                         pc.cast(t.column("n_chars"), pa.float64()))
        return t.append_column(
            "flag", pa.array(np.ones(len(t), dtype=np.int64)))

    b = a.map_batches(mutate, batch_format="pyarrow")
    df = schema_diff(a, b).to_pandas()
    # pandas represents the absent side as None already; keep dtype str
    return df.sort_values("col", ignore_index=True)


def _bm25_multi_documents(sf_dir: str):
    """Batch BM25: three queries scored in ONE corpus pass (shared match
    table + per-term df); the oracle re-derives every (query, doc) score
    from a VALUES query-term table, rounded to 6 decimals."""
    from hooqu_ray.pipelines.textstats import bm25_scores_multi

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = bm25_scores_multi(ds, {"q1": "hash join", "q2": "merge stream",
                                "q3": "sort scan table"}).to_pandas()
    df["score"] = df["score"].round(6)
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values(["query_id", "doc_id"], ignore_index=True)


def _windowed_distinct_users(sf_dir: str):
    """Tumbling-hour COUNT(DISTINCT user_id) — the epoch-floor window
    stamp equals date_trunc('hour') on naive timestamps, and the
    distinct count rides the bucketed pair exchange."""
    from hooqu_ray.pipelines.windows import windowed_count_distinct

    ds = _read(sf_dir, "events", ["ts", "user_id"])
    df = windowed_count_distinct(ds, "ts", "user_id", 3600.0).to_pandas()
    df["n_distinct"] = df["n_distinct"].astype("int64")
    return df.sort_values("window_start", ignore_index=True)


def _hashed_vectors_documents(sf_dir: str):
    """Hashing-trick doc vectors (k=16, md5 dim assignment) in exploded
    (doc_id, dim, value) form — the oracle evaluates the identical md5
    expression per token, so counts match exactly."""
    from hooqu_ray.pipelines.similarity import hashed_doc_vectors

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = hashed_doc_vectors(ds, k=16, hash_fn="md5").to_pandas()
    for c in ("doc_id", "dim", "value"):
        df[c] = df[c].astype("int64")
    return df.sort_values(["doc_id", "dim"], ignore_index=True)


def _heavy_hitter_tokens(sf_dir: str):
    """Bound-style oracle for the count-min-sketch heavy hitters: every
    estimate must be ≥ its exact count (CMS never undercounts) and the
    reported top-20 tokens must cover ≥ 0.9 of the exact top-20 (tie
    boundaries may legitimately differ by one)."""
    from hooqu_ray.pipelines.cms import heavy_hitters
    from hooqu_ray.util import collect_arrow

    def explode(t: pa.Table) -> pa.Table:
        text = t.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lists = pc.split_pattern_regex(pc.fill_null(text, ""), pattern=r"\s+")
        flat = lists.flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        return pa.table({"tok": flat})

    toks = _read(sf_dir, "documents", ["text"]).map_batches(
        explode, batch_format="pyarrow"
    )
    hh = heavy_hitters(toks, "tok", 20, width=8192, depth=4)

    from ray.data.aggregate import Count

    exact_tbl = collect_arrow(toks.groupby("tok").aggregate(Count()))
    import pandas as pd

    exact = (
        exact_tbl.to_pandas()
        .rename(columns={"count()": "n"})
        .sort_values(["n", "tok"], ascending=[False, True], ignore_index=True)
    )
    top_exact = set(exact.head(20)["tok"])
    exact_counts = dict(zip(exact["tok"], exact["n"]))
    got = hh.to_pandas()
    recall = len(set(got["tok"]) & top_exact) / 20.0
    all_ge = bool(
        all(int(e) >= int(exact_counts.get(t, 0))
            for t, e in zip(got["tok"], got["est_count"]))
    )
    return pa.table(
        {
            "k": pa.array([20], pa.int64()),
            "recall_ok": pa.array([recall >= 0.9], pa.bool_()),
            "all_ge": pa.array([all_ge], pa.bool_()),
        }
    )


def _minmax_events_by_type(sf_dir: str):
    """Per-event-type min-max scaling of value to [0, 1] — parity with the
    SQL window form, rounded to 6 decimals on both sides."""
    from hooqu_ray.pipelines.relational import grouped_minmax

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    df = grouped_minmax(ds, "event_type", "value").to_pandas()
    df = df[["event_id", "minmax"]]
    df["minmax"] = df["minmax"].round(6)
    df["event_id"] = df["event_id"].astype("int64")
    return df.sort_values("event_id", ignore_index=True)


# -- multimodal tier (real built-in codecs: BMP / PCM16 WAV / HQV1) ---------
#
# The fixtures are REAL byte payloads (bmp_encode / wav_encode /
# video_encode) whose decoded metrics are closed-form functions of the id,
# so the oracles recompute every value in SQL from a generated series.  All
# emitted doubles are IEEE-exact on both sides (dyadic rationals), so no
# rounding is applied.


def _mm_blocks(kind: str):
    """Synthesized multimodal fixture as an 8-block dataset (a single
    Arrow table is ONE block, which would serialize the actor pool)."""
    import ray.data as rd

    from hooqu_ray.pipelines.multimodal import synthesize_binary_table

    t = synthesize_binary_table(200, kind=kind)
    return rd.from_arrow([t.slice(i, 25) for i in range(0, 200, 25)])


def _multimodal_image_stats(sf_dir: str, kind: str = "image"):
    """Image decode over an actor pool: (image_id, width, height, channels,
    mean_luma) for 200 synthesized constant-fill images.  kind="image" is
    all 24-bit BMPs; kind="image_mixed" alternates BMP / 8-bit truecolor
    PNG payloads with identical pixel content, exercising BOTH real
    built-in decode paths under one closed-form oracle."""
    import ray.data as rd

    from hooqu_ray.pipelines.multimodal import (
        DEFAULT_BINARY_BATCH_SIZE, ImageDecodeStage, synthesize_binary_table)

    ds = _mm_blocks(kind)
    out = ds.map_batches(
        ImageDecodeStage, batch_format="pyarrow",
        batch_size=DEFAULT_BINARY_BATCH_SIZE, concurrency=2,
    ).map_batches(lambda t: t.drop_columns(["image"]), batch_format="pyarrow")
    return out.to_pandas().sort_values("image_id", ignore_index=True)


def _multimodal_audio_stats(sf_dir: str):
    """PCM16 WAV decode over an actor pool: (audio_id, sample_rate,
    duration_sec, rms) for 200 synthesized constant-sample WAVs."""
    import ray.data as rd

    from hooqu_ray.pipelines.multimodal import (
        DEFAULT_BINARY_BATCH_SIZE, AudioFeatureStage, synthesize_binary_table)

    ds = _mm_blocks("audio")
    out = ds.map_batches(
        AudioFeatureStage, batch_format="pyarrow",
        batch_size=DEFAULT_BINARY_BATCH_SIZE, concurrency=2,
    ).map_batches(lambda t: t.drop_columns(["audio"]), batch_format="pyarrow")
    return out.to_pandas().sort_values("audio_id", ignore_index=True)


def _multimodal_frame_stats(sf_dir: str):
    """Frame-sample → image-decode composition: HQV1 containers split into
    their real BMP frames (flat-map), each frame decoded by the image
    stage — (video_id, frame_idx, width, height, mean_luma)."""
    import ray.data as rd

    from hooqu_ray.pipelines.multimodal import (
        DEFAULT_BINARY_BATCH_SIZE, FrameSampleStage, ImageDecodeStage,
        synthesize_binary_table)

    ds = _mm_blocks("video")
    frames = ds.map_batches(
        FrameSampleStage, batch_format="pyarrow",
        batch_size=DEFAULT_BINARY_BATCH_SIZE, concurrency=2)
    out = frames.map_batches(
        ImageDecodeStage, fn_constructor_kwargs={"image_col": "frame"},
        batch_format="pyarrow", batch_size=DEFAULT_BINARY_BATCH_SIZE,
        concurrency=2,
    ).map_batches(
        lambda t: t.drop_columns(["frame", "channels"]),
        batch_format="pyarrow")
    return out.to_pandas().sort_values(
        ["video_id", "frame_idx"], ignore_index=True)


def _multimodal_resize_pipeline(sf_dir: str):
    """Rows-only gate: decode → resize → embedding summary end-to-end
    (the list<float> embedding itself is reduced to scalar norm/mean per
    image — list cells can't ride the driver's value hash)."""
    import numpy as np
    import ray.data as rd

    from hooqu_ray.pipelines.multimodal import (
        DEFAULT_BINARY_BATCH_SIZE, ImageResizeStage, synthesize_binary_table)

    ds = _mm_blocks("image")
    emb = ds.map_batches(
        ImageResizeStage, batch_format="pyarrow",
        batch_size=DEFAULT_BINARY_BATCH_SIZE, concurrency=2)

    def summarize(t):
        import pyarrow as _pa

        arr = np.stack(
            [np.asarray(x, dtype=np.float64)
             for x in t.column("image_embedding").to_pylist()])
        return _pa.table({
            "image_id": t.column("image_id"),
            "emb_dim": _pa.array(
                np.full(len(t), arr.shape[1], np.int64)),
            "emb_mean": _pa.array(arr.mean(axis=1)),
            "emb_norm": _pa.array(np.sqrt((arr * arr).sum(axis=1))),
        })

    out = emb.map_batches(summarize, batch_format="pyarrow")
    return out.to_pandas().sort_values("image_id", ignore_index=True)
