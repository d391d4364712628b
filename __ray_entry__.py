"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in kgruntime) calls ``ray.init`` / ``ray.shutdown``.

* ``entry()`` — flagship KG-construction pipeline at sf0.001 scale.
* ``queries()`` — one callable per implemented operator/pipeline
  (SURVEY.md §2 + training-data ops); each takes ``sf_dir``.
* ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible
  query (same column names; floats rounded identically on both sides).
  KG/fuzzy-hash/LSH pipelines are genuinely non-SQL-expressible and are
  covered by pytest golden parity instead (rows-only here).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow.parquet as pq


def _n_docs_for(sf_dir: str) -> int:
    """Deterministic synthetic-corpus size keyed to the scale factor."""
    try:
        return max(58, pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")).num_rows)
    except Exception:
        return 290


def _synth_docs(sf_dir: str, malformed_every: int = 0):
    import ray.data as rd

    from kgruntime.synth import make_documents_table

    return rd.from_arrow(make_documents_table(
        _n_docs_for(sf_dir), seed=42, malformed_every=malformed_every))


def entry() -> Any:
    """Flagship: synthesize the input_hint corpus at sf0.001 size, run
    extract → link → union-find canonicalize → dedup, return the
    canonical triple store Dataset."""
    from kgruntime.pipelines.kg import build_kg

    docs = _synth_docs("/root/testdata/sf0.001")
    res = build_kg(docs)
    return res["canonical"]


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

_FLAGSHIPS = ("kg_canonical_fused", "minhash_near_dups",
              "near_dedup_corpus", "ann_topk_ivf", "kmeans_clusters",
              "curate_corpus", "user_components")


def _driver_checked() -> set[str]:
    """Names that already have a driver CORRECTNESS row (any round)."""
    import glob
    import json

    here = os.path.dirname(os.path.abspath(__file__))
    seen: set[str] = set()
    for f in sorted(glob.glob(os.path.join(here, "CORRECTNESS_r*.json"))):
        try:
            with open(f) as fh:
                seen |= set(json.load(fh))
        except Exception:
            pass
    return seen


def queries() -> dict[str, Callable[[str], Any]]:
    """Registry, ordered for the driver's 50-slot correctness window.

    The order is SELF-MAINTAINING (VERDICT r4 item 1): entries that have
    never had a driver CORRECTNESS row (per the committed
    CORRECTNESS_r*.json artifacts) lead in registration order, then the
    flagship set, then everything else.  A new registration therefore
    rotates into the window automatically, and committing a round's
    CORRECTNESS file re-derives the next round's window with zero manual
    bookkeeping.  The FULL registry is gated locally every round by
    scripts/check_oracle.py regardless of window position.
    """
    q = _registry()
    seen = _driver_checked()
    ordered: dict[str, Callable[[str], Any]] = {
        k: v for k, v in q.items() if k not in seen}
    for k in _FLAGSHIPS:
        if k in q and k not in ordered:
            ordered[k] = q[k]
    for k, v in q.items():
        if k not in ordered:
            ordered[k] = v
    return ordered


def _registry() -> dict[str, Callable[[str], Any]]:
    # Registration order only breaks ties inside queries()'s
    # never-driver-checked group — the driver window itself is derived.
    from kgruntime import relational as R

    q: dict[str, Callable[[str], Any]] = {
        # --- round-5 registrations first: within the never-checked
        # block the window takes registration order, and the round's
        # NEW claims should earn their driver rows first ---
        "kg_planned_bgp": _q_kg_planned_bgp,
        "maxsim_topk": _q_maxsim_topk,
        "loo_source_influence": _q_loo_source_influence,
        "quality_threshold_sweep": _q_quality_sweep,
        "url_canonical_dups": _q_url_canonical_dups,
        "source_token_budget": _q_source_token_budget,
        "page_stitch_pairs": _q_page_stitch,
        "term_concentration": _q_term_concentration,
        # --- never driver-checked (late r3 registrations) ---
        "incremental_dup_check": _q_incremental_dups,
        "split_leakage": _q_split_leakage,
        "embedding_dup_clusters": _q_emb_dup_clusters,
        "value_percentile_ranks": _q_pct_ranks,
        "events_profile": _q_events_profile,
        "capped_duplicate_sample": _q_capped_dups,
        "reservoir_per_lang": _q_reservoir_lang,
        "asof_purchase_next_click": R.q_asof_purchase_next_click,
        "nation_trade_volume": R.q_nation_trade_volume,
        "media_png_features": _q_media_png,
        "media_resize": _q_media_resize,
        "media_frame_features": _q_media_frame_features,
        # --- new round-4 ops (must be inside the window) ---
        "media_jpeg_features": _q_media_jpeg,
        "media_wav_features": _q_media_wav,
        "char_entropy": _q_char_entropy,
        "bigram_lm_scores": _q_bigram_lm,
        "embedding_outliers": _q_embedding_outliers,
        "purchase_click_window": _q_purchase_click_window,
        "knn_graph": _q_knn_graph,
        "cms_heavy_bigrams": _q_cms_heavy_bigrams,
        "kmv_distinct_users": _q_kmv_distinct,
        "temperature_mix_sample": _q_temp_mix,
        "corpus_diff": _q_corpus_diff,
        "user_value_trend": _q_user_value_trend,
        "bloom_filtered_brand_revenue": R.q_bloom_filtered_brand_revenue,
        "hll_hopping_users": _q_hll_hopping,
        "trimmed_mean_value": _q_trimmed_mean,
        "triangle_census": _q_triangle_census,
        "span_corrupt": _q_span_corrupt,
        "ngram_dedup_rewrite": _q_ngram_dedup,
        "bpe_merges": _q_bpe_merges,
        "k_core_members": _q_k_core,
        "vocab_drift": _q_vocab_drift,
        "orc_roundtrip_stats": _q_orc_roundtrip,
        "ipc_roundtrip_stats": _q_ipc_roundtrip,
        "int8_quant_recall": _q_int8_recall,
        "peak_concurrent_users": _q_peak_concurrency,
        "incremental_near_dups": _q_incremental_near_dups,
        "hard_negatives": _q_hard_negatives,
        "padding_waste": _q_padding_waste,
        "partitioned_export_prune": _q_partitioned_prune,
        "fuzzy_name_matches": _q_fuzzy_names,
        "winnow_dup_pairs": _q_winnow_pairs,
        # --- r3-green entries kept inside the window (flagship KG,
        # dedup/ANN/curation core) ---
        "kg_canonical_fused": _q_kg_fused,
        "curate_corpus": _q_curate_corpus,
        "near_dedup_corpus": _q_near_dedup_corpus,
        "minhash_near_dups": _q_minhash,
        "ann_topk_ivf": _q_ann_ivf,
        "kmeans_clusters": _q_kmeans_clusters,
        "user_components": _q_user_components,
        # --- below slot 50: every entry has a green driver row ---
        "embedding_near_dups": _q_emb_near_dups,
        "ann_topk": _q_ann_topk,
        "simhash_near_dups": _q_simhash,
        "kg_canonical_staged": _q_kg_canonical,
        "kg_triples": _q_kg_triples,
        "ann_topk_lsh": _q_ann_lsh,
        "knn_label_vote": _q_knn_label_vote,
        "clean_corpus": _q_clean_corpus,
        "pii_scan": _q_pii_scan,
        "normalized_dup_docs": _q_normalized_dups,
        "rare_token_pairs": _q_rare_token_pairs,
        "pack_sequences": _q_pack,
        "pagerank_users": _q_pagerank,
        "decayed_user_value": _q_decayed_value,
        "event_path_trigrams": _q_event_trigrams,
        "session_conversion_by_dow": _q_session_conversion,
        "top_terms_per_source": _q_top_terms_source,
        "bloom_distinct_user_days": _q_bloom_user_days,
        "hll_distinct_users": _q_hll,
        "doc_rarity_scores": _q_rarity,
        "dup_rate_by_source": _q_dup_rate,
        "prefix_overlap_pairs": _q_prefix_overlap,
        "suffix_overlap_pairs": _q_suffix_overlap,
        # --- round-4d registrations: below slot 50 on purpose (the r4
        # window is at exact capacity with never-driver-checked entries;
        # these rotate INTO the r5 window, and check_oracle.py gates
        # them locally every round) ---
        "set_sim_join_pairs": _q_set_sim_join,
        "pmi_collocations": _q_pmi_collocations,
        "phrase_search_hits": _q_phrase_search,
        "rfm_segments": _q_rfm_segments,
        "media_gif_frames": _q_media_gif,
        "kg_bgp_rest_first": _q_kg_bgp,
        "mad_by_type": _q_mad_by_type,
        "curriculum_order": _q_curriculum,
        "weighted_sample": _q_weighted_sample,
        "click_attribution": _q_click_attr,
        "principal_component": _q_principal_component,
        "minhash_error_audit": _q_minhash_audit,
        "late_event_audit": _q_late_events,
        "embedding_drift": _q_embedding_drift,
        # --- round-4e registrations (also below slot 50; rotate into
        # the r5 window, locally gated by check_oracle.py) ---
        "dq_audit": _q_dq_audit,
        "lexical_topk": _q_lexical_topk,
        "rrf_fusion": _q_rrf_fusion,
        "entity_clusters": _q_entity_clusters,
        "session_incident_overlap": _q_session_incidents,
        "user_hourly_locf": _q_user_hourly_locf,
        "mg_heavy_trigrams": _q_mg_heavy_trigrams,
        "lpa_communities": _q_lpa_communities,
        "bootstrap_stats": _q_bootstrap_stats,
        "media_phash_dups": _q_media_phash_dups,
        "cdc_chunk_dedup": _q_cdc_chunks,
        "embargo_split_audit": _q_embargo_split,
        "cluster_safe_split": _q_cluster_safe_split,
        "vocab_coverage": _q_vocab_coverage,
        # --- round-4f registrations (below slot 50; rotate into the
        # r5 window, locally gated by check_oracle.py) ---
        "value_purchase_auc": _q_value_auc,
        "langid_confusion": _q_langid_confusion,
        "shingle_novelty": _q_shingle_novelty,
        "trigram_diversity": _q_trigram_diversity,
        "bpe_fertility": _q_bpe_fertility,
        "revenue_cube": _q_revenue_cube,
        "user_active_time": _q_user_active_time,
        "compression_quality": _q_compression_quality,
        "decile_lift": _q_decile_lift,
        "basket_affinity": _q_basket_affinity,
        "ann_recall_audit": _q_ann_recall,
        "bot_regularity": _q_bot_regularity,
        "mmr_diverse_topk": _q_mmr_topk,
        # --- round-4g registrations (below slot 50; rotate into the
        # r5 window, locally gated by check_oracle.py) ---
        "pit_training_features": _q_pit_features,
        "source_overlap_matrix": _q_source_overlap,
        "near_split_leakage": _q_near_split_leakage,
        "dsir_importance": _q_dsir,
        "rec_negative_samples": R.q_rec_negative_samples,
        "markov_next_event": _q_markov_next_event,
        "rp_projection_recall": _q_rp_recall,
        "dp_noisy_counts": _q_dp_noisy,
        "encoding_advisor": _q_encoding_advisor,
        "join_skew_audit": _q_join_skew,
        "range_partition_plan": _q_range_plan,
        "community_modularity": _q_modularity,
        "stickiness_dau_mau": _q_stickiness,
        "cdc_upsert_merge": _q_cdc_merge,
        "feature_cross_hash": _q_feature_cross,
        "zorder_layout_audit": _q_zorder,
        "max_coverage_picks": _q_max_coverage,
        "gzjsonl_roundtrip_stats": _q_gzjsonl_roundtrip,
        "scd2_segment_revenue": R.q_scd2_segment_revenue,
        "retrieval_rank_agreement": _q_rank_agreement,
        "epoch_shuffle_audit": _q_epoch_shuffle,
        "dedup_sensitivity_sweep": _q_dedup_sweep,
        "triplet_mining": _q_triplet_mining,
        "pareto_front_parts": R.q_pareto_front_parts,
        "media_bmp_features": _q_media_bmp,
        "peak_user_rate": _q_peak_rate,
        "events_quarantine": _q_events_quarantine,
        "embedding_gram": _q_embedding_gram,
        "join_strategy_advisor": R.q_join_strategy_advisor,
        "ks_value_drift": _q_ks_drift,
        "benford_audit": _q_benford,
        "subtree_balance_rollup": _q_subtree_rollup,
        "streaming_emit_audit": _q_streaming_emit,
        "pq_quant_recall": _q_pq_recall,
        "bitmap_index_queries": _q_bitmap_index,
        "multi_query_lexical": _q_multi_lexical,
        "k_anonymity_audit": _q_k_anonymity,
        "personalized_pagerank": _q_ppr,
        "copy_genealogy": _q_copy_genealogy,
        "composition_drift": _q_composition_drift,
        "conversion_delay_pcts": _q_conv_delay,
        "supplier_performance": R.q_supplier_performance,
        "kg_star_query": _q_kg_star,
        "trending_part_types": R.q_trending_part_types,
        "kg_incremental_build": _q_kg_incremental,
        "kg_pred_catalog": _q_kg_pred_catalog,
        # --- entries below are outside the driver's 50-query window
        # (every one has a green driver row from r1–r3) ---
        "media_frames": _q_media_frames,
        "minhash_dup_clusters": _q_minhash_clusters,
        "label_centroids": _q_label_centroids,
        "langid_mismatch": _q_langid_mismatch,
        "zscore_by_source": _q_zscore,
        "chunk_documents": _q_chunks,
        "bigram_counts": _q_bigrams,
        "redact_terms": _q_redact,
        "length_deciles": _q_deciles,
        "kg_quarantine": _q_kg_quarantine,
        "kg_mentions": _q_kg_mentions,
        "kg_link_edges": _q_kg_link_edges,
        "kg_assignment": _q_kg_assignment,
        "kg_canonical_store": _q_kg_canonical,
        "media_features": _q_media_features,
        "cooccurrence_edges": _q_cooccur,
        "windowed_event_dedup": _q_win_dedup,
        "event_anomalies": _q_anomalies,
        "split_assign": _q_split_assign,
        "source_mix_weights": _q_source_mix,
        "blocklist_filter": _q_blocklist,
        # long-green suite (driver-verified green in rounds 1 and 2)
        "pricing_summary": R.q_pricing_summary,
        "orders_by_status": R.q_orders_by_status,
        "top_customers": R.q_top_customers,
        "customers_per_region": R.q_customers_per_region,
        "events_by_type_day": R.q_events_by_type_day,
        "user_activity": R.q_user_activity,
        "parts_by_brand": R.q_parts_by_brand,
        "revenue_by_part_type": R.q_revenue_by_part_type,
        "discounted_orders": R.q_discounted_orders,
        "customers_without_orders": R.q_customers_without_orders,
        "distinct_users_per_type": R.q_distinct_users_per_type,
        "shipping_priority": R.q_shipping_priority,
        "top_event_per_user": R.q_top_event_per_user,
        "asof_click_purchase": R.q_asof_click_purchase,
        "value_bands": R.q_value_bands,
        "top_type_per_user": R.q_top_type_per_user,
        "event_value_quantiles": R.q_event_value_quantiles,
        "local_supplier_revenue": R.q_local_supplier_revenue,
        "props_k_stats": R.q_props_k_stats,
        "corr_qty_price": R.q_corr_qty_price,
        "user_event_pivot": R.q_user_event_pivot,
        "rollup_region_nation": R.q_rollup_region_nation,
        "top3_per_nation": R.q_top3_per_nation,
        "monthly_revenue_ma3": R.q_monthly_revenue_ma3,
        "long_docs_p90": R.q_long_docs_p90,
        "events_dow_hour": R.q_events_dow_hour,
        "orders_priority_share": R.q_orders_priority_share,
        "doc_stats": _q_doc_stats,
        "token_stats": _q_token_stats,
        "quality_scores": _q_quality_scores,
        "lang_distribution": _q_lang_distribution,
        "exact_dup_docs": _q_exact_dup_docs,
        "jaccard_adjacent": _q_jaccard_adjacent,
        "term_frequencies": _q_term_freqs,
        "vocab_per_lang": _q_vocab_lang,
        "stratified_sample": _q_strat_sample,
        "repetition_scores": _q_repetition,
        "contamination_check": _q_contamination,
        "tfidf_doc_terms": _q_tfidf_terms,
        "token_shards": _q_token_shards,
        "langid_pred": _q_langid,
        "doc_fingerprints": _q_fingerprints,
        "sessionize": _q_sessionize,
        "tumbling_hourly": _q_tumbling,
        "hopping_2h_1h": _q_hopping,
        "user_gap_stats": _q_user_gaps,
        "running_user_totals": _q_running_totals,
        "event_transitions": _q_transitions,
        "funnel_counts": _q_funnel,
        "retention_cohorts": _q_retention,
    }
    return q


def _docs_ds(sf_dir):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text", "lang", "source",
                                    "n_chars"])


def _q_value_auc(sf_dir):
    """Exact tie-aware AUC of event value as a purchase detector
    (kgruntime/ops/evalm.py:binary_auc)."""
    from kgruntime.ops.evalm import binary_auc

    return binary_auc(_events_ds(sf_dir))


def _value_auc_oracle() -> str:
    from kgruntime.ops.evalm import binary_auc_sql

    return binary_auc_sql()


def _q_langid_confusion(sf_dir):
    """Language-ID confusion summary: per-class precision/recall/F1
    (kgruntime/ops/text.py:langid_confusion)."""
    from kgruntime.ops.text import langid_confusion

    return langid_confusion(_docs_ds(sf_dir))


def _langid_confusion_oracle() -> str:
    from kgruntime.ops.text import langid_confusion_sql

    return langid_confusion_sql()


def _q_shingle_novelty(sf_dir):
    """Per-doc copied-fraction vs earlier corpus
    (kgruntime/ops/dedup.py:shingle_novelty)."""
    from kgruntime.ops.dedup import shingle_novelty

    return shingle_novelty(_docs_ds(sf_dir))


def _shingle_novelty_oracle() -> str:
    from kgruntime.ops.dedup import shingle_novelty_sql

    return shingle_novelty_sql()


def _q_trigram_diversity(sf_dir):
    """Per-source trigram diversity ppm
    (kgruntime/ops/text.py:trigram_diversity)."""
    from kgruntime.ops.text import trigram_diversity

    return trigram_diversity(_docs_ds(sf_dir))


def _trigram_diversity_oracle() -> str:
    from kgruntime.ops.text import trigram_diversity_sql

    return trigram_diversity_sql()


def _q_bpe_fertility(sf_dir):
    """Per-language BPE tokenizer fertility
    (kgruntime/ops/bpe.py:bpe_fertility)."""
    from kgruntime.ops.bpe import bpe_fertility

    return bpe_fertility(_docs_ds(sf_dir))


def _bpe_fertility_oracle() -> str:
    from kgruntime.ops.bpe import bpe_fertility_sql

    return bpe_fertility_sql()


def _q_revenue_cube(sf_dir):
    """CUBE(priority, status) revenue from one corpus pass
    (kgruntime/relational.py:q_revenue_cube)."""
    from kgruntime.relational import q_revenue_cube

    return q_revenue_cube(sf_dir)


def _q_user_active_time(sf_dir):
    """Merged activity-interval union per user
    (kgruntime/ops/sessions.py:user_active_time)."""
    from kgruntime.ops.sessions import user_active_time

    return user_active_time(_events_ds(sf_dir))


def _user_active_time_oracle() -> str:
    from kgruntime.ops.sessions import user_active_time_sql

    return user_active_time_sql()


def _q_compression_quality(sf_dir):
    """Per-doc zlib compressibility signal — rows-only (no SQL codec)
    (kgruntime/ops/text.py:compression_quality)."""
    from kgruntime.ops.text import compression_quality

    return compression_quality(_docs_ds(sf_dir))


def _q_decile_lift(sf_dir):
    """Decile lift / calibration of value as a purchase detector
    (kgruntime/ops/evalm.py:decile_lift)."""
    from kgruntime.ops.evalm import decile_lift

    return decile_lift(_events_ds(sf_dir))


def _decile_lift_oracle() -> str:
    from kgruntime.ops.evalm import decile_lift_sql

    return decile_lift_sql()


def _q_basket_affinity(sf_dir):
    """Part-type co-purchase lift
    (kgruntime/relational.py:q_basket_affinity)."""
    from kgruntime.relational import q_basket_affinity

    return q_basket_affinity(sf_dir)


def _q_doc_stats(sf_dir):
    from ray.data.aggregate import Count, Mean, Sum

    df = _docs_ds(sf_dir).groupby("source") \
        .aggregate(Count(alias_name="n_docs"),
                   Mean("n_chars", alias_name="avg_chars"),
                   Sum("n_chars", alias_name="total_chars")) \
        .to_pandas().sort_values("source").reset_index(drop=True)
    # half-away-from-zero like the DuckDB oracle round(); integer means
    # can be exactly dyadic (odd-sum/2^k) where banker's rounding differs
    v = df["avg_chars"].to_numpy(np.float64)
    df["avg_chars"] = np.copysign(np.floor(np.abs(v) * 1e4 + 0.5), v) / 1e4
    return df


def _q_token_stats(sf_dir):
    from kgruntime.ops.text import token_stats

    return _docs_ds(sf_dir).map_batches(
        token_stats, batch_format="pyarrow").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_quality_scores(sf_dir):
    from kgruntime.ops.text import quality_scores

    return _docs_ds(sf_dir).map_batches(
        quality_scores, batch_format="pyarrow").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_lang_distribution(sf_dir):
    from ray.data.aggregate import Count

    return _docs_ds(sf_dir).groupby("lang") \
        .aggregate(Count(alias_name="n_docs")) \
        .to_pandas().sort_values("lang").reset_index(drop=True)


def _q_exact_dup_docs(sf_dir):
    # shuffle keyed on the 128-bit content hash (16-byte key), with text
    # verified exactly inside each hash group — never a full-text
    # groupby key (kgruntime/ops/dedup.py:exact_dedup_groups)
    from kgruntime.ops.dedup import exact_dedup_groups

    return exact_dedup_groups(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("keep_id").reset_index(drop=True)


def _q_jaccard_adjacent(sf_dir):
    from kgruntime.ops.dedup import jaccard_adjacent_pairs

    return jaccard_adjacent_pairs(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_a").reset_index(drop=True)


# sampling rates per language for the deterministic hash sample (the
# oracle CASE thresholds are generated from the same dict)
_SAMPLE_RATES = {"en": 0.5, "de": 0.25, "fr": 0.25, "es": 0.1, "zh": 0.1}


def _q_term_freqs(sf_dir):
    from kgruntime.ops.text import term_frequencies

    return term_frequencies(_docs_ds(sf_dir)).to_pandas() \
        .sort_values(["cnt", "word"], ascending=[False, True]) \
        .reset_index(drop=True)


def _q_vocab_lang(sf_dir):
    from kgruntime.ops.text import vocab_per_lang

    return vocab_per_lang(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("lang").reset_index(drop=True)


def _q_strat_sample(sf_dir):
    from kgruntime.ops.sample import stratified_sample

    out = stratified_sample(_docs_ds(sf_dir), _SAMPLE_RATES) \
        .select_columns(["doc_id", "lang", "source"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_repetition(sf_dir):
    from kgruntime.ops.text import repetition_scores

    return _docs_ds(sf_dir).map_batches(
        repetition_scores, batch_format="pyarrow").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_contamination(sf_dir):
    from kgruntime.ops.text import contamination_check

    return contamination_check(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_tfidf_terms(sf_dir):
    from kgruntime.ops.text import tfidf_doc_terms

    return tfidf_doc_terms(_docs_ds(sf_dir)).to_pandas() \
        .sort_values(["doc_id", "rnk"]).reset_index(drop=True)


def _q_token_shards(sf_dir):
    from kgruntime.ops.shard import token_budget_shards

    return token_budget_shards(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _events_ds(sf_dir):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "events.parquet"))


def _q_char_entropy(sf_dir):
    from kgruntime.ops.quality import char_entropy_scores

    return char_entropy_scores(_docs_ds(sf_dir))


def _q_bigram_lm(sf_dir):
    from kgruntime.ops.quality import bigram_lm_scores

    return bigram_lm_scores(_docs_ds(sf_dir))


def _q_embedding_outliers(sf_dir):
    import ray.data as rd

    from kgruntime.ops.ann import embedding_outliers

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "label", "embedding"])
    return embedding_outliers(emb)


def _q_media_wav(sf_dir):
    """REAL audio codec path: payloads are actual PCM WAV bytes (RIFF
    container + numpy sample decode, ops/wav.py; per-ref seeded sine
    mixtures at ragged durations); features derive from true waveforms
    (framed RMS, ZCR, rFFT band energies) — rows-only (binary inputs
    are synthesized, not SQL-visible)."""
    import ray.data as rd

    from kgruntime.ops.media import decode_features, synth_wav_table

    refs = [f"media://doc-{i:06d}/wav" for i in range(100)]
    return decode_features(rd.from_arrow(synth_wav_table(refs)))


def _q_knn_graph(sf_dir):
    import ray.data as rd

    from kgruntime.ops.ann import knn_graph

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    return knn_graph(emb, dim=_EMB_DIM, k=5, n_planes=6, n_tables=2)


def _q_cms_heavy_bigrams(sf_dir):
    import ray.data as rd

    from kgruntime.ops.sketch import cms_heavy_bigrams

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return cms_heavy_bigrams(docs)


def _q_kmv_distinct(sf_dir):
    import ray.data as rd

    from kgruntime.ops.sketch import kmv_distinct

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "user_id"])
    return kmv_distinct(ev)


def _q_span_corrupt(sf_dir):
    import ray.data as rd

    from kgruntime.ops.text import span_corrupt

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return span_corrupt(docs)


def _q_ngram_dedup(sf_dir):
    import ray.data as rd

    from kgruntime.ops.dedup import ngram_dedup_rewrite

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return ngram_dedup_rewrite(docs)


def _roundtrip_stats(sf_dir, writer, reader, fmt):
    """Write the documents table through a format sink into /tmp, read
    it back through the matching source, and aggregate — proving the
    sink+source pair preserves the corpus (oracle: the same aggregate
    straight off the parquet)."""
    import shutil

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/kgio/{fmt}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    writer(docs, out)
    return reader(out).groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"))


def _q_gzjsonl_roundtrip(sf_dir):
    from kgruntime.sources.documents import (read_documents_jsonl_gz,
                                             write_documents_jsonl_gz)

    return _roundtrip_stats(sf_dir, write_documents_jsonl_gz,
                            read_documents_jsonl_gz, "gzjsonl")


def _q_orc_roundtrip(sf_dir):
    from kgruntime.sources.documents import (read_documents_orc,
                                             write_documents_orc)

    return _roundtrip_stats(sf_dir, write_documents_orc,
                            read_documents_orc, "orc")


def _q_ipc_roundtrip(sf_dir):
    from kgruntime.sources.documents import (read_documents_ipc,
                                             write_documents_ipc)

    return _roundtrip_stats(sf_dir, write_documents_ipc,
                            read_documents_ipc, "ipc")


def _q_vocab_drift(sf_dir):
    import ray.data as rd

    from kgruntime.ops.dedup import synth_prior_snapshot, vocab_drift

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return vocab_drift(docs, synth_prior_snapshot(docs))


def _q_k_core(sf_dir):
    """2-core of the strong-tie (n_shared ≥ 5) co-occurrence graph —
    same edge set as triangle_census."""
    import ray.data as rd

    from kgruntime.ops.graph import k_core
    from kgruntime.ops.sessions import cooccurrence_edges

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "ts"])
    edges = cooccurrence_edges(ev).filter(expr="n_shared >= 5")
    return k_core(edges, k=2, rounds=8)


def _q_bpe_merges(sf_dir):
    import ray.data as rd

    from kgruntime.ops.bpe import bpe_merges

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["text"])
    return bpe_merges(docs, rounds=8)


def _q_triangle_census(sf_dir):
    """Strong-tie (n_shared ≥ 5) co-occurrence graph: the raw graph is
    near-complete at bench scale (avg degree ~1000 — 197M triangles at
    sf0.1), so the census runs on the edges that carry signal; the
    threshold is replicated in the oracle's HAVING."""
    import ray.data as rd

    from kgruntime.ops.graph import triangle_count
    from kgruntime.ops.sessions import cooccurrence_edges

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "ts"])
    edges = cooccurrence_edges(ev).filter(expr="n_shared >= 5")
    return triangle_count(edges)


def _q_hll_hopping(sf_dir):
    import ray.data as rd

    from kgruntime.ops.sessions import hll_distinct_hopping

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts"])
    return hll_distinct_hopping(ev)


def _q_trimmed_mean(sf_dir):
    import ray.data as rd

    from kgruntime.ops.stats import trimmed_mean_by_group

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    return trimmed_mean_by_group(ev)


def _q_user_value_trend(sf_dir):
    import ray.data as rd

    from kgruntime.ops.sessions import user_value_trend

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])
    return user_value_trend(ev)


def _q_temp_mix(sf_dir):
    import ray.data as rd

    from kgruntime.ops.sample import temperature_mix_sample

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["source", "doc_id"])
    return temperature_mix_sample(docs)


def _q_corpus_diff(sf_dir):
    import ray.data as rd

    from kgruntime.ops.dedup import corpus_diff, synth_prior_snapshot

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return corpus_diff(docs, synth_prior_snapshot(docs))


def _q_purchase_click_window(sf_dir):
    from kgruntime.ops.sessions import purchase_click_window

    return purchase_click_window(_events_ds(sf_dir))


def _q_sessionize(sf_dir):
    from kgruntime.ops.sessions import sessionize

    return sessionize(_events_ds(sf_dir)).to_pandas() \
        .sort_values(["user_id", "session_start"]).reset_index(drop=True)


def _q_tumbling(sf_dir):
    from kgruntime.ops.sessions import tumbling_hourly

    return tumbling_hourly(_events_ds(sf_dir)).to_pandas() \
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)


def _q_hopping(sf_dir):
    from kgruntime.ops.sessions import hopping_windows

    return hopping_windows(_events_ds(sf_dir)).to_pandas() \
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)


def _q_user_gaps(sf_dir):
    from kgruntime.ops.sessions import user_gap_stats

    return user_gap_stats(_events_ds(sf_dir)).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)


def _q_running_totals(sf_dir):
    from kgruntime.ops.sessions import running_user_totals

    return running_user_totals(_events_ds(sf_dir)).to_pandas() \
        .sort_values(["user_id", "event_id"]).reset_index(drop=True)


def _pin_cols(df, cols):
    """Ray 2.49 drops the schema of an all-empty dataset (CLAUDE.md
    gotcha); pin the expected columns so degenerate corpora sort/compare
    instead of KeyError-ing."""
    return df.reindex(columns=cols) if df.empty else df


def _q_transitions(sf_dir):
    from kgruntime.ops.sessions import event_transitions

    return _pin_cols(event_transitions(_events_ds(sf_dir)).to_pandas(),
                     ["from_type", "to_type", "n_pairs"]) \
        .sort_values(["from_type", "to_type"]).reset_index(drop=True)


def _q_funnel(sf_dir):
    from kgruntime.ops.sessions import funnel_counts

    return _pin_cols(funnel_counts(_events_ds(sf_dir)).to_pandas(),
                     ["stage_idx", "stage", "n_users"]) \
        .sort_values("stage_idx").reset_index(drop=True)


def _q_retention(sf_dir):
    from kgruntime.ops.sessions import retention_cohorts

    return _pin_cols(retention_cohorts(_events_ds(sf_dir)).to_pandas(),
                     ["cohort_day", "day_offset", "n_users"]) \
        .sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)


def _q_win_dedup(sf_dir):
    from kgruntime.ops.sessions import windowed_event_dedup

    return _pin_cols(windowed_event_dedup(_events_ds(sf_dir)).to_pandas(),
                     ["event_id", "user_id", "event_type", "ts"]) \
        .sort_values("event_id").reset_index(drop=True)


def _q_cooccur(sf_dir):
    from kgruntime.ops.sessions import cooccurrence_edges

    return _pin_cols(cooccurrence_edges(_events_ds(sf_dir)).to_pandas(),
                     ["user_a", "user_b", "n_shared"]) \
        .sort_values(["user_a", "user_b"]).reset_index(drop=True)


def _q_pagerank(sf_dir):
    import pyarrow as pa

    from kgruntime.ops.graph import pagerank
    from kgruntime.ops.sessions import cooccurrence_edges

    pairs = cooccurrence_edges(_events_ds(sf_dir)) \
        .select_columns(["user_a", "user_b"])

    def both_dirs(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.Table.from_arrays([t["user_a"], t["user_b"]],
                                 names=["src", "dst"]),
            pa.Table.from_arrays([t["user_b"], t["user_a"]],
                                 names=["src", "dst"])])

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow")
    return _pin_cols(pagerank(edges).to_pandas(),
                     ["user_id", "rank_scaled"]) \
        .sort_values("user_id").reset_index(drop=True)


def _q_ppr(sf_dir):
    """Personalized PageRank (seed teleport to the 5 smallest nodes)
    (kgruntime/ops/graph.py:personalized_pagerank)."""
    import pyarrow as pa

    from kgruntime.ops.graph import personalized_pagerank
    from kgruntime.ops.sessions import cooccurrence_edges

    pairs = cooccurrence_edges(_events_ds(sf_dir)) \
        .select_columns(["user_a", "user_b"])

    def both_dirs(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.Table.from_arrays([t["user_a"], t["user_b"]],
                                 names=["src", "dst"]),
            pa.Table.from_arrays([t["user_b"], t["user_a"]],
                                 names=["src", "dst"])])

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow")
    return personalized_pagerank(edges).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)


def _ppr_oracle() -> str:
    from kgruntime.ops.graph import personalized_pagerank_sql

    return personalized_pagerank_sql()


_ANN_N_QUERIES = 10
_ANN_K = 5


def _load_queries(sf_dir):
    # ORDER BY vec_id LIMIT N as a DuckDB streaming top-k over the
    # parquet: only the N query rows ever reach the driver.  (The r3
    # version read + sorted the WHOLE embeddings table driver-side — a
    # full-corpus materialization at 100x.)  Vectors go list<float> →
    # matrix via flatten().to_numpy().reshape, never to_pylist.
    import duckdb

    path = os.path.join(sf_dir, "embeddings.parquet")
    t = duckdb.sql(
        f"SELECT vec_id, embedding FROM read_parquet('{path}') "
        f"ORDER BY vec_id LIMIT {_ANN_N_QUERIES}").arrow()
    ids = t["vec_id"].to_pylist()
    emb = t["embedding"].combine_chunks()
    q = emb.flatten().to_numpy(zero_copy_only=False) \
        .astype(np.float64, copy=False).reshape(len(ids), -1)
    return q, ids


def _q_partitioned_prune(sf_dir):
    """Write the corpus hive-partitioned by lang, then answer an
    English-only aggregate by reading ONLY the lang=en partition
    directory — partition pruning at the read (the resumable-output +
    prune-at-the-read conventions in one query)."""
    import shutil

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/kgio/hive-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    rd.read_parquet(os.path.join(sf_dir, "documents.parquet")) \
        .write_parquet(out, partition_cols=["lang"])
    pruned = rd.read_parquet(os.path.join(out, "lang=en"))
    return pruned.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"))


def _q_fuzzy_names(sf_dir):
    """Blocked edit-distance record linkage over distinct part names
    (kgruntime/ops/linkage.py)."""
    import ray.data as rd

    from kgruntime.ops.linkage import fuzzy_name_matches

    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                            columns=["p_name"])
    return fuzzy_name_matches(parts)


def _q_set_sim_join(sf_dir):
    """Prefix-filtered exact Jaccard set-similarity self-join
    (kgruntime/ops/dedup.py:set_sim_join)."""
    from kgruntime.ops.dedup import set_sim_join

    return set_sim_join(_docs_ds(sf_dir))


def _q_pmi_collocations(sf_dir):
    """Integer-exact PMI collocation ranking
    (kgruntime/ops/text.py:pmi_collocations)."""
    from kgruntime.ops.text import pmi_collocations

    return pmi_collocations(_docs_ds(sf_dir))


_PHRASE = "table value"


def _q_phrase_search(sf_dir):
    """Positional-inverted-index phrase search
    (kgruntime/ops/text.py:phrase_search)."""
    from kgruntime.ops.text import phrase_search

    return phrase_search(_docs_ds(sf_dir), _PHRASE)


def _q_embedding_drift(sf_dir):
    """Per-dimension mean drift vs a prior snapshot (vec_id % 5 != 0,
    the synth-prior convention)
    (kgruntime/ops/ann.py:embedding_drift)."""
    import ray.data as rd

    from kgruntime.ops.ann import embedding_drift

    import pyarrow.compute as _pc

    cur = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])

    def prior_mask(t):
        # Ray filter(expr=...) can't parse `%` BinOps — Arrow mask
        mod5 = _pc.subtract(t["vec_id"],
                            _pc.multiply(_pc.divide(t["vec_id"], 5), 5))
        return t.filter(_pc.not_equal(mod5, 0))

    prior = cur.map_batches(prior_mask, batch_format="pyarrow")
    return embedding_drift(cur.select_columns(["embedding"]),
                           prior.select_columns(["embedding"]))


def _q_dq_audit(sf_dir):
    """Data-quality constraint audit: nulls, domains, PK uniqueness,
    FK integrity, policy thresholds (kgruntime/ops/dq.py:dq_audit)."""
    import ray.data as rd

    from kgruntime.ops.dq import dq_audit

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"])
    lineitem = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity", "l_discount"])
    customer = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                               columns=["c_custkey"])
    return dq_audit(orders, lineitem, customer)


def _dq_audit_oracle() -> str:
    from kgruntime.ops.dq import DQ_AUDIT_SQL

    return DQ_AUDIT_SQL


_LEX_QUERY = "dup scan filter"   # one rare term (df≈5%) + two common


def _q_lexical_topk(sf_dir):
    """Integer BM25-family lexical retrieval
    (kgruntime/ops/text.py:lexical_topk)."""
    from kgruntime.ops.text import lexical_topk

    return lexical_topk(_docs_ds(sf_dir), _LEX_QUERY)


def _lexical_topk_oracle() -> str:
    from kgruntime.ops.text import lexical_topk_sql

    return lexical_topk_sql(_LEX_QUERY)


def _q_rrf_fusion(sf_dir):
    """Hybrid retrieval: reciprocal-rank fusion of the lexical and
    embedding rankings (kgruntime/ops/ann.py:rrf_fusion).  Query
    vector = the min-vec_id row via a pushdown LIMIT-1 read."""
    import duckdb

    from kgruntime.ops.ann import rrf_fusion

    path = os.path.join(sf_dir, "embeddings.parquet")
    t = duckdb.sql(f"SELECT embedding FROM read_parquet('{path}') "
                   f"ORDER BY vec_id LIMIT 1").arrow()
    qvec = t["embedding"].combine_chunks().flatten() \
        .to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    import ray.data as rd

    emb = rd.read_parquet(path, columns=["vec_id", "embedding"])
    return rrf_fusion(_docs_ds(sf_dir), emb, _LEX_QUERY, qvec)


def _rrf_fusion_oracle() -> str:
    from kgruntime.ops.ann import rrf_fusion_sql

    return rrf_fusion_sql(_LEX_QUERY)


def _q_rank_agreement(sf_dir):
    """Kendall-tau agreement between the lexical and embedding top-r
    rankings (kgruntime/ops/ann.py:rank_agreement)."""
    import duckdb

    import ray.data as rd

    from kgruntime.ops.ann import rank_agreement

    path = os.path.join(sf_dir, "embeddings.parquet")
    t = duckdb.sql(f"SELECT embedding FROM read_parquet('{path}') "
                   f"ORDER BY vec_id LIMIT 1").arrow()
    qvec = t["embedding"].combine_chunks().flatten() \
        .to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    emb = rd.read_parquet(path, columns=["vec_id", "embedding"])
    return rank_agreement(_docs_ds(sf_dir), emb, _LEX_QUERY, qvec)


def _rank_agreement_oracle() -> str:
    from kgruntime.ops.ann import rank_agreement_sql

    return rank_agreement_sql(_LEX_QUERY)


def _q_epoch_shuffle(sf_dir):
    """Deterministic per-epoch shuffle-order audit
    (kgruntime/ops/sample.py:epoch_shuffle_audit)."""
    from kgruntime.ops.sample import epoch_shuffle_audit

    return epoch_shuffle_audit(_docs_ds(sf_dir))


def _epoch_shuffle_oracle() -> str:
    from kgruntime.ops.sample import epoch_shuffle_audit_sql

    return epoch_shuffle_audit_sql()


def _q_peak_rate(sf_dir):
    """Per-user peak sliding-window event rate
    (kgruntime/ops/sessions.py:peak_user_rate)."""
    from kgruntime.ops.sessions import peak_user_rate

    return peak_user_rate(_events_ds(sf_dir))


def _peak_rate_oracle() -> str:
    from kgruntime.ops.sessions import peak_user_rate_sql

    return peak_user_rate_sql()


def _q_events_quarantine(sf_dir):
    """Record validation with quarantine split over a deterministically
    corrupted ingest view
    (kgruntime/ops/dq.py:validate_and_quarantine)."""
    from kgruntime.ops.dq import validate_and_quarantine

    return validate_and_quarantine(_events_ds(sf_dir))


def _events_quarantine_oracle() -> str:
    from kgruntime.ops.dq import validate_and_quarantine_sql

    return validate_and_quarantine_sql()


def _q_embedding_gram(sf_dir):
    """Exact distributed gram matrix over fixed-point embedding units
    (kgruntime/ops/ann.py:embedding_gram_matrix)."""
    import ray.data as rd

    from kgruntime.ops.ann import embedding_gram_matrix

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["embedding"])
    return embedding_gram_matrix(emb)


def _embedding_gram_oracle() -> str:
    from kgruntime.ops.ann import embedding_gram_matrix_sql

    return embedding_gram_matrix_sql()


def _q_ks_drift(sf_dir):
    """Exact two-sample KS distance between click and purchase value
    distributions (kgruntime/ops/stats.py:ks_two_samples)."""
    from kgruntime.ops.stats import ks_two_samples

    return ks_two_samples(_events_ds(sf_dir))


def _ks_drift_oracle() -> str:
    from kgruntime.ops.stats import ks_two_samples_sql

    return ks_two_samples_sql()


def _q_benford(sf_dir):
    """Benford first-digit audit of event values
    (kgruntime/ops/stats.py:benford_audit)."""
    from kgruntime.ops.stats import benford_audit

    return benford_audit(_events_ds(sf_dir))


def _benford_oracle() -> str:
    from kgruntime.ops.stats import benford_audit_sql

    return benford_audit_sql()


def _q_subtree_rollup(sf_dir):
    """Hierarchy subtree rollup by path doubling
    (kgruntime/ops/graph.py:subtree_balance_rollup)."""
    import ray.data as rd

    from kgruntime.ops.graph import subtree_balance_rollup

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_acctbal"])
    return subtree_balance_rollup(cust)


def _subtree_rollup_oracle() -> str:
    from kgruntime.ops.graph import subtree_balance_rollup_sql

    return subtree_balance_rollup_sql()


def _q_streaming_emit(sf_dir):
    """Watermark + allowed-lateness emit accounting vs batch truth
    (kgruntime/ops/sessions.py:streaming_emit_audit)."""
    from kgruntime.ops.sessions import streaming_emit_audit

    return streaming_emit_audit(_events_ds(sf_dir))


def _streaming_emit_oracle() -> str:
    from kgruntime.ops.sessions import streaming_emit_audit_sql

    return streaming_emit_audit_sql()


def _q_bitmap_index(sf_dir):
    """Bitmap secondary index build + conjunctive predicate counts
    (kgruntime/ops/shard.py:bitmap_index_queries)."""
    from kgruntime.ops.shard import bitmap_index_queries

    return bitmap_index_queries(_events_ds(sf_dir))


def _bitmap_index_oracle() -> str:
    from kgruntime.ops.shard import bitmap_index_queries_sql

    return bitmap_index_queries_sql()


_MQ_QUERIES = [_LEX_QUERY, "merge sort window", "vector batch stream"]


def _q_multi_lexical(sf_dir):
    """Batched lexical retrieval for three queries in one corpus scan
    (kgruntime/ops/text.py:multi_query_lexical)."""
    from kgruntime.ops.text import multi_query_lexical

    return multi_query_lexical(_docs_ds(sf_dir), _MQ_QUERIES)


def _multi_lexical_oracle() -> str:
    from kgruntime.ops.text import multi_query_lexical_sql

    return multi_query_lexical_sql(_MQ_QUERIES)


def _q_k_anonymity(sf_dir):
    """k-anonymity audit over (lang, source, n_chars bucket)
    (kgruntime/ops/dq.py:k_anonymity_audit)."""
    from kgruntime.ops.dq import k_anonymity_audit

    return k_anonymity_audit(_docs_ds(sf_dir))


def _k_anonymity_oracle() -> str:
    from kgruntime.ops.dq import k_anonymity_audit_sql

    return k_anonymity_audit_sql()


def _q_copy_genealogy(sf_dir):
    """Document copy-provenance edges
    (kgruntime/ops/dedup.py:copy_genealogy)."""
    from kgruntime.ops.dedup import copy_genealogy

    return copy_genealogy(_docs_ds(sf_dir))


def _copy_genealogy_oracle() -> str:
    from kgruntime.ops.dedup import copy_genealogy_sql

    return copy_genealogy_sql()


def _q_composition_drift(sf_dir):
    """Per-source lang-mix L1 drift between corpus halves
    (kgruntime/ops/dq.py:composition_drift)."""
    from kgruntime.ops.dq import composition_drift

    return composition_drift(_docs_ds(sf_dir))


def _composition_drift_oracle() -> str:
    from kgruntime.ops.dq import composition_drift_sql

    return composition_drift_sql()


def _q_conv_delay(sf_dir):
    """Click→purchase delay p50/p90 per isodow
    (kgruntime/ops/sessions.py:conversion_delay_percentiles)."""
    from kgruntime.ops.sessions import conversion_delay_percentiles

    return conversion_delay_percentiles(_events_ds(sf_dir))


def _conv_delay_oracle() -> str:
    from kgruntime.ops.sessions import conversion_delay_percentiles_sql

    return conversion_delay_percentiles_sql()


def _q_dedup_sweep(sf_dir):
    """Normalization-ladder dedup sensitivity sweep
    (kgruntime/ops/dedup.py:dedup_sensitivity_sweep)."""
    from kgruntime.ops.dedup import dedup_sensitivity_sweep

    return dedup_sensitivity_sweep(_docs_ds(sf_dir))


def _dedup_sweep_oracle() -> str:
    from kgruntime.ops.dedup import dedup_sensitivity_sweep_sql

    return dedup_sensitivity_sweep_sql()


def _q_entity_clusters(sf_dir):
    """End-to-end entity resolution: fuzzy match pairs → connected
    components → canonical entity
    (kgruntime/ops/linkage.py:entity_clusters)."""
    import ray.data as rd

    from kgruntime.ops.linkage import entity_clusters

    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                            columns=["p_name"])
    return entity_clusters(parts)


def _entity_clusters_oracle() -> str:
    from kgruntime.ops.linkage import entity_clusters_sql

    return entity_clusters_sql()


def _q_session_incidents(sf_dir):
    """Interval overlap join: sessions × busy-hour incidents
    (kgruntime/ops/sessions.py:session_incident_overlap)."""
    from kgruntime.ops.sessions import session_incident_overlap

    return session_incident_overlap(_events_ds(sf_dir))


def _session_incidents_oracle() -> str:
    from kgruntime.ops.sessions import session_incident_overlap_sql

    return session_incident_overlap_sql()


def _q_user_hourly_locf(sf_dir):
    """Hourly LOCF resample rollup per user
    (kgruntime/ops/sessions.py:user_hourly_locf)."""
    from kgruntime.ops.sessions import user_hourly_locf

    return user_hourly_locf(_events_ds(sf_dir))


def _user_hourly_locf_oracle() -> str:
    from kgruntime.ops.sessions import USER_HOURLY_LOCF_SQL

    return USER_HOURLY_LOCF_SQL


def _q_mg_heavy_trigrams(sf_dir):
    """Misra-Gries mergeable summaries + exact recount
    (kgruntime/ops/sketch.py:mg_heavy_trigrams)."""
    from kgruntime.ops.sketch import mg_heavy_trigrams

    return mg_heavy_trigrams(_docs_ds(sf_dir))


def _mg_heavy_trigrams_oracle() -> str:
    from kgruntime.ops.sketch import mg_heavy_trigrams_sql

    return mg_heavy_trigrams_sql()


def _q_lpa_communities(sf_dir):
    """Label-propagation communities over the strong-tie co-occurrence
    graph (kgruntime/ops/graph.py:lpa_communities)."""
    import ray.data as rd

    from kgruntime.ops.graph import lpa_communities
    from kgruntime.ops.sessions import cooccurrence_edges

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "ts"])
    edges = cooccurrence_edges(ev).filter(expr="n_shared >= 5")
    return lpa_communities(edges, rounds=4)


def _lpa_communities_oracle() -> str:
    from kgruntime.ops.graph import lpa_communities_sql

    return lpa_communities_sql(rounds=4)


def _q_media_phash_dups(sf_dir):
    """Perceptual-hash (dHash) near-dup image pairs over REAL PNG
    bytes — rows-only (binary inputs are synthesized, not SQL-visible)
    (kgruntime/ops/media.py:phash_near_dups)."""
    import ray.data as rd

    from kgruntime.ops.media import (phash_near_dups,
                                     synth_png_neardup_table)

    return phash_near_dups(rd.from_arrow(synth_png_neardup_table()))


def _q_bootstrap_stats(sf_dir):
    """Deterministic Poisson bootstrap replicate statistics
    (kgruntime/ops/sample.py:bootstrap_stats)."""
    from kgruntime.ops.sample import bootstrap_stats

    return bootstrap_stats(_docs_ds(sf_dir))


def _bootstrap_stats_oracle() -> str:
    from kgruntime.ops.sample import bootstrap_stats_sql

    return bootstrap_stats_sql()


def _q_cdc_chunks(sf_dir):
    """Content-defined chunking dedup audit
    (kgruntime/ops/dedup.py:cdc_chunk_dedup)."""
    from kgruntime.ops.dedup import cdc_chunk_dedup

    return cdc_chunk_dedup(_docs_ds(sf_dir))


def _cdc_chunks_oracle() -> str:
    from kgruntime.ops.dedup import cdc_chunk_dedup_sql

    return cdc_chunk_dedup_sql()


def _q_embargo_split(sf_dir):
    """Temporal backtest split + embargo + entity-leakage audit
    (kgruntime/ops/sample.py:embargo_split_audit)."""
    from kgruntime.ops.sample import embargo_split_audit

    return embargo_split_audit(_events_ds(sf_dir))


def _embargo_split_oracle() -> str:
    from kgruntime.ops.sample import embargo_split_audit_sql

    return embargo_split_audit_sql()


def _q_cluster_safe_split(sf_dir):
    """Near-dup-cluster-safe split assignment
    (kgruntime/ops/dedup.py:cluster_safe_split)."""
    from kgruntime.ops.dedup import cluster_safe_split

    return cluster_safe_split(_docs_ds(sf_dir))


def _cluster_safe_split_oracle() -> str:
    from kgruntime.ops.dedup import cluster_safe_split_sql

    return cluster_safe_split_sql()


def _q_vocab_coverage(sf_dir):
    """Vocabulary coverage curve
    (kgruntime/ops/text.py:vocab_coverage)."""
    from kgruntime.ops.text import vocab_coverage

    return vocab_coverage(_docs_ds(sf_dir))


def _vocab_coverage_oracle() -> str:
    from kgruntime.ops.text import vocab_coverage_sql

    return vocab_coverage_sql()


def _q_late_events(sf_dir):
    """Watermark / late-data audit
    (kgruntime/ops/sessions.py:late_event_audit)."""
    import ray.data as rd

    from kgruntime.ops.sessions import late_event_audit

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "event_type", "ts"])
    return late_event_audit(ev)


def _q_minhash_audit(sf_dir):
    """Sketch-quality audit: MinHash estimates vs exact Jaccard
    (kgruntime/ops/dedup.py:minhash_error_audit)."""
    from kgruntime.ops.dedup import minhash_error_audit

    return minhash_error_audit(_docs_ds(sf_dir))


def _q_principal_component(sf_dir):
    """Top principal direction by exact fixed-point power iteration
    (kgruntime/ops/ann.py:principal_component)."""
    import ray.data as rd

    from kgruntime.ops.ann import principal_component

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["embedding"])
    return principal_component(emb)


def _q_click_attr(sf_dir):
    """Multi-touch purchase attribution with exact dyadic weights
    (kgruntime/ops/sessions.py:click_attribution)."""
    import ray.data as rd

    from kgruntime.ops.sessions import click_attribution

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "event_id",
                                  "event_type", "value"])
    return click_attribution(ev)


def _q_weighted_sample(sf_dir):
    """Deterministic weighted sampling without replacement
    (kgruntime/ops/sample.py:weighted_priority_sample)."""
    from kgruntime.ops.sample import weighted_priority_sample

    return weighted_priority_sample(_docs_ds(sf_dir))


def _q_curriculum(sf_dir):
    """Interleaved stratified curriculum ordering
    (kgruntime/ops/shard.py:curriculum_order)."""
    from kgruntime.ops.shard import curriculum_order

    return curriculum_order(_docs_ds(sf_dir))


def _q_mad_by_type(sf_dir):
    """Exact integer median + MAD per event type
    (kgruntime/ops/stats.py:mad_by_group)."""
    import ray.data as rd

    from kgruntime.ops.stats import mad_by_group

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    return mad_by_group(ev)


def _q_rfm_segments(sf_dir):
    """Integer-exact RFM segmentation
    (kgruntime/ops/sessions.py:rfm_segments)."""
    import ray.data as rd

    from kgruntime.ops.sessions import rfm_segments

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])
    return rfm_segments(ev)


def _q_winnow_pairs(sf_dir):
    """Winnowing (MOSS) fingerprint near-dup pairs
    (kgruntime/ops/dedup.py:winnow_dup_pairs)."""
    from kgruntime.ops.dedup import winnow_dup_pairs

    return winnow_dup_pairs(_docs_ds(sf_dir))


def _q_padding_waste(sf_dir):
    from kgruntime.ops.shard import padding_waste

    return padding_waste(_docs_ds(sf_dir))


def _q_incremental_near_dups(sf_dir):
    """New docs (absent from the prior snapshot) LSH-matched against
    the prior corpus — the incremental-ingest near-dup shape."""
    import ray.data as rd

    from kgruntime.ops.dedup import (incremental_near_dups,
                                     synth_prior_snapshot)

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])

    def only_new(t):
        import pyarrow as pa

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 11 == 0))

    new = docs.map_batches(only_new, batch_format="pyarrow",
                           zero_copy_batch=True)
    return incremental_near_dups(new, synth_prior_snapshot(docs))


def _q_peak_concurrency(sf_dir):
    from kgruntime.ops.sessions import peak_concurrent_users

    return peak_concurrent_users(_events_ds(sf_dir))


def _q_triplet_mining(sf_dir):
    """Contrastive triplet mining: hardest positive + hardest negative
    per anchor (kgruntime/ops/ann.py:triplet_mining)."""
    import duckdb

    import ray.data as rd

    from kgruntime.ops.ann import triplet_mining

    path = os.path.join(sf_dir, "embeddings.parquet")
    emb = rd.read_parquet(path,
                          columns=["vec_id", "embedding", "label"])
    t = duckdb.sql(
        f"SELECT vec_id, embedding, label FROM read_parquet('{path}') "
        f"ORDER BY vec_id LIMIT {_ANN_N_QUERIES}").arrow()
    ids = t["vec_id"].to_pylist()
    labels = t["label"].to_pylist()
    q = t["embedding"].combine_chunks().flatten() \
        .to_numpy(zero_copy_only=False) \
        .astype(np.float64, copy=False).reshape(len(ids), -1)
    return triplet_mining(emb, q, ids, labels)


def _triplet_mining_oracle() -> str:
    from kgruntime.ops.ann import triplet_mining_sql

    return triplet_mining_sql(n_queries=_ANN_N_QUERIES)


def _q_pq_recall(sf_dir):
    """Product-quantization (ADC) recall audit
    (kgruntime/ops/ann.py:pq_quant_recall)."""
    import ray.data as rd

    from kgruntime.ops.ann import pq_quant_recall

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    q, ids = _load_queries(sf_dir)
    return pq_quant_recall(emb, q, ids, k=_ANN_K)


def _pq_recall_oracle() -> str:
    from kgruntime.ops.ann import pq_quant_recall_sql

    return pq_quant_recall_sql(dim=_EMB_DIM, k=_ANN_K,
                               n_queries=_ANN_N_QUERIES)


def _q_hard_negatives(sf_dir):
    import duckdb

    import ray.data as rd

    from kgruntime.ops.ann import hard_negatives

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding", "label"])
    path = os.path.join(sf_dir, "embeddings.parquet")
    t = duckdb.sql(
        f"SELECT vec_id, embedding, label FROM read_parquet('{path}') "
        f"ORDER BY vec_id LIMIT {_ANN_N_QUERIES}").arrow()
    ids = t["vec_id"].to_pylist()
    labels = t["label"].to_pylist()
    q = t["embedding"].combine_chunks().flatten()         .to_numpy(zero_copy_only=False)         .astype(np.float64, copy=False).reshape(len(ids), -1)
    return hard_negatives(emb, q, ids, labels, k=_ANN_K)


def _q_int8_recall(sf_dir):
    import ray.data as rd

    from kgruntime.ops.ann import int8_quant_recall

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    q, ids = _load_queries(sf_dir)
    return int8_quant_recall(emb, q, ids, k=_ANN_K)


def _q_ann_topk(sf_dir):
    import ray.data as rd

    from kgruntime.ops.ann import brute_force_topk

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    q, ids = _load_queries(sf_dir)
    out = brute_force_topk(emb, q, ids, k=_ANN_K).to_pandas()
    return out[["query_id", "neighbor_id"]] \
        .sort_values(["query_id", "neighbor_id"]).reset_index(drop=True)


def _q_ann_lsh(sf_dir):
    import ray.data as rd

    from kgruntime.ops.ann import lsh_topk

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    q, ids = _load_queries(sf_dir)
    dim = len(q[0])
    out = lsh_topk(emb, q, ids, dim=dim, k=_ANN_K).to_pandas()
    return out[["query_id", "neighbor_id"]] \
        .sort_values(["query_id", "neighbor_id"]).reset_index(drop=True)


def _q_ann_ivf(sf_dir):
    import ray.data as rd

    from kgruntime.ops.ann import ivf_topk

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    q, ids = _load_queries(sf_dir)
    out = ivf_topk(emb, q, ids, k=_ANN_K).to_pandas()
    return out[["query_id", "neighbor_id"]] \
        .sort_values(["query_id", "neighbor_id"]).reset_index(drop=True)


def _q_ann_recall(sf_dir):
    """IVF-vs-brute recall audit
    (kgruntime/ops/ann.py:ann_recall_audit)."""
    import ray.data as rd

    from kgruntime.ops.ann import ann_recall_audit

    def emb():
        return rd.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"])

    q, ids = _load_queries(sf_dir)
    return ann_recall_audit(emb, q, ids, k=_ANN_K)


def _ann_recall_oracle() -> str:
    from kgruntime.ops.ann import ann_recall_audit_sql

    return ann_recall_audit_sql(k=_ANN_K, n_queries=_ANN_N_QUERIES)


def _q_pit_features(sf_dir):
    """Point-in-time training features for purchase label events
    (kgruntime/ops/sessions.py:pit_training_features)."""
    from kgruntime.ops.sessions import pit_training_features

    return pit_training_features(_events_ds(sf_dir))


def _pit_features_oracle() -> str:
    from kgruntime.ops.sessions import pit_training_features_sql

    return pit_training_features_sql()


def _q_source_overlap(sf_dir):
    """Cross-source content-overlap matrix
    (kgruntime/ops/dedup.py:source_overlap_matrix)."""
    from kgruntime.ops.dedup import source_overlap_matrix

    return source_overlap_matrix(_docs_ds(sf_dir))


def _source_overlap_oracle() -> str:
    from kgruntime.ops.dedup import source_overlap_matrix_sql

    return source_overlap_matrix_sql()


def _q_near_split_leakage(sf_dir):
    """Near-duplicate cross-split contamination audit
    (kgruntime/ops/sample.py:near_split_leakage)."""
    from kgruntime.ops.sample import near_split_leakage

    return near_split_leakage(_docs_ds(sf_dir))


def _near_split_leakage_oracle() -> str:
    from kgruntime.ops.sample import near_split_leakage_sql

    return near_split_leakage_sql()


def _q_dsir(sf_dir):
    """DSIR-style hashed-bigram importance scoring vs the en-domain
    target (kgruntime/ops/text.py:dsir_importance)."""
    from kgruntime.ops.text import dsir_importance

    return dsir_importance(_docs_ds(sf_dir))


def _dsir_oracle() -> str:
    from kgruntime.ops.text import dsir_importance_sql

    return dsir_importance_sql()


def _q_markov_next_event(sf_dir):
    """Markov next-event predictor trained on train-split users,
    exact accuracy on test users
    (kgruntime/ops/sessions.py:markov_next_event_accuracy)."""
    from kgruntime.ops.sessions import markov_next_event_accuracy

    return markov_next_event_accuracy(_events_ds(sf_dir))


def _markov_oracle() -> str:
    from kgruntime.ops.sessions import markov_next_event_accuracy_sql

    return markov_next_event_accuracy_sql()


def _q_rp_recall(sf_dir):
    """Signed-random-projection recall audit
    (kgruntime/ops/ann.py:rp_projection_recall)."""
    import ray.data as rd

    from kgruntime.ops.ann import rp_projection_recall

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    q, ids = _load_queries(sf_dir)
    return rp_projection_recall(emb, q, ids, k=_ANN_K)


def _rp_recall_oracle() -> str:
    from kgruntime.ops.ann import rp_projection_recall_sql

    return rp_projection_recall_sql(dim=_EMB_DIM, k=_ANN_K,
                                    n_queries=_ANN_N_QUERIES)


def _q_dp_noisy(sf_dir):
    """Deterministic discrete-Laplace noisy count release
    (kgruntime/ops/stats.py:dp_noisy_counts)."""
    from kgruntime.ops.stats import dp_noisy_counts

    return dp_noisy_counts(_events_ds(sf_dir))


def _dp_noisy_oracle() -> str:
    from kgruntime.ops.stats import dp_noisy_counts_sql

    return dp_noisy_counts_sql()


def _q_encoding_advisor(sf_dir):
    """Columnar encoding advisor over events
    (kgruntime/ops/dq.py:encoding_advisor)."""
    from kgruntime.ops.dq import encoding_advisor

    return encoding_advisor(_events_ds(sf_dir))


def _encoding_advisor_oracle() -> str:
    from kgruntime.ops.dq import encoding_advisor_sql

    return encoding_advisor_sql()


def _q_join_skew(sf_dir):
    """Join-key skew audit over lineitem.l_partkey
    (kgruntime/ops/stats.py:join_skew_audit)."""
    import ray.data as rd

    from kgruntime.ops.stats import join_skew_audit

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_partkey"])
    return join_skew_audit(li)


def _join_skew_oracle() -> str:
    from kgruntime.ops.stats import join_skew_audit_sql

    return join_skew_audit_sql()


def _q_range_plan(sf_dir):
    """Balanced range-partition boundary planning + exact validation
    (kgruntime/ops/shard.py:range_partition_planner)."""
    from kgruntime.ops.shard import range_partition_planner

    return range_partition_planner(_events_ds(sf_dir))


def _range_plan_oracle() -> str:
    from kgruntime.ops.shard import range_partition_planner_sql

    return range_partition_planner_sql()


def _q_modularity(sf_dir):
    """Exact-integer modularity audit of the LPA partition over the
    strong-tie co-occurrence graph
    (kgruntime/ops/graph.py:community_modularity)."""
    import ray.data as rd

    from kgruntime.ops.graph import community_modularity
    from kgruntime.ops.sessions import cooccurrence_edges

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "ts"])
    edges = cooccurrence_edges(ev).filter(expr="n_shared >= 5")
    return community_modularity(edges, rounds=4)


def _modularity_oracle() -> str:
    from kgruntime.ops.graph import community_modularity_sql

    return community_modularity_sql(rounds=4)


def _q_stickiness(sf_dir):
    """Monthly DAU/MAU stickiness
    (kgruntime/ops/sessions.py:stickiness_dau_mau)."""
    from kgruntime.ops.sessions import stickiness_dau_mau

    return stickiness_dau_mau(_events_ds(sf_dir))


def _stickiness_oracle() -> str:
    from kgruntime.ops.sessions import stickiness_dau_mau_sql

    return stickiness_dau_mau_sql()


def _q_cdc_merge(sf_dir):
    """CDC upsert/delete merge with change-beats-base semantics
    (kgruntime/ops/dedup.py:cdc_upsert_merge)."""
    from kgruntime.ops.dedup import cdc_upsert_merge

    return cdc_upsert_merge(_events_ds(sf_dir))


def _cdc_merge_oracle() -> str:
    from kgruntime.ops.dedup import cdc_upsert_merge_sql

    return cdc_upsert_merge_sql()


def _q_feature_cross(sf_dir):
    """Feature-hashing collision audit for the user×type×dow cross
    (kgruntime/ops/text.py:feature_cross_hash)."""
    from kgruntime.ops.text import feature_cross_hash

    return feature_cross_hash(_events_ds(sf_dir))


def _feature_cross_oracle() -> str:
    from kgruntime.ops.text import feature_cross_hash_sql

    return feature_cross_hash_sql()


def _q_zorder(sf_dir):
    """Z-order vs insertion layout pruning audit
    (kgruntime/ops/shard.py:zorder_layout_audit)."""
    from kgruntime.ops.shard import zorder_layout_audit

    return zorder_layout_audit(_events_ds(sf_dir))


def _zorder_oracle() -> str:
    from kgruntime.ops.shard import zorder_layout_audit_sql

    return zorder_layout_audit_sql()


def _q_max_coverage(sf_dir):
    """Greedy max-coverage corpus selection
    (kgruntime/ops/text.py:max_coverage_selection)."""
    from kgruntime.ops.text import max_coverage_selection

    return max_coverage_selection(_docs_ds(sf_dir))


def _max_coverage_oracle() -> str:
    from kgruntime.ops.text import max_coverage_selection_sql

    return max_coverage_selection_sql()


def _q_bot_regularity(sf_dir):
    """Inter-event regularity bot audit
    (kgruntime/ops/sessions.py:bot_regularity_audit)."""
    from kgruntime.ops.sessions import bot_regularity_audit

    return bot_regularity_audit(_events_ds(sf_dir))


def _bot_regularity_oracle() -> str:
    from kgruntime.ops.sessions import bot_regularity_audit_sql

    return bot_regularity_audit_sql()


def _q_mmr_topk(sf_dir):
    """MMR-diversified retrieval (kgruntime/ops/ann.py:mmr_topk)."""
    import ray.data as rd

    from kgruntime.ops.ann import mmr_topk

    def emb():
        return rd.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"])

    q, ids = _load_queries(sf_dir)
    return mmr_topk(emb, q, ids, k=_ANN_K)


def _mmr_topk_oracle() -> str:
    from kgruntime.ops.ann import mmr_topk_sql

    return mmr_topk_sql(k=_ANN_K, n_queries=_ANN_N_QUERIES)


_PROFILE_COLS = ["event_id", "user_id", "event_type", "value", "ts"]


def _q_capped_dups(sf_dir):
    from kgruntime.ops.text import capped_duplicate_sample

    return capped_duplicate_sample(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_incremental_dups(sf_dir):
    from kgruntime.ops.dedup import incremental_dup_check

    return _pin_cols(incremental_dup_check(_docs_ds(sf_dir)).to_pandas(),
                     ["doc_id", "dup_of_prior"]) \
        .sort_values("doc_id").reset_index(drop=True)


def _q_split_leakage(sf_dir):
    from kgruntime.ops.sample import split_leakage

    return _pin_cols(split_leakage(_docs_ds(sf_dir)).to_pandas(),
                     ["keep_id", "n_docs", "n_splits"]) \
        .sort_values("keep_id").reset_index(drop=True)


def _q_emb_dup_clusters(sf_dir):
    import ray.data as rd

    from kgruntime.ops.dedup import embedding_dup_clusters

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    return _pin_cols(
        embedding_dup_clusters(emb, dim=_EMB_DIM, threshold=0.35,
                               n_planes=6, n_tables=8).to_pandas(),
        ["vec_id", "cluster"]) \
        .sort_values("vec_id").reset_index(drop=True)


def _q_curate_corpus(sf_dir):
    from kgruntime.ops.text import curate_corpus

    return curate_corpus(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_events_profile(sf_dir):
    from kgruntime.ops.stats import table_profile

    return table_profile(_events_ds(sf_dir), _PROFILE_COLS)


def _q_pct_ranks(sf_dir):
    from kgruntime.ops.stats import value_percentile_ranks

    return value_percentile_ranks(_events_ds(sf_dir)).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)


def _q_user_components(sf_dir):
    from kgruntime.ops.graph import user_components

    return _pin_cols(user_components(_events_ds(sf_dir)).to_pandas(),
                     ["user_id", "component"]) \
        .sort_values("user_id").reset_index(drop=True)


def _q_bloom_user_days(sf_dir):
    from kgruntime.ops.sketch import bloom_distinct_user_days

    # hash-checked projection is the exact part of the sketch
    return bloom_distinct_user_days(_events_ds(sf_dir))[
        ["m", "k", "n_set_bits"]]


def _q_reservoir_lang(sf_dir):
    from kgruntime.ops.sample import reservoir_per_group

    return reservoir_per_group(_docs_ds(sf_dir)).to_pandas() \
        .sort_values(["lang", "doc_id"]).reset_index(drop=True)


def _q_pii_scan(sf_dir):
    from kgruntime.ops.text import pii_scan

    return pii_scan(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_normalized_dups(sf_dir):
    from kgruntime.ops.text import normalized_dup_docs

    return normalized_dup_docs(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("keep_id").reset_index(drop=True)


def _q_rare_token_pairs(sf_dir):
    from kgruntime.ops.dedup import rare_token_pairs

    return _pin_cols(rare_token_pairs(_docs_ds(sf_dir)).to_pandas(),
                     ["doc_a", "doc_b", "n_shared_rare"]) \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _q_event_trigrams(sf_dir):
    from kgruntime.ops.sessions import event_path_trigrams

    return _pin_cols(event_path_trigrams(_events_ds(sf_dir)).to_pandas(),
                     ["t1", "t2", "t3", "n_paths"]) \
        .sort_values(["t1", "t2", "t3"]).reset_index(drop=True)


def _q_session_conversion(sf_dir):
    from kgruntime.ops.sessions import session_conversion_by_dow

    return _pin_cols(
        session_conversion_by_dow(_events_ds(sf_dir)).to_pandas(),
        ["dow", "n_sessions", "n_converted", "conversion_rate"]) \
        .sort_values("dow").reset_index(drop=True)


def _q_decayed_value(sf_dir):
    from kgruntime.ops.sessions import decayed_user_value

    return decayed_user_value(_events_ds(sf_dir)).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)


def _q_top_terms_source(sf_dir):
    from kgruntime.ops.text import top_terms_per_source

    return _pin_cols(top_terms_per_source(_docs_ds(sf_dir)).to_pandas(),
                     ["source", "rnk", "word", "cnt"]) \
        .sort_values(["source", "rnk"]).reset_index(drop=True)


def _q_kmeans_clusters(sf_dir):
    import ray.data as rd

    from kgruntime.ops.ann import kmeans_clusters

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    return kmeans_clusters(emb).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)


def _q_clean_corpus(sf_dir):
    import ray.data as rd

    from kgruntime.ops.text import clean_corpus

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text", "n_chars"])
    return clean_corpus(docs).to_pandas() \
        .sort_values("keep_id").reset_index(drop=True)


def _clean_corpus_sql() -> str:
    return rf"""
        WITH toks AS (
          SELECT doc_id, n_chars, text,
                 CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                      ELSE regexp_split_to_array(trim(text), '\s+')
                 END AS t
          FROM documents),
        q AS (
          SELECT doc_id, text, n_chars,
                 CASE WHEN len(t) = 0 THEN 0.0 ELSE
                   round(least(1.0, len(t) / 50.0)
                     * (0.5 + 0.5 * (len(list_filter(t, x ->
                          regexp_matches(x, '^[A-Za-z]+$')))::DOUBLE
                          / len(t)))
                     * (1.0 - 0.5 * (len(list_filter(t, x ->
                          list_contains({_STOPWORDS_SQL}, lower(x))))::DOUBLE
                          / len(t))), 6) END AS quality
          FROM toks),
        pass AS (
          SELECT * FROM q WHERE quality >= 0.5 AND n_chars >= 20)
        SELECT min(doc_id) AS keep_id, count(*) AS n_copies, quality
        FROM pass GROUP BY text, quality ORDER BY keep_id
    """


def _q_label_centroids(sf_dir):
    import ray.data as rd

    from kgruntime.ops.ann import label_centroids

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["label", "embedding"])
    return label_centroids(emb).sort_values(["label", "i"]) \
        .reset_index(drop=True)


def _q_knn_label_vote(sf_dir):
    # composition: broadcast brute-force top-k (ops/ann.py) + majority
    # label vote over the tiny (queries × k) result on the driver
    import ray.data as rd

    from kgruntime.ops.ann import brute_force_topk

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    q, ids = _load_queries(sf_dir)
    out = brute_force_topk(emb, q, ids, k=_ANN_K).to_pandas()

    # labels for ONLY the ≤ queries×k neighbor ids, via a
    # predicate-pushdown parquet read (pattern: relational.py
    # q_top_customers) — never a whole-table driver dict
    labels = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label"],
        filters=[("vec_id", "in",
                  sorted(set(out["neighbor_id"].tolist())))]).to_pandas()
    out = out.merge(labels.rename(columns={"vec_id": "neighbor_id"}),
                    on="neighbor_id", how="left")
    votes = out.groupby(["query_id", "label"]).size() \
        .reset_index(name="n_votes") \
        .sort_values(["query_id", "n_votes", "label"],
                     ascending=[True, False, True], kind="mergesort") \
        .groupby("query_id", sort=True).head(1).reset_index(drop=True)
    votes["pred_label"] = votes.pop("label").astype("int32")
    return votes[["query_id", "pred_label", "n_votes"]]


# --- KG pipeline queries (rows-only checks) ---

def _q_kg_triples(sf_dir):
    from kgruntime.stages.extract import triples_dataset

    return triples_dataset(_synth_docs(sf_dir))


def _q_kg_quarantine(sf_dir):
    from kgruntime.stages.extract import errors_dataset

    return errors_dataset(_synth_docs(sf_dir, malformed_every=10))


def _q_kg_mentions(sf_dir):
    from kgruntime.stages.extract import triples_dataset
    from kgruntime.stages.linking import mentions_dataset

    return mentions_dataset(triples_dataset(_synth_docs(sf_dir)))


def _q_kg_link_edges(sf_dir):
    from kgruntime.pipelines.kg import build_kg

    return build_kg(_synth_docs(sf_dir))["edges"]


def _q_kg_assignment(sf_dir):
    from kgruntime.pipelines.kg import build_kg

    return build_kg(_synth_docs(sf_dir))["assignment"]


def _q_kg_canonical(sf_dir):
    from kgruntime.pipelines.kg import build_kg

    return build_kg(_synth_docs(sf_dir))["canonical"]


def _q_kg_fused(sf_dir):
    """Fused parse + doc-local blank linking (the production shape;
    parity with build_kg is pytest-verified)."""
    import tempfile

    from kgruntime.pipelines.kg import build_kg_fused
    from kgruntime.stages.linking import build_alias_table
    from kgruntime.synth import goldens
    from kgruntime.ttl import parse_turtle
    from kgruntime.ttl.builder import LITERAL, XSD_STRING

    names = {r[3] for _, src, _ in goldens() for r in parse_turtle(src)
             if r[4] == LITERAL and (r[5] == XSD_STRING or r[6])}
    staging = tempfile.mkdtemp(prefix="kg-fused-")
    return build_kg_fused(_synth_docs(sf_dir),
                          alias_table=build_alias_table(names),
                          keep_buckets=False,
                          staging_dir=staging)["canonical"]


# --- training-data ops (rows-only checks) ---

def _q_kg_bgp(sf_dir):
    """SPARQL-style 2-hop BGP join over the canonical store:
    ``?x rdf:rest ?y . ?y rdf:first ?v`` — collection-cell traversal
    (kgruntime/stages/materialize.py:bgp_2hop); rows-only (the store
    is parser output, not SQL-visible)."""
    from kgruntime.pipelines.kg import build_kg
    from kgruntime.stages.materialize import bgp_2hop

    rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    store = build_kg(_synth_docs(sf_dir))["canonical"]
    return bgp_2hop(store, rdf + "rest", rdf + "first").to_pandas() \
        .sort_values(["x", "y", "v"]).reset_index(drop=True)


def _q_kg_star(sf_dir):
    """PRoST-style star BGP over a predicate-partitioned (vertical)
    store layout: ``?s rdf:type ?t . ?s foaf:name ?n`` — the store is
    re-materialized hive-partitioned by predicate hash and each
    pattern reads ONLY its predicate's partition
    (kgruntime/stages/materialize.py:write_pred_partitioned/star_bgp);
    rows-only (parser output, not SQL-visible)."""
    from kgruntime.pipelines.kg import build_kg
    from kgruntime.stages.materialize import (star_bgp,
                                              write_pred_partitioned)

    rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    foaf = "http://xmlns.com/foaf/0.1/"
    store = build_kg(_synth_docs(sf_dir))["canonical"]
    tag = os.path.basename(os.path.normpath(sf_dir))
    path = write_pred_partitioned(store, f"/tmp/kgio/vp-{tag}")
    return star_bgp(path, rdf + "type", foaf + "name").to_pandas() \
        .sort_values(["s", "a", "b"]).reset_index(drop=True)


def _q_kg_planned_bgp(sf_dir):
    """3-pattern star BGP whose join order is CHOSEN from the
    predicate_catalog statistics (cheapest-pattern-first; plan-invariant
    result parity-tested against both fixed orders)
    (kgruntime/stages/materialize.py:planned_star_bgp); rows-only
    (parser output, not SQL-visible)."""
    from kgruntime.pipelines.kg import build_kg
    from kgruntime.stages.materialize import planned_star_bgp

    rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    foaf = "http://xmlns.com/foaf/0.1/"
    rel = "http://www.perceive.net/schemas/relationship/enemyOf"
    store = build_kg(_synth_docs(sf_dir))["canonical"]
    return planned_star_bgp(store, [rdf + "type", foaf + "name", rel]) \
        .to_pandas().sort_values(["s", "v0", "v1", "v2"]) \
        .reset_index(drop=True)


def _q_kg_incremental(sf_dir):
    """Two-increment KG build (parse only the delta, rerun global
    stages over the staged parsed layer) — reproduces the single-shot
    store exactly (kgruntime/pipelines/kg.py:build_kg_incremental);
    rows-only (parser output, not SQL-visible)."""
    import shutil

    from kgruntime.pipelines.kg import build_kg_incremental
    from kgruntime.synth import make_documents_table

    import ray.data as rd

    n = _n_docs_for(sf_dir)
    docs = make_documents_table(n, seed=42, malformed_every=0)
    tag = os.path.basename(os.path.normpath(sf_dir))
    staged = f"/tmp/kgio/incr-{tag}"
    shutil.rmtree(staged, ignore_errors=True)
    build_kg_incremental(rd.from_arrow(docs.slice(0, n // 2)), staged)
    res = build_kg_incremental(rd.from_arrow(docs.slice(n // 2)),
                               staged)
    return res["canonical"].to_pandas() \
        .sort_values(["subj", "pred", "obj"]).reset_index(drop=True)


def _q_kg_pred_catalog(sf_dir):
    """Per-predicate cardinality catalog over the canonical store —
    the SPARQL-planner statistics table
    (kgruntime/stages/materialize.py:predicate_catalog); rows-only
    (parser output, not SQL-visible)."""
    from kgruntime.pipelines.kg import build_kg
    from kgruntime.stages.materialize import predicate_catalog

    store = build_kg(_synth_docs(sf_dir))["canonical"]
    return predicate_catalog(store)


def _q_maxsim_topk(sf_dir):
    """Late-interaction (ColBERT-style) multi-vector retrieval: per
    query token, max dot over doc-token embeddings, summed — exact
    int64 (kgruntime/ops/text.py:maxsim_topk)."""
    from kgruntime.ops.text import maxsim_topk

    return maxsim_topk(_docs_ds(sf_dir))


def _q_loo_source_influence(sf_dir):
    """Leave-one-out per-source influence on mean tokens/doc and exact
    dup rate — closed-form from partial aggregates, no per-source
    rescan (kgruntime/ops/valuation.py:loo_source_influence)."""
    from kgruntime.ops.valuation import loo_source_influence

    return loo_source_influence(_docs_ds(sf_dir))


def _q_quality_sweep(sf_dir):
    """Curation policy curve: docs/tokens surviving each integer
    quality threshold, from an 11-bucket per-batch rollup
    (kgruntime/ops/valuation.py:quality_threshold_sweep)."""
    from kgruntime.ops.valuation import quality_threshold_sweep

    return quality_threshold_sweep(_docs_ds(sf_dir))


def _q_url_canonical_dups(sf_dir):
    """Canonical-URL duplicate groups (case/port/utm/trailing-slash
    folds, Arrow regex kernels) over deterministic per-doc URLs
    (kgruntime/ops/valuation.py:url_canonical_dups)."""
    from kgruntime.ops.valuation import url_canonical_dups

    return url_canonical_dups(_docs_ds(sf_dir))


def _q_source_token_budget(sf_dir):
    """Water-filling per-source token budget (closed-form integer water
    level from one rollup — the dominant-domain cap)
    (kgruntime/ops/valuation.py:source_token_budget)."""
    from kgruntime.ops.valuation import source_token_budget

    return source_token_budget(_docs_ds(sf_dir))


def _q_page_stitch(sf_dir):
    """Cross-doc continuation stitching: doc_a's suffix window ==
    doc_b's prefix window, one 8-byte-key bucketed join
    (kgruntime/ops/dedup.py:page_stitch_pairs)."""
    from kgruntime.ops.dedup import page_stitch_pairs

    return page_stitch_pairs(_docs_ds(sf_dir))


def _q_term_concentration(sf_dir):
    """Per-source inverse-Simpson effective term count + top-term
    share — the one-template-domain audit
    (kgruntime/ops/valuation.py:term_concentration_by_source)."""
    from kgruntime.ops.valuation import term_concentration_by_source

    return term_concentration_by_source(_docs_ds(sf_dir))


def _q_minhash(sf_dir):
    from kgruntime.ops.dedup import minhash_near_dups

    return minhash_near_dups(_docs_ds(sf_dir), threshold=0.5)


def _q_minhash_clusters(sf_dir):
    from kgruntime.ops.dedup import minhash_dup_clusters

    return minhash_dup_clusters(_docs_ds(sf_dir), threshold=0.5) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_near_dedup_corpus(sf_dir):
    from kgruntime.ops.dedup import near_dedup_corpus

    return near_dedup_corpus(_docs_ds(sf_dir), threshold=0.5) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_split_assign(sf_dir):
    from kgruntime.ops.sample import split_assign

    return split_assign(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_source_mix(sf_dir):
    from kgruntime.ops.text import source_mix_weights

    return source_mix_weights(_docs_ds(sf_dir))


def _q_blocklist(sf_dir):
    from kgruntime.ops.text import blocklist_filter

    return blocklist_filter(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_redact(sf_dir):
    from kgruntime.ops.text import redact_terms

    return redact_terms(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_deciles(sf_dir):
    from kgruntime.ops.stats import value_deciles

    return value_deciles(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_pack(sf_dir):
    from kgruntime.ops.shard import pack_sequences

    return pack_sequences(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("shard_id").reset_index(drop=True)


def _q_langid_mismatch(sf_dir):
    from kgruntime.ops.text import langid_mismatch_by_source

    return langid_mismatch_by_source(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("source").reset_index(drop=True)


def _q_zscore(sf_dir):
    from kgruntime.ops.stats import zscore_by_source

    return zscore_by_source(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_anomalies(sf_dir):
    from kgruntime.ops.stats import event_anomalies

    return _pin_cols(event_anomalies(_events_ds(sf_dir)).to_pandas(),
                     ["event_id", "event_type", "value", "zscore"]) \
        .sort_values("event_id").reset_index(drop=True)


def _q_hll(sf_dir):
    from kgruntime.ops.sketch import hll_distinct

    return hll_distinct(_events_ds(sf_dir))


def _q_rarity(sf_dir):
    from kgruntime.ops.text import doc_rarity_scores

    return doc_rarity_scores(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_dup_rate(sf_dir):
    from kgruntime.ops.dedup import dup_rate_by_source

    return dup_rate_by_source(_docs_ds(sf_dir)).to_pandas() \
        .sort_values("source").reset_index(drop=True)


def _q_prefix_overlap(sf_dir):
    from kgruntime.ops.dedup import sorted_neighbor_overlap

    return _pin_cols(
        sorted_neighbor_overlap(_docs_ds(sf_dir), min_prefix=10).to_pandas(),
        ["doc_a", "doc_b", "common_prefix_len"]) \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _q_suffix_overlap(sf_dir):
    from kgruntime.ops.dedup import suffix_overlap_pairs

    return _pin_cols(
        suffix_overlap_pairs(_docs_ds(sf_dir), min_suffix=10).to_pandas(),
        ["doc_a", "doc_b", "common_prefix_len"]) \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _q_chunks(sf_dir):
    from kgruntime.ops.text import chunk_documents

    return chunk_documents(_docs_ds(sf_dir)).to_pandas() \
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


def _q_bigrams(sf_dir):
    from kgruntime.ops.text import bigram_counts

    return bigram_counts(_docs_ds(sf_dir)).to_pandas() \
        .reset_index(drop=True)


def _q_simhash(sf_dir):
    from kgruntime.ops.dedup import simhash_near_dups

    return simhash_near_dups(_docs_ds(sf_dir), max_hamming=3)


def _q_emb_near_dups(sf_dir):
    import ray.data as rd

    from kgruntime.ops.dedup import embedding_near_dups

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    t = pq.read_metadata(os.path.join(sf_dir, "embeddings.parquet"))
    dim = len(pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                            columns=["embedding"])["embedding"][0])
    # random-ish synthetic embeddings: cosine ≥ 0.35 is already the
    # ~99.9th percentile; 6-plane × 8-table LSH gives ~0.7 recall there
    return embedding_near_dups(emb, dim=dim, threshold=0.35,
                               n_planes=6, n_tables=8)


def _q_langid(sf_dir):
    from kgruntime.ops.text import LangId
    from kgruntime.runtime import pool_range

    return _docs_ds(sf_dir).map_batches(
        LangId, batch_format="pyarrow",
        concurrency=pool_range(frac=0.25, lo=1), num_cpus=1) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_fingerprints(sf_dir):
    from kgruntime.ops.text import fingerprints

    return _docs_ds(sf_dir) \
        .map_batches(fingerprints, batch_format="pyarrow") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_media_features(sf_dir):
    import ray.data as rd

    from kgruntime.ops.media import decode_features, synth_media_table

    refs = [f"media://doc-{i:06d}/0" for i in range(100)]
    return decode_features(rd.from_arrow(synth_media_table(refs)))


def _q_media_png(sf_dir):
    """REAL codec path: payloads are actual PNG bytes (stdlib zlib +
    numpy filter decode, ops/png.py); features derive from true pixels
    — rows-only (binary inputs are synthesized, not SQL-visible)."""
    import ray.data as rd

    from kgruntime.ops.media import decode_features, synth_png_table

    refs = [f"media://doc-{i:06d}/png" for i in range(100)]
    return decode_features(rd.from_arrow(synth_png_table(refs)))


def _q_media_bmp(sf_dir):
    """REAL codec path: payloads are actual 24-bit BMP bytes (stdlib
    struct + numpy row decode, ops/bmp.py); features derive from true
    pixels — rows-only (binary inputs are synthesized)."""
    import ray.data as rd

    from kgruntime.ops.media import decode_features, synth_bmp_table

    refs = [f"media://doc-{i:06d}/bmp" for i in range(100)]
    return decode_features(rd.from_arrow(synth_bmp_table(refs)))


def _q_media_jpeg(sf_dir):
    """REAL lossy codec path: payloads are actual baseline JPEG bytes
    (stdlib struct + numpy Huffman/IDCT decode, ops/jpeg.py; sampling
    cycles 4:4:4 / 4:2:0 / 4:2:2); features derive from true pixels —
    rows-only (binary inputs are synthesized, not SQL-visible)."""
    import ray.data as rd

    from kgruntime.ops.media import decode_features, synth_jpeg_table

    refs = [f"media://doc-{i:06d}/jpg" for i in range(100)]
    return decode_features(rd.from_arrow(synth_jpeg_table(refs)))


def _q_media_frames(sf_dir):
    """REAL video frame sampling: payloads are actual MJPEG/AVI bytes
    (RIFF container walk, ops/avi.py); each sampled frame is its
    embedded baseline-JPEG byte string — container-only sampling,
    unsampled frames never decode; rows-only (binary inputs are
    synthesized, not SQL-visible)."""
    import hashlib as _hl

    import ray.data as rd

    from kgruntime.ops.media import sample_frames, synth_avi_table

    refs = [f"media://doc-{i:06d}/0" for i in range(100)]
    out = sample_frames(rd.from_arrow(synth_avi_table(refs))) \
        .to_pandas().sort_values(["media_ref", "frame_index"]) \
        .reset_index(drop=True)
    # binary frame payloads → hashes for a stable driver value compare
    out["frame_payload"] = out.pop("frame_payload").map(
        lambda b: _hl.sha256(b).hexdigest())
    return out


def _q_media_frame_features(sf_dir):
    """Composed media pipeline over REAL MJPEG/AVI: container walk →
    sampled frames (embedded JPEG bytes) → per-frame features decoded
    by the real baseline-JPEG codec (ops/jpeg.py).  Both stages are
    actor pools whose decoder state is built once per actor
    (ops/media.py FrameFeaturizer); rows-only (binary inputs are
    synthesized, not SQL-visible)."""
    import ray.data as rd

    from kgruntime.ops.media import (frame_features, sample_frames,
                                     synth_avi_table)

    refs = [f"media://doc-{i:06d}/0" for i in range(100)]
    frames = sample_frames(rd.from_arrow(synth_avi_table(refs)))
    return frame_features(frames, feat_dim=8)


def _q_media_gif(sf_dir):
    """REAL multi-frame codec path: payloads are actual animated-GIF
    bytes (stdlib LZW + palette decode, ops/gif.py); sampled frames and
    their features derive from true pixels — the frame-sampling shape
    with a genuine video-like container; rows-only (binary inputs are
    synthesized, not SQL-visible)."""
    import ray.data as rd

    from kgruntime.ops.media import gif_frame_features, synth_gif_table

    refs = [f"media://doc-{i:06d}/gif" for i in range(100)]
    out = gif_frame_features(rd.from_arrow(synth_gif_table(refs))) \
        .to_pandas().sort_values(["media_ref", "frame_index"]) \
        .reset_index(drop=True)
    # binary frame payloads → hashes for a stable driver value compare
    out["frame_rgb"] = out.pop("frame_rgb").map(
        lambda b: __import__("hashlib").sha256(b).hexdigest())
    return out


def _q_media_resize(sf_dir):
    import ray.data as rd

    from kgruntime.ops.media import resize_raw_images, synth_raw_images

    refs = [f"media://doc-{i:06d}/raw" for i in range(100)]
    out = resize_raw_images(rd.from_arrow(synth_raw_images(refs))) \
        .to_pandas().sort_values("media_ref").reset_index(drop=True)
    # binary payload hashes keep the driver's value compare stable
    out["payload"] = out.pop("payload").map(
        lambda b: __import__("hashlib").sha256(b).hexdigest())
    return out


# ---------------------------------------------------------------------------
# oracle SQL (DuckDB; views pre-registered by the driver)
# ---------------------------------------------------------------------------

_STOPWORDS_SQL = ("['the','a','an','and','or','of','to','in','is','are',"
                  "'was','were','be','been','for','on','with','as','at',"
                  "'by','it','this','that','from']")


def _sessions_sql():
    from kgruntime.ops.sessions import SESSIONIZE_SQL

    return SESSIONIZE_SQL


def _tumbling_sql():
    from kgruntime.ops.sessions import TUMBLING_HOURLY_SQL

    return TUMBLING_HOURLY_SQL


def _hopping_sql():
    from kgruntime.ops.sessions import HOPPING_2H_1H_SQL

    return HOPPING_2H_1H_SQL


def _user_gaps_sql():
    from kgruntime.ops.sessions import USER_GAP_STATS_SQL

    return USER_GAP_STATS_SQL


def _transitions_sql():
    from kgruntime.ops.sessions import EVENT_TRANSITIONS_SQL

    return EVENT_TRANSITIONS_SQL


def _funnel_sql():
    from kgruntime.ops.sessions import funnel_counts_sql

    return funnel_counts_sql()


def _retention_sql():
    from kgruntime.ops.sessions import RETENTION_COHORTS_SQL

    return RETENTION_COHORTS_SQL


def _win_dedup_sql():
    from kgruntime.ops.sessions import windowed_event_dedup_sql

    return windowed_event_dedup_sql()


def _cooccur_sql():
    from kgruntime.ops.sessions import cooccurrence_edges_sql

    return cooccurrence_edges_sql()


def _pagerank_sql():
    from kgruntime.ops.graph import pagerank_cooccurrence_sql

    return pagerank_cooccurrence_sql()


def _term_freqs_sql():
    from kgruntime.ops.text import TERM_FREQUENCIES_SQL

    return TERM_FREQUENCIES_SQL


def _vocab_lang_sql():
    from kgruntime.ops.text import VOCAB_PER_LANG_SQL

    return VOCAB_PER_LANG_SQL


def _strat_sample_sql():
    from kgruntime.ops.sample import stratified_sample_sql

    return stratified_sample_sql(_SAMPLE_RATES,
                                 columns="doc_id, lang, source")


def _running_totals_sql():
    from kgruntime.ops.sessions import RUNNING_USER_TOTALS_SQL

    return RUNNING_USER_TOTALS_SQL


def _repetition_sql():
    from kgruntime.ops.text import REPETITION_SCORES_SQL

    return REPETITION_SCORES_SQL


def _contamination_sql():
    from kgruntime.ops.text import contamination_sql

    return contamination_sql()


def _tfidf_terms_sql():
    from kgruntime.ops.text import tfidf_doc_terms_sql

    return tfidf_doc_terms_sql()


def _token_shards_sql():
    from kgruntime.ops.shard import token_budget_shards_sql

    return token_budget_shards_sql()


def _langid_oracle_sql():
    from kgruntime.ops.text import LANGID_SQL

    return LANGID_SQL


def _fingerprints_sql():
    from kgruntime.ops.text import FINGERPRINTS_SQL

    return FINGERPRINTS_SQL


_EMB_DIM = 64   # testdata embeddings.parquet dimension (all scale factors)


def _minhash_sql():
    from kgruntime.ops.dedup import minhash_near_dups_sql

    return minhash_near_dups_sql(threshold=0.5)   # mirrors _q_minhash


def _minhash_clusters_sql():
    from kgruntime.ops.dedup import minhash_dup_clusters_sql

    return minhash_dup_clusters_sql(threshold=0.5)


def _near_dedup_sql():
    from kgruntime.ops.dedup import near_dedup_corpus_sql

    return near_dedup_corpus_sql(threshold=0.5)


def _split_assign_sql():
    from kgruntime.ops.sample import split_assign_sql

    return split_assign_sql()


def _source_mix_sql():
    from kgruntime.ops.text import source_mix_weights_sql

    return source_mix_weights_sql()


def _blocklist_sql():
    from kgruntime.ops.text import blocklist_filter_sql

    return blocklist_filter_sql()


def _redact_sql():
    from kgruntime.ops.text import redact_terms_sql

    return redact_terms_sql()


def _deciles_sql():
    from kgruntime.ops.stats import value_deciles_sql

    return value_deciles_sql()


def _pack_sql():
    from kgruntime.ops.shard import pack_sequences_sql

    return pack_sequences_sql()


def _langid_mismatch_sql():
    from kgruntime.ops.text import langid_mismatch_sql

    return langid_mismatch_sql()


def _zscore_sql():
    from kgruntime.ops.stats import zscore_by_source_sql

    return zscore_by_source_sql()


def _anomalies_sql():
    from kgruntime.ops.stats import event_anomalies_sql

    return event_anomalies_sql()


def _hll_sql():
    from kgruntime.ops.sketch import hll_distinct_sql

    return hll_distinct_sql()


def _rarity_sql():
    from kgruntime.ops.text import DOC_RARITY_SQL

    return DOC_RARITY_SQL


def _dup_rate_sql():
    from kgruntime.ops.dedup import DUP_RATE_BY_SOURCE_SQL

    return DUP_RATE_BY_SOURCE_SQL


def _prefix_overlap_sql():
    from kgruntime.ops.dedup import sorted_neighbor_overlap_sql

    return sorted_neighbor_overlap_sql(min_prefix=10)


def _suffix_overlap_sql():
    from kgruntime.ops.dedup import sorted_neighbor_overlap_sql

    return sorted_neighbor_overlap_sql(min_prefix=10,
                                       text_expr="reverse(text)")


def _chunks_sql():
    from kgruntime.ops.text import chunk_documents_sql

    return chunk_documents_sql()


def _bigrams_sql():
    from kgruntime.ops.text import bigram_counts_sql

    return bigram_counts_sql()


def _simhash_sql():
    from kgruntime.ops.dedup import simhash_near_dups_sql

    return simhash_near_dups_sql(max_hamming=3)   # mirrors _q_simhash


def _emb_near_dups_sql():
    from kgruntime.ops.dedup import embedding_near_dups_sql

    return embedding_near_dups_sql(dim=_EMB_DIM, threshold=0.35,
                                   n_planes=6, n_tables=8)


def _ann_lsh_sql():
    from kgruntime.ops.ann import lsh_topk_sql

    return lsh_topk_sql(dim=_EMB_DIM, k=_ANN_K, n_queries=_ANN_N_QUERIES)


def _ann_ivf_sql():
    from kgruntime.ops.ann import ivf_topk_sql

    return ivf_topk_sql(k=_ANN_K, n_queries=_ANN_N_QUERIES)


def _kmeans_clusters_sql():
    from kgruntime.ops.ann import kmeans_clusters_sql

    return kmeans_clusters_sql()


def _pii_scan_sql():
    from kgruntime.ops.text import pii_scan_sql

    return pii_scan_sql()


def _normalized_dups_sql():
    from kgruntime.ops.text import normalized_dup_docs_sql

    return normalized_dup_docs_sql()


def _rare_token_pairs_sql():
    from kgruntime.ops.dedup import rare_token_pairs_sql

    return rare_token_pairs_sql()


def _event_trigrams_sql():
    from kgruntime.ops.sessions import EVENT_PATH_TRIGRAMS_SQL

    return EVENT_PATH_TRIGRAMS_SQL


def _session_conversion_sql():
    from kgruntime.ops.sessions import SESSION_CONVERSION_BY_DOW_SQL

    return SESSION_CONVERSION_BY_DOW_SQL


def _decayed_value_sql():
    from kgruntime.ops.sessions import decayed_user_value_sql

    return decayed_user_value_sql()


def _top_terms_source_sql():
    from kgruntime.ops.text import top_terms_per_source_sql

    return top_terms_per_source_sql()


def _capped_dups_sql():
    from kgruntime.ops.text import capped_duplicate_sample_sql

    return capped_duplicate_sample_sql()


def _incremental_dups_sql():
    from kgruntime.ops.dedup import incremental_dup_check_sql

    return incremental_dup_check_sql()


def _split_leakage_sql():
    from kgruntime.ops.sample import split_leakage_sql

    return split_leakage_sql()


def _emb_dup_clusters_sql():
    from kgruntime.ops.dedup import embedding_dup_clusters_sql

    return embedding_dup_clusters_sql(dim=_EMB_DIM, threshold=0.35,
                                      n_planes=6, n_tables=8)


def _curate_corpus_sql():
    from kgruntime.ops.text import curate_corpus_sql

    return curate_corpus_sql()


def _events_profile_sql():
    from kgruntime.ops.stats import table_profile_sql

    return table_profile_sql(_PROFILE_COLS, "events")


def _pct_ranks_sql():
    from kgruntime.ops.stats import value_percentile_ranks_sql

    return value_percentile_ranks_sql()


def _user_components_sql():
    from kgruntime.ops.graph import user_components_sql

    return user_components_sql()


def _bloom_user_days_sql():
    from kgruntime.ops.sketch import bloom_distinct_sql

    return bloom_distinct_sql()


def _reservoir_lang_sql():
    from kgruntime.ops.sample import reservoir_per_group_sql

    return reservoir_per_group_sql()


def oracle_sql() -> dict[str, str]:
    from kgruntime import relational as R

    return {
        "pricing_summary": R.Q_PRICING_SUMMARY_SQL,
        "orders_by_status": R.Q_ORDERS_BY_STATUS_SQL,
        "top_customers": R.Q_TOP_CUSTOMERS_SQL,
        "customers_per_region": R.Q_CUSTOMERS_PER_REGION_SQL,
        "events_by_type_day": R.Q_EVENTS_BY_TYPE_DAY_SQL,
        "user_activity": R.Q_USER_ACTIVITY_SQL,
        "parts_by_brand": R.Q_PARTS_BY_BRAND_SQL,
        "revenue_by_part_type": R.Q_REVENUE_BY_PART_TYPE_SQL,
        "discounted_orders": R.Q_DISCOUNTED_ORDERS_SQL,
        "customers_without_orders": R.Q_CUSTOMERS_WITHOUT_ORDERS_SQL,
        "distinct_users_per_type": R.Q_DISTINCT_USERS_PER_TYPE_SQL,
        "shipping_priority": R.Q_SHIPPING_PRIORITY_SQL,
        "top_event_per_user": R.Q_TOP_EVENT_PER_USER_SQL,
        "asof_click_purchase": R.Q_ASOF_CLICK_PURCHASE_SQL,
        "value_bands": R.Q_VALUE_BANDS_SQL,
        "top_type_per_user": R.Q_TOP_TYPE_PER_USER_SQL,
        "event_value_quantiles": R.Q_EVENT_VALUE_QUANTILES_SQL,
        "local_supplier_revenue": R.Q_LOCAL_SUPPLIER_REVENUE_SQL,
        "props_k_stats": R.Q_PROPS_K_STATS_SQL,
        "corr_qty_price": R.Q_CORR_QTY_PRICE_SQL,
        "user_event_pivot": R.Q_USER_EVENT_PIVOT_SQL,
        "rollup_region_nation": R.Q_ROLLUP_REGION_NATION_SQL,
        "top3_per_nation": R.Q_TOP3_PER_NATION_SQL,
        "monthly_revenue_ma3": R.Q_MONTHLY_REVENUE_MA3_SQL,
        "long_docs_p90": R.Q_LONG_DOCS_P90_SQL,
        "events_dow_hour": R.Q_EVENTS_DOW_HOUR_SQL,
        "orders_priority_share": R.Q_ORDERS_PRIORITY_SHARE_SQL,
        "term_frequencies": _term_freqs_sql(),
        "vocab_per_lang": _vocab_lang_sql(),
        "stratified_sample": _strat_sample_sql(),
        "running_user_totals": _running_totals_sql(),
        "repetition_scores": _repetition_sql(),
        "contamination_check": _contamination_sql(),
        "tfidf_doc_terms": _tfidf_terms_sql(),
        "token_shards": _token_shards_sql(),
        "langid_pred": _langid_oracle_sql(),
        "doc_fingerprints": _fingerprints_sql(),
        "minhash_near_dups": _minhash_sql(),
        "minhash_dup_clusters": _minhash_clusters_sql(),
        "near_dedup_corpus": _near_dedup_sql(),
        "split_assign": _split_assign_sql(),
        "source_mix_weights": _source_mix_sql(),
        "blocklist_filter": _blocklist_sql(),
        "redact_terms": _redact_sql(),
        "length_deciles": _deciles_sql(),
        "pack_sequences": _pack_sql(),
        "hll_distinct_users": _hll_sql(),
        "doc_rarity_scores": _rarity_sql(),
        "dup_rate_by_source": _dup_rate_sql(),
        "prefix_overlap_pairs": _prefix_overlap_sql(),
        "suffix_overlap_pairs": _suffix_overlap_sql(),
        "langid_mismatch": _langid_mismatch_sql(),
        "zscore_by_source": _zscore_sql(),
        "event_anomalies": _anomalies_sql(),
        "chunk_documents": _chunks_sql(),
        "bigram_counts": _bigrams_sql(),
        "simhash_near_dups": _simhash_sql(),
        "embedding_near_dups": _emb_near_dups_sql(),
        "ann_topk_lsh": _ann_lsh_sql(),
        "ann_topk_ivf": _ann_ivf_sql(),
        "kmeans_clusters": _kmeans_clusters_sql(),
        "pii_scan": _pii_scan_sql(),
        "normalized_dup_docs": _normalized_dups_sql(),
        "rare_token_pairs": _rare_token_pairs_sql(),
        "event_path_trigrams": _event_trigrams_sql(),
        "session_conversion_by_dow": _session_conversion_sql(),
        "decayed_user_value": _decayed_value_sql(),
        "maxsim_topk": _maxsim_topk_oracle(),
        "loo_source_influence": _loo_source_influence_oracle(),
        "quality_threshold_sweep": _quality_sweep_oracle(),
        "url_canonical_dups": _url_canonical_dups_oracle(),
        "source_token_budget": _source_token_budget_oracle(),
        "page_stitch_pairs": _page_stitch_oracle(),
        "term_concentration": _term_concentration_oracle(),
        "char_entropy": _char_entropy_oracle(),
        "bigram_lm_scores": _bigram_lm_oracle(),
        "embedding_outliers": _embedding_outliers_oracle(),
        "purchase_click_window": _purchase_click_oracle(),
        "knn_graph": _knn_graph_oracle(),
        "cms_heavy_bigrams": _cms_oracle(),
        "kmv_distinct_users": _kmv_oracle(),
        "temperature_mix_sample": _temp_mix_oracle(),
        "corpus_diff": _corpus_diff_oracle(),
        "user_value_trend": _user_value_trend_oracle(),
        "bloom_filtered_brand_revenue": _bloom_brand_oracle(),
        "hll_hopping_users": _hll_hopping_oracle(),
        "trimmed_mean_value": _trimmed_mean_oracle(),
        "triangle_census": _triangle_oracle(),
        "span_corrupt": _span_corrupt_oracle(),
        "ngram_dedup_rewrite": _ngram_dedup_oracle(),
        "bpe_merges": _bpe_oracle(),
        "k_core_members": _k_core_oracle(),
        "vocab_drift": _vocab_drift_oracle(),
        "orc_roundtrip_stats": _ROUNDTRIP_STATS_SQL,
        "ipc_roundtrip_stats": _ROUNDTRIP_STATS_SQL,
        "gzjsonl_roundtrip_stats": _ROUNDTRIP_STATS_SQL,
        "scd2_segment_revenue": R.Q_SCD2_SEGMENT_REVENUE_SQL,
        "retrieval_rank_agreement": _rank_agreement_oracle(),
        "epoch_shuffle_audit": _epoch_shuffle_oracle(),
        "dedup_sensitivity_sweep": _dedup_sweep_oracle(),
        "triplet_mining": _triplet_mining_oracle(),
        "pareto_front_parts": R.Q_PARETO_FRONT_PARTS_SQL,
        "peak_user_rate": _peak_rate_oracle(),
        "events_quarantine": _events_quarantine_oracle(),
        "embedding_gram": _embedding_gram_oracle(),
        "join_strategy_advisor": R.Q_JOIN_STRATEGY_ADVISOR_SQL,
        "ks_value_drift": _ks_drift_oracle(),
        "benford_audit": _benford_oracle(),
        "subtree_balance_rollup": _subtree_rollup_oracle(),
        "streaming_emit_audit": _streaming_emit_oracle(),
        "pq_quant_recall": _pq_recall_oracle(),
        "bitmap_index_queries": _bitmap_index_oracle(),
        "multi_query_lexical": _multi_lexical_oracle(),
        "k_anonymity_audit": _k_anonymity_oracle(),
        "personalized_pagerank": _ppr_oracle(),
        "copy_genealogy": _copy_genealogy_oracle(),
        "composition_drift": _composition_drift_oracle(),
        "conversion_delay_pcts": _conv_delay_oracle(),
        "supplier_performance": R.Q_SUPPLIER_PERFORMANCE_SQL,
        "trending_part_types": R.Q_TRENDING_PART_TYPES_SQL,
        "int8_quant_recall": _int8_recall_oracle(),
        "peak_concurrent_users": _peak_concurrency_oracle(),
        "incremental_near_dups": _incremental_near_dups_oracle(),
        "hard_negatives": _hard_negatives_oracle(),
        "padding_waste": _padding_waste_oracle(),
        "partitioned_export_prune": """
    SELECT source, count(*) AS n_docs,
           sum(n_chars)::BIGINT AS total_chars
    FROM documents WHERE lang = 'en' GROUP BY source ORDER BY source
""",
        "fuzzy_name_matches": _fuzzy_names_oracle(),
        "winnow_dup_pairs": _winnow_pairs_oracle(),
        "set_sim_join_pairs": _set_sim_join_oracle(),
        "pmi_collocations": _pmi_oracle(),
        "phrase_search_hits": _phrase_search_oracle(),
        "rfm_segments": _rfm_oracle(),
        "mad_by_type": _mad_oracle(),
        "curriculum_order": _curriculum_oracle(),
        "weighted_sample": _weighted_sample_oracle(),
        "click_attribution": _click_attr_oracle(),
        "principal_component": _pc_oracle(),
        "minhash_error_audit": _minhash_audit_oracle(),
        "late_event_audit": _late_events_oracle(),
        "embedding_drift": _emb_drift_oracle(),
        "dq_audit": _dq_audit_oracle(),
        "lexical_topk": _lexical_topk_oracle(),
        "rrf_fusion": _rrf_fusion_oracle(),
        "entity_clusters": _entity_clusters_oracle(),
        "session_incident_overlap": _session_incidents_oracle(),
        "user_hourly_locf": _user_hourly_locf_oracle(),
        "mg_heavy_trigrams": _mg_heavy_trigrams_oracle(),
        "lpa_communities": _lpa_communities_oracle(),
        "bootstrap_stats": _bootstrap_stats_oracle(),
        "cdc_chunk_dedup": _cdc_chunks_oracle(),
        "embargo_split_audit": _embargo_split_oracle(),
        "cluster_safe_split": _cluster_safe_split_oracle(),
        "vocab_coverage": _vocab_coverage_oracle(),
        "value_purchase_auc": _value_auc_oracle(),
        "langid_confusion": _langid_confusion_oracle(),
        "shingle_novelty": _shingle_novelty_oracle(),
        "trigram_diversity": _trigram_diversity_oracle(),
        "bpe_fertility": _bpe_fertility_oracle(),
        "revenue_cube": R.Q_REVENUE_CUBE_SQL,
        "user_active_time": _user_active_time_oracle(),
        "decile_lift": _decile_lift_oracle(),
        "basket_affinity": R.Q_BASKET_AFFINITY_SQL,
        "ann_recall_audit": _ann_recall_oracle(),
        "bot_regularity": _bot_regularity_oracle(),
        "mmr_diverse_topk": _mmr_topk_oracle(),
        "pit_training_features": _pit_features_oracle(),
        "source_overlap_matrix": _source_overlap_oracle(),
        "near_split_leakage": _near_split_leakage_oracle(),
        "dsir_importance": _dsir_oracle(),
        "rec_negative_samples": R.Q_REC_NEGATIVE_SAMPLES_SQL,
        "markov_next_event": _markov_oracle(),
        "rp_projection_recall": _rp_recall_oracle(),
        "dp_noisy_counts": _dp_noisy_oracle(),
        "encoding_advisor": _encoding_advisor_oracle(),
        "join_skew_audit": _join_skew_oracle(),
        "range_partition_plan": _range_plan_oracle(),
        "community_modularity": _modularity_oracle(),
        "stickiness_dau_mau": _stickiness_oracle(),
        "cdc_upsert_merge": _cdc_merge_oracle(),
        "feature_cross_hash": _feature_cross_oracle(),
        "zorder_layout_audit": _zorder_oracle(),
        "max_coverage_picks": _max_coverage_oracle(),
        "top_terms_per_source": _top_terms_source_sql(),
        "user_components": _user_components_sql(),
        "curate_corpus": _curate_corpus_sql(),
        "asof_purchase_next_click": R.Q_ASOF_PURCHASE_NEXT_CLICK_SQL,
        "split_leakage": _split_leakage_sql(),
        "nation_trade_volume": R.Q_NATION_TRADE_VOLUME_SQL,
        "incremental_dup_check": _incremental_dups_sql(),
        "capped_duplicate_sample": _capped_dups_sql(),
        "embedding_dup_clusters": _emb_dup_clusters_sql(),
        "events_profile": _events_profile_sql(),
        "value_percentile_ranks": _pct_ranks_sql(),
        "bloom_distinct_user_days": _bloom_user_days_sql(),
        "reservoir_per_lang": _reservoir_lang_sql(),
        "doc_stats": """
            SELECT source, count(*) AS n_docs,
                   round(avg(n_chars), 4) AS avg_chars,
                   sum(n_chars)::BIGINT AS total_chars
            FROM documents GROUP BY source ORDER BY source
        """,
        "token_stats": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\s+'))
                   END AS n_tokens,
                   len(regexp_extract_all(text,
                       '[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+')) AS n_bpe_tokens,
                   CASE WHEN trim(text) = '' THEN 0.0
                        ELSE round(
                          length(regexp_replace(trim(text), '\s+', '', 'g'))
                          ::DOUBLE /
                          len(regexp_split_to_array(trim(text), '\s+')), 6)
                   END AS avg_token_len
            FROM documents ORDER BY doc_id
        """,
        "quality_scores": rf"""
            WITH toks AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                          ELSE regexp_split_to_array(trim(text), '\s+')
                     END AS t
              FROM documents)
            SELECT doc_id, len(t) AS n_tokens,
                   CASE WHEN len(t) = 0 THEN 0.0 ELSE
                     round(len(list_filter(t, x ->
                       list_contains({_STOPWORDS_SQL}, lower(x))))::DOUBLE
                       / len(t), 6) END AS stopword_ratio,
                   CASE WHEN len(t) = 0 THEN 0.0 ELSE
                     round(len(list_filter(t, x ->
                       regexp_matches(x, '^[A-Za-z]+$')))::DOUBLE
                       / len(t), 6) END AS alpha_ratio,
                   CASE WHEN len(t) = 0 THEN 0.0 ELSE
                     round(least(1.0, len(t) / 50.0)
                       * (0.5 + 0.5 * (len(list_filter(t, x ->
                            regexp_matches(x, '^[A-Za-z]+$')))::DOUBLE
                            / len(t)))
                       * (1.0 - 0.5 * (len(list_filter(t, x ->
                            list_contains({_STOPWORDS_SQL}, lower(x))))::DOUBLE
                            / len(t))), 6) END AS quality
            FROM toks ORDER BY doc_id
        """,
        "clean_corpus": _clean_corpus_sql(),
        "sessionize": _sessions_sql(),
        "tumbling_hourly": _tumbling_sql(),
        "hopping_2h_1h": _hopping_sql(),
        "user_gap_stats": _user_gaps_sql(),
        "event_transitions": _transitions_sql(),
        "funnel_counts": _funnel_sql(),
        "retention_cohorts": _retention_sql(),
        "cooccurrence_edges": _cooccur_sql(),
        "pagerank_users": _pagerank_sql(),
        "windowed_event_dedup": _win_dedup_sql(),
        "lang_distribution": """
            SELECT lang, count(*) AS n_docs
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "exact_dup_docs": """
            SELECT text, min(doc_id) AS keep_id, count(*) AS n_dups
            FROM documents GROUP BY text ORDER BY keep_id
        """,
        "jaccard_adjacent": r"""
            WITH toks AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                          ELSE regexp_split_to_array(trim(text), '\s+')
                     END AS t
              FROM documents),
            grams AS (
              SELECT doc_id,
                     CASE WHEN len(t) = 0 THEN []::VARCHAR[]
                          WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                          ELSE list_distinct(list_transform(
                            range(1, len(t) - 1),
                            i -> concat_ws(' ', t[i], t[i+1], t[i+2])))
                     END AS g
              FROM toks)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CASE WHEN len(list_distinct(list_concat(a.g, b.g))) = 0
                        THEN 1.0
                        ELSE round(len(list_intersect(a.g, b.g))::DOUBLE
                          / len(list_distinct(list_concat(a.g, b.g))), 6)
                   END AS jaccard
            FROM grams a JOIN grams b ON b.doc_id = a.doc_id + 1
            WHERE a.doc_id % 2 = 0
            ORDER BY doc_a
        """,
        "ann_topk": f"""
            WITH q AS (SELECT vec_id, embedding FROM embeddings
                       ORDER BY vec_id LIMIT {_ANN_N_QUERIES})
            SELECT query_id, neighbor_id FROM (
              SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                     row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(
                         q.embedding::DOUBLE[], e.embedding::DOUBLE[]) DESC,
                         e.vec_id ASC) AS rnk
              FROM q CROSS JOIN embeddings e
              WHERE e.vec_id != q.vec_id)
            WHERE rnk <= {_ANN_K}
            ORDER BY query_id, neighbor_id
        """,
        "label_centroids": """
            WITH e AS (
              SELECT label, generate_subscripts(embedding, 1) AS i,
                     CAST(round(CAST(unnest(embedding) AS DOUBLE)
                                * 1000000) AS BIGINT) AS u
              FROM embeddings)
            SELECT label, i,
                   round(sum(u) / (count(*) * 1000000.0), 6) AS centroid
            FROM e GROUP BY label, i ORDER BY label, i
        """,
        "knn_label_vote": f"""
            WITH q AS (SELECT vec_id, embedding FROM embeddings
                       ORDER BY vec_id LIMIT {_ANN_N_QUERIES}),
            nn AS (
              SELECT query_id, neighbor_id FROM (
                SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                       row_number() OVER (
                         PARTITION BY q.vec_id
                         ORDER BY list_cosine_similarity(
                           q.embedding::DOUBLE[], e.embedding::DOUBLE[])
                           DESC, e.vec_id ASC) AS rnk
                FROM q CROSS JOIN embeddings e
                WHERE e.vec_id != q.vec_id)
              WHERE rnk <= {_ANN_K}),
            v AS (
              SELECT nn.query_id, e.label, count(*) AS n_votes
              FROM nn JOIN embeddings e ON nn.neighbor_id = e.vec_id
              GROUP BY nn.query_id, e.label),
            r AS (
              SELECT *, row_number() OVER (
                PARTITION BY query_id
                ORDER BY n_votes DESC, label ASC) AS rn
              FROM v)
            SELECT query_id, label AS pred_label, n_votes
            FROM r WHERE rn = 1 ORDER BY query_id
        """,
    }


def _char_entropy_oracle() -> str:
    from kgruntime.ops.quality import char_entropy_sql

    return char_entropy_sql()


def _bigram_lm_oracle() -> str:
    from kgruntime.ops.quality import bigram_lm_sql

    return bigram_lm_sql()


def _embedding_outliers_oracle() -> str:
    from kgruntime.ops.ann import embedding_outliers_sql

    return embedding_outliers_sql()


def _knn_graph_oracle() -> str:
    from kgruntime.ops.ann import knn_graph_sql

    return knn_graph_sql(dim=_EMB_DIM, k=5, n_planes=6, n_tables=2)


def _cms_oracle() -> str:
    from kgruntime.ops.sketch import cms_heavy_bigrams_sql

    return cms_heavy_bigrams_sql()


def _kmv_oracle() -> str:
    from kgruntime.ops.sketch import kmv_distinct_sql

    return kmv_distinct_sql()


def _temp_mix_oracle() -> str:
    from kgruntime.ops.sample import temperature_mix_sample_sql

    return temperature_mix_sample_sql()


def _corpus_diff_oracle() -> str:
    from kgruntime.ops.dedup import corpus_diff_sql

    return corpus_diff_sql()


def _user_value_trend_oracle() -> str:
    from kgruntime.ops.sessions import user_value_trend_sql

    return user_value_trend_sql()


def _bloom_brand_oracle() -> str:
    from kgruntime.relational import bloom_filtered_brand_revenue_sql

    return bloom_filtered_brand_revenue_sql()


def _hll_hopping_oracle() -> str:
    from kgruntime.ops.sessions import hll_distinct_hopping_sql

    return hll_distinct_hopping_sql()


def _trimmed_mean_oracle() -> str:
    from kgruntime.ops.stats import trimmed_mean_by_group_sql

    return trimmed_mean_by_group_sql()


def _triangle_oracle() -> str:
    from kgruntime.ops.graph import triangle_count_sql

    return triangle_count_sql()


def _span_corrupt_oracle() -> str:
    from kgruntime.ops.text import span_corrupt_sql

    return span_corrupt_sql()


def _ngram_dedup_oracle() -> str:
    from kgruntime.ops.dedup import ngram_dedup_rewrite_sql

    return ngram_dedup_rewrite_sql()


def _bpe_oracle() -> str:
    from kgruntime.ops.bpe import bpe_merges_sql

    return bpe_merges_sql(rounds=8)


def _incremental_near_dups_oracle() -> str:
    from kgruntime.ops.dedup import incremental_near_dups_sql

    return incremental_near_dups_sql()


def _peak_concurrency_oracle() -> str:
    from kgruntime.ops.sessions import PEAK_CONCURRENT_USERS_SQL

    return PEAK_CONCURRENT_USERS_SQL


def _emb_drift_oracle() -> str:
    from kgruntime.ops.ann import embedding_drift_sql

    return embedding_drift_sql()


def _late_events_oracle() -> str:
    from kgruntime.ops.sessions import late_event_audit_sql

    return late_event_audit_sql()


def _minhash_audit_oracle() -> str:
    from kgruntime.ops.dedup import minhash_error_audit_sql

    return minhash_error_audit_sql()


def _pc_oracle() -> str:
    from kgruntime.ops.ann import principal_component_sql

    return principal_component_sql()


def _click_attr_oracle() -> str:
    from kgruntime.ops.sessions import click_attribution_sql

    return click_attribution_sql()


def _weighted_sample_oracle() -> str:
    from kgruntime.ops.sample import weighted_priority_sample_sql

    return weighted_priority_sample_sql()


def _curriculum_oracle() -> str:
    from kgruntime.ops.shard import curriculum_order_sql

    return curriculum_order_sql()


def _mad_oracle() -> str:
    from kgruntime.ops.stats import mad_by_group_sql

    return mad_by_group_sql()


def _rfm_oracle() -> str:
    from kgruntime.ops.sessions import rfm_segments_sql

    return rfm_segments_sql()


def _phrase_search_oracle() -> str:
    from kgruntime.ops.text import phrase_search_sql

    return phrase_search_sql(_PHRASE)


def _pmi_oracle() -> str:
    from kgruntime.ops.text import pmi_collocations_sql

    return pmi_collocations_sql()


def _maxsim_topk_oracle() -> str:
    from kgruntime.ops.text import maxsim_topk_sql

    return maxsim_topk_sql()


def _loo_source_influence_oracle() -> str:
    from kgruntime.ops.valuation import loo_source_influence_sql

    return loo_source_influence_sql()


def _quality_sweep_oracle() -> str:
    from kgruntime.ops.valuation import quality_threshold_sweep_sql

    return quality_threshold_sweep_sql()


def _url_canonical_dups_oracle() -> str:
    from kgruntime.ops.valuation import url_canonical_dups_sql

    return url_canonical_dups_sql()


def _source_token_budget_oracle() -> str:
    from kgruntime.ops.valuation import source_token_budget_sql

    return source_token_budget_sql()


def _term_concentration_oracle() -> str:
    from kgruntime.ops.valuation import term_concentration_by_source_sql

    return term_concentration_by_source_sql()


def _page_stitch_oracle() -> str:
    from kgruntime.ops.dedup import page_stitch_pairs_sql

    return page_stitch_pairs_sql()


def _set_sim_join_oracle() -> str:
    from kgruntime.ops.dedup import set_sim_join_sql

    return set_sim_join_sql()


def _fuzzy_names_oracle() -> str:
    from kgruntime.ops.linkage import fuzzy_name_matches_sql

    return fuzzy_name_matches_sql()


def _winnow_pairs_oracle() -> str:
    from kgruntime.ops.dedup import winnow_dup_pairs_sql

    return winnow_dup_pairs_sql()


def _padding_waste_oracle() -> str:
    from kgruntime.ops.shard import padding_waste_sql

    return padding_waste_sql()


def _hard_negatives_oracle() -> str:
    from kgruntime.ops.ann import hard_negatives_sql

    return hard_negatives_sql(k=_ANN_K, n_queries=_ANN_N_QUERIES)


def _int8_recall_oracle() -> str:
    from kgruntime.ops.ann import int8_quant_recall_sql

    return int8_quant_recall_sql(k=_ANN_K, n_queries=_ANN_N_QUERIES)


def _k_core_oracle() -> str:
    from kgruntime.ops.graph import k_core_sql

    return k_core_sql(k=2, rounds=8)


def _vocab_drift_oracle() -> str:
    from kgruntime.ops.dedup import vocab_drift_sql

    return vocab_drift_sql()


_ROUNDTRIP_STATS_SQL = """
    SELECT source, count(*) AS n_docs,
           sum(n_chars)::BIGINT AS total_chars
    FROM documents GROUP BY source ORDER BY source
"""


def _purchase_click_oracle() -> str:
    from kgruntime.ops.sessions import purchase_click_window_sql

    return purchase_click_window_sql()
