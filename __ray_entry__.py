"""Driver contract for the Ray-Data validation engine.

``entry()`` runs the flagship validation pipeline (fit reference state, then
the full stats + drift + constraint DAG) over the deterministic synthetic
images fixture (FIXTURES.md — the BASELINE.json ``input_hint`` table shape) and
returns the verdict rows. ``queries()`` exposes every operator family from
SURVEY.md §2 over the generic testdata tables; ``oracle_sql()`` gives the
DuckDB-equivalent SQL where one exists (non-SQL-expressible ops — MMD
permutation tests, MinHash-LSH, SimHash, LSH-ANN, the image pipeline itself —
are rows-only by design).

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

from serverless_covariate_drift_detection_ray.pipelines import (
    ann,
    classify,
    corpus,
    dimred,
    textops,
)
from serverless_covariate_drift_detection_ray.pipelines import queries as relq


def _flagship_run(sf_dir: str = "/root/testdata/sf0.001") -> tuple:
    """fit → validate over the tiny synthetic images fixture; returns
    (fixture_dir, out_dir) with the run committed (resume-cached).

    The testdata dir seeds nothing (the fixture is self-synthesized per
    FIXTURES.md) but is read to anchor the run to the driver-provided scale.
    """
    import ray.data

    # touch the driver-provided tables (sanity: they exist and are readable)
    ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()

    from serverless_covariate_drift_detection_ray.fixtures.gen import ensure_fixture
    from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
    from serverless_covariate_drift_detection_ray.pipelines.fit import fit
    from serverless_covariate_drift_detection_ray.pipelines.validate import validate

    fix = ensure_fixture("tiny")
    cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000")
    tag = os.path.basename(os.path.normpath(sf_dir))
    # ref/out dirs keyed by (fixture version, config fingerprint), like
    # bench.py: a stale refstate fit under an older fmt-category domain
    # now fails loudly at load, so it must never be reused silently
    from serverless_covariate_drift_detection_ray.state.checkpoint import (
        config_fingerprint,
    )

    key = f"{os.path.basename(fix)}-{config_fingerprint(cfg)[:12]}"
    ref_dir = f"/tmp/scdd_run/{tag}/refstate-{key}"
    out_dir = f"/tmp/scdd_run/{tag}/out-{key}"
    if not os.path.exists(os.path.join(ref_dir, "reference_meta.json")):
        fit(fix, ref_dir, cfg)
    validate(fix, ref_dir, out_dir, cfg, resume=True)
    return fix, out_dir


def _flagship(sf_dir: str = "/root/testdata/sf0.001"):
    """Flagship query entry: the committed verdict table of the run."""
    import glob

    import pandas as pd
    import pyarrow.parquet as pq

    _, out_dir = _flagship_run(sf_dir)
    verdicts = pd.concat([
        pq.read_table(f).to_pandas()
        for f in sorted(glob.glob(os.path.join(out_dir, "verdicts", "*", "*.parquet")))
    ]).reset_index(drop=True)
    return verdicts


def _violations_digest(sf_dir: str = "/root/testdata/sf0.001"):
    """Oracled flagship evidence (driver hard signal for validate_images):
    per-check digest — row count, distinct ids, and the exact sum of each
    image_id's embedded digits — of the run's COMMITTED violation rows.
    The oracle SQL computes the same digest over the fixture generator's
    seeded-truth sidecar (truth/violations.parquet), so the row goes red if
    the engine misses a seeded defect, reports a spurious one, or a check's
    verdict flips. Driver-side pandas is fine here: violations are already
    per-partition committed files and the digest is evidence, not a scale
    operator (the engine-side path is the distributed validate run itself).
    """
    import glob

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    _, out_dir = _flagship_run(sf_dir)
    files = sorted(glob.glob(os.path.join(out_dir, "violations", "*", "*.parquet")))
    if not files:
        # an engine that misses every seeded defect must surface as a RED
        # digest-vs-truth row, not an opaque pd.concat([]) crash
        viol = pd.DataFrame({"image_id": pd.Series([], dtype=object),
                             "check": pd.Series([], dtype=object)})
    else:
        viol = pd.concat(
            [pq.read_table(f, columns=["image_id", "check"]).to_pandas()
             for f in files]).reset_index(drop=True)

    def id_num(s) -> int:
        if s is None or (isinstance(s, float) and np.isnan(s)):
            return 0
        return int("".join(ch for ch in str(s) if ch.isdigit()) or 0)

    viol["idnum"] = viol.image_id.map(id_num).astype(np.int64)
    g = viol.groupby("check", sort=True)
    # explicit types: an empty digest must still carry (string, int64 x3)
    # so the driver sees a typed zero-row table vs the truth, not nulls
    return pa.table({
        "check": pa.array(list(g.groups), pa.string()),
        "n": pa.array(g.size().to_numpy().astype(np.int64)),
        "n_ids": pa.array(g.image_id.nunique().to_numpy().astype(np.int64)),
        "id_sum": pa.array(g.idnum.sum().to_numpy().astype(np.int64)),
    })


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    return _flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # aggregation / maps / filters (SURVEY §2.2-2.3)
        "q1_pricing_summary": relq.q1_pricing_summary,
        "rollup_pricing_summary": relq.rollup_pricing_summary,
        "cube_pricing_summary": relq.cube_pricing_summary,
        "month_histogram_orders": relq.month_histogram_orders,
        "unpivot_lineitem_measures": relq.unpivot_lineitem_measures,
        "json_extract_events": relq.json_extract_events,
        "filter_project_revenue": relq.filter_project_revenue,
        "corr_price_quantity_by_flag": relq.corr_price_quantity_by_flag,
        "corr_matrix_lineitem": relq.corr_matrix_lineitem,
        "entropy_categoricals": relq.entropy_categoricals,
        # joins (SURVEY §2.5)
        "join_broadcast_nation_revenue": relq.join_broadcast_nation_revenue,
        "join_large_priority_revenue": relq.join_large_priority_revenue,
        # sort / top-k / distinct / split / sample (SURVEY §2.6)
        "topk_orders": relq.topk_orders,
        "split_proportions_orders": relq.split_proportions_orders,
        "grouped_split_events": relq.grouped_split_events,
        "sample_random_orders": relq.sample_random_orders,
        "stratified_sample_orders": relq.stratified_sample_orders,
        "shuffle_orders": relq.shuffle_orders,
        "distinct_flag_status": relq.distinct_flag_status,
        "setops_customer_orders": relq.setops_customer_orders,
        "heavy_hitter_users": relq.heavy_hitter_users,
        "heavy_hitters_screened": relq.heavy_hitter_users,
        # windows / stream-shaped
        "window_tumbling_events": relq.window_tumbling_events,
        "window_hopping_events": relq.window_hopping_events,
        "chi2_by_window_events": relq.chi2_by_window_events,
        "cusum_changepoint_events": relq.cusum_changepoint_events,
        "ewma_control_events": relq.ewma_control_events,
        "seasonality_profile_events": relq.seasonality_profile_events,
        "ks_by_window_events": relq.ks_by_window_events,
        "sessionize_events": relq.sessionize_events,
        "running_sum_events": relq.running_sum_events,
        "rolling_1h_events": relq.rolling_1h_events,
        "event_gaps_per_user": relq.event_gaps_per_user,
        "dedup_events_debounce": relq.dedup_events_debounce,
        "streaming_running_totals": relq.streaming_running_totals,
        "funnel_view_click_purchase": relq.funnel_view_click_purchase,
        "topn_orders_per_priority": relq.topn_orders_per_priority,
        "rank_orders_dense": relq.rank_orders_dense,
        "latest_order_per_customer": relq.latest_order_per_customer,
        "antijoin_customers_no_orders": relq.antijoin_customers_no_orders,
        "asof_join_purchase_click": relq.asof_join_purchase_click,
        "interval_join_purchase_clicks": relq.interval_join_purchase_clicks,
        "range_join_price_bands": relq.range_join_price_bands,
        "semijoin_orders_build_nation": relq.semijoin_orders_build_nation,
        "upsert_orders_scd": relq.upsert_orders_scd,
        "pivot_status_by_priority": relq.pivot_status_by_priority,
        "q3_shipping_priority": relq.q3_shipping_priority,
        "q5_local_supplier_volume": relq.q5_local_supplier_volume,
        "mode_priority_by_status": relq.mode_priority_by_status,
        "bloom_semijoin_lineitem": relq.bloom_semijoin_lineitem,
        "event_path_per_user": relq.event_path_per_user,
        "redact_numbers_events": relq.redact_numbers_events,
        "cap_per_source_documents": textops.cap_per_source_documents,
        "duplicate_ngram_spans": textops.duplicate_ngram_spans,
        "bigram_repetition_documents": textops.bigram_repetition_documents,
        "gopher_repetition_documents": textops.gopher_repetition_documents,
        "vocab_drift_documents": textops.vocab_drift_documents,
        "skyline_orders": relq.skyline_orders,
        "ntile_orders": relq.ntile_orders,
        "percent_rank_orders": relq.percent_rank_orders,
        "checksum_orders": relq.checksum_orders,
        "weighted_sample_orders": relq.weighted_sample_orders,
        "fuzzy_match_parts": relq.fuzzy_match_parts,
        "entity_clusters_parts": relq.entity_clusters_parts,
        "pagerank_customers": relq.pagerank_customers,
        "triangle_count_parts": relq.triangle_count_parts,
        "fd_check_orders": relq.fd_check_orders,
        "skew_profile_orders": relq.skew_profile_orders,
        "benford_check_orders": relq.benford_check_orders,
        "zipf_fit_documents": relq.zipf_fit_documents,
        "mutual_info_documents": relq.mutual_info_documents,
        "copurchase_parts": relq.copurchase_parts,
        "transition_counts_events": relq.transition_counts_events,
        "retention_cohorts_events": relq.retention_cohorts_events,
        "expectation_suite_orders": relq.expectation_suite_orders,
        "impute_value_events": relq.impute_value_events,
        "encode_categories_orders": relq.encode_categories_orders,
        "jsonl_roundtrip_events": relq.jsonl_roundtrip_events,
        "csv_roundtrip_orders": relq.csv_roundtrip_orders,
        "orc_roundtrip_lineitem": relq.orc_roundtrip_lineitem,
        "ipc_roundtrip_orders": relq.ipc_roundtrip_orders,
        "fk_cardinality_customers": relq.fk_cardinality_customers,
        "freshness_events": relq.freshness_events,
        "gap_hours_events": relq.gap_hours_events,
        "table_diff_orders": relq.table_diff_orders,
        "late_events_watermark": relq.late_events_watermark,
        "envelope_anomalies_events": relq.envelope_anomalies_events,
        "above_avg_customers": relq.above_avg_customers,
        "ann_ivf_persistent": ann.ann_ivf_persistent,
        # validation-engine checks (SURVEY §2.7)
        "column_stats_lineitem": relq.column_stats_lineitem,
        "profile_table_orders": relq.profile_table_orders,
        "partition_roundtrip_events": relq.partition_roundtrip_events,
        "uniqueness_pk": relq.uniqueness_pk,
        "referential_orphans": relq.referential_orphans,
        "chi2_event_type": relq.chi2_event_type,
        "ks_purchase_click": relq.ks_purchase_click,
        "quantiles_extendedprice": relq.quantiles_extendedprice,
        "grouped_quantiles_flag": relq.grouped_quantiles_flag,
        "grouped_quantiles_tdigest": relq.grouped_quantiles_tdigest,
        "bin_prices_quartile": relq.bin_prices_quartile,
        "winsorize_lineitem": relq.winsorize_lineitem,
        "outlier_counts_lineitem": relq.outlier_counts_lineitem,
        "mad_outliers_events": relq.mad_outliers_events,
        "histogram_extendedprice": relq.histogram_extendedprice,
        # sketch-default variants (the at-scale paths; exact ones stay as
        # oracle anchors)
        "ks_purchase_click_hist": relq.ks_purchase_click_hist,
        "quantiles_extendedprice_tdigest": relq.quantiles_extendedprice_tdigest,
        "quantiles_exact_refine": relq.quantiles_exact_refine,
        "quantiles_cont_lineitem": relq.quantiles_cont_lineitem,
        "grouped_quantiles_exact": relq.grouped_quantiles_exact,
        "divergence_purchase_click": relq.divergence_purchase_click,
        "approx_distinct_users_by_type": relq.approx_distinct_users_by_type,
        "overlap_estimate_orders_customers": relq.overlap_estimate_orders_customers,
        # dedup / text analysis
        "dedup_exact_documents": textops.dedup_exact_documents,
        "dedup_keep_best_documents": textops.dedup_keep_best_documents,
        "dedup_report_documents": textops.dedup_report_documents,
        "jaccard_neardup_pairs": textops.jaccard_neardup_pairs,
        "ngram_jaccard_pairs": textops.ngram_jaccard_pairs,
        "minhash_neardup_documents": textops.minhash_neardup_documents,
        "simhash_documents": textops.simhash_documents,
        "fingerprint_documents": textops.fingerprint_documents,
        "token_stats_by_lang": textops.token_stats_by_lang,
        "token_count_regex": textops.token_count_regex,
        "inverted_index_documents": textops.inverted_index_documents,
        "tfidf_top_terms": textops.tfidf_top_terms,
        "unigram_logprob_documents": textops.unigram_logprob_documents,
        "normalize_text_documents": textops.normalize_text_documents,
        "chunk_documents": textops.chunk_documents,
        "pack_sequences_documents": textops.pack_sequences_documents,
        "decontaminate_documents": textops.decontaminate_documents,
        "mix_sources_documents": textops.mix_sources_documents,
        "corpus_funnel_documents": corpus.corpus_funnel_documents,
        "bpe_pair_counts": textops.bpe_pair_counts,
        "bpe_train_documents": textops.bpe_train_documents,
        "bpe_tokenize_documents": textops.bpe_tokenize_documents,
        "quality_scores": textops.quality_scores,
        "langid_confusion": textops.langid_confusion,
        # classifier projection + accuracy aggregate (SURVEY M3/A5)
        "classify_accuracy_embeddings": classify.classify_accuracy_embeddings,
        # similarity search / embedding drift
        "ann_topk_cosine": ann.ann_topk_cosine,
        "ann_topk_filtered": ann.ann_topk_filtered,
        "hybrid_search_rrf": ann.hybrid_search_rrf,
        "mmr_rerank_embeddings": ann.mmr_rerank_embeddings,
        "ann_lsh_bucketed": ann.ann_lsh_bucketed,
        "ann_ivf_cosine": ann.ann_ivf_cosine,
        "kmeans_embeddings": ann.kmeans_embeddings,
        "quantize_embeddings_int8": ann.quantize_embeddings_int8,
        "ann_topk_quantized": ann.ann_topk_quantized,
        "ann_quantized_recall": ann.ann_quantized_recall,
        "ann_pq_topk": ann.ann_pq_topk,
        "ann_ivfpq_topk": ann.ann_ivfpq_topk,
        "ann_pq_rerank_topk": ann.ann_pq_rerank_topk,
        "ann_pq_recall": ann.ann_pq_recall,
        "embedding_neardup_pairs": ann.embedding_neardup_pairs,
        "dedup_semantic_embeddings": ann.dedup_semantic_embeddings,
        "mmd_embeddings_drift": ann.mmd_embeddings_drift,
        # dimensionality reduction (reference's encoder analogue) + latent drift
        "pca_project_embeddings": dimred.pca_project_embeddings,
        "embedding_dim_stats": dimred.embedding_dim_stats,
        "label_centroids_embeddings": dimred.label_centroids_embeddings,
        "pca_mmd_drift": dimred.pca_mmd_drift,
        # flagship image validation (rows-only: non-SQL-expressible)
        "validate_images": _flagship,
        # flagship evidence with a hard oracle: engine-found violations
        # digested per check vs the generator's seeded-truth sidecar
        "validate_violations_digest": _violations_digest,
    }



def oracle_sql() -> dict[str, str]:
    # The flagship digest's oracle reads the fixture generator's seeded-truth
    # sidecar (a parquet path DuckDB reads directly — ensure_fixture is
    # idempotent and /tmp-cached, pure-driver generation, no Ray needed).
    # Guarded: a fixture-generation failure must degrade ONLY the digest
    # entry (rows-only fallback), never make oracle_sql() itself raise for
    # callers fetching unrelated SQL strings.
    extra: dict[str, str] = {}
    try:
        from serverless_covariate_drift_detection_ray.fixtures.gen import (
            ensure_fixture,
        )

        truth_path = os.path.join(ensure_fixture("tiny"), "truth",
                                  "violations.parquet")
        extra["validate_violations_digest"] = f"""
SELECT "check", COUNT(*)::BIGINT AS n,
       COUNT(DISTINCT image_id)::BIGINT AS n_ids,
       SUM(CAST(regexp_replace(image_id, '[^0-9]', '', 'g') AS BIGINT)
           )::BIGINT AS id_sum
FROM '{truth_path}' GROUP BY "check"
"""
    except OSError as exc:  # pragma: no cover - disk-full/permission paths
        # narrow + loud: a CODE bug in the generator must still raise (a
        # silent pass would quietly delete the flagship's oracle coverage —
        # the parity suite parametrizes off oracle_sql() at collection time)
        import warnings

        warnings.warn(f"digest oracle disabled, fixture generation failed: "
                      f"{exc!r} — validate_violations_digest degrades to "
                      f"rows-only this run", RuntimeWarning, stacklevel=2)
    return {
        **extra,
        "q1_pricing_summary": relq.Q1_SQL,
        "rollup_pricing_summary": relq.ROLLUP_SQL,
        "cube_pricing_summary": relq.CUBE_SQL,
        "month_histogram_orders": relq.MONTH_HIST_SQL,
        "unpivot_lineitem_measures": relq.UNPIVOT_SQL,
        "json_extract_events": relq.JSON_EXTRACT_SQL,
        "rank_orders_dense": relq.RANK_DENSE_SQL,
        "latest_order_per_customer": relq.LATEST_ORDER_SQL,
        "antijoin_customers_no_orders": relq.ANTIJOIN_SQL,
        "filter_project_revenue": relq.FILTER_PROJECT_SQL,
        "corr_price_quantity_by_flag": relq.CORR_SQL,
        "corr_matrix_lineitem": relq.CORR_MATRIX_SQL,
        "entropy_categoricals": relq.ENTROPY_SQL,
        "join_broadcast_nation_revenue": relq.JOIN_BROADCAST_SQL,
        "join_large_priority_revenue": relq.JOIN_LARGE_SQL,
        "topk_orders": relq.TOPK_SQL,
        "split_proportions_orders": relq.SPLIT_SQL,
        "grouped_split_events": relq.GROUPED_SPLIT_SQL,
        "sample_random_orders": relq.SAMPLE_SQL,
        "stratified_sample_orders": relq.STRATIFIED_SAMPLE_SQL,
        "shuffle_orders": relq.SHUFFLE_SQL,
        "distinct_flag_status": relq.DISTINCT_SQL,
        "setops_customer_orders": relq.SETOPS_SQL,
        "range_join_price_bands": relq.RANGE_JOIN_SQL,
        "semijoin_orders_build_nation": relq.SEMIJOIN_SQL,
        "upsert_orders_scd": relq.UPSERT_SQL,
        "pivot_status_by_priority": relq.PIVOT_SQL,
        "q3_shipping_priority": relq.Q3_SQL,
        "q5_local_supplier_volume": relq.Q5_SQL,
        "mode_priority_by_status": relq.MODE_SQL,
        "bloom_semijoin_lineitem": relq.BLOOM_SEMIJOIN_SQL,
        "event_path_per_user": relq.EVENT_PATH_SQL,
        "redact_numbers_events": relq.REDACT_SQL,
        "cap_per_source_documents": textops.CAP_PER_SOURCE_SQL,
        "duplicate_ngram_spans": textops.DUP_NGRAM_SQL,
        "bigram_repetition_documents": textops.BIGRAM_REP_SQL,
        "gopher_repetition_documents": textops.GOPHER_REP_SQL,
        "vocab_drift_documents": textops.VOCAB_DRIFT_SQL,
        "skyline_orders": relq.SKYLINE_SQL,
        "ntile_orders": relq.NTILE_SQL,
        "percent_rank_orders": relq.PERCENT_RANK_SQL,
        "checksum_orders": relq.CHECKSUM_SQL,
        "weighted_sample_orders": relq.WEIGHTED_SAMPLE_SQL,
        "fuzzy_match_parts": relq.FUZZY_SQL,
        "entity_clusters_parts": relq.ENTITY_CLUSTERS_SQL,
        "pagerank_customers": relq.PAGERANK_SQL,
        "triangle_count_parts": relq.TRIANGLE_SQL,
        "fd_check_orders": relq.FD_CHECK_SQL,
        "skew_profile_orders": relq.SKEW_PROFILE_SQL,
        "benford_check_orders": relq.BENFORD_SQL,
        "zipf_fit_documents": relq.ZIPF_SQL,
        "mutual_info_documents": relq.MUTUAL_INFO_SQL,
        "copurchase_parts": relq.COPURCHASE_SQL,
        "transition_counts_events": relq.TRANSITIONS_SQL,
        "retention_cohorts_events": relq.RETENTION_SQL,
        "expectation_suite_orders": relq.EXPECTATION_SUITE_SQL,
        "impute_value_events": relq.IMPUTE_SQL,
        "encode_categories_orders": relq.ENCODE_CATEGORIES_SQL,
        "jsonl_roundtrip_events": relq.JSONL_ROUNDTRIP_SQL,
        "csv_roundtrip_orders": relq.CSV_ROUNDTRIP_SQL,
        "orc_roundtrip_lineitem": relq.ORC_ROUNDTRIP_SQL,
        "ipc_roundtrip_orders": relq.IPC_ROUNDTRIP_SQL,
        "fk_cardinality_customers": relq.FK_CARDINALITY_SQL,
        "freshness_events": relq.FRESHNESS_SQL,
        "gap_hours_events": relq.GAP_HOURS_SQL,
        "table_diff_orders": relq.TABLE_DIFF_SQL,
        "late_events_watermark": relq.LATE_EVENTS_SQL,
        "envelope_anomalies_events": relq.ENVELOPE_SQL,
        "above_avg_customers": relq.ABOVE_AVG_SQL,
        "heavy_hitter_users": relq.HEAVY_HITTERS_SQL,
        "heavy_hitters_screened": relq.HEAVY_HITTERS_SQL,
        "window_tumbling_events": relq.WINDOW_SQL,
        "window_hopping_events": relq.WINDOW_HOP_SQL,
        "chi2_by_window_events": relq.CHI2_WINDOW_SQL,
        "cusum_changepoint_events": relq.CUSUM_SQL,
        "ewma_control_events": relq.EWMA_SQL,
        "seasonality_profile_events": relq.SEASONALITY_SQL,
        "ks_by_window_events": relq.KS_WINDOW_SQL,
        "asof_join_purchase_click": relq.ASOF_SQL,
        "interval_join_purchase_clicks": relq.INTERVAL_JOIN_SQL,
        "sessionize_events": relq.SESSIONIZE_SQL,
        "running_sum_events": relq.RUNNING_SUM_SQL,
        "rolling_1h_events": relq.ROLLING_SQL,
        "event_gaps_per_user": relq.EVENT_GAPS_SQL,
        "dedup_events_debounce": relq.DEBOUNCE_SQL,
        "streaming_running_totals": relq.STREAMING_TOTALS_SQL,
        "funnel_view_click_purchase": relq.FUNNEL_SQL,
        "grouped_quantiles_flag": relq.GROUPED_QUANTILES_SQL,
        "outlier_counts_lineitem": relq.OUTLIER_SQL,
        "mad_outliers_events": relq.MAD_OUTLIERS_SQL,
        "histogram_extendedprice": relq.HISTOGRAM_SQL,
        "topn_orders_per_priority": relq.TOPN_PER_KEY_SQL,
        "column_stats_lineitem": relq.COLUMN_STATS_SQL,
        "profile_table_orders": relq.PROFILE_SQL,
        "partition_roundtrip_events": relq.PARTITION_ROUNDTRIP_SQL,
        "uniqueness_pk": relq.UNIQUENESS_SQL,
        "referential_orphans": relq.REFERENTIAL_SQL,
        "chi2_event_type": relq.CHI2_SQL,
        "ks_purchase_click": relq.KS_SQL,
        "quantiles_extendedprice": relq.QUANTILES_SQL,
        "quantiles_exact_refine": relq.QREFINE_SQL,
        "quantiles_cont_lineitem": relq.QCONT_SQL,
        "grouped_quantiles_exact": relq.GROUPED_QEXACT_SQL,
        "bin_prices_quartile": relq.BIN_QUARTILE_SQL,
        "winsorize_lineitem": relq.WINSORIZE_SQL,
        "ks_purchase_click_hist": relq.KS_HIST_SQL,
        "divergence_purchase_click": relq.DIVERGENCE_SQL,
        "embedding_neardup_pairs": ann.EMB_NEARDUP_SQL,
        "dedup_semantic_embeddings": ann.DEDUP_SEMANTIC_SQL,
        # quantiles_extendedprice_tdigest: rows-only (approximate sketch)
        "dedup_exact_documents": textops.DEDUP_EXACT_SQL,
        "dedup_keep_best_documents": textops.DEDUP_KEEP_BEST_SQL,
        "dedup_report_documents": textops.DEDUP_REPORT_SQL,
        "jaccard_neardup_pairs": textops.JACCARD_SQL,
        "ngram_jaccard_pairs": textops.NGRAM_JACCARD_SQL,
        "token_stats_by_lang": textops.TOKEN_STATS_SQL,
        "token_count_regex": textops.TOKEN_REGEX_SQL,
        "inverted_index_documents": textops.INVERTED_INDEX_SQL,
        "tfidf_top_terms": textops.TFIDF_SQL,
        "unigram_logprob_documents": textops.UNIGRAM_LOGPROB_SQL,
        "normalize_text_documents": textops.NORMALIZE_SQL,
        "chunk_documents": textops.CHUNK_SQL,
        "pack_sequences_documents": textops.PACK_SQL,
        "decontaminate_documents": textops.DECONTAMINATE_SQL,
        "mix_sources_documents": textops.MIX_SOURCES_SQL,
        "corpus_funnel_documents": corpus.CORPUS_FUNNEL_SQL,
        "bpe_pair_counts": textops.BPE_PAIRS_SQL,
        "quality_scores": textops.QUALITY_SQL,
        "langid_confusion": textops.LANGID_SQL,
        "classify_accuracy_embeddings": classify.CLASSIFY_SQL,
        "embedding_dim_stats": dimred.DIM_STATS_SQL,
        "label_centroids_embeddings": dimred.CENTROIDS_SQL,
        "ann_topk_cosine": ann.ANN_TOPK_SQL,
        "ann_topk_filtered": ann.ANN_TOPK_FILTERED_SQL,
        "hybrid_search_rrf": ann.HYBRID_SEARCH_SQL,
        "quantize_embeddings_int8": ann.QUANTIZE_INT8_SQL,
        "ann_topk_quantized": ann.ANN_TOPK_QUANTIZED_SQL,
        "ann_quantized_recall": ann.ANN_QUANTIZED_RECALL_SQL,
        # rows-only (no SQL equivalent): pca_project_embeddings,
        # pca_mmd_drift (no SQL eigensolver), minhash_neardup_documents,
        # simhash_documents, fingerprint_documents, ann_lsh_bucketed,
        # mmd_embeddings_drift, validate_images
    }


# Evidence map for the rows-only entries (every key in queries() absent from
# oracle_sql()): the driver's hard signal can only say "no_oracle" for these,
# so this table names the test that IS each one's correctness gate.
ROWS_ONLY_EVIDENCE: dict[str, str] = {
    "ann_ivf_cosine": "tests/test_queries.py::test_ann_ivf_recall_vs_exact",
    "ann_ivf_persistent": "tests/test_queries.py::"
                          "test_ann_ivf_persistent_index_reuse_and_recall",
    "ann_ivfpq_topk": "tests/test_regressions_r5.py::"
                      "test_ann_ivfpq_recall_and_determinism",
    "ann_lsh_bucketed": "tests/test_queries.py::test_ann_lsh_recall_vs_exact",
    "ann_pq_rerank_topk": "tests/test_regressions_r5.py::"
                          "test_ann_pq_rerank_recall_and_exactness",
    "ann_pq_recall": "tests/test_regressions_r5.py::"
                     "test_ann_pq_recall_and_determinism",
    "ann_pq_topk": "tests/test_regressions_r5.py::"
                   "test_ann_pq_recall_and_determinism",
    "approx_distinct_users_by_type": "tests/test_queries.py::"
                                     "test_approx_distinct_hll_within_error_bound",
    "bpe_tokenize_documents": "tests/test_regressions_r5.py::"
                              "test_bpe_tokenize_matches_reference",
    "bpe_train_documents": "tests/test_regressions_r5.py::"
                           "test_bpe_trainer_matches_reference_and_paths",
    "fingerprint_documents": "tests/test_queries.py::"
                             "test_rows_only_queries_deterministic",
    "grouped_quantiles_tdigest": "tests/test_queries.py (tdigest accuracy "
                                 "vs exact grouped quantiles)",
    "kmeans_embeddings": "tests/test_queries.py::"
                         "test_kmeans_matches_numpy_lloyd_and_inertia_monotone",
    "minhash_neardup_documents": "tests/test_queries.py (recall vs exact "
                                 "jaccard pairs + exact jaccard of every "
                                 "pair, star-link branch forced)",
    "mmd_embeddings_drift": "tests/test_queries.py::"
                            "test_mmd_embeddings_verdicts (+ golden/"
                            "determinism tests in tests/test_stats.py)",
    "mmr_rerank_embeddings": "tests/test_queries.py::"
                             "test_mmr_rerank_matches_reference_greedy",
    "overlap_estimate_orders_customers": "tests/test_queries.py::"
                                         "test_overlap_estimate_within_hll_error",
    "pca_mmd_drift": "tests/test_dimred.py::test_pca_mmd_drift_verdicts",
    "pca_project_embeddings": "tests/test_dimred.py::"
                              "test_pca_projection_values_and_variance_order",
    "quantiles_extendedprice_tdigest": "tests/test_sketches.py (t-digest "
                                       "quantile error bounds) + oracled "
                                       "exact variant",
    "simhash_documents": "tests/test_queries.py::"
                         "test_rows_only_queries_deterministic",
    "validate_images": "tests/test_validate_e2e.py (seeded-truth e2e) + "
                       "oracled validate_violations_digest",
}
