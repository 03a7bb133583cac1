"""The query tables, and the query subset the traced run times over them.

``data/sf0.01`` holds the ten TPC-H-ish test tables the query registry of
``__ray_entry__.queries()`` was written against, at scale factor 0.01
(``region nation customer supplier part orders lineitem events documents
embeddings``, one parquet file each). They ship with the benchmark so a run
reads nothing outside its checkout; each run copies them into its own run
directory.
"""

from __future__ import annotations

import os

import numpy as np

from serverless_covariate_drift_detection_ray.fixtures import gen

TABLES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                          "sf0.01")
TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


# one or two queries from each commented family of __ray_entry__.queries()
QUERY_SUBSET = (
    "rollup_pricing_summary", "json_extract_events",        # aggregation
    "semijoin_orders_build_nation", "antijoin_customers_no_orders",  # joins
    "topk_orders", "distinct_flag_status",                  # sort / distinct
    "window_tumbling_events", "sessionize_events",          # windows
    "streaming_running_totals",                             # streaming
    "q3_shipping_priority",                                 # TPC-H join
    "uniqueness_pk", "quantiles_extendedprice",             # validation checks
    "quantiles_exact_refine",                               # sketch variants
    "dedup_exact_documents", "token_stats_by_lang",         # text
    "classify_accuracy_embeddings",                         # classifier
    "ann_topk_cosine", "quantize_embeddings_int8",          # similarity search
    "embedding_dim_stats", "pca_project_embeddings",        # dimensionality
)


def to_frame(res):
    """A query result as a pandas frame (Dataset, Table or frame)."""
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return res


def same_frame(a, b) -> bool:
    """Order-insensitive equality: columns by name, rows sorted, floats to
    1e-9 relative."""
    if sorted(a.columns) != sorted(b.columns) or len(a) != len(b):
        return False
    cols = sorted(a.columns)
    a, b = (f[cols].sort_values(by=cols, kind="mergesort")
            .reset_index(drop=True) if len(f) else f[cols] for f in (a, b))
    for c in cols:
        x, y = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(x.dtype, np.floating) or np.issubdtype(
                y.dtype, np.floating):
            if not np.allclose(x.astype(np.float64), y.astype(np.float64),
                               rtol=1e-9, atol=1e-12, equal_nan=True):
                return False
        elif not (x == y).all():
            return False
    return True


def oracle_sql() -> dict[str, str]:
    """``__ray_entry__.oracle_sql()`` without its flagship-digest entry,
    whose fixture the registry would otherwise build outside the run
    directory."""
    import warnings

    import __ray_entry__ as entry

    def no_fixture(*_a, **_k):
        raise OSError("flagship digest oracle is not used by the benchmark")

    real = gen.ensure_fixture
    gen.ensure_fixture = no_fixture
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return entry.oracle_sql()
    finally:
        gen.ensure_fixture = real
