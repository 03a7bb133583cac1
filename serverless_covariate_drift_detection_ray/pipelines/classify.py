"""Classifier-projection + accuracy pipeline (reference M3 + A5).

The reference's ML-inference path is an actor-held model producing a class
per record (/root/reference/model_inference_api/app/model.py:125-145) and a
batch accuracy aggregate sum(pred==y)/n (/root/reference/ml/utils/cnn.py:134-144).
Torch is absent in-sandbox, so the model is a nearest-centroid classifier
over the embeddings table — the same pipeline shape: a fit pass produces a
small model artifact (class centroids), stateless tasks read it from the
object store and project every test row to a class, and one
partition-keyed fold yields per-partition accuracy.

Labels and splits are synthetic but deterministic (label = (vec_id // 2) % 10,
train = even vec_id, test = odd), so the whole pipeline is expressible in
ANSI SQL and oracle-checked by the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.exchange import _group_fold
from .queries import _read_blocked, _round

N_CLASSES = 10
N_PARTS = 8  # accuracy reporting partitions


def _centroids(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Fit pass: per-class mean embedding over the train split (even vec_id).

    Distributed partial sums: each block emits one (label, count, sum-vector)
    row per class; the driver merges ~n_classes x n_blocks tiny rows. The
    centroid matrix is the model artifact (reference: fitted CNN state dict,
    /root/reference/ml/training.py:321-335)."""
    ds = _read_blocked(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy()
        emb = batch["embedding"]
        arr = emb.combine_chunks() if isinstance(emb, pa.ChunkedArray) else emb
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        x = flat.reshape(len(ids), -1)
        train = ids % 2 == 0
        ids_t, x_t = ids[train], x[train]
        labels = (ids_t // 2) % N_CLASSES
        out_l, out_n, out_s = [], [], []
        for c in np.unique(labels):
            sel = labels == c
            out_l.append(int(c))
            out_n.append(int(sel.sum()))
            out_s.append(x_t[sel].sum(axis=0).tobytes())
        return pa.table({
            "label": pa.array(out_l, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
            "s": pa.array(out_s, pa.binary()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    dim = len(np.frombuffer(parts.s.iloc[0], dtype=np.float64))
    sums = np.zeros((N_CLASSES, dim))
    counts = np.zeros(N_CLASSES)
    for _, r in parts.iterrows():
        sums[r.label] += np.frombuffer(r.s, dtype=np.float64)
        counts[r.label] += r.n
    return sums / np.maximum(counts[:, None], 1), counts


def _score_batch(batch: pa.Table, wrapped) -> pa.Table:
    """Projection stage as broadcast stateless tasks: the model (centroid
    matrix) is ``ray.put`` once and read zero-copy per call — the same
    load-once semantics as the reference's singleton-per-process model cache
    (detector_api/app/utils.py:4-14) without paying actor-pool spawn cost
    for a sub-second stage (gotcha: actor spawns cost more than the stage).
    One vectorized distance matrix per batch."""
    import ray

    cent = ray.get(wrapped["ref"])  # (C, d), zero-copy from the object store
    c2 = (cent ** 2).sum(axis=1)
    ids = batch["vec_id"].to_numpy()
    emb = batch["embedding"]
    arr = emb.combine_chunks() if isinstance(emb, pa.ChunkedArray) else emb
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    x = flat.reshape(len(ids), -1)
    # ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; ||x||^2 constant per row
    d2 = c2[None, :] - 2.0 * (x @ cent.T)
    pred = d2.argmin(axis=1)  # ties -> smallest class id (matches oracle)
    return pa.table({
        "vec_id": pa.array(ids.astype(np.int64)),
        "label": pa.array(((ids // 2) % N_CLASSES).astype(np.int64)),
        "pred": pa.array(pred.astype(np.int64)),
    })


def classify_accuracy_embeddings(sf_dir: str):
    """Nearest-centroid projection over the test split (odd vec_id) + the
    per-partition accuracy aggregate (one partition-keyed fold)."""
    import ray

    cent, _ = _centroids(sf_dir)
    wrapped = {"ref": ray.put(cent)}

    ds = _read_blocked(sf_dir, "embeddings", ["vec_id", "embedding"])

    def test_only(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy()
        return batch.filter(pa.array(ids % 2 == 1))

    scored = ds.map_batches(test_only, batch_format="pyarrow", zero_copy_batch=True
                            ).map_batches(
        _score_batch, fn_args=(wrapped,), batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def correct(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy()
        return pa.table({
            "partition_id": (ids // 2) % N_PARTS,
            "ok": (batch["label"].to_numpy() == batch["pred"].to_numpy()
                   ).astype(np.int64)})

    agg = _group_fold(scored, ["partition_id"], {
        "n": (None, "count_all"), "n_correct": ("ok", "sum")}, correct)
    return agg.append_column("accuracy", pa.array(_round(
        agg["n_correct"].to_numpy() / np.maximum(agg["n"].to_numpy(), 1), 4)))


CLASSIFY_SQL = f"""
WITH tr AS (
  SELECT (vec_id // 2) % {N_CLASSES} AS label, unnest(embedding) AS v,
         unnest(range(1, len(embedding) + 1)) AS i
  FROM embeddings WHERE vec_id % 2 = 0),
cent AS (
  SELECT label, i, AVG(v) AS c FROM tr GROUP BY label, i),
te AS (
  SELECT vec_id, (vec_id // 2) % {N_CLASSES} AS label, unnest(embedding) AS v,
         unnest(range(1, len(embedding) + 1)) AS i
  FROM embeddings WHERE vec_id % 2 = 1),
dist AS (
  SELECT te.vec_id, te.label, ce.label AS cand, SUM((te.v - ce.c)^2) AS d2
  FROM te JOIN cent ce ON ce.i = te.i
  GROUP BY te.vec_id, te.label, ce.label),
pred AS (
  SELECT vec_id, label, FIRST(cand ORDER BY d2, cand) AS pred
  FROM dist GROUP BY vec_id, label)
SELECT (vec_id // 2) % {N_PARTS} AS partition_id,
  COUNT(*) AS n,
  SUM(CASE WHEN pred = label THEN 1 ELSE 0 END)::BIGINT AS n_correct,
  FLOOR(SUM(CASE WHEN pred = label THEN 1 ELSE 0 END)::DOUBLE / COUNT(*)
        * 10000 + 0.5) / 10000 AS accuracy
FROM pred GROUP BY 1
"""
