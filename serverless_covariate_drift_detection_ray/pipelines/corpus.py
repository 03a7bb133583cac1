"""End-to-end LLM corpus-preparation funnel over the ``documents`` table.

Composes the engine's text ops into the pipeline a training-data run
actually executes — train-split input → quality filter → language filter →
exact dedup (normalized text) → benchmark decontamination — and reports the
document count surviving each stage, oracled stage-by-stage against one
DuckDB CTE chain.

Scale shape: ONE pass over the text column computes every per-doc signal
(quality flags, language markers, normalized-text hash, contamination probe
against the broadcast eval shingle set) and emits a 5-int64-column tagged
row per doc; that tagged projection (no text) is materialized once and
consumed twice — a partial-sum count pass and a ``_key_shuffle`` dedup pass.
The text column is read exactly twice end-to-end (eval shingle build over
the tiny eval split + the tagging pass) and never shuffles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import _key_shuffle
from ..functions.hashing import hash64
from .textops import (
    LANG_MARKERS,
    _read_docs,
    _shingle_hashes,
    _tokens,
    normalize_arrow,
    shingle_hits,
)

EVAL_MOD = 29
SHINGLE_N = 8
MIN_TOKENS = 10
MIN_UNIQ = 0.3
EN_MARKERS = LANG_MARKERS["en"]  # ('the', 'a', 'of') — one source of truth


def corpus_funnel_documents(sf_dir: str):
    import ray

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    # eval shingle set (bounded by construction: the eval split is tiny)
    def eval_shingles(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df.doc_id % EVAL_MOD == 0]
        h, _ = _shingle_hashes(df.text, SHINGLE_N)
        return pa.table({"h": pa.array(np.unique(h))})

    ev = np.unique(
        ds.map_batches(eval_shingles, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas().h.to_numpy()
    ).astype(np.uint64)
    ev_ref = ray.put(ev)

    def tag(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df.doc_id % EVAL_MOD != 0]
        toks = _tokens(df.text)
        n = toks.map(len).to_numpy()
        n_uniq = toks.map(lambda ws: len(set(ws))).to_numpy()
        q = (n >= MIN_TOKENS) & (n_uniq >= MIN_UNIQ * n)
        mk = set(EN_MARKERS)
        has_en = toks.map(lambda ws: any(w in mk for w in ws)).to_numpy(bool)
        lang_ok = q & has_en
        # key/cont are only consumed for lang_ok survivors — compute the
        # expensive normalization hash + shingle probe on that slice only
        sub = df.text[lang_ok]
        key = np.zeros(len(df), np.int64)
        cont = np.zeros(len(df), bool)
        if len(sub):
            # normalized-text dedup key (the shared NORMALIZE_SQL-parity
            # kernel; 64-bit hash equality stands in for string equality —
            # collisions negligible, the oracle compares the strings)
            norm = normalize_arrow(pa.array(sub.to_numpy(), pa.string()))
            key[lang_ok] = hash64(
                norm.to_numpy(zero_copy_only=False)).astype(np.int64)
            # contamination probe on the raw text vs the broadcast eval set
            h, doc_idx = _shingle_hashes(sub, SHINGLE_N)
            hit = shingle_hits(ray.get(ev_ref), h)
            cont[np.flatnonzero(lang_ok)[np.unique(doc_idx[hit])]] = True
        return pa.table({
            "doc_id": pa.array(df.doc_id.to_numpy(), pa.int64()),
            "key": pa.array(key),
            "q": pa.array(q),
            "lang_ok": pa.array(lang_ok),
            "cont": pa.array(cont),
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    def count_partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n_input": pa.array([len(batch)], pa.int64()),
            "n_quality": pa.array([pc.sum(batch["q"]).as_py() or 0], pa.int64()),
            "n_lang": pa.array(
                [pc.sum(batch["lang_ok"]).as_py() or 0], pa.int64()),
        })

    cp = tagged.map_batches(count_partial, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas().sum()

    def survivors(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch["lang_ok"])
        # per-block partial keep-min per key: at most one row per (block, key)
        df = t.to_pandas().sort_values(["key", "doc_id"], kind="mergesort")
        df = df.drop_duplicates("key", keep="first")
        return pa.table({"key": pa.array(df.key.to_numpy(), pa.int64()),
                         "doc_id": pa.array(df.doc_id.to_numpy(), pa.int64()),
                         "cont": pa.array(df.cont.to_numpy(), pa.bool_())})

    def bucket_dedup(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["key", "doc_id"], kind="mergesort"
                            ).drop_duplicates("key", keep="first")
        return pd.DataFrame({"n_kept": [np.int64(len(df))],
                             "n_clean": [np.int64((~df.cont).sum())]})

    dd = _key_shuffle(tagged, ["key"], bucket_dedup, survivors).to_pandas()
    n_kept, n_clean = int(dd.n_kept.sum()), int(dd.n_clean.sum())

    return pa.table({
        "stage": pa.array(["input", "quality", "lang", "dedup",
                           "decontaminated"], pa.string()),
        "n_docs": pa.array([int(cp.n_input), int(cp.n_quality),
                            int(cp.n_lang), n_kept, n_clean], pa.int64()),
    })


CORPUS_FUNNEL_SQL = """
WITH tok AS (
  SELECT doc_id, text,
         list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents),
tr AS (SELECT * FROM tok WHERE doc_id % 29 <> 0),
q AS (SELECT * FROM tr WHERE len(w) >= 10
        AND len(list_distinct(w))::DOUBLE >= 0.3 * len(w)),
l AS (SELECT * FROM q
      WHERE len(list_filter(w, x -> x IN ('the', 'a', 'of'))) >= 1),
norm AS (
  SELECT doc_id, w,
    trim(regexp_replace(regexp_replace(lower(text), '[^a-z0-9 ]', '', 'g'),
                        ' +', ' ', 'g')) AS nt
  FROM l),
kept AS (SELECT MIN(doc_id) AS doc_id FROM norm GROUP BY nt),
ev AS (
  SELECT DISTINCT array_to_string(w[s : s + 7], ' ') AS sh
  FROM tok, LATERAL UNNEST(generate_series(1, GREATEST(len(w) - 7, 0))) AS g(s)
  WHERE doc_id % 29 = 0),
sh AS (
  SELECT t.doc_id, array_to_string(t.w[s : s + 7], ' ') AS sh
  FROM tok t JOIN kept k USING (doc_id),
       LATERAL UNNEST(generate_series(1, GREATEST(len(t.w) - 7, 0))) AS g(s)),
bad AS (SELECT DISTINCT s.doc_id FROM sh s JOIN ev e ON s.sh = e.sh)
SELECT 'input' AS stage, (SELECT COUNT(*) FROM tr) AS n_docs
UNION ALL SELECT 'quality', (SELECT COUNT(*) FROM q)
UNION ALL SELECT 'lang', (SELECT COUNT(*) FROM l)
UNION ALL SELECT 'dedup', (SELECT COUNT(*) FROM kept)
UNION ALL SELECT 'decontaminated',
  (SELECT COUNT(*) FROM kept WHERE doc_id NOT IN (SELECT doc_id FROM bad))
"""
