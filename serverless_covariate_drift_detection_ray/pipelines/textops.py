"""Text-analysis + deduplication operators over the ``documents`` table.

The large-scale training-data ops the engine ships beyond the reference's own
operators: exact dedup, n-gram/word-set Jaccard near-dup, MinHash-LSH,
SimHash, token counting, quality scoring, language-ID. All deterministic
(hashing via functions.hashing), all expressed as Ray Data stages:
vectorized ``map_batches``, the keyed exchange (``functions.exchange``) and
small-side state broadcast.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import (_group_fold, _key_fold, _key_shuffle,
                                  _pa_from_pandas, _salt_buckets)
from ..functions.graph import HOT_RUN_CAP, run_pairs, unique_pairs
from ..functions.hashing import hash64, hash_family, splitmix64
from .queries import _read, _round

STOPWORDS = ("the", "a", "of", "and", "to")

# marker word lists for the n-gram/stopword language-ID heuristic; ties break
# by this order (en first) — mirrored exactly in the oracle SQL
LANG_MARKERS = {
    "en": ("the", "a", "of"),
    "de": ("der", "die", "das"),
    "es": ("el", "la", "los"),
    "fr": ("le", "les", "des"),
    "zh": ("de5", "shi4", "le5"),
}


def _read_docs(sf_dir: str, columns=None):
    """Documents-table read via the shared CPU-floored blocked read: the
    per-batch tokenization kernels are compute-bound per doc (the
    fuzzy-join rule — parallelism must track CPUs), while the data-scaled
    term takes over at corpus scale."""
    from .queries import _read_cpu_blocked

    return _read_cpu_blocked(sf_dir, "documents", columns)

def _tokens(text_series: pd.Series) -> pd.Series:
    """Whitespace tokens, empties dropped — semantics mirrored in oracle SQL
    (``list_filter(string_split(text,' '), x -> x <> '')``)."""
    return text_series.fillna("").str.split(" ").map(lambda ws: [w for w in ws if w])


# ---------------------------------------------------------------------------
# Exact dedup — content-hash groupby, keep min key (guide "Exact dedup")
# ---------------------------------------------------------------------------


def dedup_exact_documents(sf_dir: str):
    def add_hash(batch: pa.Table) -> pa.Table:
        h = hash64(batch["text"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": batch["doc_id"],
                         "text_hash": pa.array(h.astype(np.int64))})

    return _key_fold(_read_docs(sf_dir, ["doc_id", "text"]), ["text_hash"],
                     {"doc_id": ("doc_id", "min")}, add_hash,
                     lambda t: t.select(["doc_id"]))


DEDUP_EXACT_SQL = "SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text"


def dedup_keep_best_documents(sf_dir: str):
    """Exact dedup that keeps the BEST copy per duplicate group (highest
    distinct-token count, then smallest doc_id) — the keep-policy variant
    real training-data dedup uses instead of keep-first.

    Fully mergeable partials: each block pre-reduces to one
    (hash, best_doc, best_nd, count) row per local text group, so the
    ``_key_shuffle`` moves at most one row per (block, group) and the merge
    is an associative (max-by, sum) fold."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        h = hash64(df.text.to_numpy()).astype(np.int64)
        nd = _tokens(df.text).map(lambda ws: len(set(ws))).to_numpy(np.int64)
        t = pd.DataFrame({"h": h, "doc_id": df.doc_id.to_numpy(),
                          "nd": nd, "c": 1})
        # local best per group: sort so the first row per h wins
        t = t.sort_values(["h", "nd", "doc_id"],
                          ascending=[True, False, True], kind="mergesort")
        g = t.groupby("h", sort=False)
        out = g.first().reset_index()
        out["c"] = g["c"].sum().to_numpy()
        return _pa_from_pandas(out, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["h", "nd", "doc_id"],
                            ascending=[True, False, True], kind="mergesort")
        g = df.groupby("h", sort=False)
        out = g.first().reset_index()
        out["c"] = g["c"].sum().to_numpy()
        return pd.DataFrame({"doc_id": out.doc_id.to_numpy(),
                             "n_copies": out.c.to_numpy().astype(np.int64),
                             "n_distinct": out.nd.to_numpy().astype(np.int64)})

    return _key_shuffle(ds, ["h"], merge, partial)


DEDUP_KEEP_BEST_SQL = """
WITH t AS (
  SELECT doc_id, text,
    len(list_distinct(list_filter(string_split(text,' '), x -> x <> ''))) AS nd
  FROM documents),
r AS (
  SELECT doc_id, nd,
    COUNT(*) OVER (PARTITION BY text) AS n_copies,
    ROW_NUMBER() OVER (PARTITION BY text ORDER BY nd DESC, doc_id) AS rn
  FROM t)
SELECT doc_id, CAST(n_copies AS BIGINT) AS n_copies, nd AS n_distinct
FROM r WHERE rn = 1
"""


def dedup_report_documents(sf_dir: str):
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def text_hash(batch: pa.Table) -> pa.Table:
        h = hash64(batch["text"].to_numpy(zero_copy_only=False))
        return pa.table({"h": pa.array(h.astype(np.int64))})

    def summarize(t: pa.Table) -> pa.Table:  # a bucket's texts, one row
        n = t["n"].to_numpy()
        return pa.table({
            "docs": pa.array([int(n.sum())], pa.int64()),
            "uniq": pa.array([int(n.size)], pa.int64()),
            "dups": pa.array([int((n - 1).sum())], pa.int64()),
        })

    t = _key_fold(ds, ["h"], {"n": (None, "count_all")}, text_hash,
                  summarize).to_pandas().sum()
    return pa.Table.from_pylist([{
        "n_docs": int(t["docs"]), "n_unique_texts": int(t["uniq"]),
        "n_dup_docs": int(t["dups"]),
    }])


DEDUP_REPORT_SQL = """
SELECT COUNT(*) AS n_docs, COUNT(DISTINCT text) AS n_unique_texts,
  COUNT(*) - COUNT(DISTINCT text) AS n_dup_docs
FROM documents
"""


# ---------------------------------------------------------------------------
# Word-set Jaccard near-dup within (lang, source) buckets — oracle-checkable
# ---------------------------------------------------------------------------


def _set_jaccard_pairs(sf_dir: str, token_set, threshold: float):
    """Every (doc_a < doc_b) pair of one (lang, source) group whose
    Jaccard over ``token_set(text)`` is at least ``threshold``, rounded to
    4 places. A ``_key_shuffle`` meets each group in one bucket, sorted by
    (lang, source, doc_id); ``graph.run_pairs`` pairs each group's run
    and ``_verify_pairs`` takes the exact Jaccard over each doc's sorted
    token-hash blob (``_hash_blob``). A doc with a NULL lang or source
    pairs nothing, as the twins' equality join matches no NULL."""
    ds = _read_docs(sf_dir, ["doc_id", "text", "lang", "source"])

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["lang"]), pc.is_valid(t["source"])))
        t = t.sort_by([("lang", "ascending"), ("source", "ascending"),
                       ("doc_id", "ascending")])
        lang = t["lang"].to_numpy(zero_copy_only=False)
        source = t["source"].to_numpy(zero_copy_only=False)
        group = np.cumsum(np.r_[True, (lang[1:] != lang[:-1])
                                | (source[1:] != source[:-1])])
        i, j = run_pairs(group)
        if not i.size:
            return _NEARDUP_SCHEMA.empty_table()
        blobs = pa.array([_hash_blob(token_set(x or "")) for x in
                          t["text"].to_numpy(zero_copy_only=False)], pa.binary())
        jac = _verify_pairs(blobs, i, j)
        hit = jac >= threshold
        ids = t["doc_id"].to_numpy()
        return pa.table([ids[i[hit]], ids[j[hit]], _round(jac[hit], 4)],
                        schema=_NEARDUP_SCHEMA)

    return _key_shuffle(ds, ["lang", "source"], per_bucket, None, "pyarrow")


def _words(text: str) -> set:
    return {w for w in text.split(" ") if w}


def jaccard_neardup_pairs(sf_dir: str, threshold: float = 0.8):
    """All-pairs word-set Jaccard inside each (lang, source) group
    (``_set_jaccard_pairs``). The group keys bound the pair count; at scale
    the MinHash-LSH variant below replaces the all-pairs step with band
    buckets."""
    return _set_jaccard_pairs(sf_dir, _words, threshold)


JACCARD_SQL = """
WITH d AS (
  SELECT doc_id, lang, source,
    list_distinct(list_filter(string_split(text,' '), x -> x <> '')) AS words
  FROM documents)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
  FLOOR(len(list_intersect(a.words,b.words))::DOUBLE
        / len(list_distinct(list_concat(a.words,b.words)))*10000+0.5)/10000 AS jaccard
FROM d a JOIN d b
  ON a.lang=b.lang AND a.source=b.source AND a.doc_id < b.doc_id
WHERE len(list_intersect(a.words,b.words))::DOUBLE
      / len(list_distinct(list_concat(a.words,b.words))) >= 0.8
"""


# ---------------------------------------------------------------------------
# MinHash-LSH near-dup (the at-scale candidate generator; rows-only check)
# ---------------------------------------------------------------------------

N_HASHES = 64
N_BANDS = 16  # 16 bands × 4 rows: P(collision) ≈ 1-(1-j^4)^16 → ~1 at j=0.8


def minhash_signatures(batch: pa.Table) -> pa.Table:
    """Vectorized MinHash over word sets: one hash64 per word, a seeded hash
    family per permutation, segment-min per document."""
    texts = batch["text"].to_numpy(zero_copy_only=False)
    doc_ids = batch["doc_id"].to_numpy()
    words, bounds = [], [0]
    for t in texts:
        words.extend(sorted(_words(t or "")))
        bounds.append(len(words))
    if not words:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "band": pa.array([], pa.int64()),
                         "band_hash": pa.array([], pa.int64())})
    base = hash64(np.asarray(words, dtype=object))
    fam = hash_family(base, N_HASHES)  # (N_HASHES, n_words)
    starts = np.asarray(bounds[:-1])
    sig = np.stack([
        np.minimum.reduceat(fam[k], starts) for k in range(N_HASHES)
    ])  # (N_HASHES, n_docs); empty docs handled below
    lens = np.diff(bounds)
    sig[:, lens == 0] = np.uint64(0)
    rows_per_band = N_HASHES // N_BANDS
    out_doc, out_band, out_hash = [], [], []
    for b in range(N_BANDS):
        seg = sig[b * rows_per_band : (b + 1) * rows_per_band]  # (r, n_docs)
        bh = seg[0]
        for r in range(1, rows_per_band):
            bh = splitmix64(bh ^ seg[r])
        out_doc.append(doc_ids)
        out_band.append(np.full(doc_ids.size, b, dtype=np.int64))
        out_hash.append(bh.astype(np.int64))
    return pa.table({
        "doc_id": pa.array(np.concatenate(out_doc)),
        "band": pa.array(np.concatenate(out_band)),
        "band_hash": pa.array(np.concatenate(out_hash)),
    })


def _word_hash_table(batch: pa.Table) -> pa.Table:
    """(doc_id, words) where words = sorted distinct 64-bit word hashes.

    The compact per-doc token representation each MinHash band row carries
    to its bucket's verify — word hashes instead of raw text keep the
    shuffle small; Jaccard over 64-bit hashes equals word-set Jaccard up to
    negligible collision probability."""
    texts = batch["text"].to_numpy(zero_copy_only=False)
    return pa.table({
        "doc_id": batch["doc_id"],
        "words": pa.array([_hash_blob(_words(t or "")) for t in texts],
                          pa.binary()),
    })


def _hash_blob(tokens: set) -> bytes:
    """The distinct 64-bit hashes of ``tokens``, sorted, as int64 bytes: one
    flat binary value that ``_verify_pairs`` reads without a Python loop."""
    h = (hash64(np.asarray(sorted(tokens), dtype=object)) if tokens
         else np.empty(0, np.uint64))
    return np.unique(h).astype(np.int64).tobytes()


def _verify_pairs(blobs: pa.Array, ia: np.ndarray, ib: np.ndarray
                  ) -> np.ndarray:
    """Exact Jaccard of the blob pairs (ia, ib) of ``blobs`` (``_hash_blob``
    token-hash arrays). Each blob becomes a matrix row padded with
    negatives distinct across the matrix, so a pair's intersection is the
    count of adjacent equal values in sort(concat(row a, row b)): a
    vectorized (n, 2W) sort, 8,192 pairs at a time in one reused buffer
    (a fresh n x 2W matrix costs more in first-touch page faults than its
    sort)."""
    lens = pc.binary_length(blobs).to_numpy().astype(np.int64) // 8
    offsets = np.frombuffer(blobs.buffers()[1], np.int32)[
        blobs.offset:blobs.offset + len(blobs) + 1]
    vals = np.frombuffer(blobs.buffers()[2] or b"", np.uint8)[
        offsets[0]:offsets[-1]].view(np.int64)
    w = max(int(lens.max(initial=0)), 1)
    mat = -(np.arange(lens.size * w, dtype=np.int64) + 1).reshape(-1, w)
    mat[np.repeat(np.arange(lens.size), lens),
        np.arange(vals.size) - np.repeat(np.cumsum(lens) - lens, lens)] = vals
    chunk = 8192
    buf = np.empty((min(chunk, len(ia)), 2 * w), np.int64)
    inter = np.empty(len(ia), np.int64)
    for s in range(0, len(ia), chunk):
        c = buf[:min(chunk, len(ia) - s)]
        c[:, :w] = mat[ia[s:s + chunk]]
        c[:, w:] = mat[ib[s:s + chunk]]
        c.sort(axis=1)  # only adjacency counts: any sort order of ties
        inter[s:s + chunk] = (c[:, 1:] == c[:, :-1]).sum(axis=1)
    union = lens[ia] + lens[ib] - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


_NEARDUP_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                             ("jaccard", pa.float64())])


def minhash_neardup_documents(sf_dir: str, threshold: float = 0.8):
    """shingle→minhash→band→bucket→candidate pairs→exact-Jaccard verify,
    the banding recipe of *Mining of Massive Datasets* ch. 3: the
    candidates of a band bucket are verified in that bucket.

    1. each doc's band rows carry its sorted word-hash blob
       (``_word_hash_table``) and meet in a ``_key_shuffle`` on the
       composite (band, band hash) key; nothing corpus-sized is broadcast
       or collected.
    2. a bucket emits each band key's candidate pairs with
       ``graph.run_pairs`` at ``HOT_RUN_CAP``: a band key of more docs
       pairs its first CAP ids all-pairs and star-links the rest to its
       minimum (O(M) instead of O(M²), cluster connectivity preserved for
       dedup; logged, never silent). The bucket keeps each pair once and
       verifies it with exact Jaccard over the blobs of its own rows
       (``_verify_pairs``).
    3. one ``_key_shuffle`` on the pair keeps each verified pair once
       across buckets (the same pair surfaces from ~2 bands).

    Pairs dedupe on the two id columns (``graph.unique_pairs``), so any
    int64 doc id works.
    """
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def band_rows(batch: pa.Table) -> pa.Table:
        # composite single int64 (band, band hash) key; every row of one
        # bkey meets in one _key_shuffle bucket, so pair emission inside
        # the bucket is exact per band bucket
        sig = minhash_signatures(batch)
        if not sig.num_rows:  # no doc of the batch has a word
            batch = batch.slice(0, 0)
        bh = sig["band_hash"].to_numpy().astype(np.uint64)
        b = sig["band"].to_numpy().astype(np.uint64)
        key = splitmix64(bh ^ (b << np.uint64(56))).astype(np.int64)
        # sig holds N_BANDS runs of the batch's docs, in batch order
        words = _word_hash_table(batch)["words"].combine_chunks()
        return pa.table({"doc_id": sig["doc_id"], "bkey": pa.array(key),
                         "words": pa.concat_arrays([words] * N_BANDS)})

    def verify_bucket(t: pa.Table) -> pa.Table:
        bk = t["bkey"].to_numpy()
        ids = t["doc_id"].to_numpy()
        order = np.lexsort((ids, bk))
        bk, ids = bk[order], ids[order]
        # one row per (band key, doc)
        keep = np.r_[True, (bk[1:] != bk[:-1]) | (ids[1:] != ids[:-1])]
        order, bk, ids = order[keep], bk[keep], ids[keep]
        ra, rb = run_pairs(bk, HOT_RUN_CAP)
        if not ra.size:
            return _NEARDUP_SCHEMA.empty_table()
        # each pair once within the bucket, then verified against the
        # blobs of the rows it came from
        first = unique_pairs(ids[ra], ids[rb])
        ra, rb = ra[first], rb[first]
        a, b = ids[ra].astype(np.int64), ids[rb].astype(np.int64)
        rows, inv = np.unique(np.r_[ra, rb], return_inverse=True)
        blobs = t["words"].take(order[rows]).combine_chunks()
        jac = _round(_verify_pairs(blobs, inv[:a.size], inv[a.size:]), 4)
        hit = jac >= threshold
        return pa.table([a[hit], b[hit], jac[hit]], schema=_NEARDUP_SCHEMA)

    def distinct_pairs(t: pa.Table) -> pa.Table:
        return t.take(unique_pairs(t["doc_a"].to_numpy(),
                                   t["doc_b"].to_numpy()))

    verified = _key_shuffle(ds, ["bkey"], verify_bucket, band_rows, "pyarrow")
    return _key_shuffle(verified, ["doc_a", "doc_b"], distinct_pairs, None,
                        "pyarrow")


def simhash_documents(sf_dir: str):
    """64-bit SimHash per document (token-hash bit-vote), deterministic."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def sim(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_numpy(zero_copy_only=False)
        out = np.zeros(len(texts), dtype=np.int64)
        shifts = np.arange(64, dtype=np.uint64)
        for i, t in enumerate(texts):
            ws = [w for w in (t or "").split(" ") if w]
            if not ws:
                continue
            h = hash64(np.asarray(ws, dtype=object))
            bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
            votes = (bits * 2 - 1).sum(axis=0)
            sh = np.uint64(0)
            for k in range(64):
                if votes[k] > 0:
                    sh |= np.uint64(1) << np.uint64(k)
            out[i] = np.int64(sh.astype(np.int64))
        return pa.table({"doc_id": batch["doc_id"], "simhash": pa.array(out)})

    return ds.map_batches(sim, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Token counting / quality scoring / language-ID — oracle-checkable
# ---------------------------------------------------------------------------


def token_stats_by_lang(sf_dir: str):
    def lengths(batch: pa.Table) -> pa.Table:
        text = batch["text"].to_pandas()
        return pa.table({"lang": batch["lang"],
                         "tok": _tokens(text).map(len).to_numpy(np.int64),
                         "chars": text.fillna("").str.len().to_numpy(np.int64)})

    df = _group_fold(_read_docs(sf_dir, ["text", "lang"]), ["lang"], {
        "n_docs": (None, "count_all"), "tok": ("tok", "sum"),
        "chars": ("chars", "sum")}, lengths).to_pandas()
    df["avg_tokens"] = _round(df.pop("tok") / df.n_docs, 4)
    df["avg_chars"] = _round(df.pop("chars") / df.n_docs, 4)
    return _pa_from_pandas(df, preserve_index=False)


TOKEN_STATS_SQL = """
WITH t AS (
  SELECT lang, len(list_filter(string_split(text,' '), x -> x <> '')) AS n_tokens,
         length(text) AS n_chars
  FROM documents)
SELECT lang, COUNT(*) AS n_docs,
  FLOOR(SUM(n_tokens)::DOUBLE/COUNT(*)*10000+0.5)/10000 AS avg_tokens,
  FLOOR(SUM(n_chars)::DOUBLE/COUNT(*)*10000+0.5)/10000 AS avg_chars
FROM t GROUP BY lang
"""


def quality_scores(sf_dir: str):
    """Per-document quality features: token count, distinct ratio, stopword
    ratio — the length/stopword heuristics of training-data quality filters."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        toks = _tokens(df.text)
        n = toks.map(len).to_numpy()
        n_distinct = toks.map(lambda ws: len(set(ws))).to_numpy()
        n_stop = toks.map(lambda ws: sum(w in STOPWORDS for w in ws)).to_numpy()
        safe_n = np.maximum(n, 1)
        return pa.table({
            "doc_id": pa.array(df.doc_id.to_numpy()),
            "n_tokens": pa.array(n.astype(np.int64)),
            "n_distinct": pa.array(n_distinct.astype(np.int64)),
            "uniq_ratio": pa.array(_round(n_distinct / safe_n, 4)),
            "stop_ratio": pa.array(_round(n_stop / safe_n, 4)),
        })

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


QUALITY_SQL = """
WITH t AS (
  SELECT doc_id, list_filter(string_split(text,' '), x -> x <> '') AS toks
  FROM documents)
SELECT doc_id,
  len(toks) AS n_tokens,
  len(list_distinct(toks)) AS n_distinct,
  FLOOR(len(list_distinct(toks))::DOUBLE / GREATEST(len(toks),1)*10000+0.5)/10000 AS uniq_ratio,
  FLOOR(len(list_filter(toks, x -> x IN ('the','a','of','and','to')))::DOUBLE
        / GREATEST(len(toks),1)*10000+0.5)/10000 AS stop_ratio
FROM t
"""


def vocab_drift_documents(sf_dir: str):
    """Vocabulary drift between the even-doc_id reference split and the
    odd-doc_id current split: out-of-vocabulary mass/type counts plus the
    Jensen-Shannon divergence (nats) between the two token unigram
    distributions — the vocabulary-shift companion to the numeric KS /
    categorical Chi² drift checks (a new domain's tokens move OOV mass and
    JS long before length marginals react).

    Shape: per-block (token-hash, side) partial counts materialized once
    and consumed twice — side totals via two tiny sums, then a
    ``_key_shuffle`` on the token hash where each bucket folds its tokens'
    exact (ref, cur) counts into three partial reductions (JS terms, OOV
    mass, OOV types) against the closure-captured scalar totals. The driver
    sums one row a bucket; token strings never shuffle (64-bit hashes stand
    in, the DUP_NGRAM collision contract)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        toks = _tokens(df.text)
        reps = toks.map(len).to_numpy()
        if not reps.sum():
            return pa.table({"h": pa.array([], pa.int64()),
                             "cr": pa.array([], pa.int64()),
                             "cc": pa.array([], pa.int64())})
        allw = np.concatenate([np.asarray(ws, dtype=object) for ws in toks])
        h = hash64(allw).astype(np.int64)
        side = np.repeat(df.doc_id.to_numpy() % 2, reps)
        g = pd.DataFrame({"h": h, "r": (side == 0).astype(np.int64),
                          "c": (side == 1).astype(np.int64)}).groupby(
            "h", sort=False).agg(cr=("r", "sum"), cc=("c", "sum")).reset_index()
        return _pa_from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
    nr = float(parts.sum("cr") or 0)
    nc = float(parts.sum("cc") or 0)
    if nr == 0 or nc == 0:
        # a token-less split leaves OOV/JS undefined (the oracle's divisions
        # go NULL the same way) — report the counts and zeros, don't divide
        return pa.Table.from_pylist([{
            "n_ref_tokens": int(nr), "n_cur_tokens": int(nc),
            "oov_types": 0, "oov_rate": 0.0, "js_divergence": 0.0,
        }])

    def bucket_fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h", sort=False).agg(cr=("cr", "sum"),
                                            cc=("cc", "sum"))
        p = g.cr.to_numpy(np.float64) / nr
        q = g.cc.to_numpy(np.float64) / nc
        m = (p + q) / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            js = (0.5 * np.where(p > 0, p * np.log(np.where(p > 0, p, 1) / m), 0.0).sum()
                  + 0.5 * np.where(q > 0, q * np.log(np.where(q > 0, q, 1) / m), 0.0).sum())
        oov = g.cr.to_numpy() == 0
        return pd.DataFrame({
            "js_part": [float(js)],
            "oov_mass": [int(g.cc.to_numpy()[oov].sum())],
            "oov_types": [int((oov & (g.cc.to_numpy() > 0)).sum())],
        })

    folded = _key_shuffle(parts, ["h"], bucket_fold).to_pandas()
    js = float(folded.js_part.sum())
    oov_mass = int(folded.oov_mass.sum())
    oov_types = int(folded.oov_types.sum())
    return pa.Table.from_pylist([{
        "n_ref_tokens": int(nr), "n_cur_tokens": int(nc),
        "oov_types": oov_types,
        "oov_rate": np.floor(float(oov_mass) * 1e6 / nc + 0.5) / 1e6,
        "js_divergence": np.floor(js * 1e6 + 0.5) / 1e6,
    }])


VOCAB_DRIFT_SQL = """
WITH tok AS (
  SELECT doc_id % 2 AS side,
         UNNEST(list_filter(string_split(text, ' '), x -> x <> '')) AS w
  FROM documents),
c AS (SELECT w,
        SUM(CASE WHEN side = 0 THEN 1 ELSE 0 END)::DOUBLE AS cr,
        SUM(CASE WHEN side = 1 THEN 1 ELSE 0 END)::DOUBLE AS cc
      FROM tok GROUP BY w),
t AS (SELECT SUM(cr) AS nr, SUM(cc) AS nc FROM c),
j AS (SELECT
        SUM(CASE WHEN c.cr > 0 THEN
          0.5 * (c.cr / t.nr) * LN((c.cr / t.nr) / ((c.cr / t.nr + c.cc / t.nc) / 2))
          ELSE 0 END)
      + SUM(CASE WHEN c.cc > 0 THEN
          0.5 * (c.cc / t.nc) * LN((c.cc / t.nc) / ((c.cr / t.nr + c.cc / t.nc) / 2))
          ELSE 0 END) AS js,
        SUM(CASE WHEN c.cr = 0 THEN c.cc ELSE 0 END) AS oov_mass,
        SUM(CASE WHEN c.cr = 0 AND c.cc > 0 THEN 1 ELSE 0 END) AS oov_types
      FROM c, t GROUP BY ALL)
SELECT CAST(t.nr AS BIGINT) AS n_ref_tokens, CAST(t.nc AS BIGINT) AS n_cur_tokens,
       CAST(j.oov_types AS BIGINT) AS oov_types,
       FLOOR(j.oov_mass * 1e6 / t.nc + 0.5) / 1e6 AS oov_rate,
       FLOOR(j.js * 1e6 + 0.5) / 1e6 AS js_divergence
FROM j, t
"""


def langid_confusion(sf_dir: str):
    """Marker-word language-ID heuristic vs the labeled ``lang`` column;
    returns the confusion counts. Ties break by LANG_MARKERS order."""
    langs = list(LANG_MARKERS)

    def predict(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch["text"].to_pandas())
        scores = np.zeros((batch.num_rows, len(langs)), dtype=np.int64)
        for li, lang in enumerate(langs):
            markers = set(LANG_MARKERS[lang])
            scores[:, li] = toks.map(lambda ws: sum(w in markers for w in ws)).to_numpy()
        return pa.table({"lang": batch["lang"], "pred_lang": pa.array(
            np.asarray(langs, dtype=object)[scores.argmax(axis=1)], pa.string())})

    return _group_fold(_read_docs(sf_dir, ["text", "lang"]), ["lang", "pred_lang"],
                       {"n": (None, "count_all")}, predict)


LANGID_SQL = """
WITH t AS (
  SELECT lang, list_filter(string_split(text,' '), x -> x <> '') AS toks
  FROM documents),
s AS (
  SELECT lang,
    len(list_filter(toks, x -> x IN ('the','a','of'))) AS s_en,
    len(list_filter(toks, x -> x IN ('der','die','das'))) AS s_de,
    len(list_filter(toks, x -> x IN ('el','la','los'))) AS s_es,
    len(list_filter(toks, x -> x IN ('le','les','des'))) AS s_fr,
    len(list_filter(toks, x -> x IN ('de5','shi4','le5'))) AS s_zh
  FROM t)
SELECT lang,
  CASE GREATEST(s_en, s_de, s_es, s_fr, s_zh)
    WHEN s_en THEN 'en' WHEN s_de THEN 'de' WHEN s_es THEN 'es'
    WHEN s_fr THEN 'fr' ELSE 'zh' END AS pred_lang,
  COUNT(*) AS n
FROM s GROUP BY 1, 2
"""


def fingerprint_documents(sf_dir: str):
    """Rolling-hash document fingerprint (first 8 bytes of a polynomial hash
    over the token-hash sequence) — order-sensitive, unlike the set hashes."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_numpy(zero_copy_only=False)
        out = np.zeros(len(texts), dtype=np.uint64)
        p = np.uint64(1099511628211)
        for i, t in enumerate(texts):
            ws = [w for w in (t or "").split(" ") if w]
            if not ws:
                continue
            h = hash64(np.asarray(ws, dtype=object))
            acc = np.uint64(14695981039346656037)
            for x in h:
                acc = (acc ^ x) * p
            out[i] = acc
        return pa.table({"doc_id": batch["doc_id"],
                         "fingerprint": pa.array(out.astype(np.int64))})

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Regex (BPE-ish) token counting — task list: "token counting (whitespace +
# a BPE-ish regex)". The whitespace variant is token_stats_by_lang above.
# ---------------------------------------------------------------------------

# letter runs | digit runs | single non-space symbol — a simplified GPT-2-style
# pre-tokenizer whose semantics RE2 (DuckDB) and Python `re` agree on
BPE_TOKEN_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
_BPE_TOKEN_RX = re.compile(BPE_TOKEN_PATTERN)


def token_count_regex(sf_dir: str):
    """One stateless pass; the pattern compiles once per worker process."""
    def count(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_numpy(zero_copy_only=False)
        n = np.fromiter((len(_BPE_TOKEN_RX.findall(t or "")) for t in texts),
                        np.int64, len(texts))
        return pa.table({"doc_id": batch["doc_id"], "n_bpe_tokens": pa.array(n)})

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        count, batch_format="pyarrow", zero_copy_batch=True)


TOKEN_REGEX_SQL = """
SELECT doc_id,
  len(regexp_extract_all(COALESCE(text, ''), '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]'))::BIGINT
    AS n_bpe_tokens
FROM documents
"""


# ---------------------------------------------------------------------------
# Character n-gram Jaccard near-dup — the shingle-level dedup variant
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(sf_dir: str, n: int = 3, threshold: float = 0.8):
    """All-pairs character n-gram (shingle) Jaccard inside (lang, source)
    groups (``_set_jaccard_pairs``) — the n-gram-level sibling of word-set
    ``jaccard_neardup_pairs`` (at scale the MinHash banding replaces the
    all-pairs step; this is the oracle-exact variant)."""
    def grams(t: str) -> set:
        return {t[i:i + n] for i in range(len(t) - n + 1)}

    return _set_jaccard_pairs(sf_dir, grams, threshold)


NGRAM_JACCARD_SQL = """
WITH d AS (
  SELECT doc_id, lang, source,
    list_distinct(list_transform(range(1, length(text)-1),
                                 i -> substr(text, i::INT, 3))) AS grams
  FROM documents)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
  FLOOR(len(list_intersect(a.grams,b.grams))::DOUBLE
        / len(list_distinct(list_concat(a.grams,b.grams)))*10000+0.5)/10000 AS jaccard
FROM d a JOIN d b
  ON a.lang=b.lang AND a.source=b.source AND a.doc_id < b.doc_id
WHERE len(list_intersect(a.grams,b.grams))::DOUBLE
      / len(list_distinct(list_concat(a.grams,b.grams))) >= 0.8
"""


# ---------------------------------------------------------------------------
# Inverted index + TF-IDF — the posting-list builds behind corpus search and
# term-weighting in training-data pipelines
# ---------------------------------------------------------------------------

VOCAB_BROADCAST_MAX = 2_000_000  # df-map broadcast gate (~100 MB of tokens)


def _explode_tokens(batch: pa.Table, distinct: bool) -> pd.DataFrame:
    """(doc_id, token) rows for a batch — one row per (doc, distinct token)
    or per token occurrence; tokenizer parity with the oracle SQL
    (whitespace split, empties dropped)."""
    df = batch.to_pandas()
    toks = _tokens(df.text)
    if distinct:
        toks = toks.map(lambda ws: sorted(set(ws)))
    ex = (df[["doc_id"]].assign(token=toks).explode("token")
          .dropna(subset=["token"]))
    return ex


def inverted_index_documents(sf_dir: str):
    """Distributed inverted-index build: token → document frequency + the
    doc_id-sorted posting list (csv string — scalar and hash-stable; a real
    sink would write a parquet ``list<int64>`` column partitioned by bucket).

    Shape: per-batch explode of distinct (doc, token) pairs → ONE
    ``_key_shuffle`` on the token (all rows of a token land in the same
    bucket, so df/postings are exact) → per-bucket vectorized pandas
    groupby builds every posting list in that bucket. No driver collect;
    the shuffle carries one int64+token row per (doc, distinct token)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        ex = _explode_tokens(batch, distinct=True)
        return pa.table({
            "token": pa.array(ex["token"].to_numpy(dtype=object),
                              type=pa.string()),
            "doc_id": pa.array(ex["doc_id"].to_numpy().astype(np.int64)),
        })

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["token", "doc_id"], kind="mergesort")
        out = g.groupby("token", sort=False)["doc_id"].agg(
            df="size", postings=lambda s: ",".join(map(str, s.to_numpy())))
        out = out.reset_index()
        out["df"] = out["df"].astype(np.int64)
        return out[["token", "df", "postings"]]

    return _key_shuffle(ds, ["token"], build, explode)


INVERTED_INDEX_SQL = """
WITH tok AS (
  SELECT doc_id,
    unnest(list_distinct(list_filter(string_split(text,' '), x -> x <> '')))
      AS token
  FROM documents)
SELECT token, COUNT(*)::BIGINT AS df,
       STRING_AGG(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings
FROM tok GROUP BY token
"""


PARTIALS_COLLECT_MAX = 8_000_000  # blocks x vocab rows the driver will merge


def _tfidf_two_shuffle(sf_dir: str, n_docs: int):
    """Open-vocabulary TF-IDF path — no driver collect at all: shuffle the
    per-doc tf rows on the token (every row of a token lands in one bucket,
    so df is a vectorized within-bucket ``transform("size")``), then
    re-shuffle the scored rows on doc_id and take each doc's top term with
    one sort + drop_duplicates per bucket."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def tf_explode(batch: pa.Table) -> pa.Table:
        ex = _explode_tokens(batch, distinct=False)
        g = (ex.groupby(["doc_id", "token"], sort=False).size()
             .reset_index(name="tf"))
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy().astype(np.int64)),
            "token": pa.array(g["token"].to_numpy(dtype=object),
                              type=pa.string()),
            "tf": pa.array(g["tf"].to_numpy().astype(np.int64)),
        })

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        dfreq = g.groupby("token", sort=False)["doc_id"].transform("size")
        score = _round(g["tf"].to_numpy()
                       * np.log(float(n_docs) / dfreq.to_numpy()), 6)
        out = g[["doc_id", "token"]].copy()
        out["score"] = score
        return out

    def top_per_doc(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "score", "token"],
                          ascending=[True, False, True], kind="mergesort")
        top = g.drop_duplicates("doc_id")
        return pd.DataFrame({"doc_id": top["doc_id"].to_numpy(),
                             "top_term": top["token"].to_numpy(),
                             "score": top["score"].to_numpy()})

    return _key_shuffle(_key_shuffle(ds, ["token"], score_bucket, tf_explode),
                        ["doc_id"], top_per_doc)


def tfidf_top_terms(sf_dir: str):
    """Top TF-IDF term per document: score = tf · ln(n_docs / df), ranked on
    the 1e-6-quantized score (quantization computed identically in the oracle
    so the argmax is cross-engine stable), ties broken by token ascending.

    Fast path (bounded vocabulary — zero shuffles): the document-frequency
    map is a bounded-cardinality aggregate — per-block (token, partial_df)
    partials pre-aggregate inside ``map_batches``, merge on the driver, and
    broadcast via ``ray.put``; the scoring pass picks each doc's top term
    inside its own batch (a doc never spans batches, so the per-doc argmax
    is batch-local). Open-vocabulary corpora route to the two-shuffle
    ``_key_shuffle`` path instead — both gates (partial-row collect, merged
    broadcast size) are checked BEFORE anything large reaches the driver."""
    import ray

    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()  # metadata-only

    def df_partial(batch: pa.Table) -> pa.Table:
        ex = _explode_tokens(batch, distinct=True)
        g = ex.groupby("token", sort=False).size().reset_index(name="n")
        return pa.table({"token": pa.array(g["token"].to_numpy(dtype=object),
                                           type=pa.string()),
                         "n": pa.array(g["n"].to_numpy().astype(np.int64))})

    parts_ds = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        df_partial, batch_format="pyarrow", zero_copy_batch=True).materialize()
    if parts_ds.count() > PARTIALS_COLLECT_MAX:
        return _tfidf_two_shuffle(sf_dir, n_docs)
    partials = parts_ds.to_pandas()
    dfreq = partials.groupby("token", sort=True)["n"].sum()
    # gate on the MERGED vocabulary (what actually broadcasts), not the
    # blocks x vocab partial rows which scale with parallelism
    if len(dfreq) > VOCAB_BROADCAST_MAX:
        return _tfidf_two_shuffle(sf_dir, n_docs)
    vocab = dfreq.index.to_numpy(dtype=object)  # sorted ⇒ searchsorted below
    idf = np.log(float(n_docs) / dfreq.to_numpy().astype(np.float64))
    wrapped = {"ref": ray.put((vocab, idf))}

    def score_batch(batch: pa.Table) -> pa.Table:
        voc, idf_arr = ray.get(wrapped["ref"])
        ex = _explode_tokens(batch, distinct=False)
        g = (ex.groupby(["doc_id", "token"], sort=False).size()
             .reset_index(name="tf"))
        tok = g["token"].to_numpy(dtype=object)
        pos = np.searchsorted(voc, tok)  # every token is in the fitted vocab
        g["score"] = _round(g["tf"].to_numpy() * idf_arr[pos], 6)
        g = g.sort_values(["doc_id", "score", "token"],
                          ascending=[True, False, True], kind="mergesort")
        top = g.drop_duplicates("doc_id")
        return pa.table({
            "doc_id": pa.array(top["doc_id"].to_numpy().astype(np.int64)),
            "top_term": pa.array(top["token"].to_numpy(dtype=object),
                                 type=pa.string()),
            "score": pa.array(top["score"].to_numpy()),
        })

    ds = _read_docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(score_batch, batch_format="pyarrow", zero_copy_batch=True)


TFIDF_SQL = """
WITH tok AS (
  SELECT doc_id,
    unnest(list_filter(string_split(text,' '), x -> x <> '')) AS token
  FROM documents),
tf AS (
  SELECT doc_id, token, COUNT(*)::BIGINT AS tf FROM tok GROUP BY doc_id, token),
dfreq AS (
  SELECT token, COUNT(*)::BIGINT AS df FROM tf GROUP BY token),
scored AS (
  SELECT tf.doc_id, tf.token,
    FLOOR(tf.tf * ln((SELECT COUNT(*) FROM documents)::DOUBLE / dfreq.df)
          * 1000000 + 0.5) / 1000000 AS score
  FROM tf JOIN dfreq USING (token))
SELECT doc_id, token AS top_term, score
FROM scored
QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY score DESC, token) = 1
"""


# ---------------------------------------------------------------------------
# Text normalization — the §2.2 parser/cleaner stage of ingest pipelines
# ---------------------------------------------------------------------------


def normalize_arrow(x):
    """Canonical text cleanup kernel: lowercase → strip non-[a-z0-9 ] →
    collapse space runs → trim. The ONE implementation behind
    ``normalize_text_documents`` and the corpus funnel's dedup key, so the
    NORMALIZE_SQL regex parity holds everywhere it's used."""
    x = pc.utf8_lower(x)
    x = pc.replace_substring_regex(x, "[^a-z0-9 ]", "")
    x = pc.replace_substring_regex(x, " +", " ")
    return pc.utf8_trim_whitespace(x)


def shingle_hits(evs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Membership of shingle hashes ``h`` in the sorted eval set ``evs``
    (empty-set safe). Shared by ``decontaminate_documents`` and the corpus
    funnel so the probe semantics can't drift."""
    if evs.size == 0:
        return np.zeros(h.shape, bool)
    pos = np.searchsorted(evs, h)
    return (pos < evs.size) & (evs[np.minimum(pos, evs.size - 1)] == h)


def normalize_text_documents(sf_dir: str):
    """Canonical text cleanup via ``normalize_arrow``: pure zero-copy
    ``pyarrow.compute`` kernels (both engines run RE2, so regex semantics
    match the oracle byte-for-byte) — the shape of every
    normalization/parsing pass in a training-data ingest pipeline:
    stateless, vectorized, no shuffle."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_id"],
                         "norm_text": normalize_arrow(batch["text"])})

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


NORMALIZE_SQL = """
SELECT doc_id,
  trim(regexp_replace(regexp_replace(lower(text), '[^a-z0-9 ]', '', 'g'),
                      ' +', ' ', 'g')) AS norm_text
FROM documents
"""


# ---------------------------------------------------------------------------
# LLM training-data shaping: overlapping token-window chunking (flat-map
# expansion) and GPT-style sequence packing (distributed ordered prefix-sum).
# ---------------------------------------------------------------------------


def chunk_counts(n: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Chunks per document: 1 when n <= window, else
    ceil((n - window) / stride) + 1 — the ONE implementation behind
    chunk_documents and its property tests."""
    return np.where(np.asarray(n) <= window, 1,
                    ((np.asarray(n) - window + stride - 1) // stride + 1)
                    ).astype(np.int64)


def chunk_documents(sf_dir: str, window: int = 32, stride: int = 24):
    """Overlapping token-window chunking — the flat-map every LLM training
    pipeline runs before tokenization: each document expands to
    ``ceil((n-window)/stride)+1`` chunks of ``window`` whitespace tokens
    advancing by ``stride`` (docs at or under one window yield one chunk).

    Per batch the chunk count/offset math is fully vectorized (np.repeat +
    exclusive-cumsum index arithmetic over one flattened token array); the
    final chunk-string assembly is O(output bytes) — inherent to emitting
    strings — never a per-token Python loop. Row expansion happens inside
    map_batches, so downstream backpressure sees the expanded size."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def expand(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        toks = _tokens(df.text)
        n = toks.str.len().to_numpy(dtype=np.int64)
        flat = np.concatenate([np.array(t, dtype=object) for t in toks]
                              ) if n.sum() else np.array([], dtype=object)
        doc_start = np.concatenate(([0], np.cumsum(n)[:-1]))
        n_chunks = chunk_counts(n, window, stride)
        total = int(n_chunks.sum())
        doc_idx = np.repeat(np.arange(len(df)), n_chunks)
        first = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        chunk_idx = np.arange(total) - np.repeat(first, n_chunks)
        start = chunk_idx * stride
        end = np.minimum(start + window, n[doc_idx])
        a = doc_start[doc_idx] + start
        b = doc_start[doc_idx] + end
        chunks = [" ".join(flat[lo:hi]) for lo, hi in zip(a, b)]
        return pa.table({
            "doc_id": pa.array(df.doc_id.to_numpy()[doc_idx], pa.int64()),
            "chunk_idx": pa.array(chunk_idx, pa.int64()),
            "n_tokens": pa.array(end - start, pa.int64()),
            "chunk": pa.array(chunks, pa.string()),
        })

    return ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)


CHUNK_SQL = """
WITH t AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents),
n AS (SELECT doc_id, w, len(w) AS n FROM t),
c AS (SELECT doc_id, w, n,
        UNNEST(generate_series(0,
          CASE WHEN n <= 32 THEN 0
               ELSE CAST(CEIL((n - 32) / 24.0) AS BIGINT) END)) AS chunk_idx
      FROM n)
SELECT doc_id, chunk_idx,
  LEAST(chunk_idx * 24 + 32, n) - chunk_idx * 24 AS n_tokens,
  array_to_string(w[chunk_idx * 24 + 1 : chunk_idx * 24 + 32], ' ') AS chunk
FROM c
"""


def pack_sequences_documents(sf_dir: str, budget: int = 512):
    """GPT-style sequence packing: documents are concatenated in doc_id
    order and cut into fixed ``budget``-token packs; each doc gets
    ``pack_id = tokens_before // budget`` and its offset within the pack.

    The global ordered prefix-sum is distributed as a two-level scan: docs
    are range-bucketed by doc_id (order-preserving, unlike a hash), each
    range's token SUM (one small row per range) folds on the driver and is
    exclusive-prefix-summed there, and the offsets go into one vectorized
    cumsum per ``_key_shuffle`` call over its ranges. No stage holds more
    than one bucket; the driver holds one row per range. The (doc_id,
    n_tokens, rng) projection is materialized once so the sum pass and the
    scan pass don't recount tokens."""
    import ray

    from .queries import _num_rows

    ds = _read_docs(sf_dir, ["doc_id", "text"])
    # max over the id-only projection: never decode the text column for it
    max_id = _read_docs(sf_dir, ["doc_id"]).max("doc_id")
    n_ranges = _salt_buckets(_num_rows(sf_dir, "documents"))
    width = max(1, (int(max_id) + n_ranges) // n_ranges)

    def count(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        n = _tokens(df.text).str.len().to_numpy(dtype=np.int64)
        ids = df.doc_id.to_numpy()
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_tokens": pa.array(n, pa.int64()),
                         "rng": pa.array(ids // width, pa.int64())})

    tagged = ds.map_batches(count, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    sums = _group_fold(tagged, ["rng"], {"n": ("n_tokens", "sum")}).sort_by("rng")
    offs = np.zeros(n_ranges + 1, np.int64)  # ids // width <= n_ranges
    n = sums["n"].to_numpy()
    offs[sums["rng"].to_numpy()] = np.cumsum(n) - n
    offs_ref = ray.put(offs)  # small: one int per range

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id")  # ranges are doc_id-contiguous
        n = df.n_tokens.to_numpy()
        r = df.rng.to_numpy()
        cum = np.cumsum(n) - n  # exclusive, over the whole bucket
        first = np.r_[True, r[1:] != r[:-1]]
        # n >= 0, so the running max picks the cum at each range's start
        before = (ray.get(offs_ref)[r] + cum
                  - np.maximum.accumulate(np.where(first, cum, 0)))
        return pd.DataFrame({"doc_id": df.doc_id.to_numpy(),
                             "n_tokens": n,
                             "pack_id": before // budget,
                             "offset_in_pack": before % budget})

    return _key_shuffle(tagged, ["rng"], scan)


PACK_SQL = """
WITH t AS (
  SELECT doc_id,
    len(list_filter(string_split(text, ' '), x -> x <> '')) AS n_tokens
  FROM documents),
s AS (
  SELECT doc_id, n_tokens,
    COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT AS before
  FROM t)
SELECT doc_id, n_tokens, before // 512 AS pack_id,
       before % 512 AS offset_in_pack
FROM s
"""


# ---------------------------------------------------------------------------
# Benchmark decontamination + source mixing (LLM corpus hygiene ops).
# ---------------------------------------------------------------------------

_SHINGLE_SEEDS = splitmix64(np.arange(1, 65, dtype=np.uint64) ^ np.uint64(0xDECAF))


def _shingle_hashes(texts: pd.Series, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n-token shingle hashes of each text: (uint64 hashes, doc index).

    Token hashes are combined per window with position-seeded splitmix64
    (vectorized over a (n_shingles, n) fancy-indexed matrix — no per-doc
    loop). Injective w.r.t. the space-joined shingle string (tokens contain
    no spaces), so hash equality == string equality up to negligible 64-bit
    collisions; the oracle compares the strings directly."""
    toks = _tokens(texts)
    counts = toks.str.len().to_numpy(np.int64)
    if counts.sum() == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
    th = hash64(flat)
    doc_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    n_sh = np.maximum(counts - (n - 1), 0)
    total = int(n_sh.sum())
    if total == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    doc_idx = np.repeat(np.arange(len(counts)), n_sh)
    first = np.concatenate(([0], np.cumsum(n_sh)[:-1]))
    local = np.arange(total) - np.repeat(first, n_sh)
    start = doc_start[doc_idx] + local
    win = th[start[:, None] + np.arange(n)[None, :]]
    h = np.zeros(total, np.uint64)
    for j in range(n):
        h ^= splitmix64(win[:, j] ^ _SHINGLE_SEEDS[j])
    return splitmix64(h), doc_idx


def decontaminate_documents(sf_dir: str, n: int = 8, eval_mod: int = 29):
    """Benchmark decontamination: flag every training document that shares
    any ``n``-token shingle with the eval set (docs with
    ``doc_id % eval_mod == 0`` stand in for the benchmark corpus).

    Scale shape: eval shingle hashes are built distributed (per-batch
    filter + unique), collected once — bounded because eval sets are small
    by construction (~1/eval_mod of the corpus here; real benchmarks are
    KBs) — broadcast with ray.put, and probed per training batch with one
    sorted-searchsorted membership test + bincount per-doc OR. The training
    corpus itself never leaves its batches."""
    import ray

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def eval_shingles(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df.doc_id % eval_mod == 0]
        h, _ = _shingle_hashes(df.text, n)
        return pa.table({"h": pa.array(np.unique(h))})

    ev = np.unique(
        ds.map_batches(eval_shingles, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas().h.to_numpy()
    ).astype(np.uint64)
    ev_ref = ray.put(ev)  # sorted; small by construction

    def probe(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df.doc_id % eval_mod != 0]
        h, doc_idx = _shingle_hashes(df.text, n)
        hit = shingle_hits(ray.get(ev_ref), h)
        cont = np.bincount(doc_idx[hit], minlength=len(df)) > 0
        return pa.table({"doc_id": pa.array(df.doc_id.to_numpy(), pa.int64()),
                         "contaminated": pa.array(cont)})

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


DECONTAMINATE_SQL = """
WITH tok AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents),
ev AS (
  SELECT DISTINCT array_to_string(w[s : s + 7], ' ') AS sh
  FROM tok, LATERAL UNNEST(generate_series(1, GREATEST(len(w) - 7, 0))) AS g(s)
  WHERE doc_id % 29 = 0),
tr AS (SELECT doc_id, w FROM tok WHERE doc_id % 29 <> 0),
sh AS (
  SELECT doc_id, array_to_string(w[s : s + 7], ' ') AS sh
  FROM tr, LATERAL UNNEST(generate_series(1, GREATEST(len(w) - 7, 0))) AS g(s)),
bad AS (SELECT DISTINCT s.doc_id FROM sh s JOIN ev e ON s.sh = e.sh)
SELECT t.doc_id, (t.doc_id IN (SELECT doc_id FROM bad)) AS contaminated
FROM tr t
"""


def mix_sources_documents(sf_dir: str):
    """Deterministic source mixing (corpus reweighting): even-numbered
    sources keep every doc, odd-numbered keep 25%, decided per row by the
    same order-free Knuth-hash bucket the split/sample ops use — a pure
    per-batch filter + source-keyed fold, no payload shuffle, stable under
    any task order / resume. A NULL source keeps 25%, as the oracle's CASE
    falls through to it."""
    from .queries import _knuth_bucket

    def keep(batch: pa.Table) -> pa.Table:
        srcnum = pc.cast(pc.utf8_slice_codeunits(batch["source"], 3), pa.int64())
        even = pc.fill_null(pc.equal(pc.bit_wise_and(srcnum, 1), 0), False)
        pct = np.where(even.to_numpy(zero_copy_only=False), 100, 25)
        bkt = _knuth_bucket(batch["doc_id"].to_numpy())
        return pa.table({"source": batch["source"],
                         "keep": (bkt < pct).astype(np.int64)})

    return _group_fold(_read_docs(sf_dir, ["doc_id", "source"]), ["source"],
                       {"n_in": (None, "count_all"), "n_sampled": ("keep", "sum")},
                       keep)


MIX_SOURCES_SQL = """
SELECT source, COUNT(*) AS n_in,
  COUNT(*) FILTER (((doc_id % 4096) * 2654435761) % 4294967296 <
    CASE WHEN CAST(SUBSTR(source, 4) AS INT) % 2 = 0
         THEN 4294967296 ELSE 1073741824 END) AS n_sampled
FROM documents GROUP BY source
"""


def bpe_pair_counts(sf_dir: str, k: int = 20):
    """Vocabulary induction's inner loop (byte-level BPE, GPT-2 style): the
    top-k most frequent ADJACENT byte pairs within words across the corpus.

    Per batch the whole text slice is joined with a space separator and
    encoded once; pair codes are one vectorized ``b[:-1]*256 + b[1:]`` over
    the byte buffer with separator-adjacent pairs masked out, counted with
    one bincount(2^16). Each block emits only its nonzero (pair, n) rows —
    a <= 65k-row partial regardless of block size — and ``_group_fold``
    merges them on the driver (the domain is bounded at 65,536) for the
    top-k. Byte pairs == char pairs on this ASCII corpus, which is what
    the character-based oracle compares."""
    ds = _read_docs(sf_dir, ["text"])
    sep = ord(" ")

    def partial(batch: pa.Table) -> pa.Table:
        txt = " ".join(batch["text"].to_pylist())
        b = np.frombuffer(txt.encode("utf-8"), dtype=np.uint8)
        if b.size < 2:
            return pa.table({"pair_code": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        lo, hi = b[:-1], b[1:]
        mask = (lo != sep) & (hi != sep)
        codes = lo[mask].astype(np.int64) * 256 + hi[mask]
        counts = np.bincount(codes, minlength=65536)
        nz = np.flatnonzero(counts)
        return pa.table({"pair_code": pa.array(nz.astype(np.int64)),
                         "n": pa.array(counts[nz].astype(np.int64))})

    agg = _group_fold(ds, ["pair_code"], {"n": ("n", "sum")},
                      partial).to_pandas()
    agg["pair"] = [chr(c // 256) + chr(c % 256) for c in agg.pair_code]
    agg = agg.sort_values(["n", "pair"], ascending=[False, True]).head(k)
    return pa.table({"pair": pa.array(agg.pair.to_numpy(), pa.string()),
                     "n": pa.array(agg.n.to_numpy(), pa.int64())})


BPE_PAIRS_SQL = """
WITH w AS (
  SELECT UNNEST(list_filter(string_split(text, ' '), x -> x <> '')) AS word
  FROM documents),
p AS (
  SELECT substr(word, s, 2) AS pair
  FROM w, LATERAL UNNEST(generate_series(1, len(word) - 1)) AS g(s))
SELECT pair, COUNT(*) AS n FROM p
GROUP BY pair ORDER BY n DESC, pair LIMIT 20
"""


# ---------------------------------------------------------------------------
# Full BPE trainer — the iterative merge-until-vocab-K driver on top of the
# bpe_pair_counts inner loop (kmeans_embeddings shape: bounded rounds,
# broadcast merge table, per-block partials)
# ---------------------------------------------------------------------------

BPE_MERGES = 30               # default merge budget (vocab = 256 base + K)
BPE_DRIVER_MAX_TYPES = 2_000_000  # word-TYPE gate for the driver merge loop


def _bpe_apply_merges(word: str, merges: list) -> list:
    """Apply the learned merge table to one word, greedily left-to-right in
    merge-rank order — the canonical BPE segmentation. O(len × n_merges);
    both training paths share it so they cannot diverge."""
    seq = list(word)
    for left, right in merges:
        i, out = 0, []
        while i < len(seq):
            if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out
    return seq


def _bpe_pair_counts_of(seqs, counts) -> dict:
    """Weighted adjacent-pair counts over symbol sequences — the exact
    inner statistic both paths argmax over."""
    pc: dict = {}
    for seq, c in zip(seqs, counts):
        for a, b in zip(seq, seq[1:]):
            pc[(a, b)] = pc.get((a, b), 0) + int(c)
    return pc


def _bpe_best(pc: dict):
    """Deterministic merge choice: max count, then lexicographically
    smallest (left, right) — integer counts, so the argmax is identical at
    any parallelism level."""
    (left, right), n = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
    return left, right, n


def bpe_train_documents(sf_dir: str, n_merges: int = BPE_MERGES):
    """Full BPE vocabulary trainer: distributed word-TYPE counting, then
    ``n_merges`` rounds of (pair-count → argmax → merge) over the type
    table. Returns the merge table — (merge_rank, left, right, merged, n)
    — the artifact a tokenizer loads.

    Scale shape (the uniqueness-screen idiom): training runs on word TYPES
    weighted by frequency, never on the corpus — the distributed count
    collapses 100 TB of text to a type table bounded by vocabulary size.
    Under ``BPE_DRIVER_MAX_TYPES`` (gate decided by a Dataset count(), no
    collect) the merge loop folds on the driver; above it, each round is a
    per-block pair-count partial over the materialized type table with the
    merge table broadcast per round and only bounded (left, right, n)
    partials leaving the blocks — kmeans_embeddings' bounded-round shape.
    Counts are exact integer sums and ties break lexicographically, so the
    merge table is bit-identical across parallelism levels AND between the
    two paths (forced-path parity + independent-reference tests pin both).
    Stops early when no pair repeats (best n < 2)."""
    import ray

    ds = _read_docs(sf_dir, ["text"])

    def word_partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch.to_pandas().text)
        flat = np.array([w for ws in toks for w in ws], dtype=object)
        if flat.size == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        words, counts = np.unique(flat, return_counts=True)
        return pa.table({"word": pa.array(words, pa.string()),
                         "n": pa.array(counts.astype(np.int64))})

    def bucket_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("word", sort=False).n.sum().reset_index()
        g["n"] = g.n.astype(np.int64)
        return g[["word", "n"]]

    types = _key_shuffle(ds, ["word"], bucket_sum, word_partial)
    # an empty exchange hands on a typed empty table, not a Dataset
    n_types = types.count() if isinstance(types, ray.data.Dataset) else 0

    merges: list = []          # [(left, right)] in rank order
    rows: list = []            # output rows incl. counts
    if n_types <= BPE_DRIVER_MAX_TYPES:
        tdf = types.to_pandas()
        seqs = [list(w) for w in tdf.word.to_numpy()]
        counts = tdf.n.to_numpy()
        for r in range(n_merges):
            pc = _bpe_pair_counts_of(seqs, counts)
            if not pc:
                break
            left, right, n = _bpe_best(pc)
            if n < 2:
                break
            merges.append((left, right))
            rows.append((r, left, right, left + right, n))
            merged = left + right
            for si, seq in enumerate(seqs):
                if left in seq and right in seq:
                    seqs[si] = _bpe_merge_one(seq, left, right, merged)
    else:
        for r in range(n_merges):
            mref = {"ref": ray.put(list(merges))}

            def pair_partial(batch: pa.Table, _m=mref) -> pa.Table:
                import ray as _ray

                ms = _ray.get(_m["ref"])
                seqs = [_bpe_apply_merges(w, ms)
                        for w in batch["word"].to_pylist()]
                pc = _bpe_pair_counts_of(seqs, batch["n"].to_numpy())
                if not pc:
                    return pa.table({"left": pa.array([], pa.string()),
                                     "right": pa.array([], pa.string()),
                                     "n": pa.array([], pa.int64())})
                ls, rs = zip(*pc.keys())
                return pa.table({"left": pa.array(ls, pa.string()),
                                 "right": pa.array(rs, pa.string()),
                                 "n": pa.array(list(pc.values()), pa.int64())})

            def pair_sum(df: pd.DataFrame) -> pd.DataFrame:
                g = df.groupby(["left", "right"], sort=False).n.sum()
                return g.reset_index()[["left", "right", "n"]]

            # bucket-aggregate BEFORE collecting: the driver sees at most
            # one row per distinct pair (≤ ~(256+K)² symbols), never the
            # blocks × pairs partial fan-out — at 10^5-block corpus scale
            # the raw partials would be a driver collapse
            parts = _key_shuffle(types, ["left", "right"], pair_sum,
                                 pair_partial).to_pandas()
            if not len(parts):
                break
            pc = {(l, r): int(v) for l, r, v in
                  zip(parts.left, parts.right, parts.n)}
            left, right, n = _bpe_best(pc)
            if n < 2:
                break
            merges.append((left, right))
            rows.append((r, left, right, left + right, n))

    if not rows:
        return pa.table({"merge_rank": pa.array([], pa.int64()),
                         "left": pa.array([], pa.string()),
                         "right": pa.array([], pa.string()),
                         "merged": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    rk, ls, rs, mg, ns = zip(*rows)
    return pa.table({"merge_rank": pa.array(rk, pa.int64()),
                     "left": pa.array(ls, pa.string()),
                     "right": pa.array(rs, pa.string()),
                     "merged": pa.array(mg, pa.string()),
                     "n": pa.array(ns, pa.int64())})


_BPE_MERGE_CACHE: dict = {}


def bpe_tokenize_documents(sf_dir: str, n_merges: int = BPE_MERGES):
    """Tokenize the corpus WITH the trained BPE vocabulary — the consumer
    half of ``bpe_train_documents``: train (or reuse) the merge table, then
    one stateless distributed pass applies it per document and emits
    (doc_id, n_bpe_tokens, n_chars_tokenized) — the pre-training length
    accounting a data pipeline feeds into packing/budgeting.

    Scale shape: the merge table is a ≤ n_merges-row broadcast (``ray.put``
    once, read per worker); segmentation memoizes per distinct WORD within
    each batch (Zipf means a block re-sees its head words constantly), so
    per-batch cost tracks distinct words, not tokens. No shuffle at all —
    the corpus pass is embarrassingly parallel. The trainer run is
    memoized per (source content fingerprint, n_merges) in-process, so a
    sweep that runs train + tokenize pays the trainer once; a deployment
    would persist the merge table as an artifact (state/reference.py
    shape). Rows-only (BPE application is not SQL-expressible); pinned by
    a per-doc pure-python reference parity test."""
    import os

    import ray

    st = os.stat(f"{sf_dir}/documents.parquet")
    src = (sf_dir, st.st_size, st.st_mtime_ns)
    key = (src, n_merges)
    merges = _BPE_MERGE_CACHE.get(key)
    if merges is None:
        merges_tbl = bpe_train_documents(sf_dir, n_merges).to_pandas()
        merges = list(zip(merges_tbl.left, merges_tbl.right))
        # one live corpus at a time (no leak), but keep its other n_merges
        # tables — alternating values on one corpus must not retrain
        for k in [k for k in _BPE_MERGE_CACHE if k[0] != src]:
            del _BPE_MERGE_CACHE[k]
        _BPE_MERGE_CACHE[key] = merges
    wrapped = {"ref": ray.put(merges)}
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def tokenize(batch: pa.Table) -> pa.Table:
        ms = ray.get(wrapped["ref"])
        memo: dict = {}

        def n_tok(w: str) -> int:
            n = memo.get(w)
            if n is None:
                n = memo[w] = len(_bpe_apply_merges(w, ms))
            return n

        ids = batch["doc_id"].to_numpy()
        counts, chars = [], []
        for s in batch["text"].to_pylist():
            # NULL text tokenizes to zero words — same fillna("") semantics
            # as the trainer's _tokens() path
            ws = [w for w in (s or "").split(" ") if w]
            counts.append(sum(n_tok(w) for w in ws))
            chars.append(sum(len(w) for w in ws))
        return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                         "n_bpe_tokens": pa.array(counts, pa.int64()),
                         "n_chars_tokenized": pa.array(chars, pa.int64())})

    return ds.map_batches(tokenize, batch_format="pyarrow",
                          zero_copy_batch=True)


def _bpe_merge_one(seq: list, left: str, right: str, merged: str) -> list:
    """One-pair greedy left-to-right merge over a symbol sequence."""
    i, out = 0, []
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


# ---------------------------------------------------------------------------
# Per-source cap (domain-cap sampling): keep at most N docs per source
# ---------------------------------------------------------------------------


def cap_per_source_documents(sf_dir: str, n: int = 10):
    """Deterministic per-source cap — the "at most N pages per domain"
    corpus-balancing op: keep the n smallest doc_ids of every source.

    Ray shape: per-block partial cap first (each block can contribute at
    most n rows per source it touches), then a ``_key_shuffle`` on the
    source — never one Ray group per source, so 10^7 web domains cost a
    bounded call count — with the same vectorized sort + groupby-head per
    bucket. Shuffle volume is ≤ n × sources × blocks rows, independent of
    corpus size. A NULL source is a partition of its own."""
    def cap(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values("doc_id", kind="mergesort")
        return d.groupby("source", sort=False, dropna=False).head(n)[
            ["doc_id", "source"]]

    return _key_shuffle(
        _read_docs(sf_dir, ["doc_id", "source"]), ["source"], cap,
        lambda t: _pa_from_pandas(cap(t.to_pandas()), preserve_index=False))


CAP_PER_SOURCE_SQL = """
SELECT doc_id, source FROM documents
QUALIFY ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id) <= 10
"""


# ---------------------------------------------------------------------------
# Repetition signal: top-bigram fraction per document (quality filtering)
# ---------------------------------------------------------------------------


def bigram_repetition_documents(sf_dir: str):
    """Fraction of a doc's word-bigrams taken by its most frequent bigram —
    the repetition quality signal (boilerplate/spam detector) from published
    corpus-filtering recipes. Stateless map_batches; per doc the bigram
    counting is one np.unique over the hashed token pairs. Docs with < 2
    tokens have no bigrams and are excluded (both engines)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def rep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        toks = _tokens(batch["text"].to_pandas())
        out_id, out_frac = [], []
        for i, ws in zip(ids, toks):
            if len(ws) < 2:
                continue
            h = hash64(np.asarray(ws, dtype=object))
            # collision-safe within a doc: pair-code over the doc's own
            # token vocabulary, not the raw 64-bit hashes
            _, codes = np.unique(h, return_inverse=True)
            pair = codes[:-1].astype(np.int64) * (codes.max() + 1) + codes[1:]
            # np.unique counts are O(P log P) in the number of bigrams;
            # bincount here would allocate O(vocab^2) and OOM on long docs
            top = int(np.unique(pair, return_counts=True)[1].max())
            tot = len(ws) - 1
            out_id.append(i)
            # same op order as the oracle's FLOOR(MAX(c)*1e6/SUM(c)+0.5)/1e6
            out_frac.append(
                np.floor(float(top) * 1e6 / float(tot) + 0.5) / 1e6)
        return pa.table({"doc_id": pa.array(np.asarray(out_id, np.int64)),
                         "top_bigram_frac": pa.array(
                             np.asarray(out_frac, np.float64))})

    return ds.map_batches(rep, batch_format="pyarrow", zero_copy_batch=True)


BIGRAM_REP_SQL = """
WITH t AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS toks
  FROM documents),
b AS (
  SELECT doc_id,
         UNNEST(list_transform(range(1, len(toks)),
                               i -> toks[i] || ' ' || toks[i+1])) AS bg
  FROM t WHERE len(toks) >= 2),
c AS (SELECT doc_id, bg, COUNT(*) AS c FROM b GROUP BY doc_id, bg)
SELECT doc_id, FLOOR(MAX(c) * 1e6 / SUM(c) + 0.5) / 1e6 AS top_bigram_frac
FROM c GROUP BY doc_id
"""


def gopher_repetition_documents(sf_dir: str):
    """The rest of the published repetition-filter bundle (Gopher rules;
    bigram_repetition_documents covers n=2): per doc the duplicate-word
    fraction (fraction of tokens whose word occurs ≥2 times in the doc)
    and the top-3-gram / top-4-gram fractions (count of the most frequent
    n-gram over the doc's n-gram positions). Stateless map_batches — per
    doc one np.unique over hashed tokens plus two rolling pair-code
    uniques; docs with < 4 tokens have no 4-grams and are excluded (both
    engines). Collision-safe within a doc: n-grams are coded over the
    doc's own token vocabulary, never raw 64-bit hashes."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def rep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        toks = _tokens(batch["text"].to_pandas())
        out = {"doc_id": [], "dup_word_frac": [], "top_trigram_frac": [],
               "top_quadgram_frac": []}

        def top_frac(codes: np.ndarray, v: int, n: int) -> float:
            # positional n-gram code over the doc vocab; v^n bounded by the
            # per-doc token count so the int64 product can't overflow here
            code = codes[: codes.size - n + 1].astype(np.int64)
            for j in range(1, n):
                code = code * v + codes[j: codes.size - n + 1 + j]
            top = int(np.unique(code, return_counts=True)[1].max())
            tot = codes.size - n + 1
            return np.floor(float(top) * 1e6 / float(tot) + 0.5) / 1e6

        for i, ws in zip(ids, toks):
            if len(ws) < 4:
                continue
            h = hash64(np.asarray(ws, dtype=object))
            vocab, codes = np.unique(h, return_inverse=True)
            counts = np.bincount(codes)
            dup = int(counts[counts >= 2].sum())
            v = int(vocab.size)
            if v ** 4 >= 2 ** 62:  # ~1.5M distinct tokens in ONE doc
                raise ValueError("gopher_repetition: doc vocabulary too "
                                 "large for the positional n-gram code")
            out["doc_id"].append(i)
            out["dup_word_frac"].append(
                np.floor(float(dup) * 1e6 / float(len(ws)) + 0.5) / 1e6)
            out["top_trigram_frac"].append(top_frac(codes, v, 3))
            out["top_quadgram_frac"].append(top_frac(codes, v, 4))
        return pa.table({
            "doc_id": pa.array(np.asarray(out["doc_id"], np.int64)),
            "dup_word_frac": pa.array(
                np.asarray(out["dup_word_frac"], np.float64)),
            "top_trigram_frac": pa.array(
                np.asarray(out["top_trigram_frac"], np.float64)),
            "top_quadgram_frac": pa.array(
                np.asarray(out["top_quadgram_frac"], np.float64)),
        })

    return ds.map_batches(rep, batch_format="pyarrow", zero_copy_batch=True)


GOPHER_REP_SQL = """
WITH t AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS toks
  FROM documents),
e AS (SELECT doc_id, len(toks) AS nt FROM t WHERE len(toks) >= 4),
w AS (
  SELECT doc_id, UNNEST(toks) AS tok FROM t WHERE len(toks) >= 4),
wc AS (SELECT doc_id, tok, COUNT(*) AS c FROM w GROUP BY 1, 2),
dup AS (
  SELECT doc_id, SUM(CASE WHEN c >= 2 THEN c ELSE 0 END) AS d, SUM(c) AS n
  FROM wc GROUP BY 1),
g3 AS (
  SELECT doc_id, UNNEST(list_transform(range(1, len(toks) - 1),
      i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS ng
  FROM t WHERE len(toks) >= 4),
c3 AS (SELECT doc_id, ng, COUNT(*) AS c FROM g3 GROUP BY 1, 2),
t3 AS (SELECT doc_id, MAX(c) AS top, SUM(c) AS tot FROM c3 GROUP BY 1),
g4 AS (
  SELECT doc_id, UNNEST(list_transform(range(1, len(toks) - 2),
      i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] || ' ' || toks[i+3]))
      AS ng
  FROM t WHERE len(toks) >= 4),
c4 AS (SELECT doc_id, ng, COUNT(*) AS c FROM g4 GROUP BY 1, 2),
t4 AS (SELECT doc_id, MAX(c) AS top, SUM(c) AS tot FROM c4 GROUP BY 1)
SELECT e.doc_id,
  FLOOR(dup.d * 1e6 / dup.n + 0.5) / 1e6 AS dup_word_frac,
  FLOOR(t3.top * 1e6 / t3.tot + 0.5) / 1e6 AS top_trigram_frac,
  FLOOR(t4.top * 1e6 / t4.tot + 0.5) / 1e6 AS top_quadgram_frac
FROM e JOIN dup USING (doc_id) JOIN t3 USING (doc_id) JOIN t4 USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Duplicate n-gram spans (exact passage-level dedup signal)
# ---------------------------------------------------------------------------


def duplicate_ngram_spans(sf_dir: str, n: int = 8):
    """Per-doc count of n-token shingle positions whose shingle occurs ≥2
    times corpus-wide — the exact duplicated-passage signal of
    substring-level training-data dedup (Lee et al. 2022's "train on unique
    substrings" preprocessing, reduced to span counting).

    Ray shape: (1) per-block `_shingle_hashes` + per-(shingle, doc) partial
    counts, a ``_key_shuffle`` on the shingle so every occurrence of one
    shingle lands in one bucket; (2) per-bucket vectorized total-count
    filter (total ≥ 2) emits (doc_id, span-count) partials; (3) a second
    shuffle on doc_id sums per doc. Shuffle volume is unique-(shingle, doc)
    pairs — text itself never shuffles; 64-bit shingle hashing stands in for the
    strings (collision odds ~n²/2^64, the same contract MinHash/
    decontaminate use)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        h, doc_idx = _shingle_hashes(df.text, n)
        docs = df.doc_id.to_numpy()[doc_idx]
        g = pd.DataFrame({"h": h.astype(np.int64), "doc_id": docs}).groupby(
            ["h", "doc_id"], sort=False).size().rename("c").reset_index()
        return _pa_from_pandas(g, preserve_index=False)

    def bucket_dups(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("h", sort=False).c.transform("sum")
        d = df[tot >= 2]
        return d.groupby("doc_id", sort=False).c.sum().rename(
            "n_dup_spans").reset_index()

    def doc_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False).n_dup_spans.sum().reset_index()
        g["n_dup_spans"] = g.n_dup_spans.astype(np.int64)
        return g

    return _key_shuffle(_key_shuffle(ds, ["h"], bucket_dups, partial),
                        ["doc_id"], doc_sum)


DUP_NGRAM_SQL = """
WITH tok AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents),
sh AS (
  SELECT doc_id, array_to_string(w[s : s + 7], ' ') AS sh
  FROM tok, LATERAL UNNEST(generate_series(1, GREATEST(len(w) - 7, 0))) AS g(s)),
tot AS (SELECT sh, COUNT(*) AS c FROM sh GROUP BY sh)
SELECT s.doc_id, COUNT(*)::BIGINT AS n_dup_spans
FROM sh s JOIN tot t ON s.sh = t.sh
WHERE t.c >= 2
GROUP BY s.doc_id
"""


# ---------------------------------------------------------------------------
# Unigram-LM log-probability scoring — the perplexity-proxy quality filter
# (corpus-filtering recipes score documents with a cheap LM; the unigram
# variant is exactly computable and SQL-oracleable). Same dual-path gates as
# TF-IDF: bounded vocabularies broadcast the fitted LM; open vocabularies
# route to a two-shuffle bucketed join.
# ---------------------------------------------------------------------------


def unigram_logprob_documents(sf_dir: str):
    """Mean unigram log-probability per document: fit p(w) = count(w) / T on
    the corpus itself, score each doc as AVG(ln p(w)) over its tokens.

    Fast path (bounded vocab): per-block (token, count) partials merge on the
    driver and the (vocab, ln p) arrays broadcast once via ``ray.put``; the
    scoring pass is one searchsorted + segment mean per batch. Gates checked
    BEFORE anything large is collected (the TF-IDF convention); failing
    either routes to ``_unigram_two_shuffle``."""
    import ray

    def cnt_partial(batch: pa.Table) -> pa.Table:
        ex = _explode_tokens(batch, distinct=False)
        g = ex.groupby("token", sort=False).size().reset_index(name="n")
        return pa.table({"token": pa.array(g["token"].to_numpy(dtype=object),
                                           type=pa.string()),
                         "n": pa.array(g["n"].to_numpy().astype(np.int64))})

    parts_ds = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        cnt_partial, batch_format="pyarrow", zero_copy_batch=True).materialize()
    if parts_ds.count() > PARTIALS_COLLECT_MAX:
        return _unigram_two_shuffle(sf_dir)
    partials = parts_ds.to_pandas()
    cnt = partials.groupby("token", sort=True)["n"].sum()
    if len(cnt) > VOCAB_BROADCAST_MAX:
        return _unigram_two_shuffle(sf_dir)
    total = float(cnt.sum())
    vocab = cnt.index.to_numpy(dtype=object)  # sorted => searchsorted below
    lp = np.log(cnt.to_numpy().astype(np.float64) / total)
    wrapped = {"ref": ray.put((vocab, lp))}

    def score_batch(batch: pa.Table) -> pa.Table:
        voc, lp_arr = ray.get(wrapped["ref"])
        ex = _explode_tokens(batch, distinct=False)
        pos = np.searchsorted(voc, ex["token"].to_numpy(dtype=object))
        ex = ex.assign(lp=lp_arr[pos])
        g = ex.groupby("doc_id", sort=False).lp.mean()
        return pa.table({
            "doc_id": pa.array(g.index.to_numpy().astype(np.int64)),
            "mean_logprob": pa.array(_round(g.to_numpy(), 6))})

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        score_batch, batch_format="pyarrow", zero_copy_batch=True)


def _unigram_two_shuffle(sf_dir: str):
    """Open-vocabulary path: (1) token counts and (2) each exploded (doc,
    token) row's ln p in ONE ``_key_shuffle`` on the token, pre-summing per
    doc inside the bucket; (3) per-doc mean via a second shuffle on doc_id.
    Nothing vocabulary- or corpus-sized is broadcast or collected."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def tag_exploded(batch: pa.Table) -> pa.Table:
        ex = _explode_tokens(batch, distinct=False)
        g = (ex.groupby(["doc_id", "token"], sort=False).size()
             .reset_index(name="n"))  # per-block combiner
        return pa.table({
            "token": pa.array(g["token"].to_numpy(dtype=object), type=pa.string()),
            "doc_id": pa.array(g["doc_id"].to_numpy().astype(np.int64)),
            "n": pa.array(g["n"].to_numpy().astype(np.int64))})

    exploded = ds.map_batches(tag_exploded, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    # corpus token total from the already-materialized partials — no extra
    # tokenization pass over the text
    total = float(exploded.sum("n"))

    def merge_lp(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby("token", sort=False).n.sum()
        lp = np.log(cnt.to_numpy().astype(np.float64) / total)
        lp_map = pd.Series(lp, index=cnt.index)
        s = df.assign(lp=df.token.map(lp_map) * df.n)
        g = s.groupby("doc_id", sort=False).agg(s=("lp", "sum"),
                                                n=("n", "sum"))
        return pd.DataFrame({"doc_id": g.index.to_numpy().astype(np.int64),
                             "s": g.s.to_numpy(), "n": g.n.to_numpy()})

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False).agg(s=("s", "sum"),
                                                 n=("n", "sum"))
        return pd.DataFrame({
            "doc_id": g.index.to_numpy().astype(np.int64),
            "mean_logprob": _round(g.s.to_numpy() / g.n.to_numpy(), 6)})

    # token counts are computable inside each token-bucket (a token never
    # spans buckets), so count + attach collapse into ONE bucket pass
    return _key_shuffle(_key_shuffle(exploded, ["token"], merge_lp),
                        ["doc_id"], final)


UNIGRAM_LOGPROB_SQL = """
WITH tok AS (
  SELECT doc_id,
    unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS token
  FROM documents),
c AS (SELECT token, COUNT(*)::DOUBLE AS c FROM tok GROUP BY token),
t AS (SELECT SUM(c) AS t FROM c)
SELECT doc_id,
       FLOOR(AVG(ln(c.c / t.t)) * 1e6 + 0.5) / 1e6 AS mean_logprob
FROM tok JOIN c USING (token), t
GROUP BY doc_id
"""
