"""Round-5 pins: r4 ADVICE regressions + evidence gates for the round's
new operators.

ADVICE pins force the exact named condition (nullable labels, 3-pipeline
cache interleaving) rather than re-running the happy path. The rest are
the named ROWS_ONLY_EVIDENCE gates for the round-5 ops (BPE trainer /
tokenizer, PQ / IVF×PQ / PQ-rerank ANN) plus property tests for the two
structural arguments the round leaned on: the (brand, length-band)
exactly-once pairing and BPE incremental ≡ from-scratch merge
application.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _null_label_fixture(tmp_path):
    """embeddings.parquet whose label column is nullable: one null-label
    QUERY row (vec_id 3) and several null-label CORPUS rows."""
    rng = np.random.default_rng(7)
    n = 64
    emb = rng.normal(size=(n, 8)).astype(np.float32)
    labels = (np.arange(n) % 3).astype("int32").astype(object)
    labels[3] = None            # a query row with NULL label
    labels[20] = None           # corpus rows with NULL label
    labels[21] = None
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in emb],
                              pa.list_(pa.float32())),
        "label": pa.array(list(labels), pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    return str(tmp_path)


def test_ann_topk_filtered_null_labels_match_sql_semantics(ray_session,
                                                           tmp_path):
    """SQL `n.label = q.label` silently excludes NULL on either side; the
    Ray path must do the same instead of raising (or garbage-casting) on
    the int64 conversion."""
    import duckdb

    from serverless_covariate_drift_detection_ray.pipelines.ann import (
        ANN_TOPK_FILTERED_SQL, ann_topk_filtered)

    sf = _null_label_fixture(tmp_path)
    out = ann_topk_filtered(sf)
    df = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
    odf = con.execute(ANN_TOPK_FILTERED_SQL).fetchdf()
    canon = lambda d: d.sort_values(list(sorted(d.columns)))[
        sorted(d.columns)].reset_index(drop=True)
    pd.testing.assert_frame_equal(canon(df), canon(odf), check_dtype=False)
    # the null-label query and null-label corpus rows are gone entirely
    assert 3 not in set(df.query_id)
    assert not ({20, 21} & set(df.neighbor_id))


def test_featurize_worker_cache_is_lru(ray_session):
    """Three interleaved configs over the 2-entry bound: a cache HIT must
    refresh recency, so with pipelines A and B live and a stale C arriving,
    C evicts the least-recently-USED entry (B after an A-hit), and A's
    loaded state object survives — load-once-per-worker holds for the two
    live pipelines (the r4 insertion-order eviction thrashed them)."""
    from serverless_covariate_drift_detection_ray.pipelines.config import (
        EngineConfig)
    from serverless_covariate_drift_detection_ray.stages import featurize as fz

    saved = dict(fz._WORKER_CACHE)
    fz._WORKER_CACHE.clear()
    try:
        empty = fz.OUT_SCHEMA.empty_table()  # 0 rows short-circuits __call__
        cfg_a, cfg_b, cfg_c = (EngineConfig(seed=s) for s in (101, 102, 103))
        fz.featurize_task(empty, cfg_a)
        fz.featurize_task(empty, cfg_b)
        a0 = next(iter(fz._WORKER_CACHE.values()))  # A is oldest by insertion
        fz.featurize_task(empty, cfg_a)             # HIT — refreshes A
        fz.featurize_task(empty, cfg_c)             # evicts LRU = B, not A
        assert len(fz._WORKER_CACHE) == 2
        fz.featurize_task(empty, cfg_a)
        assert a0 in fz._WORKER_CACHE.values()      # A's state never reloaded
    finally:
        fz._WORKER_CACHE.clear()
        fz._WORKER_CACHE.update(saved)


def test_fuzzy_banding_bounds_hot_brand_groups(ray_session, tmp_path):
    """A synthetically HOT brand (every part the same brand) must split
    across (brand, length-band) blocks — no block sees the whole brand —
    and the banded pipeline must still emit exactly the naive quadratic
    answer (cross-band boundary pairs included)."""
    import duckdb

    from serverless_covariate_drift_detection_ray.pipelines.queries import (
        FUZZY_SQL, LEN_BAND_W, _len_band_explode, fuzzy_match_parts)

    rng = np.random.default_rng(11)
    n = 1200
    # clustered name lengths so bands are populated AND boundary-adjacent
    base = "abcdefghijklmnopqrstuvwxyz"
    names = []
    for i in range(n):
        L = int(rng.integers(12, 44))
        s = "".join(rng.choice(list(base), size=L))
        names.append(s)
    # seed true near-matches: 60 pairs at distance 1-2, some crossing a
    # band boundary (length change of 1 flips the band when len % W == 0)
    for i in range(60):
        src = names[i]
        mut = src + "x" if i % 2 else src[:-1] + "zz"
        names[600 + i] = mut
    t = pa.table({
        "p_partkey": pa.array(np.arange(n, dtype=np.int64)),
        "p_name": pa.array(names),
        "p_brand": pa.array(["Brand#99"] * n),
    })
    pq.write_table(t, str(tmp_path / "part.parquet"))

    # (1) block-size bound: the hot brand's rows spread over its length
    # bands; with lengths in [12,44) and W=8 there are >=4 bands, so no
    # block may hold the whole brand (native + borrowed <= band + W/4 of
    # the neighbour band, far under n)
    ex = _len_band_explode(t, max_dist=2, w=LEN_BAND_W).to_pandas()
    blk_sizes = ex.groupby("blk").size()
    assert len(blk_sizes) >= 4
    assert blk_sizes.max() < 0.55 * n, blk_sizes.sort_values().tail()

    # (2) exactness incl. boundary pairs vs the naive quadratic oracle
    out = fuzzy_match_parts(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW part AS SELECT * FROM '{tmp_path}/part.parquet'")
    odf = con.execute(FUZZY_SQL).fetchdf()
    assert len(odf) >= 50  # the seeded mutations actually produced pairs
    canon = lambda d: d.sort_values(list(sorted(d.columns)))[
        sorted(d.columns)].reset_index(drop=True)
    pd.testing.assert_frame_equal(canon(out), canon(odf), check_dtype=False)
    # at least one emitted pair crosses a band boundary (the case brand-
    # only blocking got for free and banding must borrow for)
    lens_a = odf.name_a.str.len().to_numpy()
    lens_b = odf.name_b.str.len().to_numpy()
    assert ((lens_a // LEN_BAND_W) != (lens_b // LEN_BAND_W)).any()


def test_scratch_root_relocates_staged_caches(ray_session, tmp_path,
                                              monkeypatch):
    """SCDD_SCRATCH_ROOT must redirect every staged cache / roundtrip sink:
    run one cached op (csv roundtrip) and the persistent IVF index with the
    root pointed at a fresh dir and assert (a) results still oracle-exact,
    (b) the published cache landed under the relocated root, (c) nothing
    new appeared under the default /tmp prefix for this fixture tag."""
    import os

    import duckdb

    from serverless_covariate_drift_detection_ray.pipelines.ann import (
        ann_ivf_persistent)
    from serverless_covariate_drift_detection_ray.pipelines.config import (
        scratch_root)
    from serverless_covariate_drift_detection_ray.pipelines.queries import (
        CSV_ROUNDTRIP_SQL, csv_roundtrip_orders)

    root = str(tmp_path / "shared")
    monkeypatch.setenv("SCDD_SCRATCH_ROOT", root)
    assert scratch_root() == root
    tag = os.path.basename(os.path.normpath(SF))

    def tmp_dirs():
        return {p: set(os.listdir(p)) if os.path.isdir(p) else set()
                for p in (f"/tmp/scdd_csv/{tag}", f"/tmp/scdd_ivf/{tag}")}

    before = tmp_dirs()
    out = csv_roundtrip_orders(SF)
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM '{SF}/orders.parquet'")
    odf = con.execute(CSV_ROUNDTRIP_SQL).fetchdf()
    canon = lambda d: d.sort_values(list(sorted(d.columns)))[
        sorted(d.columns)].reset_index(drop=True)
    pd.testing.assert_frame_equal(canon(df), canon(odf), check_dtype=False)
    pub = f"{root}/scdd_csv/{tag}"
    assert os.path.isdir(pub) and any(
        os.path.exists(os.path.join(pub, d, "_SUCCESS"))
        for d in os.listdir(pub))

    ivf = ann_ivf_persistent(SF)
    assert len(_to_pd(ivf)) > 0
    assert os.path.isdir(f"{root}/scdd_ivf/{tag}")
    # (c) nothing leaked to the DEFAULT /tmp prefix for this fixture tag:
    # a half-relocation (relocated publish + node-local sibling write or
    # /tmp-first read) would show up as new entries here
    assert tmp_dirs() == before


def _to_pd(res):
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


def test_bpe_trainer_matches_reference_and_paths(ray_session):
    """Full BPE trainer vs an INDEPENDENT pure-python reference (own word
    counting, own merge loop) — merge table must match rank-for-rank with
    counts — and the gate-forced distributed path must be bit-identical to
    the driver fold (integer counts + lexicographic tie-break make the
    argmax parallelism-invariant)."""
    from collections import Counter

    from serverless_covariate_drift_detection_ray.pipelines import (
        textops as tx)

    mt = tx.bpe_train_documents(SF).to_pandas()
    assert len(mt) == tx.BPE_MERGES  # corpus is rich enough to fill budget

    txts = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"])["text"].to_pylist()
    wc = Counter(w for t in txts for w in t.split(" ") if w)
    seqs = {w: list(w) for w in wc}
    ref = []
    for r in range(tx.BPE_MERGES):
        pc = Counter()
        for w, c in wc.items():
            s = seqs[w]
            for a, b in zip(s, s[1:]):
                pc[(a, b)] += c
        if not pc:
            break
        (l, rr), n = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        if n < 2:
            break
        ref.append((r, l, rr, l + rr, n))
        for w in wc:
            s = seqs[w]
            i, out = 0, []
            while i < len(s):
                if i + 1 < len(s) and s[i] == l and s[i + 1] == rr:
                    out.append(l + rr)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            seqs[w] = out
    rdf = pd.DataFrame(ref, columns=["merge_rank", "left", "right",
                                     "merged", "n"])
    pd.testing.assert_frame_equal(mt, rdf, check_dtype=False)

    old = tx.BPE_DRIVER_MAX_TYPES
    try:
        tx.BPE_DRIVER_MAX_TYPES = 0  # force the distributed round loop
        mt2 = tx.bpe_train_documents(SF).to_pandas()
    finally:
        tx.BPE_DRIVER_MAX_TYPES = old
    pd.testing.assert_frame_equal(mt, mt2)

    # the learned table actually tokenizes: segmenting any corpus word with
    # it yields symbols whose concat restores the word
    some = [w for w in list(wc)[:50]]
    for w in some:
        seg = tx._bpe_apply_merges(w, list(zip(mt.left, mt.right)))
        assert "".join(seg) == w


def test_bpe_tokenize_matches_reference(ray_session):
    """The distributed BPE tokenizer must agree doc-for-doc with a direct
    pure-python segmentation using the SAME trained merge table, and the
    char accounting must equal the whitespace-stripped document length."""
    from serverless_covariate_drift_detection_ray.pipelines import (
        textops as tx)

    out = tx.bpe_tokenize_documents(SF).to_pandas().set_index("doc_id")
    mt = tx.bpe_train_documents(SF).to_pandas()
    merges = list(zip(mt.left, mt.right))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    assert len(out) == len(docs)
    for _, r in docs.sample(80, random_state=5).iterrows():
        ws = [w for w in r.text.split(" ") if w]
        n_ref = sum(len(tx._bpe_apply_merges(w, merges)) for w in ws)
        assert out.loc[r.doc_id, "n_bpe_tokens"] == n_ref
        assert out.loc[r.doc_id, "n_chars_tokenized"] == sum(map(len, ws))
    # merging strictly compresses: token count <= char count, >= word count
    assert (out.n_bpe_tokens <= out.n_chars_tokenized).all()


def test_ann_pq_recall_and_determinism(ray_session):
    """PQ/ADC scan: (a) codes really are M uint8 per vector (the 32×
    compression claim), (b) recall@10 vs the exact oracled baseline clears
    the documented floor (measured 0.73 at sf0.001/0.01), (c) the ranking
    is deterministic run-to-run — sound because _read_blocked pins block
    counts, so both runs encode under identical batch shapes (an argmin
    tie could only flip across DIFFERENT matmul shapes), (d) only corpus
    rows are returned."""
    from serverless_covariate_drift_detection_ray.pipelines.ann import (
        PQ_M, _normalize_rows, _pq_encode, _pq_train_codebooks, _to_matrix,
        ann_pq_recall, ann_pq_topk)

    r = ann_pq_recall(SF).to_pandas()
    assert (r.k == 10).all()
    assert r.n_overlap.sum() / r.k.sum() >= 0.5

    a = ann_pq_topk(SF).to_pandas().reset_index(drop=True)
    b = ann_pq_topk(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert (a.neighbor_id >= 10).all()

    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    x = _normalize_rows(_to_matrix(emb["embedding"]))[:64]
    codes = _pq_encode(x, _pq_train_codebooks(SF))
    assert codes.shape == (64, PQ_M) and codes.dtype == np.uint8


def test_ann_ivfpq_recall_and_determinism(ray_session):
    """IVF×PQ composition: deterministic, corpus-only neighbors, and
    recall@10 vs the exact baseline above the floor implied by its two
    parts (IVF probe recall ~0.6 × PQ fidelity ~0.73; measured 0.50-0.56
    at sf0.001/0.01 — floor 0.35 leaves noise margin). Every returned
    neighbor must lie in a cell its query probed (the pruning contract)."""
    from serverless_covariate_drift_detection_ray.pipelines.ann import (
        IVF_N_CELLS, IVF_NPROBE, _ivf_train_centroids, _normalize_rows,
        _query_matrix, _to_matrix, ann_ivfpq_topk, ann_topk_cosine)

    a = ann_ivfpq_topk(SF).to_pandas().reset_index(drop=True)
    b = ann_ivfpq_topk(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert (a.neighbor_id >= 10).all()
    ex = ann_topk_cosine(SF).to_pandas()
    ep = set(zip(ex.query_id, ex.neighbor_id))
    ap = set(zip(a.query_id, a.neighbor_id))
    assert len(ep & ap) / len(ep) >= 0.35

    # pruning contract: neighbor's cell ∈ its query's probed set
    cents = _ivf_train_centroids(SF, IVF_N_CELLS)
    q_ids, qm = _query_matrix(SF)
    qsim = qm @ cents.T
    probes = {int(q): set(np.argpartition(-qsim[i], IVF_NPROBE - 1)
                          [:IVF_NPROBE]) for i, q in enumerate(q_ids)}
    emb = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    x = _normalize_rows(_to_matrix(emb["embedding"]))
    sims = x @ cents.T
    row_of = {int(v): i for i, v in enumerate(emb["vec_id"].to_numpy())}
    for _, r in a.iterrows():
        # the pipeline's argmax ran on per-Ray-batch matmul shapes; a
        # near-tied centroid pair can flip under a different BLAS blocking,
        # so accept any probed cell within float tolerance of the row's max
        s = sims[row_of[int(r.neighbor_id)]]
        assert any(s[c] >= s.max() - 1e-9 for c in probes[r.query_id])


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abc", min_size=0, max_size=24),
       st.lists(st.tuples(st.sampled_from(["a", "b", "c", "ab", "bc", "ca",
                                           "aa", "bb", "abc"]),
                          st.sampled_from(["a", "b", "c", "ab", "bc", "ca",
                                           "aa", "bb", "abc"])),
                min_size=0, max_size=6))
def test_bpe_incremental_equals_from_scratch(word, merges):
    """The driver path updates sequences INCREMENTALLY (one _bpe_merge_one
    per new merge) while the distributed path re-derives them FROM SCRATCH
    (_bpe_apply_merges over the whole table each round); their equivalence
    — greedy left-to-right application in rank order commutes with
    incremental state — is what makes the forced-path parity structural
    rather than coincidental. Property-check it over adversarial
    overlapping merge tables (aa on aaa, chained ab+abc, etc.)."""
    from serverless_covariate_drift_detection_ray.pipelines.textops import (
        _bpe_apply_merges, _bpe_merge_one)

    scratch = _bpe_apply_merges(word, merges)
    seq = list(word)
    for left, right in merges:
        seq = _bpe_merge_one(seq, left, right, left + right)
    assert seq == scratch
    assert "".join(seq) == word  # segmentation always reconstructs


def test_ann_pq_rerank_recall_and_exactness(ray_session):
    """Two-stage PQ→exact rerank: recall@10 ≥ 0.9 vs the exact baseline
    (measured 0.99-1.0 at c=50), deterministic, corpus-only — and every
    returned score must be the EXACT 1e-6-rounded cosine (full-vector
    math), so wherever a returned pair also appears in the exact top-k the
    scores agree bit-for-bit."""
    from serverless_covariate_drift_detection_ray.pipelines.ann import (
        ann_pq_rerank_topk, ann_topk_cosine)

    a = ann_pq_rerank_topk(SF).to_pandas().reset_index(drop=True)
    b = ann_pq_rerank_topk(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert (a.neighbor_id >= 10).all()
    ex = ann_topk_cosine(SF).to_pandas()
    ep = set(zip(ex.query_id, ex.neighbor_id))
    ap = set(zip(a.query_id, a.neighbor_id))
    assert len(ep & ap) / len(ep) >= 0.9
    exact_cos = {(r.query_id, r.neighbor_id): r.cos
                 for r in ex.itertuples()}
    for r in a.itertuples():
        if (r.query_id, r.neighbor_id) in exact_cos:
            assert r.cos == exact_cos[(r.query_id, r.neighbor_id)]


def test_bpe_tokenize_tolerates_null_text(ray_session, tmp_path):
    """A NULL text row must tokenize to zero tokens (the trainer's
    fillna('') semantics), not crash the consume half of the feature."""
    from serverless_covariate_drift_detection_ray.pipelines import (
        textops as tx)

    t = pa.table({
        "doc_id": pa.array(np.arange(6, dtype=np.int64)),
        "text": pa.array(["the cat sat", None, "the cat ran",
                          "a dog sat there", "", "the the the"]),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = tx.bpe_tokenize_documents(str(tmp_path)).to_pandas() \
        .set_index("doc_id")
    assert len(out) == 6
    assert out.loc[1, "n_bpe_tokens"] == 0
    assert out.loc[4, "n_bpe_tokens"] == 0
    assert out.loc[0, "n_bpe_tokens"] >= 3  # real docs still tokenize


def test_trained_artifact_cache_invalidates_on_source_change(ray_session,
                                                             tmp_path):
    """The PQ/IVF artifact memo must serve the SAME object for the same
    corpus (one trainer pass per sweep) and retrain when the source file
    changes (size/mtime fingerprint) — a stale codebook against a
    regenerated corpus would silently return wrong neighbors."""
    import os as _os
    import shutil

    from serverless_covariate_drift_detection_ray.pipelines.ann import (
        _pq_train_codebooks)

    src = f"{SF}/embeddings.parquet"
    dst = str(tmp_path / "embeddings.parquet")
    shutil.copy(src, dst)
    b1 = _pq_train_codebooks(str(tmp_path))
    assert _pq_train_codebooks(str(tmp_path)) is b1  # memo hit
    # bump mtime EXPLICITLY (same-size copy + sleep would flake on
    # coarse-granularity filesystems)
    st = _os.stat(dst)
    _os.utime(dst, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    b2 = _pq_train_codebooks(str(tmp_path))
    assert b2 is not b1  # fingerprint change retrains
    assert all((x == y).all() for x, y in zip(b1, b2))  # same data → same art


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=2,
                max_size=60))
def test_len_band_explode_pairs_exactly_once(lengths):
    """Fuzz the exactly-once argument behind the banded Levenshtein
    blocking: for ANY length multiset, every same-brand pair with
    |len diff| <= max_dist appears in EXACTLY ONE block under the
    native×native + native×borrowed pairing rule — no missed boundary
    pairs, no double counting (the two failure modes of composite
    blocking)."""
    from collections import Counter

    from serverless_covariate_drift_detection_ray.pipelines.queries import (
        LEN_BAND_W, _len_band_explode)

    max_dist = 2
    names = ["x" * L for L in lengths]
    t = pa.table({
        "p_partkey": pa.array(np.arange(len(names), dtype=np.int64)),
        "p_name": pa.array(names),
        "p_brand": pa.array(["B"] * len(names)),
    })
    ex = _len_band_explode(t, max_dist=max_dist, w=LEN_BAND_W).to_pandas()
    seen = Counter()
    for _, g in ex.groupby("blk"):
        keys = g.p_partkey.to_numpy()
        lens = g._len.to_numpy()
        nat = g._native.to_numpy()
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                if abs(lens[i] - lens[j]) <= max_dist and (nat[i] or nat[j]):
                    seen[tuple(sorted((keys[i], keys[j])))] += 1
    want = {tuple(sorted((a, b)))
            for a in range(len(lengths)) for b in range(a + 1, len(lengths))
            if abs(lengths[a] - lengths[b]) <= max_dist}
    assert set(seen) == want
    assert all(v == 1 for v in seen.values()), seen.most_common(3)


def test_bpe_cache_keeps_sibling_merge_counts(ray_session, tmp_path,
                                              monkeypatch):
    """Alternating n_merges on ONE corpus trains once per value: a miss
    evicts only other corpora's merge tables, never the same corpus's
    other n_merges entries. A second corpus still evicts the first."""
    from serverless_covariate_drift_detection_ray.pipelines import (
        textops as tx)

    t = pa.table({
        "doc_id": pa.array(np.arange(4, dtype=np.int64)),
        "text": pa.array(["the cat sat", "the cat ran", "a dog sat there",
                          "the the the"]),
    })
    corpus = tmp_path / "a"
    corpus.mkdir()
    pq.write_table(t, str(corpus / "documents.parquet"))
    trained = []
    train = tx.bpe_train_documents

    def counting_train(sf_dir, n_merges):
        trained.append((sf_dir, n_merges))
        return train(sf_dir, n_merges)

    monkeypatch.setattr(tx, "_BPE_MERGE_CACHE", {})
    monkeypatch.setattr(tx, "bpe_train_documents", counting_train)
    outs = {}
    for n in (2, 4, 2, 4, 2):
        outs.setdefault(n, []).append(
            tx.bpe_tokenize_documents(str(corpus), n).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    assert trained == [(str(corpus), 2), (str(corpus), 4)]
    for frames in outs.values():  # cached tables tokenize identically
        for f in frames[1:]:
            pd.testing.assert_frame_equal(frames[0], f)

    other = tmp_path / "b"
    other.mkdir()
    pq.write_table(t.slice(0, 2), str(other / "documents.parquet"))
    tx.bpe_tokenize_documents(str(other), 2)
    assert {k[1] for k in tx._BPE_MERGE_CACHE} == {2}
    assert {k[0][0] for k in tx._BPE_MERGE_CACHE} == {str(other)}


def test_ann_pq_rerank_degenerate_corpus_returns_empty(ray_session, tmp_path):
    """A corpus with no rows beyond the query prefix has no candidates:
    the rerank returns the empty (query_id, neighbor_id, cos) table the
    other ANN ops return, not an opaque stack/attribute error."""
    from serverless_covariate_drift_detection_ray.pipelines.ann import (
        N_QUERIES, ann_pq_rerank_topk)

    emb = pq.read_table(f"{SF}/embeddings.parquet").slice(0, N_QUERIES)
    pq.write_table(emb, str(tmp_path / "embeddings.parquet"))
    out = ann_pq_rerank_topk(str(tmp_path))
    assert out.num_rows == 0
    assert out.schema == pa.schema([("query_id", pa.int64()),
                                    ("neighbor_id", pa.int64()),
                                    ("cos", pa.float64())])


def test_partition_roundtrip_cache_keys_on_mtime_ns(ray_session, tmp_path,
                                                    monkeypatch):
    """The staged events-by-type sink is keyed on (size, mtime_ns): a
    same-size rewrite of events.parquet within the same whole second must
    not serve the previous file's partitions. Uncompressed, dictionary-free
    parquet keeps the size fixed when one purchase value changes."""
    import os

    import duckdb

    from serverless_covariate_drift_detection_ray.pipelines.queries import (
        PARTITION_ROUNDTRIP_SQL, partition_roundtrip_events)

    monkeypatch.setenv("SCDD_SCRATCH_ROOT", str(tmp_path))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "data", "sf0.01", "events.parquet")
    sf = tmp_path / "events_copy"
    sf.mkdir()
    dst = str(sf / "events.parquet")
    events = pq.read_table(src)
    second_ns = (os.stat(src).st_mtime_ns // 10**9) * 10**9

    def write(t, offset_ns):
        pq.write_table(t, dst, compression="none", use_dictionary=False)
        os.utime(dst, ns=(second_ns, second_ns + offset_ns))

    def check():
        got = partition_roundtrip_events(str(sf)).to_pandas()
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM '{dst}'")
        want = con.execute(PARTITION_ROUNDTRIP_SQL).fetchdf()
        assert int(got.n[0]) == int(want.n[0])
        assert float(got.sum_value[0]) == float(want.sum_value[0])
        return float(got.sum_value[0])

    write(events, 100_000_000)
    size = os.path.getsize(dst)
    before = check()

    values = events["value"].to_pylist()
    row = events["event_type"].to_pylist().index("purchase")
    values[row] += 1000.0
    write(events.set_column(events.schema.get_field_index("value"), "value",
                            pa.array(values, pa.float64())), 200_000_000)
    assert os.path.getsize(dst) == size
    assert int(os.stat(dst).st_mtime) == second_ns // 10**9
    assert check() == pytest.approx(before + 1000.0)


_ROUNDTRIP_SOURCES = {"partition_roundtrip_events": "events",
                      "jsonl_roundtrip_events": "events",
                      "csv_roundtrip_orders": "orders",
                      "orc_roundtrip_lineitem": "lineitem",
                      "ipc_roundtrip_orders": "orders"}


def _roundtrip_matches_oracle(name: str, sf_dir: str) -> None:
    """``name`` over ``sf_dir`` vs its DuckDB oracle through the driver's
    comparison (tools/compare_oracle.py)."""
    import importlib.util
    import os

    import duckdb

    import __ray_entry__ as e

    spec = importlib.util.spec_from_file_location(
        "compare_oracle", os.path.join(os.path.dirname(__file__), os.pardir,
                                       "tools", "compare_oracle.py"))
    co = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(co)

    table = _ROUNDTRIP_SOURCES[name]
    got = co.to_pandas(e.queries()[name](sf_dir))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW {table} AS SELECT * FROM "
                f"'{sf_dir}/{table}.parquet'")
    want = con.execute(e.oracle_sql()[name]).fetchdf()
    assert co.compare(name, got, want) == {
        "rows_match": True, "schema_match": True, "dtype_match": True,
        "value_match": True}


@pytest.mark.parametrize("name", list(_ROUNDTRIP_SOURCES))
def test_io_roundtrips_on_empty_table(ray_session, tmp_path, monkeypatch,
                                      name):
    """A 0-row source table (the sf0.01 schema, no rows) gets the oracle's
    answer: no groups from the four grouped roundtrips, ('purchase', 0,
    NULL) from the partitioned one. Ray's writers create no directory for
    an empty dataset, so publishing the staged sink used to fail on a
    missing ``_SUCCESS`` path, and the ORC/IPC sinks asserted a nonzero
    row count."""
    monkeypatch.setenv("SCDD_SCRATCH_ROOT", str(tmp_path))
    table = _ROUNDTRIP_SOURCES[name]
    sf = tmp_path / "sf_empty"
    sf.mkdir()
    pq.write_table(pq.read_schema(
        f"/root/testdata/sf0.01/{table}.parquet").empty_table(),
        str(sf / f"{table}.parquet"))
    _roundtrip_matches_oracle(name, str(sf))


_ROUNDTRIP_NULLED = {"partition_roundtrip_events": "value",
                     "jsonl_roundtrip_events": "event_type",
                     "csv_roundtrip_orders": "o_orderstatus",
                     "orc_roundtrip_lineitem": "l_returnflag",
                     "ipc_roundtrip_orders": "o_orderstatus"}


@pytest.mark.parametrize("name", list(_ROUNDTRIP_SOURCES))
def test_io_roundtrips_on_null_values(ray_session, tmp_path, monkeypatch,
                                      caplog, name):
    """NULLs survive the sink and the source as SQL NULL: ten NULL group
    keys form their own NULL group in the four grouped roundtrips (CSV
    included, where a NULL is an empty unquoted field), and an all-NULL
    purchase value column sums to NULL in the partitioned one, not 0.0.
    No roundtrip makes Ray log a block schema change: the ORC/IPC
    read-back used to pad its blocks with schema-less 0-row blocks."""
    import logging

    import pyarrow.compute as pc

    monkeypatch.setenv("SCDD_SCRATCH_ROOT", str(tmp_path))
    table, col = _ROUNDTRIP_SOURCES[name], _ROUNDTRIP_NULLED[name]
    t = pq.read_table(f"{SF}/{table}.parquet")
    if col == "value":
        nulled = pc.equal(t["event_type"], "purchase")
    else:
        nulled = pa.array(np.arange(t.num_rows) < 10)
    t = t.set_column(t.schema.get_field_index(col), col,
                     pc.if_else(nulled, pa.scalar(None, t[col].type), t[col]))
    sf = tmp_path / "sf_nulls"
    sf.mkdir()
    pq.write_table(t, str(sf / f"{table}.parquet"))
    # Ray Data's loggers do not propagate to the root logger caplog hooks
    executor_log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    executor_log.addHandler(caplog.handler)
    try:
        _roundtrip_matches_oracle(name, str(sf))
    finally:
        executor_log.removeHandler(caplog.handler)
    assert not [r.getMessage() for r in caplog.records
                if "different schema" in r.getMessage()]
