"""Single-pass featurize + schema-check + sketch-partial stage.

The one stage that touches the heavy ``bytes`` column. Per Arrow batch it
computes, vectorized:

  * schema/domain violations (non-null id/bytes, fmt domain, w/h > 0, caption
    non-null — the engine analogue of the reference's pydantic decode-validation
    at /root/reference/dimensionality_reduction_api/app/schemas/dr.py:15-30),
  * header-decoded dims vs the ``w``/``h`` columns (cheap header parse, no inflate),
  * sampled full decode → pixel-intensity marginal (catches brightness/contrast
    jitter drift, which phash is invariant to by design),
  * referential probe of ``image_id`` against a broadcast manifest (anti-join
    without a shuffle — SURVEY.md §2.5),
  * per-block ``PartialState`` sketch partials + a deterministic MMD embedding
    sample (smallest hash64(image_id) keys — invariant to block boundaries).

Output is a union-schema table of 'violation' and 'partial' rows — a few KB per
block — plus one 'key' row per input row, ``(partition_id, image_id, phash)``:
the constraint checks' input, so no second scan of the table reads it. The
raw bytes never enter a shuffle (SURVEY.md §7 "wide binary rows").

Row-level sampling uses hash64(image_id, seed) thresholds, never block-local
randomness, so results are identical at any parallelism level and under resume.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.codec import LOSSY_FMTS, decode_image, image_dims
from ..functions.hashing import hash64, probe_sorted
from ..functions.phash import phash64_batch, phash_gray_small, phash_hamming
from ..pipelines.config import EngineConfig
from ..state.partials import PartialState

_LEVELS = np.arange(256, dtype=np.float64)
_LEVELS_SQ = _LEVELS * _LEVELS

OUT_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),          # 'violation' | 'partial' | 'key'
        ("partition_id", pa.int32()),
        ("image_id", pa.string()),
        ("phash", pa.int64()),          # key rows only
        ("check", pa.string()),
        ("column", pa.string()),
        ("observed", pa.string()),
        ("expected", pa.string()),
        ("state", pa.binary()),
        ("n_rows", pa.int64()),
    ]
)


def _image_row(data: bytes, fmt: str, dims: bool, decode: bool,
               expect: tuple[int, int] | None, verify: bool) -> tuple:
    """One sampled row's codec work: ``(violations, moments, small)``, the
    row's ``(check, column, observed, expected)`` violations in the order
    its checks ran, its pixel ``(mean, std)`` (None when it was not decoded)
    and its ``phash_gray_small`` resize (None unless ``verify``). ``dims``
    checks the header against ``expect`` (None: not comparable); ``decode``
    decodes for the pixel marginal. Reads nothing shared, so rows may run on
    any thread."""
    violations = []
    if dims:
        try:
            dw, dh, _ = image_dims(data, fmt)
        except Exception as exc:  # struct.error / zlib.error / ValueError
            return [("decodable", "bytes", type(exc).__name__,
                     "decodable header")], None, None
        if expect is not None and (dw, dh) != expect:
            violations.append(("dims_match_decoded", "w,h", f"{dw}x{dh}",
                               f"{expect[0]}x{expect[1]}"))
    if not decode:
        return violations, None, None
    try:
        img = decode_image(data, fmt)
    except Exception as exc:
        violations.append(("decode_ok", "bytes", type(exc).__name__,
                           "decodable"))
        return violations, None, None
    if img.size == 0:  # a 0-pixel image has no intensity marginal
        violations.append(("decode_ok", "bytes", f"empty shape {img.shape}",
                           "decodable"))
        return violations, None, None
    # intensity histogram instead of a float64 image copy: s1/s2 are the
    # same exact integers either way (hist @ levels sums integer products
    # < 2^53), so mean/std are bit-identical — without the per-image
    # ascontiguousarray(float64) allocation
    hist = np.bincount(img.reshape(-1), minlength=256).astype(np.float64)
    s1 = float(hist @ _LEVELS)
    s2 = float(hist @ _LEVELS_SQ)
    m = s1 / img.size
    moments = (m, float(np.sqrt(max(s2 / img.size - m * m, 0.0))))
    return violations, moments, phash_gray_small(img) if verify else None


class FeaturizeAndSketch:
    """Callable-class stage: the broadcast manifest-id set is fetched once per
    instance (``ray.put`` → ``ray.get`` in ``__init__``), mirroring the
    reference's singleton-per-process model cache
    (/root/reference/detector_api/app/utils.py:4-14). The pipelines run it
    through the stateless ``featurize_task`` wrapper below, whose module
    cache keeps one instance per worker process and gives it no pool (a Ray
    task holds one CPU); ``score_window`` calls it in-process on the whole
    window, whatever its size, with its process-wide thread pool.

    With ``pool`` (a ``concurrent.futures.ThreadPoolExecutor``) the sampled
    rows' codec work (header dims, decode, histogram, phash resize) runs in
    one contiguous chunk of rows per pool worker; without it the same
    function runs inline. Either way one ordered loop emits the results, so
    the output is byte-identical with or without a pool."""

    def __init__(self, cfg: EngineConfig, manifest_broadcast: dict | None = None,
                 pool=None):
        self.cfg = cfg
        self.pool = pool
        self.fmt_list = list(cfg.fmt_categories)
        self.fmt_index = {f: i for i, f in enumerate(cfg.fmt_categories)}
        self.dims_thresh = np.uint64(min(cfg.sample_threshold(cfg.dims_check_fraction), 2**64 - 1))
        self.decode_thresh = np.uint64(min(cfg.sample_threshold(cfg.decode_fraction), 2**64 - 1))
        self.manifest_hashes: np.ndarray | None = None
        if manifest_broadcast is not None:
            # The ObjectRef is wrapped in a dict so Ray passes it through
            # unresolved and featurize_task can key its cache on the ref;
            # ray.get here runs once per cached instance = broadcast.
            import ray

            self.manifest_hashes = ray.get(manifest_broadcast["ref"])

    def _probe_manifest(self, id_hashes: np.ndarray) -> np.ndarray:
        """True where the id IS in the manifest. Sorted-array probe in-sandbox
        (probe_sorted handles the empty-universe case — every id is then an
        orphan); at 10^12-id scale swap in a Bloom filter (same broadcast
        shape)."""
        return probe_sorted(self.manifest_hashes, id_hashes)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows
        if n == 0:
            return OUT_SCHEMA.empty_table()

        ids = batch["image_id"].to_numpy(zero_copy_only=False)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.float64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.float64)
        w_null = pc.is_null(batch["w"]).to_numpy(zero_copy_only=False)
        h_null = pc.is_null(batch["h"]).to_numpy(zero_copy_only=False)
        fmt = batch["fmt"].to_numpy(zero_copy_only=False)
        phash_null = pc.is_null(batch["phash"]).to_numpy(zero_copy_only=False)
        # fill_null BEFORE to_numpy: one null otherwise upcasts the whole
        # column to float64, which silently drops low bits of 64-bit hashes
        # (|phash| ≥ 2^53) — the filled zeros are mask-excluded everywhere
        phash = pc.fill_null(batch["phash"], 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        part_ids = batch["partition_id"].to_numpy(zero_copy_only=False)
        captions = batch["caption"].to_numpy(zero_copy_only=False)
        caption_null = pc.is_null(batch["caption"]).to_numpy(zero_copy_only=False)
        caption_len = np.where(
            caption_null, np.nan,
            pc.utf8_length(pc.fill_null(batch["caption"], "")).to_numpy(zero_copy_only=False),
        ).astype(np.float64)
        bytes_len = pc.binary_length(pc.fill_null(batch["bytes"], b"")).to_numpy(zero_copy_only=False)
        bytes_null = pc.is_null(batch["bytes"]).to_numpy(zero_copy_only=False)
        id_null = pc.is_null(batch["image_id"]).to_numpy(zero_copy_only=False)
        id_hash = hash64(np.where(id_null, "", ids).astype(object))

        v_id: list = []
        v_part: list = []
        v_check: list = []
        v_col: list = []
        v_obs: list = []
        v_exp: list = []

        def add_mask(mask: np.ndarray, check: str, column: str, observed, expected: str):
            for i in np.nonzero(mask)[0]:
                add_one(int(i), check, column,
                        observed(int(i)) if callable(observed) else observed, expected)

        def add_one(i: int, check: str, column: str, observed: str, expected: str):
            v_id.append(None if id_null[i] else str(ids[i]))
            v_part.append(int(part_ids[i]))
            v_check.append(check)
            v_col.append(column)
            v_obs.append(str(observed))
            v_exp.append(expected)

        # --- vectorized domain checks ---
        add_mask(id_null, "image_id_nonnull", "image_id", "null", "non-null")
        empty_bytes = bytes_null | (bytes_len == 0)
        add_mask(empty_bytes, "bytes_nonempty", "bytes", "empty", "len>0")
        fmt_known = np.isin(fmt, self.fmt_list)
        add_mask(~fmt_known, "fmt_in_domain", "fmt",
                 lambda i: str(fmt[i]), "|".join(cfg.fmt_categories))
        add_mask(w <= 0, "w_positive", "w", lambda i: str(int(w[i])), ">0")
        add_mask(h <= 0, "h_positive", "h", lambda i: str(int(h[i])), ">0")
        # null dims/phash get their own violations (a NaN passes `<= 0`
        # silently and int(NaN) crashes the dims comparison below)
        add_mask(w_null, "w_nonnull", "w", "null", "non-null")
        add_mask(h_null, "h_nonnull", "h", "null", "non-null")
        add_mask(phash_null, "phash_nonnull", "phash", "null", "non-null")
        add_mask(caption_null, "caption_nonnull", "caption", "null", "non-null")
        if self.manifest_hashes is not None:
            present = self._probe_manifest(id_hash)
            add_mask(~present & ~id_null, "referential_image_id", "image_id",
                     lambda i: str(ids[i]), "in manifest")

        # --- sampled per-image checks (codecs are inherently per-image) ---
        # ONE pass over the union of the dims- and decode-sampled rows so each
        # image's bytes materialize from Arrow exactly once. ``_image_row``
        # does a row's codec work; contiguous chunks of rows run on the pool
        # (zlib inflate and the numpy kernels release the GIL), then one
        # ordered loop emits the results in row order, so the output does
        # not depend on the pool.
        decodable = ~empty_bytes & fmt_known
        dims_mask = decodable & (id_hash < self.dims_thresh)
        decode_mask = decodable & (id_hash < self.decode_thresh)
        verify = cfg.phash_verify & ~phash_null
        bytes_col = batch["bytes"]
        rows = np.nonzero(dims_mask | decode_mask)[0].tolist()

        def run(chunk: list[int]) -> list[tuple]:
            # null w/h can't be compared (already flagged w/h_nonnull);
            # the header-decodability check still runs for the row
            return [_image_row(bytes_col[i].as_py(), str(fmt[i]),
                               dims_mask[i], decode_mask[i],
                               None if w_null[i] or h_null[i]
                               else (int(w[i]), int(h[i])), verify[i])
                    for i in chunk]

        # one contiguous chunk of rows per pool worker, or one inline
        n_chunks = 1 if self.pool is None else self.pool._max_workers
        bounds = [len(rows) * j // n_chunks for j in range(n_chunks + 1)]
        chunks = [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        runs = map(run, chunks) if self.pool is None else self.pool.map(
            run, chunks)
        results = [r for part in runs for r in part]

        pm_part: list[int] = []
        pm_val: list[float] = []
        ps_val: list[float] = []
        ver_idx: list[int] = []
        ver_ph: list = []
        for i, (row_violations, moments, small) in zip(rows, results):
            for v in row_violations:
                add_one(i, *v)
            if moments is not None:
                pm_part.append(int(part_ids[i]))
                pm_val.append(moments[0])
                ps_val.append(moments[1])
            if small is not None:
                ver_idx.append(i)
                ver_ph.append(small)
        if ver_idx:
            # per-row fidelity, batched: the phash column must match the
            # decoded pixels (BASELINE.json input_hint invariant); lossy
            # codecs get a small Hamming allowance for quantization. The
            # fixed-size DCT/median/packbits tail runs as ONE batched kernel
            # over the stacked (n, 32, 32) resize outputs.
            vi = np.asarray(ver_idx, dtype=np.int64)
            dist = phash_hamming(phash64_batch(np.stack(ver_ph)), phash[vi])
            tols = np.where(np.isin(fmt[vi], LOSSY_FMTS),
                            cfg.phash_tol_lossy, cfg.phash_tol_lossless)
            for k in np.nonzero(dist > tols)[0]:
                add_one(int(vi[k]), "phash_match_decoded", "phash",
                        f"hamming={int(dist[k])}", f"<={int(tols[k])}")
        pm_part_arr = np.asarray(pm_part, dtype=np.int64)
        pm_val_arr = np.asarray(pm_val, dtype=np.float64)
        ps_val_arr = np.asarray(ps_val, dtype=np.float64)

        # --- per-partition sketch partials ---
        partials: list[tuple[int, PartialState]] = []
        for pid in np.unique(part_ids):
            sel = part_ids == pid
            ps = PartialState(cfg.marginals, cfg.fmt_categories)
            ps.n_rows = int(sel.sum())
            ps.update_numeric("w", w[sel], n_null=int(w_null[sel].sum()))
            ps.update_numeric("h", h[sel], n_null=int(h_null[sel].sum()))
            ps.update_numeric("caption_len", caption_len[sel],
                              n_null=int(caption_null[sel].sum()))
            if pm_val_arr.size:
                in_pid = pm_part_arr == pid
                ps.update_numeric("pixel_mean", pm_val_arr[in_pid])
                ps.update_numeric("pixel_std", ps_val_arr[in_pid])
            else:
                ps.update_numeric("pixel_mean", np.empty(0))
                ps.update_numeric("pixel_std", np.empty(0))
            fidx = np.array(
                [self.fmt_index.get(f, len(cfg.fmt_categories)) for f in fmt[sel]],
                dtype=np.int64,
            )
            np.add.at(ps.fmt_counts, fidx, 1)
            ps.id_hll.update_hashes(id_hash[sel])
            selp = sel & ~phash_null  # null phash: no hash, no MMD sample
            ps.phash_hll.update(phash[selp])
            ps.caption_cms.update(np.where(caption_null[sel], "", captions[sel]).astype(object))
            keys = id_hash[selp]
            order = np.argsort(keys, kind="stable")[: cfg.mmd_sample_cap]
            ps.add_sample(keys[order], phash[selp][order], cfg.mmd_sample_cap)
            partials.append((int(pid), ps))

        # --- assemble union-schema output ---
        tables = []
        nv = len(v_id)
        if nv:
            tables.append(pa.table({
                "kind": pa.array(["violation"] * nv),
                "partition_id": pa.array(v_part, pa.int32()),
                "image_id": pa.array(v_id, pa.string()),
                "phash": pa.nulls(nv, pa.int64()),
                "check": pa.array(v_check, pa.string()),
                "column": pa.array(v_col, pa.string()),
                "observed": pa.array(v_obs, pa.string()),
                "expected": pa.array(v_exp, pa.string()),
                "state": pa.array([None] * nv, pa.binary()),
                "n_rows": pa.array([0] * nv, pa.int64()),
            }, schema=OUT_SCHEMA))
        if partials:
            tables.append(pa.table({
                "kind": pa.array(["partial"] * len(partials)),
                "partition_id": pa.array([p for p, _ in partials], pa.int32()),
                "image_id": pa.array([None] * len(partials), pa.string()),
                "phash": pa.nulls(len(partials), pa.int64()),
                "check": pa.array([None] * len(partials), pa.string()),
                "column": pa.array([None] * len(partials), pa.string()),
                "observed": pa.array([None] * len(partials), pa.string()),
                "expected": pa.array([None] * len(partials), pa.string()),
                "state": pa.array([ps.to_bytes() for _, ps in partials], pa.binary()),
                "n_rows": pa.array([ps.n_rows for _, ps in partials], pa.int64()),
            }, schema=OUT_SCHEMA))
        # the constraint keys, one row per input row, as the table holds them
        blank = pa.nulls(n, pa.string())
        tables.append(pa.table({
            "kind": pa.array(["key"] * n),
            "partition_id": batch["partition_id"].cast(pa.int32()),
            "image_id": batch["image_id"].cast(pa.string()),
            "phash": batch["phash"].cast(pa.int64()),
            "check": blank, "column": blank, "observed": blank,
            "expected": blank,
            "state": pa.nulls(n, pa.binary()),
            "n_rows": pa.nulls(n, pa.int64()),
        }, schema=OUT_SCHEMA))
        return pa.concat_tables(tables)


# ---------------------------------------------------------------------------
# Stateless-task wrapper: the one way the pipelines run the stage
# (``pipelines.fit.featurize_partials``; the drift stage's warm-worker
# pattern). The pass maps whole blocks (``batch_size=None``), so Ray fuses
# the parquet read into the same task: one ``ReadParquet->MapBatches(
# featurize_task)`` task per read block, the bytes stay in the worker heap,
# and every CPU is shared between read and compute with no reserved split.
# Inside the task ``cfg.batch_size`` caps the rows of one stage call. The
# broadcast id-set is still fetched once per WORKER process: warm workers
# are reused across tasks and the cache is keyed by (config fingerprint,
# broadcast ref id).
# ---------------------------------------------------------------------------

_WORKER_CACHE: dict = {}


def featurize_task(batch: pa.Table, cfg: EngineConfig,
                   manifest_broadcast: dict | None = None) -> pa.Table:
    from ..state.checkpoint import config_fingerprint

    key = (config_fingerprint(cfg),
           manifest_broadcast["ref"].hex() if manifest_broadcast else None)
    st = _WORKER_CACHE.get(key)
    if st is not None:
        # refresh recency so the 2-entry bound behaves as LRU: with 3+
        # interleaved pipelines sharing warm workers, insertion-order
        # eviction would let the two LIVE keys thrash each other
        _WORKER_CACHE.pop(key)
        _WORKER_CACHE[key] = st
    if st is None:
        st = FeaturizeAndSketch(cfg, manifest_broadcast)
        # bound the cache at TWO live broadcast copies per worker: every
        # validate() run ray.puts a fresh broadcast ref, so an unbounded
        # cache would leak one manifest-hash array per run — but a
        # single-entry bound (drift.py's) would make two INTERLEAVED
        # pipelines sharing warm workers evict each other every task
        # (load-once-per-worker degrading to load-once-per-batch). Two
        # entries covers the overlap case; oldest-insertion evicts beyond.
        while len(_WORKER_CACHE) >= 2:
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
        _WORKER_CACHE[key] = st
    step = cfg.batch_size
    if batch.num_rows <= step:
        return st(batch)
    return pa.concat_tables([st(batch.slice(lo, step))
                             for lo in range(0, batch.num_rows, step)])
