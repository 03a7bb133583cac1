"""Deterministic synthetic `images` table generator (FIXTURES.md).

Synthesizes the ``input_hint`` table shape
``(image_id, bytes, w, h, fmt, caption, phash)`` at small scale — no external
data. Per-class blob patterns echo the reference's 10-class 28×28 world
(/root/reference/ml/utils/constants.py:4-28); the drift partitions apply
analogues of the reference's corruption transforms
(/root/reference/ml/utils/drift.py:37-198): Gaussian blur (structural → moves
phash/MMD) and saturating brightness/contrast jitter (intensity → moves the
decoded pixel-mean KS marginal; phash is affine-invariant by design).

Determinism: each fragment is generated by ``Generator(PCG64(seed ^ mix(fragment_id)))``
— identical bytes on every run at any parallelism level.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..functions.codec import decode_image, encode_image
from ..functions.phash import phash64
from ..sources.fragmented import TableManifest, write_fragment

VOCAB = (
    "sunset harbor mountain forest river skyline meadow canyon glacier island "
    "portrait of a small large bright dark vivid calm misty golden ancient modern "
    "city street market bridge tower garden temple castle lighthouse waterfall "
    "under over beside near the with two three many red blue green amber"
).split()

# partition kinds → generation parameters
CLEAN_FMT_P = {"png": 0.80, "bmp": 0.15, "lossy8": 0.05}
DRIFT_FMT_P = {"png": 0.30, "bmp": 0.60, "lossy8": 0.10}

SCALES = {
    # name: (rows_per_fragment, [(kind, n_fragments), ...], (dim_lo, dim_hi))
    "tiny": (
        250,
        [("reference", 1), ("clean", 1), ("clean", 1), ("drift-blur-2.0", 1),
         ("drift-jitter-1.2", 1), ("drift-dims", 1), ("drift-fmt", 1),
         ("drift-caption", 1), ("violations", 1), ("drift-struct", 1),
         ("drift-elastic-2.0", 1), ("jpeg", 1)],
        (28, 64),
    ),
    "small": (
        1250,
        [("reference", 2), ("clean", 2), ("clean", 2), ("drift-blur-1.0", 1),
         ("drift-blur-2.0", 1), ("drift-blur-4.0", 1), ("drift-jitter-0.5", 1),
         ("drift-jitter-1.2", 1), ("drift-dims", 1), ("drift-fmt", 1),
         ("drift-caption", 1), ("violations", 2), ("drift-struct", 1),
         ("drift-elastic-1.0", 1), ("drift-elastic-2.0", 1),
         ("drift-elastic-4.0", 1), ("jpeg", 1)],
        (28, 64),
    ),
    # bench uses realistic image payload sizes (96-160 px) so the headline
    # measures real decode/hash compute, not scheduler overhead
    "bench": (
        4000,
        [("reference", 8), ("clean", 28), ("clean", 28), ("drift-blur-2.0", 4),
         ("drift-jitter-1.2", 4), ("drift-dims", 4), ("drift-fmt", 4),
         ("drift-caption", 4), ("violations", 8), ("drift-struct", 8)],
        (96, 160),
    ),
    # 2.5x bench (1M rows, ~19 GB): data-size scaling evidence — throughput
    # must hold as rows grow with the worker count fixed (streaming, no
    # whole-input materialization anywhere)
    "large": (
        10000,
        [("reference", 8), ("clean", 28), ("clean", 28), ("drift-blur-2.0", 4),
         ("drift-jitter-1.2", 4), ("drift-dims", 4), ("drift-fmt", 4),
         ("drift-caption", 4), ("violations", 8), ("drift-struct", 8)],
        (96, 160),
    ),
    # violation-heavy variant (bench payload sizes, 256k rows, ~40k seeded
    # defects): measures the violation assembly/write path under real
    # pressure — bench --violations runs it twice, driver collect vs the
    # FORCED groupby side of validate's violations size gate
    "violheavy": (
        4000,
        [("reference", 8), ("clean", 16), ("violations-dense", 40)],
        (96, 160),
    ),
}


def _mix(fragment_id: int, seed: int) -> int:
    return (seed ^ (fragment_id * 0x9E3779B1)) & 0x7FFFFFFF


def _gauss_kernel_matrix(n: int, sigma: float) -> np.ndarray:
    """(n, n) row-normalized 1-D Gaussian blur operator."""
    idx = np.arange(n)
    k = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * sigma * sigma))
    return k / k.sum(axis=1, keepdims=True)


_KERNEL_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    h, w = img.shape[:2]
    kh = _KERNEL_CACHE.setdefault((h, sigma), _gauss_kernel_matrix(h, sigma))
    kw = _KERNEL_CACHE.setdefault((w, sigma), _gauss_kernel_matrix(w, sigma))
    if img.ndim == 2:
        return kh @ img.astype(np.float64) @ kw.T
    out = np.empty(img.shape, dtype=np.float64)
    for c in range(img.shape[2]):
        out[:, :, c] = kh @ img[:, :, c].astype(np.float64) @ kw.T
    return out


def _elastic(img: np.ndarray, alpha_px: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded elastic pixel displacement — the analogue of the reference's
    ElasticTransform(α, σ=5) corruption (/root/reference/ml/utils/drift.py:37-198).

    A per-image random field is Gaussian-smoothed (σ=5, the reference's
    smoothing), normalized to unit std and scaled to ``alpha_px`` pixels of
    displacement std, then applied as a nearest-neighbor remap. Structural:
    moves phash embeddings (MMD marginal) without changing the intensity
    distribution."""
    h, w = img.shape[:2]
    kh = _KERNEL_CACHE.setdefault((h, 5.0), _gauss_kernel_matrix(h, 5.0))
    kw = _KERNEL_CACHE.setdefault((w, 5.0), _gauss_kernel_matrix(w, 5.0))
    dy = kh @ rng.uniform(-1.0, 1.0, (h, w)) @ kw.T
    dx = kh @ rng.uniform(-1.0, 1.0, (h, w)) @ kw.T
    dy = dy / max(float(dy.std()), 1e-9) * alpha_px
    dx = dx / max(float(dx.std()), 1e-9) * alpha_px
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    sy = np.clip(np.rint(yy + dy), 0, h - 1).astype(np.intp)
    sx = np.clip(np.rint(xx + dx), 0, w - 1).astype(np.intp)
    return img[sy, sx]


def _render(rng: np.random.Generator, cls: int, h: int, w: int, rgb: bool) -> np.ndarray:
    """Class-conditioned blob/wave pattern + noise, uint8 (h, w[, 3])."""
    crng = np.random.Generator(np.random.PCG64(1000 + cls))
    fy, fx = crng.uniform(1.0, 4.0, 2)
    py, px = crng.uniform(0, np.pi, 2)
    yy = np.linspace(0, 1, h)[:, None]
    xx = np.linspace(0, 1, w)[None, :]
    base = np.sin(2 * np.pi * fy * yy + py) * np.cos(2 * np.pi * fx * xx + px)
    # strong per-image random field + blobs: keeps phash values well separated
    # for clean data (the near-dup constraint must only fire on planted dups).
    # Several independent oriented wave components give the DCT low-freq block
    # enough entropy that 10^5-scale corpora don't birthday-collide.
    rand_base = np.zeros((h, w))
    for _ in range(3):
        gy, gx = rng.uniform(0.5, 7.0, 2)
        qy, qx = rng.uniform(0, 2 * np.pi, 2)
        amp = float(rng.uniform(0.4, 1.0))
        rand_base += amp * np.sin(2 * np.pi * gy * yy + qy) * np.sin(2 * np.pi * gx * xx + qx)
    grad = float(rng.uniform(-30, 30)) * (yy - 0.5) + float(rng.uniform(-30, 30)) * (xx - 0.5)
    blob = np.zeros((h, w))
    for _ in range(int(rng.integers(1, 5))):
        cy, cx = rng.uniform(0.1, 0.9, 2)
        amp = float(rng.uniform(0.5, 1.2))
        blob += amp * np.exp(-(((yy - cy) ** 2) + ((xx - cx) ** 2)) / float(rng.uniform(0.01, 0.08)))
    img = (128 + 35 * base + 30 * rand_base + 45 * blob + grad
           + rng.normal(0, 12, size=(h, w)))
    img = np.clip(img, 0, 255)
    if rgb:
        shift = crng.uniform(-20, 20, 3)
        img = np.clip(img[:, :, None] + shift[None, None, :], 0, 255)
    return img.astype(np.uint8)


def _caption(rng: np.random.Generator, n_lo: int, n_hi: int) -> str:
    n = int(rng.integers(n_lo, n_hi + 1))
    return " ".join(VOCAB[i] for i in rng.integers(0, len(VOCAB), n))


def generate_fragment(
    fragment_id: int,
    partition_id: int,
    kind: str,
    rows: int,
    seed: int = 42,
    dims: tuple[int, int] = (28, 64),
) -> tuple[pa.Table, list[dict]]:
    """One fragment of the images table + its seeded-violation truth rows."""
    rng = np.random.Generator(np.random.PCG64(_mix(fragment_id, seed)))
    blur_sigma = jitter = elastic_px = 0.0
    if kind.startswith("drift-blur-"):
        blur_sigma = float(kind.rsplit("-", 1)[1])
    if kind.startswith("drift-jitter-"):
        jitter = float(kind.rsplit("-", 1)[1])
    if kind.startswith("drift-elastic-"):
        elastic_px = float(kind.rsplit("-", 1)[1])
    dim_lo, dim_hi = dims
    if kind == "drift-dims":
        shift = max((dim_hi - dim_lo) // 3, 8)
        dim_lo, dim_hi = dim_lo + shift, dim_hi + shift
    cap_lo, cap_hi = (8, 20) if kind == "drift-caption" else (3, 12)
    # the "jpeg" kind exercises the REAL lossy interchange path end to end:
    # every row is baseline JPEG (functions/jpeg.py); fmt drift vs the
    # reference mix is expected (and asserted) — decode/dims/phash must not be
    fmt_p = ({"jpeg": 1.0} if kind == "jpeg"
             else DRIFT_FMT_P if kind == "drift-fmt" else CLEAN_FMT_P)
    fmts = list(fmt_p)
    fmt_probs = np.array([fmt_p[f] for f in fmts])

    ids, blobs, ws, hs, fmt_col, captions, phashes = [], [], [], [], [], [], []
    truth: list[dict] = []
    # "violations-dense" = 1-in-4 defect rate (vs 1-in-25): the
    # violation-heavy bench mix that pressures the assembly/write path.
    # NOTE: at dense rates dup ordinals WRAP the reserve prefix
    # (dup_ordinal % reserve below), so one clean id is duplicated several
    # times; the engine flags uniqueness per duplicated KEY while truth
    # records one row per dup OCCURRENCE, and the near-dup pass finds
    # genuine coincidental clusters beyond the planted ones (measured
    # 2,000 key-violations vs 6,677 occurrence-truth-rows and 458 vs 320
    # near-dups on the violheavy mix — every OTHER check reconciles
    # exactly). Seeded-truth EXACT reconciliation therefore only holds for
    # the sparse "violations" kind the e2e gate uses (each dup targets a
    # distinct clean row → per-key == per-occurrence); bench --violations
    # instead proves the two WRITER PATHS byte-identical on this mix.
    n_defect = (max(rows // 25, 4) if kind == "violations"
                else max(rows // 4, 4) if kind == "violations-dense" else 0)
    # defects only in rows >= reserve so dup defects can target distinct,
    # guaranteed-clean earlier rows (one truth row per duplicate occurrence)
    reserve = min(50, rows // 2)
    defect_rows = (
        set((reserve + rng.choice(rows - reserve, size=n_defect, replace=False)).tolist())
        if n_defect else set()
    )
    _DEFECT_KINDS = ["dup", "orphan", "bad_dims", "bad_fmt", "empty_bytes", "null_caption"]
    defect_kind: dict[int, str] = {}
    dup_ordinal: dict[int, int] = {}
    for i, d in enumerate(sorted(defect_rows)):
        defect_kind[d] = _DEFECT_KINDS[i % 6]
        if i % 6 == 0:
            dup_ordinal[d] = len(dup_ordinal)
    # planted near-dup clusters (FIXTURES.md): groups of 4 sharing one rendered
    # image with a ±1-intensity member tweak → identical / 1-bit phash
    cluster_rows: dict[int, tuple[int, int]] = {}
    if kind.startswith("violations"):
        n_clusters, csize = 2, 4
        for c in range(n_clusters):
            for mi in range(csize):
                cluster_rows[rows - 1 - (c * csize + mi)] = (c, mi)
        defect_rows -= set(cluster_rows)

    for r in range(rows):
        image_id = f"img-{fragment_id:05d}-{r:06d}"
        cls = int(rng.integers(0, 10))
        h = int(rng.integers(dim_lo, dim_hi + 1))
        w = int(rng.integers(dim_lo, dim_hi + 1))
        rgb = bool(rng.random() < 0.3)
        if r in cluster_rows:
            c, mi = cluster_rows[r]
            crng = np.random.Generator(np.random.PCG64(_mix(fragment_id, seed) ^ (0xC0DE + c)))
            cls = int(crng.integers(0, 10))
            h = w = int(crng.integers(dim_lo, dim_hi + 1))
            rgb = False
            img = _render(crng, cls, h, w, rgb)
            img = np.clip(img.astype(np.int16) + (mi % 2), 0, 255).astype(np.uint8)
            truth.append({"image_id": image_id, "check": "neardup_phash",
                          "detail": f"cluster-{fragment_id}-{c}"})
        elif kind == "drift-struct":
            # covariate drift proper: a new pattern family (unseen "classes")
            # shifts the phash-embedding distribution → MMD flags it
            img = _render(rng, cls + 20, h, w, rgb)
        else:
            img = _render(rng, cls, h, w, rgb)
        if blur_sigma > 0:
            img = np.clip(_blur(img, blur_sigma), 0, 255).astype(np.uint8)
        if elastic_px > 0:
            img = _elastic(img, elastic_px, rng)
        if jitter > 0:
            contrast = 1.0 + jitter * float(rng.uniform(0.5, 1.0))
            bright = jitter * 60.0 * float(rng.uniform(-1.0, 1.0))
            img = np.clip(img.astype(np.float64) * contrast + bright, 0, 255).astype(np.uint8)
        fmt = fmts[int(rng.choice(len(fmts), p=fmt_probs))]
        data = encode_image(img, fmt)
        caption = _caption(rng, cap_lo, cap_hi)
        # jpeg rows store the phash OF THE STORED BYTES (encode->decode->
        # phash): the column describes what a reader can decode, so the
        # verifier's hamming is 0 by construction; lossy8's uniform
        # quantization is phash-invariant so its pre-encode hash is exact
        ph = phash64(decode_image(data, "jpeg") if fmt == "jpeg" else img)

        if r in defect_rows:
            defect = defect_kind[r]
            if defect == "dup":
                # repeat a distinct clean id from the reserved prefix of THIS
                # fragment — each dup defect gets its own duplicated key
                image_id = f"img-{fragment_id:05d}-{dup_ordinal[r] % reserve:06d}"
                truth.append({"image_id": image_id, "check": "unique_image_id",
                              "detail": "duplicate"})
            elif defect == "orphan":
                image_id = f"orphan-{fragment_id:05d}-{r:06d}"
                truth.append({"image_id": image_id, "check": "referential_image_id",
                              "detail": "not in manifest"})
            elif defect == "bad_dims":
                w = w + 7  # column lies about decoded width
                truth.append({"image_id": image_id, "check": "dims_match_decoded",
                              "detail": "w+7"})
            elif defect == "bad_fmt":
                fmt = "tiff"
                truth.append({"image_id": image_id, "check": "fmt_in_domain",
                              "detail": "tiff"})
            elif defect == "empty_bytes":
                data = b""
                truth.append({"image_id": image_id, "check": "bytes_nonempty",
                              "detail": "empty"})
            elif defect == "null_caption":
                caption = None
                truth.append({"image_id": image_id, "check": "caption_nonnull",
                              "detail": "null"})

        ids.append(image_id)
        blobs.append(data)
        ws.append(w)
        hs.append(h)
        fmt_col.append(fmt)
        captions.append(caption)
        phashes.append(ph)

    table = pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmt_col, pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(phashes, pa.int64()),
            "fragment_id": pa.array([fragment_id] * rows, pa.int64()),
            "partition_id": pa.array([partition_id] * rows, pa.int32()),
        }
    )
    return table, truth


def generate(out_dir: str, scale: str = "tiny", seed: int = 42, parallel: bool = False) -> TableManifest:
    """Generate the full fixture table + truth sidecars. Idempotent by content.

    ``parallel=True`` fans fragment generation out as Ray tasks (used for the
    bench fixture); determinism is per-fragment so the output is identical.
    """
    rows_per_frag, parts, dims = SCALES[scale]
    os.makedirs(out_dir, exist_ok=True)
    truth_dir = os.path.join(out_dir, "truth")
    os.makedirs(truth_dir, exist_ok=True)

    jobs = []  # (fragment_id, partition_id, kind)
    fid = 0
    for pid, (kind, n_frags) in enumerate(parts):
        for _ in range(n_frags):
            jobs.append((fid, pid, kind))
            fid += 1

    manifest = TableManifest(root=out_dir)
    manifest.partitions = {pid: {"kind": kind} for pid, (kind, _) in enumerate(parts)}
    all_truth: list[dict] = []

    if parallel:
        import ray

        @ray.remote
        def _gen(fragment_id, partition_id, kind):
            table, truth = generate_fragment(fragment_id, partition_id, kind,
                                             rows_per_frag, seed, dims)
            info = write_fragment(out_dir, fragment_id, partition_id, table)
            return info, truth

        results = ray.get([_gen.remote(*j) for j in jobs])
        for info, truth in results:
            manifest.fragments.append(info)
            all_truth.extend(truth)
    else:
        for fragment_id, partition_id, kind in jobs:
            table, truth = generate_fragment(fragment_id, partition_id, kind,
                                             rows_per_frag, seed, dims)
            manifest.fragments.append(write_fragment(out_dir, fragment_id, partition_id, table))
            all_truth.extend(truth)

    manifest.save()

    import pyarrow.parquet as pq

    # referential universe: every non-orphan id
    orphans = {t["image_id"] for t in all_truth if t["check"] == "referential_image_id"}
    ids = []
    for f in manifest.fragments:
        t = pq.read_table(os.path.join(out_dir, f.file), columns=["image_id"])
        ids.append(t)
    id_table = pa.concat_tables(ids)
    mask = np.isin(np.asarray(id_table["image_id"]), list(orphans), invert=True)
    pq.write_table(
        id_table.filter(pa.array(mask)).combine_chunks(),
        os.path.join(truth_dir, "manifest_ids.parquet"),
    )
    truth_table = pa.table(
        {
            "image_id": pa.array([t["image_id"] for t in all_truth], pa.string()),
            "check": pa.array([t["check"] for t in all_truth], pa.string()),
            "detail": pa.array([t["detail"] for t in all_truth], pa.string()),
        }
    )
    pq.write_table(truth_table, os.path.join(truth_dir, "violations.parquet"))
    return manifest


def ensure_fixture(scale: str, seed: int = 42, base: str = "/tmp/scdd_fixtures", parallel: bool = False) -> str:
    """Cache fixtures under /tmp keyed by (scale, seed, generator version)."""
    # v12: phash64 delegates to phash64_batch — stored hashes share the
    #      verifier's exact float formulation by construction
    # v11: bytes column stored uncompressed (zstd over PNG payloads was a
    #      0.3%-size no-op charged on every read)
    # v10: phash RGB channel fold divides once at the end (matmul resize) —
    # stored hashes must come from the same formulation the verifier uses
    # v13: "jpeg" partition kind in tiny/small (real baseline-JPEG rows;
    #      phash stored from the DECODED bytes so lossy verify is exact)
    out = os.path.join(base, f"{scale}-s{seed}-v13")
    marker = os.path.join(out, "manifest.json")
    if os.path.exists(marker):
        return out
    generate(out, scale=scale, seed=seed, parallel=parallel)
    return out
