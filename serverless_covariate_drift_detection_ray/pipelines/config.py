"""Run configuration for the validation engine.

Defaults mirror the reference's pinned knobs: alpha 0.01 for eval
(/root/reference/ml/testing.py:183), 100 permutations + seeded RNG
(/root/reference/ml/training.py:521-537), chunked kernel evaluation
(/root/reference/ml/training.py:505-507).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# numeric marginals tracked for KS drift + column stats: name -> (lo, hi, bins)
DEFAULT_MARGINALS: dict[str, tuple[float, float, int]] = {
    "w": (0.0, 160.0, 160),
    "h": (0.0, 160.0, 160),
    "caption_len": (0.0, 256.0, 256),
    "pixel_mean": (0.0, 255.0, 255),
    "pixel_std": (0.0, 128.0, 128),
}

FMT_CATEGORIES = ("png", "bmp", "lossy8", "jpeg")

# rows of one featurize stage call: batch_size's default, and the fewest rows
# read_blocks gives a featurize task once every CPU has one
STAGE_ROWS = 1024


@dataclass
class EngineConfig:
    alpha: float = 0.01
    num_permutations: int = 100
    seed: int = 31
    kernel_chunk: int = 512           # reference MMD chunk_size semantics
    mmd_sample_cap: int = 512          # bounded per-partition test sample (O(n²) bound)
    ref_sample_cap: int = 1024
    decode_fraction: float = 0.10      # fraction of rows fully decoded for pixel stats
    dims_check_fraction: float = 1.0   # fraction of rows header-checked for dims
    phash_verify: bool = True          # recompute phash on decoded rows and compare
    phash_tol_lossless: int = 0        # max Hamming drift allowed (exact codecs)
    phash_tol_lossy: int = 6           # max Hamming drift allowed (lossy codecs)
    marginals: dict[str, tuple[float, float, int]] = field(
        default_factory=lambda: dict(DEFAULT_MARGINALS)
    )
    fmt_categories: tuple[str, ...] = FMT_CATEGORIES
    neardup_hamming_max: int = 2       # bucket-verify threshold
    neardup_min_cluster: int = 3       # cluster size that counts as a violation
    # per-call row cap of the featurize stage inside one fused read task
    # (the task maps a whole read block; this is not a Ray batch size)
    batch_size: int = STAGE_ROWS
    freeze_time: str | None = None     # fixed verdict timestamp for byte-stable goldens
    quarantine: bool = False           # opt-in dead-letter sink (re-reads violating fragments)
    quarantine_max_rows: int = 1_000_000  # skip (with a summary note) beyond this
    # drift-check plugins (§2.10): registered names or custom Check instances
    # (instances are cloudpickled by value with the config into the drift
    # tasks, so custom checks need not be importable on workers) — see
    # stages/checks.py
    drift_checks: tuple = ("ks", "chi2", "mmd", "caption_cms", "pca_mmd")

    def sample_threshold(self, fraction: float) -> int:
        """uint64 threshold t such that P[hash64(id) < t] = fraction."""
        return int(fraction * float(2**64))


def scratch_root() -> str:
    """Root for every staged cache: the five IO-roundtrip sinks
    (queries._staged_sink) and the persistent IVF index.

    Defaults to node-local ``/tmp``, correct single-node. A multi-node
    deployment sets ``SCDD_SCRATCH_ROOT`` to shared storage (NFS /
    fuse-mounted object store) so a cache PUBLISHED by one node resolves
    on every other; the staged-rename publish protocol
    (queries._ensure_staged_cache) is rename-atomic on POSIX-rename
    filesystems, which shared-FS mounts provide. Read per call on the
    driver — the env var is honored without restarting the engine."""
    import os

    return os.environ.get("SCDD_SCRATCH_ROOT", "/tmp")
