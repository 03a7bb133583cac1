"""The ``Check`` protocol: pluggable drift/validation checks (SURVEY.md §2.10).

The reference's extension point is detector polymorphism — its service loads
ANY pickled ``BaseDetector`` and relies only on ``.compare()``
(/root/reference/detector_api/app/detector.py:27-42,58-61). The engine
mirrors that: a check is any object with a ``name`` and
``compare(pid, ref, partial, cfg, ts) -> list[verdict dict]``; built-ins
(KS marginals, Chi² fmt, MMD embeddings) register under short names, and
``EngineConfig.drift_checks`` may mix registered names with custom Check
INSTANCES (cloudpickle ships instance-carried classes by value, so a custom
check defined anywhere reaches the actor-pool workers without being
importable there).
"""

from __future__ import annotations

import zlib
from typing import Protocol, runtime_checkable

from ..functions import divergence as dv
from ..functions.phash import phash_to_embedding
from ..functions.stats import (
    chi2_test_counts,
    ks_pvalue_from_d,
    median_heuristic_sigma,
    mmd_permutation_test,
)
from ..pipelines.config import EngineConfig
from ..state.partials import PartialState
from ..state.reference import ReferenceState
from ..state.sketches import ks_from_histograms


def make_verdict(pid: int, check: str, column: str, stat: float, p: float,
                 cfg: EngineConfig, n_ref: int, n_test: int, ts: str) -> dict:
    """One verdict row in the reference's record shape
    (alpha/distance/p_value/is_drift/datetime,
    /root/reference/detector_api/app/detector.py:62-70)."""
    return {
        "partition_id": pid, "check": check, "column": column,
        "statistic": float(stat), "p_value": float(p), "alpha": cfg.alpha,
        "passed": bool(p > cfg.alpha), "n_ref": int(n_ref),
        "n_test": int(n_test), "datetime": ts,
    }


@runtime_checkable
class Check(Protocol):
    """A named drift check. ``compare`` may run concurrently with the other
    checks (``score_window`` runs each check as its own thread-pool task),
    so it must not mutate shared state (the reference, the partial state,
    the config, module globals) and must seed any RNG from its arguments."""

    name: str

    def compare(self, pid: int, ref: ReferenceState, ps: PartialState,
                cfg: EngineConfig, ts: str) -> list[dict]:
        """Test one partition's merged state against the frozen reference."""
        ...


CHECK_REGISTRY: dict[str, type] = {}


def register_check(name: str):
    def deco(cls):
        cls.name = name
        CHECK_REGISTRY[name] = cls
        return cls
    return deco


def resolve_checks(specs) -> list["Check"]:
    """Names -> registry classes (instantiated); instances pass through."""
    out = []
    for s in specs:
        if isinstance(s, str):
            out.append(CHECK_REGISTRY[s]())
        else:
            out.append(s)
    return out


@register_check("ks")
class KSMarginalsCheck:
    """KS on each numeric marginal — reference ECDF from the checkpointed
    histogram (A7; reference-window semantics of detector.py:58-61)."""

    def compare(self, pid, ref, ps, cfg, ts):
        out = []
        for col in cfg.marginals:
            rh, th = ref.state.hists[col], ps.hists[col]
            n_ref, n_test = rh.total, th.total
            if n_ref == 0 or n_test == 0:
                out.append(make_verdict(pid, "ks", col, 0.0, 1.0, cfg, n_ref, n_test, ts))
                continue
            d = ks_from_histograms(rh, th)
            out.append(make_verdict(pid, "ks", col, d, ks_pvalue_from_d(d, n_ref, n_test),
                                    cfg, n_ref, n_test, ts))
        return out


@register_check("chi2")
class Chi2FmtCheck:
    """Chi² observed-vs-expected on the fmt categorical (A7)."""

    def compare(self, pid, ref, ps, cfg, ts):
        stat, dof, p = chi2_test_counts(ps.fmt_counts, ref.state.fmt_counts)
        return [make_verdict(pid, "chi2", "fmt", stat, p, cfg,
                             int(ref.state.fmt_counts.sum()),
                             int(ps.fmt_counts.sum()), ts)]


class _HistDivergenceCheck:
    """Shared shape for bin-divergence checks over the numeric marginals:
    statistic from the two ``FixedHistogram`` count vectors, p-value from a
    seeded multinomial bootstrap (functions/divergence.py). Subclasses set
    ``name`` via the registry and implement ``stat_fn(hist)``; everything runs
    on sketch state only — no raw samples reach the check."""

    def stat_fn(self, hist):
        raise NotImplementedError

    def compare(self, pid, ref, ps, cfg, ts):
        out = []
        for col in cfg.marginals:
            rh, th = ref.state.hists[col], ps.hists[col]
            n_ref, n_test = rh.total, th.total
            if n_ref == 0 or n_test == 0:
                out.append(make_verdict(pid, self.name, col, 0.0, 1.0, cfg,
                                        n_ref, n_test, ts))
                continue
            stat, p = dv.multinomial_bootstrap_pvalue(
                rh.counts, th.counts, self.stat_fn(rh),
                n_boot=cfg.num_permutations,
                seed=cfg.seed ^ ((pid + 1) * 0x9E3779B1) ^ zlib.crc32(col.encode()),
            )
            out.append(make_verdict(pid, self.name, col, stat, p, cfg,
                                    n_ref, n_test, ts))
        return out


@register_check("psi")
class PSIMarginalsCheck(_HistDivergenceCheck):
    """Population Stability Index on each numeric marginal."""

    def stat_fn(self, hist):
        return dv.psi


@register_check("js")
class JSMarginalsCheck(_HistDivergenceCheck):
    """Jensen-Shannon divergence on each numeric marginal."""

    def stat_fn(self, hist):
        return dv.js_divergence


@register_check("hellinger")
class HellingerMarginalsCheck(_HistDivergenceCheck):
    """Hellinger distance on each numeric marginal."""

    def stat_fn(self, hist):
        return dv.hellinger


@register_check("wasserstein")
class Wasserstein1MarginalsCheck(_HistDivergenceCheck):
    """Wasserstein-1 (earth mover) on each numeric marginal; bin width from
    the histogram's own [lo, hi] / bins so the statistic is in column units."""

    def stat_fn(self, hist):
        width = (hist.hi - hist.lo) / hist.bins
        return lambda r, t: dv.wasserstein1_binned(r, t, width)


@register_check("mmd")
class MMDEmbeddingCheck:
    """MMD + permutation test over phash-derived embeddings (A2/A3).

    Permutation RNG seeded by (run seed ^ partition_id) only — deterministic
    under resume and any parallelism (SURVEY.md §4)."""

    def compare(self, pid, ref, ps, cfg, ts):
        x = phash_to_embedding(ref.state.sample_phash[: cfg.ref_sample_cap])
        y = phash_to_embedding(ps.sample_phash[: cfg.mmd_sample_cap])
        if x.shape[0] and y.shape[0]:
            dist, p = mmd_permutation_test(
                x, y, ref.sigma,
                num_permutations=cfg.num_permutations,
                seed=cfg.seed ^ (pid + 1),
                chunk=cfg.kernel_chunk,
            )
        else:
            dist, p = 0.0, 1.0
        return [make_verdict(pid, "mmd", "phash_embedding", dist, p, cfg,
                             x.shape[0], y.shape[0], ts)]


@register_check("pca_mmd")
class PCAMMDLatentCheck:
    """MMD in a learned low-dim latent space: the reference's full
    encoder -> detector lifecycle (dim-reduction api encodes, detector
    MMD-tests; /root/reference/dimensionality_reduction_api/app/dr.py:16-71
    -> detector.py:44-70) applied to the phash-derived image embeddings.

    The PCA encoder is fit on the EVEN rows of the frozen reference sample
    and the test compares the ODD reference rows against the partition
    sample — the disjoint train window is load-bearing: fitting on the same
    rows that enter the test breaks permutation exchangeability and rejects
    the null on clean data (measured in pipelines/dimred.py). Deterministic
    under resume and parallelism: the reference sample is frozen, components
    are sign-normalized, and the permutation RNG is seeded by
    (run seed ^ partition_id) only.
    """

    K = 8

    def compare(self, pid, ref, ps, cfg, ts):
        from ..functions.pca import pca_partials, pca_solve

        emb = phash_to_embedding(ref.state.sample_phash[: cfg.ref_sample_cap])
        train, x = emb[0::2], emb[1::2]
        y = phash_to_embedding(ps.sample_phash[: cfg.mmd_sample_cap])
        if train.shape[0] < 4 * self.K or not (x.shape[0] and y.shape[0]):
            return [make_verdict(pid, "pca_mmd", "phash_pca", 0.0, 1.0,
                                 cfg, x.shape[0], y.shape[0], ts)]
        mean, comps, _ = pca_solve(*pca_partials(train), k=self.K)
        zr, zt = (x - mean) @ comps.T, (y - mean) @ comps.T
        sigma = median_heuristic_sigma(zr)
        dist, p = mmd_permutation_test(
            zr, zt, sigma,
            num_permutations=cfg.num_permutations,
            seed=cfg.seed ^ ((pid + 1) * 0x9E3779B1),
            chunk=cfg.kernel_chunk,
        )
        return [make_verdict(pid, "pca_mmd", "phash_pca", dist, p, cfg,
                             x.shape[0], y.shape[0], ts)]


@register_check("cvm")
class CvMMarginalsCheck(_HistDivergenceCheck):
    """Two-sample Cramér-von Mises on each numeric marginal (binned; more
    weight on the distribution body than KS's single-supremum statistic)."""

    def stat_fn(self, hist):
        return dv.cvm_binned


@register_check("caption_cms")
class CaptionCMSCheck:
    """Caption CONTENT drift from the Count-Min table (no new state): each
    CMS row is a multinomial histogram of hashed caption strings, so JS
    divergence between the reference and test first-row distributions moves
    when the caption text changes — even when caption LENGTHS match and the
    caption_len KS marginal stays silent. p-value from the shared
    multinomial bootstrap over the CMS buckets."""

    def compare(self, pid, ref, ps, cfg, ts):
        r = ref.state.caption_cms.table[0]
        t = ps.caption_cms.table[0]
        n_ref = int(ref.state.caption_cms.total)
        n_test = int(ps.caption_cms.total)
        if n_ref == 0 or n_test == 0:
            return [make_verdict(pid, "caption_cms", "caption", 0.0, 1.0,
                                 cfg, n_ref, n_test, ts)]
        stat, p = dv.multinomial_bootstrap_pvalue(
            r, t, dv.js_divergence,
            n_boot=cfg.num_permutations,
            seed=cfg.seed ^ ((pid + 1) * 0x85EBCA6B),
        )
        return [make_verdict(pid, "caption_cms", "caption", stat, p, cfg,
                             n_ref, n_test, ts)]
