"""Two-sample drift tests: Kolmogorov-Smirnov, Chi-squared, MMD + permutation.

Pure numpy (scipy is unavailable in-sandbox). The observable contract mirrors
the reference's detector: ``(distance/statistic, p_value, is_drift = p <= alpha)``
— cf. /root/reference/detector_api/app/detector.py:44-70 and the MMD detector fit
at /root/reference/ml/training.py:116-148. p-value implementations are pinned by
golden unit tests against published table values.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q_KS(λ) = 2 Σ (-1)^{j-1} e^{-2 j² λ²}."""
    if lam < 1e-10:
        return 1.0
    j = np.arange(1, 101, dtype=np.float64)
    terms = 2.0 * ((-1.0) ** (j - 1)) * np.exp(-2.0 * (j**2) * lam * lam)
    return float(min(max(terms.sum(), 0.0), 1.0))


def ks_2samp(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sample KS: D = sup |F̂_x − F̂_y| and asymptotic p-value.

    Uses the Numerical-Recipes effective-n correction
    λ = (√n_e + 0.12 + 0.11/√n_e)·D with n_e = n·m/(n+m).
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    n, m = x.size, y.size
    if n == 0 or m == 0:
        return 0.0, 1.0
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / n
    cdf_y = np.searchsorted(y, pooled, side="right") / m
    d = float(np.abs(cdf_x - cdf_y).max())
    ne = n * m / (n + m)
    lam = (np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * d
    return d, kolmogorov_sf(lam)


def ks_pvalue_from_d(d: float, n: int, m: int) -> float:
    ne = n * m / max(n + m, 1)
    lam = (np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * d
    return kolmogorov_sf(lam)


# ---------------------------------------------------------------------------
# Incomplete gamma (for the Chi² p-value) — Numerical Recipes gser/gcf shape
# ---------------------------------------------------------------------------


def _gammaln(x: float) -> float:
    # Lanczos approximation (g=7, n=9), double precision
    cof = [
        0.99999999999980993, 676.5203681218851, -1259.1392167224028,
        771.32342877765313, -176.61502916214059, 12.507343278686905,
        -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
    ]
    if x < 0.5:
        return float(np.log(np.pi / np.sin(np.pi * x)) - _gammaln(1.0 - x))
    x -= 1.0
    a = cof[0]
    t = x + 7.5
    for i in range(1, 9):
        a += cof[i] / (x + i)
    return float(0.5 * np.log(2 * np.pi) + (x + 0.5) * np.log(t) - t + np.log(a))


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    if x < 0 or a <= 0:
        raise ValueError("bad arguments")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        # series for P(a,x), return 1-P
        ap, summ, delt = a, 1.0 / a, 1.0 / a
        for _ in range(500):
            ap += 1.0
            delt *= x / ap
            summ += delt
            if abs(delt) < abs(summ) * 1e-15:
                break
        p = summ * np.exp(-x + a * np.log(x) - _gammaln(a))
        return float(min(max(1.0 - p, 0.0), 1.0))
    # continued fraction for Q(a,x) (modified Lentz)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < 1e-15:
            break
    q = np.exp(-x + a * np.log(x) - _gammaln(a)) * h
    return float(min(max(q, 0.0), 1.0))


def chi2_sf(stat: float, dof: int) -> float:
    if dof <= 0:
        return 1.0
    return gammainc_upper(dof / 2.0, stat / 2.0)


def chi2_test_counts(
    obs: np.ndarray, ref: np.ndarray
) -> tuple[float, int, float]:
    """Two-sample Chi² homogeneity test on category counts.

    ``obs`` and ``ref`` are aligned count vectors over the same categories.
    Expected counts under homogeneity: E_ij = row_i · col_j / grand. Categories
    with zero combined count are dropped. Returns (statistic, dof, p_value).
    """
    obs = np.asarray(obs, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    keep = (obs + ref) > 0
    obs, ref = obs[keep], ref[keep]
    k = obs.size
    if k < 2:
        return 0.0, 0, 1.0
    grand = obs.sum() + ref.sum()
    stat = 0.0
    for row in (obs, ref):
        e = (obs + ref) * (row.sum() / grand)
        stat += float(((row - e) ** 2 / np.where(e > 0, e, 1.0)).sum())
    dof = k - 1
    return stat, dof, chi2_sf(stat, dof)


# ---------------------------------------------------------------------------
# MMD with RBF kernel + permutation test
# ---------------------------------------------------------------------------


def median_heuristic_sigma(x: np.ndarray, max_n: int = 2048, seed: int = 31) -> float:
    """σ = median of pairwise Euclidean distances over a bounded sample.

    Reference semantics: /root/reference/ml/training.py:123-129 (median of
    ``pdist(X_ref)``); the sample bound keeps the O(n²) cost fixed at scale.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] > max_n:
        rng = np.random.Generator(np.random.PCG64(seed))
        x = x[rng.choice(x.shape[0], size=max_n, replace=False)]
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    iu = np.triu_indices(x.shape[0], k=1)
    d = np.sqrt(np.maximum(d2[iu], 0.0))
    med = float(np.median(d))
    return med if med > 0 else 1.0


def _rbf_kernel(a: np.ndarray, b: np.ndarray, sigma: float, chunk: int = 512) -> np.ndarray:
    """RBF kernel matrix exp(-||a-b||² / (2σ²)), computed in row chunks.

    Chunking mirrors the reference MMD ``chunk_size`` memory bound
    (/root/reference/ml/training.py:144-146, default 200 at :505-507).
    """
    gamma = 1.0 / (2.0 * sigma * sigma)
    sb = (b * b).sum(axis=1)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for i in range(0, a.shape[0], chunk):
        ai = a[i : i + chunk]
        # the same operations in the same order, written into ``out``: one
        # chunk-sized temporary (the Gram product) instead of three
        d2 = out[i : i + chunk]
        np.add((ai * ai).sum(axis=1)[:, None], sb[None, :], out=d2)
        d2 -= 2.0 * (ai @ b.T)
        np.maximum(d2, 0.0, out=d2)
        d2 *= -gamma
        np.exp(d2, out=d2)
    return out


def mmd2_biased(x: np.ndarray, y: np.ndarray, sigma: float, chunk: int = 512) -> float:
    """Biased (V-statistic) squared MMD with RBF kernel."""
    kxx = _rbf_kernel(x, x, sigma, chunk).mean()
    kyy = _rbf_kernel(y, y, sigma, chunk).mean()
    kxy = _rbf_kernel(x, y, sigma, chunk).mean()
    return float(kxx + kyy - 2.0 * kxy)


def mmd_permutation_test(
    x: np.ndarray,
    y: np.ndarray,
    sigma: float,
    num_permutations: int = 100,
    seed: int = 31,
    chunk: int = 512,
) -> tuple[float, float]:
    """MMD² + permutation-test p-value.

    The pooled kernel matrix is computed once; each permutation re-labels the
    pooled sample and re-reads block means from the same matrix (vectorized —
    the reference parallelizes this with multiprocessing instead,
    /root/reference/ml/training.py:131-147, PermutationTest num_permutations=100).
    p = (1 + #{perm ≥ observed}) / (1 + P)  (add-one smoothing).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = x.shape[0], y.shape[0]
    if n == 0 or m == 0:
        return 0.0, 1.0
    pooled = np.concatenate([x, y], axis=0)
    k = _rbf_kernel(pooled, pooled, sigma, chunk)
    ksum = k.sum()
    rng = np.random.Generator(np.random.PCG64(seed))
    total = n + m
    # indicator matrix Z (total × P+1): column 0 = observed labeling; one
    # K @ Z matmul replaces P per-permutation submatrix reductions
    z = np.zeros((total, num_permutations + 1), dtype=np.float64)
    z[:n, 0] = 1.0
    for p_i in range(1, num_permutations + 1):
        z[rng.permutation(total)[:n], p_i] = 1.0
    a = k @ z  # (total, P+1)
    kx = np.einsum("ij,ij->j", z, a)  # z_pᵀ K z_p
    kxrow = z.T @ k.sum(axis=1)  # Σ_{i∈x} (full row sum)_i per labeling
    ky = ksum - 2.0 * kxrow + kx
    kxy = kxrow - kx
    stats = kx / (n * n) + ky / (m * m) - 2.0 * kxy / (n * m)
    observed = float(stats[0])
    count = int((stats[1:] >= observed).sum())
    p = (1.0 + count) / (1.0 + num_permutations)
    return observed, float(p)


def bh_qvalues(p: "np.ndarray") -> "np.ndarray":
    """Benjamini-Hochberg step-up q-values: q_i = min over j with
    p_(j) >= p_(i) of p_(j) * m / rank(j), clamped to 1. Rejecting q <= Q
    controls the false-discovery rate at Q across the m simultaneous
    tests. Vectorized (sort + reverse running min), stable under ties."""
    p = np.asarray(p, dtype=np.float64)
    m = p.size
    if m == 0:
        return p.copy()
    order = np.argsort(p, kind="mergesort")
    scaled = p[order] * m / np.arange(1, m + 1, dtype=np.float64)
    qs = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(m, dtype=np.float64)
    out[order] = np.minimum(qs, 1.0)
    return out
