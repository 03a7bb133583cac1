"""SVG plot sink — the headless analogue of the reference's figure sinks
(/root/reference/ml/plot.py:52-115 writes loss curves / image galleries via
matplotlib; this sandbox has no matplotlib, so the engine renders
dependency-free SVG straight from the run's committed artifacts). Pure
post-processing: reads per-partition stats blobs + the verdict table, never
the input data.

Two figures per run:
  * ``hist_<column>.svg`` — the run-wide marginal histogram per drifted
    column (summed FixedHistogram counts across partitions), single-series
    bars.
  * ``drift_heatmap.svg`` — partitions × checks p-value matrix on a
    single-hue sequential ramp over -log10(p); failed verdicts additionally
    carry an ``x`` glyph so state is never encoded by color alone.

Styling follows the repo's chart conventions: one series needs no legend,
text wears ink tokens (never the series color), recessive axes, 2px gaps
between fills, selective direct labels (max bar only).
"""

from __future__ import annotations

import os
from xml.sax.saxutils import escape as _esc_text

import numpy as np


def escape(s) -> str:
    """Attribute-safe XML escape: saxutils.escape leaves double quotes
    alone, which breaks aria-label/alt attributes for names with '"'."""
    return _esc_text(str(s), {'"': "&quot;"})

# light-surface tokens + slot-1 blue from the validated default palette
_SURFACE = "#fcfcfb"
_INK = "#0b0b0b"
_INK2 = "#52514e"
_GRID = "#e4e3df"
_SERIES = "#2a78d6"
# single-hue sequential ramp (light -> dark blue), monotone lightness
_RAMP = ["#eff3fb", "#c4d6f2", "#8fb4e6", "#5590da", "#2a78d6", "#1c5eb0"]

HEATMAP_MAX_PARTITIONS = 64  # figure row cap: huge runs keep the most-drifted


def _ramp_color(x: float) -> str:
    """x in [0, 1] -> nearest ramp step (binned, not interpolated — a small
    number of named steps keeps adjacent cells distinguishable)."""
    i = int(min(max(x, 0.0), 1.0) * (len(_RAMP) - 1) + 0.5)
    return _RAMP[i]


def render_histogram_svg(counts: np.ndarray, lo: float, hi: float,
                         title: str, subtitle: str = "") -> str:
    """Single-series bar histogram: thin bars with a 2px surface gap,
    baseline axis, min/max ticks in secondary ink, one direct label on the
    tallest bar."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.size
    w_px, h_px = 640, 240
    pad_l, pad_r, pad_t, pad_b = 16, 16, 44, 28
    plot_w = w_px - pad_l - pad_r
    plot_h = h_px - pad_t - pad_b
    top = float(counts.max()) if counts.size and counts.max() > 0 else 1.0
    bw = plot_w / max(n, 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" '
        f'height="{h_px}" viewBox="0 0 {w_px} {h_px}" role="img" '
        f'aria-label="{escape(title)}">',
        f'<rect width="{w_px}" height="{h_px}" fill="{_SURFACE}"/>',
        f'<text x="{pad_l}" y="18" fill="{_INK}" font-family="sans-serif" '
        f'font-size="13" font-weight="600">{escape(title)}</text>',
    ]
    if subtitle:
        parts.append(
            f'<text x="{pad_l}" y="34" fill="{_INK2}" '
            f'font-family="sans-serif" font-size="11">{escape(subtitle)}</text>')
    imax = int(np.argmax(counts)) if n else 0
    for i in range(n):
        bh = plot_h * counts[i] / top
        x = pad_l + i * bw
        y = pad_t + plot_h - bh
        # 2px gap between fills; 4px rounded data-end anchored to baseline
        # (clip the rounding so the baseline edge stays square)
        parts.append(
            f'<path d="M{x + 1:.2f},{pad_t + plot_h:.2f} '
            f'V{y + 4:.2f} Q{x + 1:.2f},{y:.2f} {x + 5:.2f},{y:.2f} '
            f'H{x + bw - 5:.2f} Q{x + bw - 1:.2f},{y:.2f} '
            f'{x + bw - 1:.2f},{y + 4:.2f} V{pad_t + plot_h:.2f} Z" '
            f'fill="{_SERIES}"/>'
            if bh >= 4 and bw >= 12 else
            f'<rect x="{x + 1:.2f}" y="{y:.2f}" width="{max(bw - 2, 0.5):.2f}" '
            f'height="{max(bh, 0.5):.2f}" fill="{_SERIES}"/>')
    # selective direct label: the tallest bar only
    if n and counts[imax] > 0:
        lx = pad_l + (imax + 0.5) * bw
        ly = max(pad_t + plot_h - plot_h * counts[imax] / top - 4, pad_t + 10)
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" fill="{_INK2}" '
            f'font-family="sans-serif" font-size="10" text-anchor="middle">'
            f'{int(counts[imax]):,}</text>')
    base = pad_t + plot_h
    parts += [
        f'<line x1="{pad_l}" y1="{base}" x2="{pad_l + plot_w}" y2="{base}" '
        f'stroke="{_GRID}" stroke-width="1"/>',
        f'<text x="{pad_l}" y="{base + 16}" fill="{_INK2}" '
        f'font-family="sans-serif" font-size="10">{lo:g}</text>',
        f'<text x="{pad_l + plot_w}" y="{base + 16}" fill="{_INK2}" '
        f'font-family="sans-serif" font-size="10" text-anchor="end">{hi:g}</text>',
        "</svg>",
    ]
    return "\n".join(parts)


def render_drift_heatmap_svg(partitions: list[int], checks: list[str],
                             pmat: np.ndarray, passed: np.ndarray,
                             title: str = "drift p-values") -> str:
    """Partitions × checks heatmap: sequential ramp over -log10(p) clipped
    to [0, 4]; failed verdicts carry an ``x`` glyph (state never by color
    alone); 2px surface gaps between cells; ramp legend with end labels."""
    nr, nc = len(partitions), len(checks)
    cell, gap = 18, 2
    # column labels rotate 45°: at a 20px cell pitch any multi-char label
    # would collide horizontally; the top margin scales with the longest
    # label's diagonal extent (~0.42 px per char per axis at 10px font)
    lab_px = int(max((len(str(c)) for c in checks), default=4) * 6 * 0.72) + 12
    lab_w = 64
    w_px = lab_w + nc * (cell + gap) + 150 + lab_px
    h_px = 28 + lab_px + nr * (cell + gap) + 16
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" '
        f'height="{h_px}" viewBox="0 0 {w_px} {h_px}" role="img" '
        f'aria-label="{escape(title)}">',
        f'<rect width="{w_px}" height="{h_px}" fill="{_SURFACE}"/>',
        f'<text x="8" y="18" fill="{_INK}" font-family="sans-serif" '
        f'font-size="13" font-weight="600">{escape(title)}</text>',
    ]
    x0, y0 = lab_w, 28 + lab_px
    for j, c in enumerate(checks):
        cx = x0 + j * (cell + gap) + cell / 2
        parts.append(
            f'<text x="{cx:.1f}" y="{y0 - 6}" fill="{_INK2}" '
            f'font-family="sans-serif" font-size="10" text-anchor="start" '
            f'transform="rotate(-45, {cx:.1f}, {y0 - 6})">'
            f'{escape(str(c))}</text>')
    for i, pid in enumerate(partitions):
        y = y0 + i * (cell + gap)
        parts.append(
            f'<text x="{lab_w - 6}" y="{y + cell - 5}" fill="{_INK2}" '
            f'font-family="sans-serif" font-size="10" text-anchor="end">'
            f'p{int(pid)}</text>')
        for j in range(nc):
            p = pmat[i, j]
            x = x0 + j * (cell + gap)
            if np.isnan(p):
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                    f'fill="none" stroke="{_GRID}"/>')
                continue
            mag = min(-np.log10(max(p, 1e-12)), 4.0) / 4.0
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'rx="2" fill="{_ramp_color(mag)}"/>')
            if not passed[i, j]:
                glyph_ink = _SURFACE if mag >= 0.5 else _INK
                parts.append(
                    f'<text x="{x + cell / 2}" y="{y + cell - 5}" '
                    f'fill="{glyph_ink}" font-family="sans-serif" '
                    f'font-size="11" text-anchor="middle">x</text>')
    # ramp legend + the glyph key (state not by color alone)
    lx = x0 + nc * (cell + gap) + 16
    for k, col in enumerate(_RAMP):
        parts.append(f'<rect x="{lx + k * 14}" y="{y0}" width="12" '
                     f'height="12" rx="2" fill="{col}"/>')
    parts += [
        f'<text x="{lx}" y="{y0 + 26}" fill="{_INK2}" '
        f'font-family="sans-serif" font-size="10">p=1</text>',
        f'<text x="{lx + len(_RAMP) * 14}" y="{y0 + 26}" fill="{_INK2}" '
        f'font-family="sans-serif" font-size="10" text-anchor="end">'
        f'p&lt;=1e-4</text>',
        f'<text x="{lx}" y="{y0 + 44}" fill="{_INK2}" '
        f'font-family="sans-serif" font-size="10">x = drift flagged</text>',
        "</svg>",
    ]
    return "\n".join(parts)


def write_plots(out_dir: str, plots_dir: str | None = None) -> list[str]:
    """Render the run's figures from committed artifacts into
    ``<out_dir>/plots/``; returns the written paths. Histograms come from
    the per-partition stats blobs (summed — the run-wide marginal); the
    heatmap from the verdict table."""
    from ..state.checkpoint import CheckpointStore
    from ..state.partials import PartialState

    plots_dir = plots_dir or os.path.join(out_dir, "plots")
    os.makedirs(plots_dir, exist_ok=True)
    written: list[str] = []

    # stream the blobs one at a time (explain_drift's pattern): a 10^5-
    # partition run must not hold 10^5 full PartialStates (HLL/CMS/digest
    # payloads) on the driver when only histogram count sums are needed
    blob_dir = os.path.join(out_dir, "stats_blobs")
    sums: dict[str, np.ndarray] = {}
    ranges: dict[str, tuple[float, float]] = {}
    if os.path.isdir(blob_dir):
        for name in sorted(os.listdir(blob_dir)):
            if not name.endswith(".bin"):
                continue
            with open(os.path.join(blob_dir, name), "rb") as fh:
                st = PartialState.from_bytes(fh.read())
            for col, h in st.hists.items():
                if col in sums:
                    if (h.lo, h.hi, len(h.counts)) != (
                            ranges[col][0], ranges[col][1], len(sums[col])):
                        # a stale or mixed-config blob directory would
                        # otherwise silently render a wrong marginal
                        raise ValueError(
                            f"incompatible histogram config for {col!r} in "
                            f"{name}: ({h.lo}, {h.hi}, {len(h.counts)}) vs "
                            f"({ranges[col][0]}, {ranges[col][1]}, "
                            f"{len(sums[col])}) — mixed-run blob dir?")
                    sums[col] += h.counts
                else:
                    sums[col] = h.counts.copy()
                    ranges[col] = (h.lo, h.hi)
    for col in sorted(sums):
        counts = sums[col]
        lo, hi = ranges[col]
        svg = render_histogram_svg(
            counts[1:-1], lo, hi, f"{col} — run-wide marginal",
            subtitle=(f"{int(counts.sum()):,} rows; "
                      f"{int(counts[0]):,} under / "
                      f"{int(counts[-1]):,} over range"))
        path = os.path.join(plots_dir, f"hist_{col}.svg")
        with open(path, "w") as fh:
            fh.write(svg)
        written.append(path)

    verdicts = CheckpointStore(out_dir).read_all("verdicts")
    if verdicts is not None and verdicts.num_rows:
        v = verdicts.to_pandas()
        v = v[v.p_value.notna()]
        if len(v):
            v["key"] = v.check.astype(str) + ":" + v["column"].astype(str)
            pids = sorted(int(p) for p in v.partition_id.unique())
            title = "drift p-values"
            if len(pids) > HEATMAP_MAX_PARTITIONS:
                # a 10^5-partition run must not become a 10^5-row SVG:
                # keep the most-drifted rows (smallest min-p per partition)
                n_all = len(pids)
                minp = v.groupby("partition_id").p_value.min()
                pids = sorted(int(p) for p in
                              minp.nsmallest(HEATMAP_MAX_PARTITIONS).index)
                v = v[v.partition_id.isin(set(pids))]
                title = (f"drift p-values — most-drifted "
                         f"{HEATMAP_MAX_PARTITIONS} of {n_all} partitions")
            keys = sorted(v.key.unique())
            pmat = np.full((len(pids), len(keys)), np.nan)
            pas = np.ones((len(pids), len(keys)), dtype=bool)
            pi = {p: i for i, p in enumerate(pids)}
            ki = {k: j for j, k in enumerate(keys)}
            for r in v.itertuples():
                pmat[pi[int(r.partition_id)], ki[r.key]] = float(r.p_value)
                pas[pi[int(r.partition_id)], ki[r.key]] = bool(r.passed)
            svg = render_drift_heatmap_svg(pids, keys, pmat, pas, title=title)
            path = os.path.join(plots_dir, "drift_heatmap.svg")
            with open(path, "w") as fh:
                fh.write(svg)
            written.append(path)
    return written
