"""CLI entry points — the engine analogue of the reference's command-line
pipelines (`python ml/training.py -d MNIST` fit, `python ml/testing.py -d
MNIST` eval; /root/reference/ml/training.py:463-539, ml/testing.py:153-201).

    python -m serverless_covariate_drift_detection_ray gen-fixture --scale small --dest /tmp/tbl
    python -m serverless_covariate_drift_detection_ray fit --manifest /tmp/tbl --state /tmp/ref
    python -m serverless_covariate_drift_detection_ray validate --manifest /tmp/tbl \
        --state /tmp/ref --out /tmp/run1
    python -m serverless_covariate_drift_detection_ray report --out /tmp/run1

The CLI owns its Ray session (guarded init — the driver contract in
``__ray_entry__`` never calls ray.init, but a standalone command must).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        import os

        # under `ray job submit` the runner exports RAY_ADDRESS — attach to
        # the cluster; standalone, start a local session
        addr = os.environ.get("RAY_ADDRESS", "local")
        kwargs = {"address": addr}
        if addr == "local":
            kwargs["include_dashboard"] = False
            if num_cpus:
                kwargs["num_cpus"] = num_cpus
        elif num_cpus:
            print(f"warning: --num-cpus={num_cpus} ignored when attaching "
                  f"to an existing cluster (RAY_ADDRESS={addr})",
                  file=sys.stderr)
        ray.init(**kwargs)
    return ray


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="serverless_covariate_drift_detection_ray")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="ray.init num_cpus (default: all)")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-fixture", help="synthesize a deterministic input table")
    g.add_argument("--scale", default="small",
                   choices=["tiny", "small", "bench", "large"])
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--dest", required=True)

    f = sub.add_parser("fit", help="freeze reference-window state")
    f.add_argument("--manifest", required=True, help="input table dir (manifest.json)")
    f.add_argument("--state", required=True, help="output reference_state dir")
    f.add_argument("--kinds", default="reference",
                   help="comma-separated partition kinds to fit on")

    v = sub.add_parser("validate", help="full stats + drift + constraint pass")
    v.add_argument("--manifest", required=True)
    v.add_argument("--state", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--no-resume", action="store_true",
                   help="recompute finished partitions instead of skipping")
    v.add_argument("--decode-fraction", type=float, default=None)
    v.add_argument("--quarantine", action="store_true",
                   help="also write violating rows' full payloads to "
                        "<out>/quarantine (dead-letter sink)")

    pl = sub.add_parser("pipeline",
                        help="fit -> validate -> report in one submission "
                             "(the single `ray job submit` entrypoint)")
    pl.add_argument("--manifest", required=True)
    pl.add_argument("--workdir", required=True,
                    help="holds reference_state/ and run/ outputs")
    pl.add_argument("--quarantine", action="store_true")
    pl.add_argument("--no-resume", action="store_true",
                    help="recompute finished partitions (required to add "
                         "quarantine output to an already-validated run)")
    pl.add_argument("--explain", action="store_true",
                    help="add bin-level drift attributions to report.json")
    pl.add_argument("--fdr", type=float, default=None, metavar="Q",
                    help="add the Benjamini-Hochberg section to report.json")
    pl.add_argument("--plots", action="store_true",
                    help="render the SVG figures into run/plots/")

    e = sub.add_parser("extend-reference",
                       help="merge new partitions into frozen reference state")
    e.add_argument("--manifest", required=True)
    e.add_argument("--state", required=True)
    e.add_argument("--partitions", required=True,
                   help="comma-separated partition ids to add")

    sw = sub.add_parser("score-window",
                        help="serving mode: score ONE window of image rows "
                             "against frozen reference state, now")
    sw.add_argument("--window", required=True,
                    help="parquet file or directory holding the window rows")
    sw.add_argument("--state", required=True, help="reference_state dir")
    sw.add_argument("--alpha", type=float, default=None,
                    help="per-request significance level override")

    r = sub.add_parser("report", help="summarize a validate output dir to JSON")
    r.add_argument("--out", required=True)
    r.add_argument("--path", default=None, help="write JSON here (default: stdout)")
    r.add_argument("--explain-state", default=None,
                   help="reference state dir: adds bin-level drift "
                        "attributions for flagged (partition, column)s")
    r.add_argument("--fdr", type=float, default=None, metavar="Q",
                   help="add a Benjamini-Hochberg section: q-values over "
                        "all drift-test p-values, flags surviving FDR Q")
    r.add_argument("--plots", action="store_true",
                   help="render SVG figures (per-column marginal "
                        "histograms, drift p-value heatmap) into "
                        "<out>/plots/ from the committed artifacts")

    c = sub.add_parser("compact", help="coalesce small fragments (OPTIMIZE)")
    c.add_argument("--manifest", required=True, help="table dir (manifest.json)")
    c.add_argument("--target-rows", type=int, default=1_000_000)
    c.add_argument("--gc", action="store_true",
                   help="also delete unreferenced old fragments (only when "
                        "no concurrent reader holds the old manifest)")

    cl = sub.add_parser("cluster", help="re-sort each partition by a key "
                                        "(CLUSTER BY) so zone maps prune")
    cl.add_argument("--manifest", required=True, help="table dir (manifest.json)")
    cl.add_argument("--by", default="phash")
    cl.add_argument("--target-rows", type=int, default=1_000_000)
    cl.add_argument("--gc", action="store_true",
                    help="also delete unreferenced old fragments (only when "
                         "no concurrent reader holds the old manifest)")

    args = p.parse_args(argv)

    if args.cmd == "gen-fixture":
        from .fixtures.gen import generate

        manifest = generate(args.dest, scale=args.scale, seed=args.seed,
                            parallel=True)
        print(json.dumps({"dest": args.dest, "scale": args.scale,
                          "partitions": len(manifest.partition_ids()),
                          "rows": sum(fr.rows for fr in manifest.fragments)}))
        return 0

    if args.cmd == "report":
        from .pipelines.report import (build_report, explain_drift,
                                       fdr_adjust, write_report)

        extra = ({"drift_explanations": explain_drift(
            args.out, args.explain_state)} if args.explain_state else None)
        if args.fdr is not None:
            extra = dict(extra or {})
            extra["fdr"] = fdr_adjust(args.out, q=args.fdr)
        if args.plots:
            from .pipelines.plots import write_plots

            extra = dict(extra or {})
            extra["plots"] = write_plots(args.out)
        if args.path:
            print(write_report(args.out, args.path, extra=extra))
        else:
            rep = build_report(args.out)
            rep.update(extra or {})
            print(json.dumps(rep, indent=2))
        return 0

    if args.cmd == "score-window":
        # serving path: every window runs fully in-process (no Ray session)
        from .pipelines.serve import score_window

        print(json.dumps(score_window(args.window, args.state,
                                      alpha=args.alpha), default=str))
        return 0

    ray = _ray_session(args.num_cpus)
    try:
        from .pipelines.config import EngineConfig

        if args.cmd == "fit":
            from .pipelines.fit import fit

            ref = fit(args.manifest, args.state, EngineConfig(),
                      reference_kinds=tuple(args.kinds.split(",")))
            print(json.dumps({"state": args.state,
                              "meta": {k: v for k, v in ref.meta.items()
                                       if not isinstance(v, (bytes, bytearray))}},
                             default=str))
            return 0

        if args.cmd == "compact":
            from .sources.fragmented import TableManifest, compact_fragments

            before = len(TableManifest.load(args.manifest).fragments)
            man = compact_fragments(args.manifest, target_rows=args.target_rows,
                                    gc=args.gc)
            print(json.dumps({"manifest": args.manifest,
                              "fragments_before": before,
                              "fragments_after": len(man.fragments),
                              "rows": man.num_rows}))
            return 0

        if args.cmd == "cluster":
            from .sources.fragmented import TableManifest, cluster_fragments

            before = len(TableManifest.load(args.manifest).fragments)
            man = cluster_fragments(args.manifest, by=args.by,
                                    target_rows=args.target_rows, gc=args.gc)
            print(json.dumps({"manifest": args.manifest, "by": args.by,
                              "fragments_before": before,
                              "fragments_after": len(man.fragments),
                              "rows": man.num_rows}))
            return 0

        if args.cmd == "pipeline":
            import os

            from .pipelines.fit import fit
            from .pipelines.report import (explain_drift, fdr_adjust,
                                           write_report)
            from .pipelines.validate import validate

            state_dir = os.path.join(args.workdir, "reference_state")
            out_dir = os.path.join(args.workdir, "run")
            cfg = EngineConfig(quarantine=args.quarantine)
            if not os.path.exists(os.path.join(state_dir,
                                               "reference_meta.json")):
                fit(args.manifest, state_dir, cfg)
            summary = validate(args.manifest, state_dir, out_dir, cfg,
                               resume=not args.no_resume)
            extra = ({"drift_explanations": explain_drift(out_dir, state_dir)}
                     if args.explain else None)
            if args.fdr is not None:
                extra = dict(extra or {})
                extra["fdr"] = fdr_adjust(out_dir, q=args.fdr)
            if args.plots:
                from .pipelines.plots import write_plots

                extra = dict(extra or {})
                extra["plots"] = write_plots(out_dir)
            report_path = write_report(out_dir, extra=extra)
            print(json.dumps({"summary": summary, "report": report_path},
                             default=str))
            return 0

        if args.cmd == "extend-reference":
            from .pipelines.fit import extend_reference

            ref = extend_reference(
                args.manifest, args.state,
                [int(p) for p in args.partitions.split(",")])
            print(json.dumps({
                "reference_partitions": ref.meta["reference_partitions"],
                "n_rows": ref.state.n_rows, "sigma": ref.sigma}))
            return 0

        if args.cmd == "validate":
            from .pipelines.validate import validate

            kw = {"quarantine": args.quarantine}
            if args.decode_fraction is not None:
                kw["decode_fraction"] = args.decode_fraction
            cfg = EngineConfig(**kw)
            summary = validate(args.manifest, args.state, args.out, cfg,
                               resume=not args.no_resume)
            print(json.dumps(summary, default=str))
            return 0
    finally:
        ray.shutdown()
    return 1


if __name__ == "__main__":
    sys.exit(main())
