"""End-to-end: fixture → fit → validate → verdicts/violations/lineage.

Mirrors the reference's replication harness shape (ml/testing.py: one reference
window, a fan of corrupted variants, per-variant verdicts) — SURVEY.md §5.
"""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
from conftest import _executions, _schema_changes

from bench import _violations_digest
from serverless_covariate_drift_detection_ray.fixtures.gen import ensure_fixture
from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
from serverless_covariate_drift_detection_ray.pipelines.fit import fit
from serverless_covariate_drift_detection_ray.pipelines.validate import validate
from serverless_covariate_drift_detection_ray.sources.fragmented import TableManifest

ALPHA = 0.01


@pytest.fixture(scope="module")
def run(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    fix = ensure_fixture("tiny")
    cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                       quarantine=True)
    ref_dir = str(base / "refstate")
    out_dir = str(base / "out")
    fit(fix, ref_dir, cfg)
    summary = validate(fix, ref_dir, out_dir, cfg)
    manifest = TableManifest.load(fix)
    kinds = {pid: meta["kind"] for pid, meta in manifest.partitions.items()}
    verdicts = pd.concat([
        pq.read_table(f).to_pandas()
        for f in sorted(glob.glob(os.path.join(out_dir, "verdicts", "*", "*.parquet")))
    ])
    violations = pd.concat([
        pq.read_table(f).to_pandas()
        for f in sorted(glob.glob(os.path.join(out_dir, "violations", "*", "*.parquet")))
    ])
    truth = pq.read_table(os.path.join(fix, "truth", "violations.parquet")).to_pandas()
    return dict(fix=fix, cfg=cfg, ref_dir=ref_dir, out_dir=out_dir, summary=summary,
                kinds=kinds, verdicts=verdicts, violations=violations, truth=truth)


def _drift_checks(run, pid):
    v = run["verdicts"]
    return v[(v.partition_id == pid) & v.check.isin(["ks", "chi2", "mmd"])]


class TestDriftVerdicts:
    def test_reference_and_clean_partitions_pass(self, run):
        for pid, kind in run["kinds"].items():
            if kind in ("reference", "clean"):
                d = _drift_checks(run, pid)
                assert (d.p_value > ALPHA).all(), (pid, kind, d)

    def test_each_drift_kind_flagged_on_its_marginal(self, run):
        expect = {
            "drift-blur-2.0": ("ks", "pixel_std"),
            "drift-jitter-1.2": ("ks", "pixel_mean"),
            "drift-dims": ("ks", "w"),
            "drift-fmt": ("chi2", "fmt"),
            "drift-caption": ("ks", "caption_len"),
            "drift-struct": ("mmd", "phash_embedding"),
            "drift-elastic-2.0": ("mmd", "phash_embedding"),
        }
        for pid, kind in run["kinds"].items():
            if kind in expect:
                check, col = expect[kind]
                d = _drift_checks(run, pid)
                row = d[(d.check == check) & (d.column == col)].iloc[0]
                assert row.p_value <= ALPHA, (kind, row.p_value)
                assert not row.passed

    def test_pca_latent_check_clean_null_and_structural_power(self, run):
        """The pca_mmd check (encoder -> latent MMD, the reference's full
        detector lifecycle) must hold its null on every clean/reference
        partition and flag structural drift; blur/jitter power is owned by
        the pixel marginals and elastic by the full-dim mmd check."""
        v = run["verdicts"]
        d = v[v.check == "pca_mmd"].set_index("partition_id")
        assert len(d) == len(run["kinds"])  # one verdict per partition
        for pid, kind in run["kinds"].items():
            if kind in ("reference", "clean"):
                assert d.loc[pid].p_value > ALPHA, (pid, kind)
            if kind == "drift-struct":
                assert d.loc[pid].p_value <= ALPHA
                assert not d.loc[pid].passed

    def test_verdict_schema_matches_reference_contract(self, run):
        # alpha / distance(statistic) / p_value / is_drift(passed) / datetime —
        # cf. reference detector_api/app/detector.py:62-70
        cols = set(run["verdicts"].columns)
        assert {"partition_id", "check", "column", "statistic", "p_value",
                "alpha", "passed", "n_ref", "n_test", "datetime"} <= cols
        assert (run["verdicts"]["datetime"] == run["cfg"].freeze_time).all()


class TestViolations:
    def test_seeded_defects_all_caught(self, run):
        got = set(zip(run["violations"].image_id, run["violations"].check))
        for _, t in run["truth"].iterrows():
            assert (t.image_id, t.check) in got, (t.image_id, t.check)

    def test_no_spurious_violations_on_clean_partitions(self, run):
        viol_parts = {pid for pid, kind in run["kinds"].items()
                      if kind in ("reference", "clean")}
        extra = run["violations"][run["violations"].partition_id.isin(viol_parts)]
        assert len(extra) == 0, extra

    def test_violation_count_matches_truth(self, run):
        # every engine violation on the violations partition must be seeded
        assert len(run["violations"]) == len(run["truth"])

    def test_byte_stable_ordering(self, run):
        v = run["violations"].reset_index(drop=True)
        expected = v.sort_values(
            ["partition_id", "check", "image_id"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(v, expected)


class TestColumnStats:
    def test_counts_match_partition_sizes(self, run):
        manifest = TableManifest.load(run["fix"])
        stats = pd.concat([
            pq.read_table(f).to_pandas()
            for f in glob.glob(os.path.join(run["out_dir"], "column_stats", "*", "*.parquet"))
        ])
        sizes = {}
        for f in manifest.fragments:
            sizes[f.partition_id] = sizes.get(f.partition_id, 0) + f.rows
        for pid, n in sizes.items():
            wrow = stats[(stats.partition_id == pid) & (stats.column == "w")].iloc[0]
            assert wrow["count"] == n
            idrow = stats[(stats.partition_id == pid) & (stats.column == "image_id")].iloc[0]
            assert abs(idrow.distinct_est - n) / n < 0.15

    def test_caption_len_stats_sane(self, run):
        stats = pd.concat([
            pq.read_table(f).to_pandas()
            for f in glob.glob(os.path.join(run["out_dir"], "column_stats", "*", "*.parquet"))
        ])
        cl = stats[stats.column == "caption_len"]
        assert (cl["min"] >= 0).all()
        assert (cl["max"] <= 300).all()
        assert cl["p50"].between(5, 120).all()


class TestResume:
    def test_noop_resume(self, run):
        s = validate(run["fix"], run["ref_dir"], run["out_dir"], run["cfg"])
        assert s["partitions_processed"] == 0
        assert s["partitions_skipped"] == run["summary"]["partitions_total"]

    def test_partial_resume_recomputes_only_missing(self, run):
        out_dir = run["out_dir"]
        pid = 3
        before = pq.read_table(
            glob.glob(os.path.join(out_dir, "verdicts", f"partition_id={pid}", "*.parquet"))[0]
        ).to_pandas()
        os.remove(os.path.join(out_dir, "lineage", f"{pid}.json"))
        s = validate(run["fix"], run["ref_dir"], out_dir, run["cfg"])
        assert s["partitions_processed"] == 1
        after = pq.read_table(
            glob.glob(os.path.join(out_dir, "verdicts", f"partition_id={pid}", "*.parquet"))[0]
        ).to_pandas()
        pd.testing.assert_frame_equal(
            before.sort_values(["check", "column"]).reset_index(drop=True),
            after.sort_values(["check", "column"]).reset_index(drop=True),
        )


class TestRepartitionInvariance:
    def test_drift_statistics_invariant_to_batch_size(self, run, tmp_path_factory):
        base = tmp_path_factory.mktemp("inv")
        cfg2 = EngineConfig(freeze_time=run["cfg"].freeze_time, batch_size=64)
        out2 = str(base / "out2")
        validate(run["fix"], run["ref_dir"], out2, cfg2)
        v2 = pd.concat([
            pq.read_table(f).to_pandas()
            for f in sorted(glob.glob(os.path.join(out2, "verdicts", "*", "*.parquet")))
        ])
        key = ["partition_id", "check", "column"]
        a = run["verdicts"][run["verdicts"].check.isin(["ks", "chi2", "mmd"])]
        a = a.sort_values(key).reset_index(drop=True)
        b = v2[v2.check.isin(["ks", "chi2", "mmd"])].sort_values(key).reset_index(drop=True)
        assert np.allclose(a.statistic.to_numpy(), b.statistic.to_numpy(), atol=1e-12)
        assert np.allclose(a.p_value.to_numpy(), b.p_value.to_numpy(), atol=1e-12)


class TestReadLayout:
    def test_summary_records_read_blocks(self, run):
        """A run reports the layout it read with, and it follows the rule:
        min(max(fragments, CPUs), max(CPUs, ceil(rows / 1024))) images
        blocks, and no key read."""
        from serverless_covariate_drift_detection_ray.sources.fragmented import (
            cluster_cpus,
        )

        manifest = TableManifest.load(run["fix"])
        cpus = cluster_cpus()
        assert run["summary"]["read_blocks"] == {
            "images": min(max(len(manifest.fragments), cpus),
                          max(cpus, -(-manifest.num_rows // 1024))),
        }

    def test_block_layout_never_changes_an_answer(self, run, tmp_path_factory,
                                                  monkeypatch):
        """The manifest-sized layout and Ray's own split write byte-identical
        verdicts and violations: the checks read exact counts and hash-ranked
        samples, and both tables are sorted before they are written."""
        import pathlib

        from serverless_covariate_drift_detection_ray.pipelines import validate as V
        from serverless_covariate_drift_detection_ray.sources import fragmented as F

        base = tmp_path_factory.mktemp("layout")
        featurize = V.featurize_partials
        blocks = []  # featurize output blocks of each run: its read layout

        def counted(*a, **k):
            out = featurize(*a, **k)
            blocks.append(out.num_blocks())
            return out

        monkeypatch.setattr(V, "featurize_partials", counted)

        def run_once(name):
            out = str(base / name)
            s = validate(run["fix"], run["ref_dir"], out, run["cfg"],
                         resume=False)
            verdicts = {os.path.relpath(f, out): pathlib.Path(f).read_bytes()
                        for f in glob.glob(os.path.join(
                            out, "verdicts", "*", "*.parquet"))}
            return s, verdicts, _violations_digest(out)

        s_rule, verdicts_rule, digest_rule = run_once("rule")
        for mod in (F, V):  # override_num_blocks=None: Ray's own split
            monkeypatch.setattr(mod, "read_blocks", lambda *a, **k: None)
        s_auto, verdicts_auto, digest_auto = run_once("auto")
        # the images layouts really differ (Ray splits the tiny table finer)
        assert s_auto["read_blocks"]["images"] is None
        assert blocks[0] == s_rule["read_blocks"]["images"]
        assert blocks[1] != blocks[0]
        assert verdicts_rule and verdicts_rule == verdicts_auto
        assert digest_rule == digest_auto


class TestStreamedViolations:
    def test_streamed_path_matches_driver_path(self, run, tmp_path_factory, monkeypatch):
        """Above the driver thresholds, violations are written by a distributed
        per-partition writer; output must be byte-identical to the driver path."""
        from serverless_covariate_drift_detection_ray.pipelines import fit as F
        from serverless_covariate_drift_detection_ray.pipelines import validate as V

        monkeypatch.setattr(F, "REDUCED_DRIVER_MAX", 0)
        monkeypatch.setattr(V, "VIOLATIONS_DRIVER_MAX", 0)
        base = tmp_path_factory.mktemp("streamed")
        out2 = str(base / "out2")
        s = validate(run["fix"], run["ref_dir"], out2, run["cfg"])
        assert s["violations_streamed"] is True

        def load(out_dir, sub):
            return pd.concat([
                pq.read_table(f).to_pandas()
                for f in sorted(glob.glob(os.path.join(out_dir, sub, "*", "*.parquet")))
            ]).reset_index(drop=True)

        v1 = load(run["out_dir"], "violations")
        v2 = load(out2, "violations")
        pd.testing.assert_frame_equal(v1, v2)
        a = load(run["out_dir"], "verdicts")
        b = load(out2, "verdicts")
        pd.testing.assert_frame_equal(a, b)


class TestReportSink:
    def test_report_json_summarizes_run(self, run):
        import json

        from serverless_covariate_drift_detection_ray.pipelines.report import write_report

        path = write_report(run["out_dir"])
        with open(path) as fh:
            rep = json.load(fh)
        assert rep["partitions"] == run["summary"]["partitions_total"]
        assert rep["violations"]["total"] == len(run["violations"])
        assert rep["verdicts"]["total"] == len(run["verdicts"])
        drift_kinds = {pid for pid, k in run["kinds"].items() if k.startswith("drift")}
        assert drift_kinds <= set(rep["verdicts"]["drift_flagged_partitions"])
        assert rep["columns"]["w"]["rows"] > 0

    def test_fdr_section(self, run):
        """BH section over the committed verdicts: q-values match the pure
        kernel applied to the same p-values, and every reported flag is a
        real verdict row with q <= the requested level."""
        import numpy as np

        from serverless_covariate_drift_detection_ray.functions.stats import (
            bh_qvalues,
        )
        from serverless_covariate_drift_detection_ray.pipelines.report import (
            fdr_adjust,
        )

        sec = fdr_adjust(run["out_dir"], q=0.05)
        v = run["verdicts"]
        d = v[v.p_value.notna() & np.isfinite(v.p_value.to_numpy(float))]
        assert sec["m_tests"] == len(d)
        qv = bh_qvalues(d.p_value.to_numpy(float))
        assert sec["n_fdr_flags"] == int((qv <= 0.05).sum())
        keys = {(int(r.partition_id), str(r.check), str(r.column))
                for r in d.itertuples()}
        for f in sec["fdr_flagged"]:
            assert f["q_value"] <= 0.05
            assert (f["partition_id"], f["check"], f["column"]) in keys

    def test_svg_plot_sink(self, run):
        """SVG figures render from committed artifacts: well-formed XML,
        one histogram per drift marginal, heatmap cells == (partitions x
        check keys with p-values), x-glyphs == failed verdicts."""
        import xml.etree.ElementTree as ET

        from serverless_covariate_drift_detection_ray.pipelines.plots import (
            write_plots,
        )

        paths = write_plots(run["out_dir"])
        assert any(p.endswith("drift_heatmap.svg") for p in paths)
        hists = [p for p in paths if "/hist_" in p]
        assert hists  # at least one marginal histogram
        for p in paths:
            root = ET.parse(p).getroot()
            assert root.tag.endswith("svg")
        hm = next(p for p in paths if p.endswith("drift_heatmap.svg"))
        svg = open(hm).read()
        v = run["verdicts"]
        d = v[v.p_value.notna()]
        n_failed = int((~d.passed).sum())
        assert svg.count(">x</text>") == n_failed
        # every (partition, check:column) pair with a p-value has a cell
        n_cells = svg.count('rx="2" fill="#')  # data cells use the ramp
        assert n_cells >= len(d)




def _distributed_neardup(C, ds, cfg, sort_cols, caplog, monkeypatch):
    """``check_neardup_distributed``'s rows sorted by ``sort_cols``, its CC
    forced onto the distributed rounds, and the "different schema" records
    Ray logged meanwhile."""
    from serverless_covariate_drift_detection_ray.functions import graph

    monkeypatch.setattr(graph, "CC_DRIVER_MAX_EDGES", 0)
    out = []
    changes = _schema_changes(caplog, lambda: out.append(
        C.check_neardup_distributed(ds, cfg).to_pandas()))
    return out[0].sort_values(sort_cols).reset_index(drop=True), changes


class TestNeardupDistributedParity:
    def test_distributed_path_matches_driver_path(self, ray_session, caplog,
                                                  monkeypatch):
        """The at-scale near-dup path (keyed-exchange band shuffle and the
        distributed CC) must flag the same (image_id, cluster-size) facts
        as the driver-coordinated path on the same input, with no block
        schema change logged — forced via the row-count gate."""
        import pandas as pd

        from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
        from serverless_covariate_drift_detection_ray.sources.fragmented import read_images
        from serverless_covariate_drift_detection_ray.stages import constraints as C

        fix = ensure_fixture("tiny")
        manifest = TableManifest.load(fix)
        ds = read_images(manifest, columns=["image_id", "phash", "partition_id"]
                         ).materialize()
        cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000")
        sort_cols = ["image_id", "observed"]
        driver = C.check_neardup(ds, cfg).to_pandas().sort_values(
            sort_cols).reset_index(drop=True)
        dist, changes = _distributed_neardup(C, ds, cfg, sort_cols, caplog,
                                             monkeypatch)
        assert len(driver) > 0  # the fixture seeds near-dup clusters
        # BIT-IDENTICAL output contract: same rows, same cluster-%016x reps —
        # crossing the row-count gate must not change what a consumer sees
        pd.testing.assert_frame_equal(driver, dist)
        assert not changes, changes

    def test_chain_cluster_across_bands(self, ray_session, caplog,
                                        monkeypatch):
        """A cluster linked pair-by-pair through DIFFERENT bands (A-B close
        via one band, A-C via another; band buckets of size 2 each) must be
        assembled by the distributed path's GLOBAL connected components —
        the round-2 review found the old band-local CC dropped it."""
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data

        from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
        from serverless_covariate_drift_detection_ray.stages import constraints as C

        # A = 0, B flips bits {0, 42}, C flips bits {21, 63}: d(A,B)=d(A,C)=2,
        # d(B,C)=4 — a 3-chain via A only; plus far-away noise values
        A, B, Cv = 0, (1 | (1 << 42)), ((1 << 21) | (1 << 63))
        noise = [int(x) for x in
                 np.random.default_rng(3).integers(2**63 - 10**9, 2**63 - 1, 5)]
        phs = np.array([A, B, Cv] + noise, dtype=np.uint64).astype(np.int64)
        t = pa.table({
            "image_id": pa.array([f"img-{i:03d}" for i in range(phs.size)]),
            "phash": pa.array(phs),
            "partition_id": pa.array([0] * phs.size, pa.int32()),
        })
        ds = ray.data.from_arrow(t).repartition(3).materialize()
        cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                           neardup_hamming_max=2, neardup_min_cluster=3)
        sort_cols = ["image_id", "observed"]
        driver = C.check_neardup(ds, cfg).to_pandas().sort_values(
            sort_cols).reset_index(drop=True)
        dist, changes = _distributed_neardup(C, ds, cfg, sort_cols, caplog,
                                             monkeypatch)
        assert set(driver.image_id) == {"img-000", "img-001", "img-002"}
        pd.testing.assert_frame_equal(driver, dist)
        assert not changes, changes

    @pytest.mark.parametrize("with_edges", [True, False],
                             ids=["chain", "no_edges"])
    def test_distributed_cc_branch_and_singletons(self, ray_session, caplog,
                                                  monkeypatch, with_edges):
        """The distributed path's distributed CC must match the driver path;
        exact-dup singleton clusters (mult >= min_cluster, no edges) flag in
        both, also when no pair lies within hmax (an empty edge set). The
        public gate routes to the same distributed path."""
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data

        from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
        from serverless_covariate_drift_detection_ray.stages import constraints as C

        A, B, Cv = 0, (1 | (1 << 42)), ((1 << 21) | (1 << 63))
        dup = 2**64 - 2**62 - 12345  # exact-dup singleton (negative int64)
        far = 0x0F0F0F0F0F0F0F0F  # popcount 32: far from every other value
        chain = [A, B, Cv] if with_edges else [A, far ^ (2**64 - 1)]
        phs = np.array(chain + [dup, dup, dup, far],
                       dtype=np.uint64).astype(np.int64)
        t = pa.table({
            "image_id": pa.array([f"img-{i:03d}" for i in range(phs.size)]),
            "phash": pa.array(phs),
            "partition_id": pa.array([0] * phs.size, pa.int32()),
        })
        ds = ray.data.from_arrow(t).repartition(3).materialize()
        cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                           neardup_hamming_max=2, neardup_min_cluster=3)
        sort_cols = ["image_id", "observed"]

        def run(check):
            return check(ds, cfg).to_pandas().sort_values(
                sort_cols).reset_index(drop=True)

        driver = run(C.check_neardup)
        dist, changes = _distributed_neardup(C, ds, cfg, sort_cols, caplog,
                                             monkeypatch)
        monkeypatch.setattr(C, "NEARDUP_DRIVER_MAX", 0)
        gated = run(C.check_neardup)
        n = len(chain)
        assert set(driver.image_id) == {
            f"img-{i:03d}" for i in range(0 if with_edges else n, n + 3)}
        pd.testing.assert_frame_equal(driver, dist)
        pd.testing.assert_frame_equal(driver, gated)
        assert not changes, changes


    def test_hot_band_group_star_links_past_the_cap(self, ray_session,
                                                    caplog, monkeypatch):
        """A band group of more values than the hot-run cap pairs its
        smallest ``cap`` values all-pairs and checks each later value
        against the group's smallest: two values close only to that first
        value still join its cluster, on both paths."""
        import pandas as pd
        import pyarrow as pa
        import ray.data

        from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
        from serverless_covariate_drift_detection_ray.stages import constraints as C

        cap = 4
        monkeypatch.setattr(C, "HOT_RUN_CAP", cap)
        # all six share band 0 (bits 0-20 zero). The three after 0 are 3+
        # bits from everything; the last two differ from 0 in bands 1 and 2
        # (Hamming 2), so band 0 alone brings them to 0, and from each
        # other by 4.
        phs = [0] + [7 << (42 + 3 * k) for k in range(cap - 1)] + [
            (1 << 61) | (1 << 22), (1 << 62) | (1 << 21)]
        t = pa.table({
            "image_id": pa.array([f"img-{i:03d}" for i in range(len(phs))]),
            "phash": pa.array(phs, pa.int64()),
            "partition_id": pa.array([0] * len(phs), pa.int32()),
        })
        cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                           neardup_hamming_max=2, neardup_min_cluster=3)
        sort_cols = ["image_id", "observed"]
        driver = C.check_neardup(t, cfg).to_pandas().sort_values(
            sort_cols).reset_index(drop=True)
        dist, changes = _distributed_neardup(
            C, ray.data.from_arrow(t).repartition(3).materialize(), cfg,
            sort_cols, caplog, monkeypatch)
        assert list(driver.image_id) == ["img-000", "img-004", "img-005"]
        assert set(driver.observed) == {"cluster-%016x" % 0}
        pd.testing.assert_frame_equal(driver, dist)
        assert not changes, changes


class TestResumeConfigInvalidation:
    def test_config_change_invalidates_resume(self, ray_session, tmp_path):
        """Partitions committed under a different config must RERUN on
        resume — a changed drift-check set would otherwise serve stale
        verdicts (found via entry() returning pre-change check rows)."""
        from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
        from serverless_covariate_drift_detection_ray.pipelines.fit import fit
        from serverless_covariate_drift_detection_ray.pipelines.validate import validate

        fix = ensure_fixture("tiny")
        ref, out = str(tmp_path / "ref"), str(tmp_path / "out")
        cfg_a = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                             drift_checks=("ks",))
        fit(fix, ref, cfg_a)
        s1 = validate(fix, ref, out, cfg_a, resume=True)
        assert s1["partitions_processed"] > 0
        # same config: everything skips
        s2 = validate(fix, ref, out, cfg_a, resume=True)
        assert s2["partitions_processed"] == 0
        # changed check set: everything reruns, and the new check's rows land
        cfg_b = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                             drift_checks=("ks", "chi2"))
        s3 = validate(fix, ref, out, cfg_b, resume=True)
        assert s3["partitions_processed"] == s1["partitions_processed"]
        import glob

        import pandas as pd
        import pyarrow.parquet as pq

        vs = pd.concat([pq.read_table(f).to_pandas()
                        for f in glob.glob(f"{out}/verdicts/*/*.parquet")])
        assert (vs.check == "chi2").any()


def test_compacted_table_validates_identically(run, tmp_path_factory):
    """OPTIMIZE must be invisible to validation: fully compacting every
    partition's fragments and re-running fit + validate yields identical
    verdicts (same statistics, p-values, outcomes) and identical violation
    sets — fragment boundaries are physical layout, not semantics."""
    import shutil

    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        compact_fragments,
    )

    base = tmp_path_factory.mktemp("compacted")
    fix2 = str(base / "table")
    shutil.copytree(run["fix"], fix2)

    # the tiny fixture is already 1 fragment/partition: shatter each
    # fragment into 3 small ones first so compaction genuinely merges
    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        TableManifest,
        write_fragment,
    )

    man0 = TableManifest.load(fix2)
    nid = max(f.id for f in man0.fragments) + 1
    shattered = []
    for f in man0.fragments:
        t = pq.read_table(os.path.join(fix2, f.file))
        third = max(t.num_rows // 3, 1)
        for lo in range(0, t.num_rows, third):
            piece = t.slice(lo, third)
            import pyarrow as pa
            piece = piece.set_column(
                piece.column_names.index("fragment_id"), "fragment_id",
                pa.array([nid] * piece.num_rows, pa.int64()))
            shattered.append(write_fragment(fix2, nid, f.partition_id, piece))
            nid += 1
        os.remove(os.path.join(fix2, f.file))
    man0.fragments = shattered
    man0.save()
    assert len(TableManifest.load(fix2).fragments) >= 3 * len(man0.partitions)

    man = compact_fragments(fix2, target_rows=10**9)
    assert len(man.fragments) == len(man.partition_ids())

    ref2, out2 = str(base / "ref"), str(base / "out")
    fit(fix2, ref2, run["cfg"])
    validate(fix2, ref2, out2, run["cfg"])
    v2 = pd.concat([
        pq.read_table(f).to_pandas()
        for f in sorted(glob.glob(os.path.join(out2, "verdicts", "*", "*.parquet")))
    ])
    cols = ["partition_id", "check", "column", "passed", "statistic", "p_value"]
    a = run["verdicts"][cols].sort_values(cols).reset_index(drop=True)
    b = v2[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)

    viol2 = pd.concat([
        pq.read_table(f).to_pandas()
        for f in sorted(glob.glob(os.path.join(out2, "violations", "*", "*.parquet")))
    ])
    vcols = ["partition_id", "check", "image_id", "column"]
    pd.testing.assert_frame_equal(
        run["violations"][vcols].sort_values(vcols).reset_index(drop=True),
        viol2[vcols].sort_values(vcols).reset_index(drop=True))


def test_append_then_resume_validates_only_new(run, tmp_path_factory):
    """Incremental ingest: appending a new partition to an already-validated
    table and re-running validate processes ONLY the new partition — the
    lineage checkpoint turns a full re-run into an incremental one."""
    import shutil

    import pyarrow as pa

    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        write_fragment,
    )

    base = tmp_path_factory.mktemp("append")
    fix2 = str(base / "table")
    shutil.copytree(run["fix"], fix2)
    out2 = str(base / "out")
    s1 = validate(fix2, run["ref_dir"], out2, run["cfg"])
    n_done = s1["partitions_processed"]
    assert n_done > 0

    # append: clone partition 0's rows as a brand-new partition
    man = TableManifest.load(fix2)
    new_pid = max(man.partition_ids()) + 1
    new_fid = max(f.id for f in man.fragments) + 1
    src = pq.read_table(os.path.join(fix2, man.fragments[0].file))
    src = src.set_column(src.column_names.index("partition_id"), "partition_id",
                         pa.array(np.full(src.num_rows, new_pid, np.int32)))
    src = src.set_column(src.column_names.index("fragment_id"), "fragment_id",
                         pa.array(np.full(src.num_rows, new_fid, np.int64)))
    man.fragments.append(write_fragment(fix2, new_fid, new_pid, src))
    man.partitions[new_pid] = {"kind": "appended-clean"}
    man.save()

    s2 = validate(fix2, run["ref_dir"], out2, run["cfg"])
    assert s2["partitions_processed"] == 1
    assert s2["partitions_skipped"] == n_done
    vfiles = glob.glob(os.path.join(out2, "verdicts",
                                    f"partition_id={new_pid}", "*.parquet"))
    assert vfiles, "appended partition produced no verdicts"
    v = pq.read_table(vfiles[0]).to_pandas()
    assert set(v.partition_id) == {new_pid}
    assert len(v) > 0


class TestQuarantine:
    def test_quarantine_holds_exactly_the_violating_rows(self, run):
        """The dead-letter sink re-materializes every violating row with its
        FULL payload (bytes included), exactly once per violating id."""
        import glob
        import os

        import pandas as pd
        import pyarrow.parquet as pq

        qdir = os.path.join(run["out_dir"], "quarantine")
        files = sorted(glob.glob(os.path.join(qdir, "*", "*.parquet")))
        assert files, "quarantine directory missing/empty"
        q = pd.concat([pq.read_table(f).to_pandas() for f in files])
        assert set(q.image_id) == set(run["violations"].image_id)
        # PK-duplicate defects legitimately quarantine MULTIPLE physical
        # rows per id (the duplicates ARE the violation) — every physical
        # row carrying a violating id must be present
        # full payload, not just ids
        assert {"bytes", "fmt", "caption", "phash"} <= set(q.columns)
        assert run["summary"]["quarantined"] == len(q)


def test_extend_reference_equals_joint_fit(ray_session, run, tmp_path_factory):
    """extend_reference(fit(reference), clean) must equal
    fit(reference + clean) bit-for-bit — the mergeable-sketch associativity
    contract, exercised through the public refit loop."""
    import os

    from serverless_covariate_drift_detection_ray.pipelines.fit import (
        extend_reference,
        fit,
    )
    from serverless_covariate_drift_detection_ray.state.reference import (
        ReferenceState,
    )

    base = tmp_path_factory.mktemp("extend")
    clean = [pid for pid, kind in run["kinds"].items() if kind == "clean"]

    joint_dir = str(base / "joint")
    fit(run["fix"], joint_dir, run["cfg"],
        reference_kinds=("reference", "clean"))

    ext_dir = str(base / "ext")
    fit(run["fix"], ext_dir, run["cfg"])  # reference only
    ext = extend_reference(run["fix"], ext_dir, clean, run["cfg"])

    joint = ReferenceState.load(joint_dir)
    # exact-mergeable state must match bit-for-bit; t-digest centroids are
    # merge-TREE-dependent by construction (standard t-digest), so digests
    # are held to quantile closeness instead
    import numpy as np

    a, b = ext.state, joint.state
    assert a.n_rows == b.n_rows
    assert (a.sample_keys == b.sample_keys).all()
    assert (a.sample_phash == b.sample_phash).all()
    assert (a.fmt_counts == b.fmt_counts).all()
    for c in a.hists:
        assert (a.hists[c].counts == b.hists[c].counts).all(), c
        st_a, st_b = a.stats[c], b.stats[c]
        assert (st_a.count, st_a.nulls, st_a.minv, st_a.maxv) == (
            st_b.count, st_b.nulls, st_b.minv, st_b.maxv), c
        # running float sums are merge-tree-dependent at the ulp level
        assert np.isclose(st_a.sum, st_b.sum, rtol=1e-12), c
        assert np.isclose(st_a.sumsq, st_b.sumsq, rtol=1e-12), c
        for q in (0.25, 0.5, 0.75, 0.95):
            qa, qb = a.digests[c].quantile(q), b.digests[c].quantile(q)
            scale = max(abs(st_a.maxv - st_a.minv), 1e-9)
            assert abs(qa - qb) <= 0.02 * scale, (c, q, qa, qb)
    assert (a.id_hll.registers == b.id_hll.registers).all()
    assert (a.phash_hll.registers == b.phash_hll.registers).all()
    assert (a.caption_cms.table == b.caption_cms.table).all()
    assert ext.sigma == joint.sigma
    assert (sorted(ext.meta["reference_partitions"])
            == sorted(joint.meta["reference_partitions"]))
    # double-extend refuses (idempotence guard)
    import pytest as _pytest

    with _pytest.raises(ValueError):
        extend_reference(run["fix"], ext_dir, clean, run["cfg"])


def test_explain_drift_attributes_flagged_columns(ray_session, run):
    """explain_drift yields bin/category attributions for every
    (partition, column) a KS/Chi² verdict flagged, ranked by |share delta|,
    and the jitter partition's pixel_mean attribution shows mass moving
    toward the shifted side (test_share > ref_share on its top gained bin)."""
    from serverless_covariate_drift_detection_ray.pipelines.report import (
        explain_drift,
    )

    exp = explain_drift(run["out_dir"], run["ref_dir"])
    v = run["verdicts"]
    bad = v[(~v.passed) & v.check.isin(["ks", "chi2"])]
    for _, r in bad.iterrows():
        assert r.column in exp[str(int(r.partition_id))], (
            r.partition_id, r.column)
    for pid_cols in exp.values():
        for rows in pid_cols.values():
            deltas = [abs(x["delta"]) for x in rows]
            assert deltas == sorted(deltas, reverse=True)
    jitter = [pid for pid, k in run["kinds"].items() if k == "drift-jitter-1.2"]
    if jitter:
        # brightness jitter moves real mass: the top attribution is a
        # substantial share change on pixel_mean (a gain may rank below
        # the vacated reference bins when the shift spreads across bins)
        rows = exp[str(jitter[0])]["pixel_mean"]
        assert abs(rows[0]["delta"]) > 0.02



def test_streamed_violations_path_quarantines_identically(
        run, tmp_path_factory, monkeypatch):
    """Forcing the groupby side of the violations size gate
    (VIOLATIONS_DRIVER_MAX=0) must produce the SAME dead-letter rows as the
    driver collect: both sides feed the same per-partition violation files
    to the one quarantine job."""
    import glob
    import hashlib

    from serverless_covariate_drift_detection_ray.pipelines import (
        validate as vmod,
    )

    out2 = str(tmp_path_factory.mktemp("qstream") / "out")
    monkeypatch.setattr(vmod, "VIOLATIONS_DRIVER_MAX", 0)
    s2 = vmod.validate(run["fix"], run["ref_dir"], out2, run["cfg"],
                       resume=False)
    assert s2["violations_streamed"] is True
    assert s2["quarantined"] == run["summary"]["quarantined"] > 0

    def load_rows(out_dir):
        rows = []
        for f in sorted(glob.glob(os.path.join(out_dir, "quarantine",
                                               "*", "*.parquet"))):
            pid = int(f.split("partition_id=")[1].split(os.sep)[0])
            df = pq.read_table(f).to_pandas()
            for r in df.itertuples(index=False):
                rows.append((pid, r.image_id, r.fmt, r.w, r.h, r.caption,
                             r.phash, hashlib.sha256(r.bytes).hexdigest()))
        return sorted(rows)

    assert load_rows(run["out_dir"]) == load_rows(out2)


def test_score_window_matches_batch_verdicts(run):
    """Serving shim parity: score_window over one partition's fragment must
    emit BIT-IDENTICAL drift verdicts to the batch pipeline's rows for that
    partition (same kernels, same seeded permutation RNG), plus the same
    violation ids."""
    from serverless_covariate_drift_detection_ray.pipelines.serve import score_window
    from serverless_covariate_drift_detection_ray.sources.fragmented import TableManifest

    manifest = TableManifest.load(run["fix"])
    pid = next(p for p, k in run["kinds"].items() if k == "drift-blur-2.0")
    frag = next(f for f in manifest.fragments if f.partition_id == pid)

    res = score_window(os.path.join(run["fix"], frag.file),
                       run["ref_dir"], run["cfg"])
    assert res["n_rows"] == frag.rows and res["is_drift"]

    served = {(c["check"], c["column"]):
              (c["distance"], c["p_value"], c["is_drift"], c["datetime"])
              for c in res["checks"]}
    v = run["verdicts"]
    batch = v[(v.partition_id == pid) & v.check.isin(
        {c for c, _ in served})]
    assert len(batch) == len(served) > 0
    for r in batch.itertuples(index=False):
        d, p, drift, ts = served[(r.check, r.column)]
        assert d == r.statistic and p == r.p_value, (r.check, r.column)
        assert drift == (not r.passed) and ts == r.datetime

    # alpha is a per-request override (the reference's request field)
    strict = score_window(os.path.join(run["fix"], frag.file),
                          run["ref_dir"], run["cfg"], alpha=1e-9)
    assert all(c["alpha"] == 1e-9 for c in strict["checks"])


def test_score_window_runs_no_ray_data_execution(run, monkeypatch):
    """A served window runs in-process at any size: scoring a fragment
    starts no Ray Data execution."""
    from serverless_covariate_drift_detection_ray.pipelines.serve import score_window

    manifest = TableManifest.load(run["fix"])
    pid = next(p for p, k in run["kinds"].items() if k == "violations")
    frag = next(f for f in manifest.fragments if f.partition_id == pid)
    res = []
    assert _executions(monkeypatch, lambda: res.append(score_window(
        os.path.join(run["fix"], frag.file), run["ref_dir"],
        run["cfg"]))) == []
    assert res[0]["violations"] and res[0]["checks"]


def test_drift_checks_on_a_pool_equal_sequential(run):
    """With a thread pool every check's ``compare`` runs as its own task;
    each seeds its own RNG, so the rows equal the sequential ones, in
    check order."""
    import dataclasses
    import json
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.compute as pc

    from serverless_covariate_drift_detection_ray.pipelines.fit import (
        merge_partials_table)
    from serverless_covariate_drift_detection_ray.stages.checks import (
        CHECK_REGISTRY)
    from serverless_covariate_drift_detection_ray.stages.drift import (
        DriftTestActor)
    from serverless_covariate_drift_detection_ray.stages.featurize import (
        FeaturizeAndSketch)

    cfg = dataclasses.replace(run["cfg"], drift_checks=tuple(CHECK_REGISTRY))
    manifest = TableManifest.load(run["fix"])
    pid = next(p for p, k in run["kinds"].items() if k == "drift-blur-2.0")
    frag = next(f for f in manifest.fragments if f.partition_id == pid)
    out = FeaturizeAndSketch(cfg)(pq.read_table(os.path.join(run["fix"],
                                                             frag.file)))
    state = merge_partials_table(
        out.filter(pc.equal(out["kind"], "partial")), cfg)
    tester = DriftTestActor(cfg, run["ref_dir"])
    want = tester.verdicts_for_partition(pid, state)
    with ThreadPoolExecutor(4) as pool:
        got = tester.verdicts_for_partition(pid, state, pool)
    assert json.dumps(got) == json.dumps(want)
    checks = [r["check"] for r in want]
    assert sorted(set(checks), key=checks.index) == list(CHECK_REGISTRY)


def test_score_window_from_two_threads_equals_serial(run):
    """Windows scored from two threads at once share the one scoring pool
    and return what each returns scored alone."""
    import json
    import sys
    import threading

    from serverless_covariate_drift_detection_ray.pipelines.serve import score_window

    manifest = TableManifest.load(run["fix"])
    paths = [os.path.join(run["fix"], next(
        f.file for f in manifest.fragments
        if run["kinds"][f.partition_id] == kind))
        for kind in ("violations", "drift-blur-2.0")]

    def score(path: str) -> str:
        return json.dumps(score_window(path, run["ref_dir"], run["cfg"]),
                          sort_keys=True)

    serial = [score(p) for p in paths]
    got: dict[int, list[str]] = {}
    threads = [threading.Thread(target=lambda k=k: got.__setitem__(
        k, [score(paths[k]) for _ in range(3)])) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two callers finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {k: [serial[k]] * 3 for k in range(2)}


def _fragment_path(run, kind: str) -> str:
    manifest = TableManifest.load(run["fix"])
    return os.path.join(run["fix"], next(
        f.file for f in manifest.fragments
        if run["kinds"][f.partition_id] == kind))


def test_score_window_loads_the_reference_once(run, monkeypatch):
    """Windows in a row share the process's cached drift tester: the
    reference state is read and decoded for the first window only."""
    from serverless_covariate_drift_detection_ray.pipelines.serve import score_window
    from serverless_covariate_drift_detection_ray.stages import drift

    built = []

    class Counted(drift.DriftTestActor):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(drift, "DriftTestActor", Counted)
    monkeypatch.setattr(drift, "_WORKER_CACHE", {})
    for kind in ("violations", "drift-blur-2.0"):
        score_window(_fragment_path(run, kind), run["ref_dir"], run["cfg"])
    assert built == [(run["cfg"], run["ref_dir"])]


def test_score_window_follows_an_extended_reference(run, tmp_path):
    """After ``extend_reference`` rewrites the reference in place, the next
    served window tests against the extended state, not the cached one."""
    import shutil

    from serverless_covariate_drift_detection_ray.pipelines.fit import (
        extend_reference)
    from serverless_covariate_drift_detection_ray.pipelines.serve import score_window

    ref_dir = str(tmp_path / "ref")
    shutil.copytree(run["ref_dir"], ref_dir)
    path = _fragment_path(run, "drift-blur-2.0")
    before = score_window(path, ref_dir, run["cfg"])
    clean = [pid for pid, kind in run["kinds"].items() if kind == "clean"]
    ext = extend_reference(run["fix"], ref_dir, clean, run["cfg"])
    after = score_window(path, ref_dir, run["cfg"])
    assert before["n_ref"] < after["n_ref"] == ext.state.n_rows


def test_warm_drift_workers_reload_an_extended_reference(run, tmp_path):
    """The merge stripes' drift cache follows the stored reference: after
    ``extend_reference`` rewrites the reference in place, warm workers test
    against the extended window, not the state they loaded before."""
    import dataclasses
    import shutil

    from serverless_covariate_drift_detection_ray.pipelines.fit import (
        extend_reference)

    cfg = dataclasses.replace(run["cfg"], quarantine=False)
    ref_dir = str(tmp_path / "ref")
    shutil.copytree(run["ref_dir"], ref_dir)
    for k in range(2):  # every worker warms its cache on the old state
        validate(run["fix"], ref_dir, str(tmp_path / f"warm{k}"), cfg,
                 resume=False)
    clean = [pid for pid, kind in run["kinds"].items() if kind == "clean"]
    ext = extend_reference(run["fix"], ref_dir, clean, cfg)
    out = str(tmp_path / "after")
    validate(run["fix"], ref_dir, out, cfg, resume=False)
    v = pd.concat([pq.read_table(f).to_pandas() for f in glob.glob(
        os.path.join(out, "verdicts", "*", "*.parquet"))])
    ks = v[v.check == "ks"]
    assert ks.partition_id.nunique() == len(run["kinds"])
    want = {c: ext.state.hists[c].total for c in cfg.marginals}
    assert want["w"] == ext.state.n_rows
    assert {(r.column, r.n_ref) for r in ks.itertuples()} == set(want.items())


def _verdict_files(out_dir: str) -> dict:
    return {os.path.relpath(f, out_dir): open(f, "rb").read()
            for f in glob.glob(os.path.join(out_dir, "verdicts", "*",
                                            "*.parquet"))}


def test_fit_and_validate_finish_on_one_cpu(run, tmp_path):
    """fit() and validate() need no CPU beyond the one a featurize task
    runs on: under ray.init(num_cpus=1) both finish and commit the same
    verdict files and violations as this 4-CPU session."""
    import signal
    import subprocess
    import sys
    import textwrap

    out = str(tmp_path / "out")
    script = textwrap.dedent(f"""
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=200 * 2**20)
        from serverless_covariate_drift_detection_ray.pipelines.config import (
            EngineConfig)
        from serverless_covariate_drift_detection_ray.pipelines.fit import fit
        from serverless_covariate_drift_detection_ray.pipelines.validate import (
            validate)
        cfg = EngineConfig(freeze_time={run["cfg"].freeze_time!r},
                           quarantine=True)
        fit({run["fix"]!r}, {str(tmp_path / "ref")!r}, cfg)
        validate({run["fix"]!r}, {str(tmp_path / "ref")!r}, {out!r}, cfg,
                 resume=False)
        ray.shutdown()
    """)
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env, start_new_session=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        log, _ = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("fit + validate did not finish in 180 s on one CPU")
    assert proc.returncode == 0, log[-4000:]
    one_cpu = _verdict_files(out)
    assert one_cpu and one_cpu == _verdict_files(run["out_dir"])
    assert _violations_digest(out) == _violations_digest(run["out_dir"])


def test_jpeg_partition_lossy_path_end_to_end(run):
    """The 'jpeg' partition carries REAL baseline-JPEG rows through the whole
    validation DAG: every byte decodes, dims match, the stored phash matches
    the decoded pixels within the lossy tolerance (hamming 0 by construction
    — phash is stored from the decoded bytes), and the fmt marginal's chi2
    check flags the (intentional) format drift vs the reference mix."""
    pid = next((p for p, k in run["kinds"].items() if k == "jpeg"), None)
    assert pid is not None, "tiny fixture should include a jpeg partition"
    v = run["violations"]
    bad = v[(v.partition_id == pid) & v.check.isin(
        ["decode_ok", "decodable", "dims_match_decoded",
         "phash_match_decoded", "fmt_in_domain", "bytes_nonempty"])]
    assert len(bad) == 0, bad.head()
    d = run["verdicts"]
    fmt_chi2 = d[(d.partition_id == pid) & (d.check == "chi2")
                 & (d.column == "fmt")]
    assert len(fmt_chi2) == 1 and not fmt_chi2.passed.iloc[0]
    # and the rows really are jpeg: decode one through the public codec
    import glob

    from serverless_covariate_drift_detection_ray.functions.codec import decode_image

    frag = sorted(glob.glob(os.path.join(run["fix"], "fragment-*.parquet")))
    from serverless_covariate_drift_detection_ray.sources.fragmented import TableManifest

    man = TableManifest.load(run["fix"])
    f = next(f for f in man.fragments if f.partition_id == pid)
    t = pq.read_table(os.path.join(run["fix"], f.file))
    assert set(t["fmt"].to_pylist()) == {"jpeg"}
    row = t.slice(0, 1).to_pylist()[0]
    img = decode_image(row["bytes"], "jpeg")
    assert img.shape[:2] == (row["h"], row["w"])


# the driver caps test_no_schema_records forces to 0, by the module that
# reads each; "neardup" forces the distributed split too, since only a
# Dataset of keys reaches NEARDUP_DRIVER_MAX
_FORCED = {
    "driver": [],
    "distributed": [("fit", "REDUCED_DRIVER_MAX")],
    "violations": [("validate", "VIOLATIONS_DRIVER_MAX")],
    "neardup": [("fit", "REDUCED_DRIVER_MAX"),
                ("constraints", "NEARDUP_DRIVER_MAX")],
}


class TestOneScan:
    """validate() scans the image files once: featurize emits the
    constraint keys, the checks run on them, and nothing reads the table
    again."""

    # summary["stages"] keys, which perfbench/layers.py VALIDATE_STAGES reads
    STAGES = {"featurize", "split", "bg_ids_read", "bg_uniq_setup",
              "bg_neardup_setup", "constraints_join", "constraints",
              "merge_partials", "drift", "commit_io", "quarantine", "commit"}

    def test_stage_keys(self, run):
        assert set(run["summary"]["stages"]) == self.STAGES

    def test_one_image_file_read(self, run, tmp_path, monkeypatch):
        """A fresh pass runs one Ray Data execution, the featurize pass:
        one ReadParquet operator, and read_images is never asked for key
        columns."""
        from serverless_covariate_drift_detection_ray.pipelines import validate as V

        reads, read_images = [], V.read_images

        def counted_read(*a, **k):
            reads.append(k.get("columns"))
            return read_images(*a, **k)

        monkeypatch.setattr(V, "read_images", counted_read)
        plans = _executions(monkeypatch, lambda: validate(
            run["fix"], run["ref_dir"], str(tmp_path / "out"), run["cfg"],
            resume=False))
        reads_parquet = [op for ops in plans for op in ops
                         if "ReadParquet" in op]
        assert reads_parquet == ["ReadParquet->MapBatches(featurize_task)"]
        assert len(plans) == 1
        assert reads == [None]

    def test_distributed_split_writes_same_answers(self, run, tmp_path,
                                                   monkeypatch):
        """Past REDUCED_DRIVER_MAX the keys stay a Dataset and take the
        checks' Dataset paths and the union, and the partials merge in a
        key shuffle on partition_id whose buckets run the stripe kernel,
        drift checks included; the verdict files, the violations and the
        stats blobs are byte-identical to the driver side's (a bucket
        merges each partition's partials in the order the stripes do)."""
        from serverless_covariate_drift_detection_ray.pipelines import fit as F

        monkeypatch.setattr(F, "REDUCED_DRIVER_MAX", 0)
        out = str(tmp_path / "out")
        validate(run["fix"], run["ref_dir"], out, run["cfg"], resume=False)
        assert _verdict_files(out) == _verdict_files(run["out_dir"])
        assert _violations_digest(out) == _violations_digest(run["out_dir"])

        def blobs(d: str) -> dict:
            return {os.path.relpath(f, d): open(f, "rb").read()
                    for f in glob.glob(os.path.join(d, "stats_blobs", "**",
                                                    "*"), recursive=True)
                    if os.path.isfile(f)}
        assert blobs(out) and blobs(out) == blobs(run["out_dir"])

    @pytest.mark.parametrize(
        "scale,forced", [(s, k) for s in ("tiny", "small") for k in _FORCED],
        ids=[*_FORCED, *(f"small-{k}" for k in _FORCED)])
    def test_no_schema_records(self, run, tmp_path, caplog, monkeypatch,
                               scale, forced):
        """fit + validate(resume=False) hand Ray no block whose schema
        differs from its operator's, on ``tiny`` and ``small``, by default
        and with each driver cap forced to 0 (``_FORCED``)."""
        from serverless_covariate_drift_detection_ray.pipelines import fit as F
        from serverless_covariate_drift_detection_ray.pipelines import validate as V
        from serverless_covariate_drift_detection_ray.stages import constraints as C

        mods = {"fit": F, "validate": V, "constraints": C}
        for mod, name in _FORCED[forced]:
            monkeypatch.setattr(mods[mod], name, 0)
        fix = run["fix"] if scale == "tiny" else ensure_fixture(scale)
        ref = str(tmp_path / "ref")

        def both():
            fit(fix, ref, run["cfg"])
            validate(fix, ref, str(tmp_path / "out"), run["cfg"],
                     resume=False)

        assert _schema_changes(caplog, both) == []

    def test_global_data_context_untouched(self, run, tmp_path, monkeypatch):
        """featurize's block-size hint and output order go on its own
        Dataset's context copy, never on the global one (set to values of
        the test's own first, so an earlier run cannot hide a leak)."""
        from ray.data import DataContext

        ctx = DataContext.get_current()
        monkeypatch.setattr(ctx, "target_max_block_size", 96 << 20)
        monkeypatch.setattr(ctx.execution_options, "preserve_order", False)
        fit(run["fix"], str(tmp_path / "ref"), run["cfg"])
        validate(run["fix"], str(tmp_path / "ref"), str(tmp_path / "out"),
                 run["cfg"], resume=False)
        ctx = DataContext.get_current()
        assert ctx.target_max_block_size == 96 << 20
        assert ctx.execution_options.preserve_order is False


def test_stats_blobs_repeat_byte_for_byte(ray_session, tmp_path):
    """Two validate(resume=False) passes over ``small`` commit the same
    stats blobs and column stats, byte for byte: the sketch merge is
    order-sensitive, and its partials arrive in read order."""
    fix = ensure_fixture("small")
    cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000")
    ref = str(tmp_path / "ref")
    fit(fix, ref, cfg)

    def committed(out: str) -> dict:
        validate(fix, ref, out, cfg, resume=False)
        return {os.path.relpath(f, out): open(f, "rb").read()
                for sub in ("stats_blobs", "column_stats")
                for f in glob.glob(os.path.join(out, sub, "**", "*"),
                                   recursive=True) if os.path.isfile(f)}

    first = committed(str(tmp_path / "a"))
    assert len(first) >= 2 * len(TableManifest.load(fix).partition_ids())
    assert committed(str(tmp_path / "b")) == first
