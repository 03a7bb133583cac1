"""Per-layer probes for the traced run.

Each probe drives one engine layer from outside, through its public
functions, over the run's seeded inputs, and times it inside a span named
after the layer. ``probe_layers`` returns every per-layer metric of
BENCHMARK.json. The featurize kernels are timed inside the engine's own
stage; they must cover 90-110 % of its time, or the run is marked
incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import serverless_covariate_drift_detection_ray.stages.featurize as featurize_mod
from serverless_covariate_drift_detection_ray.functions.hashing import hash64
from serverless_covariate_drift_detection_ray.pipelines.fit import (
    merge_partials_table)
from serverless_covariate_drift_detection_ray.sources.fragmented import (
    TableManifest, read_images)
from serverless_covariate_drift_detection_ray.state.partials import PartialState
from serverless_covariate_drift_detection_ray.state.sketches import (
    CountMinSketch, HyperLogLog)

from perfbench.tables import (QUERY_SUBSET, TABLES, TABLES_DIR, oracle_sql,
                              same_frame, to_frame)

# featurize's kernels; the stage's own Python (its row loop, Arrow scalar
# reads, column to_numpy calls) is left unattributed, so
# featurize.kernel_coverage falls below 1 by that share
KERNELS = ("columns", "dims", "decode", "hist", "phash", "sketch", "encode")
# the names stages/featurize.py binds at import, timed as which kernel
FEATURIZE_NAMES = {"hash64": "columns", "probe_sorted": "columns",
                   "image_dims": "dims", "decode_image": "decode",
                   "phash_gray_small": "phash", "phash64_batch": "phash",
                   "phash_hamming": "phash"}
NUMPY_NAMES = {"bincount": "hist", "sqrt": "hist", "stack": "phash"}
# methods the stage calls on its sketch partials, timed on their classes
SKETCH_METHODS = ((PartialState, "__init__", "sketch"),
                  (PartialState, "update_numeric", "sketch"),
                  (PartialState, "add_sample", "sketch"),
                  (PartialState, "to_bytes", "encode"),
                  (HyperLogLog, "update", "sketch"),
                  (HyperLogLog, "update_hashes", "sketch"),
                  (CountMinSketch, "update", "sketch"))
# summary["stages"] of validate(); "drift" is left out because the drift
# checks run fused into the merge stage, so it always reads 0.00
VALIDATE_STAGES = ("featurize", "split", "constraints_join", "merge_partials",
                   "constraints", "commit_io", "commit", "bg_ids_read",
                   "bg_uniq_setup", "bg_neardup_setup")
COVERAGE_RANGE = (0.9, 1.1)
FEATURIZE_ROUNDS = 2


def _identity(batch: pa.Table) -> pa.Table:
    return batch


class KernelClock:
    """Wall seconds per kernel of the engine's featurize stage, taken by
    wrapping, for the duration of ``installed()``, the functions the stage
    calls. Only the outermost wrapped call counts, so a kernel that calls
    another is not counted twice."""

    def __init__(self):
        self.seconds = dict.fromkeys(KERNELS, 0.0)
        self._busy = False

    def wrap(self, kernel: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._busy:
                return fn(*args, **kwargs)
            self._busy = True
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[kernel] += clock() - t
                self._busy = False
        return timed

    @contextlib.contextmanager
    def installed(self):
        """Route featurize's calls through the timers; restore on exit."""
        patches = [(featurize_mod, name, self.wrap(kernel, getattr(
            featurize_mod, name))) for name, kernel in FEATURIZE_NAMES.items()]
        patches += [(featurize_mod, "np", _Module(np, {
            name: self.wrap(kernel, getattr(np, name))
            for name, kernel in NUMPY_NAMES.items()})),
            (featurize_mod, "pc", _Module(pc, wrap=self.wrap, kernel="columns")),
            (featurize_mod, "pa", _Module(pa, wrap=self.wrap, kernel="encode"))]
        patches += [(cls, name, self.wrap(kernel, getattr(cls, name)))
                    for cls, name, kernel in SKETCH_METHODS]
        # the histogram's moments are ``hist @ _LEVELS`` and
        # ``hist @ _LEVELS_SQ``: operands whose reflected matmul is timed
        rmatmul = self.wrap("hist", lambda a, b: np.matmul(b, a.view(np.ndarray)))
        levels = type("TimedLevels", (np.ndarray,), {"__rmatmul__": rmatmul})
        patches += [(featurize_mod, name, getattr(featurize_mod, name).view(levels))
                    for name in ("_LEVELS", "_LEVELS_SQ")]
        saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
        try:
            for obj, name, value in patches:
                setattr(obj, name, value)
            yield self
        finally:
            for obj, name, value in saved:
                setattr(obj, name, value)


class _Module:
    """A module seen through timers: the names in ``override``, or (with
    ``wrap``) every callable, are timed as ``kernel``."""

    def __init__(self, module, override: dict | None = None, wrap=None,
                 kernel: str = ""):
        self._module, self._wrap, self._kernel = module, wrap, kernel
        self.__dict__.update(override or {})

    def __getattr__(self, name: str):
        value = getattr(self._module, name)
        if self._wrap is not None and callable(value):
            value = self._wrap(self._kernel, value)
            setattr(self, name, value)
        return value


class Probe:
    def __init__(self, ctx):
        self.ctx = ctx
        self.cfg = ctx.cfg
        self.metrics: dict[str, dict] = {}
        self.manifest = TableManifest.load(ctx.fixture)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def span(self, name: str):
        return self.ctx.tracer.span(name)

    def timed(self, name: str, fn):
        """Run ``fn`` in span ``name``; returns (result, wall seconds)."""
        t = time.perf_counter()
        with self.span(name):
            out = fn()
        return out, time.perf_counter() - t

    # -- sources.fragmented + the Ray floor --------------------------------
    def sources(self) -> None:
        m = self.manifest
        _, s = self.timed("sources.fragmented.read_images",
                          lambda: read_images(m).materialize())
        self.put("sources.read_s", s, "s")
        self.ids_ds, s = self.timed(
            "sources.fragmented.read_images.ids",
            lambda: read_images(m, columns=["image_id", "phash",
                                            "partition_id"]).materialize())
        self.put("sources.ids_read_s", s, "s")
        _, s = self.timed("ray.identity_pass", lambda: read_images(m)
                          .map_batches(_identity, batch_format="pyarrow",
                                       zero_copy_batch=True,
                                       batch_size=self.cfg.batch_size)
                          .materialize())
        self.put("ray.identity_pass_s", s, "s")

    # -- stages.featurize and its kernels ----------------------------------
    def featurize(self) -> None:
        import ray

        cfg, m = self.cfg, self.manifest
        ids = pq.read_table(os.path.join(m.root, "truth",
                                         "manifest_ids.parquet"))["image_id"]
        hashes = np.sort(hash64(ids.to_numpy(zero_copy_only=False)
                                .astype(object)))
        stage = featurize_mod.FeaturizeAndSketch(cfg, {"ref": ray.put(hashes)})
        kernels = KernelClock()
        cpu = 0.0
        rows = 0
        covered = []  # per batch: kernel seconds / plain stage seconds
        batches = [tb.slice(off, cfg.batch_size) for tb in (
            pq.read_table(os.path.join(m.root, f.file)) for f in m.fragments)
            for off in range(0, tb.num_rows, cfg.batch_size)]
        stage(batches[0])  # first-call costs (lazy imports, constant tables)
        with self.span("stages.featurize.FeaturizeAndSketch"):
            for _ in range(FEATURIZE_ROUNDS):
                outs = []
                for batch in batches:
                    # each batch plain, then through the kernel timers, back
                    # to back, so host speed drift moves both alike
                    t, w = time.thread_time(), time.perf_counter()
                    outs.append(stage(batch))
                    w = time.perf_counter() - w
                    cpu += time.thread_time() - t
                    before = sum(kernels.seconds.values())
                    with kernels.installed():
                        timed = stage(batch)
                    covered.append((sum(kernels.seconds.values()) - before) / w)
                    if not timed.equals(outs[-1]):
                        self.ctx.errors.append("featurize output changed "
                                               "under the kernel timers")
                    rows += batch.num_rows
        reduced = pa.concat_tables(outs)
        partials = reduced.filter(pc.equal(reduced["kind"], "partial"))
        self.put("featurize.cpu_us_per_image", cpu / rows * 1e6, "us")
        self.put("featurize.partial_bytes",
                 sum(len(b) for b in partials["state"].to_pylist()), "bytes")
        self.put("featurize.violation_rows",
                 int(pc.sum(pc.equal(reduced["kind"], "violation")).as_py()),
                 "count")
        for name, seconds in kernels.seconds.items():
            self.put(f"kernel.{name}_us", seconds / rows * 1e6, "us")
        # kernels are timed on the wall clock (a thread-CPU clock read is a
        # system call, which slows the kernel it brackets), so the coverage
        # compares them with the plain stage's wall time, batch by batch
        self.coverage = statistics.median(covered)
        self.put("featurize.kernel_coverage", self.coverage, "ratio")
        self.partials = partials.select(["partition_id", "state", "n_rows"])

    # -- state.partials + pipelines.fit merge ------------------------------
    def merge(self) -> None:
        self.merged, walls, sizes = {}, [], []
        with self.span("state.partials.merge"):
            for pid in np.unique(self.partials["partition_id"].to_numpy()):
                sub = self.partials.filter(
                    pc.equal(self.partials["partition_id"], int(pid)))
                t = time.perf_counter()
                self.merged[int(pid)] = merge_partials_table(sub, self.cfg)
                walls.append(time.perf_counter() - t)
                sizes.append(len(self.merged[int(pid)].to_bytes()))
        self.put("merge.ms_per_partition", 1e3 * statistics.mean(walls), "ms")
        self.put("merge.state_bytes", statistics.mean(sizes), "bytes")

    # -- stages.drift / stages.checks --------------------------------------
    def drift(self) -> None:
        from serverless_covariate_drift_detection_ray.stages.drift import (
            DriftTestActor)

        loads = []
        for _ in range(3):
            tester, s = self.timed("stages.drift.load_reference",
                                   lambda: DriftTestActor(self.cfg,
                                                          self.ctx.ref_dir))
            loads.append(s)
        self.put("drift.ref_load_ms", 1e3 * statistics.median(loads), "ms")
        ts = self.cfg.freeze_time
        for name, chk in zip(self.cfg.drift_checks, tester.checks):
            walls = []
            with self.span(f"stages.checks.{name}"):
                for pid, ps in self.merged.items():
                    t = time.perf_counter()
                    chk.compare(pid, tester.ref, ps, self.cfg, ts)
                    walls.append(time.perf_counter() - t)
            self.put(f"check.{name}_ms", 1e3 * statistics.median(walls), "ms")

    # -- stages.constraints ------------------------------------------------
    def constraints(self) -> None:
        from serverless_covariate_drift_detection_ray.stages.constraints import (
            check_neardup, check_uniqueness)

        u, s = self.timed("stages.constraints.uniqueness",
                          lambda: check_uniqueness(self.ids_ds).materialize())
        self.put("constraints.uniqueness_s", s, "s")
        n, s = self.timed("stages.constraints.neardup",
                          lambda: check_neardup(self.ids_ds, self.cfg)
                          .materialize())
        self.put("constraints.neardup_s", s, "s")
        self.put("constraints.violation_rows", u.count() + n.count(), "count")

    # -- pipelines.validate + state.checkpoint -----------------------------
    def validate_and_checkpoint(self) -> None:
        from serverless_covariate_drift_detection_ray.state.checkpoint import (
            CheckpointStore, config_fingerprint)

        src = self.ctx.path("out", "probe")
        shutil.rmtree(src, ignore_errors=True)
        self.ctx.validate(src, resume=False)
        full = [s for s in self.ctx.summaries if s["partitions_skipped"] == 0]
        for st in VALIDATE_STAGES:
            self.put(f"validate.stage.{st}_s",
                     statistics.median(s["stages"][st] for s in full), "s")
        # what a pass is bound by: the featurize stage's share of its wall
        # time, and the share the featurize compute alone would take
        self.put("validate.featurize_share", statistics.median(
            s["stages"]["featurize"] / s["wall_s"] for s in full), "ratio")
        cpu_us = self.metrics["featurize.cpu_us_per_image"]["value"]
        self.put("validate.featurize_cpu_share", statistics.median(
            s["rows_processed"] * cpu_us * 1e-6 / s["wall_s"] for s in full),
            "ratio")

        cfg_hash = config_fingerprint(self.cfg)
        dst = self.ctx.path("out", "commit-probe")
        shutil.rmtree(dst, ignore_errors=True)
        store = CheckpointStore(dst)
        read = CheckpointStore(src)
        walls = []
        with self.span("state.checkpoint.commit_partition"):
            for pid in self.manifest.partition_ids():
                parts = {sub: pq.read_table(os.path.join(
                    src, sub, f"partition_id={pid}", f"{sub}.parquet"))
                    for sub in ("verdicts", "violations", "column_stats")}
                with open(os.path.join(src, "stats_blobs", f"{pid}.bin"),
                          "rb") as fh:
                    blob = fh.read()
                t = time.perf_counter()
                store.commit_partition(
                    partition_id=pid,
                    fragment_ids=self.manifest.fragments_of(pid),
                    verdicts=parts["verdicts"],
                    violations=parts["violations"],
                    column_stats=parts["column_stats"], stats_blob=blob,
                    wall_s=0.0, config_hash=cfg_hash)
                walls.append(time.perf_counter() - t)
        self.put("checkpoint.commit_ms_per_partition",
                 1e3 * statistics.mean(walls), "ms")
        self.put("checkpoint.bytes_written", sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, fs in os.walk(dst) for f in fs), "bytes")
        scans = []
        for _ in range(5):
            done, s = self.timed("state.checkpoint.finished_partitions",
                                 lambda: read.finished_partitions(cfg_hash))
            scans.append(s)
        if len(done) != len(self.manifest.partition_ids()):
            self.ctx.errors.append("finished_partitions missed some")
        self.put("checkpoint.finished_scan_ms",
                 1e3 * statistics.median(scans), "ms")

        self.resume(src)

    # committed files of one partition; column stats hold t-digest quantiles
    # and float sums, which the engine documents as dependent on the merge
    # tree (pipelines/fit.py, extend_reference)
    EXACT = ("verdicts/partition_id={p}/verdicts.parquet",
             "violations/partition_id={p}/violations.parquet")
    STATS = ("column_stats/partition_id={p}/column_stats.parquet",
             "stats_blobs/{p}.bin")
    STATS_EXACT_COLUMNS = ["partition_id", "column", "count", "null_count",
                           "min", "max", "distinct_est"]

    def resume(self, base: str) -> None:
        """A driver killed before it committed two partitions (the seed
        picks them): delete their lineage markers and data files from a copy
        of a finished output, then ``validate(resume=True)``. Verdicts and
        violations must come back byte-identical, and so must the
        exact-valued column stats; column-stat files that differ in any byte
        are counted."""
        out = self.ctx.path("out", "resume-probe")
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(base, out)
        rng = np.random.Generator(np.random.PCG64(self.ctx.seed))
        killed = sorted(int(p) for p in rng.choice(
            self.manifest.partition_ids(), 2, replace=False))
        for p in killed:
            os.remove(os.path.join(out, "lineage", f"{p}.json"))
            for rel in self.EXACT + self.STATS:
                os.remove(os.path.join(out, rel.format(p=p)))
        t = time.perf_counter()
        s = self.ctx.validate(out, resume=True)
        self.put("checkpoint.resume_s", time.perf_counter() - t, "s")
        errors = self.ctx.errors
        if s["partitions_processed"] != 2:
            errors.append(f"resume processed {s['partitions_processed']} "
                          "partitions, expected 2")

        def read(d: str, rel: str) -> bytes:
            with open(os.path.join(d, rel), "rb") as fh:
                return fh.read()

        mismatch = 0
        for p in killed:
            for rel in (r.format(p=p) for r in self.EXACT):
                if read(base, rel) != read(out, rel):
                    errors.append(f"resume: {rel} differs from the full pass")
            for rel in (r.format(p=p) for r in self.STATS):
                mismatch += read(base, rel) != read(out, rel)
            rel = self.STATS[0].format(p=p)
            a, b = (pq.read_table(os.path.join(d, rel)).select(
                self.STATS_EXACT_COLUMNS).to_pandas() for d in (base, out))
            if not a.equals(b):  # NaN-aware, unlike pa.Table.equals
                errors.append(f"resume: {rel} exact columns differ")
        self.put("checkpoint.resume_stats_mismatch_files", mismatch, "count")

    # -- pipelines.queries ---------------------------------------------------
    def queries(self) -> None:
        import ray.data

        import __ray_entry__ as entry

        tiny = pa.table({"x": np.arange(8)})
        floors = []
        for _ in range(3):
            _, s = self.timed("ray.query_floor", lambda: ray.data.from_arrow(
                tiny).map_batches(_identity, batch_format="pyarrow")
                .to_pandas())
            floors.append(s)
        floor = statistics.median(floors)
        self.put("query.floor_s", floor, "s")
        qs = entry.queries()
        results, walls = {}, {}
        for _ in range(2):  # the first pass fills the engine's caches
            for name in QUERY_SUBSET:
                results[name], walls[name] = self.timed(
                    f"query.{name}",
                    lambda: to_frame(qs[name](self.ctx.tables)))
        for name, s in walls.items():
            self.put(f"query.{name}_s", s, "s")
        self.put("query.above_floor_s",
                 statistics.median(s - floor for s in walls.values()), "s")
        self.check_queries(results)

    def check_queries(self, results: dict) -> None:
        """Every query with an ``oracle_sql()`` entry must match DuckDB."""
        import duckdb

        sql = oracle_sql()
        con = duckdb.connect()
        try:
            for name in TABLES:
                con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet("
                            f"'{os.path.join(self.ctx.tables, name)}.parquet')")
            checked = [n for n in results if n in sql]
            if not checked:
                self.ctx.errors.append("no probed query has an oracle")
            for name in checked:
                if not same_frame(results[name], con.execute(sql[name]).fetchdf()):
                    self.ctx.errors.append(
                        f"{name}: result differs from DuckDB")
        finally:
            con.close()


def probe_layers(ctx) -> dict:
    """Every per-layer metric, measured over the run's seeded inputs."""
    shutil.copytree(TABLES_DIR, ctx.tables)
    p = Probe(ctx)
    with ctx.tracer.span("layers"):
        p.sources()
        p.featurize()
        p.merge()
        p.drift()
        p.constraints()
        p.validate_and_checkpoint()
        p.queries()
    lo, hi = COVERAGE_RANGE
    if not lo <= p.coverage <= hi:
        ctx.errors.append(
            f"featurize.kernel_coverage {p.coverage:.3f} outside {lo}-{hi}")
    return p.metrics
