"""The benchmark's workloads, driven through the engine's public API.

Each workload has the same shape:

* ``prepare``  – input synthesis from the seed (untimed, not a metric);
* ``setup``    – the timed part of set-up that follows Ray start
  (reference ``fit()`` and one warm-up operation);
* ``before`` / ``op`` / ``after`` – one operation; only ``op`` is timed,
  ``after`` checks its output;
* ``finish``   – correctness checks over the whole run (untimed).

``op`` returns the number of images it processed.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from bench import _violations_digest
from serverless_covariate_drift_detection_ray.fixtures import gen
from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
from serverless_covariate_drift_detection_ray.pipelines.fit import fit

SCALE = "perfbench"
# every partition kind of the bench layout, one fragment each
LAYOUT = [("reference", 1), ("clean", 1), ("drift-blur-2.0", 1),
          ("drift-jitter-1.2", 1), ("drift-dims", 1), ("drift-fmt", 1),
          ("drift-caption", 1), ("violations", 1), ("drift-struct", 1)]
DIMS = (96, 160)  # bench payload sizes, ~20 KB per image
SIZES = {
    "full": {"rows_per_fragment": 288, "window_rows": 256},
    # smallest size at which every seeded defect kind occurs (rows // 25 >= 6)
    "smoke": {"rows_per_fragment": 150, "window_rows": 128},
}
# checks whose engine output matches the generator's truth rows one to one
ALIGNED_CHECKS = ("referential_image_id", "dims_match_decoded",
                  "fmt_in_domain", "bytes_nonempty", "caption_nonnull")
DOMAIN_CHECKS = ALIGNED_CHECKS[1:]
FIT_REPEATS = 3


class Context:
    """Paths, sizes and config shared by a run's workload and layer probes."""

    def __init__(self, run_dir: str, seed: int, size: str, tracer):
        self.run_dir = run_dir
        self.seed = seed
        self.size = SIZES[size]
        self.tracer = tracer
        self.cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                                decode_fraction=1.0, phash_verify=True)
        self.fixture = os.path.join(run_dir, "fixture")
        self.ref_dir = os.path.join(run_dir, "ref-0")
        self.tables = os.path.join(run_dir, "tables")
        self.summaries: list[dict] = []  # validate() summaries seen this run
        self.errors: list[str] = []  # failed correctness checks

    def path(self, *parts: str) -> str:
        return os.path.join(self.run_dir, *parts)

    def make_fixture(self) -> None:
        gen.SCALES[SCALE] = (self.size["rows_per_fragment"], LAYOUT, DIMS)
        with self.tracer.span("input.fixture"):
            gen.generate(self.fixture, scale=SCALE, seed=self.seed,
                         parallel=True)

    def fit_reference(self) -> float:
        """Fit the reference ``FIT_REPEATS`` times; median wall seconds."""
        walls = []
        for k in range(FIT_REPEATS):
            t = time.perf_counter()
            with self.tracer.span("pipelines.fit.fit"):
                fit(self.fixture, self.path(f"ref-{k}"), self.cfg)
            walls.append(time.perf_counter() - t)
        return statistics.median(walls)

    def truth(self) -> pa.Table:
        return pq.read_table(os.path.join(self.fixture, "truth",
                                          "violations.parquet"))

    def partition_kinds(self) -> dict[int, str]:
        from serverless_covariate_drift_detection_ray.sources.fragmented import (
            TableManifest)

        m = TableManifest.load(self.fixture)
        return {int(p): meta["kind"] for p, meta in m.partitions.items()}

    def validate(self, out_dir: str, resume: bool) -> dict:
        from serverless_covariate_drift_detection_ray.pipelines.validate import (
            validate)

        with self.tracer.span("pipelines.validate.validate", resume=resume):
            s = validate(self.fixture, self.ref_dir, out_dir, self.cfg,
                         resume=resume)
        self.summaries.append(s)
        return s


def violation_counts(out_dir: str) -> dict[str, int]:
    """Committed violation rows per check."""
    counts: dict[str, int] = {}
    for f in glob.glob(os.path.join(out_dir, "violations", "partition_id=*",
                                    "violations.parquet")):
        for c in pq.read_table(f, columns=["check"])["check"].to_pylist():
            counts[c] = counts.get(c, 0) + 1
    return counts


def verdict_count(out_dir: str) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in glob.glob(
        os.path.join(out_dir, "verdicts", "partition_id=*", "*.parquet")))


class Workload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rng = np.random.Generator(np.random.PCG64(ctx.seed))

    def prepare(self) -> None:
        self.ctx.make_fixture()

    def setup(self) -> float:
        """Seconds: median reference fit plus one warm-up operation."""
        fit_s = self.ctx.fit_reference()
        t = time.perf_counter()
        with self.ctx.tracer.span("setup.warm_up"):
            self.warm_up()
        return fit_s + time.perf_counter() - t

    def warm_up(self) -> None:
        pass

    def before(self, i: int) -> None:
        pass

    def op(self, i: int) -> int:
        raise NotImplementedError

    def after(self, i: int) -> None:
        pass

    def finish(self) -> None:
        pass

    def fail(self, msg: str) -> None:
        self.ctx.errors.append(msg)


class BatchValidate(Workload):
    """A fresh ``validate(resume=False)`` over the whole seeded table."""

    name = "batch_validate"

    def warm_up(self) -> None:
        self.ctx.validate(self.ctx.path("out", "warm"), resume=False)

    def before(self, i: int) -> None:
        self.out = self.ctx.path("out", f"bv-{i}")

    def op(self, i: int) -> int:
        return self.ctx.validate(self.out, resume=False)["rows_processed"]

    def after(self, i: int) -> None:
        got = (_violations_digest(self.out), verdict_count(self.out))
        if i == 0:
            self.first = got
            self._reconcile(violation_counts(self.out))
        elif got != self.first:
            self.fail(f"pass {i}: digest/verdicts {got} != {self.first}")
        shutil.rmtree(self.out, ignore_errors=True)

    def _reconcile(self, engine_counts: dict[str, int]) -> None:
        truth = self.ctx.truth()["check"].to_pylist()
        for check in ALIGNED_CHECKS:
            want, have = truth.count(check), engine_counts.get(check, 0)
            if want != have or want == 0:
                self.fail(f"{check}: engine {have} rows, truth {want}")


class ServeWindow(Workload):
    """Closed loop, one client, no think time: ``score_window`` on 256-row
    windows cut from the table, alternating clean and drifted partitions."""

    name = "serve_window"

    def prepare(self) -> None:
        super().prepare()
        from serverless_covariate_drift_detection_ray.sources.fragmented import (
            TableManifest)

        m = TableManifest.load(self.ctx.fixture)
        self.parts = {f.partition_id: pq.read_table(
            os.path.join(self.ctx.fixture, f.file)) for f in m.fragments}
        kinds = self.ctx.partition_kinds()
        clean = [p for p, k in kinds.items() if k == "clean"]
        # the violations partition first, so every run serves seeded defects
        drifted = sorted((p for p, k in kinds.items()
                          if k not in ("clean", "reference")),
                         key=lambda p: kinds[p] != "violations")
        n = self.ctx.size["window_rows"]
        rows = self.ctx.size["rows_per_fragment"]
        self.windows = []
        for j in range(64):
            pid = clean[j // 2 % len(clean)] if j % 2 == 0 else \
                drifted[j // 2 % len(drifted)]
            self.windows.append((pid, int(self.rng.integers(0, rows - n + 1))))
        truth = self.ctx.truth()
        self.truth = {(i, c) for i, c in zip(truth["image_id"].to_pylist(),
                                             truth["check"].to_pylist())
                      if c in DOMAIN_CHECKS}
        self.served = self.defects_seen = 0

    def _window(self, i: int) -> pa.Table:
        pid, off = self.windows[i % len(self.windows)]
        return self.parts[pid].slice(off, self.ctx.size["window_rows"])

    def warm_up(self) -> None:
        self._score(self._window(0))

    def _score(self, window: pa.Table) -> dict:
        from serverless_covariate_drift_detection_ray.pipelines.serve import (
            score_window)

        with self.ctx.tracer.span("pipelines.serve.score_window"):
            return score_window(window, self.ctx.ref_dir, self.ctx.cfg)

    def before(self, i: int) -> None:
        self.win = self._window(i)

    def op(self, i: int) -> int:
        self.result = self._score(self.win)
        return self.win.num_rows

    def after(self, i: int) -> None:
        ids = set(self.win["image_id"].to_pylist())
        want = {t for t in self.truth if t[0] in ids}
        got = {(v["image_id"], v["check"]) for v in self.result["violations"]
               if v["check"] in DOMAIN_CHECKS}
        if got != want:
            self.fail(f"window {i}: served {sorted(got)} != truth {sorted(want)}")
        self.served += 1
        self.defects_seen += len(want)

    def finish(self) -> None:
        if self.served >= 2 and not self.defects_seen:
            self.fail("no served window held a seeded domain defect")


WORKLOADS = {w.name: w for w in (BatchValidate, ServeWindow)}
