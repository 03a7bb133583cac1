"""Round-3 regression tests: null image_id handling, cross-partition PK
duplicates in the quarantine sink (driver vs streamed parity), reference-state
shape guards, running-totals kernel bit-identity, and the degenerate
single-window KS oracle."""

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from serverless_covariate_drift_detection_ray.fixtures.gen import generate_fragment
from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
from serverless_covariate_drift_detection_ray.pipelines.fit import fit
from serverless_covariate_drift_detection_ray.pipelines.validate import validate
from serverless_covariate_drift_detection_ray.sources.fragmented import (
    TableManifest,
    write_fragment,
)


# ---------------------------------------------------------------------------
# running-totals kernel: bit-identity with the sequential sum
# ---------------------------------------------------------------------------


def _sequential_reference(stream):
    """Ground truth: the plain left-to-right per-user accumulation."""
    s, peak = {}, {}
    for u, v in stream:
        s[u] = s.get(u, 0.0) + v
        if u not in peak or s[u] > peak[u]:
            peak[u] = s[u]
    return s, peak


def test_running_totals_bit_identical_across_batch_splits():
    """The vectorized kernel must produce BIT-identical sums/peaks to the
    sequential per-user loop no matter how the users are split into
    buckets (which other users share a call) — one call per bucket, no
    state carried between calls. Covers both kernel branches: one cumsum
    per user (few long users) and rounds-wise adds (many short users).
    The SUM() OVER (...) oracle relies on this (no tolerance, exact ==)."""
    from serverless_covariate_drift_detection_ray.pipelines.queries import (
        _running_totals,
    )

    rng = np.random.default_rng(7)
    # adversarial values: many magnitudes so float association differences
    # would actually show up
    values = rng.choice([1e-8, 0.1, 3.7, 1e6, -2.5e3], size=500) * rng.random(500)
    for n_users in (9, 400):
        users = rng.integers(0, n_users, size=500)
        ref_sum, ref_peak = _sequential_reference(
            zip(users.tolist(), values.tolist()))
        for n_buckets in (1, 3, n_users):
            bucket = users % n_buckets
            seen = []
            for b in range(n_buckets):
                sel = bucket == b
                got_u, got_sum, got_peak = _running_totals(users[sel],
                                                           values[sel])
                seen += got_u.tolist()
                for u, total, peak in zip(got_u.tolist(), got_sum, got_peak):
                    assert total == ref_sum[u], (u, n_users, n_buckets)
                    assert peak == ref_peak[u], (u, n_users, n_buckets)
            assert sorted(seen) == sorted(ref_sum)


# ---------------------------------------------------------------------------
# reference-state shape guard
# ---------------------------------------------------------------------------


def test_drift_stage_rejects_state_fit_under_other_fmt_domain(tmp_path):
    """A reference state fit before a fmt_categories change must fail loudly
    at load, not as an opaque numpy broadcast error inside chi2."""
    from serverless_covariate_drift_detection_ray.stages.drift import DriftTestActor
    from serverless_covariate_drift_detection_ray.state.partials import PartialState
    from serverless_covariate_drift_detection_ray.state.reference import (
        ReferenceState,
    )

    cfg = EngineConfig()
    old = PartialState(cfg.marginals, ("png", "bmp", "lossy8"))  # pre-jpeg
    old.sample_phash = np.array([1, 2, 3], dtype=np.int64)
    old.sample_keys = np.array([1, 2, 3], dtype=np.uint64)
    d = str(tmp_path / "oldstate")
    ReferenceState(old, sigma=1.0).save(d)
    with pytest.raises(ValueError, match="fmt_categories"):
        DriftTestActor(cfg, d)


# ---------------------------------------------------------------------------
# single-window KS: engine vs oracle on a degenerate stream
# ---------------------------------------------------------------------------

SF = "/root/testdata/sf0.001"


def test_ks_by_window_single_hour_matches_oracle(ray_session, tmp_path):
    """All events in ONE hour → rest-of-stream is empty; the SQL previously
    divided 0.11 by SQRT(0) while the engine clamps n_rest to 1."""
    import duckdb

    from serverless_covariate_drift_detection_ray.pipelines.queries import (
        KS_WINDOW_SQL,
        ks_by_window_events,
    )

    src = pq.read_table(f"{SF}/events.parquet")
    one_hour = src.slice(0, 200).set_column(
        src.schema.get_field_index("ts"), "ts",
        pa.array(np.full(200, np.datetime64("2024-01-01T05:30:00", "us"))))
    d = tmp_path / "sf_onehour"
    d.mkdir()
    pq.write_table(one_hour, str(d / "events.parquet"))

    eng = ks_by_window_events(str(d)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    ora = con.execute(KS_WINDOW_SQL).fetchdf()
    assert len(eng) == len(ora) == 1
    assert eng.iloc[0].n == ora.iloc[0].n == 200
    assert np.isfinite(ora.iloc[0].p_value)
    assert eng.iloc[0].p_value == ora.iloc[0].p_value
    assert eng.iloc[0].ks_d == ora.iloc[0].ks_d


# ---------------------------------------------------------------------------
# quarantine: null image_id + cross-partition PK duplicates, both paths
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dup_fixture(ray_session, tmp_path_factory):
    """Hand-built 4-partition table: p0 reference (clean), p1 holds the
    duplicate key locus plus a null-image_id row, p2 holds a copy of the
    duplicate AND an unrelated defect (bad fmt), p3 is clean except for a
    second copy of the duplicate (no other violations — the hard case:
    nothing else flags p3, only the cross-partition id probe finds it)."""
    root = tmp_path_factory.mktemp("dupfix")
    fix = str(root / "table")
    os.makedirs(fix)
    rows = 80
    man = TableManifest(root=fix)
    man.partitions = {0: {"kind": "reference"}, 1: {"kind": "violations"},
                      2: {"kind": "violations"}, 3: {"kind": "violations"}}
    tables = {}
    for fid in range(4):
        t, _ = generate_fragment(fid, fid, "clean", rows, seed=99)
        tables[fid] = t

    def set_cell(t, row, col, value):
        arr = t[col].to_pylist()
        arr[row] = value
        return t.set_column(t.schema.get_field_index(col), col,
                            pa.array(arr, t.schema.field(col).type))

    dup_id = tables[1]["image_id"][5].as_py()
    # p1: row 10 gets a null image_id
    tables[1] = set_cell(tables[1], 10, "image_id", None)
    # p2: row 7 takes the duplicate id; row 12 gets an out-of-domain fmt
    tables[2] = set_cell(tables[2], 7, "image_id", dup_id)
    tables[2] = set_cell(tables[2], 12, "fmt", "tiff")
    # p3: row 3 takes the duplicate id, nothing else
    tables[3] = set_cell(tables[3], 3, "image_id", dup_id)

    all_ids = []
    for fid in range(4):
        man.fragments.append(write_fragment(fix, fid, fid, tables[fid]))
        all_ids.append(tables[fid].select(["image_id"]))
    man.save()
    truth_dir = os.path.join(fix, "truth")
    os.makedirs(truth_dir)
    ids = pa.concat_tables(all_ids)
    ids = ids.filter(pa.compute.is_valid(ids["image_id"]))
    pq.write_table(ids.combine_chunks(),
                   os.path.join(truth_dir, "manifest_ids.parquet"))

    cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                       quarantine=True)
    ref_dir = str(root / "ref")
    fit(fix, ref_dir, cfg)
    return dict(fix=fix, cfg=cfg, ref_dir=ref_dir, dup_id=dup_id, root=root)


def _quarantined(out_dir):
    rows = []
    for f in sorted(glob.glob(os.path.join(out_dir, "quarantine",
                                           "*", "*.parquet"))):
        pid = int(f.split("partition_id=")[1].split(os.sep)[0])
        for r in pq.read_table(f, columns=["image_id"])["image_id"].to_pylist():
            rows.append((pid, r))
    return sorted(rows)


def test_quarantine_null_ids_and_cross_partition_dups(dup_fixture,
                                                      tmp_path_factory,
                                                      monkeypatch):
    fx = dup_fixture
    out1 = str(tmp_path_factory.mktemp("qdrv") / "out")
    s1 = validate(fx["fix"], fx["ref_dir"], out1, fx["cfg"])

    viol = pd.concat([pq.read_table(f).to_pandas() for f in sorted(
        glob.glob(os.path.join(out1, "violations", "*", "*.parquet")))])
    # the null id is flagged nonnull but NOT as a PK duplicate
    nn = viol[viol.check == "image_id_nonnull"]
    assert len(nn) == 1 and nn.image_id.isna().all()
    uq = viol[viol.check == "unique_image_id"]
    assert set(uq.image_id) == {fx["dup_id"]}
    assert len(uq) == 1  # one row per duplicated KEY at the min locus

    q1 = _quarantined(out1)
    # every copy of the duplicated key is dead-lettered, including the p3
    # copy whose partition has no other violation
    assert (1, fx["dup_id"]) in q1
    assert (2, fx["dup_id"]) in q1
    assert (3, fx["dup_id"]) in q1
    assert s1["quarantined"] == len(q1)

    # streamed-violations path: identical dead-letter contents
    from serverless_covariate_drift_detection_ray.pipelines import validate as vmod

    out2 = str(tmp_path_factory.mktemp("qstr") / "out")
    monkeypatch.setattr(vmod, "VIOLATIONS_DRIVER_MAX", 0)
    s2 = vmod.validate(fx["fix"], fx["ref_dir"], out2, fx["cfg"],
                       resume=False)
    assert s2["violations_streamed"] is True
    assert _quarantined(out2) == q1
    assert s2["quarantined"] == s1["quarantined"]


# ---------------------------------------------------------------------------
# histogram hi-edge, fingerprint identity, empty projection
# ---------------------------------------------------------------------------


def test_fixed_histogram_hi_edge_in_range():
    """[lo, hi] is closed: v == hi counts in the LAST bin, not overflow."""
    from serverless_covariate_drift_detection_ray.state.sketches import FixedHistogram

    h = FixedHistogram(0.0, 160.0, 160)
    h.update(np.array([0.0, 159.5, 160.0]))
    assert h.counts[0] == 0          # underflow empty
    assert h.counts[-1] == 0         # overflow empty — 160.0 is in-range
    assert h.counts[160] == 2        # 159.5 and 160.0 share the last bin
    assert h.cdf()[-1] == 1.0
    h.update(np.array([160.0001, -0.1]))
    assert h.counts[-1] == 1 and h.counts[0] == 1
    # round-trip keeps the new tag
    h2 = FixedHistogram.from_bytes(h.to_bytes())
    assert (h2.counts == h.counts).all()


def test_config_fingerprint_distinguishes_dataclass_checks():
    """Two different dataclass Check instances (and the same class with
    different params) must fingerprint differently — previously asdict
    collapsed every dataclass check to the string 'dict'."""
    import dataclasses

    from serverless_covariate_drift_detection_ray.state.checkpoint import (
        config_fingerprint,
    )

    @dataclasses.dataclass
    class CheckA:
        threshold: float = 0.5

    @dataclasses.dataclass
    class CheckB:
        threshold: float = 0.5

    f_a = config_fingerprint(EngineConfig(drift_checks=("ks", CheckA())))
    f_b = config_fingerprint(EngineConfig(drift_checks=("ks", CheckB())))
    f_a2 = config_fingerprint(EngineConfig(drift_checks=("ks", CheckA(0.9))))
    assert len({f_a, f_b, f_a2}) == 3
    # determinism: same instance values → same fingerprint
    assert f_a == config_fingerprint(EngineConfig(drift_checks=("ks", CheckA())))


def test_read_images_all_pruned_keeps_projected_schema(ray_session,
                                                       dup_fixture):
    """When zone-map pruning eliminates every fragment, the empty Dataset
    must carry the PROJECTED schema, not the full nine-column one."""
    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        read_images,
    )

    man = TableManifest.load(dup_fixture["fix"])
    ds = read_images(man, columns=["image_id", "phash"],
                     predicate=("image_id", "==", "zzz-no-such-id"))
    assert set(ds.schema().names) == {"image_id", "phash"}


def test_streamed_path_clears_stale_violation_files(dup_fixture,
                                                    tmp_path_factory,
                                                    monkeypatch):
    """A violations.parquet left by a prior run under a now-clean partition
    must not be committed as this run's output by the streamed path."""
    from serverless_covariate_drift_detection_ray.pipelines import validate as vmod

    fx = dup_fixture
    out = str(tmp_path_factory.mktemp("qstale") / "out")
    monkeypatch.setattr(vmod, "VIOLATIONS_DRIVER_MAX", 0)
    vmod.validate(fx["fix"], fx["ref_dir"], out, fx["cfg"], resume=False)
    # plant a stale file under the clean reference partition (p0)
    stale_dir = os.path.join(out, "violations", "partition_id=0")
    os.makedirs(stale_dir, exist_ok=True)
    pq.write_table(pa.table({"partition_id": pa.array([0], pa.int32()),
                             "image_id": pa.array(["ghost"]),
                             "check": pa.array(["unique_image_id"]),
                             "column": pa.array(["image_id"]),
                             "observed": pa.array(["2"]),
                             "expected": pa.array(["1"])}),
                   os.path.join(stale_dir, "violations.parquet"))
    vmod.validate(fx["fix"], fx["ref_dir"], out, fx["cfg"], resume=False)
    # the stale rows are gone: commit replaced the file with this run's
    # (empty) output, same as the driver path writes for clean partitions
    t = pq.read_table(os.path.join(stale_dir, "violations.parquet"))
    assert t.num_rows == 0
    lineage = json.load(open(os.path.join(out, "lineage", "0.json")))
    assert lineage["violation_count"] == 0


@pytest.mark.parametrize("driver_max", [None, 0], ids=["driver", "streamed"])
def test_quarantine_over_limit_clears_stale_dead_letters(dup_fixture,
                                                         tmp_path_factory,
                                                         monkeypatch,
                                                         driver_max):
    """Past quarantine_max_rows the run writes no dead letters, says so,
    and removes the dead letters a prior run left for the partitions it
    re-validated, on both sides of the violations size gate."""
    from serverless_covariate_drift_detection_ray.pipelines import validate as vmod

    fx = dup_fixture
    if driver_max is not None:
        monkeypatch.setattr(vmod, "VIOLATIONS_DRIVER_MAX", driver_max)
    out = str(tmp_path_factory.mktemp("qover") / "out")
    s1 = vmod.validate(fx["fix"], fx["ref_dir"], out, fx["cfg"], resume=False)
    assert s1["violations_streamed"] is (driver_max == 0)
    assert s1["quarantined"] > 0 and _quarantined(out)

    cfg = EngineConfig(freeze_time=fx["cfg"].freeze_time, quarantine=True,
                       quarantine_max_rows=0)
    s2 = vmod.validate(fx["fix"], fx["ref_dir"], out, cfg, resume=False)
    assert s2["partitions_processed"] == 4
    assert s2["quarantine_skipped"]
    assert s2["quarantined"] == 0
    assert not glob.glob(os.path.join(out, "quarantine", "partition_id=*"))


@pytest.mark.parametrize("driver_max", [None, 0], ids=["driver", "streamed"])
def test_resumed_duplicate_locus_keeps_its_violations(dup_fixture,
                                                      tmp_path_factory,
                                                      monkeypatch,
                                                      driver_max):
    """A duplicated key's violation row sits at its min partition (p1). A
    resumed run that re-validates only p2 and p3 still sees that row, must
    leave p1's committed violations.parquet as it was, and must still
    dead-letter the p2 and p3 copies of the key."""
    from serverless_covariate_drift_detection_ray.pipelines import validate as vmod

    fx = dup_fixture
    if driver_max is not None:
        monkeypatch.setattr(vmod, "VIOLATIONS_DRIVER_MAX", driver_max)
    out = str(tmp_path_factory.mktemp("qlocus") / "out")
    vmod.validate(fx["fix"], fx["ref_dir"], out, fx["cfg"], resume=False)
    p1 = os.path.join(out, "violations", "partition_id=1", "violations.parquet")
    before = open(p1, "rb").read()
    q_before = _quarantined(out)
    assert set(pq.read_table(p1)["check"].to_pylist()) >= {
        "unique_image_id", "image_id_nonnull"}
    for pid in (2, 3):
        os.remove(os.path.join(out, "lineage", f"{pid}.json"))
    s = vmod.validate(fx["fix"], fx["ref_dir"], out, fx["cfg"])
    assert s["partitions_processed"] == 2
    assert s["violations_streamed"] is (driver_max == 0)
    assert open(p1, "rb").read() == before
    q = _quarantined(out)
    assert (2, fx["dup_id"]) in q and (3, fx["dup_id"]) in q
    assert q == q_before
    assert s["quarantined"] == sum(1 for pid, _ in q if pid in (2, 3))


def test_featurize_null_dims_and_phash_flag_not_crash(ray_session):
    """Null w/h/phash must produce *_nonnull violations instead of crashing
    the featurize task (int(NaN) raised in the dims loop; a null phash
    upcast the column to float64 and corrupted the HLL/MMD-sample hash
    domain) — round-3 review finding."""
    import pyarrow as pa

    from serverless_covariate_drift_detection_ray.functions.codec import encode_png
    from serverless_covariate_drift_detection_ray.functions.phash import phash64
    from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
    from serverless_covariate_drift_detection_ray.stages.featurize import FeaturizeAndSketch

    rng = np.random.default_rng(5)
    img = rng.integers(0, 255, (8, 8, 3), dtype=np.uint8)
    png = encode_png(img)
    ph = int(phash64(img))
    cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                       dims_check_fraction=1.0, decode_fraction=1.0,
                       phash_verify=True)
    batch = pa.table({
        "image_id": pa.array(["a", "b", "c", "d"]),
        "partition_id": pa.array([0, 0, 0, 0], pa.int32()),
        "w": pa.array([8, None, 8, 8], pa.int32()),
        "h": pa.array([8, 8, None, 8], pa.int32()),
        "fmt": pa.array(["png"] * 4),
        "phash": pa.array([ph, ph, ph, None], pa.int64()),
        "caption": pa.array(["x"] * 4),
        "bytes": pa.array([png] * 4, pa.binary()),
    })
    out = FeaturizeAndSketch(cfg)(batch)
    vio = out.filter(pa.compute.equal(out["kind"], "violation")).to_pandas()
    checks = set(zip(vio.image_id, vio.check))
    assert ("b", "w_nonnull") in checks
    assert ("c", "h_nonnull") in checks
    assert ("d", "phash_nonnull") in checks
    # the good row produced no violation; null-dim rows did NOT crash the
    # dims loop and did NOT emit a bogus dims_match_decoded for null w/h
    assert "a" not in set(vio.image_id)
    assert not any(c == "dims_match_decoded" for _, c in checks)
    # partials still cover all 4 rows
    parts = out.filter(pa.compute.equal(out["kind"], "partial"))
    assert int(parts["n_rows"][0].as_py()) == 4
