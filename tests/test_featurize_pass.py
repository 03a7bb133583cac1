"""The featurize pass: one fused ``ReadParquet->MapBatches(featurize_task)``
task per read block, ``EngineConfig.batch_size`` as the per-call row cap
inside it, and rows the stage must flag rather than crash on."""

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from serverless_covariate_drift_detection_ray.fixtures.gen import ensure_fixture
from serverless_covariate_drift_detection_ray.functions.codec import encode_image
from serverless_covariate_drift_detection_ray.functions.hashing import hash64
from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
from serverless_covariate_drift_detection_ray.pipelines.fit import featurize_partials
from serverless_covariate_drift_detection_ray.sources.fragmented import (
    TableManifest, cluster_cpus, read_blocks, read_images)
from serverless_covariate_drift_detection_ray.stages import featurize as fz
from serverless_covariate_drift_detection_ray.state.partials import PartialState


@pytest.fixture(scope="module")
def manifest():
    return TableManifest.load(ensure_fixture("tiny"))


@pytest.fixture(scope="module")
def fragment(manifest):
    """The reference partition's one fragment, as the read hands it over."""
    f = next(f for f in manifest.fragments
             if manifest.partitions[f.partition_id]["kind"] == "reference")
    return pq.read_table(os.path.join(manifest.root, f.file))


def _operator_tasks(stats: str) -> dict[str, int]:
    """``{operator name: tasks executed}`` from ``Dataset.stats()``."""
    return {name: int(n) for name, n in re.findall(
        r"^Operator \d+ (\S+): (\d+) tasks executed", stats, re.M)}


class TestFusedPass:
    def test_images_read_fuses_into_featurize(self, ray_session, manifest):
        """Fragments >= CPUs: Ray fuses the read into featurize, one task
        per planned read block, so the bytes never enter the object store."""
        assert len(manifest.fragments) >= cluster_cpus()
        out = featurize_partials(read_images(manifest), EngineConfig())
        assert _operator_tasks(out.stats()) == {
            "ReadParquet->MapBatches(featurize_task)":
                read_blocks(manifest.fragments, None)}

    def test_split_read_runs_one_featurize_task_per_block(self, ray_session,
                                                           manifest):
        """Fewer fragments than CPUs: the read splits its one fragment to
        the cluster width and stays unfused, and every split block gets its
        own featurize task instead of one bundle."""
        keep = manifest.partition_ids()[0]
        skip = set(manifest.partition_ids()) - {keep}
        out = featurize_partials(read_images(manifest, skip_partitions=skip),
                                 EngineConfig())
        tasks = _operator_tasks(out.stats())
        assert tasks["MapBatches(featurize_task)"] == cluster_cpus()
        assert not any(name.startswith("ReadParquet->MapBatches")
                       for name in tasks)

    def test_output_keeps_read_order(self, ray_session, manifest):
        """The output blocks come back in read order whichever task ends
        first, so the order-sensitive sketch merge sees its partials in the
        same order on every run: the key rows list the table's ids in
        fragment order."""
        import ray

        out = featurize_partials(read_images(manifest), EngineConfig())
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
        keys = got.filter(pc.equal(got["kind"], "key"))["image_id"]
        want = pa.concat_tables([
            pq.read_table(os.path.join(manifest.root, f.file),
                          columns=["image_id"])
            for f in manifest.fragments])["image_id"]
        assert keys.cast(pa.string()).equals(want.cast(pa.string()))


class TestSplitGate:
    """``split_reduced`` gates the partial and violation rows and the key
    rows on their own bounds: a pass with many images but few partials
    stays on the driver."""

    @pytest.fixture(scope="class")
    def reduced(self, ray_session, manifest):
        out = featurize_partials(read_images(manifest), EngineConfig())
        n_keys = sum(f.rows for f in manifest.fragments)
        return out, n_keys, out.count() - n_keys

    @pytest.mark.parametrize("rest_off,keys_off,on_driver", [
        (0, 0, True), (-1, 0, False), (0, -1, False)],
        ids=["both-at-bound", "partials-over", "keys-over"])
    def test_gates(self, reduced, monkeypatch, rest_off, keys_off,
                   on_driver):
        """Each bound is set at its exact count plus an offset: the
        partial + violation rows alone decide ``REDUCED_DRIVER_MAX``, the
        key rows alone ``KEYS_DRIVER_MAX``."""
        from serverless_covariate_drift_detection_ray.pipelines import fit as F

        out, n_keys, n_rest = reduced
        assert n_keys > n_rest > 0
        monkeypatch.setattr(F, "REDUCED_DRIVER_MAX", n_rest + rest_off)
        monkeypatch.setattr(F, "KEYS_DRIVER_MAX", n_keys + keys_off)
        parts = F.split_reduced(out, n_keys)
        assert all(isinstance(p, pa.Table) == on_driver for p in parts)
        if on_driver:
            assert parts[2].num_rows == n_keys
            assert parts[0].num_rows + parts[1].num_rows == n_rest


class TestRowCap:
    def test_block_is_sliced_at_batch_size(self, fragment):
        """A 250-row block under batch_size=64 is exactly the four 64-row
        stage calls, concatenated."""
        cfg = EngineConfig(batch_size=64)
        assert fragment.num_rows == 250
        stage = fz.FeaturizeAndSketch(cfg)
        want = pa.concat_tables([stage(fragment.slice(lo, 64))
                                 for lo in (0, 64, 128, 192)])
        got = fz.featurize_task(fragment, cfg)
        assert got.equals(want)
        parts = got.filter(pc.equal(got["kind"], "partial"))
        assert parts.num_rows == 4
        assert sum(parts["n_rows"].to_pylist()) == 250

    def test_one_key_row_per_input_row(self, fragment):
        """The constraint keys ride in the stage's output: one 'key' row per
        input row, in input order, carrying the row's image_id, phash and
        partition_id and nothing else."""
        from serverless_covariate_drift_detection_ray.stages.constraints import (
            KEY_SCHEMA)

        got = fz.featurize_task(fragment, EngineConfig(batch_size=64))
        keys = got.filter(pc.equal(got["kind"], "key"))
        assert keys.select(KEY_SCHEMA.names).equals(
            fragment.select(KEY_SCHEMA.names).cast(KEY_SCHEMA))
        rest = [c for c in fz.OUT_SCHEMA.names
                if c not in ("kind", *KEY_SCHEMA.names)]
        assert all(keys[c].null_count == keys.num_rows for c in rest)
        assert got.filter(pc.invert(pc.equal(got["kind"], "key")))[
            "phash"].null_count == got.num_rows - keys.num_rows

    def test_empty_block_returns_typed_empty_table(self, fragment):
        got = fz.featurize_task(fragment.slice(0, 0), EngineConfig(batch_size=64))
        assert got.num_rows == 0
        assert got.schema.equals(fz.OUT_SCHEMA)


def _replace_rows(table: pa.Table, rows: dict[int, dict]) -> pa.Table:
    """``table`` with ``rows[i][column]`` written into row ``i``."""
    for col in {c for values in rows.values() for c in values}:
        values = table[col].to_pylist()
        for i, row in rows.items():
            if col in row:
                values[i] = row[col]
        table = table.set_column(table.schema.get_field_index(col), col,
                                 pa.array(values, table.schema.field(col).type))
    return table


@pytest.mark.parametrize("fmt", ["png", "bmp", "lossy8"])
def test_zero_pixel_image_flags_its_row(fragment, fmt):
    """A 0x0 image decodes to an empty array: its row gets a decode_ok
    violation naming the shape, adds no pixel marginal, and every other row
    of the block still gets featurized."""
    cfg = EngineConfig()
    stage = fz.FeaturizeAndSketch(cfg)
    ids = fragment["image_id"].to_numpy(zero_copy_only=False).astype(object)
    i = int(np.nonzero(hash64(ids) < stage.decode_thresh)[0][0])
    broken = _replace_rows(fragment, {i: {
        "bytes": encode_image(np.zeros((0, 0), np.uint8), fmt), "fmt": fmt}})

    def pixel_mean_count(out):
        parts = out.filter(pc.equal(out["kind"], "partial"))
        assert parts.num_rows == 1
        state = PartialState.from_bytes(parts["state"][0].as_py())
        assert state.n_rows == fragment.num_rows
        return state.stats["pixel_mean"].count

    out = stage(broken)
    vio = out.filter(pc.equal(out["kind"], "violation")).to_pylist()
    decode = [v for v in vio if v["check"] == "decode_ok"]
    assert [(v["image_id"], v["observed"]) for v in decode] == [
        (ids[i], "empty shape (0, 0)")]
    assert not any(v["check"] == "phash_match_decoded" and
                   v["image_id"] == ids[i] for v in vio)
    assert pixel_mean_count(out) == pixel_mean_count(stage(fragment)) - 1


@pytest.mark.parametrize("fmt", ["png", "bmp", "lossy8"])
def test_undecodable_image_flags_its_row(fragment, fmt):
    """A payload whose header parses but whose body is cut short raises in
    the decoder: its row gets a decode_ok violation naming the exception
    (routed, not raised), and every other row of the block still gets
    featurized."""
    cfg = EngineConfig()
    stage = fz.FeaturizeAndSketch(cfg)
    ids = fragment["image_id"].to_numpy(zero_copy_only=False).astype(object)
    i = int(np.nonzero(hash64(ids) < stage.decode_thresh)[0][0])
    w, h = fragment["w"][i].as_py(), fragment["h"][i].as_py()
    data = encode_image(np.full((h, w), 128, np.uint8), fmt)
    broken = _replace_rows(fragment, {i: {"bytes": data[:len(data) // 2],
                                          "fmt": fmt}})

    def n_rows_and_pixels(out):
        parts = out.filter(pc.equal(out["kind"], "partial"))
        state = PartialState.from_bytes(parts["state"][0].as_py())
        return state.n_rows, state.stats["pixel_mean"].count

    out = stage(broken)
    vio = [v for v in out.filter(pc.equal(out["kind"], "violation")).to_pylist()
           if v["image_id"] == ids[i]]
    assert [(v["check"], v["expected"]) for v in vio] == [
        ("decode_ok", "decodable")]
    assert vio[0]["observed"].isidentifier()  # the exception's class name
    rows, pixels = n_rows_and_pixels(stage(fragment))
    assert n_rows_and_pixels(out) == (rows, pixels - 1)


def test_pool_output_equals_inline(fragment):
    """On a thread pool the stage returns the inline output byte for byte,
    over a block that carries every per-row outcome of the codec pass,
    spread over the pool's chunks: a header that does not parse, a body
    cut short, a 0-pixel image, a dims and a phash mismatch, and a JPEG
    row that decodes clean."""
    from concurrent.futures import ThreadPoolExecutor

    from serverless_covariate_drift_detection_ray.functions.phash import phash64

    cfg = EngineConfig(decode_fraction=1.0)
    w, h = fragment["w"][60].as_py(), fragment["h"][60].as_py()
    png = encode_image(np.full((h, w), 128, np.uint8), "png")
    photo = (np.arange(40 * 56 * 3) % 251).astype(np.uint8).reshape(40, 56, 3)
    batch = _replace_rows(fragment, {
        3: {"bytes": b"not an image"},
        60: {"bytes": png[:len(png) // 2], "fmt": "png"},
        120: {"bytes": encode_image(np.zeros((0, 0), np.uint8), "bmp"),
              "fmt": "bmp"},
        180: {"w": fragment["w"][180].as_py() + 1},
        200: {"phash": fragment["phash"][200].as_py() ^ 0xFF},
        240: {"bytes": encode_image(photo, "jpeg"), "fmt": "jpeg", "w": 56,
              "h": 40, "phash": phash64(photo)},
    })
    inline = fz.FeaturizeAndSketch(cfg)(batch)
    with ThreadPoolExecutor(4) as pool:
        pooled = fz.FeaturizeAndSketch(cfg, pool=pool)(batch)
    assert pooled.equals(inline)

    ids = fragment["image_id"].to_pylist()
    vio = inline.filter(pc.equal(inline["kind"], "violation"))
    got = set(zip(vio["image_id"].to_pylist(), vio["check"].to_pylist()))
    assert {(ids[3], "decodable"), (ids[60], "decode_ok"),
            (ids[120], "decode_ok"), (ids[180], "dims_match_decoded"),
            (ids[200], "phash_match_decoded")} <= got
    assert not {c for i, c in got if i == ids[240]}


def test_featurize_task_stage_has_no_pool(fragment):
    """A Ray task holds one CPU: the stage ``featurize_task`` caches runs
    its codec work inline, never on a thread pool."""
    fz.featurize_task(fragment, EngineConfig(batch_size=64))
    assert fz._WORKER_CACHE
    assert all(st.pool is None for st in fz._WORKER_CACHE.values())
