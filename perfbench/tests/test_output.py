"""Self-test of the benchmark's output contract.

Runs every workload at its smallest size, untraced and traced, and checks
that the last stdout line parses as the result object and carries every
metric BENCHMARK.json names, with its unit. Slow (one Ray session per
case); run it on its own:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(cmd + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=200)


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_contract(workload: str, trace: int) -> None:
    p = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, p.stderr[-3000:]
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and res["failed"] == 0
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_without_engine(tmp_path) -> None:
    """In a directory holding only the benchmark, the run fails fast and
    prints no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    p = subprocess.run(cmd + ["--workload", WORKLOADS[0], "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True,
                       timeout=180)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
