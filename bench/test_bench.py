"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a deliberately broken correction fails every run, and that the
benchmark refuses to report without the program's source.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--seed", "7", "--seconds", "0",
         "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    r = result(bench("--workload", workload, "--trace", str(trace)))
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 2, r
    assert set(r.keys()) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in r["metrics"].items()}
    assert got == want
    for name, m in r["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", ["sample-n2", "derive-n4"])
def test_broken_correction_fails_every_run(workload):
    proc = bench("--workload", workload, "--trace", "0", "--fault", "swap-correction")
    r = result(proc)
    assert not r["correct"]
    assert r["attempted"] >= 2 and r["failed"] == r["attempted"]  # error_rate 1
    assert "error_rate = 1.0 ratio" in proc.stdout


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
