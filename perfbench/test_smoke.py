"""Smoke size of the benchmark: every workload on a tiny world.

    python3 -m pytest perfbench -q

Runs every workload with a few units each, untraced and traced,
and checks that every output check passes and that every metric
``BENCHMARK.json`` declares is printed with its unit.  Also checks that
the benchmark refuses to run where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def test_spec_matches_catalogue():
    sys.path.insert(0, str(HERE))
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for section, catalogue in (("end_to_end", END_TO_END),
                               ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in SPEC[section]}
        assert declared == catalogue


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads(trace):
    proc = run("--smoke", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    for workload in SPEC["workloads"]:
        for metric in SPEC[section]:
            got = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "serve", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
