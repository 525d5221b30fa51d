"""The perf ledger folds perfbench results into root BENCH_*.json files."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_ledger.py"


@pytest.fixture(scope="module")
def ledger_tool():
    spec = importlib.util.spec_from_file_location("bench_ledger", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def untraced(sha, latency):
    stats = {"median": latency, "q1": latency - 1, "q3": latency + 1,
             "n": 6}
    return {"attempted": 7, "failed": 0,
            "env": {"git_sha": sha, "seed": 7, "seconds": 20.0,
                    "trace": 0, "nproc": 2},
            "stats": {"latency_ms": stats},
            "metrics": {"latency_ms": {"value": latency, "unit": "ms"}}}


def traced(sha, fit_s):
    return {"attempted": 3, "failed": 0,
            "env": {"git_sha": sha, "seed": 7, "seconds": 20.0,
                    "trace": 1, "nproc": 2},
            "metrics": {"core.fit_s": {"value": fit_s, "unit": "s"}},
            "untraced_latency_ms": 1000.0}


def write(checkout, name, result):
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps(result))


def test_folds_one_entry_per_sha(tmp_path, ledger_tool, monkeypatch):
    checkout = tmp_path / "checkout"
    write(checkout, "report-seed7-trace0.json", untraced("abc", 100.0))
    write(checkout, "report-seed7-trace1.json", traced("abc", 0.5))
    write(checkout, "report-seed7-trace0-smoke.json", untraced("abc", 1.0))
    monkeypatch.setattr(ledger_tool, "source_is_dirty", lambda _: False)
    args = ["--checkout", str(checkout), "--out", str(tmp_path)]
    assert ledger_tool.main(args) == 0
    # Folding the same results again adds nothing.
    assert ledger_tool.main(args) == 0
    write(checkout, "report-seed7-trace0.json", untraced("abc", 120.0))
    assert ledger_tool.main(args) == 0

    ledger = json.loads((tmp_path / "BENCH_report.json").read_text())
    assert ledger["workload"] == "report"
    (entry,) = ledger["entries"]
    assert entry["sha"] == "abc"
    assert len(entry["runs"]) == 3
    first, layers, second = entry["runs"]
    assert first["metrics"]["latency_ms"] == {
        "median": 100.0, "q1": 99.0, "q3": 101.0, "n": 6, "unit": "ms"}
    assert layers["layers"]["core.fit_s"]["value"] == 0.5
    assert layers["untraced_latency_ms"] == 1000.0
    assert first["env"]["nproc"] == 2
    assert entry["median"] == {"latency_ms": 110.0}
    assert not (tmp_path / "BENCH_live.json").exists()


def test_sha_from_stamp(tmp_path, ledger_tool, monkeypatch):
    checkout = tmp_path / "checkout"
    write(checkout, "live-seed9-trace0.json", untraced("def", 3.0))
    monkeypatch.setattr(ledger_tool, "source_is_dirty", lambda _: True)
    ledger_tool.main(["--checkout", str(checkout), "--out", str(tmp_path)])
    ledger = json.loads((tmp_path / "BENCH_live.json").read_text())
    assert [e["sha"] for e in ledger["entries"]] == ["def-dirty"]


def test_result_is_stored_once_across_shas(tmp_path, ledger_tool,
                                           monkeypatch):
    """A result folded as dirty is not refiled under the clean sha once
    the change is committed and the stale file is folded again."""
    checkout = tmp_path / "checkout"
    write(checkout, "report-seed7-trace0.json", untraced("abc", 100.0))
    args = ["--checkout", str(checkout), "--out", str(tmp_path)]
    monkeypatch.setattr(ledger_tool, "source_is_dirty", lambda _: True)
    ledger_tool.main(args)
    monkeypatch.setattr(ledger_tool, "source_is_dirty", lambda _: False)
    ledger_tool.main(args)
    ledger = json.loads((tmp_path / "BENCH_report.json").read_text())
    assert [(e["sha"], len(e["runs"])) for e in ledger["entries"]] == [
        ("abc-dirty", 1)]
