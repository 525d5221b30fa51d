"""Shared helpers for the benchmark harness (not collected)."""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def record_ops(registry: dict, name: str, benchmark) -> None:
    """Record a benchmark's throughput (ops/sec) into ``registry``.

    Tolerates runs where timing is disabled (``--benchmark-disable`` or
    plain test collection): entries are simply not recorded.
    """
    meta = getattr(benchmark, "stats", None)
    stats = getattr(meta, "stats", None)
    mean = getattr(stats, "mean", None)
    if mean:
        registry[name] = {
            "ops_per_sec": 1.0 / mean,
            "mean_seconds": mean,
            "rounds": getattr(stats, "rounds", None),
        }


def write_bench_json(registry: dict, filename: str,
                     case: dict | None = None,
                     metrics: dict | None = None) -> Path | None:
    """Write machine-readable benchmark throughput to ``results/``.

    Shape: ``{"case": {...}, "benchmarks": {name: {ops_per_sec, ...}},
    "metrics": {...}}`` — ``case`` records the workload parameters
    (sizes, sweep counts, smoke flag) so numbers from different modes
    are never compared as if they measured the same work, and
    ``metrics`` embeds the run's :mod:`repro.obs` registry snapshot
    (pass one explicitly to override the ambient registry's).  Returns
    the path written, or ``None`` when nothing was recorded (e.g.
    benchmarking disabled).
    """
    if not registry:
        return None
    if metrics is None:
        from repro.obs import get_registry
        metrics = get_registry().snapshot()
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    payload = {"case": case or {}, "benchmarks": registry,
               "metrics": metrics}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
