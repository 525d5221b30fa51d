"""Shared helpers for the benchmark harness (not collected)."""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
