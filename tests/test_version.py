"""The source-checkout version fallback tracks ``pyproject.toml``."""

import importlib
from importlib import metadata
from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_fallback_version_matches_pyproject(monkeypatch):
    expected = tomllib.loads(
        PYPROJECT.read_text(encoding="utf-8"))["project"]["version"]

    def not_installed(name):
        raise metadata.PackageNotFoundError(name)

    monkeypatch.setattr(metadata, "version", not_installed)
    try:
        importlib.reload(repro)
        assert repro.__version__ == expected
    finally:
        monkeypatch.undo()
        importlib.reload(repro)
