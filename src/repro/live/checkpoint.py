"""Checkpoint/restore for the live engine.

A checkpoint is a single JSON document holding every aggregator's
``state_dict()`` plus the engine's stream-position counters.  Writing
goes through a temp file + atomic rename so a crash mid-write never
leaves a truncated checkpoint, and a restarted engine restored from the
file continues mid-stream as if it had never stopped.  Non-finite
values are rejected before anything is written, and a file stamped with
any other ``CHECKPOINT_VERSION`` is rejected at read time.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Format marker so later schema changes can migrate or reject cleanly.
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | Path, state: dict) -> Path:
    """Atomically write an engine state dict as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"version": CHECKPOINT_VERSION, "state": state}
    # json.dumps runs the C encoder (json.dump never does) and writes the
    # same bytes.  allow_nan=False: a NaN/Inf smuggled into aggregator
    # state would otherwise serialize as non-standard JSON that other
    # parsers (and our own strict loads) reject — it raises here, before
    # any temp file exists, while the previous good checkpoint is intact.
    text = json.dumps(payload, allow_nan=False)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint back into an engine state dict."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})")
    return payload["state"]
