"""Dead-letter quarantine: poison records leave the stream, not the run.

A :class:`Quarantine` is the sink supervised sources route malformed
or out-of-order records into.  Each entry becomes one JSONL line in a
sidecar file (append-only, flushed per record so a crash loses at most
nothing) plus a ``repro_ingest_quarantined_total{source,reason}``
counter increment — the run keeps going, and the operator can replay
or inspect the sidecar afterwards.
"""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path
from typing import Any

from ..obs import get_registry

logger = logging.getLogger("repro.resilience")


def _describe(payload: Any) -> Any:
    """A JSON-safe rendering of a quarantined payload.

    Records are stored via their own canonical JSON when they have one
    (``DatasetRecord.to_json``); anything else falls back to ``repr``,
    which always serializes — the sidecar must never itself raise.
    """
    if payload is None:
        return None
    to_json = getattr(payload, "to_json", None)
    if callable(to_json):
        try:
            return json.loads(to_json())
        except Exception:  # pragma: no cover - defensive
            pass
    try:
        json.dumps(payload, allow_nan=False)
        return payload
    except (TypeError, ValueError):
        return repr(payload)


class Quarantine:
    """Append-only dead-letter sink with a JSONL sidecar.

    ``path=None`` keeps entries in memory only (counting still works);
    with a path every entry is appended and flushed immediately.
    Thread-safe: sources supervised on different threads may share one
    sink.
    """

    def __init__(self, path: str | Path | None = None, *,
                 registry=None) -> None:
        self.path = Path(path) if path is not None else None
        self.metrics = registry if registry is not None else get_registry()
        self._lock = threading.Lock()
        self._count = 0
        self._by_reason: dict[str, int] = {}
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")

    @property
    def count(self) -> int:
        return self._count

    def by_reason(self) -> dict[str, int]:
        with self._lock:
            return dict(self._by_reason)

    def add(self, source: str, reason: str, payload: Any = None) -> None:
        """Quarantine one poison record (never raises).

        The full ``reason`` (which may embed record-specific detail,
        e.g. the offending timestamps) goes to the sidecar; the counter
        and :meth:`by_reason` use only the part before any ``" ("`` —
        a stable family like ``"out of order"`` — so metric label
        cardinality stays bounded.
        """
        family = reason.split(" (", 1)[0]
        entry = {"source": source, "reason": reason,
                 "payload": _describe(payload)}
        with self._lock:
            self._count += 1
            self._by_reason[family] = self._by_reason.get(family, 0) + 1
            if self._handle is not None:
                try:
                    self._handle.write(json.dumps(entry, sort_keys=True))
                    self._handle.write("\n")
                    self._handle.flush()
                except OSError as exc:  # pragma: no cover - disk full etc.
                    logger.error("quarantine sidecar write failed: %s", exc)
        self.metrics.counter(
            "repro_ingest_quarantined_total",
            "Records diverted to the dead-letter quarantine.",
            source=source, reason=family).inc()
        logger.warning("quarantined record from %s (%s)", source, reason)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Quarantine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
