"""Content-addressed artifact storage for pipeline stage products.

Every stage artifact a :class:`~repro.api.study.Study` produces is
stored under a key derived from the *configuration that produced it*:
the SHA-256 of a canonical JSON fingerprint covering the stage name,
its parameters, and the keys of its upstream stages.  Two sessions (or
two processes) configured identically therefore agree on every key,
so a warm on-disk store turns recomputation into a single read.

The store itself is deliberately dumb: a key/value map with an
in-memory layer and an optional on-disk layer (``objects/<k>/<key>.pkl``
written atomically, so concurrent writers race benignly — both write
the same bytes for the same key).  A tiny ``refs`` namespace maps
stable names (e.g. ``live/influence``) to content keys, which is how
the live engine publishes its latest windowed refit for the HTTP
service to pick up.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import logging
import os
import pickle
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator
from urllib.parse import quote

import numpy as np

from ..obs import DEFAULT_TIME_BUCKETS, get_registry

logger = logging.getLogger("repro.api.store")

#: Bump to invalidate every stored artifact when stage semantics change.
SCHEMA_VERSION = 1

#: Sentinel distinguishing "stored None" from "absent".
MISSING = object()

#: On-disk object framing: magic + sha256 hex of the payload + newline,
#: then the pickled payload.  Loads verify the digest, so silent disk
#: corruption (bit rot, torn writes that survived rename) is detected
#: and quarantined instead of being unpickled into garbage.
OBJECT_MAGIC = b"repro-obj1\x00"


def _frame_object(data: bytes) -> bytes:
    sha = hashlib.sha256(data).hexdigest().encode("ascii")
    return OBJECT_MAGIC + sha + b"\n" + data


class CorruptObjectError(ValueError):
    """A stored object failed its integrity check."""


def _unframe_object(blob: bytes) -> bytes:
    """Verified payload of a framed object (legacy blobs pass through)."""
    if not blob.startswith(OBJECT_MAGIC):
        # Pre-framing cache file: no digest to verify against.
        return blob
    header_end = len(OBJECT_MAGIC) + 64
    if len(blob) <= header_end or blob[header_end:header_end + 1] != b"\n":
        raise CorruptObjectError("truncated object header")
    expected = blob[len(OBJECT_MAGIC):header_end]
    data = blob[header_end + 1:]
    actual = hashlib.sha256(data).hexdigest().encode("ascii")
    if actual != expected:
        raise CorruptObjectError(
            f"object digest mismatch (stored {expected.decode()!r}, "
            f"actual {actual.decode()!r})")
    return data


# ---------------------------------------------------------------------------
# Configuration fingerprinting
# ---------------------------------------------------------------------------

def fingerprint(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-serializable structure.

    Handles the configuration vocabulary of this package — dataclasses
    (``WorldConfig``, ``HawkesConfig``, ``Interval``, ``GroundTruth``),
    enums, numpy arrays and scalars, seed sequences, and plain
    containers.  Unknown types raise ``TypeError`` rather than silently
    hashing an unstable representation.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips floats exactly and never emits bare NaN/inf
        # into the JSON encoder.
        return {"__f__": repr(obj)}
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": obj.value}
    if isinstance(obj, np.ndarray):
        return {"__nd__": [list(obj.shape), str(obj.dtype),
                           fingerprint(obj.tolist())]}
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return fingerprint(obj.item())
    if isinstance(obj, np.random.SeedSequence):
        return {"__seed__": [fingerprint(obj.entropy),
                             list(obj.spawn_key),
                             obj.n_children_spawned]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dc__": type(obj).__name__,
                "fields": {f.name: fingerprint(getattr(obj, f.name))
                           for f in dataclasses.fields(obj)}}
    if isinstance(obj, (list, tuple)):
        return [fingerprint(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): fingerprint(value) for key, value in obj.items()}
    raise TypeError(f"cannot fingerprint {type(obj).__name__!r} "
                    "for artifact keying")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding of a fingerprinted structure."""
    return json.dumps(fingerprint(obj), sort_keys=True,
                      separators=(",", ":"))


def digest(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical fingerprint."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class ArtifactStore:
    """Keyed artifact cache: in-memory always, on-disk when rooted.

    ``root=None`` gives a process-local memory store (safe default);
    passing a directory persists artifacts across processes and
    sessions.  Values are pickled; keys are expected to be the content
    hashes :func:`digest` produces, so a key never maps to two
    different values.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._mem: dict[str, Any] = {}
        self._mem_refs: dict[str, str] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if self.root is not None:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            (self.root / "refs").mkdir(parents=True, exist_ok=True)

    # -- objects ------------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    def get(self, key: str, default: Any = None) -> Any:
        registry = get_registry()
        with self._lock:
            if key in self._mem:
                self.hits += 1
                registry.counter("repro_store_hits_total",
                                 "Artifact cache hits by layer.",
                                 layer="memory").inc()
                return self._mem[key]
        if self.root is not None:
            path = self._object_path(key)
            load_start = perf_counter()
            try:
                with path.open("rb") as handle:
                    blob = handle.read()
            except OSError:
                blob = None
            if blob is not None:
                try:
                    data = _unframe_object(blob)
                    value = pickle.loads(data)
                except (CorruptObjectError, pickle.UnpicklingError,
                        EOFError, AttributeError, ImportError,
                        IndexError) as exc:
                    # A corrupt object is evicted into quarantine/, so
                    # the next put() rewrites a good copy and repeated
                    # gets don't re-read the damage; the caller sees a
                    # plain miss and recomputes transparently.
                    self._quarantine_object(key, path, exc)
                    blob = None
            if blob is not None:
                registry.histogram(
                    "repro_store_load_seconds",
                    "Wall time to read+unpickle one artifact from disk.",
                    edges=DEFAULT_TIME_BUCKETS,
                ).observe(perf_counter() - load_start)
                registry.counter("repro_store_bytes_read_total",
                                 "Bytes deserialized from the disk layer.",
                                 ).inc(len(data))
                registry.counter("repro_store_hits_total",
                                 "Artifact cache hits by layer.",
                                 layer="disk").inc()
                with self._lock:
                    self._mem[key] = value
                    self.hits += 1
                return value
        with self._lock:
            self.misses += 1
        registry.counter("repro_store_misses_total",
                         "Artifact cache misses (every layer cold).").inc()
        return default

    def contains(self, key: str) -> bool:
        with self._lock:
            if key in self._mem:
                return True
        return (self.root is not None
                and self._object_path(key).exists())

    def put(self, key: str, value: Any) -> str:
        with self._lock:
            self._mem[key] = value
        if self.root is not None:
            path = self._object_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            self._atomic_write(path, _frame_object(data))
            get_registry().counter(
                "repro_store_bytes_written_total",
                "Bytes serialized into the disk layer.").inc(len(data))
        return key

    def _quarantine_object(self, key: str, path: Path, exc: Exception,
                           ) -> None:
        """Evict a corrupt/unreadable object file out of the cache."""
        assert self.root is not None
        target = self.root / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:  # already evicted by a racing reader, or gone
            pass
        get_registry().counter(
            "repro_store_corrupt_total",
            "Stored objects that failed verification or unpickling "
            "and were quarantined.").inc()
        logger.warning("quarantined corrupt artifact %s (%s: %s); "
                       "it will be recomputed", key,
                       type(exc).__name__, exc)

    def stats(self) -> dict:
        """Cache effectiveness counters, cheap enough for every /stages.

        ``hits``/``misses`` count :meth:`get` outcomes over this store's
        lifetime (both layers); ``memory_objects`` is the resident
        in-memory layer size.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
            memory_objects = len(self._mem)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_ratio": (hits / total) if total else 0.0,
            "memory_objects": memory_objects,
            "persistent": self.root is not None,
        }

    def keys(self) -> Iterator[str]:
        with self._lock:
            seen = set(self._mem)
        yield from seen
        if self.root is not None:
            for path in (self.root / "objects").glob("*/*.pkl"):
                key = path.stem
                if key not in seen:
                    yield key

    # -- refs ---------------------------------------------------------------

    def _ref_path(self, name: str) -> Path:
        assert self.root is not None
        return self.root / "refs" / quote(name, safe="")

    def set_ref(self, name: str, key: str) -> None:
        """Point the stable name ``name`` at content key ``key``."""
        with self._lock:
            self._mem_refs[name] = key
        if self.root is not None:
            self._atomic_write(self._ref_path(name), key.encode("ascii"))

    def get_ref(self, name: str) -> str | None:
        with self._lock:
            if name in self._mem_refs:
                return self._mem_refs[name]
        if self.root is not None:
            try:
                return self._ref_path(name).read_text("ascii").strip()
            except OSError:
                return None
        return None

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
