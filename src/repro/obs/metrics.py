"""Thread-safe metric primitives with snapshot/merge semantics.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotone sum (``inc``);
* :class:`Gauge` — last-set value plus an update count, so merges
  across processes are deterministic (see below);
* :class:`Histogram` — log-bucketed distribution (``observe``) with
  per-bucket counts, sum, count, min, and max.

Every instrument lives in a :class:`MetricsRegistry` under a family
name plus a label set.  A registry reduces to a plain-JSON
:meth:`~MetricsRegistry.snapshot`, and snapshots **merge**: counters
and histograms add, gauges resolve to the sample with the
lexicographically greatest ``(updates, value)`` pair.  Addition and
max are associative and commutative, so merging worker snapshots in
*any* order — the completion order of a process pool is nondeterministic
— always produces the same totals.  That is how per-worker metrics from
:mod:`repro.parallel` shards travel back with task results.

The module is deliberately stdlib-only (no numpy): worker processes,
the HTTP service, and the CLI can all import it without touching the
numerical stack, and instruments never draw randomness, so
instrumented code paths stay bit-identical.

Disabling: ``REPRO_METRICS=0`` (or :data:`NULL_REGISTRY` injected
explicitly) swaps every instrument for a shared no-op singleton whose
``inc``/``set``/``observe`` do nothing — a true no-op, so hot loops
pay only an attribute call.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator

#: Snapshot schema version (bump when the snapshot shape changes).
SNAPSHOT_VERSION = 1

#: Ref name under which registry snapshots are published into an
#: artifact store (see :func:`publish_snapshot` / ``repro stats``).
METRICS_REF = "obs/metrics"


def _decade_edges(lo_exp: int, hi_exp: int,
                  mantissas: tuple[float, ...] = (1.0, 2.5, 5.0),
                  ) -> tuple[float, ...]:
    """1-2.5-5 log-spaced bucket edges spanning ``10**lo .. 10**hi``."""
    edges = [m * 10.0 ** e for e in range(lo_exp, hi_exp)
             for m in mantissas]
    edges.append(10.0 ** hi_exp)
    return tuple(edges)


#: Durations in seconds: 10 microseconds up to 100 seconds.
DEFAULT_TIME_BUCKETS = _decade_edges(-5, 2)
#: Small counts (iterations, corpus sizes): 1 up to 1000.
DEFAULT_COUNT_BUCKETS = _decade_edges(0, 3)
#: Convergence deltas and other tiny ratios: 1e-12 up to 1.
DEFAULT_DELTA_BUCKETS = _decade_edges(-12, 0, mantissas=(1.0,))


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------

class Counter:
    """Monotone counter; merge = sum."""

    kind = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _sample(self) -> dict:
        with self._lock:
            return {"value": self._value}

    def _merge(self, sample: dict) -> None:
        self.inc(float(sample["value"]))


class Gauge:
    """Last-set value; merge keeps the greatest ``(updates, value)``.

    The update count makes cross-process merging deterministic: the
    sample that was written to most often wins, with the larger value
    breaking ties.  Both comparisons are max-operations, so the merge
    is associative and commutative.
    """

    kind = "gauge"
    __slots__ = ("_lock", "_value", "_updates")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._updates = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._updates += 1

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            self._updates += 1

    @property
    def value(self) -> float:
        return self._value

    def _sample(self) -> dict:
        with self._lock:
            return {"value": self._value, "updates": self._updates}

    def _merge(self, sample: dict) -> None:
        updates, value = int(sample["updates"]), float(sample["value"])
        with self._lock:
            if (updates, value) > (self._updates, self._value):
                self._updates, self._value = updates, value


class Histogram:
    """Log-bucketed distribution; merge = per-bucket sum.

    ``edges`` are the inclusive upper bounds of each bucket
    (Prometheus ``le`` semantics: a value equal to an edge falls in
    that edge's bucket); one implicit overflow bucket catches
    everything above the last edge.
    """

    kind = "histogram"
    __slots__ = ("edges", "_lock", "_counts", "_sum", "_count",
                 "_min", "_max")

    def __init__(self, edges: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
                 ) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("edges must be non-empty and increasing")
        self.edges = edges
        self._lock = threading.Lock()
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float | None:
        """Upper-edge estimate of the ``q`` quantile (0..1)."""
        if not 0 <= q <= 1:
            raise ValueError("q must be within [0, 1]")
        with self._lock:
            if not self._count:
                return None
            rank = q * self._count
            running = 0
            for index, count in enumerate(self._counts):
                running += count
                if running >= rank and count:
                    if index >= len(self.edges):
                        return self._max
                    return min(self.edges[index],
                               self._max if self._max is not None
                               else self.edges[index])
            return self._max

    def _sample(self) -> dict:
        with self._lock:
            return {
                "edges": list(self.edges),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }

    def _merge(self, sample: dict) -> None:
        if tuple(float(e) for e in sample["edges"]) != self.edges:
            raise ValueError("cannot merge histograms with different "
                             "bucket edges")
        with self._lock:
            for index, count in enumerate(sample["counts"]):
                self._counts[index] += int(count)
            self._count += int(sample["count"])
            self._sum += float(sample["sum"])
            for bound, pick in (("min", min), ("max", max)):
                other = sample.get(bound)
                if other is None:
                    continue
                mine = getattr(self, f"_{bound}")
                setattr(self, f"_{bound}",
                        float(other) if mine is None
                        else pick(mine, float(other)))


class _NullInstrument:
    """Shared no-op standing in for every instrument when disabled."""

    kind = "null"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All children of one metric name (same kind, help, edges)."""

    __slots__ = ("kind", "help", "edges", "children")

    def __init__(self, kind: str, help: str,
                 edges: tuple[float, ...] | None) -> None:
        self.kind = kind
        self.help = help
        self.edges = edges
        self.children: dict[tuple[tuple[str, str], ...], Any] = {}


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, labeled instruments plus snapshot/merge plumbing."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # -- instrument access ---------------------------------------------------

    def _instrument(self, kind: str, name: str, help: str,
                    labels: dict[str, Any],
                    edges: tuple[float, ...] | None = None):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(kind, help, edges)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}")
            else:
                if help and not family.help:
                    family.help = help
                if (kind == "histogram" and edges is not None
                        and family.edges is not None
                        and tuple(edges) != tuple(family.edges)):
                    raise ValueError(
                        f"metric {name!r} already has bucket edges "
                        f"{family.edges}")
            key = _label_key(labels)
            child = family.children.get(key)
            if child is None:
                if kind == "histogram":
                    child = Histogram(family.edges
                                      if family.edges is not None
                                      else DEFAULT_TIME_BUCKETS)
                else:
                    child = _KINDS[kind]()
                family.children[key] = child
            return child

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._instrument("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._instrument("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "",
                  edges: tuple[float, ...] | None = None,
                  **labels) -> Histogram:
        return self._instrument("histogram", name, help, labels,
                                edges=tuple(edges) if edges else None)

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict:
        """Reduce every instrument to plain JSON-serializable data.

        Families and samples are emitted in sorted order, so two
        registries holding the same values snapshot identically.
        """
        with self._lock:
            families = {name: (family, dict(family.children))
                        for name, family in self._families.items()}
        metrics: dict[str, dict] = {}
        for name in sorted(families):
            family, children = families[name]
            samples = []
            for key in sorted(children):
                sample = children[key]._sample()
                sample["labels"] = dict(key)
                samples.append(sample)
            metrics[name] = {"type": family.kind, "help": family.help,
                             "samples": samples}
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def merge_snapshot(self, snapshot: dict | None) -> None:
        """Fold a snapshot into this registry (sum/max per kind)."""
        if not snapshot:
            return
        for name in sorted(snapshot.get("metrics", {})):
            family = snapshot["metrics"][name]
            kind = family["type"]
            if kind not in _KINDS:
                raise ValueError(f"unknown metric type {kind!r}")
            for sample in family["samples"]:
                labels = sample.get("labels", {})
                if kind == "histogram":
                    child = self.histogram(
                        name, family.get("help", ""),
                        edges=tuple(sample["edges"]), **labels)
                elif kind == "counter":
                    child = self.counter(name, family.get("help", ""),
                                         **labels)
                else:
                    child = self.gauge(name, family.get("help", ""),
                                       **labels)
                child._merge(sample)


class NullRegistry(MetricsRegistry):
    """A registry whose instruments are shared no-ops.

    Instrumented code paths become plain method calls that touch no
    state: bit-identical behavior, near-zero cost.
    """

    enabled = False

    def _instrument(self, kind, name, help, labels, edges=None):
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"version": SNAPSHOT_VERSION, "metrics": {}}

    def merge_snapshot(self, snapshot: dict | None) -> None:
        pass


NULL_REGISTRY = NullRegistry()


# ---------------------------------------------------------------------------
# The ambient (default) registry
# ---------------------------------------------------------------------------

def _env_disabled() -> bool:
    return os.environ.get("REPRO_METRICS", "").strip().lower() in (
        "0", "off", "false", "no")


_default: MetricsRegistry = (NULL_REGISTRY if _env_disabled()
                             else MetricsRegistry())


def get_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code records into."""
    return _default


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the ambient registry; returns the previous one."""
    global _default
    previous = _default
    _default = registry
    return previous


@contextmanager
def collecting() -> Iterator[MetricsRegistry]:
    """Collect ambient metrics into a fresh registry within a block.

    Used by :mod:`repro.parallel` workers so each chunk's metrics are
    isolated, snapshotted, and shipped back with the results.  If
    metrics are disabled (``REPRO_METRICS=0``), the null registry is
    yielded unchanged and nothing is collected.
    """
    current = get_registry()
    if not current.enabled:
        yield current
        return
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


# ---------------------------------------------------------------------------
# Publishing snapshots through an artifact store
# ---------------------------------------------------------------------------

def snapshot_key(snapshot: dict) -> str:
    """Content key of a snapshot: SHA-256 of its canonical JSON."""
    canonical = json.dumps(snapshot, sort_keys=True,
                           separators=(",", ":"), allow_nan=False,
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def publish_snapshot(store, snapshot: dict, ref: str = METRICS_REF) -> str:
    """Publish a snapshot content-addressed into an artifact store.

    ``store`` is duck-typed (``put``/``set_ref``, i.e. a
    :class:`repro.api.ArtifactStore`), keeping this module stdlib-only.
    ``repro stats --cache DIR`` reads the ref back.
    """
    key = snapshot_key(snapshot)
    store.put(key, snapshot)
    store.set_ref(ref, key)
    return key
