"""In-memory span recorder for the traced benchmark run.

The benchmark installs wrappers from this file around public calls into
each layer of the program (nothing inside ``src/`` is instrumented for
it).  Every wrapped call becomes a span: name, start, end, parent span
id and the id of the benchmark unit it ran in.  Self time — a span's
duration minus the part its child spans cover — is accumulated per
unit as the spans close, so per-record wrappers on the live path do not
have to keep millions of span tuples; those "hot" names are counted
and timed but not stored.  Stored spans are written out once, at exit.

The span stack is per thread: the serve workload's client and server
threads each nest their own calls.
"""

from __future__ import annotations

import gc
import json
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records spans and per-unit self time for named layers."""

    def __init__(self, hot: frozenset[str] = frozenset()) -> None:
        #: Names timed per call but never stored as individual spans.
        self.hot = hot
        self.unit: int | None = None
        #: (name, start, end, parent id, unit id) of every non-hot span.
        self.spans: list[tuple] = []
        #: unit -> name -> seconds of self time.
        self.self_s: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: unit -> name -> calls.
        self.calls: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        #: unit -> name -> amounts counted at layer boundaries.
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: unit -> seconds spent in garbage collection.
        self.gc_s: dict[int, float] = defaultdict(float)
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._gc_start: float | None = None

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _close(self, name: str, frame: list, start: float, end: float,
               stack: list) -> None:
        duration = end - start
        if stack:
            stack[-1][1] += duration
        unit = self.unit
        self.self_s[unit][name] += duration - frame[1]
        self.calls[unit][name] += 1
        if name not in self.hot:
            parent = stack[-1][0] if stack else None
            self.spans.append((name, start, end, parent, unit))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        frame = [self._new_id() if name not in self.hot else 0, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._close(name, frame, start, end, stack)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def iterate(self, name: str, iterable):
        """Iterate ``iterable``, timing each ``next()`` as a span."""
        iterator = iter(iterable)
        stack = self._stack()
        while True:
            frame = [0 if name in self.hot else self._new_id(), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, frame, start, end, stack)
            yield item

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to the counter ``name`` of the current unit."""
        self.counts[self.unit][name] += amount

    # -- garbage collection -----------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_s[self.unit] += perf_counter() - self._gc_start
            self._gc_start = None

    def start_gc_timing(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc_timing(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output -----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the stored spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, unit in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "unit": unit}) + "\n")
