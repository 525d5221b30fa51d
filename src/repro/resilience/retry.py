"""Bounded, deterministic retry with exponential backoff.

The reproduction's determinism discipline extends to failure handling:
a retry changes *when* work happens, never *what* it computes, so the
backoff schedule is a pure function of the policy and the attempt
index — no jitter, no wall-clock reads.  Sleeping is injected
(``sleep=``) so tests run the schedule instantly and chaos suites stay
fast.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..obs import get_registry

logger = logging.getLogger("repro.resilience")

T = TypeVar("T")


class TransientFault(Exception):
    """Base class for faults that are safe to retry.

    Raised by the deterministic fault injectors
    (:mod:`repro.resilience.faults`) and usable by real collectors for
    errors known to be transient (network hiccups, rate limits).  The
    retry machinery in :func:`retry_call`, the supervised sources, and
    :func:`repro.parallel.parallel_map` only ever auto-retries
    exceptions of this family — anything else keeps the historical
    fail-fast behavior.
    """


class TransientSourceError(TransientFault):
    """A source stream failed in a way a restart can heal."""


class SimulatedWorkerCrash(TransientFault):
    """An injected parallel-worker failure (chunk-level, retryable)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry a transient failure."""

    #: Retries after the initial attempt; 0 disables retrying.
    max_retries: int = 3
    #: Delay before the first retry, seconds.
    backoff_base: float = 0.05
    #: Multiplier applied per subsequent retry.
    backoff_factor: float = 2.0
    #: Ceiling on any single delay, seconds.
    backoff_max: float = 5.0

    def delay(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based), seconds."""
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        return min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** retry_index)


def retry_call(fn: Callable[[], T], *,
               policy: RetryPolicy | None = None,
               transient: tuple[type[BaseException], ...] = (TransientFault,),
               site: str = "call",
               sleep: Callable[[float], None] = time.sleep) -> T:
    """Call ``fn`` with bounded retries on transient failures.

    Non-transient exceptions propagate immediately.  Transient ones are
    retried up to ``policy.max_retries`` times with exponential
    backoff; the final failure re-raises the last exception.  Each
    retry increments ``repro_retry_attempts_total{site}``.
    """
    policy = policy or RetryPolicy()
    attempts = 0
    while True:
        try:
            return fn()
        except transient as exc:
            if attempts >= policy.max_retries:
                raise
            delay = policy.delay(attempts)
            attempts += 1
            get_registry().counter(
                "repro_retry_attempts_total",
                "Retries of transient failures, by call site.",
                site=site).inc()
            logger.warning("%s: transient failure (%s: %s); retry %d/%d "
                           "in %.3fs", site, type(exc).__name__, exc,
                           attempts, policy.max_retries, delay)
            if delay > 0:
                sleep(delay)
