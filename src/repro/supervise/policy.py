"""Supervision policies: restart backoff and the per-shard breaker.

The breaker is clock-injected: production uses ``time.monotonic``,
tests pass a fake clock so cool-downs are asserted without waiting.
All backoff jitter comes from a seeded RNG owned by the caller, keeping
chaos runs reproducible.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass, field



@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter.

    Delay before retry *n* (1-based) is ``base * multiplier**(n-1)``,
    capped at ``backoff_max``, then jittered by up to ``jitter`` of
    itself (additive, from the seeded RNG) — the classic decorrelation
    that keeps a fleet of retriers from thundering in lockstep.
    """

    backoff_base: float = 0.02
    backoff_multiplier: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, retry_number: int, rng: random.Random) -> float:
        """Backoff before the ``retry_number``-th retry (1-based)."""
        if retry_number < 1:
            raise ValueError("retry numbers are 1-based")
        raw = self.backoff_base * (
            self.backoff_multiplier ** (retry_number - 1)
        )
        raw = min(raw, self.backoff_max)
        if self.jitter:
            raw += raw * self.jitter * rng.random()
        return raw


class BreakerState(enum.Enum):
    CLOSED = "closed"          # normal operation
    OPEN = "open"              # failing fast, cooling down
    HALF_OPEN = "half_open"    # probing with a limited budget


@dataclass
class CircuitBreaker:
    """A circuit breaker (closed → open → half-open).

    ``failure_threshold`` *consecutive* failures open the circuit;
    while open, :meth:`allow` returns False until ``cooldown_seconds``
    of (injected) clock have passed, after which the breaker half-opens
    and admits up to ``half_open_probes`` probe calls. A probe success
    closes the circuit; a probe failure re-opens it and restarts the
    cool-down.

    All transitions run under an internal lock: request threads and the
    shard supervisor's monitor race :meth:`allow` freely, and the
    half-open probe budget admits exactly ``half_open_probes`` callers
    no matter how many arrive at once — the check-then-increment on the
    probe slot would otherwise let a thundering herd through together.
    """

    failure_threshold: int = 5
    cooldown_seconds: float = 30.0
    half_open_probes: int = 1
    clock: "callable" = time.monotonic

    state: BreakerState = field(default=BreakerState.CLOSED, init=False)
    consecutive_failures: int = field(default=0, init=False)
    opened_at: float | None = field(default=None, init=False)
    _probes_in_flight: int = field(default=0, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")

    # -- admission ----------------------------------------------------------

    def allow(self) -> bool:
        """May the next call go through to the source?"""
        with self._lock:
            if self.state is BreakerState.CLOSED:
                return True
            if self.state is BreakerState.OPEN:
                assert self.opened_at is not None
                if self.clock() - self.opened_at < self.cooldown_seconds:
                    return False
                self.state = BreakerState.HALF_OPEN
                self._probes_in_flight = 0
            # HALF_OPEN: admit a bounded number of probes
            if self._probes_in_flight >= self.half_open_probes:
                return False
            self._probes_in_flight += 1
            return True

    @property
    def retry_after(self) -> float | None:
        """Seconds until the cool-down elapses (None unless open)."""
        with self._lock:
            if (self.state is not BreakerState.OPEN
                    or self.opened_at is None):
                return None
            return max(
                0.0,
                self.cooldown_seconds - (self.clock() - self.opened_at),
            )

    # -- outcomes -----------------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            if self.state is BreakerState.HALF_OPEN:
                self._probes_in_flight = 0
            self.state = BreakerState.CLOSED
            self.consecutive_failures = 0
            self.opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.state is BreakerState.HALF_OPEN:
                self._trip()
            elif (self.state is BreakerState.CLOSED
                    and self.consecutive_failures
                    >= self.failure_threshold):
                self._trip()

    def _trip(self) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = self.clock()
        self._probes_in_flight = 0
