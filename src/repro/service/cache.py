"""Plan and result caching for the query service.

Two LRU caches sit in front of the query processor:

* the **plan cache** maps iQL text to a
  :class:`~repro.query.executor.PreparedQuery`, so each distinct query
  text is parsed and planned once;
* the **result cache** maps the same text to a finished
  :class:`~repro.query.QueryResult` — which, since the batched engine,
  carries the execution's materialized :class:`~repro.query.engine.Batch`
  sequence, so a cache hit can replay the result as a stream without
  re-running the operator tree.

Results must never go stale. The result cache therefore subscribes to
the RVM's push bus — the same :class:`~repro.pushops.PushBus` the
synchronization manager publishes every view ADD/MODIFY/DELETE on — and
invalidates by *epoch*: every change event bumps a generation counter,
and an entry written under an older generation is treated as a miss (and
evicted) on its next lookup. Bumping a counter is O(1) per event, so a
full re-sync storm costs nothing, and the protocol is conservative by
construction: a change to *any* view flushes *all* cached results,
because an ADD may satisfy a query whose previous result did not
mention the added view at all (so per-entry dependency sets would be
unsound).

Writers racing with invalidation are handled by capturing the epoch
*before* execution starts and storing the entry under that epoch: if a
change event lands mid-execution, the entry is born stale and never
served.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from ..pushops import PushBus


class LRUCache:
    """A thread-safe least-recently-used cache with per-entry epochs."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key, *, min_epoch: int = 0):
        """The cached value, or ``None``. An entry written under an
        epoch older than ``min_epoch`` counts as a miss and is dropped."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            value, epoch = entry
            if epoch < min_epoch:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value, *, epoch: int = 0) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, epoch)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    def keys(self) -> list:
        with self._lock:
            return list(self._entries.keys())


class PlanCache:
    """LRU of :class:`PreparedQuery` objects, keyed by query text — the
    one thing that shapes a plan.

    Parsed plans survive data changes — a plan names indexes, not index
    *contents* — so no invalidation hook is needed.
    """

    def __init__(self, capacity: int = 128):
        self._lru = LRUCache(capacity)

    def get(self, text: str):
        return self._lru.get(text)

    def put(self, text: str, prepared) -> None:
        self._lru.put(text, prepared)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    def __len__(self) -> int:
        return len(self._lru)


class ResultCache:
    """LRU of query results with event-driven epoch invalidation."""

    def __init__(self, capacity: int = 512, *, bus: PushBus | None = None):
        self._lru = LRUCache(capacity)
        self._epoch = 0
        self._epoch_lock = threading.Lock()
        self._unsubscribe: Callable[[], None] | None = None
        if bus is not None:
            self.attach(bus)

    # -- invalidation --------------------------------------------------------

    def attach(self, bus: PushBus) -> None:
        """Subscribe to change events; every event invalidates."""
        self.detach()
        self._unsubscribe = bus.subscribe(self._on_change)

    def detach(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def _on_change(self, event) -> None:
        with self._epoch_lock:
            self._epoch += 1

    @property
    def epoch(self) -> int:
        """The current generation; capture *before* executing a query
        and pass it to :meth:`put` so mid-flight changes win."""
        with self._epoch_lock:
            return self._epoch

    # -- cache protocol ------------------------------------------------------

    def get(self, text: str):
        return self._lru.get(text, min_epoch=self.epoch)

    def put(self, text: str, result, *, epoch: int | None = None) -> None:
        self._lru.put(text, result,
                      epoch=self.epoch if epoch is None else epoch)

    def clear(self) -> int:
        return self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    @property
    def invalidations(self) -> int:
        return self._lru.invalidations
