"""Bounded LRU caches for the serving layer.

The paper's production deployment loads every model upfront and then answers
millions of prediction calls per optimization pass (Section 5.1), so lookup
and prediction cost dominate serving.  Recurring workloads re-price the same
(signature, features) pairs constantly; a bounded LRU in front of the models
turns those repeats into O(1) hits while keeping memory flat — unlike the
previous per-``id()`` dict that grew without bound across plans.

Caches are **thread-safe**: the sharded serving tier fans batches out across
a worker pool, and concurrent ``get``/``put`` calls on one cache would
otherwise race both the ``OrderedDict`` recency updates and the hit/miss
counters that the router aggregates.  The batch entry points
(:meth:`LRUCache.get_many` / :meth:`LRUCache.put_many`) take the lock once
per batch, not once per key, and hold it across dict operations only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache since construction (or the last reset)."""

    capacity: int
    size: int
    hits: int
    misses: int
    evictions: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache (0.0 when idle)."""
        if not self.requests:
            return 0.0
        return self.hits / self.requests

    @classmethod
    def aggregate(cls, parts: "Iterable[CacheStats]") -> "CacheStats":
        """Sum counters across caches (the sharded tier's merged view)."""
        capacity = size = hits = misses = evictions = 0
        for part in parts:
            capacity += part.capacity
            size += part.size
            hits += part.hits
            misses += part.misses
            evictions += part.evictions
        return cls(
            capacity=capacity, size=size, hits=hits, misses=misses, evictions=evictions
        )


class LRUCache:
    """A bounded least-recently-used map with hit/miss accounting.

    ``capacity <= 0`` disables the cache entirely: every ``get`` misses and
    ``put`` is a no-op, so callers can switch caching off without branching.

    All operations are atomic under an internal lock, so concurrent serving
    threads can share one cache without corrupting the recency order or the
    counters; :meth:`stats` returns a consistent snapshot.

    :meth:`get_many` and :meth:`put_many` are the serving hot path: one lock
    acquisition per batch, with hits, misses, evictions and recency order
    exactly those of the equivalent one-key-at-a-time ``get``/``put`` replay.
    Keys are hashed a few times per probe (lookup, recency refresh, insert),
    so hot keys should hash cheaply.  The serving layer's keys are ``bytes``
    (each row's bits, see :meth:`~repro.features.table.FeatureTable.
    row_keys`): they cache their own hash, compare by bit equality (a
    ``-0.0`` row and a ``0.0`` row are two entries, as cache-off pricing
    treats them as two inputs), and are not tracked by the garbage
    collector, so a full cache adds nothing to a collection's walk.
    """

    _MISSING = object()

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Value for ``key`` (refreshing its recency), else ``default``."""
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            if value is self._MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the oldest entry when full."""
        self.put_many(((key, value),))

    def get_many(
        self, keys: Sequence[Hashable], default: Any = None
    ) -> tuple[list[Any], dict[Hashable, list[int]]]:
        """Probe ``keys`` in order under one lock acquisition.

        Returns ``(values, missing)``: ``values[i]`` is the cached value of
        ``keys[i]`` or ``default``; ``missing`` maps every distinct absent
        key, in first-seen order, to the positions that asked for it.  Each
        probe that finds its key counts a hit and refreshes its recency,
        repeats included; an absent key counts one miss however often the
        batch repeats it — what a caller replaying ``get`` key by key and
        remembering its own misses would have counted.
        """
        missing: dict[Hashable, list[int]] = {}
        absent = self._MISSING
        with self._lock:
            entries = self._entries
            refresh = entries.move_to_end
            try:  # every key cached: the lookups move nothing, then refresh in order
                values = [entries[key] for key in keys]
                for key in keys:
                    refresh(key)
                self.hits += len(values)
                return values, missing
            except KeyError:
                values = []
            lookup = entries.get
            hits = 0
            for key in keys:
                value = lookup(key, absent)
                if value is absent:
                    positions = missing.get(key)
                    if positions is None:
                        missing[key] = [len(values)]
                    else:
                        positions.append(len(values))
                    value = default
                else:
                    refresh(key)
                    hits += 1
                values.append(value)
            self.hits += hits
            self.misses += len(missing)
        return values, missing

    def put_many(self, items: Iterable[tuple[Hashable, Any]]) -> None:
        """``put`` every ``(key, value)`` in order, under one lock acquisition."""
        if self.capacity <= 0:
            return
        with self._lock:
            entries = self._entries
            for key, value in items:
                if key in entries:
                    entries.move_to_end(key)
                entries[key] = value
                if len(entries) > self.capacity:
                    entries.popitem(last=False)
                    self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                capacity=self.capacity,
                size=len(self._entries),
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
            )
