"""``LRUCache`` on its own: the batch entry points against the scalar ones.

``get_many`` / ``put_many`` are the serving hot path (one lock acquisition
per shard sub-batch); their contract is that hits, misses, evictions, size
and the full recency order are exactly those of replaying the same batch
through ``get`` / ``put`` one key at a time, the way ``CleoService`` priced a
batch before them: probe every key in order, remember the batch's own
misses so a repeat is not probed (or counted) again, then insert the
distinct misses in first-seen order.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.cache import LRUCache


def value_of(key: int) -> float:
    return key * 0.5 + 1.0


def replay_one_at_a_time(cache: LRUCache, batch: list[int]) -> list[float | None]:
    """The pre-batch serving loop, through the scalar ``get`` / ``put``."""
    pending: dict[int, None] = {}
    answers: list[float | None] = []
    for key in batch:
        if key in pending:  # already missed in this batch: never reaches the LRU
            answers.append(None)
            continue
        cached = cache.get(key)
        if cached is None:
            pending[key] = None
        answers.append(cached)
    for key in pending:
        cache.put(key, value_of(key))
    return answers


def serve_batch(cache: LRUCache, batch: list[int]) -> list[float | None]:
    values, missing = cache.get_many(batch)
    # Every position that asked for an absent key, grouped by key in
    # first-seen order, and nothing else.
    assert list(missing) == list(dict.fromkeys(k for k, v in zip(batch, values) if v is None))
    for key, positions in missing.items():
        assert positions == [i for i, k in enumerate(batch) if k == key]
    cache.put_many((key, value_of(key)) for key in missing)
    return values


def drain_order(cache: LRUCache, universe: range) -> list[int]:
    """Cached keys from least to most recently used.

    ``in`` does not refresh recency, and eviction order *is* recency order:
    push fresh filler keys in and note which cached key each one pushes out.
    Destructive, so it is the last thing a test does to a cache.
    """
    present = [key for key in universe if key in cache]
    order: list[int] = []
    filler = -1
    while len(order) < len(present):
        cache.put(filler, 0.0)
        filler -= 1
        gone = [key for key in present if key not in cache and key not in order]
        assert len(gone) <= 1
        order.extend(gone)
    return order


keys = st.integers(min_value=0, max_value=11)
sequences = st.lists(keys, min_size=0, max_size=60)
cut_points = st.lists(st.integers(min_value=0, max_value=60), max_size=6)


def cut(sequence: list[int], points: list[int]) -> list[list[int]]:
    bounds = sorted({min(p, len(sequence)) for p in points} | {0, len(sequence)})
    return [sequence[a:b] for a, b in zip(bounds, bounds[1:])] or [[]]


class TestBatchEqualsSequentialReplay:
    @settings(max_examples=200, deadline=None)
    @given(
        sequence=sequences,
        points=cut_points,
        capacity=st.sampled_from([0, 1, 2, 3, 5, 8, 100]),
    )
    def test_counters_size_answers_and_recency_order(self, sequence, points, capacity):
        batched, scalar = LRUCache(capacity), LRUCache(capacity)
        for batch in cut(sequence, points):
            assert serve_batch(batched, batch) == replay_one_at_a_time(scalar, batch)
            assert batched.stats() == scalar.stats()
        assert len(batched) == len(scalar) <= max(capacity, 0)
        universe = range(12)
        assert [k in batched for k in universe] == [k in scalar for k in universe]
        assert drain_order(batched, universe) == drain_order(scalar, universe)

    def test_repeat_of_a_hit_counts_and_refreshes_every_time(self):
        cache = LRUCache(2)
        cache.put_many([(1, 1.0), (2, 2.0)])
        values, missing = cache.get_many([1, 1, 1])
        assert values == [1.0, 1.0, 1.0] and missing == {}
        assert (cache.hits, cache.misses) == (3, 0)
        cache.put(3, 3.0)  # 2 is now the oldest: the repeats refreshed 1
        assert 1 in cache and 2 not in cache and cache.evictions == 1

    def test_repeat_of_a_miss_counts_once(self):
        cache = LRUCache(4)
        values, missing = cache.get_many([7, 8, 7, 7, 8])
        assert values == [None] * 5
        assert missing == {7: [0, 2, 3], 8: [1, 4]}
        assert (cache.hits, cache.misses) == (0, 2)

    def test_disabled_cache_misses_everything_and_stores_nothing(self):
        for capacity in (0, -3):
            cache = LRUCache(capacity)
            cache.put_many([(1, 1.0)])
            cache.put(2, 2.0)
            values, missing = cache.get_many([1, 2, 1], default=-1.0)
            assert values == [-1.0, -1.0, -1.0]
            assert missing == {1: [0, 2], 2: [1]}
            assert len(cache) == 0 and cache.misses == 2 and cache.evictions == 0

    def test_insert_order_decides_which_entries_are_evicted(self):
        cache = LRUCache(3)
        cache.put_many([(k, float(k)) for k in (1, 2, 3, 4, 5)])
        assert [k in cache for k in (1, 2, 3, 4, 5)] == [False, False, True, True, True]
        assert cache.evictions == 2
        cache.put_many([(3, 30.0)])  # refresh, not a second entry
        assert len(cache) == 3 and cache.get(3) == 30.0
        cache.put(6, 6.0)
        assert 4 not in cache and 3 in cache


class TestThreaded:
    def test_workers_account_for_every_probe(self):
        """Shared cache, more workers than cores, interleaved batches of
        distinct keys: whatever the interleaving, every probe issued was
        counted exactly once, as a hit or as a miss, every hit returned the
        key's own value, and the cache never outgrew its bound."""
        cache = LRUCache(16)
        n_workers, per_worker = 4, 200
        batches = [
            [[(worker * 7 + b + i) % 40 for i in range(12)] for b in range(per_worker)]
            for worker in range(n_workers)
        ]
        barrier = threading.Barrier(n_workers)
        errors: list[BaseException] = []

        def work(mine: list[list[int]]) -> None:
            try:
                barrier.wait(timeout=30)
                for batch in mine:
                    values, missing = cache.get_many(batch)
                    assert all(v is None or v == value_of(k) for k, v in zip(batch, values))
                    cache.put_many((key, value_of(key)) for key in missing)
            except BaseException as exc:  # surfaced in the main thread below
                errors.append(exc)

        workers = [threading.Thread(target=work, args=(mine,)) for mine in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-batch as often as possible
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        stats = cache.stats()
        assert stats.hits + stats.misses == n_workers * per_worker * 12
        assert stats.size <= 16
