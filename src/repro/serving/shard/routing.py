"""Consistent-hash routing of ``(cluster, template)`` keys onto shards.

The sharded tier partitions the *request space* by template: every operator
of a recurring job template carries the same approximate (template-level)
subgraph signature, so hashing ``(cluster, approx)`` keeps a template's
whole working set — predictions, cached entries, resource profiles — on one
shard.  A classic consistent-hash ring with virtual nodes keeps the
assignment stable when the shard count changes (only ~1/n of templates
move) and balanced across shards.

Every hash here is :func:`repro.common.hashing.stable_hash` (blake2b).  The
built-in ``hash`` is salted per process via ``PYTHONHASHSEED``, and routing
through it would scatter the same template onto different shards in
different processes — the exact failure mode of the PR 2 planner incident,
pinned cross-process by ``tests/serving/test_shard_determinism.py``.
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import stable_hash

#: Salt for virtual-node placement, so ring positions can never collide
#: with request keys by construction of the joined hash payload.
_RING_SALT = "cleo-shard"

#: Default virtual nodes per shard: enough for a few-percent load spread.
DEFAULT_REPLICAS = 64


def route_key(cluster: str, template_signature: int) -> int:
    """The 64-bit routing key of one ``(cluster, template)`` pair."""
    return stable_hash(cluster, int(template_signature))


class HashRing:
    """Consistent-hash ring mapping 64-bit keys to shard indices.

    Each shard owns ``replicas`` virtual nodes placed at
    ``stable_hash(salt, shard, replica)``; a key belongs to the first
    virtual node at or clockwise-after its position (wrapping past the top
    of the 64-bit space).  Lookup is one ``np.searchsorted`` over the
    sorted positions — scalar or vectorized over whole key columns.
    """

    def __init__(self, n_shards: int, replicas: int = DEFAULT_REPLICAS) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        points = sorted(
            (stable_hash(_RING_SALT, shard, replica), shard)
            for shard in range(self.n_shards)
            for replica in range(self.replicas)
        )
        self._positions = np.array([p for p, _ in points], dtype=np.uint64)
        self._owners = np.array([s for _, s in points], dtype=np.int64)

    def shard_for_key(self, key: int) -> int:
        """Owning shard of one routing key."""
        pos = int(np.searchsorted(self._positions, np.uint64(key), side="left"))
        if pos == len(self._positions):  # wrap past the highest virtual node
            pos = 0
        return int(self._owners[pos])

    def shard_for(self, cluster: str, template_signature: int) -> int:
        """Owning shard of one ``(cluster, template)`` pair."""
        return self.shard_for_key(route_key(cluster, template_signature))

    def describe(self) -> str:
        return f"HashRing({self.n_shards} shards x {self.replicas} replicas)"
