"""Seeded random-number-generator plumbing.

All stochastic components (workload generation, simulator noise, ML
subsampling) draw from :class:`numpy.random.Generator` instances derived from
a single root seed, so a full experiment is reproducible end to end.  Child
generators are derived by *name* rather than by call order, which keeps
results stable when unrelated code adds or removes draws.
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import stable_hash


def derive_rng(seed: int, *names: object) -> np.random.Generator:
    """Create a generator deterministically derived from ``seed`` and names."""
    return np.random.default_rng(stable_hash("rng", seed, *names) & ((1 << 63) - 1))


class RngFactory:
    """Hands out named child generators derived from one root seed.

    Example::

        rngs = RngFactory(seed=7)
        noise_rng = rngs.child("simulator", "noise")
        size_rng = rngs.child("workload", "cluster1", "sizes")
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def child(self, *names: object) -> np.random.Generator:
        """Return a generator unique to ``names`` under this factory's seed."""
        return derive_rng(self.seed, *names)

    def spawn(self, *names: object) -> "RngFactory":
        """Derive a child factory, for handing a subsystem its own seed tree."""
        return RngFactory(stable_hash("factory", self.seed, *names) & ((1 << 63) - 1))
