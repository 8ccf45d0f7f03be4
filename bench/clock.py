"""Timing on a host whose speed moves under the benchmark.

The sizing host slows down and speeds up by 30-40% in phases of seconds to
minutes, with CPU time equal to wall time (the cores themselves get slower;
nothing is descheduled).  A raw wall-clock median over a 15 s run therefore
moves by 16-33% between back-to-back runs of the same commit, which is wider
than any bound a regression gate could use.

So every timed chunk is bracketed by a fixed piece of calibration work, the
*spin*, and its wall time is scaled by ``REF_SPIN_S / (mean of the two
spins)``: a *calibrated second* is a second on a host where the spin takes
``REF_SPIN_S``.  ``bench/README.md`` has what this buys on the sizing host.
Raw wall times are printed next to the calibrated ones; only the calibrated
ones are compared.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

#: What one spin takes on the sizing host in its quiet phase.
REF_SPIN_S = 0.008

#: A closing spin this recent also opens the next chunk.
_REUSE_WITHIN_S = 0.005

_PAIRS = [(key, key + 1) for key in ((i * 7919) % 100_003 for i in range(2_000))]
_TABLE = {pair: pair[0] % 7 for pair in _PAIRS}
_ARRAY = np.linspace(0.0, 1.0, 16_384)[::-1].copy()
_GATHER = (np.arange(_ARRAY.size) * 7919) % _ARRAY.size
_BUFFER = np.empty_like(_ARRAY)
_ROWS = [np.arange(12.0) + i for i in range(64)]
_ROW = np.empty(12)


def _second(pair: tuple[int, int]) -> int:
    return pair[1]


def spin() -> float:
    """Wall seconds of the fixed calibration work (a chunk is >= 100 ms).

    Three parts of about equal length, because the host slows interpreter
    arithmetic, container access and numpy by different amounts and the
    program under test is a mix of the three: a bytecode loop; tuple-keyed
    dict lookups and a list sort; numpy on a mid-sized array and on many
    small ones.

    What a spin takes must not depend on what the program did before it, or
    a change to the program would move its own yardstick.  So the working
    set is a few hundred KiB (what the program left in the caches hardly
    matters) and everything is pre-built and updated in place (neither does
    what it left on the heap).
    """
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    table = _TABLE
    for _ in range(10):
        for pair in _PAIRS:
            acc += table[pair]
        _PAIRS.sort(key=_second)
        _PAIRS.reverse()
    for _ in range(12):
        np.take(_ARRAY, _GATHER, out=_BUFFER)
        _BUFFER.sort()
        np.cumsum(_BUFFER, out=_BUFFER)
    for _ in range(6):
        for row in _ROWS:
            np.multiply(row, 1.5, out=_ROW)
            np.add(_ROW, 2.0, out=_ROW)
            acc += _ROW.sum()
    return time.perf_counter() - start


class Chunk:
    """One bracketed stretch of work: raw wall and its calibration factor."""

    __slots__ = ("wall", "factor")

    def __init__(self) -> None:
        self.wall = 0.0
        self.factor = 1.0

    @property
    def seconds(self) -> float:
        """Calibrated seconds."""
        return self.wall * self.factor


class Calibrator:
    """Brackets chunks with spins and remembers every spin it took."""

    def __init__(self) -> None:
        self.spins: list[float] = []
        self._last_end = float("-inf")

    def _spin(self) -> float:
        value = spin()
        self.spins.append(value)
        self._last_end = time.perf_counter()
        return value

    @contextmanager
    def chunk(self) -> Iterator[Chunk]:
        """Time the body; on exit the chunk carries wall and factor."""
        if time.perf_counter() - self._last_end < _REUSE_WITHIN_S:
            before = self.spins[-1]
        else:
            before = self._spin()
        out = Chunk()
        start = time.perf_counter()
        try:
            yield out
        finally:
            out.wall = time.perf_counter() - start
            after = self._spin()
            out.factor = REF_SPIN_S / (0.5 * (before + after))

    def spin_median(self) -> float:
        return float(np.median(self.spins))

    def noisy(self) -> bool:
        """True when the host's speed moved by more than 10% during the run
        (first quarter of the spins against the last quarter)."""
        quarter = max(1, len(self.spins) // 4)
        first = float(np.median(self.spins[:quarter]))
        last = float(np.median(self.spins[-quarter:]))
        return abs(last - first) > 0.10 * min(first, last)
