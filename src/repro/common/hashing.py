"""Stable 64-bit hashing used for operator signatures and seeded draws.

SCOPE annotates every operator with a 64-bit signature computed recursively
over the plan (Section 5.1 of the paper).  We reproduce that with blake2b,
which is stable across processes and Python versions (unlike the built-in
``hash``, which is salted per process).
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterable

_MASK64 = (1 << 64) - 1


def stable_hash(*parts: object) -> int:
    """Return a stable 64-bit hash of the string forms of ``parts``.

    Parts are joined with an unlikely separator so that ``("ab", "c")`` and
    ``("a", "bc")`` hash differently.
    """
    try:
        # Fast path: all-string parts (the overwhelmingly common case).
        payload = "\x1f".join(parts)
    except TypeError:
        payload = "\x1f".join(map(_canonical, parts))
    return _digest(payload)


def _digest(payload: str) -> int:
    """The 64-bit blake2b digest of one joined payload string."""
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


def _canonical(part: object) -> str:
    """Canonical string form used inside :func:`stable_hash`."""
    # Exact str and int first, the common parts; each is its str() below.
    cls = part.__class__
    if cls is str:
        return part
    if cls is int:
        return str(part)
    if isinstance(part, float) and part.is_integer():
        return str(int(part))
    if isinstance(part, frozenset):
        return "{" + ",".join(sorted(_canonical(p) for p in part)) + "}"
    if isinstance(part, (tuple, list)):
        return "[" + ",".join(_canonical(p) for p in part) + "]"
    return str(part)


def combine_hashes(values: Iterable[int]) -> int:
    """Order-sensitively combine 64-bit hashes into one.

    Uses the classic boost-style mix so children order matters, mirroring how
    SCOPE combines child signatures bottom-up.
    """
    acc = 0xCBF29CE484222325
    for value in values:
        acc ^= (value + 0x9E3779B97F4A7C15 + ((acc << 6) & _MASK64) + (acc >> 2)) & _MASK64
        acc &= _MASK64
    return acc


def combine_hashes_unordered(values: Iterable[int]) -> int:
    """Combine hashes so that the result is independent of input order.

    Used by the *approximate* subgraph signature, which deliberately ignores
    operator ordering (Section 4.2).
    """
    total = 0
    xor = 0
    count = 0
    for value in values:
        total = (total + value) & _MASK64
        xor ^= value
        count += 1
    return stable_hash("unordered", total, xor, count)


def stable_unit_float(*parts: object) -> float:
    """Deterministically map ``parts`` to a float in ``[0, 1)``.

    Used wherever the simulator needs a persistent per-template draw (for
    example the hidden latency multiplier of a subgraph template).
    """
    return stable_hash(*parts) / float(1 << 64)


def stable_unit_float_pair(salt: str, tag: str, *parts: object) -> tuple[float, float]:
    """``stable_unit_float(salt, *parts)`` and ``stable_unit_float(salt, tag,
    *parts)`` from one canonical form of ``parts``.

    A Box-Muller draw needs both uniforms of one key; canonicalizing the key
    (sorting a frozenset, say) once instead of twice halves the work.  The
    payloads, hence the values, are exactly those of the two separate calls.
    """
    try:
        body = "\x1f".join(parts)
    except TypeError:
        body = "\x1f".join(map(_canonical, parts))
        salt, tag = _canonical(salt), _canonical(tag)
    suffix = "\x1f" + body if parts else ""
    u = _digest(salt + suffix)
    v = _digest(salt + "\x1f" + tag + suffix)
    return u / float(1 << 64), v / float(1 << 64)
