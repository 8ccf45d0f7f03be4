"""Operator signatures: the keys under which learned models are stored.

SCOPE computes a 64-bit signature per operator recursively from (i) child
signatures, (ii) the operator's name, and (iii) its logical properties
(Section 5.1).  Cleo adds three more signatures, one per individual model,
the fields of a :class:`SignatureBundle`:

* ``strict`` (:func:`strict_signature`) — the operator-subgraph key: root
  physical operator plus the exact shape of everything beneath it;
* ``approx`` — operator-subgraphApprox: root physical operator, normalized
  inputs, and the *frequency* of logical operators underneath, ignoring
  order (Section 4.2): two subgraphs share it when they share the root
  physical operator, the normalized inputs, and the multiset of logical
  operator types beneath the root;
* ``input`` (:func:`input_signature_for`) — operator-input: root physical
  operator plus normalized input templates;
* ``operator`` (:func:`operator_signature_for`) — just the physical operator
  type.

All four are computed by one recursion, :func:`signed` — the paper's "all
signatures can be computed simultaneously in the same recursion" — which
stores them on the node's :class:`~repro.plan.summary.SubtreeSummary`, so
each operator is hashed at most once however many callers ask.  Across
nodes, the tier is a function of the node's structure alone, so
:func:`signed` computes it once per structure per process: a bounded memo
(:data:`_TIER_CACHE`) hands every later node of the same structure — the
next instance of a recurring job, the replay's ``RNode`` for a materialized
``PhysicalOp`` — the same ``freq_incl`` and the same bundle object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.common.hashing import (
    combine_hashes,
    combine_hashes_unordered,
    stable_hash,
)
from repro.plan.logical import LogicalOpType
from repro.plan.physical import PhysicalOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.summary import SubtreeSummary

# Per-component hash caches.  Signatures hash the same small set of template
# tags, input sets, and operator names over and over across a workload's
# thousands of operator instances; memoizing the blake2b digests turns the
# per-operator cost into dict lookups.  Values are unchanged — the caches
# only skip recomputing identical hashes.  Ad-hoc templates mint fresh tags
# forever, so each cache clears when it reaches _CACHE_LIMIT entries
# (values are pure recomputations; a clear is always safe) to keep
# long-running processes bounded.
_CACHE_LIMIT = 1 << 18
_OWN_HASH_CACHE: dict[tuple[str, str], int] = {}
_INPUT_SIG_CACHE: dict[tuple[str, frozenset[str]], int] = {}
_OPERATOR_SIG_CACHE: dict[str, int] = {}
_FREQ_HASH_CACHE: dict[int, int] = {}
_APPROX_SIG_CACHE: dict[tuple[str, int, frozenset[str]], int] = {}
#: Structure -> ``(freq_incl, bundle)``: the whole signature tier of a node.
#: The key — op type, template tag, normalized inputs, logical type, the
#: frequencies below and the children's strict signatures — is everything
#: the tier is computed from, so a hit returns exactly what the recursion
#: would.  A smaller limit than the hash caches, because each entry keeps a
#: bundle alive (~400 bytes an entry, ~1.7 MB full): a fleet night at
#: ``full`` scale mints more structures than that and clears it about twice,
#: and the memo still answers seven lookups in ten.
_TIER_CACHE_LIMIT = 1 << 12
_TIER_CACHE: dict[tuple, tuple[int, "SignatureBundle"]] = {}


def _approx_hash(op_type_value: str, freq_hash: int, inputs: frozenset[str]) -> int:
    key = (op_type_value, freq_hash, inputs)
    cached = _APPROX_SIG_CACHE.get(key)
    if cached is None:
        if len(_APPROX_SIG_CACHE) >= _CACHE_LIMIT:
            _APPROX_SIG_CACHE.clear()
        cached = stable_hash("approx", op_type_value, freq_hash, inputs)
        _APPROX_SIG_CACHE[key] = cached
    return cached


def _own_hash(op_type_value: str, template_tag: str) -> int:
    key = (op_type_value, template_tag)
    cached = _OWN_HASH_CACHE.get(key)
    if cached is None:
        if len(_OWN_HASH_CACHE) >= _CACHE_LIMIT:
            _OWN_HASH_CACHE.clear()
        cached = stable_hash("strict", op_type_value, template_tag)
        _OWN_HASH_CACHE[key] = cached
    return cached


#: Logical-operator frequencies travel as ONE int, ``_FREQ_BITS`` bits per
#: :class:`LogicalOpType` in declaration order: merging children is addition,
#: the value is its own cache key, and it is a fraction of the size of the
#: dict per operator it replaces (the fattest part of a stored summary).
_FREQ_BITS = 32
_FREQ_UNIT = {t.value: 1 << (_FREQ_BITS * i) for i, t in enumerate(LogicalOpType)}


def logical_frequencies(freq: int) -> dict[str, int]:
    """Unpack a frequency int: logical type name -> count (non-zero only)."""
    mask = (1 << _FREQ_BITS) - 1
    counts = ((name, (freq // unit) & mask) for name, unit in _FREQ_UNIT.items())
    return {name: count for name, count in counts if count}


def _freq_hash(freq: int) -> int:
    cached = _FREQ_HASH_CACHE.get(freq)
    if cached is None:
        if len(_FREQ_HASH_CACHE) >= _CACHE_LIMIT:
            _FREQ_HASH_CACHE.clear()
        # combine_hashes_unordered is order-independent by construction.
        cached = combine_hashes_unordered(
            stable_hash("freq", name, count)
            for name, count in logical_frequencies(freq).items()
        )
        _FREQ_HASH_CACHE[freq] = cached
    return cached


def signed(node) -> "SubtreeSummary":
    """``node.summary`` with its signature tier filled in, on first demand.

    The one signature recursion, shared by :class:`PhysicalOp` and the
    skeleton planner's ``RNode`` (it reads ``op_type``, ``template_tag``,
    ``logical``, ``children`` and ``summary``): the strict hash combines the
    children's strict hashes with the node's own, and the approx signature
    hashes the logical-operator frequencies *below* the node — the node's
    own type joins ``freq_incl`` only after its bundle is made.  A node whose
    structure was seen before takes its tier from :data:`_TIER_CACHE`.
    ``bundle`` is stored last, so a reader that sees it sees the whole tier.
    """
    summary = node.summary
    if summary.bundle is not None:
        return summary
    op_value = node.op_type.value
    tiers = [signed(child) for child in node.children]
    freq_below = sum(below.freq_incl for below in tiers)
    logical = node.logical
    logical_value = None if logical is None else logical.op_type.value
    tag = node.template_tag
    key = (
        op_value,
        tag,
        summary.inputs,
        logical_value,
        freq_below,
        *[below.bundle.strict for below in tiers],
    )
    tier = _TIER_CACHE.get(key)
    if tier is None:
        strict = combine_hashes(key[5:] + (_own_hash(op_value, tag),))
        own = 0 if logical_value is None else _FREQ_UNIT[logical_value]
        bundle = SignatureBundle(
            strict,
            _approx_hash(op_value, _freq_hash(freq_below), summary.inputs),
            input_signature_for(op_value, summary.inputs),
            operator_signature_for(op_value),
        )
        if len(_TIER_CACHE) >= _TIER_CACHE_LIMIT:
            _TIER_CACHE.clear()
        tier = _TIER_CACHE[key] = (freq_below + own, bundle)
    summary.freq_incl = tier[0]
    summary.bundle = tier[1]
    return summary


def strict_signature(op: PhysicalOp) -> int:
    """Exact operator-subgraph signature (root operator + all descendants)."""
    return signed(op).bundle.strict


def input_signature_for(op_type_value: str, normalized_inputs: frozenset[str]) -> int:
    """Operator-input signature: physical operator + normalized inputs
    (cached)."""
    key = (op_type_value, normalized_inputs)
    cached = _INPUT_SIG_CACHE.get(key)
    if cached is None:
        if len(_INPUT_SIG_CACHE) >= _CACHE_LIMIT:
            _INPUT_SIG_CACHE.clear()
        cached = stable_hash("input", op_type_value, normalized_inputs)
        _INPUT_SIG_CACHE[key] = cached
    return cached


def operator_signature_for(op_type_value: str) -> int:
    """Operator signature: the physical operator type alone (full coverage;
    cached)."""
    cached = _OPERATOR_SIG_CACHE.get(op_type_value)
    if cached is None:
        cached = stable_hash("operator", op_type_value)
        _OPERATOR_SIG_CACHE[op_type_value] = cached
    return cached


class SignatureBundle(NamedTuple):
    """All four model keys for one operator, computed in one recursion.

    A named tuple: one allocation per bundle, immutable, and already the
    row a feature table's signature columns are packed from.
    """

    strict: int
    approx: int
    input: int
    operator: int

    @classmethod
    def of(cls, op: PhysicalOp) -> "SignatureBundle":
        """The operator's own bundle: an O(1) read once computed."""
        return signed(op).bundle
