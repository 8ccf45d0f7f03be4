"""Subtree summaries: the P-independent statistics every plan node carries.

Featurization and signatures need, per operator, facts about the whole
subtree beneath it: the leaf cardinalities (the ``B`` feature), the
normalized inputs (``IN``), the logical-operator count (``CL``), the depth
(``D``).  None of them depends on a partition count, and each follows from
the children's values, so a node computes its :class:`SubtreeSummary` once,
from its children's summaries, and every later read is O(1) — the
one-bottom-up-pass-over-statistics-carried-on-the-nodes costing of Boehm's
"Costing Generated Runtime Execution Plans".

:func:`summarize` is written against the small node protocol both
:class:`~repro.plan.physical.PhysicalOp` and the skeleton planner's
``RNode`` satisfy — ``children``, ``logical``, ``true_card``, and a
``summary`` attribute on the children — so the two planners share one
implementation.  The signature tier (``freq_incl`` / ``bundle``) is filled
in only when a learned model asks, by :func:`repro.plan.signatures.signed`.

A summary is a pure function of an immutable subtree: two threads racing to
compute one store equal values, so no lock guards the cache slots.
"""

from __future__ import annotations


class SubtreeSummary:
    """What a node knows about the subtree it roots.

    ``leaf_cards`` keeps the leaves' true cardinalities in walk order rather
    than their sum: ``base_card`` must stay ``float(sum(leaf_cards))``, one
    left fold from int 0, and summing the children's ``base_card`` values
    would re-associate the floats.  Shared subtrees count once per path,
    as :meth:`PhysicalOp.walk` counts them.
    """

    __slots__ = (
        "leaf_cards",
        "base_card",
        "inputs",
        "n_logical",
        "depth",
        # Signature tier (see repro.plan.signatures.signed); None until asked.
        "freq_incl",
        "bundle",
    )


def summarize(node) -> SubtreeSummary:
    """The summary of ``node``, from its children's summaries."""
    children = node.children
    logical = node.logical
    own = 0 if logical is None else 1
    s = SubtreeSummary()
    if not children:
        s.leaf_cards = (node.true_card,)
        s.inputs = logical.normalized_inputs
        s.n_logical = own
        s.depth = 1
        s.base_card = float(sum(s.leaf_cards))
    elif len(children) == 1:
        below = children[0].summary
        # Shared with the child: no new tuple or frozenset per chain link.
        s.leaf_cards = below.leaf_cards
        s.base_card = below.base_card
        s.inputs = below.inputs if logical is None else logical.normalized_inputs
        s.n_logical = below.n_logical + own
        s.depth = below.depth + 1
    else:
        summaries = [child.summary for child in children]
        leaf_cards: tuple[float, ...] = ()
        for below in summaries:
            leaf_cards += below.leaf_cards
        s.leaf_cards = leaf_cards
        if logical is not None:
            s.inputs = logical.normalized_inputs
        else:  # a multi-child enforcer unions its children's inputs
            s.inputs = frozenset().union(*(below.inputs for below in summaries))
        s.n_logical = sum(below.n_logical for below in summaries) + own
        s.depth = max(below.depth for below in summaries) + 1
        s.base_card = float(sum(leaf_cards))
    s.freq_incl = s.bundle = None
    return s
