"""Plan visualization: ASCII trees, stage summaries, and DOT export.

Debuggability was a stated requirement for Cleo's model choice ("intuitive
and easily interpretable ... an important requirement for effective
debugging and analysis of production jobs", Section 3.4); these helpers are
the plan-side counterpart, used by the examples and handy in a REPL.
"""

from __future__ import annotations

from repro.plan.physical import PhysicalOp
from repro.plan.stages import build_stage_graph


def render_tree(plan: PhysicalOp, show_cards: bool = True) -> str:
    """Box-drawing ASCII rendering of a physical plan."""
    lines: list[str] = []
    _render(plan, "", True, True, show_cards, lines)
    return "\n".join(lines)


def _render(
    op: PhysicalOp,
    prefix: str,
    is_last: bool,
    is_root: bool,
    show_cards: bool,
    lines: list[str],
) -> None:
    """Append ``op``'s subtree to ``lines`` (:func:`render_tree`)."""
    connector = "" if is_root else ("└─ " if is_last else "├─ ")
    label = f"{op.op_type.value}[P={op.partition_count}]"
    if show_cards:
        label += f" rows={op.true_card:,.0f}"
    if op.sorting.is_sorted:
        label += f" {op.sorting.describe()}"
    lines.append(prefix + connector + label)
    child_prefix = prefix + ("" if is_root else ("   " if is_last else "│  "))
    for i, child in enumerate(op.children):
        _render(child, child_prefix, i == len(op.children) - 1, False, show_cards, lines)


def render_stages(plan: PhysicalOp) -> str:
    """Stage-level summary: one line per stage, topologically ordered."""
    graph = build_stage_graph(plan)
    lines = []
    for stage in graph.topological_order():
        ops = " > ".join(op.op_type.value for op in stage.operators)
        deps = ",".join(str(u) for u in sorted(stage.upstream)) or "-"
        rows = max(op.true_card for op in stage.operators)
        lines.append(
            f"stage {stage.index:>2} (P={stage.partition_count:<5} "
            f"after [{deps}]) rows<={rows:>14,.0f}: {ops}"
        )
    return "\n".join(lines)


def diff_plans(before: PhysicalOp, after: PhysicalOp) -> list[str]:
    """Operator-level differences between two plans for the same query."""
    changes: list[str] = []
    before_ops = [op.op_type.value for op in before.walk()]
    after_ops = [op.op_type.value for op in after.walk()]
    if before_ops != after_ops:
        from collections import Counter

        gained = Counter(after_ops) - Counter(before_ops)
        lost = Counter(before_ops) - Counter(after_ops)
        for op_name, count in sorted(lost.items()):
            changes.append(f"-{count} {op_name}")
        for op_name, count in sorted(gained.items()):
            changes.append(f"+{count} {op_name}")
    before_parts = sorted(
        stage.partition_count for stage in build_stage_graph(before).stages
    )
    after_parts = sorted(
        stage.partition_count for stage in build_stage_graph(after).stages
    )
    if before_parts != after_parts:
        changes.append(f"stage partitions {before_parts} -> {after_parts}")
    return changes
