"""Experiment result container and report formatting."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """Outcome of one table/figure reproduction.

    Attributes:
        experiment_id: e.g. "tab5" or "fig14".
        title: what the artifact shows.
        rows: tabular results (list of dicts with consistent keys).
        series: named numeric series for figure-type artifacts.
        paper: the paper's reported numbers for the same artifact, where the
            paper states them (used by shape assertions, and by the
            ``EXPERIMENTS.md`` that ``python scripts/build_experiments_md.py``
            writes on demand from a benchmark run; it is not checked in).
        notes: any substitution/scaling caveats.
    """

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    series: dict[str, list] = field(default_factory=dict)
    paper: dict = field(default_factory=dict)
    notes: str = ""

    def to_text(self) -> str:
        """Render the result the way the paper's table would read."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            lines.append(format_table(self.rows))
        for name, values in self.series.items():
            preview = ", ".join(_fmt(v) for v in values[:12])
            suffix = ", ..." if len(values) > 12 else ""
            lines.append(f"  {name}: [{preview}{suffix}]")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)

    def row_by(self, key: str, value) -> dict:
        """First row whose ``key`` equals ``value`` (for tests)."""
        for row in self.rows:
            if row.get(key) == value:
                return row
        raise KeyError(f"no row with {key}={value!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0 or 0.01 <= abs(value) < 1e6:
            return f"{value:.3g}"
        return f"{value:.2e}"
    return str(value)


def format_table(rows: list[dict]) -> str:
    """Plain-text table with aligned columns."""
    if not rows:
        return "(empty)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    sep = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = ["  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered]
    return "\n".join(["  " + header, "  " + sep] + ["  " + b for b in body])
