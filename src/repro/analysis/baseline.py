"""Checked-in baseline of grandfathered findings.

The baseline lets the lint gate land with real, acknowledged debt without
blocking CI: findings recorded in the baseline file are reported separately
and do not fail the run; any *new* finding does.  Fingerprints are line-free
(``rule::path::message``) so unrelated edits above a grandfathered site do
not invalidate it, with a count per fingerprint so a second occurrence of
the same hazard in the same file is still caught.

Workflow:

* ``repro lint`` — fails on any finding not covered by the baseline;
* fix or pragma-justify the finding (preferred), or
* ``repro lint --write-baseline`` — regenerate the file after a deliberate
  decision to grandfather it (reviewed like any other diff).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.framework import AnalysisReport, Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "LINT_BASELINE.json"


@dataclass
class Baseline:
    """Multiset of grandfathered finding fingerprints."""

    counts: Counter = field(default_factory=Counter)

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        return cls(counts=Counter(f.fingerprint() for f in findings))

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version in {path}: {payload.get('version')!r}"
            )
        counts: Counter = Counter()
        for entry in payload.get("findings", []):
            fingerprint = (
                f"{entry['rule']}::{entry['path']}::{entry['message']}"
            )
            counts[fingerprint] += int(entry.get("count", 1))
        return cls(counts=counts)

    def save(self, path: Path) -> None:
        entries = []
        for fingerprint in sorted(self.counts):
            rule, file_path, message = fingerprint.split("::", 2)
            entries.append(
                {
                    "rule": rule,
                    "path": file_path,
                    "message": message,
                    "count": self.counts[fingerprint],
                }
            )
        payload = {"version": BASELINE_VERSION, "findings": entries}
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def apply_baseline(report: AnalysisReport, baseline: Baseline) -> AnalysisReport:
    """Split the report's findings into actionable vs baselined.

    Findings are consumed against the baseline in sorted (path, line) order,
    so when a file holds more occurrences than the baseline records, the
    *later* ones surface as new.
    """
    remaining = Counter(baseline.counts)
    actionable: list[Finding] = []
    matched: list[Finding] = []
    for finding in report.findings:
        fingerprint = finding.fingerprint()
        if remaining[fingerprint] > 0:
            remaining[fingerprint] -= 1
            matched.append(finding)
        else:
            actionable.append(finding)
    return AnalysisReport(
        findings=actionable,
        baselined=matched,
        files_checked=report.files_checked,
        rules_run=report.rules_run,
    )
