"""End-to-end lint runs: live-tree cleanliness, CLI exit codes, and the
cross-process determinism pin (``--json`` output must be byte-identical
across PYTHONHASHSEED values).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.analysis import (
    ALL_RULES,
    AnalysisConfig,
    Baseline,
    apply_baseline,
    run_analysis,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
LINT = REPO_ROOT / "scripts" / "lint.py"

BAD_FIXTURES = [
    "closurecycle_bad.py",
    "hashseed_bad.py",
    "wallclock_bad.py",
    "floatred_bad.py",
    "locks_bad.py",
    "pragma_bad.py",
]


def run_lint(*argv: str, env: dict[str, str] | None = None):
    cmd = [sys.executable, str(LINT), *argv]
    merged = {"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "0"}
    if env:
        merged.update(env)
    return subprocess.run(
        cmd, cwd=REPO_ROOT, env=merged, capture_output=True, text=True, timeout=300
    )


class TestLiveTree:
    def test_src_is_clean_under_shipped_baseline(self):
        """Meta-test: the shipped tree passes its own lint gate in-process."""
        report = run_analysis(
            [REPO_ROOT / "src" / "repro"],
            ALL_RULES,
            AnalysisConfig.default(ALL_RULES),
            root=REPO_ROOT,
            tests_path=REPO_ROOT / "tests",
        )
        baseline = Baseline.load(REPO_ROOT / "LINT_BASELINE.json")
        filtered = apply_baseline(report, baseline)
        assert filtered.findings == [], "\n".join(
            f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in filtered.findings
        )

    def test_cli_exits_zero_on_shipped_tree(self):
        proc = run_lint("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCliExitCodes:
    def test_each_bad_fixture_fails(self):
        for name in BAD_FIXTURES:
            proc = run_lint(
                str(FIXTURES / name),
                "--root",
                str(FIXTURES),
                "--unscoped",
                "--no-baseline",
            )
            assert proc.returncode == 1, f"{name}: {proc.stdout}{proc.stderr}"

    def test_each_good_twin_passes(self):
        for name in [
            "closurecycle_good.py",
            "hashseed_good.py",
            "wallclock_good.py",
            "floatred_good.py",
            "locks_good.py",
            "pragma_ok.py",
        ]:
            proc = run_lint(
                str(FIXTURES / name),
                "--root",
                str(FIXTURES),
                "--unscoped",
                "--no-baseline",
            )
            assert proc.returncode == 0, f"{name}: {proc.stdout}{proc.stderr}"

    def test_refparity_exit_codes_follow_tests_tree(self):
        base = [
            str(FIXTURES / "refparity" / "src"),
            "--root",
            str(FIXTURES),
            "--unscoped",
            "--no-baseline",
        ]
        bad = run_lint(*base, "--tests", str(FIXTURES / "refparity" / "tests_bad"))
        good = run_lint(*base, "--tests", str(FIXTURES / "refparity" / "tests_good"))
        assert bad.returncode == 1, bad.stdout + bad.stderr
        assert good.returncode == 0, good.stdout + good.stderr

    def test_unknown_rule_is_a_usage_error(self):
        proc = run_lint("src/repro", "--disable", "no-such-rule")
        assert proc.returncode == 2


class TestCrossProcessDeterminism:
    """PYTHONHASHSEED 0 vs 42 must not change a byte of ``--json`` output."""

    def _json_bytes(self, hashseed: str, *argv: str) -> str:
        proc = run_lint(*argv, "--json", env={"PYTHONHASHSEED": hashseed})
        assert proc.returncode in (0, 1), proc.stderr
        return proc.stdout

    def test_live_tree_json_is_hashseed_invariant(self):
        assert self._json_bytes("0", "src/repro") == self._json_bytes(
            "42", "src/repro"
        )

    def test_fixture_findings_json_is_hashseed_invariant(self):
        # The fixtures directory produces dozens of findings across many
        # files — a much stronger ordering pin than the clean live tree.
        argv = (str(FIXTURES), "--root", str(FIXTURES), "--unscoped", "--no-baseline")
        assert self._json_bytes("0", *argv) == self._json_bytes("42", *argv)
