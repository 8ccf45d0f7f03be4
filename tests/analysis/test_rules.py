"""Per-rule fixture tests: each bad fixture flags, each good twin is clean.

Fixtures live outside the rules' default module scopes, so these run the
analyzer with :meth:`AnalysisConfig.unscoped` — the same switch the CLI
exposes as ``--unscoped``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import ALL_RULES, AnalysisConfig, run_analysis

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def lint_fixture(*names: str, tests: str | None = None):
    config = AnalysisConfig.unscoped(ALL_RULES)
    return run_analysis(
        [FIXTURES / name for name in names],
        ALL_RULES,
        config,
        root=FIXTURES,
        tests_path=FIXTURES / tests if tests else None,
    )


class TestHashSeedHazard:
    def test_bad_fixture_flags_every_construct(self):
        report = lint_fixture("hashseed_bad.py")
        assert report.failed
        assert {f.rule for f in report.findings} == {"hashseed-hazard"}
        # hash(), for-over-set, list(set), join(set), min(set, key=),
        # comprehension over a set-valued attribute, id() keying self._memo.
        assert len(report.findings) == 7
        assert sum("id() keys" in f.message for f in report.findings) == 1

    def test_good_twin_is_clean(self):
        report = lint_fixture("hashseed_good.py")
        assert report.findings == []
        assert not report.failed


class TestWallClockRng:
    def test_bad_fixture_flags_every_call(self):
        report = lint_fixture("wallclock_bad.py")
        assert report.failed
        assert {f.rule for f in report.findings} == {"wallclock-rng"}
        # time.time, datetime.now, random.random, default_rng, np.random.normal
        assert len(report.findings) == 5
        assert any("derive_rng" in f.message for f in report.findings)

    def test_good_twin_is_clean(self):
        report = lint_fixture("wallclock_good.py")
        assert report.findings == []


class TestFloatReduction:
    def test_bad_fixture_flags_every_reduction(self):
        report = lint_fixture("floatred_bad.py")
        assert report.failed
        assert {f.rule for f in report.findings} == {"float-reduction"}
        # np.sum, np.mean, @, np.dot, .dot(), axis-less .sum()
        assert len(report.findings) == 6

    def test_good_twin_is_clean(self):
        report = lint_fixture("floatred_good.py")
        assert report.findings == []


class TestLockDiscipline:
    def test_bad_fixture_flags_both_halves(self):
        report = lint_fixture("locks_bad.py")
        assert report.failed
        assert {f.rule for f in report.findings} == {"lock-discipline"}
        messages = " | ".join(f.message for f in report.findings)
        assert "predict_batch" in messages  # compute under the lock
        assert "_calls" in messages  # unlocked mutation of guarded state
        assert len(report.findings) == 2

    def test_good_twin_is_clean(self):
        report = lint_fixture("locks_good.py")
        assert report.findings == []

    def test_foreign_lock_and_foreign_state_are_flagged(self):
        """The third half: what the per-class ``self.<attr>`` tracking
        cannot see — another object's lock taken, or its private state
        mutated, from outside."""
        report = lint_fixture("locks_foreign_bad.py")
        assert report.failed
        assert {f.rule for f in report.findings} == {"lock-discipline"}
        locks = [f for f in report.findings if "foreign lock" in f.message]
        state = [f for f in report.findings if "foreign guarded state" in f.message]
        # `with cache._lock`, `with self._cache._lock`
        assert len(locks) == 2
        assert any("cache._lock" in f.message for f in locks)
        assert any("self._cache._lock" in f.message for f in locks)
        # `cache._hits += 1`, `self._cache._entries[key] = value`,
        # `self._cache._entries.pop(...)`
        assert len(state) == 3
        assert any("cache._hits" in f.message for f in state)
        assert sum("self._cache._entries" in f.message for f in state) == 2
        assert len(report.findings) == 5

    def test_foreign_good_twin_is_clean(self):
        """Owner methods, ``self``-received locks, module-global locks and
        plain reads of another object's state are all fine."""
        report = lint_fixture("locks_foreign_good.py")
        assert report.findings == []


class TestClosureCycle:
    def test_bad_fixture_flags_every_cycle(self):
        report = lint_fixture("closurecycle_bad.py")
        assert report.failed
        assert {f.rule for f in report.findings} == {"closure-cycle"}
        messages = [f.message for f in report.findings]
        # visit, ping, pong, depth_of
        closures = [m for m in messages if "nested function" in m]
        assert len(closures) == 4
        assert any("'depth_of' in 'depth'" in m for m in closures)
        # self._cost_fast, self._cost_slow, self._inherited (from Base)
        bound = [m for m in messages if "bound method" in m]
        assert len(bound) == 3
        assert any("self._inherited" in m for m in bound)
        assert len(report.findings) == 7

    def test_good_twin_is_clean(self):
        """Iterative walks, module-level recursion, a non-recursive nested
        helper, a stored plain function, and stored properties, class and
        static methods and call results."""
        report = lint_fixture("closurecycle_good.py")
        assert report.findings == []


class TestReferenceParity:
    def test_orphaned_reference_is_flagged(self):
        report = lint_fixture("refparity/src", tests="refparity/tests_bad")
        assert report.failed
        assert {f.rule for f in report.findings} == {"reference-parity"}
        assert len(report.findings) == 1
        assert "rank_reference" in report.findings[0].message

    def test_exercised_references_are_clean(self):
        report = lint_fixture("refparity/src", tests="refparity/tests_good")
        assert report.findings == []

    def test_private_reference_is_never_required(self):
        report = lint_fixture("refparity/src", tests="refparity/tests_bad")
        assert not any("_probe_reference" in f.message for f in report.findings)
