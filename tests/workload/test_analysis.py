"""Tests for workload analysis utilities."""

from __future__ import annotations

from repro.workload.analysis import profile_workload


class TestProfileWorkload:
    def test_counts_consistent(self, tiny_bundle):
        profile = profile_workload(tiny_bundle.log)
        assert profile.total_jobs == len(tiny_bundle.log)
        assert profile.recurring_jobs <= profile.total_jobs
        assert profile.common_subexpressions <= profile.total_subexpressions
        assert profile.trainable_subexpressions <= profile.common_subexpressions

    def test_recurring_dominates(self, tiny_bundle):
        profile = profile_workload(tiny_bundle.log)
        assert profile.recurring_fraction > 0.7

    def test_commonality_high(self, tiny_bundle):
        """The property that makes learning worthwhile (Figure 9)."""
        profile = profile_workload(tiny_bundle.log)
        assert profile.common_fraction > 0.5

    def test_min_samples_monotone(self, tiny_bundle):
        loose = profile_workload(tiny_bundle.log, min_samples=2)
        strict = profile_workload(tiny_bundle.log, min_samples=10)
        assert strict.trainable_subexpressions <= loose.trainable_subexpressions
