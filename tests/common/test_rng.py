"""Tests for the named-RNG derivation tree."""

from __future__ import annotations

from repro.common.rng import RngFactory, derive_rng


class TestDeriveRng:
    def test_same_names_same_stream(self):
        a = derive_rng(7, "x").normal(size=5)
        b = derive_rng(7, "x").normal(size=5)
        assert (a == b).all()

    def test_different_names_different_streams(self):
        a = derive_rng(7, "x").normal(size=5)
        b = derive_rng(7, "y").normal(size=5)
        assert not (a == b).all()

    def test_different_seeds_different_streams(self):
        a = derive_rng(1, "x").normal(size=5)
        b = derive_rng(2, "x").normal(size=5)
        assert not (a == b).all()


class TestRngFactory:
    def test_child_stability_across_call_order(self):
        factory = RngFactory(3)
        first = factory.child("sim", "noise").random()
        factory.child("unrelated").random()  # extra draw must not shift others
        second = RngFactory(3).child("sim", "noise").random()
        assert first == second

    def test_spawn_changes_namespace(self):
        root = RngFactory(9)
        spawned = root.spawn("sub")
        assert root.child("k").random() != spawned.child("k").random()

    def test_spawn_deterministic(self):
        a = RngFactory(9).spawn("sub").child("k").random()
        b = RngFactory(9).spawn("sub").child("k").random()
        assert a == b
