"""Tests for stable hashing and deterministic draws."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given

from repro.common.hashing import (
    _canonical,
    combine_hashes,
    combine_hashes_unordered,
    stable_hash,
    stable_unit_float,
    stable_unit_float_pair,
)

_MASK64 = (1 << 64) - 1


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, 2.0) == stable_hash("a", 1, 2.0)

    def test_distinct_inputs_distinct_hashes(self):
        values = {stable_hash("x", i) for i in range(1000)}
        assert len(values) == 1000

    def test_separator_prevents_concatenation_collisions(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_integer_float_canonicalization(self):
        # 2.0 and 2 canonicalize identically (cardinalities may be either).
        assert stable_hash(2.0) == stable_hash(2)

    def test_frozenset_order_independent(self):
        assert stable_hash(frozenset({"a", "b"})) == stable_hash(frozenset({"b", "a"}))

    def test_tuple_order_dependent(self):
        assert stable_hash(("a", "b")) != stable_hash(("b", "a"))

    @given(st.lists(st.integers(min_value=0, max_value=_MASK64), min_size=1, max_size=20))
    def test_within_64_bits(self, values):
        assert 0 <= combine_hashes(values) <= _MASK64


class TestCombineHashes:
    def test_order_sensitive(self):
        a, b = stable_hash("a"), stable_hash("b")
        assert combine_hashes([a, b]) != combine_hashes([b, a])

    def test_unordered_is_order_insensitive(self):
        a, b, c = (stable_hash(x) for x in "abc")
        assert combine_hashes_unordered([a, b, c]) == combine_hashes_unordered([c, a, b])

    def test_unordered_multiset_sensitivity(self):
        a, b = stable_hash("a"), stable_hash("b")
        assert combine_hashes_unordered([a, a, b]) != combine_hashes_unordered([a, b, b])

    def test_empty(self):
        assert combine_hashes([]) == combine_hashes([])


class TestStableUnitFloat:
    def test_in_unit_interval(self):
        for i in range(200):
            assert 0.0 <= stable_unit_float("u", i) < 1.0

    def test_deterministic(self):
        assert stable_unit_float("k", 1) == stable_unit_float("k", 1)

    def test_roughly_uniform(self):
        values = [stable_unit_float("uniform", i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55

    @given(st.text(max_size=30), st.integers())
    def test_never_out_of_range(self, s, i):
        assert 0.0 <= stable_unit_float(s, i) < 1.0


class _Tag(str):
    """A str whose ``str()`` is not its value, as a str-mixin enum's is."""

    def __str__(self) -> str:
        return "tag:" + super().__str__()


#: Key parts of every shape a draw key takes: strings, ints, floats (an
#: integral one canonicalizes to an int), frozensets, tuples.
_PARTS = st.one_of(
    st.text(max_size=8),
    st.builds(_Tag, st.text(max_size=4)),
    st.integers(),
    st.floats(allow_nan=False),
    st.frozensets(st.text(max_size=4), max_size=4),
    st.tuples(st.text(max_size=4), st.integers()),
)


class TestStableUnitFloatPair:
    @given(st.text(max_size=8), st.text(max_size=3), st.lists(_PARTS, max_size=4))
    def test_equals_the_two_separate_draws(self, salt, tag, parts):
        assert stable_unit_float_pair(salt, tag, *parts) == (
            stable_unit_float(salt, *parts),
            stable_unit_float(salt, tag, *parts),
        )

    def test_string_only_and_empty_keys(self):
        for parts in ((), ("op", "c1", "Filter"), ("input", frozenset({"b", "a"}))):
            assert stable_unit_float_pair("s", "v", *parts) == (
                stable_unit_float("s", *parts),
                stable_unit_float("s", "v", *parts),
            )


def _canonical_oracle(part: object) -> str:
    """The canonical form as first written: isinstance checks only."""
    if isinstance(part, float) and part.is_integer():
        return str(int(part))
    if isinstance(part, frozenset):
        return "{" + ",".join(sorted(_canonical_oracle(p) for p in part)) + "}"
    if isinstance(part, (tuple, list)):
        return "[" + ",".join(_canonical_oracle(p) for p in part) + "]"
    return str(part)


class TestCanonical:
    @given(st.lists(st.one_of(_PARTS, st.booleans())))
    def test_equals_the_isinstance_oracle(self, parts):
        for part in (*parts, tuple(parts)):
            assert _canonical(part) == _canonical_oracle(part)
