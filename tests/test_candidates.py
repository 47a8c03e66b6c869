"""Candidate family construction: neighborhoods and filters."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagopt.candidates import (
    CandidateFamily,
    CategoryFamily,
    build_family,
    category_filter,
    neighborhood,
    role_restrict,
)
from diagopt.core import InputError, ItemUniverse

FULL = ItemUniverse(tuple(range(49)))

CATEGORIES = CategoryFamily.build(
    [
        (1, 2),
        (3, 4),
        (5, 6, 7, 8, 9, 10, 11),
        (12, 13, 14),
        (15, 16, 17),
        (18, 19, 20, 21, 22, 23, 24),
        (25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35),
    ]
)


def family_oracle(
    base: frozenset[int], role: frozenset[int], categories: CategoryFamily
) -> set[frozenset[int]]:
    """Exhaustive reference: every subset of the role within one removed and
    one added item of the base, holding at most one item per category."""
    pool = sorted(role)
    out: set[frozenset[int]] = set()
    for mask in range(1 << len(pool)):
        c = frozenset(pool[i] for i in range(len(pool)) if (mask >> i) & 1)
        if len(base - c) <= 1 and len(c - base) <= 1 and categories.admits(c):
            out.add(c)
    return out


class TestNeighborhood:
    def test_singleton_base_count(self):
        fam = neighborhood(frozenset({40}), FULL)
        assert len(fam) == 98  # base, removal, 48 additions, 48 swaps

    def test_empty_base_only_adds(self):
        fam = neighborhood(frozenset(), FULL)
        assert fam == {frozenset()} | {frozenset({i}) for i in FULL}

    def test_three_item_base_count(self):
        base = frozenset({1, 4, 8})
        fam = neighborhood(base, FULL)
        n, b = len(FULL), len(base)
        assert len(fam) == 1 + b + (n - b) + b * (n - b) == 188

    def test_base_outside_universe_rejected(self):
        with pytest.raises(InputError):
            neighborhood(frozenset({99}), FULL)

    def test_members_stay_within_one_edit_per_side(self):
        base = frozenset({3, 7, 20})
        for c in neighborhood(base, FULL):
            assert len(base - c) <= 1
            assert len(c - base) <= 1

    @given(st.sets(st.integers(0, 7), max_size=4))
    @settings(max_examples=40)
    def test_matches_subset_enumeration(self, base_set):
        small = ItemUniverse(tuple(range(8)))
        base = frozenset(base_set)
        got = neighborhood(base, small)
        want = {
            c
            for mask in range(1 << 8)
            for c in [frozenset(i for i in range(8) if (mask >> i) & 1)]
            if len(base - c) <= 1 and len(c - base) <= 1
        }
        assert got == want


class TestCategoryFilter:
    def test_two_items_same_category_removed(self):
        fam = {frozenset({5, 6})}
        assert category_filter(fam, CATEGORIES) == set()

    def test_one_item_per_category_kept(self):
        fam = {frozenset({1, 4, 8})}
        assert category_filter(fam, CATEGORIES) == fam

    def test_uncategorized_items_unconstrained(self):
        fam = {frozenset({40, 43})}
        assert category_filter(fam, CATEGORIES) == fam


class TestRoleRestrict:
    def test_instance_one_third_vertex_family(self):
        fam = build_family(
            "v3", frozenset({40}), FULL, CATEGORIES, frozenset({36, 40, 43})
        )
        want = {
            frozenset(),
            frozenset({36}),
            frozenset({40}),
            frozenset({43}),
            frozenset({36, 40}),
            frozenset({40, 43}),
        }
        assert fam.candidates == want
        assert fam.candidates == family_oracle(
            frozenset({40}), frozenset({36, 40, 43}), CATEGORIES
        )

    def test_root_family(self):
        fam = build_family("r", frozenset({0}), FULL, CATEGORIES, frozenset({0}))
        assert fam.candidates == {frozenset(), frozenset({0})}

    def test_full_role_is_identity(self):
        raw = category_filter(neighborhood(frozenset({7}), FULL), CATEGORIES)
        fam = role_restrict("u", raw, frozenset(FULL.items))
        assert fam.candidates == frozenset(raw)

    def test_candidates_escaping_role_rejected(self):
        with pytest.raises(InputError):
            CandidateFamily(
                vertex="u",
                candidates=frozenset({frozenset({5})}),
                role=frozenset({1}),
            )

    def test_filters_commute(self):
        base = frozenset({8, 40})
        role = frozenset({5, 8, 36, 40, 43})
        raw = neighborhood(base, FULL)
        a = role_restrict("u", category_filter(raw, CATEGORIES), role)
        b = category_filter(role_restrict("u", raw, role).candidates, CATEGORIES)
        assert a.candidates == frozenset(b)

    def test_seven_item_role_against_oracle(self):
        role = frozenset({38, 39, 42, 44, 46, 47, 48})
        fam = build_family("v2", frozenset({44}), FULL, CATEGORIES, role)
        assert fam.candidates == family_oracle(frozenset({44}), role, CATEGORIES)
        assert len(fam) == 14
