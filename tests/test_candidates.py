"""Candidate family construction: one-item edits inside the role and categories."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagopt.candidates import CandidateFamily, build_family
from diagopt.core import InputError, ItemUniverse

FULL = ItemUniverse(tuple(range(49)))

CATEGORIES = [
    frozenset(c)
    for c in [
        (1, 2),
        (3, 4),
        (5, 6, 7, 8, 9, 10, 11),
        (12, 13, 14),
        (15, 16, 17),
        (18, 19, 20, 21, 22, 23, 24),
        (25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35),
    ]
]


def family_oracle(
    base: frozenset[int], role: frozenset[int], categories: list[frozenset[int]]
) -> set[frozenset[int]]:
    """Exhaustive reference: every subset of the role within one removed and
    one added item of the base, holding at most one item per category."""
    pool = sorted(role)
    out: set[frozenset[int]] = set()
    for mask in range(1 << len(pool)):
        c = frozenset(pool[i] for i in range(len(pool)) if (mask >> i) & 1)
        if (
            len(base - c) <= 1
            and len(c - base) <= 1
            and all(len(c & cat) <= 1 for cat in categories)
        ):
            out.add(c)
    return out


def edits(base: frozenset[int], universe: ItemUniverse = FULL) -> frozenset[frozenset[int]]:
    """The unfiltered one-item edits: the whole universe as role, no categories."""
    return build_family("u", base, universe, [], frozenset(universe.items)).candidates


class TestNeighborhood:
    def test_singleton_base_count(self):
        assert len(edits(frozenset({40}))) == 98  # base, removal, 48 additions, 48 swaps

    def test_empty_base_only_adds(self):
        assert edits(frozenset()) == {frozenset()} | {frozenset({i}) for i in FULL}

    def test_three_item_base_count(self):
        base = frozenset({1, 4, 8})
        n, b = len(FULL), len(base)
        assert len(edits(base)) == 1 + b + (n - b) + b * (n - b) == 188

    def test_base_outside_universe_rejected(self):
        with pytest.raises(InputError, match="item 99 at u is outside the universe"):
            edits(frozenset({99}))

    def test_role_outside_universe_rejected(self):
        with pytest.raises(InputError, match="item 98 at v1 is outside the universe"):
            build_family("v1", frozenset({40}), FULL, [], frozenset({40, 99, 98}))

    def test_members_stay_within_one_edit_per_side(self):
        base = frozenset({3, 7, 20})
        for c in edits(base):
            assert len(base - c) <= 1
            assert len(c - base) <= 1

    @given(st.sets(st.integers(0, 7), max_size=4))
    @settings(max_examples=40)
    def test_matches_subset_enumeration(self, base_set):
        small = ItemUniverse(tuple(range(8)))
        base = frozenset(base_set)
        want = {
            c
            for mask in range(1 << 8)
            for c in [frozenset(i for i in range(8) if (mask >> i) & 1)]
            if len(base - c) <= 1 and len(c - base) <= 1
        }
        assert edits(base, small) == want


class TestCategoryFilter:
    def test_two_items_same_category_removed(self):
        fam = build_family("u", frozenset({5}), FULL, CATEGORIES, frozenset({5, 6}))
        assert fam.candidates == {frozenset(), frozenset({5}), frozenset({6})}

    def test_one_item_per_category_kept(self):
        base = frozenset({1, 4, 8})
        assert base in build_family("u", base, FULL, CATEGORIES, base)

    def test_uncategorized_items_unconstrained(self):
        fam = build_family("u", frozenset({40}), FULL, CATEGORIES, frozenset({40, 43}))
        assert frozenset({40, 43}) in fam


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

    def test_candidates_escaping_role_rejected(self):
        with pytest.raises(InputError):
            CandidateFamily(
                vertex="u",
                candidates=frozenset({frozenset({5})}),
                role=frozenset({1}),
            )

    def test_seven_item_role_against_oracle(self):
        role = frozenset({38, 39, 42, 44, 46, 47, 48})
        fam = build_family("v2", frozenset({44}), FULL, CATEGORIES, role)
        assert fam.candidates == family_oracle(frozenset({44}), role, CATEGORIES)
        assert len(fam) == 14


@st.composite
def family_inputs(draw):
    """A universe of 1-9 items with a base, a role and categories drawn over it."""
    n = draw(st.integers(1, 9))
    item = st.integers(0, n - 1)
    base = draw(st.frozensets(item, max_size=4))
    role = draw(st.frozensets(item))
    categories = draw(st.lists(st.frozensets(item, min_size=1), max_size=4))
    return n, base, role, categories


@given(family_inputs())
@example((3, frozenset({0, 1}), frozenset({1, 2}), [frozenset({1, 2})]))  # base outside role
@example((3, frozenset({0}), frozenset(), []))  # empty role
@example((4, frozenset(), frozenset({0, 1, 2}), [frozenset({0, 1})]))  # empty base
@settings(max_examples=200)
def test_family_matches_oracle(drawn):
    n, base, role, categories = drawn
    fam = build_family("u", base, ItemUniverse(tuple(range(n))), categories, role)
    assert fam.role == role
    assert fam.candidates == family_oracle(base, role, categories)
