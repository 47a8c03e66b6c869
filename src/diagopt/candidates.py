"""Per-vertex candidate families: edit-distance-1 neighborhoods of the initial labels.

A vertex may keep its current item set, drop one item, add one, or swap one
for one other; the family is then thinned by a category rule (at most one
item per category) and a per-vertex role (only items related to the vertex's
purpose). Families are plain sets of frozensets and immutable once built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import InputError, ItemSet, ItemUniverse, Vertex

Family = frozenset[ItemSet]


@dataclass(frozen=True)
class CategoryFamily:
    """Disjoint item categories; a candidate may hold at most one item of each."""

    categories: tuple[ItemSet, ...]

    @staticmethod
    def build(categories: Iterable[Iterable[int]]) -> "CategoryFamily":
        return CategoryFamily(tuple(frozenset(c) for c in categories))

    def admits(self, c: ItemSet) -> bool:
        return all(len(c & cat) <= 1 for cat in self.categories)


@dataclass(frozen=True)
class CandidateFamily:
    """The permitted item subsets at one vertex, with the role they respect."""

    vertex: Vertex
    candidates: Family
    role: ItemSet

    def __post_init__(self) -> None:
        for c in self.candidates:
            if not c <= self.role:
                raise InputError(f"candidate {sorted(c)} at {self.vertex} escapes role")

    def __len__(self) -> int:
        return len(self.candidates)

    def __contains__(self, c: ItemSet) -> bool:
        return c in self.candidates

    @property
    def ordered(self) -> tuple[ItemSet, ...]:
        """Canonical candidate order: lexicographic on the sorted item tuple."""
        return tuple(sorted(self.candidates, key=lambda c: tuple(sorted(c))))


def neighborhood(base: ItemSet | Iterable[int], universe: ItemUniverse) -> set[ItemSet]:
    """All sets reachable from ``base`` by keeping it, or editing one item per side.

    The result contains ``base`` itself, every one-item removal, every
    one-item addition from the universe, and every single swap.
    """
    base = frozenset(base)
    for i in base:
        if i not in universe:
            raise InputError(f"base item {i} not in universe")
    others = [i for i in universe if i not in base]

    family: set[ItemSet] = {base}
    for i in base:
        removed = base - {i}
        family.add(removed)
        for j in others:
            family.add(removed | {j})
    for j in others:
        family.add(base | {j})
    return family


def category_filter(family: Iterable[ItemSet], categories: CategoryFamily) -> set[ItemSet]:
    """Keep the sets holding at most one item per category; uncategorized items pass."""
    return {c for c in family if categories.admits(c)}


def role_restrict(
    vertex: Vertex, family: Iterable[ItemSet], role: ItemSet | Iterable[int]
) -> CandidateFamily:
    """Keep the sets contained in the vertex's role pool."""
    role = frozenset(role)
    return CandidateFamily(
        vertex=vertex,
        candidates=frozenset(c for c in family if c <= role),
        role=role,
    )


def build_family(
    vertex: Vertex,
    base: ItemSet | Iterable[int],
    universe: ItemUniverse,
    categories: CategoryFamily,
    role: ItemSet | Iterable[int],
) -> CandidateFamily:
    """Full pipeline: neighborhood, then category filter, then role restriction."""
    return role_restrict(vertex, category_filter(neighborhood(base, universe), categories), role)
