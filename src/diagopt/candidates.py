"""Per-vertex candidate families: one-item edits of the deployed labels.

A vertex may keep its deployed item set, drop one item, add one, or swap one
for one other. A candidate must also lie inside the vertex's role (the items
related to its purpose) and hold at most one item of each category. Families
are plain sets of frozensets and immutable once built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import InputError, ItemSet, ItemUniverse, Vertex

Family = frozenset[ItemSet]


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


def build_family(
    vertex: Vertex,
    base: ItemSet | Iterable[int],
    universe: ItemUniverse,
    categories: Iterable[ItemSet],
    role: ItemSet | Iterable[int],
) -> CandidateFamily:
    """The sets within one removed and one added item of ``base`` that lie
    inside ``role`` and hold at most one item of each category.

    Uncategorized items are unconstrained. Raises ``InputError`` naming the
    smallest item of ``base`` or ``role`` outside ``universe``.
    """
    base, role = frozenset(base), frozenset(role)
    outside = [i for i in base | role if i not in universe]
    if outside:
        raise InputError(f"item {min(outside)} at {vertex} is outside the universe")
    categories = tuple(categories)
    kept = [base, *(base - {i} for i in base)]
    edits = {*kept, *(c | {j} for c in kept for j in role - base)}
    candidates = frozenset(
        c for c in edits if c <= role and all(len(c & cat) <= 1 for cat in categories)
    )
    return CandidateFamily(vertex=vertex, candidates=candidates, role=role)
