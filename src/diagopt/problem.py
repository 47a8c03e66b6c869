"""The optimization problem: an instance, and the three settings posed over it.

``Instance`` defines the decision space once: ``positions`` orders the
decision vertices (internal vertices in topological order, then sinks),
``choices`` lists each position's labels in canonical order (item sets at
internal vertices, methods at sinks), and a choice vector holds one index
into ``choices`` per position. The search, the brute-force oracle, the
encoder and ``verify`` all read it; ties between optimal assignments break
toward the smallest choice vector. Every deployed label is a candidate
(``misplaced`` is the one label check), and ``fires`` holds each candidate's
test outcome for each examinee type.

``SETTINGS`` is the one definition of each setting's sense, objective and
side rows. The encoder writes it out as LP rows; the search, the brute-force
oracle and ``verify`` all check and score ``Metrics`` through :class:`Goal`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor
from typing import Callable, Mapping, Sequence

import numpy as np

from .candidates import CandidateFamily
from .core import Assignment, Diagram, InputError, ItemSet, Metrics, Population, Vertex

MAXIMIZE = "Maximize"
MINIMIZE = "Minimize"

FIELDS = Metrics._fields

Label = ItemSet | int  # an item set at an internal vertex, a method at a sink
Targets = tuple[int, int, int]
Weights = tuple[int, int, int, int]  # one integer per field of FIELDS


@dataclass(frozen=True)
class Instance:
    """One problem's data: diagram, population, families, initial labels, bounds."""

    diagram: Diagram
    population: Population
    families: Mapping[Vertex, CandidateFamily]
    initial: Assignment
    budget: int
    targets: tuple[int, int, int]

    def __post_init__(self) -> None:
        if set(self.families) != set(self.diagram.internals):
            raise InputError("candidate families must cover exactly the internal vertices")
        universe = set(self.population.items)
        for u, family in self.families.items():
            outside = frozenset().union(*family.candidates) - universe
            if outside:
                raise InputError(f"candidate at {u} names item {min(outside)} outside the universe")
        if not self.initial.covers(self.diagram):
            raise InputError("initial assignment must cover the diagram")
        if any(th < 1 for th in self.targets):
            raise InputError("targets must be positive")
        if self.budget < 0:
            raise InputError("budget must be non-negative")
        misplaced = self.misplaced(self.initial)
        if misplaced:
            raise InputError(f"initial label at {misplaced[0]} is not a candidate")

    @cached_property
    def positions(self) -> tuple[Vertex, ...]:
        """The decision order: internal vertices in topological order, then sinks."""
        return self.diagram.internals + self.diagram.sinks

    @cached_property
    def choices(self) -> tuple[tuple[Label, ...], ...]:
        """Each position's labels in canonical order; at a sink, the methods."""
        methods = self.population.methods.methods
        return tuple(
            self.families[v].ordered if v in self.families else methods for v in self.positions
        )

    def labels(self, phi: Assignment) -> tuple[Label, ...]:
        """``phi``'s label at each position."""
        d = self.diagram
        return tuple(phi.node_items[u] for u in d.internals) + tuple(
            phi.sink_methods[s] for s in d.sinks
        )

    def assignment(self, vec: Sequence[int]) -> Assignment:
        """The assignment a choice vector picks."""
        n = len(self.diagram.internals)
        picked = [labels[k] for labels, k in zip(self.choices, vec)]
        return Assignment(
            node_items=dict(zip(self.positions[:n], picked[:n])),
            sink_methods=dict(zip(self.positions[n:], picked[n:])),
        )

    def choice_vector(self, phi: Assignment) -> tuple[int, ...]:
        """The choice vector of a candidate-feasible ``phi``."""
        return tuple(labels.index(label) for labels, label in zip(self.choices, self.labels(phi)))

    @cached_property
    def deployed(self) -> tuple[int, ...]:
        """The choice vector of the initial labels."""
        return self.choice_vector(self.initial)

    def misplaced(self, phi: Assignment) -> tuple[Vertex, ...]:
        """The positions where ``phi``, which covers the diagram, holds no candidate."""
        at = zip(self.positions, self.choices, self.labels(phi))
        return tuple(v for v, labels, label in at if label not in labels)

    def is_feasible(self, phi: Assignment) -> bool:
        """Whether ``phi`` covers the diagram with one of ``choices`` at every position."""
        return phi.covers(self.diagram) and not self.misplaced(phi)

    @cached_property
    def fires(self) -> tuple[np.ndarray, ...]:
        """Per internal position, a read-only (candidates x types) bool array:
        whether each type is positive on some item of each of ``choices[k]``,
        that is, leaves the vertex by its 1-arc under that candidate."""
        x, items = self.population.x, self.population.items
        tables = []
        for labels in self.choices[: len(self.diagram.internals)]:
            fires = np.array([x[:, [items.index(i) for i in c]].any(axis=1) for c in labels])
            fires.setflags(write=False)
            tables.append(fires)
        return tuple(tables)


def side_rows(inst: Instance) -> dict[str, tuple[str, str, int | Fraction]]:
    """Every side row by name, as (Metrics field, sense, right-hand side).

    The search's node bound checks rows on optimistic totals, one per
    sink-method combination (cost from below, indicators from above), which
    stays admissible only while every row caps the cost or floors an
    indicator.
    """
    th1, th2, th3 = inst.targets
    return {
        "budget": ("cost", "<=", inst.budget),
        "target_obj1": ("obj1", ">=", Fraction(th1, 2)),
        "target_obj2": ("obj2", ">=", th2),
        "target_obj3": ("obj3", ">=", th3),
    }


@dataclass(frozen=True)
class Setting:
    """Sense, objective and side rows of one setting.

    ``objective`` maps the targets to integer weights over FIELDS and a
    divisor: the objective is the weighted sum, divided exactly (as a
    ``Fraction``) unless the divisor is ``None``. As with the rows, bounds
    stay admissible only while a maximized objective weighs indicators and
    a minimized one weighs cost. ``rows`` names entries of :func:`side_rows`.
    """

    sense: str
    objective: Callable[[Targets], tuple[Weights, int | None]]
    rows: tuple[str, ...]


def _normalized_sum(targets: Targets) -> tuple[Weights, int]:
    """obj1/th1 + obj2/th2 + obj3/th3, over the common denominator."""
    th1, th2, th3 = targets
    return (0, th2 * th3, th1 * th3, th1 * th2), th1 * th2 * th3


SETTINGS: dict[int, Setting] = {
    1: Setting(MAXIMIZE, _normalized_sum, ("budget",)),
    2: Setting(
        MINIMIZE, lambda _: ((1, 0, 0, 0), None), ("target_obj1", "target_obj2", "target_obj3")
    ),
    3: Setting(MAXIMIZE, lambda _: ((0, 1, 0, 0), None), ("budget", "target_obj2", "target_obj3")),
}


class Goal:
    """One setting bound to one instance's budget and targets.

    ``feasible`` checks the side rows on a ``Metrics``, which hold exactly
    when each field lies within its entry of ``ranges``; ``score`` is the
    integer objective signed so that larger is better under either sense,
    the sum of ``signed_weights`` times the fields; ``value`` turns a score
    back into the objective value. Both are bound once here, since the
    search calls them at every node.
    """

    def __init__(self, inst: Instance, setting: int):
        spec = SETTINGS.get(setting)
        if spec is None:
            raise InputError(f"unknown setting {setting}, expected 1, 2 or 3")
        self.sense = spec.sense
        self.weights, self.divisor = spec.objective(inst.targets)
        every_row = side_rows(inst)
        self.rows = tuple((name, *every_row[name]) for name in spec.rows)

        # integer metrics satisfy a row exactly when they sit within its
        # rounded right-hand side; a field with no row gets a range wider
        # than any value it can take (integers keep the check cheap)
        pop = inst.population
        top = (max(pop.methods.costs) + 1) * pop.total_weight + len(inst.diagram.vertices)
        lo = [0] * len(FIELDS)
        hi = [top] * len(FIELDS)
        for _, field, sense, rhs in self.rows:
            k = FIELDS.index(field)
            if sense == "<=":
                hi[k] = min(hi[k], floor(rhs))
            else:
                lo[k] = max(lo[k], ceil(rhs))
        self.ranges = tuple(zip(lo, hi))
        (lc, l1, l2, l3), (hc, h1, h2, h3) = lo, hi
        self._sign = 1 if spec.sense == MAXIMIZE else -1
        self.signed_weights = tuple(self._sign * w for w in self.weights)
        wc, w1, w2, w3 = self.signed_weights

        def feasible(m: Metrics) -> bool:
            cost, obj1, obj2, obj3 = m
            return lc <= cost <= hc and l1 <= obj1 <= h1 and l2 <= obj2 <= h2 and l3 <= obj3 <= h3

        def score(m: Metrics) -> int:
            cost, obj1, obj2, obj3 = m
            return wc * cost + w1 * obj1 + w2 * obj2 + w3 * obj3

        self.feasible: Callable[[Metrics], bool] = feasible
        self.score: Callable[[Metrics], int] = score

    def value(self, score: int) -> int | Fraction:
        v = self._sign * score
        return v if self.divisor is None else Fraction(v, self.divisor)
