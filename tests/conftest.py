"""Shared builders for the test suite."""
from __future__ import annotations

import random

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from diagopt.candidates import CandidateFamily
from diagopt.core import (
    Arc,
    Assignment,
    Diagram,
    ExamineeType,
    ItemUniverse,
    Metrics,
    MethodUniverse,
    Population,
)
from diagopt.encoder import Instance


def make_type(
    tid: int,
    weight: int,
    positive_items: set[int],
    positive_methods: set[int],
    z: int,
    items: ItemUniverse,
    methods: MethodUniverse,
) -> ExamineeType:
    return ExamineeType(
        id=tid,
        weight=weight,
        x=tuple(int(i in positive_items) for i in items.items),
        y=tuple(int(m in positive_methods) for m in methods.methods),
        z=z,
    )


def one_test_diagram() -> Diagram:
    """Source tests once; label 1 goes to s1, label 0 to s0."""
    return Diagram(
        vertices=("r", "s0", "s1"),
        arcs=(Arc("r", "s0", 0), Arc("r", "s1", 1)),
    )


def family(vertex: str, candidates: list[set[int]], role: set[int]) -> CandidateFamily:
    return CandidateFamily(
        vertex=vertex,
        candidates=frozenset(frozenset(c) for c in candidates),
        role=frozenset(role),
    )


def tiny_instance(
    n_methods: int = 4,
    budget: int = 10_000,
    targets: tuple[int, int, int] = (3, 1, 1),
    weights: tuple[int, ...] = (1,),
    positive: tuple[set[int], ...] = ({0},),
    responds: tuple[set[int], ...] = ({1},),
    improves: tuple[int, ...] = (1,),
) -> Instance:
    """One internal vertex testing item 0, candidates {} and {0}, two sinks."""
    items = ItemUniverse((0, 1))
    methods = MethodUniverse(
        methods=tuple(range(n_methods)), costs=tuple(200 * m for m in range(n_methods))
    )
    types = tuple(
        make_type(i, w, positive[i], responds[i], improves[i], items, methods)
        for i, w in enumerate(weights)
    )
    pop = Population(items=items, methods=methods, types=types)
    d = one_test_diagram()
    fam = family("r", [set(), {0}], {0, 1})
    initial = Assignment.build({"r": {0}}, {"s0": 0, "s1": 1})
    return Instance(
        diagram=d,
        population=pop,
        families={"r": fam},
        initial=initial,
        budget=budget,
        targets=targets,
    )


def random_toy_instance(rng: random.Random, scale: str = "small") -> Instance:
    """A random instance: valid diagram, families containing the initial labels.

    ``small`` keeps enumeration over completions cheap; ``full`` stretches to
    four internal vertices, five candidates per vertex, and fifty types.
    """
    full = scale == "full"
    n_items = rng.randint(3, 8 if full else 6)
    n_methods = rng.randint(2, 4)
    items = ItemUniverse(tuple(range(n_items)))
    costs = tuple(sorted(rng.choice([0, 100, 200, 500]) for _ in range(n_methods)))
    methods = MethodUniverse(methods=tuple(range(n_methods)), costs=costs)

    n_internal = rng.randint(1, 4 if full else 3)
    n_sinks = rng.randint(1, 2) if n_internal > 1 else 2
    while True:
        internals = tuple(f"u{i}" for i in range(n_internal))
        sinks = tuple(f"s{i}" for i in range(n_sinks))
        vertices = internals + sinks
        arcs = []
        for i, u in enumerate(internals):
            later = list(internals[i + 1 :]) + list(sinks)
            arcs.append(Arc(u, rng.choice(later), 0))
            arcs.append(Arc(u, rng.choice(later), 1))
        d = Diagram(vertices=vertices, arcs=tuple(arcs))
        heads = {a.head for a in arcs}
        if all(v in heads for v in vertices[1:]):
            break

    families = {}
    node_labels = {}
    for u in d.internals:
        size = rng.randint(1, 5 if full else 4)
        cands = set()
        while len(cands) < size:
            cands.add(frozenset(i for i in range(n_items) if rng.random() < 0.4))
        cands = frozenset(cands)
        families[u] = CandidateFamily(
            vertex=u, candidates=cands, role=frozenset(range(n_items))
        )
        node_labels[u] = rng.choice(sorted(cands, key=sorted))
    sink_labels = {s: rng.randrange(n_methods) for s in d.sinks}
    initial = Assignment.build(node_labels, sink_labels)

    n_types = rng.randint(2, 50 if full else 12)
    types = tuple(
        ExamineeType(
            id=i,
            weight=rng.randint(1, 9),
            x=tuple(int(rng.random() < 0.5) for _ in range(n_items)),
            y=tuple(int(rng.random() < 0.5) for _ in range(n_methods)),
            z=int(rng.random() < 0.5),
        )
        for i in range(n_types)
    )
    pop = Population(items=items, methods=methods, types=types)

    total = pop.total_weight
    budget = rng.choice([0, total * 50, total * 200, total * 700])
    targets = (
        len(vertices),
        max(1, int(total * rng.uniform(0.05, 0.6))),
        max(1, int(total * rng.uniform(0.05, 0.4))),
    )
    return Instance(
        diagram=d,
        population=pop,
        families=families,
        initial=initial,
        budget=budget,
        targets=targets,
    )


@st.composite
def valid_diagram(draw, max_internal: int = 4, max_sinks: int = 3):
    """Arbitrary valid diagram: arcs only point at later vertices, one source."""
    n_internal = draw(st.integers(1, max_internal))
    n_sinks = draw(st.integers(1, max_sinks))
    internals = tuple(f"u{i}" for i in range(n_internal))
    sinks = tuple(f"s{i}" for i in range(n_sinks))
    vertices = internals + sinks
    arcs = []
    for i, u in enumerate(internals):
        later = list(internals[i + 1 :]) + list(sinks)
        arcs.append(Arc(u, draw(st.sampled_from(later)), 0))
        arcs.append(Arc(u, draw(st.sampled_from(later)), 1))
    d = Diagram(vertices=vertices, arcs=tuple(arcs))
    heads = {a.head for a in d.arcs}
    # vertices without in-arcs would add extra sources
    assume(all(v in heads for v in vertices[1:]))
    return d


def random_feasible_assignment(inst: Instance, rng: random.Random) -> Assignment:
    node_items = {u: rng.choice(inst.families[u].ordered) for u in inst.diagram.internals}
    sink_methods = {
        s: rng.choice(inst.population.methods.methods) for s in inst.diagram.sinks
    }
    return Assignment(node_items=node_items, sink_methods=sink_methods)


def point_metrics(model, pt) -> Metrics:
    """The model's cost and indicator expressions, summed exactly at a 0/1 point."""
    exprs = (model.cost_expr, *model.obj_exprs)
    return Metrics(*(sum(coef for coef, idx in e if pt.values[idx]) for e in exprs))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240815)
