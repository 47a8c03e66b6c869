"""Diagram model, routing, and metric evaluation."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagopt.core import (
    Arc,
    Assignment,
    Diagram,
    ExamineeType,
    InputError,
    ItemUniverse,
    Metrics,
    MethodUniverse,
    Population,
    evaluate,
    route,
    validate_diagram,
)
from conftest import make_type, one_test_diagram, valid_diagram

ITEMS = ItemUniverse(tuple(range(10)))
METHODS = MethodUniverse(methods=(0, 1, 2, 3), costs=(0, 200, 500, 700))


def t_with(positive: set[int], responds: set[int] = frozenset(), z: int = 0, w: int = 1,
           tid: int = 0) -> ExamineeType:
    return make_type(tid, w, positive, responds, z, ITEMS, METHODS)


class TestUniverses:
    def test_items_must_be_unique_and_nonempty(self):
        with pytest.raises(InputError):
            ItemUniverse(())
        with pytest.raises(InputError):
            ItemUniverse((1, 1))

    def test_item_lookup(self):
        assert ITEMS.index(3) == 3
        assert 9 in ITEMS and 10 not in ITEMS
        with pytest.raises(InputError):
            ITEMS.index(99)

    def test_method_costs(self):
        assert METHODS.costs[METHODS.index(0)] == 0
        assert METHODS.costs[METHODS.index(3)] == 700
        with pytest.raises(InputError):
            MethodUniverse(methods=(0, 1), costs=(0, -5))
        with pytest.raises(InputError):
            MethodUniverse(methods=(0, 1), costs=(0,))

    def test_population_checks_vector_lengths(self):
        bad = ExamineeType(id=0, weight=1, x=(1,), y=(0, 0, 0, 0), z=0)
        with pytest.raises(InputError):
            Population(items=ITEMS, methods=METHODS, types=(bad,))

    def test_weight_must_be_positive(self):
        with pytest.raises(InputError):
            ExamineeType(id=0, weight=0, x=(0,), y=(0,), z=0)


class TestValidateDiagram:
    def test_single_vertex_is_valid(self):
        d = Diagram(vertices=("r",), arcs=())
        report = validate_diagram(d)
        assert report.ok
        assert d.internals == ()
        assert d.sinks == ("r",)
        assert d.source == "r"

    def test_duplicate_labels_flagged(self):
        d = Diagram(
            vertices=("r", "a", "b"),
            arcs=(Arc("r", "a", 1), Arc("r", "b", 1)),
        )
        report = validate_diagram(d)
        assert not report.ok
        assert any("duplicate arc label at r" in v for v in report.violations)

    def test_cycle_flagged(self):
        d = Diagram(
            vertices=("r", "v", "s1", "s2"),
            arcs=(
                Arc("r", "v", 0),
                Arc("r", "v", 1),
                Arc("v", "s1", 0),
                Arc("v", "s2", 1),
                Arc("s1", "r", 0),
            ),
        )
        report = validate_diagram(d)
        assert not report.ok
        assert any("cycle" in v for v in report.violations)

    def test_multiple_sources_flagged(self):
        d = Diagram(
            vertices=("a", "b", "s"),
            arcs=(Arc("a", "s", 0), Arc("a", "s", 1), Arc("b", "s", 0), Arc("b", "s", 1)),
        )
        report = validate_diagram(d)
        assert not report.ok
        assert any("multiple sources" in v for v in report.violations)

    def test_out_degree_one_flagged(self):
        d = Diagram(vertices=("r", "s"), arcs=(Arc("r", "s", 0),))
        report = validate_diagram(d)
        assert not report.ok
        assert any("out-degree" in v for v in report.violations)

    def test_unknown_endpoint_rejected_at_construction(self):
        with pytest.raises(InputError):
            Diagram(vertices=("r",), arcs=(Arc("r", "ghost", 0),))


class TestRoute:
    def test_one_step_positive(self):
        d = one_test_diagram()
        phi = Assignment.build({"r": {0}}, {"s0": 0, "s1": 2})
        got = route(d, phi, t_with({0}), ITEMS)
        assert got.method == 2
        assert got.visited == frozenset({"r", "s1"})

    def test_empty_label_forces_zero_arc(self):
        d = one_test_diagram()
        phi = Assignment.build({"r": set()}, {"s0": 3, "s1": 1})
        for positive in (set(), {0}, {0, 1}):
            got = route(d, phi, t_with(positive), ITEMS)
            assert got.method == 3
            assert got.visited == frozenset({"r", "s0"})

    def test_two_step_walk(self):
        d = Diagram(
            vertices=("r", "v", "sa", "s1", "s2"),
            arcs=(
                Arc("r", "sa", 0),
                Arc("r", "v", 1),
                Arc("v", "s2", 0),
                Arc("v", "s1", 1),
            ),
        )
        phi = Assignment.build({"r": {2}, "v": {5}}, {"sa": 0, "s1": 1, "s2": 3})
        got = route(d, phi, t_with({2}), ITEMS)  # fires at r, not at v
        assert got.method == 3
        assert got.visited == frozenset({"r", "v", "s2"})

    def test_single_vertex_diagram_routes_to_itself(self):
        d = Diagram(vertices=("r",), arcs=())
        phi = Assignment.build({}, {"r": 1})
        got = route(d, phi, t_with(set()), ITEMS)
        assert got.method == 1
        assert got.visited == frozenset({"r"})


class TestRouteProperties:
    @settings(max_examples=60, deadline=None)
    @given(valid_diagram(), st.data())
    def test_terminates_on_a_simple_path(self, d, data):
        assert validate_diagram(d).ok
        phi = Assignment.build(
            {u: data.draw(st.sets(st.integers(0, 9))) for u in d.internals},
            {s: data.draw(st.sampled_from(METHODS.methods)) for s in d.sinks},
        )
        t = t_with(data.draw(st.sets(st.integers(0, 9))))
        got = route(d, phi, t, ITEMS)

        # re-walk step by step and require a repeat-free path of <= |V| vertices
        path = [d.source]
        while path[-1] in phi.node_items:
            label = int(any(t.x[ITEMS.index(i)] for i in phi.node_items[path[-1]]))
            path.append(d.out_arc(path[-1], label).head)
            assert len(path) <= len(d.vertices)
        assert len(set(path)) == len(path)
        assert got.visited == frozenset(path)
        assert got.method == phi.sink_methods[path[-1]]


class TestEvaluate:
    def test_single_type_cost(self):
        d = one_test_diagram()
        pop = Population(items=ITEMS, methods=METHODS,
                         types=(t_with({0}, w=10),))
        phi = Assignment.build({"r": {0}}, {"s0": 0, "s1": 2})
        m = evaluate(d, phi, phi, pop)
        assert m.cost == 5000

    def test_identity_assignment_maximizes_similarity(self):
        d = one_test_diagram()
        pop = Population(items=ITEMS, methods=METHODS, types=(t_with(set()),))
        phi = Assignment.build({"r": {1, 2}}, {"s0": 0, "s1": 1})
        assert evaluate(d, phi, phi, pop).obj1 == len(d.vertices)

    def test_weighted_reaction_sums(self):
        d = one_test_diagram()
        pop = Population(
            items=ITEMS,
            methods=METHODS,
            types=(
                t_with({0}, responds={1}, z=1, w=3, tid=0),
                t_with({0}, responds={1}, z=0, w=5, tid=1),
            ),
        )
        phi = Assignment.build({"r": {0}}, {"s0": 0, "s1": 1})
        m = evaluate(d, phi, phi, pop)
        assert (m.obj2, m.obj3) == (8, 3)

    def test_method_zero_everywhere_costs_nothing(self):
        d = one_test_diagram()
        pop = Population(items=ITEMS, methods=METHODS,
                         types=(t_with({0}, w=7), t_with(set(), w=2, tid=1)))
        phi = Assignment.build({"r": {0}}, {"s0": 0, "s1": 0})
        assert evaluate(d, phi, phi, pop).cost == 0

    def test_obj3_never_exceeds_obj2(self):
        rng = random.Random(5)
        d = one_test_diagram()
        for _ in range(50):
            types = tuple(
                t_with(
                    {i for i in range(10) if rng.random() < 0.5},
                    responds={m for m in METHODS.methods if rng.random() < 0.5},
                    z=rng.randint(0, 1),
                    w=rng.randint(1, 9),
                    tid=k,
                )
                for k in range(5)
            )
            pop = Population(items=ITEMS, methods=METHODS, types=types)
            phi = Assignment.build(
                {"r": {i for i in range(10) if rng.random() < 0.3}},
                {"s0": rng.choice(METHODS.methods), "s1": rng.choice(METHODS.methods)},
            )
            m = evaluate(d, phi, phi, pop)
            assert 0 <= m.obj3 <= m.obj2 <= pop.total_weight

    def test_obj1_ignores_population_order(self):
        d = one_test_diagram()
        a = t_with({0}, w=1, tid=0)
        b = t_with(set(), w=4, tid=1)
        phi_in = Assignment.build({"r": {0}}, {"s0": 0, "s1": 1})
        phi = Assignment.build({"r": {1}}, {"s0": 0, "s1": 2})
        m1 = evaluate(d, phi, phi_in, Population(items=ITEMS, methods=METHODS, types=(a, b)))
        m2 = evaluate(d, phi, phi_in, Population(items=ITEMS, methods=METHODS, types=(b, a)))
        assert m1.obj1 == m2.obj1 == 1

    def test_metrics_bounds(self):
        m = Metrics(cost=0, obj1=2, obj2=5, obj3=3)
        assert m.obj3 <= m.obj2
