"""Diagram model, routing, and metric evaluation."""
from __future__ import annotations

import itertools
import random
from dataclasses import replace

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagopt.core import (
    Arc,
    Assignment,
    Diagram,
    InputError,
    ItemUniverse,
    Metrics,
    MethodUniverse,
    evaluate,
    routes,
    sink_totals,
)
from conftest import (
    TypeRow,
    _walk,
    _walk_table,
    make_type,
    one_test_diagram,
    population_from_rows,
    random_toy_instance,
    reached_sinks,
    reference_metrics,
    valid_diagram,
)

ITEMS = ItemUniverse(tuple(range(10)))
METHODS = MethodUniverse(methods=(0, 1, 2, 3), costs=(0, 200, 500, 700))


def t_with(positive: set[int], responds: set[int] = frozenset(), z: int = 0, w: int = 1,
           tid: int = 0) -> TypeRow:
    return make_type(tid, w, positive, responds, z, ITEMS, METHODS)


ONE_TYPE = population_from_rows(ITEMS, METHODS, [t_with(set(), tid=4)])


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
        pop = population_from_rows(ITEMS, METHODS, [t_with({1})])
        with pytest.raises(InputError):
            replace(pop, x=pop.x[:, :1])

    def test_weight_must_be_positive(self):
        with pytest.raises(InputError, match="^type 0: weight must be >= 1$"):
            population_from_rows(ITEMS, METHODS, [t_with(set(), w=0)])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: METHODS.index(9), "^method 9 not in universe$"),
            (
                lambda: replace(ONE_TYPE, x=np.full((1, 10), 2)),
                r"^x must be a bool array of shape \(1, 10\)$",
            ),
            (
                lambda: replace(ONE_TYPE, z=np.array([2])),
                r"^z must be a bool array of shape \(1,\)$",
            ),
            (
                lambda: population_from_rows(ITEMS, METHODS, (t_with(set()), t_with({1}))),
                "^duplicate examinee type ids$",
            ),
            (
                lambda: replace(ONE_TYPE, y=ONE_TYPE.y[:, :1]),
                r"^y must be a bool array of shape \(1, 4\)$",
            ),
            (
                lambda: population_from_rows(
                    ITEMS, METHODS, (t_with(set(), w=2**62), t_with(set(), w=2**62, tid=1))
                ),
                "^total weight 9223372036854775808 does not fit in 64 bits$",
            ),
        ],
        ids=[
            "unknown-method", "x-not-binary", "z-not-binary", "duplicate-type", "y-length",
            "total-weight",
        ],
    )
    def test_bad_values_rejected(self, build, message):
        with pytest.raises(InputError, match=message):
            build()


class TestValidateDiagram:
    def test_single_vertex_is_valid(self):
        d = Diagram(vertices=("r",), arcs=())
        assert d.internals == ()
        assert d.sinks == ("r",)
        assert d.source == "r"
        assert d.heads == {}

    def test_duplicate_labels_flagged(self):
        with pytest.raises(InputError, match="duplicate arc label at r"):
            Diagram(
                vertices=("r", "a", "b"),
                arcs=(Arc("r", "a", 1), Arc("r", "b", 1)),
            )

    def test_cycle_flagged(self):
        with pytest.raises(InputError, match="cycle"):
            Diagram(
                vertices=("r", "v", "s1", "s2"),
                arcs=(
                    Arc("r", "v", 0),
                    Arc("r", "v", 1),
                    Arc("v", "s1", 0),
                    Arc("v", "s2", 1),
                    Arc("s1", "r", 0),
                ),
            )

    def test_multiple_sources_flagged(self):
        with pytest.raises(InputError, match="multiple sources"):
            Diagram(
                vertices=("a", "b", "s"),
                arcs=(Arc("a", "s", 0), Arc("a", "s", 1), Arc("b", "s", 0), Arc("b", "s", 1)),
            )

    def test_out_degree_one_flagged(self):
        with pytest.raises(InputError, match="out-degree"):
            Diagram(vertices=("r", "s"), arcs=(Arc("r", "s", 0),))

    def test_second_one_arc_rejected(self):
        # the search would follow one 1-arc of r and the routing rows both
        d = one_test_diagram()
        with pytest.raises(InputError, match="vertex r has out-degree 3, expected 2"):
            Diagram(vertices=d.vertices, arcs=(*d.arcs, Arc("r", "s0", 1)))

    @pytest.mark.parametrize(
        "vertices, message",
        [(("r", "r"), "^duplicate vertex ids$"), ((), "^invalid diagram: no source vertex$")],
        ids=["duplicate-vertex", "empty"],
    )
    def test_degenerate_vertex_lists_rejected(self, vertices, message):
        with pytest.raises(InputError, match=message):
            Diagram(vertices=vertices, arcs=())

    def test_unknown_endpoint_rejected_at_construction(self):
        with pytest.raises(InputError):
            Diagram(vertices=("r",), arcs=(Arc("r", "ghost", 0),))

    def test_every_violation_in_one_error(self):
        with pytest.raises(InputError) as info:
            Diagram(
                vertices=("r", "x", "s1", "s2"),
                arcs=(Arc("r", "s1", 7), Arc("r", "s2", 1), Arc("s2", "s1", 0)),
            )
        assert str(info.value) == (
            "invalid diagram: arc r->s1 has label 7, expected 0 or 1; multiple sources: r, x; "
            "vertex s2 has out-degree 1, expected 2"
        )


# one corruption of a valid diagram per violation it must raise; arcs[0] and
# arcs[1] are the source u0's 0- and 1-arc
_CORRUPTIONS = {
    "has label 2, expected 0 or 1": lambda vs, arcs: (vs, (replace(arcs[0], label=2), *arcs[1:])),
    "duplicate arc label at u0": lambda vs, arcs: (vs, (replace(arcs[0], label=1), *arcs[1:])),
    "vertex u0 has out-degree 1, expected 2": lambda vs, arcs: (vs, arcs[1:]),
    "cycle detected": lambda vs, arcs: (vs, (*arcs, Arc(vs[-1], vs[0], 0))),
    "multiple sources: u0, x": lambda vs, arcs: ((*vs, "x"), arcs),
}


class TestDiagramProperties:
    @settings(max_examples=60, deadline=None)
    @given(valid_diagram(), st.sampled_from(sorted(_CORRUPTIONS)))
    def test_construction_names_each_violation(self, d, corruption):
        for u in d.internals:
            assert d.heads[u] == tuple(
                next(a.head for a in d.arcs if a.tail == u and a.label == label)
                for label in (0, 1)
            )
        vertices, arcs = _CORRUPTIONS[corruption](d.vertices, d.arcs)
        with pytest.raises(InputError, match=f"^invalid diagram: .*{corruption}"):
            Diagram(vertices=vertices, arcs=arcs)


def route(d, phi, t):
    """The method ``t`` ends up with and the vertices it visits, re-walked
    step by step; the walk must end at the last of them, and ``routes`` must
    mark exactly those vertices visited and the arcs taken."""
    x = t[2]
    path = [d.source]
    labels = {}
    while path[-1] in phi.node_items:
        labels[path[-1]] = int(any(x[ITEMS.index(i)] for i in phi.node_items[path[-1]]))
        path.append(d.heads[path[-1]][labels[path[-1]]])
        assert len(set(path)) == len(path) <= len(d.vertices)
    pop = population_from_rows(ITEMS, METHODS, [t])
    assert _walk(d.source, _walk_table(d, phi, ITEMS), x) == path[-1]
    assert reached_sinks(d, phi, pop) == [path[-1]]
    visits, ones = routes(d, phi, pop)
    assert {v for v, mask in visits.items() if mask[0]} == set(path)
    assert {u: int(mask[0]) for u, mask in ones.items()} == {
        u: labels.get(u, 0) for u in d.internals
    }
    return phi.sink_methods[path[-1]], frozenset(path)


class TestRoute:
    def test_one_step_positive(self):
        d = one_test_diagram()
        phi = Assignment.build({"r": {0}}, {"s0": 0, "s1": 2})
        method, visited = route(d, phi, t_with({0}))
        assert method == 2
        assert visited == frozenset({"r", "s1"})

    def test_empty_label_forces_zero_arc(self):
        d = one_test_diagram()
        phi = Assignment.build({"r": set()}, {"s0": 3, "s1": 1})
        for positive in (set(), {0}, {0, 1}):
            method, visited = route(d, phi, t_with(positive))
            assert method == 3
            assert visited == frozenset({"r", "s0"})

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
        method, visited = route(d, phi, t_with({2}))  # fires at r, not at v
        assert method == 3
        assert visited == frozenset({"r", "v", "s2"})

    def test_single_vertex_diagram_routes_to_itself(self):
        d = Diagram(vertices=("r",), arcs=())
        phi = Assignment.build({}, {"r": 1})
        method, visited = route(d, phi, t_with(set()))
        assert method == 1
        assert visited == frozenset({"r"})


class TestRouteProperties:
    @settings(max_examples=60, deadline=None)
    @given(valid_diagram(), st.data())
    def test_terminates_on_a_simple_path(self, d, data):
        phi = Assignment.build(
            {u: data.draw(st.sets(st.integers(0, 9))) for u in d.internals},
            {s: data.draw(st.sampled_from(METHODS.methods)) for s in d.sinks},
        )
        # route re-walks a repeat-free path of <= |V| vertices and checks
        # that the walk and reached_sinks end where it ends
        route(d, phi, t_with(data.draw(st.sets(st.integers(0, 9)))))


class TestEvaluate:
    def test_single_type_cost(self):
        d = one_test_diagram()
        pop = population_from_rows(ITEMS, METHODS, (t_with({0}, w=10),))
        phi = Assignment.build({"r": {0}}, {"s0": 0, "s1": 2})
        m = evaluate(d, phi, phi, pop)
        assert m.cost == 5000

    def test_identity_assignment_maximizes_similarity(self):
        d = one_test_diagram()
        pop = population_from_rows(ITEMS, METHODS, (t_with(set()),))
        phi = Assignment.build({"r": {1, 2}}, {"s0": 0, "s1": 1})
        assert evaluate(d, phi, phi, pop).obj1 == len(d.vertices)

    def test_weighted_reaction_sums(self):
        d = one_test_diagram()
        pop = population_from_rows(ITEMS, METHODS, (
                t_with({0}, responds={1}, z=1, w=3, tid=0),
                t_with({0}, responds={1}, z=0, w=5, tid=1),
            ),
        )
        phi = Assignment.build({"r": {0}}, {"s0": 0, "s1": 1})
        m = evaluate(d, phi, phi, pop)
        assert (m.obj2, m.obj3) == (8, 3)

    def test_method_zero_everywhere_costs_nothing(self):
        d = one_test_diagram()
        pop = population_from_rows(ITEMS, METHODS, (t_with({0}, w=7), t_with(set(), w=2, tid=1)))
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
            pop = population_from_rows(ITEMS, METHODS, types)
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
        m1 = evaluate(d, phi, phi_in, population_from_rows(ITEMS, METHODS, (a, b)))
        m2 = evaluate(d, phi, phi_in, population_from_rows(ITEMS, METHODS, (b, a)))
        assert m1.obj1 == m2.obj1 == 1

    def test_metrics_bounds(self):
        m = Metrics(cost=0, obj1=2, obj2=5, obj3=3)
        assert m.obj3 <= m.obj2


class TestSinkTotals:
    @pytest.mark.parametrize(
        "scale, heavy", [("small", False), ("full", False), ("full", True)],
        ids=["small", "full", "heavy"],
    )
    def test_every_assignment_matches_the_per_type_sums(self, scale, heavy):
        # each sink's entry for the method an assignment puts there sums to
        # the metrics a type-by-type walk gives, and so does evaluate
        rng = random.Random(4000 + len(scale) + heavy)
        for _ in range(20):
            inst = random_toy_instance(rng, scale, heavy)
            d, pop = inst.diagram, inst.population
            n = len(d.internals)
            for vec in itertools.product(*(range(len(labels)) for labels in inst.choices)):
                phi = inst.assignment(vec)
                want = reference_metrics(d, phi, inst.initial, pop)
                assert evaluate(d, phi, inst.initial, pop) == want
                totals = sink_totals(d, phi, pop)
                assert list(totals) == list(d.sinks)
                picked = [totals[s][mi] for s, mi in zip(d.sinks, vec[n:])]
                assert tuple(map(sum, zip(*picked))) == (want.cost, want.obj2, want.obj3)

    def test_sinks_no_type_reaches_total_zero(self):
        d = one_test_diagram()
        pop = population_from_rows(ITEMS, METHODS, (t_with({0}, responds={1, 2}, z=1, w=3),))
        phi = Assignment.build({"r": {0}}, {})  # only the internal labels are read
        totals = sink_totals(d, phi, pop)
        assert totals["s0"] == [(0, 0, 0)] * 4
        assert totals["s1"] == [(0, 0, 0), (600, 3, 3), (1500, 3, 3), (2100, 0, 0)]

