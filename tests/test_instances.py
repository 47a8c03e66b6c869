"""Shipped instance templates: configuration values, labels, families."""
from __future__ import annotations

from dataclasses import replace

import pytest

from diagopt.core import InputError, ItemUniverse, MethodUniverse, Population
from diagopt.datagen import GenConfig, generate_population
from diagopt.instances import build_instance, instance_template
from conftest import make_type, population_from_rows


@pytest.fixture(scope="module")
def pop() -> Population:
    return generate_population(GenConfig(n=150, seed=3))


EXPECTED = {
    1: {
        "budget": 35000,
        "targets": (6, 15, 9),
        "nodes": {"r": {0}, "v1": {1, 4, 8}, "v2": {44}, "v3": {40}},
        "sinks": {"s1": 1, "s2": 0},
    },
    2: {
        "budget": 373333,
        "targets": (6, 160, 96),
        "nodes": {"r": {0}, "v1": {8}, "v2": {23}, "v3": {45}},
        "sinks": {"s1": 0, "s2": 1},
    },
    3: {
        "budget": 483000,
        "targets": (8, 207, 124),
        "nodes": {
            "r": {0},
            "v1": {1, 8},
            "v2": {44},
            "v3": {45},
            "v4": {39},
            "v5": {36},
        },
        "sinks": {"s1": 1, "s2": 0},
    },
}


@pytest.mark.parametrize("iid", [1, 2, 3])
class TestConfiguration:
    def test_budget_and_targets(self, iid, pop):
        inst = build_instance(iid, pop)
        assert inst.budget == EXPECTED[iid]["budget"]
        assert inst.targets == EXPECTED[iid]["targets"]

    def test_method_costs(self, iid, pop):
        inst = build_instance(iid, pop)
        assert inst.population.methods.costs == (0, 200, 500, 700)

    def test_initial_assignment(self, iid, pop):
        inst = build_instance(iid, pop)
        want_nodes = {u: frozenset(c) for u, c in EXPECTED[iid]["nodes"].items()}
        assert dict(inst.initial.node_items) == want_nodes
        assert dict(inst.initial.sink_methods) == EXPECTED[iid]["sinks"]

    def test_similarity_target_equals_vertex_count(self, iid, pop):
        inst = build_instance(iid, pop)
        assert inst.targets[0] == len(inst.diagram.vertices)

    def test_diagram_is_valid_and_both_sinks_reachable(self, iid, pop):
        inst = build_instance(iid, pop)
        assert inst.diagram.sinks == ("s1", "s2")
        heads = {a.head for a in inst.diagram.arcs}
        assert {"s1", "s2"} <= heads

    def test_initial_labels_are_candidates(self, iid, pop):
        inst = build_instance(iid, pop)
        for u in inst.diagram.internals:
            assert inst.initial.node_items[u] in inst.families[u].candidates
            assert inst.initial.node_items[u] <= inst.families[u].role

    def test_root_family_has_two_members(self, iid, pop):
        inst = build_instance(iid, pop)
        assert inst.families["r"].candidates == {frozenset(), frozenset({0})}


class TestSpecificFamilies:
    def test_instance1_v3_family_exact(self, pop):
        inst = build_instance(1, pop)
        assert inst.families["v3"].candidates == {
            frozenset(),
            frozenset({36}),
            frozenset({40}),
            frozenset({43}),
            frozenset({36, 40}),
            frozenset({40, 43}),
        }

    def test_instance3_final_vertex_family(self, pop):
        inst = build_instance(3, pop)
        assert inst.families["v5"].candidates == {
            frozenset(),
            frozenset({36}),
            frozenset({40}),
            frozenset({43}),
            frozenset({36, 40}),
            frozenset({36, 43}),
        }

    def test_category_rule_thins_v1(self, pop):
        inst = build_instance(1, pop)
        for c in inst.families["v1"].candidates:
            assert len(c & {1, 2}) <= 1
            assert len(c & {5, 6, 7, 8, 9, 10, 11}) <= 1


class TestErrors:
    def test_unknown_id(self, pop):
        with pytest.raises(InputError):
            build_instance(4, pop)
        with pytest.raises(InputError):
            instance_template(0)

    def test_population_universe_must_match(self):
        items = ItemUniverse((0, 1, 2))
        methods = MethodUniverse(methods=(0, 1), costs=(0, 100))
        tiny = population_from_rows(
            items, methods, [make_type(0, 1, {0}, set(), 0, items, methods)]
        )
        with pytest.raises(InputError):
            build_instance(1, tiny)

    def test_population_method_costs_must_match(self, pop):
        methods = MethodUniverse(methods=pop.methods.methods, costs=(0, 1, 2, 3))
        other = replace(pop, methods=methods)
        with pytest.raises(
            InputError, match="^population method universe differs from the instance's$"
        ):
            build_instance(1, other)
