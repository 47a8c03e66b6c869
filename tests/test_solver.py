"""Branch-and-bound solver against the exhaustive oracle."""
from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from diagopt.candidates import CandidateFamily
from diagopt.core import Assignment, InputError, evaluate
from diagopt.encoder import Instance
from diagopt.solver import (
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    EnumerationCapError,
    bound,
    brute_force,
    solve,
    verify,
)
from conftest import family, random_feasible_assignment, random_toy_instance, tiny_instance


def setting_objective(inst, setting, m):
    th1, th2, th3 = inst.targets
    if setting == 1:
        return Fraction(m.obj1, th1) + Fraction(m.obj2, th2) + Fraction(m.obj3, th3)
    return m.cost if setting == 2 else m.obj1


def setting_feasible(inst, setting, m):
    th1, th2, th3 = inst.targets
    if setting == 1:
        return m.cost <= inst.budget
    if setting == 2:
        return 2 * m.obj1 >= th1 and m.obj2 >= th2 and m.obj3 >= th3
    return m.cost <= inst.budget and m.obj2 >= th2 and m.obj3 >= th3


def enumerate_completions(inst, prefix):
    """All assignments extending a choice prefix, in canonical order."""
    orders = [inst.families[u].ordered for u in inst.diagram.internals]
    methods = inst.population.methods.methods
    sizes = [len(o) for o in orders] + [len(methods)] * len(inst.diagram.sinks)
    free = [range(s) for s in sizes[len(prefix):]]
    for tail in itertools.product(*free):
        combo = tuple(prefix) + tail
        node_items = {u: orders[i][combo[i]] for i, u in enumerate(orders and inst.diagram.internals)}
        sink_methods = {
            s: methods[combo[len(orders) + j]] for j, s in enumerate(inst.diagram.sinks)
        }
        yield Assignment(node_items=node_items, sink_methods=sink_methods)


class TestSolveBasics:
    def test_singleton_space(self):
        inst = tiny_instance()
        single = Instance(
            diagram=inst.diagram,
            population=inst.population,
            families={
                "r": CandidateFamily(
                    vertex="r", candidates=frozenset({frozenset({0})}), role=frozenset({0})
                )
            },
            initial=inst.initial,
            budget=10**6,
            targets=(3, 1, 1),
        )
        pop_methods = single.population.methods.methods
        sol = solve(single, 1)
        assert sol.status == STATUS_OPTIMAL
        assert sol.assignment.node_items["r"] == frozenset({0})
        assert sol.assignment.sink_methods.keys() == {"s0", "s1"}
        assert all(m in pop_methods for m in sol.assignment.sink_methods.values())

    def test_unreachable_reaction_target_is_infeasible(self):
        inst = tiny_instance(targets=(3, 99, 1))  # total weight is 1
        for sol in (solve(inst, 2), brute_force(inst, 2)):
            assert sol.status == STATUS_INFEASIBLE
            assert sol.assignment is None and sol.metrics is None
            assert sol.objective_value is None and sol.best_bound is None

    def test_invalid_setting(self):
        with pytest.raises(InputError):
            solve(tiny_instance(), 0)
        with pytest.raises(InputError):
            brute_force(tiny_instance(), 9)

    def test_setting1_objective_is_a_fraction(self):
        sol = solve(tiny_instance(budget=10**6), 1)
        assert isinstance(sol.objective_value, Fraction)
        m = sol.metrics
        assert sol.objective_value == setting_objective(tiny_instance(), 1, m)

    def test_determinism(self, rng):
        inst = random_toy_instance(rng)
        first = solve(inst, 1)
        second = solve(inst, 1)
        assert first.assignment == second.assignment
        assert first.objective_value == second.objective_value
        assert first.stats.nodes == second.stats.nodes

    def test_single_vertex_diagram(self):
        from diagopt.core import Diagram, ItemUniverse, MethodUniverse, Population
        from conftest import make_type

        items = ItemUniverse((0,))
        methods = MethodUniverse(methods=(0, 1), costs=(0, 100))
        pop = Population(
            items=items,
            methods=methods,
            types=(make_type(0, 3, {0}, {1}, 1, items, methods),),
        )
        inst = Instance(
            diagram=Diagram(vertices=("r",), arcs=()),
            population=pop,
            families={},
            initial=Assignment.build({}, {"r": 0}),
            budget=1000,
            targets=(1, 1, 1),
        )
        for setting in (1, 3):
            fast = solve(inst, setting)
            slow = brute_force(inst, setting)
            assert fast.status == slow.status == STATUS_OPTIMAL
            assert fast.assignment == slow.assignment
            assert verify(fast, inst, setting).ok
        # no method choice satisfies both the similarity and reaction targets
        assert solve(inst, 2).status == STATUS_INFEASIBLE
        assert brute_force(inst, 2).status == STATUS_INFEASIBLE


class TestOracleEquivalence:
    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_matches_brute_force(self, setting):
        rng = random.Random(1000 + setting)
        statuses = set()
        for _ in range(25):
            inst = random_toy_instance(rng)
            fast = solve(inst, setting)
            slow = brute_force(inst, setting)
            assert fast.status == slow.status
            statuses.add(fast.status)
            if fast.status == STATUS_OPTIMAL:
                assert fast.objective_value == slow.objective_value
                assert fast.assignment == slow.assignment
                assert fast.metrics == slow.metrics
        assert STATUS_OPTIMAL in statuses  # the sample is not all-infeasible

    def test_tie_break_picks_smallest_choice_vector(self):
        # the all-negative type reaches s0 under either candidate, so the
        # cheapest assignments are those with method 1 at s0 and one deployed
        # label kept: either r = {1} or method 3 at s1
        inst = dataclasses.replace(
            tiny_instance(targets=(1, 1, 1), positive=(set(),)),
            families={"r": family("r", [{0}, {1}], {0, 1})},
            initial=Assignment.build({"r": {1}}, {"s0": 0, "s1": 3}),
        )
        fast = solve(inst, 2)
        slow = brute_force(inst, 2)
        assert fast.assignment == slow.assignment
        assert inst.choice_vector(fast.assignment) == (0, 1, 3)
        assert inst.choice_vector(slow.assignment) == (0, 1, 3)


class TestChoiceVector:
    def test_round_trip(self, rng):
        for _ in range(20):
            inst = random_toy_instance(rng)
            phi = random_feasible_assignment(inst, rng)
            vec = inst.choice_vector(phi)
            assert all(0 <= k < len(labels) for k, labels in zip(vec, inst.choices))
            assert inst.assignment(vec) == phi
            assert inst.assignment(inst.deployed) == inst.initial


class TestBound:
    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_admissible_on_random_partial_states(self, setting):
        rng = random.Random(7000 + setting)
        checked = 0
        for _ in range(12):
            inst = random_toy_instance(rng)
            n_decisions = len(inst.diagram.internals) + len(inst.diagram.sinks)
            sizes = [len(inst.families[u]) for u in inst.diagram.internals]
            sizes += [len(inst.population.methods)] * len(inst.diagram.sinks)
            for k in range(n_decisions + 1):
                prefix = tuple(rng.randrange(sizes[i]) for i in range(k))
                b = bound(inst, prefix, setting)
                best = None
                for phi in enumerate_completions(inst, prefix):
                    m = evaluate(inst.diagram, phi, inst.initial, inst.population)
                    if not setting_feasible(inst, setting, m):
                        continue
                    obj = setting_objective(inst, setting, m)
                    if best is None or (obj > best if setting != 2 else obj < best):
                        best = obj
                if best is not None:
                    checked += 1
                    if setting == 2:
                        assert b <= best
                    else:
                        assert b >= best
        assert checked > 20

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_complete_state_bound_is_exact(self, rng, setting):
        inst = random_toy_instance(rng)
        sol = solve(inst, setting)
        if sol.status != STATUS_OPTIMAL:
            pytest.skip("sampled instance infeasible for this check")
        vec = inst.choice_vector(sol.assignment)
        assert bound(inst, vec, setting) == setting_objective(inst, setting, sol.metrics)

    def test_root_bound_covers_the_optimum(self, rng):
        for _ in range(10):
            inst = random_toy_instance(rng)
            sol = solve(inst, 1)
            if sol.status != STATUS_OPTIMAL:
                continue
            root = bound(inst, (), 1)
            assert root >= sol.objective_value


class TestLimits:
    def test_node_limit_stops_immediately(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1, node_limit=1)
        assert sol.status == STATUS_LIMIT
        assert sol.stats.nodes == 1
        assert sol.best_bound is not None

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_node_limit_without_incumbent(self, setting):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, setting, node_limit=1)
        assert sol.status == STATUS_LIMIT
        assert sol.assignment is None and sol.metrics is None and sol.objective_value is None
        assert sol.best_bound == bound(inst, (), setting)

    def test_node_limit_keeps_best_incumbent(self):
        # a seed and limit where the search stops with a suboptimal incumbent
        inst = random_toy_instance(random.Random(14), "full")
        full = solve(inst, 1)
        assert full.status == STATUS_OPTIMAL and full.objective_value == Fraction(127, 22)
        sol = solve(inst, 1, node_limit=16)
        assert sol.status == STATUS_LIMIT
        assert sol.objective_value == Fraction(59, 11)
        assert sol.best_bound == Fraction(91, 11)
        assert sol.objective_value < full.objective_value <= sol.best_bound
        assert sol.gap == sol.best_bound - sol.objective_value
        assert verify(sol, inst, 1).ok

    def test_time_limit_zero(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1, time_limit=0.0)
        assert sol.status == STATUS_LIMIT


class TestSearchOrder:
    # node counts of the pinned decision order, branch order, bounds and
    # tie-break; any change to one of them shows here first
    @pytest.mark.parametrize(
        "seed, nodes",
        [(1, (708, 144, 292)), (17, (91, 45, 56)), (44, (197, 30, 26))],
    )
    def test_node_counts_are_pinned(self, seed, nodes):
        inst = random_toy_instance(random.Random(seed), "full")
        got = tuple(solve(inst, setting).stats.nodes for setting in (1, 2, 3))
        assert got == nodes


class TestBruteForce:
    def test_truncated_shipped_instance(self):
        """First shipped instance with families cut to four members each."""
        import time

        from diagopt.datagen import GenConfig, generate_population
        from diagopt.instances import build_instance

        pop = generate_population(GenConfig(n=60, seed=31))
        inst = build_instance(1, pop)
        families = {}
        for u, fam in inst.families.items():
            keep = [inst.initial.node_items[u]]
            keep += [c for c in fam.ordered if c not in keep][:3]
            families[u] = CandidateFamily(
                vertex=u, candidates=frozenset(keep), role=fam.role
            )
        small = Instance(
            diagram=inst.diagram,
            population=inst.population,
            families=families,
            initial=inst.initial,
            budget=inst.budget,
            targets=inst.targets,
        )
        started = time.perf_counter()
        slow = brute_force(small, 1)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        assert slow.status == STATUS_OPTIMAL
        fast = solve(small, 1)
        assert fast.assignment == slow.assignment
        assert fast.objective_value == slow.objective_value

    def test_enumerates_whole_space(self):
        inst = tiny_instance(budget=10**6)
        sol = brute_force(inst, 1)
        assert sol.stats.nodes == 2 * 4 * 4  # candidates x methods^sinks
        assert sol.status == STATUS_OPTIMAL

    def test_cap_enforced(self):
        inst = tiny_instance()
        with pytest.raises(EnumerationCapError):
            brute_force(inst, 1, cap=3)


class TestVerify:
    def test_clean_solution_passes(self, rng):
        inst = random_toy_instance(rng)
        for setting in (1, 2, 3):
            sol = solve(inst, setting)
            report = verify(sol, inst, setting)
            assert report.ok, report.issues

    def test_corrupted_sink_method_flagged(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1)
        bad_phi = Assignment.build(
            dict(sol.assignment.node_items),
            {**sol.assignment.sink_methods, "s1": 99},
        )
        bad = dataclasses.replace(sol, assignment=bad_phi)
        report = verify(bad, inst, 1)
        assert not report.ok
        assert any("candidate/constraint violation" in i for i in report.issues)

    def test_objective_mismatch_flagged(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 2)
        bad = dataclasses.replace(sol, objective_value=sol.objective_value + 1)
        report = verify(bad, inst, 2)
        assert not report.ok
        assert any("objective mismatch" in i for i in report.issues)

    def test_wrong_setting_flagged(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1)
        assert not verify(sol, inst, 3).ok
