"""Branch-and-bound solver against the exhaustive oracle."""
from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import math
import operator
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from diagopt import solver
from diagopt.candidates import CandidateFamily
from diagopt.core import Assignment, InputError, evaluate
from diagopt.datagen import GenConfig, generate_population
from diagopt.encoder import Instance
from diagopt.instances import build_instance
from diagopt.problem import Goal
from diagopt.solver import (
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    brute_force,
    solve,
    verify,
)
from conftest import (
    RecordingSearch,
    family,
    one_method_instance,
    prefix_bound,
    random_feasible_assignment,
    random_toy_instance,
    reach_state_optima,
    reference_brute_force,
    tiny_instance,
)
from test_external_milp import check_against_native


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


def part_totals(tb, part):
    """Per combination of a scored part, the (cost, obj1, obj2, obj3) its
    regions sum to: each region paying its cheapest method and counting the
    types that respond, and improve, under any of its methods."""
    _, regions, base_obj1, live = part
    totals = []
    for j, kept in enumerate(live.kept):
        taken = [(r, w, *tables[picks[j]]) for r, w, tables, picks in regions]
        totals.append(
            (
                sum(w * c for _, w, c, _, _ in taken),
                base_obj1 + kept,
                sum(tb.tally(r & y) for r, _, _, y, _ in taken),
                sum(tb.tally(r & yz) for r, _, _, _, yz in taken),
            )
        )
    return totals


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


def truncated(inst, extra):
    """``inst`` with each family cut to its deployed label and the first
    ``extra`` other members in canonical order."""
    families = {}
    for u, fam in inst.families.items():
        keep = [inst.initial.node_items[u]]
        keep += [c for c in fam.ordered if c not in keep][:extra]
        families[u] = CandidateFamily(vertex=u, candidates=frozenset(keep), role=fam.role)
    return dataclasses.replace(inst, families=families)


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
        from diagopt.core import Diagram, ItemUniverse, MethodUniverse
        from conftest import make_type, population_from_rows

        items = ItemUniverse((0,))
        methods = MethodUniverse(methods=(0, 1), costs=(0, 100))
        pop = population_from_rows(items, methods, [make_type(0, 3, {0}, {1}, 1, items, methods)])
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
            assert verify(fast, inst, setting).issues == ()
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

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_matches_brute_force_on_full_toys(self, setting):
        # up to four internal vertices, where prefixes reach equal frontiers
        rng = random.Random(2000 + setting)
        dominated = 0
        for _ in range(12):
            inst = random_toy_instance(rng, "full")
            fast = solve(inst, setting)
            slow = brute_force(inst, setting)
            assert fast.status == slow.status
            assert fast.assignment == slow.assignment
            assert fast.objective_value == slow.objective_value
            assert fast.best_bound == slow.best_bound
            assert fast.metrics == slow.metrics
            dominated += fast.stats.dominated
        assert dominated > 0  # the sample exercises frontier merging

    @pytest.mark.parametrize("unit_bits", [False, True], ids=["weight-planes", "unit-bits"])
    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_matches_brute_force_with_heavy_weights(self, setting, unit_bits, monkeypatch):
        # heavy weights put these toys on the weight-plane layout; forced onto
        # the unit-bit one, each mask is more than 2**16 bits wide
        if unit_bits:
            monkeypatch.setattr(solver, "UNIT_BIT_MEAN_WEIGHT", 2**17)
        rng = random.Random(3000 + setting)
        statuses = set()
        for _ in range(10):
            inst = random_toy_instance(rng, "full", heavy=True)
            assert inst.population.weights.max() >= 2**16
            assert solver._Tables(inst).unit_bits == unit_bits
            fast = solve(inst, setting)
            slow = brute_force(inst, setting)
            assert fast.status == slow.status
            assert fast.assignment == slow.assignment
            assert fast.objective_value == slow.objective_value
            assert fast.best_bound == slow.best_bound
            assert fast.metrics == slow.metrics
            statuses.add(fast.status)
        assert STATUS_OPTIMAL in statuses

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_matches_brute_force_with_one_method(self, setting):
        # one method leaves a single sink-method combination, so each
        # region's getter gathers one index
        rng = random.Random(3200 + setting)
        statuses = set()
        for k in range(60):
            toy = random_toy_instance(rng, ("small", "full")[k % 2], heavy=k % 3 == 0)
            inst = one_method_instance(toy)
            assert len(solver._Tables(inst).sink_vectors) == 1
            fast = solve(inst, setting)
            slow = brute_force(inst, setting)
            assert fast.status == slow.status
            assert fast.assignment == slow.assignment
            assert fast.objective_value == slow.objective_value
            assert fast.best_bound == slow.best_bound
            assert fast.metrics == slow.metrics
            statuses.add(fast.status)
        assert STATUS_OPTIMAL in statuses

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_brute_force_matches_the_reference_oracle(self, setting):
        # the oracle's two loops against one evaluate per assignment, on
        # small, full and heavy toys; free methods make every feasible
        # assignment tie in setting 2, and a single method leaves one
        # sink-method vector per internal vector
        rng = random.Random(3400 + setting)
        statuses = set()
        for k in range(96):
            inst = random_toy_instance(rng, ("small", "full")[k % 2], heavy=k % 3 == 0)
            if k % 4 == 1:
                pop = inst.population
                methods = dataclasses.replace(pop.methods, costs=(0,) * len(pop.methods))
                inst = dataclasses.replace(inst, population=dataclasses.replace(pop, methods=methods))
            elif k % 4 == 3:
                inst = one_method_instance(inst)
            slow = brute_force(inst, setting)
            ref = reference_brute_force(inst, setting)
            assert slow.status == ref.status
            assert slow.assignment == ref.assignment
            assert slow.objective_value == ref.objective_value
            assert slow.best_bound == ref.best_bound
            assert slow.metrics == ref.metrics
            assert slow.stats.nodes == ref.stats.nodes
            statuses.add(slow.status)
        assert statuses == {STATUS_OPTIMAL, STATUS_INFEASIBLE}

    def test_aggregated_population_keeps_masks_narrow(self):
        # one type stands for a billion examinees: masks stay one bit per
        # type, so the solve takes little memory and time
        rng = random.Random(3100)
        light = random_toy_instance(rng, "full")
        assert solver._Tables(light).unit_bits
        for _ in range(3):
            inst = random_toy_instance(rng, "full")
            weights = inst.population.weights.copy()
            weights[0] = 10**9 + 7
            pop = dataclasses.replace(inst.population, weights=weights)
            inst = dataclasses.replace(inst, population=pop)
            assert not solver._Tables(inst).unit_bits
            for setting in (1, 2, 3):
                tracemalloc.start()
                started = time.perf_counter()
                fast = solve(inst, setting)
                elapsed = time.perf_counter() - started
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < 4 * 2**20 and elapsed < 5
                slow = brute_force(inst, setting)
                assert fast.status == slow.status
                assert fast.assignment == slow.assignment
                assert fast.objective_value == slow.objective_value
                assert fast.best_bound == slow.best_bound
                assert fast.metrics == slow.metrics

    @pytest.mark.parametrize("seed", [0, 1, 2, 23, 28])
    def test_every_node_limit_stays_sound(self, seed):
        # stopping anywhere, merged prefixes included, leaves a verified
        # incumbent and a bound on the optimum
        inst = random_toy_instance(random.Random(seed), "full")
        for setting in (1, 2, 3):
            opt = brute_force(inst, setting)
            nodes = solve(inst, setting).stats.nodes
            # the node that reaches the limit is not expanded
            for limit in range(1, nodes + 2):
                sol = solve(inst, setting, node_limit=limit)
                assert verify(sol, inst, setting).issues == ()
                if opt.objective_value is None:
                    assert sol.objective_value is None
                elif setting == 2:
                    assert sol.best_bound <= opt.objective_value
                else:
                    assert sol.best_bound >= opt.objective_value
            assert sol.status == opt.status and sol.assignment == opt.assignment

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


class TestFires:
    @staticmethod
    def assert_matches_items(inst):
        """``fires[k][ci, ti]`` is whether type ti is positive on an item of candidate ci."""
        items, xs = inst.population.items, inst.population.x.tolist()
        assert len(inst.fires) == len(inst.diagram.internals)
        for fires, cands in zip(inst.fires, inst.choices):
            assert fires.shape == (len(cands), len(xs)) and fires.dtype == bool
            assert not fires.flags.writeable
            for ci, c in enumerate(cands):
                for ti, x in enumerate(xs):
                    assert fires[ci, ti] == any(x[items.index(i)] for i in c)

    def test_random_toys(self, rng):
        for heavy in (False, True) * 10:
            inst = random_toy_instance(rng, "full", heavy=heavy)
            self.assert_matches_items(inst)
            assert inst.fires is inst.fires

    def test_population_without_types(self):
        inst = build_instance(1, generate_population(GenConfig(n=0, seed=20240601)))
        assert [f.shape[1] for f in inst.fires] == [0] * len(inst.diagram.internals)
        self.assert_matches_items(inst)

    def test_candidate_outside_the_universe_is_rejected(self):
        with pytest.raises(InputError, match="candidate at r names item 99 outside the universe"):
            dataclasses.replace(
                tiny_instance(), families={"r": family("r", [set(), {0}, {99}], {0, 1, 99})}
            )

    @pytest.mark.parametrize(
        "part, message",
        [
            ({"families": {}}, "^candidate families must cover exactly the internal vertices$"),
            (
                {"initial": Assignment.build({"r": {0}}, {"s0": 0})},
                "^initial assignment must cover the diagram$",
            ),
        ],
        ids=["families", "initial"],
    )
    def test_parts_that_miss_a_vertex_are_rejected(self, part, message):
        with pytest.raises(InputError, match=message):
            dataclasses.replace(tiny_instance(), **part)

    def test_diagram_with_only_a_sink(self):
        from diagopt.core import Diagram

        inst = dataclasses.replace(
            tiny_instance(),
            diagram=Diagram(vertices=("r",), arcs=()),
            families={},
            initial=Assignment.build({}, {"r": 0}),
        )
        assert inst.fires == ()


class TestMisplaced:
    def test_lists_each_position_without_a_candidate(self, rng):
        inst = random_toy_instance(rng, "full")
        phi = random_feasible_assignment(inst, rng)
        assert inst.misplaced(phi) == () and inst.is_feasible(phi)
        u, s = inst.diagram.internals[-1], inst.diagram.sinks[0]
        bad = Assignment.build(
            {**phi.node_items, u: frozenset({99})}, {**phi.sink_methods, s: 99}
        )
        assert inst.misplaced(bad) == (u, s) and not inst.is_feasible(bad)
        sol = dataclasses.replace(solve(inst, 3), assignment=bad)
        issues = verify(sol, inst, 3).issues
        assert issues == tuple(
            f"candidate/constraint violation: label at {v} not permitted" for v in (u, s)
        )


class TestLeafScores:
    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_every_combination_matches_evaluate(self, setting):
        # at every complete internal prefix, each sink-method combination's
        # score equals the scalar evaluation's, and _holds passes it exactly
        # when the goal finds its metrics feasible
        rng = random.Random(7200 + setting)
        kinds = [(False, "small"), (True, "small"), (False, "full"), (True, "full")]
        outcomes = collections.Counter()
        for heavy, scale in kinds * 10:
            inst = random_toy_instance(rng, scale, heavy=heavy)
            sizes = [len(inst.families[u]) for u in inst.diagram.internals]
            if math.prod(sizes) > 60:
                continue  # keep the enumeration cheap
            goal = Goal(inst, setting)
            tb = solver._Tables(inst)
            search = solver._Search(tb, goal, None, None)
            for prefix in itertools.product(*map(range, sizes)):
                frontier = solver._frontier(tb, prefix)
                matches = sum(c == m for c, m in zip(prefix, tb.match))
                sinks = zip(tb.sink_bits, frontier[tb.n_internal :])
                part = search._score(sinks, matches, search.every)
                assert len(part[0]) == len(tb.sink_vectors)
                for j, (vec, score) in enumerate(zip(tb.sink_vectors, part[0])):
                    phi = inst.assignment(prefix + vec)
                    m = evaluate(inst.diagram, phi, inst.initial, inst.population)
                    assert score == goal.score(m)
                    holds = search._holds(part, j)
                    assert holds == goal.feasible(m)
                    outcomes[holds] += 1
        assert outcomes[True] > 100 and outcomes[False] > 100


class TestBound:
    @staticmethod
    def bound_cases(setting, seed):
        """Every internal prefix of unit and heavy, small and full toys, with
        its depth, its node bound, its parent's, the best feasible objective
        of its completions (``None`` when none is feasible), and the family
        sizes of its open internal positions."""
        rng = random.Random(seed)
        kinds = [(False, "small"), (True, "small"), (False, "full"), (True, "full")]
        for heavy, scale in kinds * 20:
            inst = random_toy_instance(rng, scale, heavy=heavy)
            if heavy:
                assert not solver._Tables(inst).unit_bits
            sizes = [len(inst.families[u]) for u in inst.diagram.internals]
            if scale == "full" and math.prod(sizes) > 60:
                continue  # keep the enumeration cheap
            space = sizes + [len(inst.population.methods)] * len(inst.diagram.sinks)
            objective = {}
            for vec, phi in zip(itertools.product(*map(range, space)), enumerate_completions(inst, ())):
                m = evaluate(inst.diagram, phi, inst.initial, inst.population)
                if setting_feasible(inst, setting, m):
                    objective[vec] = setting_objective(inst, setting, m)
            better = min if setting == 2 else max
            bounds = {}
            for k in range(len(sizes) + 1):
                for prefix in itertools.product(*map(range, sizes[:k])):
                    b = bounds[prefix] = prefix_bound(inst, prefix, setting)
                    below = [o for vec, o in objective.items() if vec[:k] == prefix]
                    parent = bounds[prefix[:-1]] if prefix else None
                    yield k, b, parent, better(below) if below else None, sizes[k:]

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_admissible_on_random_partial_states(self, setting):
        # every depth the search bounds, on unit-bit and weight-plane masks;
        # no bound is missing where a completion is feasible
        checked = settled = 0
        for _, b, _, best, open_sizes in self.bound_cases(setting, 7000 + setting):
            if all(size == 1 for size in open_sizes):
                # each open position's one candidate is its deployed label, so
                # the relaxed part must not raise the bound above the completion
                settled += bool(open_sizes)
                assert b == best
            if best is None:
                continue
            checked += 1
            assert b is not None
            if setting == 2:
                assert b <= best
            else:
                assert b >= best
        assert checked > 200 and settled > 20

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_child_bound_never_exceeds_its_parent(self, setting):
        # a limit reports the root's bound, which covers every node's
        checked = under_cut = 0
        for depth, b, parent, _, _ in self.bound_cases(setting, 7100 + setting):
            if depth == 0:
                continue
            checked += 1
            if parent is None:
                under_cut += 1
                assert b is None
            elif b is not None:
                assert b >= parent if setting == 2 else b <= parent
        assert checked > 200 and under_cut > 0

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_carried_frontier_bounds_equal_the_from_source_ones(self, setting, monkeypatch):
        # record the frontier the search carries into every node it visits
        visited = []
        visit = solver._Search._visit

        def spy(search, prefix, frontier, matches, live):
            visited.append((search, prefix, frontier.copy(), matches))
            visit(search, prefix, frontier, matches, live)

        monkeypatch.setattr(solver._Search, "_visit", spy)
        rng = random.Random(8000 + setting)
        for _ in range(60):
            solve(random_toy_instance(rng, "full", heavy=rng.random() < 0.5), setting)
        assert len(visited) > 200
        for search, prefix, frontier, matches in visited:
            tb = search.tb
            source = solver._frontier(tb, prefix)
            assert frontier[len(prefix) :] == source[len(prefix) :]
            assert matches == sum(c == m for c, m in zip(prefix, tb.match))
            carried = search.bound(len(prefix), frontier, matches)
            assert carried == search.bound(len(prefix), source, matches)

    @staticmethod
    def parent_child_cases(setting, seed):
        """Per internal prefix of unit and heavy, small and full toys, its
        search and its relaxed part, then each child's relaxed and deployed
        parts, each scored over every combination."""
        rng = random.Random(seed)
        kinds = [(False, "small"), (True, "small"), (False, "full"), (True, "full")]
        for heavy, scale in kinds * 15:
            inst = random_toy_instance(rng, scale, heavy=heavy)
            tb = solver._Tables(inst)
            search = solver._Search(tb, Goal(inst, setting), None, None)
            sizes = [len(labels) for labels in inst.choices[: tb.n_internal]]

            def parts(prefix, *scorers):
                frontier = solver._frontier(tb, prefix)
                matches = sum(map(operator.eq, prefix, tb.match))
                return [scorer(len(prefix), frontier, matches, search.every) for scorer in scorers]

            for k in range(len(sizes)):
                for prefix in itertools.product(*map(range, sizes[:k])):
                    (parent,) = parts(prefix, search._relaxed)
                    children = [
                        parts(prefix + (ci,), search._relaxed, search._deployed)
                        for ci in range(sizes[k])
                    ]
                    yield search, parent, children

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_child_parts_stay_within_the_parents_relaxed_part(self, setting):
        # per combination, neither part of a child scores above its parent's
        # relaxed part plus w1, pays less than its optimistic cost, keeps
        # more than one more match or counts more responders or improvers:
        # so a combination the parent's relaxed part rules out, by its score
        # or by a side row, stays out
        checked = 0
        for search, parent, children in self.parent_child_cases(setting, 7300 + setting):
            w1 = search.weights[1]
            top = parent[0]
            bounds = part_totals(search.tb, parent)
            for child in children:
                for part in child:
                    for j, totals in enumerate(part_totals(search.tb, part)):
                        (cost, obj1, obj2, obj3), (pc, p1, p2, p3) = totals, bounds[j]
                        assert part[0][j] <= top[j] + w1
                        assert cost >= pc and obj1 <= p1 + 1 and obj2 <= p2 and obj3 <= p3
                        if not search._holds(parent, j, 1):
                            assert not search._holds(part, j)
                    checked += 1
        assert checked > 500

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_live_sets_keep_every_winning_combination(self, setting):
        # every combination a node drops, completed any way below it, fails
        # a side row or does not beat the threshold the node dropped it at;
        # so every combination a descendant leaf could pick stays live
        rng = random.Random(7400 + setting)
        kinds = [(False, "small"), (True, "small"), (False, "full"), (True, "full")]
        narrowed = completions = by_row = 0
        for heavy, scale in kinds * 40:
            inst = random_toy_instance(rng, scale, heavy=heavy)
            goal = Goal(inst, setting)
            tb = solver._Tables(inst)
            search = RecordingSearch(tb, goal, None, None)
            search.run()
            sizes = [len(labels) for labels in inst.choices]
            for prefix, (below, live) in search.kept.items():
                if live is search.every:
                    continue
                narrowed += 1
                dropped = [i for i in range(len(tb.sink_vectors)) if i not in live.combos]
                # a combination dropped though its relaxed score passes the
                # floor was dropped by a side row
                matches = sum(map(operator.eq, prefix, tb.match))
                relaxed = search._relaxed(
                    len(prefix), solver._frontier(tb, prefix), matches, search.every
                )
                floor = -math.inf if below is None else below - search.weights[1]
                by_row += sum(relaxed[0][i] > floor for i in dropped)
                for tail in itertools.product(*map(range, sizes[len(prefix) : tb.n_internal])):
                    for i in dropped:
                        vec = prefix + tail + tb.sink_vectors[i]
                        m = evaluate(inst.diagram, inst.assignment(vec), inst.initial, inst.population)
                        completions += 1
                        if goal.feasible(m):
                            assert below is not None and goal.score(m) <= below
        # setting 2's rows are all targets; settings 1 and 3 cap the budget
        assert narrowed > 60 and completions > 1000 and by_row > 0

    def test_root_bound_covers_the_optimum(self, rng):
        for _ in range(10):
            inst = random_toy_instance(rng)
            sol = solve(inst, 1)
            if sol.status != STATUS_OPTIMAL:
                continue
            root = prefix_bound(inst, (), 1)
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
        assert sol.best_bound == prefix_bound(inst, (), setting)

    @pytest.mark.parametrize("setting", [1, 3])
    def test_node_limit_at_a_sink_root(self, setting):
        # with no internal vertex the root is the node that scores the sinks
        from diagopt.core import Diagram

        inst = dataclasses.replace(
            tiny_instance(budget=10**6),
            diagram=Diagram(vertices=("r",), arcs=()),
            families={},
            initial=Assignment.build({}, {"r": 0}),
        )
        sol = solve(inst, setting, node_limit=1)
        assert sol.status == STATUS_LIMIT and sol.assignment is None
        assert sol.best_bound == prefix_bound(inst, (), setting)
        assert solve(inst, setting, node_limit=2).status == STATUS_OPTIMAL

    def test_node_limit_keeps_best_incumbent(self):
        # a seed and limit where the search stops with a suboptimal incumbent
        inst = random_toy_instance(random.Random(23), "full")
        full = solve(inst, 1)
        assert full.status == STATUS_OPTIMAL and full.objective_value == Fraction(109, 36)
        sol = solve(inst, 1, node_limit=6)
        assert sol.status == STATUS_LIMIT
        assert sol.objective_value == Fraction(103, 36)
        assert sol.best_bound == Fraction(1715, 456)
        assert sol.objective_value < full.objective_value <= sol.best_bound
        assert sol.gap == sol.best_bound - sol.objective_value
        assert verify(sol, inst, 1).issues == ()

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_every_limit_reports_the_root_bound(self, setting):
        # no node's bound exceeds the root's, so a stopped search reports it
        rng = random.Random(9000 + setting)
        stopped = 0
        for heavy in (False, True) * 4:
            inst = random_toy_instance(rng, "full", heavy=heavy)
            root = prefix_bound(inst, (), setting)
            better = min if setting == 2 else max
            for limit in range(solve(inst, setting).stats.nodes + 2):
                sol = solve(inst, setting, node_limit=limit)
                if sol.status == STATUS_LIMIT:
                    stopped += 1
                    objective = sol.objective_value
                    assert sol.best_bound == (root if objective is None else better(objective, root))
        assert stopped > 20

    def test_time_limit_zero(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1, time_limit=0.0)
        assert sol.status == STATUS_LIMIT

    @pytest.mark.parametrize(
        "limits",
        [{"node_limit": -1}, {"time_limit": -0.5}, {"time_limit": float("nan")}],
        ids=["negative-nodes", "negative-seconds", "nan-seconds"],
    )
    def test_invalid_limits_rejected(self, limits):
        # a NaN deadline never passes, so the search would ignore it
        with pytest.raises(InputError, match="limit must be >= 0"):
            solve(tiny_instance(budget=10**6), 1, **limits)


class TestSearchOrder:
    # node counts of the pinned decision order, branch order, bounds,
    # frontier merging and tie-break; any change to one of them shows here first
    @pytest.mark.parametrize(
        "seed, nodes",
        [(1, (64, 24, 24)), (17, (10, 15, 10)), (44, (11, 14, 11))],
    )
    def test_node_counts_are_pinned(self, seed, nodes):
        inst = random_toy_instance(random.Random(seed), "full")
        got = tuple(solve(inst, setting).stats.nodes for setting in (1, 2, 3))
        assert got == nodes

    @pytest.mark.parametrize(
        "seed, dominated",
        [(1, (13, 1, 2)), (17, (2, 2, 2)), (44, (5, 6, 5))],
    )
    def test_dominated_counts_are_pinned(self, seed, dominated):
        inst = random_toy_instance(random.Random(seed), "full")
        got = tuple(solve(inst, setting).stats.dominated for setting in (1, 2, 3))
        assert got == dominated

    # sha256 of one line per solve of the toy differential below (status,
    # node counts, objective, bound and choice vector): a change to any
    # decision the search makes on a toy changes it
    TOY_DECISIONS_SHA256 = "e4edb859f0bf7ded6f0b67cf9a7df9d74d6351384161250a4b3a49cb6c52c65a"

    def test_toy_decisions_are_pinned(self):
        # seeds 0-149 of both toy scales, unit and heavy weights, every
        # method and cut to one, settings 1-3, uncapped and at 7 nodes
        digest = hashlib.sha256()
        for seed, scale, heavy, one in itertools.product(
            range(150), ("small", "full"), (False, True), (False, True)
        ):
            inst = random_toy_instance(random.Random(seed), scale, heavy=heavy)
            if one:
                inst = one_method_instance(inst)
            for setting, limit in itertools.product((1, 2, 3), (None, 7)):
                sol = solve(inst, setting, node_limit=limit)
                vec = None if sol.assignment is None else inst.choice_vector(sol.assignment)
                s = sol.stats
                line = f"{sol.status} {s.nodes} {s.dominated} {s.pruned} "
                line += f"{sol.objective_value} {sol.best_bound} {vec}\n"
                digest.update(line.encode())
        assert digest.hexdigest() == self.TOY_DECISIONS_SHA256

    @pytest.fixture(scope="class")
    def desk_instance_3(self):
        return build_instance(3, generate_population(GenConfig(n=800, seed=20240601)))

    # per setting: status, nodes and dominated prefixes under the desk cap
    DESK_CAP_COUNTS = {1: (STATUS_LIMIT, 50_001, 24_028), 2: (STATUS_OPTIMAL, 6_569, 2_261)}

    @pytest.mark.parametrize(
        "setting, objective, best_bound, vector",
        [
            (1, Fraction(248171, 51336), Fraction(10781, 1656), (1, 8, 0, 19, 3, 1, 3, 1)),
            (2, 160900, 160900, (1, 12, 6, 10, 3, 1, 1, 2)),
        ],
    )
    def test_capped_desk_incumbents_are_pinned(
        self, desk_instance_3, setting, objective, best_bound, vector
    ):
        # the desk benchmark's node cap stops instance 3 before it proves
        # setting 1, so only these pins fix the incumbent it holds; setting 2
        # closes under the cap
        sol = solve(desk_instance_3, setting, node_limit=50_000)
        status, nodes, dominated = self.DESK_CAP_COUNTS[setting]
        assert sol.status == status
        assert sol.objective_value == objective
        assert sol.best_bound == best_bound
        assert desk_instance_3.choice_vector(sol.assignment) == vector
        assert (sol.stats.nodes, sol.stats.dominated) == (nodes, dominated)
        assert verify(sol, desk_instance_3, setting).issues == ()

    def test_population_without_types(self):
        # every mask is empty: the one feasible setting is won on similarity
        inst = build_instance(1, generate_population(GenConfig(n=0, seed=20240601)))
        assert len(inst.population) == 0
        sol = solve(inst, 1)
        assert sol.status == STATUS_OPTIMAL and sol.objective_value == 1
        assert sol.stats.nodes == 65
        for setting in (2, 3):
            assert solve(inst, setting).status == STATUS_INFEASIBLE


class TestCutAudit:
    """Sampled cuts of real searches, re-checked through the scalar walk,
    and whole optima checked three ways.

    A generated population of 60 examinees, with each instance's budget and
    reaction targets scaled to it, so that every cell has a feasible optimum
    to prune against. A search capped at 5,000 nodes records its cuts (see
    ``conftest.RecordingSearch``); per cell, up to three cuts per reason and
    depth are drawn among those whose subtree holds at most 1,000
    completions, and every completion is scored with ``core.evaluate``. A
    child cut by its sibling's split is audited as a dominated prefix, with
    that sibling as the cutter.
    Each cell cut to its deployed label and one more candidate per vertex is
    solved natively, by ``brute_force`` and by HiGHS on its LP export. Those
    cuts merge no frontier, so instances 1 and 2 cut to three more candidates
    per vertex (2,048 assignments), where four of the six cells do, and
    instance 3 cut to two more (7,776 assignments), where settings 1 and 2
    do, are also solved natively and by ``brute_force``.
    """

    N = 60
    SAMPLES = 3

    @pytest.fixture(scope="class")
    def population(self):
        return generate_population(GenConfig(n=self.N, seed=20240601))

    def scaled(self, inst):
        th1, th2, th3 = inst.targets
        return dataclasses.replace(
            inst,
            budget=inst.budget * self.N // 800,
            targets=(th1, max(1, th2 * self.N // 600), max(1, th3 * self.N // 600)),
        )

    @pytest.mark.parametrize("setting", [1, 2, 3])
    @pytest.mark.parametrize("instance", [1, 2, 3])
    def test_sampled_cuts_hold(self, population, instance, setting):
        inst = self.scaled(build_instance(instance, population))
        goal = Goal(inst, setting)
        search = RecordingSearch(solver._Tables(inst), goal, 5_000, None)
        search.run()
        sizes = [len(labels) for labels in inst.choices]
        groups = collections.defaultdict(list)
        for cut in search.cuts:
            depth = len(cut[1])
            if math.prod(sizes[depth:]) <= 1_000:
                reason = "infeasible" if cut[0] == "bound" and cut[2] is None else cut[0]
                groups[reason, depth].append(cut)
        rng = random.Random(100 * instance + setting)
        better = (lambda a, b: a < b) if setting == 2 else (lambda a, b: a > b)

        def metrics(vec):
            return evaluate(inst.diagram, inst.assignment(vec), inst.initial, inst.population)

        for (reason, depth), cuts in sorted(groups.items()):
            for cut in rng.sample(cuts, min(self.SAMPLES, len(cuts))):
                prefix = cut[1]
                for tail in itertools.product(*map(range, sizes[depth:])):
                    m = metrics(prefix + tail)
                    if reason in ("dominated", "sibling"):
                        # the cutting prefix does at least as well on every completion
                        cutter = cut[2]
                        assert cutter is not None and cutter < prefix
                        kept = metrics(cutter + tail)
                        assert (kept.cost, kept.obj2, kept.obj3) == (m.cost, m.obj2, m.obj3)
                        assert kept.obj1 >= m.obj1
                    elif setting_feasible(inst, setting, m):
                        # no completion beats the incumbent the bound cut against
                        assert reason == "bound"
                        inc = goal.value(cut[2])
                        obj = setting_objective(inst, setting, m)
                        assert not better(obj, inc)
                        assert obj != inc or prefix + tail >= cut[3]
        # every cell cuts by the bound and by a sibling's split, all but i1s2
        # and i2s3 also at a frontier an earlier prefix reached, and i3s2
        # cuts a subtree with no feasible completion before its first incumbent
        reasons = {reason for reason, _ in groups}
        assert {"sibling", "bound"} <= reasons
        assert "dominated" in reasons or (instance, setting) in ((1, 2), (2, 3))
        assert "infeasible" in reasons or (instance, setting) != (3, 2)

    @pytest.mark.parametrize("setting", [1, 2, 3])
    @pytest.mark.parametrize("instance", [1, 2, 3])
    def test_truncated_cells_agree_three_ways(self, population, instance, setting):
        inst = truncated(self.scaled(build_instance(instance, population)), 1)
        self.assert_matches_oracle(inst, setting)
        check_against_native(inst, setting)

    @pytest.mark.parametrize("setting", [1, 2, 3])
    @pytest.mark.parametrize("instance", [1, 2, 3])
    def test_merged_frontiers_match_brute_force(self, population, instance, setting):
        extra = 2 if instance == 3 else 3
        inst = truncated(self.scaled(build_instance(instance, population)), extra)
        self.assert_matches_oracle(inst, setting)

    @pytest.mark.parametrize("seed, extra, setting", [(1, 3, 1)])
    def test_instance_3_merged_frontiers_match_brute_force(self, seed, extra, setting):
        """Instance 3 over another n=60 population, cut to three more candidates
        per vertex (32,768 assignments): unlike its cells above, a dominance cut
        that ignores deployed matches changes this cell's optimum."""
        population = generate_population(GenConfig(n=self.N, seed=seed))
        inst = truncated(self.scaled(build_instance(3, population)), extra)
        self.assert_matches_oracle(inst, setting)

    @staticmethod
    def assert_matches_oracle(inst, setting):
        """Native equals ``brute_force`` in status, assignment, objective and bound."""
        fast = solve(inst, setting)
        slow = brute_force(inst, setting)
        assert fast.status == slow.status == STATUS_OPTIMAL
        assert fast.assignment == slow.assignment
        assert fast.objective_value == slow.objective_value
        assert fast.best_bound == slow.best_bound


class TestReachStateOracle:
    """``conftest.reach_state_optima``, a dynamic program over reach states
    that shares no code with ``solver``, checked against ``brute_force`` on
    toys and then against the native search on whole shipped families."""

    @staticmethod
    def assert_matches(sol, inst, setting, optimum):
        if optimum is None:
            assert sol.status == STATUS_INFEASIBLE and sol.assignment is None
            return
        score, vec = optimum
        value = Goal(inst, setting).value(score)
        assert sol.status == STATUS_OPTIMAL
        assert inst.choice_vector(sol.assignment) == vec
        assert sol.objective_value == sol.best_bound == value

    def test_matches_brute_force_on_toys(self):
        rng = random.Random(4400)
        kinds = [(False, "small"), (True, "small"), (False, "full"), (True, "full")]
        statuses = collections.Counter()
        for heavy, scale in kinds * 12:
            inst = random_toy_instance(rng, scale, heavy=heavy)
            optima = reach_state_optima(inst)
            for setting in (1, 2, 3):
                sol = brute_force(inst, setting)
                self.assert_matches(sol, inst, setting, optima[setting])
                statuses[sol.status] += 1
        assert statuses[STATUS_OPTIMAL] > 50 and statuses[STATUS_INFEASIBLE] > 10

    @pytest.mark.parametrize("instance", [1, 2, 3])
    def test_full_shipped_cells_match_native(self, instance):
        # n=60, seed 20240601, budget and targets scaled as in TestCutAudit;
        # instance 3 has 36.6M assignments, far past brute_force's cap
        audit = TestCutAudit()
        population = generate_population(GenConfig(n=audit.N, seed=20240601))
        inst = audit.scaled(build_instance(instance, population))
        optima = reach_state_optima(inst)
        for setting in (1, 2, 3):
            self.assert_matches(solve(inst, setting), inst, setting, optima[setting])


class TestBruteForce:
    def test_truncated_shipped_instance(self):
        """First shipped instance with families cut to four members each."""
        pop = generate_population(GenConfig(n=60, seed=31))
        small = truncated(build_instance(1, pop), 3)
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

    def test_cap_enforced(self, monkeypatch):
        inst = tiny_instance()
        monkeypatch.setattr(solver, "BRUTE_FORCE_CAP", 3)
        with pytest.raises(InputError, match="^32 assignments exceed the cap of 3$"):
            brute_force(inst, 1)


class TestVerify:
    def test_clean_solution_passes(self, rng):
        inst = random_toy_instance(rng)
        for setting in (1, 2, 3):
            assert verify(solve(inst, setting), inst, setting).issues == ()

    def test_corrupted_sink_method_flagged(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1)
        bad_phi = Assignment.build(
            dict(sol.assignment.node_items),
            {**sol.assignment.sink_methods, "s1": 99},
        )
        bad = dataclasses.replace(sol, assignment=bad_phi)
        report = verify(bad, inst, 1)
        assert any("candidate/constraint violation" in i for i in report.issues)

    def test_objective_mismatch_flagged(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 2)
        bad = dataclasses.replace(sol, objective_value=sol.objective_value + 1)
        report = verify(bad, inst, 2)
        assert any("objective mismatch" in i for i in report.issues)

    def test_wrong_setting_flagged(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1)
        assert "solution is for setting 1, not 3" in verify(sol, inst, 3).issues

    def test_optimal_status_without_assignment_flagged(self):
        inst = tiny_instance(budget=10**6)
        bad = dataclasses.replace(solve(inst, 1), assignment=None)
        assert verify(bad, inst, 1).issues == ("optimal status without an assignment",)

    def test_assignment_missing_a_vertex_flagged(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1)
        phi = sol.assignment
        bad_phi = Assignment(dict(phi.node_items), {"s0": phi.sink_methods["s0"]})
        bad = dataclasses.replace(sol, assignment=bad_phi)
        assert verify(bad, inst, 1).issues == ("assignment does not cover the diagram",)

    def test_metrics_mismatch_flagged(self):
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1)
        bad = dataclasses.replace(sol, metrics=sol.metrics._replace(obj2=sol.metrics.obj2 + 1))
        assert verify(bad, inst, 1).issues == (
            f"metrics mismatch: recomputed {sol.metrics}, reported {bad.metrics}",
        )

    def test_failing_side_rows_flagged(self):
        # the optimum under an ample budget pays for a method
        inst = tiny_instance(budget=10**6)
        sol = solve(inst, 1)
        assert sol.metrics.cost > 0
        poor = dataclasses.replace(inst, budget=0)
        assert verify(sol, poor, 1).issues == (
            "candidate/constraint violation: setting side constraints fail",
        )
