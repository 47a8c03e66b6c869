"""Acceptance suite: every exit criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""
from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from diagopt.core import Population, evaluate, reached_sinks
from diagopt.datagen import GenConfig, generate_population
from diagopt.encoder import VariablePoint, build_model, encode_assignment, export_lp
from diagopt.instances import ITEM_CATEGORIES, build_instance
from diagopt.solver import STATUS_OPTIMAL, brute_force, solve, verify
from conftest import point_metrics, random_feasible_assignment, random_toy_instance
from lp_reader import parse_lp

# pinned budgets and tolerances
SAMPLES_PER_INSTANCE = 1000
ENCODING_SUITE_SECONDS = 120.0
TOYS_PER_SETTING = 50
ORACLE_SUITE_SECONDS = 60.0
SETTING1_TOLERANCE = 1e-9
DATAGEN_N = 100_000
DATAGEN_SEED = 424242
CATEGORICAL_TOLERANCE = 0.01
ITEM8_TOLERANCE = 0.005
DATAGEN_SECONDS = 30.0
DESK_SECONDS_PER_SETTING = 60.0
DESK_POP = GenConfig(n=800, seed=20240601)

SIDE_ROWS = ("budget", "target_obj1", "target_obj2", "target_obj3")

TABLE_VALUES = {
    1: (35000, (6, 15, 9)),
    2: (373333, (6, 160, 96)),
    3: (483000, (8, 207, 124)),
}
INPUT_ASSIGNMENTS = {
    1: ({"r": {0}, "v1": {1, 4, 8}, "v2": {44}, "v3": {40}}, {"s1": 1, "s2": 0}),
    2: ({"r": {0}, "v1": {8}, "v2": {23}, "v3": {45}}, {"s1": 0, "s2": 1}),
    3: (
        {"r": {0}, "v1": {1, 8}, "v2": {44}, "v3": {45}, "v4": {39}, "v5": {36}},
        {"s1": 1, "s2": 0},
    ),
}


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


@pytest.fixture(scope="module")
def desk_pop() -> Population:
    return generate_population(DESK_POP)


def test_configuration_fidelity(desk_pop):
    with criterion("configuration fidelity (costs, budgets, targets, input labels)"):
        for iid, (budget, targets) in TABLE_VALUES.items():
            inst = build_instance(iid, desk_pop)
            assert inst.population.methods.costs == (0, 200, 500, 700)
            assert inst.budget == budget
            assert inst.targets == targets
            want_nodes, want_sinks = INPUT_ASSIGNMENTS[iid]
            assert dict(inst.initial.node_items) == {
                u: frozenset(c) for u, c in want_nodes.items()
            }
            assert dict(inst.initial.sink_methods) == want_sinks


def test_encoding_soundness_and_objective_consistency(desk_pop):
    """Structural rows hold at every encoded point; expressions match evaluation."""
    assert len(desk_pop) <= 1000
    rng = random.Random(987)
    started = time.perf_counter()
    checked_rows = 0
    for iid in (1, 2, 3):
        inst = build_instance(iid, desk_pop)
        models = [build_model(inst, s) for s in (1, 2, 3)]
        base = models[0]
        scale = inst.targets[0] * inst.targets[1] * inst.targets[2]
        for _ in range(SAMPLES_PER_INSTANCE):
            phi = random_feasible_assignment(inst, rng)
            pt = encode_assignment(base, phi)

            for model in models:
                shared = VariablePoint(model=model, values=pt.values)
                bad = [
                    v for v in model.violations(shared) if not v.startswith(SIDE_ROWS)
                ]
                assert bad == [], f"instance {iid}: violated {bad[:5]}"
                checked_rows += model.num_constraints

            # the z block must agree with scalar routing for every type
            for ti, s in enumerate(reached_sinks(inst.diagram, phi, inst.population)):
                m = phi.sink_methods[s]
                assert pt.values[base.z[ti, inst.population.methods.methods.index(m)]] == 1
            assert int(pt.values[base.z].sum()) == len(inst.population.types)

            # objective consistency, exact integers and the scaled scalar
            want = evaluate(inst.diagram, phi, inst.initial, inst.population)
            got = point_metrics(base, pt)
            assert got == want
            th1, th2, th3 = inst.targets
            scalar = Fraction(
                sum(coef for coef, idx in base.objective if pt.values[idx]), base.objective_divisor
            )
            exact = Fraction(want.obj1, th1) + Fraction(want.obj2, th2) + Fraction(want.obj3, th3)
            assert scalar == exact
            assert abs(float(scalar) - float(exact)) <= SETTING1_TOLERANCE
    elapsed = time.perf_counter() - started
    with criterion(
        f"encoding soundness: {3 * SAMPLES_PER_INSTANCE} assignments, "
        f"{checked_rows} row checks, zero violations ({elapsed:.1f}s)"
    ):
        assert elapsed < ENCODING_SUITE_SECONDS
    with criterion("objective consistency: expressions equal evaluation exactly"):
        pass


def test_oracle_equivalence():
    started = time.perf_counter()
    compared = {1: 0, 2: 0, 3: 0}
    drawn = 0
    for setting in (1, 2, 3):
        rng = random.Random(5150 + setting)
        # keep drawing until the setting has enough optima to compare; toys
        # infeasible for the setting still must agree on the status
        attempts = 0
        while compared[setting] < TOYS_PER_SETTING and attempts < 10 * TOYS_PER_SETTING:
            attempts += 1
            drawn += 1
            # every third draw stretches to the full toy caps
            inst = random_toy_instance(rng, scale="full" if attempts % 3 == 0 else "small")
            fast = solve(inst, setting)
            slow = brute_force(inst, setting)
            assert fast.status == slow.status
            if fast.status == STATUS_OPTIMAL:
                compared[setting] += 1
                assert fast.objective_value == slow.objective_value
                assert fast.assignment == slow.assignment
                assert fast.metrics == slow.metrics
    elapsed = time.perf_counter() - started
    with criterion(
        f"oracle equivalence: {drawn} toy instances, optima matched exactly "
        f"per setting {dict(compared)} ({elapsed:.1f}s)"
    ):
        assert all(v >= TOYS_PER_SETTING for v in compared.values())
        assert elapsed < ORACLE_SUITE_SECONDS


def test_candidate_family_exactness(desk_pop):
    def enumerator(base, role, categories):
        pool = sorted(role)
        cats = [frozenset(cat) for cat in categories]
        found = set()
        for mask in range(1 << len(pool)):
            c = frozenset(pool[i] for i in range(len(pool)) if (mask >> i) & 1)
            if (
                len(base - c) <= 1
                and len(c - base) <= 1
                and all(len(c & cat) <= 1 for cat in cats)
            ):
                found.add(c)
        return found

    with criterion("candidate-family exactness vs exhaustive edit-distance enumeration"):
        inst = build_instance(1, desk_pop)
        want_v3 = {
            frozenset(),
            frozenset({36}),
            frozenset({40}),
            frozenset({43}),
            frozenset({36, 40}),
            frozenset({40, 43}),
        }
        assert inst.families["v3"].candidates == want_v3
        assert inst.families["v3"].candidates == enumerator(
            frozenset({40}), {36, 40, 43}, ITEM_CATEGORIES
        )
        assert inst.families["r"].candidates == {frozenset(), frozenset({0})}
        assert inst.families["r"].candidates == enumerator(
            frozenset({0}), {0}, ITEM_CATEGORIES
        )


def test_datagen_statistics():
    def normal_cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    started = time.perf_counter()
    pop = generate_population(GenConfig(n=DATAGEN_N, seed=DATAGEN_SEED))
    total = pop.total_weight

    def freq(item: int) -> float:
        pos = pop.items.index(item)
        return sum(t.weight * t.x[pos] for t in pop.types) / total

    # item frequencies implied by the categorical tables
    expected = {
        0: 0.551,            # checkup history
        3: 0.039 + 0.052 + 0.020,  # casual glucose >= 126
        4: 0.020,            # casual glucose >= 200
        18: 0.853,           # urine protein = 1
        19: 0.100,
        20: 0.034,
        21: 1.0,             # generated categories are 1..5
        22: 0.100 + 0.034 + 0.010 + 0.003,
        24: 0.010 + 0.003,
        36: 0.112,
        40: 0.888,
        41: 0.132,
        44: 0.081,
        45: 0.294,
        46: 0.170,
        47: 0.058,
        48: 0.164,
    }
    with criterion(
        f"datagen statistics at N={DATAGEN_N}: categorical within "
        f"{CATEGORICAL_TOLERANCE}, tracked item within {ITEM8_TOLERANCE} of the CDF oracle"
    ):
        for item, p in expected.items():
            assert abs(freq(item) - p) <= CATEGORICAL_TOLERANCE, f"item {item}"

        lo, hi, mean, sd = 3.0, 20.0, 5.19, 0.73
        a, b = normal_cdf((lo - mean) / sd), normal_cdf((hi - mean) / sd)
        oracle = (b - normal_cdf((6.5 - mean) / sd)) / (b - a)
        assert abs(freq(8) - oracle) <= ITEM8_TOLERANCE

        elapsed = time.perf_counter() - started
        assert elapsed < DATAGEN_SECONDS


def test_desk_scale_end_to_end(desk_pop):
    with criterion(
        "desk-scale end-to-end: three settings on the first instance, "
        "optimal, verified, side constraints hold"
    ):
        assert 100 <= len(desk_pop) <= 1000  # hundreds of types
        inst = build_instance(1, desk_pop)
        th1, th2, th3 = inst.targets
        for setting in (1, 2, 3):
            started = time.perf_counter()
            sol = solve(inst, setting)
            elapsed = time.perf_counter() - started
            assert elapsed < DESK_SECONDS_PER_SETTING, f"setting {setting}: {elapsed:.1f}s"
            assert sol.status == STATUS_OPTIMAL, f"setting {setting}: {sol.status}"
            report = verify(sol, inst, setting)
            assert report.ok, report.issues
            m = sol.metrics
            if setting in (1, 3):
                assert m.cost <= inst.budget
            if setting == 2:
                assert 2 * m.obj1 >= th1
            if setting in (2, 3):
                assert m.obj2 >= th2 and m.obj3 >= th3


def test_lp_export_determinism_and_parse_back():
    with criterion("LP export: byte-identical re-export, parse-back preserves counts"):
        pop = generate_population(GenConfig(n=150, seed=99))
        inst = build_instance(1, pop)
        for setting in (1, 2, 3):
            model = build_model(inst, setting)
            text = export_lp(model)
            again = export_lp(build_model(inst, setting))
            assert text == again
            parsed = parse_lp(text)
            assert parsed.variable_count == model.num_variables
            assert parsed.constraint_count == model.num_constraints
            assert parsed.sense == model.objective_sense
