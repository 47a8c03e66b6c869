"""Binary-program encoding: variable layout, rows, point semantics, LP export."""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagopt.candidates import CandidateFamily
from diagopt.core import Assignment, InputError, evaluate
from diagopt.datagen import GenConfig, generate_population
from diagopt.encoder import (
    VariablePoint,
    build_model,
    decode,
    encode_assignment,
    export_lp,
)
from diagopt.instances import build_instance
from diagopt.problem import Instance
from conftest import random_feasible_assignment as random_feasible
from conftest import (
    point_metrics,
    population_from_rows,
    random_toy_instance,
    reached_sinks,
    reference_compiled,
    reference_lp,
    reference_rows,
    tiny_instance,
    valid_diagram,
)
from lp_reader import parse_lp

SIDE_ROWS = ("budget", "target_obj1", "target_obj2", "target_obj3")

# sha256 of export_lp for each shipped (instance, setting) on this population
PINNED_POP = GenConfig(n=120, seed=7)
PINNED_LP_SHA256 = {
    (1, 1): "152d913ec96fadc072098ce6635741a716fff2d5ac84cf47db22a6c8c096ddcd",
    (1, 2): "ad0dd4ac3cfc60d2f87aa1d31449172ae0f8be64181c3149f7c674a1aef9df83",
    (1, 3): "3dc005036ebb6fbe32dcd42ab783d7e1eda0c4a9ac0971635a49c4811c476bc1",
    (2, 1): "ca88c2a437809a83237f571c630feaba85531fd56839d7da833fd6d284459981",
    (2, 2): "412babf3d5d56eb75c674bcdf5867bd7600ceea1172b27716e55f266527784f2",
    (2, 3): "d8b812c56ccd6d9100d7b738eee03da755108289ecb976cf88fbffaef4c35bbc",
    (3, 1): "dbaf41e8f2823f282118433816655185bfc597eb01655ad232f943fb1d4a3532",
    (3, 2): "1f30760339bd8ef4b21c3e0315d85f68ae7035c8ed784c86be977b68dbfb694c",
    (3, 3): "31b82af2c9d3b906ba67479a60a0b936bef25c5ad5983f9daadce09541e135b2",
}
# sha256 of export_lp for instance 3, setting 1 on a population of 1,032 types,
# so that type ids reach four digits
WIDE_POP = GenConfig(n=1050, seed=20240601)
WIDE_LP_SHA256 = "55db5cf5f57eadb33d908e94fcfa3ea90e7c97996656c6d314655318a83c65ad"


def reference_names(inst: Instance) -> tuple[str, ...]:
    """Every variable name in layout order, each block's format string filled
    in index by index."""
    n_t, n_m = len(inst.population), len(inst.population.methods)
    n_u, n_s = len(inst.diagram.internals), len(inst.diagram.sinks)
    blocks = [(f"p_u{ui}_c{{}}", (len(c),)) for ui, c in enumerate(inst.choices[:n_u])]
    blocks += [
        ("q_s{}_m{}", (n_s, n_m)),
        ("a_t{}_v{}", (n_t, n_u + n_s)),
        ("b_t{}_u{}_l{}", (n_t, n_u, 2)),
        ("g_t{}_s{}_m{}", (n_t, n_s, n_m)),
        ("z_t{}_m{}", (n_t, n_m)),
    ]
    return tuple(fmt.format(*at) for fmt, shape in blocks for at in product(*map(range, shape)))


def structural_violations(model, point) -> tuple[str, ...]:
    return tuple(v for v in model.violations(point) if not v.startswith(SIDE_ROWS))


@pytest.fixture(scope="module")
def pinned_pop():
    return generate_population(PINNED_POP)


class TestRegistry:
    def test_variable_counts_single_vertex(self):
        model = build_model(tiny_instance(), 1)
        assert model.variable_counts == {
            "p": 2, "q": 8, "alpha": 3, "beta": 2, "gamma": 8, "z": 4,
        }
        assert model.num_variables == 27

    def test_count_formulas_on_a_toy(self, rng):
        inst = random_toy_instance(rng)
        model = build_model(inst, 1)
        n_t = len(inst.population)
        n_u = len(inst.diagram.internals)
        n_s = len(inst.diagram.sinks)
        n_m = len(inst.population.methods)
        n_v = n_u + n_s
        counts = model.variable_counts
        assert counts["p"] == sum(len(inst.families[u]) for u in inst.diagram.internals)
        assert counts["q"] == n_s * n_m
        assert counts["alpha"] == n_t * n_v
        assert counts["beta"] == 2 * n_t * n_u
        assert counts["gamma"] == n_t * n_s * n_m
        assert counts["z"] == n_t * n_m

    def test_blocks_name_and_cover_every_variable(self, rng):
        for _ in range(5):
            model = build_model(random_toy_instance(rng, "full"), 1)
            names = model.names
            for ui, block in enumerate(model.p):
                assert [names[i] for i in block] == [f"p_u{ui}_c{ci}" for ci in range(len(block))]
            for fmt, block in (
                ("q_s{}_m{}", model.q),
                ("a_t{}_v{}", model.alpha),
                ("b_t{}_u{}_l{}", model.beta),
                ("g_t{}_s{}_m{}", model.gamma),
                ("z_t{}_m{}", model.z),
            ):
                for at, i in np.ndenumerate(block):
                    assert names[i] == fmt.format(*at)
            blocks = model.p + [model.q, model.alpha, model.beta, model.gamma, model.z]
            every = np.concatenate([b.ravel() for b in blocks])
            assert sorted(every.tolist()) == list(range(model.num_variables))

    def test_names_match_a_per_index_formatter(self, rng):
        for _ in range(3):
            base = random_toy_instance(rng, "full")
            for n_types in (0, 1, 12, 120, 1001):
                inst = with_random_types(base, rng, n_types)
                assert build_model(inst, 1).names == reference_names(inst)

    def test_row_count_formula(self, rng):
        inst = random_toy_instance(rng)
        for setting, side in ((1, 1), (2, 3), (3, 3)):
            model = build_model(inst, setting)
            n_t = len(inst.population)
            n_u = len(inst.diagram.internals)
            n_s = len(inst.diagram.sinks)
            n_m = len(inst.population.methods)
            n_v = n_u + n_s
            want = (
                (n_u + n_s)
                + n_t * (1 + (n_v - 1) + len(inst.diagram.arcs))
                + 6 * n_t * n_u
                + 3 * n_t * n_s * n_m
                + n_t * (n_m + n_s * n_m)
                + side
            )
            assert model.num_constraints == want

    def test_settings_share_the_registry(self):
        inst = tiny_instance()
        names = {s: build_model(inst, s).names for s in (1, 2, 3)}
        assert names[1] == names[2] == names[3]

    def test_unknown_setting_rejected(self):
        with pytest.raises(InputError, match="^unknown setting 4, expected 1, 2 or 3$"):
            build_model(tiny_instance(), 4)

    def test_infeasible_initial_assignment_rejected(self):
        inst = tiny_instance()
        bad = Assignment.build({"r": {1}}, {"s0": 0, "s1": 1})  # {1} not a candidate
        with pytest.raises(InputError, match="initial label at r is not a candidate"):
            type(inst)(
                diagram=inst.diagram,
                population=inst.population,
                families=inst.families,
                initial=bad,
                budget=inst.budget,
                targets=inst.targets,
            )


class TestSettingShapes:
    def test_objective_senses(self):
        inst = tiny_instance()
        assert build_model(inst, 1).objective_sense == "Maximize"
        assert build_model(inst, 2).objective_sense == "Minimize"
        assert build_model(inst, 3).objective_sense == "Maximize"

    def test_side_rows_per_setting(self):
        inst = tiny_instance()
        rows = {s: {r.name for r in build_model(inst, s).rows} for s in (1, 2, 3)}
        assert "budget" in rows[1] and not rows[1] & {"target_obj1", "target_obj2"}
        assert "budget" not in rows[2] and {"target_obj1", "target_obj2", "target_obj3"} <= rows[2]
        assert "budget" in rows[3] and "target_obj1" not in rows[3]
        assert {"target_obj2", "target_obj3"} <= rows[3]

    def test_similarity_target_may_be_fractional(self):
        inst = tiny_instance(targets=(3, 1, 1))
        model = build_model(inst, 2)
        row = next(r for r in model.rows if r.name == "target_obj1")
        assert row.rhs == Fraction(3, 2)

    def test_setting1_objective_coefficients(self):
        inst = tiny_instance(targets=(3, 5, 7))
        model = build_model(inst, 1)
        coefs = {idx: Fraction(c, model.objective_divisor) for c, idx in model.objective}
        p_initial = model.p[0][inst.choices[0].index(frozenset({0}))]
        assert coefs[p_initial] == Fraction(1, 3)


class TestEncode:
    def test_hand_propagated_point(self):
        inst = tiny_instance()  # type 0 is positive on item 0
        model = build_model(inst, 1)
        phi = Assignment.build({"r": {0}}, {"s0": 0, "s1": 2})
        pt = dict(zip(model.names, encode_assignment(model, phi).values))
        assert pt["a_t0_v0"] == 1  # source always visited
        assert pt["a_t0_v1"] == 0  # zero-labeled sink not reached
        assert pt["a_t0_v2"] == 1  # one-labeled sink reached
        assert pt["b_t0_u0_l1"] == 1
        assert pt["b_t0_u0_l0"] == 0
        assert pt["q_s1_m2"] == 1
        assert pt["g_t0_s1_m2"] == 1
        assert pt["g_t0_s0_m0"] == 0
        assert pt["z_t0_m2"] == 1

    def test_each_type_gets_exactly_one_method(self, rng):
        inst = random_toy_instance(rng)
        model = build_model(inst, 1)
        phi = random_feasible(inst, rng)
        pt = encode_assignment(model, phi)
        for ti in range(len(inst.population)):
            assert pt.values[model.z[ti]].sum() == 1

    def test_identity_assignment_scores_full_similarity(self):
        inst = tiny_instance()
        model = build_model(inst, 3)
        pt = encode_assignment(model, inst.initial)
        assert point_metrics(model, pt).obj1 == len(inst.diagram.vertices)

    def test_infeasible_assignment_rejected(self):
        inst = tiny_instance()
        model = build_model(inst, 1)
        bad = Assignment.build({"r": {1}}, {"s0": 0, "s1": 1})
        with pytest.raises(InputError, match="^assignment is not feasible for this instance$"):
            encode_assignment(model, bad)

    def test_encoded_points_satisfy_all_structural_rows(self, rng):
        for _ in range(25):
            inst = random_toy_instance(rng)
            models = [build_model(inst, s) for s in (1, 2, 3)]
            for _ in range(8):
                phi = random_feasible(inst, rng)
                pt = encode_assignment(models[0], phi)
                for model in models:
                    shared = VariablePoint(model=model, values=pt.values)
                    assert structural_violations(model, shared) == ()

    def test_z_block_matches_scalar_routing(self, rng):
        for _ in range(10):
            inst = random_toy_instance(rng)
            model = build_model(inst, 1)
            phi = random_feasible(inst, rng)
            pt = encode_assignment(model, phi)
            for ti, s in enumerate(reached_sinks(inst.diagram, phi, inst.population)):
                m = phi.sink_methods[s]
                for mi, other in enumerate(inst.population.methods):
                    want = 1 if other == m else 0
                    assert pt.values[model.z[ti, mi]] == want

    def test_objective_expressions_match_scalar_metrics(self, rng):
        for _ in range(10):
            inst = random_toy_instance(rng)
            model = build_model(inst, 1)
            phi = random_feasible(inst, rng)
            pt = encode_assignment(model, phi)
            want = evaluate(inst.diagram, phi, inst.initial, inst.population)
            assert point_metrics(model, pt) == want


class TestEncodeProperty:
    """Encoding soundness over hypothesis-generated diagrams and populations."""

    @settings(max_examples=60, deadline=None)
    @given(valid_diagram(max_internal=3, max_sinks=2), st.data())
    def test_any_feasible_assignment_encodes_cleanly(self, d, data):
        from diagopt.core import ItemUniverse, MethodUniverse
        from diagopt.encoder import Instance
        from conftest import make_type, population_from_rows

        items = ItemUniverse((0, 1, 2))
        methods = MethodUniverse(methods=(0, 1), costs=(0, 100))
        n_types = data.draw(st.integers(1, 4))
        types = tuple(
            make_type(
                i,
                data.draw(st.integers(1, 5)),
                data.draw(st.sets(st.integers(0, 2))),
                data.draw(st.sets(st.sampled_from(methods.methods))),
                data.draw(st.integers(0, 1)),
                items,
                methods,
            )
            for i in range(n_types)
        )
        pop = population_from_rows(items, methods, types)

        families = {}
        node_labels = {}
        role = frozenset(items.items)
        for u in d.internals:
            cands = data.draw(
                st.sets(
                    st.frozensets(st.integers(0, 2)), min_size=1, max_size=3
                )
            )
            families[u] = CandidateFamily(
                vertex=u, candidates=frozenset(cands), role=role
            )
            node_labels[u] = data.draw(st.sampled_from(sorted(cands, key=sorted)))
        sink_labels = {
            s: data.draw(st.sampled_from(methods.methods)) for s in d.sinks
        }
        inst = Instance(
            diagram=d,
            population=pop,
            families=families,
            initial=Assignment.build(node_labels, sink_labels),
            budget=10**6,
            targets=(len(d.vertices), 1, 1),
        )
        model = build_model(inst, 1)

        phi = Assignment(
            node_items={
                u: data.draw(st.sampled_from(inst.families[u].ordered))
                for u in d.internals
            },
            sink_methods={
                s: data.draw(st.sampled_from(methods.methods)) for s in d.sinks
            },
        )
        pt = encode_assignment(model, phi)
        assert structural_violations(model, pt) == ()
        assert decode(model, pt) == phi
        assert point_metrics(model, pt) == evaluate(
            inst.diagram, phi, inst.initial, inst.population
        )
        for ti, s in enumerate(reached_sinks(inst.diagram, phi, inst.population)):
            m = phi.sink_methods[s]
            assert pt.values[model.z[ti, inst.population.methods.methods.index(m)]] == 1


class TestDecode:
    def test_round_trip(self, rng):
        for _ in range(10):
            inst = random_toy_instance(rng)
            model = build_model(inst, 2)
            phi = random_feasible(inst, rng)
            assert decode(model, encode_assignment(model, phi)) == phi

    @pytest.mark.parametrize(
        "values, message",
        [
            (lambda n: np.zeros(n + 1, dtype=np.int8), "^point length does not match the model$"),
            (lambda n: np.full(n, 2, dtype=np.int8), "^point values must be 0 or 1$"),
        ],
        ids=["length", "values"],
    )
    def test_malformed_point_rejected(self, values, message):
        model = build_model(tiny_instance(), 1)
        with pytest.raises(InputError, match=message):
            VariablePoint(model=model, values=values(model.num_variables))

    def test_empty_p_block_rejected(self):
        inst = tiny_instance()
        model = build_model(inst, 1)
        pt = VariablePoint(model=model, values=np.zeros(model.num_variables, dtype=np.int8))
        with pytest.raises(InputError, match="^vertex r: 0 labels selected, expected 1$"):
            decode(model, pt)

    def test_double_q_block_rejected(self):
        inst = tiny_instance()
        model = build_model(inst, 1)
        values = np.zeros(model.num_variables, dtype=np.int8)
        values[model.p[0][inst.choices[0].index(frozenset({0}))]] = 1
        values[model.q[0, [0, 1]]] = 1  # sink s0 gets methods 0 and 1
        values[model.q[1, 0]] = 1
        with pytest.raises(InputError, match="^vertex s0: 2 labels selected, expected 1$"):
            decode(model, VariablePoint(model=model, values=values))


class TestExhaustiveCorrespondence:
    def test_satisfying_points_are_exactly_the_assignments(self):
        """Every 0/1 solution of the row system is an encoded assignment."""
        inst = tiny_instance(n_methods=2, budget=10**9, targets=(3, 1, 1))
        model = build_model(inst, 1)
        nv = model.num_variables
        assert nv == 17

        grid = ((np.arange(1 << nv, dtype=np.uint32)[:, None] >> np.arange(nv)[None, :]) & 1
                ).astype(np.int8)
        a, senses, rhs = model._compiled
        lhs = grid @ a.toarray().astype(np.int64).T
        ok = np.ones(len(grid), dtype=bool)
        ok &= ((senses != -1) | (lhs <= rhs)).all(axis=1)
        ok &= ((senses != 0) | (lhs == rhs)).all(axis=1)
        ok &= ((senses != 1) | (lhs >= rhs)).all(axis=1)
        sat = np.nonzero(ok)[0]

        n_assignments = 2 * 2 * 2  # |family(r)| * |M|^|S|
        assert len(sat) == n_assignments

        seen = set()
        for row in sat:
            pt = VariablePoint(model=model, values=grid[row])
            phi = decode(model, pt)
            seen.add((phi.node_items["r"], phi.sink_methods["s0"], phi.sink_methods["s1"]))
            want = evaluate(inst.diagram, phi, inst.initial, inst.population)
            assert point_metrics(model, pt) == want
            re_encoded = encode_assignment(model, phi)
            assert np.array_equal(re_encoded.values, grid[row])
        assert len(seen) == n_assignments


class TestParallelArcs:
    """Both arcs of a vertex may enter the same head; every type passes through."""

    def make(self):
        from diagopt.core import Arc, Diagram, ItemUniverse, MethodUniverse
        from diagopt.encoder import Instance
        from conftest import family, make_type, population_from_rows

        items = ItemUniverse((0, 1))
        methods = MethodUniverse(methods=(0, 1), costs=(0, 100))
        pop = population_from_rows(items, methods, (
            make_type(0, 2, {0}, {1}, 1, items, methods),
            make_type(1, 3, set(), {1}, 0, items, methods),
        ))
        d = Diagram(
            vertices=("r", "v", "s"),
            arcs=(Arc("r", "v", 0), Arc("r", "v", 1), Arc("v", "s", 0), Arc("v", "s", 1)),
        )
        return Instance(
            diagram=d,
            population=pop,
            families={"r": family("r", [set(), {0}], {0, 1}),
                      "v": family("v", [set(), {1}], {0, 1})},
            initial=Assignment.build({"r": {0}, "v": {1}}, {"s": 0}),
            budget=1000,
            targets=(3, 1, 1),
        )

    def test_every_type_reaches_the_sink(self):
        inst = self.make()
        model = build_model(inst, 1)
        phi = Assignment.build({"r": {0}, "v": set()}, {"s": 1})
        pt = encode_assignment(model, phi)
        assert structural_violations(model, pt) == ()
        vi = [inst.positions.index(v) for v in ("v", "s")]
        assert pt.values[model.alpha[:, vi]].all()
        m = point_metrics(model, pt)
        assert (m.cost, m.obj2, m.obj3) == (500, 5, 2)
        assert m == evaluate(inst.diagram, phi, inst.initial, inst.population)

    def test_solvers_agree(self):
        from diagopt.solver import brute_force, solve

        inst = self.make()
        for setting in (1, 2, 3):
            fast = solve(inst, setting)
            slow = brute_force(inst, setting)
            assert fast.status == slow.status
            assert fast.assignment == slow.assignment


class TestShortcutArc:
    """r's 0-arc leads through v on to s1, r's 1-successor, so a type can
    leave r by its 0-arc and still visit s1: r's 1-arc types are not the
    types that visit both r and s1."""

    def test_beta_matches_the_walk(self):
        from diagopt.core import Arc, Diagram, ItemUniverse, MethodUniverse
        from conftest import _walk, _walk_table, family, make_type, population_from_rows

        items = ItemUniverse((0, 1))
        methods = MethodUniverse(methods=(0, 1), costs=(0, 100))
        pop = population_from_rows(items, methods, (
            make_type(ti, 1, xs, {1}, 0, items, methods)
            for ti, xs in enumerate((set(), {0}, {1}, {0, 1}))
        ))
        d = Diagram(
            vertices=("r", "v", "s0", "s1"),
            arcs=(Arc("r", "v", 0), Arc("r", "s1", 1), Arc("v", "s0", 0), Arc("v", "s1", 1)),
        )
        phi = Assignment.build({"r": {0}, "v": {1}}, {"s0": 0, "s1": 1})
        inst = Instance(
            diagram=d,
            population=pop,
            families={"r": family("r", [set(), {0}], {0, 1}),
                      "v": family("v", [set(), {1}], {0, 1})},
            initial=phi,
            budget=1000,
            targets=(3, 1, 1),
        )
        model = build_model(inst, 1)
        pt = encode_assignment(model, phi)
        assert structural_violations(model, pt) == ()
        table = _walk_table(d, phi, items)
        for ti, x in enumerate(pop.x.tolist()):
            for ui, u in enumerate(d.internals):
                # a walk stops at u exactly when it visits u, and one step
                # from u takes the arc the type leaves u by
                visits = _walk(d.source, {v: s for v, s in table.items() if v != u}, x) == u
                label = d.heads[u].index(_walk(u, {u: table[u]}, x))
                for lb in (0, 1):
                    assert pt.values[model.beta[ti, ui, lb]] == (visits and label == lb)
        # type 2 (item 1 only) leaves r by its 0-arc and reaches s1 through v
        s1 = inst.positions.index("s1")
        assert pt.values[model.alpha[2, [0, s1]]].tolist() == [1, 1]
        assert pt.values[model.beta[2, 0]].tolist() == [1, 0]


class TestDegenerateDiagram:
    """Source-is-sink diagrams and empty populations still encode correctly."""

    def make(self, n_types: int = 0):
        from diagopt.core import Diagram, ItemUniverse, MethodUniverse
        from diagopt.encoder import Instance
        from conftest import make_type, population_from_rows

        items = ItemUniverse((0,))
        methods = MethodUniverse(methods=(0, 1), costs=(0, 100))
        types = tuple(
            make_type(i, 1, {0}, {1}, 1, items, methods) for i in range(n_types)
        )
        pop = population_from_rows(items, methods, types)
        d = Diagram(vertices=("r",), arcs=())
        return Instance(
            diagram=d,
            population=pop,
            families={},
            initial=Assignment.build({}, {"r": 0}),
            budget=1000,
            targets=(1, 1, 1),
        )

    def test_empty_population_model(self):
        model = build_model(self.make(0), 1)
        assert model.num_variables == 2  # just the q block
        assert model.num_constraints == 2  # one assignment row plus the budget
        phi = Assignment.build({}, {"r": 1})
        pt = encode_assignment(model, phi)
        assert model.violations(pt) == ()
        assert decode(model, pt) == phi

    def test_single_vertex_with_types(self):
        model = build_model(self.make(2), 3)
        phi = Assignment.build({}, {"r": 1})
        pt = encode_assignment(model, phi)
        assert structural_violations(model, pt) == ()
        m = point_metrics(model, pt)
        assert (m.cost, m.obj2, m.obj3) == (200, 2, 2)

    def test_export_parses(self):
        model = build_model(self.make(1), 2)
        parsed = parse_lp(export_lp(model))
        assert parsed.variable_count == model.num_variables
        assert parsed.constraint_count == model.num_constraints


class TestExportLp:
    def test_sense_keyword_first(self):
        inst = tiny_instance()
        assert export_lp(build_model(inst, 1)).startswith("Maximize\n")
        assert export_lp(build_model(inst, 2)).startswith("Minimize\n")
        assert export_lp(build_model(inst, 3)).startswith("Maximize\n")

    def test_reexport_is_byte_identical(self):
        inst = tiny_instance()
        model = build_model(inst, 1)
        assert export_lp(model) == export_lp(model)
        again = build_model(inst, 1)
        assert export_lp(model) == export_lp(again)

    def test_parse_back_preserves_structure(self, rng):
        for setting in (1, 2, 3):
            inst = random_toy_instance(rng)
            model = build_model(inst, setting)
            parsed = parse_lp(export_lp(model))
            assert parsed.sense == model.objective_sense
            assert parsed.variable_count == model.num_variables
            assert parsed.constraint_count == model.num_constraints
            assert parsed.binaries == list(model.names)

    def test_parse_back_recovers_rows_exactly(self):
        inst = tiny_instance(targets=(3, 5, 7))
        model = build_model(inst, 2)
        parsed = parse_lp(export_lp(model))
        by_name = {row.name: row for row in parsed.rows}
        assert len(by_name) == model.num_constraints
        for row in model.rows:
            got = by_name[row.name]
            assert got.sense == row.sense
            assert float(got.rhs) == pytest.approx(float(row.rhs))
            want = {}
            for coef, idx in row.terms:
                name = model.names[idx]
                want[name] = want.get(name, 0) + coef
            assert set(got.terms) == set(want)
            for name, coef in want.items():
                assert float(got.terms[name]) == pytest.approx(float(coef))

    @pytest.mark.parametrize("iid,setting", sorted(PINNED_LP_SHA256))
    def test_lp_bytes_are_pinned(self, pinned_pop, iid, setting):
        text = export_lp(build_model(build_instance(iid, pinned_pop), setting))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LP_SHA256[iid, setting]

    def test_lp_bytes_are_pinned_at_four_digit_type_ids(self):
        pop = generate_population(WIDE_POP)
        assert len(pop) == 1032
        text = export_lp(build_model(build_instance(3, pop), 1))
        assert hashlib.sha256(text.encode()).hexdigest() == WIDE_LP_SHA256

    def test_fractional_objective_survives_round_trip(self):
        inst = tiny_instance(targets=(3, 5, 7))
        model = build_model(inst, 1)
        parsed = parse_lp(export_lp(model))
        p_initial = model.names[model.p[0][inst.choices[0].index(frozenset({0}))]]
        assert float(parsed.objective.terms[p_initial]) == pytest.approx(1 / 3)

    def test_long_rows_wrap_into_continuation_lines(self):
        inst = tiny_instance(weights=tuple([3] * 9), positive=tuple({0} for _ in range(9)),
                             responds=tuple({1} for _ in range(9)), improves=tuple([1] * 9))
        model = build_model(inst, 2)
        text = export_lp(model)
        assert all(len(line) <= 80 for line in text.splitlines())
        parsed = parse_lp(text)
        assert parsed.constraint_count == model.num_constraints

    def test_all_zero_cost_objective_still_parses(self):
        import dataclasses

        from diagopt.core import MethodUniverse
        from diagopt.encoder import Instance

        base = tiny_instance(n_methods=2)
        free = MethodUniverse(methods=(0, 1), costs=(0, 0))
        inst = Instance(
            diagram=base.diagram,
            population=dataclasses.replace(base.population, methods=free),
            families=base.families,
            initial=base.initial,
            budget=base.budget,
            targets=base.targets,
        )
        model = build_model(inst, 2)
        assert model.objective == ()
        text = export_lp(model)
        assert "\n obj: 0 " in text
        parsed = parse_lp(text)
        assert parsed.sense == "Minimize"
        assert parsed.constraint_count == model.num_constraints


def with_random_types(inst: Instance, rng: random.Random, n_types: int) -> Instance:
    """``inst`` over ``n_types`` random examinee types on the same universes."""
    pop = inst.population
    types = [
        (
            i,
            rng.randint(1, 9),
            tuple(rng.randint(0, 1) for _ in pop.items.items),
            tuple(rng.randint(0, 1) for _ in pop.methods.methods),
            rng.randint(0, 1),
        )
        for i in range(n_types)
    ]
    return Instance(
        diagram=inst.diagram,
        population=population_from_rows(pop.items, pop.methods, types),
        families=inst.families,
        initial=inst.initial,
        budget=inst.budget,
        targets=inst.targets,
    )


def wrapped_typed_rows(text: str, family: str) -> int:
    """Per-type rows (names ``*_t<id>*``) of one family (names starting with
    ``family``) whose LP text spans several lines."""
    rows = text.split("\nSubject To\n")[1].split("\nBinary\n")[0].splitlines()
    wrapped, name = set(), ""
    for line in rows:
        if ":" in line:
            name = line.split(":")[0]
        elif "_t" in name and name.startswith(f" {family}"):
            wrapped.add(name)
    return len(wrapped)


class TestBlockWriter:
    """The per-type block writer and compiled matrix against row-by-row references."""

    @staticmethod
    def assert_matches_reference(model):
        assert export_lp(model) == reference_lp(model)
        assert list(model.rows) == reference_rows(model)
        (a, senses, rhs), (ref_a, ref_senses, ref_rhs) = model._compiled, reference_compiled(model)
        assert a.shape == ref_a.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, part), getattr(ref_a, part))
        assert senses.dtype == ref_senses.dtype and np.array_equal(senses, ref_senses)
        assert rhs.dtype == ref_rhs.dtype and np.array_equal(rhs, ref_rhs)

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_random_toys_match_the_reference(self, rng, setting):
        for scale in ("small", "full"):
            for _ in range(6):
                model = build_model(random_toy_instance(rng, scale), setting)
                self.assert_matches_reference(model)

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_violations_name_the_rows_the_reference_flags(self, rng, setting):
        for scale in ("small", "full"):
            for _ in range(4):
                model = build_model(random_toy_instance(rng, scale), setting)
                names = [row.name for row in reference_rows(model)]
                a, senses, rhs = reference_compiled(model)
                encoded = encode_assignment(model, random_feasible(model.instance, rng)).values
                for _ in range(6):
                    # uniform points break most rows; an encoded point with a
                    # few bits flipped breaks only a few
                    if rng.random() < 0.5:
                        values = np.array(
                            [rng.randint(0, 1) for _ in range(model.num_variables)], np.int8
                        )
                    else:
                        values = encoded.copy()
                        for i in rng.sample(range(model.num_variables), rng.randint(1, 3)):
                            values[i] ^= 1
                    lhs = a @ values.astype(np.int64)
                    bad = (
                        ((senses == -1) & (lhs > rhs))
                        | ((senses == 0) & (lhs != rhs))
                        | ((senses == 1) & (lhs < rhs))
                    )
                    want = tuple(name for name, b in zip(names, bad) if b)
                    assert model.violations(VariablePoint(model=model, values=values)) == want

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_zero_and_many_types_match_the_reference(self, rng, setting):
        base = random_toy_instance(rng, "full")
        while max(map(len, base.families.values())) < 4:  # long enough ln_lb rows to wrap
            base = random_toy_instance(rng, "full")
        # 1,001 types: the ids cross 9 -> 10, 99 -> 100 and 999 -> 1000
        for n_types in (0, 1, 12, 120, 1001):
            model = build_model(with_random_types(base, rng, n_types), setting)
            assert len(model.instance.population) == n_types
            self.assert_matches_reference(model)
        assert wrapped_typed_rows(export_lp(model), "ln_") > 0
        # some type keeps no p term in the linking rows of some vertex and label
        fires = model.instance.fires
        assert any((f != label).all(axis=0).any() for f in fires for label in (0, 1))
