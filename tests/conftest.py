"""Shared builders for the test suite."""
from __future__ import annotations

import json
import operator
import random
from dataclasses import asdict, replace
from fractions import Fraction
from math import ceil, floor

import numpy as np

import pytest
from hypothesis import assume
from hypothesis import strategies as st
from scipy import sparse

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
from diagopt.datagen import GenConfig
from diagopt.encoder import _SENSES, Instance, LinRow, _fmt_number, _fmt_terms, _wrap
from diagopt.fileio import dump_canonical
from diagopt.problem import FIELDS, Goal
from diagopt.solver import _frontier, _Search, _Tables


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


def random_toy_instance(
    rng: random.Random, scale: str = "small", heavy: bool = False
) -> Instance:
    """A random instance: valid diagram, families containing the initial labels.

    ``small`` keeps enumeration over completions cheap; ``full`` stretches to
    four internal vertices, five candidates per vertex, and fifty types.
    Type weights are 1-9; ``heavy`` draws them up to 10**4 instead and gives
    one type a weight of at least 2**16.
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
        heads = {a.head for a in arcs}
        if all(v in heads for v in vertices[1:]):
            break
    d = Diagram(vertices=vertices, arcs=tuple(arcs))

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
            weight=rng.randint(1, 10**4 if heavy else 9),
            x=tuple(int(rng.random() < 0.5) for _ in range(n_items)),
            y=tuple(int(rng.random() < 0.5) for _ in range(n_methods)),
            z=int(rng.random() < 0.5),
        )
        for i in range(n_types)
    )
    if heavy:
        wide = rng.randrange(n_types)
        types = tuple(
            replace(t, weight=rng.randint(2**16, 2**17)) if t.id == wide else t for t in types
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


def one_method_instance(inst: Instance) -> Instance:
    """``inst`` with its method universe cut to its first method, which every
    sink then deploys: one sink-method combination remains."""
    pop = inst.population
    first = pop.methods.methods[0]
    methods = MethodUniverse(methods=(first,), costs=pop.methods.costs[:1])
    types = tuple(replace(t, y=t.y[:1]) for t in pop.types)
    initial = Assignment(
        node_items=dict(inst.initial.node_items),
        sink_methods={s: first for s in inst.initial.sink_methods},
    )
    return replace(
        inst, population=replace(pop, methods=methods, types=types), initial=initial
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
    heads = {a.head for a in arcs}
    # vertices without in-arcs would add extra sources
    assume(all(v in heads for v in vertices[1:]))
    return Diagram(vertices=vertices, arcs=tuple(arcs))


def random_feasible_assignment(inst: Instance, rng: random.Random) -> Assignment:
    node_items = {u: rng.choice(inst.families[u].ordered) for u in inst.diagram.internals}
    sink_methods = {
        s: rng.choice(inst.population.methods.methods) for s in inst.diagram.sinks
    }
    return Assignment(node_items=node_items, sink_methods=sink_methods)


def assignment_doc(phi: Assignment) -> dict:
    """The assignment document of ``phi``, written here as the readers' reference."""
    return {
        "kind": "assignment",
        "nodes": {u: sorted(c) for u, c in phi.node_items.items()},
        "sinks": dict(phi.sink_methods),
    }


def write_assignment(phi: Assignment, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_canonical(assignment_doc(phi)))


def genconfig_doc(cfg: GenConfig) -> dict:
    """The genconfig document of ``cfg`` (all of it but ``n`` and ``seed``).

    Written here as the genconfig reader's reference: an attribute is its
    ``kind`` plus its spec's fields, a predicate its op, attribute and the
    thresholds it holds.
    """
    obj = {
        "kind": "genconfig",
        "attributes": [{"kind": spec.kind, **asdict(spec)} for spec in cfg.specs],
        "thresholds": [
            [item, {k: v for k, v in asdict(pred).items() if v is not None}]
            for item, pred in cfg.thresholds.entries
        ],
        "methods": [[m, c] for m, c in zip(cfg.methods.methods, cfg.methods.costs)],
        "response_probs": {str(m): p for m, p in sorted(cfg.response_probs.items())},
        "improvement_prob": cfg.improvement_prob,
    }
    # as a reader sees it: tuples become JSON lists
    return json.loads(json.dumps(obj))


def point_metrics(model, pt) -> Metrics:
    """The model's cost and indicator expressions, summed exactly at a 0/1 point."""
    return Metrics(*(sum(coef for coef, idx in e if pt.values[idx]) for e in model.exprs))


def prefix_bound(inst: Instance, prefix: tuple[int, ...], setting: int):
    """The objective bound the search computes at an internal choice prefix,
    or ``None`` when it finds no completion feasible."""
    goal = Goal(inst, setting)
    tb = _Tables(inst)
    matches = sum(map(operator.eq, prefix, tb.match))
    scaled = _Search(tb, goal, None, None).bound(len(prefix), _frontier(tb, prefix), matches)
    return None if scaled is None else goal.value(scaled)


class RecordingSearch(_Search):
    """The search, recording each prefix it cuts: ``("dominated", prefix,
    cutter)`` with the earlier prefix that dominates it (``None`` if none
    does), or ``("bound", prefix, inc_obj, inc_vec)`` with the incumbent
    when the node bound cut it (``None`` twice when there was none)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cuts: list[tuple] = []

    def _dominated(self, prefix, frontier, matches):
        depth = len(prefix)
        tail = frontier[depth:]
        earlier = self.seen[depth].get(hash(tuple(tail)), ())
        if not super()._dominated(prefix, frontier, matches):
            return False
        tb = self.tb
        cutter = next(
            (
                p
                for p in earlier
                if sum(map(operator.eq, p, tb.match)) >= matches
                and p < prefix
                and _frontier(tb, p)[depth:] == tail
            ),
            None,
        )
        self.cuts.append(("dominated", prefix, cutter))
        return True

    def _promising(self, prefix, frontier, matches):
        if super()._promising(prefix, frontier, matches):
            return True
        self.cuts.append(("bound", prefix, self.inc_obj, self.inc_vec))
        return False


def reference_rows(model) -> list[LinRow]:
    """The model's rows written one by one from its variable layout.

    The reference for the encoder's per-type row blocks: it reads only the
    variable arrays, the instance and the setting's side rows, never the
    blocks or the compiled matrix.
    """
    inst = model.instance
    d = inst.diagram
    n_u = len(d.internals)
    p = [b.tolist() for b in model.p]
    q, alpha, beta, gamma, z = (
        b.tolist() for b in (model.q, model.alpha, model.beta, model.gamma, model.z)
    )
    rows: list[LinRow] = []

    # assignment rows: one candidate per vertex, one method per sink
    for ui, pu in enumerate(p):
        rows.append(LinRow(f"asg_u{ui}", tuple((1, i) for i in pu), "=", 1))
    for si, qs in enumerate(q):
        rows.append(LinRow(f"asg_s{si}", tuple((1, i) for i in qs), "=", 1))

    # routing rows: the source is visited; another vertex is visited exactly
    # when some predecessor forwards the walk into it
    vpos = {v: vi for vi, v in enumerate(inst.positions)}
    in_arcs: list[list[tuple[int, int]]] = [[] for _ in inst.positions]
    for a in d.arcs:
        in_arcs[vpos[a.head]].append((vpos[a.tail], a.label))
    root = vpos[d.source]
    for ti, (a_t, b_t) in enumerate(zip(alpha, beta)):
        rows.append(LinRow(f"rt_src_t{ti}", ((1, a_t[root]),), "=", 1))
        for vi, arcs_in in enumerate(in_arcs):
            if vi == root:
                continue
            ub_terms = ((1, a_t[vi]),) + tuple((-1, b_t[ui][lb]) for ui, lb in arcs_in)
            rows.append(LinRow(f"rt_ub_t{ti}_v{vi}", ub_terms, "<=", 0))
            for ui, lb in arcs_in:
                rows.append(
                    LinRow(
                        f"rt_lb_t{ti}_v{vi}_u{ui}_l{lb}",
                        ((1, a_t[vi]), (-1, b_t[ui][lb])),
                        ">=",
                        0,
                    )
                )

    # linking rows: beta fires exactly when the vertex is visited and the
    # chosen candidate's indicator equals the label
    fires = [f.tolist() for f in inst.fires]  # per vertex, (candidates x types)
    for ti, (a_t, b_t) in enumerate(zip(alpha, beta)):
        for ui, pu in enumerate(p):
            ai = a_t[ui]
            for label in (0, 1):
                bi = b_t[ui][label]
                p_terms = tuple(
                    (-1, pi) for pi, col in zip(pu, fires[ui]) if col[ti] == label
                )
                rows.append(LinRow(f"ln_a_t{ti}_u{ui}_l{label}", ((1, bi), (-1, ai)), "<=", 0))
                rows.append(LinRow(f"ln_p_t{ti}_u{ui}_l{label}", ((1, bi),) + p_terms, "<=", 0))
                rows.append(
                    LinRow(
                        f"ln_lb_t{ti}_u{ui}_l{label}", ((1, bi), (-1, ai)) + p_terms, ">=", -1
                    )
                )

    # sink rows: gamma is the AND of reaching the sink and its method choice
    for ti, (a_t, g_t) in enumerate(zip(alpha, gamma)):
        for si, (g_ts, q_s) in enumerate(zip(g_t, q)):
            ai = a_t[n_u + si]
            for mi, (gi, qi) in enumerate(zip(g_ts, q_s)):
                rows.append(LinRow(f"sk_q_t{ti}_s{si}_m{mi}", ((1, gi), (-1, qi)), "<=", 0))
                rows.append(LinRow(f"sk_a_t{ti}_s{si}_m{mi}", ((1, gi), (-1, ai)), "<=", 0))
                rows.append(
                    LinRow(
                        f"sk_lb_t{ti}_s{si}_m{mi}", ((1, gi), (-1, qi), (-1, ai)), ">=", -1
                    )
                )

    # aggregation rows: z collects gamma over sinks
    for ti, (z_t, g_t) in enumerate(zip(z, gamma)):
        for mi, zi in enumerate(z_t):
            g_terms = tuple((-1, g_ts[mi]) for g_ts in g_t)
            rows.append(LinRow(f"ag_ub_t{ti}_m{mi}", ((1, zi),) + g_terms, "<=", 0))
            for si, g in enumerate(g_terms):
                rows.append(LinRow(f"ag_lb_t{ti}_s{si}_m{mi}", ((1, zi), g), ">=", 0))

    # per-setting side rows
    exprs = dict(zip(FIELDS, model.exprs))
    for name, field, sense, rhs in Goal(inst, model.setting).rows:
        rows.append(LinRow(name, exprs[field], sense, rhs))
    return rows


def reference_lp(model) -> str:
    """The model's LP text written row by row from ``reference_rows``.

    The reference for ``export_lp``, which renders each row block once per
    text shape: objective, rows, Binary section and End marker, each row
    wrapped by the encoder's own ``_wrap``/``_fmt_terms``.
    """
    names = model.names
    d = model.objective_divisor
    objective = model.objective if d is None else [(Fraction(c, d), i) for c, i in model.objective]
    out = [model.objective_sense]
    out += _wrap(" obj:", _fmt_terms(objective, names), "")
    out.append("Subject To")
    for row in reference_rows(model):
        tail = f"{row.sense} {_fmt_number(row.rhs)}"
        out += _wrap(f" {row.name}:", _fmt_terms(row.terms, names), tail)
    out.append("Binary")
    out += [f" {n}" for n in names]
    out.append("End")
    return "\n".join(out) + "\n"


def reference_compiled(model):
    """Integer (A, sense, rhs) built by looping over ``reference_rows``.

    The reference for ``model._compiled``; a fractional right-hand side is
    rounded down for ``<=`` and up for ``>=``.
    """
    data: list[int] = []
    indices: list[int] = []
    indptr = [0]
    senses, rhs = [], []
    for row in reference_rows(model):
        for coef, idx in row.terms:
            data.append(coef)
            indices.append(idx)
        indptr.append(len(data))
        senses.append(_SENSES[row.sense])
        rhs.append(floor(row.rhs) if row.sense == "<=" else ceil(row.rhs))
    a = sparse.csr_matrix(
        (np.array(data, dtype=np.int64), np.array(indices, dtype=np.int64), indptr),
        shape=(len(indptr) - 1, model.num_variables),
    )
    return a, np.array(senses, dtype=np.int8), np.array(rhs, dtype=np.int64)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240815)
