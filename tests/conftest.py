"""Shared builders for the test suite."""
from __future__ import annotations

import itertools
import json
import operator
import random
from collections.abc import Iterable, Iterator
from dataclasses import asdict, replace
from fractions import Fraction
from math import ceil, floor, inf, nextafter

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
    InputError,
    ItemUniverse,
    Metrics,
    MethodUniverse,
    Population,
    evaluate,
    reached_sinks,
)
from diagopt.datagen import (
    PREDICATE_OPS,
    AttributeSpec,
    Categorical,
    GenConfig,
    Predicate,
    ThresholdTable,
    TruncatedNormal,
    sample_response,
)
from diagopt.encoder import _LINE_WIDTH, _SENSES, Instance, LinRow, _fmt_number
from diagopt.fileio import dump_canonical
from diagopt.problem import FIELDS, Goal
from diagopt.solver import Solution, SolveStats, _frontier, _Search, _solution, _Tables


# one examinee type as (id, weight, x, y, z), x and y 0/1 over the universes
TypeRow = tuple[int, int, tuple[int, ...], tuple[int, ...], int]


def population_from_rows(
    items: ItemUniverse, methods: MethodUniverse, rows: Iterable[TypeRow]
) -> Population:
    """The population whose types are ``rows``, in order, as checked columns."""
    rows = list(rows)
    ids, weights, x, y, z = zip(*rows) if rows else ((),) * 5
    return Population(
        items=items,
        methods=methods,
        ids=np.array(ids, dtype=np.int64),
        weights=np.array(weights, dtype=np.int64),
        x=np.array(x, dtype=bool).reshape(len(rows), len(items)),
        y=np.array(y, dtype=bool).reshape(len(rows), len(methods)),
        z=np.array(z, dtype=bool),
    )


def make_type(
    tid: int,
    weight: int,
    positive_items: set[int],
    positive_methods: set[int],
    z: int,
    items: ItemUniverse,
    methods: MethodUniverse,
) -> TypeRow:
    return (
        tid,
        weight,
        tuple(int(i in positive_items) for i in items.items),
        tuple(int(m in positive_methods) for m in methods.methods),
        z,
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
    pop = population_from_rows(items, methods, (
        make_type(i, w, positive[i], responds[i], improves[i], items, methods)
        for i, w in enumerate(weights)
    ))
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
    # each type draws its weight, x, y and z in turn
    types = [
        (
            i,
            rng.randint(1, 10**4 if heavy else 9),
            tuple(int(rng.random() < 0.5) for _ in range(n_items)),
            tuple(int(rng.random() < 0.5) for _ in range(n_methods)),
            int(rng.random() < 0.5),
        )
        for i in range(n_types)
    ]
    if heavy:
        wide = rng.randrange(n_types)
        types[wide] = (wide, rng.randint(2**16, 2**17), *types[wide][2:])
    pop = population_from_rows(items, methods, types)

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
    initial = Assignment(
        node_items=dict(inst.initial.node_items),
        sink_methods={s: first for s in inst.initial.sink_methods},
    )
    return replace(
        inst, population=replace(pop, methods=methods, y=pop.y[:, :1]), initial=initial
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


def population_doc(pop: Population) -> dict:
    """The population document of ``pop``, written here as the reference for
    ``fileio.write_population``, which renders ``dump_canonical`` of it."""
    items, methods = pop.items, pop.methods
    columns = (pop.ids.tolist(), pop.weights.tolist(), pop.x.tolist(), pop.y.tolist(), pop.z)
    return {
        "kind": "population",
        "items": list(items.items),
        "methods": [[m, c] for m, c in zip(methods.methods, methods.costs)],
        "types": [
            {
                "id": tid,
                "weight": weight,
                "x1": sorted(i for i, b in zip(items.items, x) if b),
                "y1": sorted(m for m, b in zip(methods.methods, y) if b),
                "z": int(z),
            }
            for tid, weight, x, y, z in zip(*columns)
        ],
    }


def sample_raw(specs: Iterable[AttributeSpec], rng: random.Random) -> dict[str, float]:
    """Draw one raw record, each attribute's value by name, in spec declaration order."""
    return {spec.name: spec.draw(rng) for spec in specs}


def evaluate_predicate(pred: Predicate, raw: dict[str, float]) -> int:
    """One predicate on one raw record, through its op's test on a scalar; a
    ``bit`` attribute that drew neither 0 nor 1 is an error."""
    v = raw[pred.attr]
    if pred.op == "bit" and not (v == 1 or v == 0):
        raise InputError(f"bit attribute {pred.attr!r} drew {v}, expected 0 or 1")
    return int(PREDICATE_OPS[pred.op][1](pred, v))


def binarize(raw: dict[str, float], tbl: ThresholdTable) -> tuple[int, ...]:
    """Evaluate every item predicate on one raw record, in table order."""
    return tuple(evaluate_predicate(pred, raw) for _, pred in tbl.entries)


def reference_population(cfg: GenConfig) -> Population:
    """``cfg``'s population drawn record by record: each record's raw values,
    then its item bits through the scalar ``binarize``, then its response;
    identical (X, Y, z) triples merge in first-occurrence order. The reference
    for ``datagen.generate_population``, which binarizes whole columns, so a
    bad bit is reported at the earliest record, before any later draw fails."""
    rng = random.Random(cfg.seed)
    weights: dict = {}
    for _ in range(cfg.n):
        raw = sample_raw(cfg.specs, rng)
        x = binarize(raw, cfg.thresholds)
        y, z = sample_response(cfg, rng)
        weights[x, y, z] = weights.get((x, y, z), 0) + 1
    rows = ((i, w, x, y, z) for i, ((x, y, z), w) in enumerate(weights.items()))
    return population_from_rows(ItemUniverse(cfg.thresholds.item_ids), cfg.methods, rows)


def every_op_genconfig(n: int, seed: int) -> GenConfig:
    """A config whose thresholds use every ``PREDICATE_OPS`` op, on values
    drawn exactly at each threshold and one ulp to either side, and on ints
    drawn from a value table; its item ids are not in sorted order."""
    near = [nextafter(t, d) for t in (6.0, 6.5) for d in (-inf, t, inf)]
    values = (0.0, *near, 9.0)
    specs = (
        Categorical.bernoulli("flag", 0.3),
        Categorical("level", tuple((v, 1 / len(values)) for v in values)),
        Categorical("count", ((1, 0.5), (2, 0.5))),
        TruncatedNormal("tn", 0.0, 1.0, 0.5, 0.3),
    )
    thresholds = ThresholdTable((
        (7, Predicate("bit", "flag")),
        (3, Predicate("ge", "level", 6.0)),
        (5, Predicate("lt", "level", 6.5)),
        (1, Predicate("eq", "level", 6.0)),
        (4, Predicate("band", "level", 6.0, 6.5)),
        (8, Predicate("eq", "count", 2.0)),
        (0, Predicate("ge", "tn", 0.5)),
        (6, Predicate("band", "tn", 0.25, 0.75)),
    ))
    return GenConfig(n=n, seed=seed, specs=specs, thresholds=thresholds)


def reference_metrics(d: Diagram, phi: Assignment, phi_in: Assignment, pop: Population) -> Metrics:
    """``phi``'s metrics summed type by type, each type paying and earning
    through its own sink's method: the reference for ``core.sink_totals``."""
    cost = obj2 = obj3 = 0
    types = zip(pop.weights.tolist(), pop.y.tolist(), pop.z.tolist())
    for (weight, y, z), s in zip(types, reached_sinks(d, phi, pop)):
        mi = pop.methods.index(phi.sink_methods[s])
        cost += pop.methods.costs[mi] * weight
        if y[mi]:
            obj2 += weight
            obj3 += weight * z
    obj1 = sum(phi.node_items[u] == phi_in.node_items[u] for u in d.internals)
    obj1 += sum(phi.sink_methods[s] == phi_in.sink_methods[s] for s in d.sinks)
    return Metrics(cost=cost, obj1=obj1, obj2=obj2, obj3=obj3)


def reference_brute_force(inst: Instance, setting: int) -> Solution:
    """Every assignment scored by its own ``evaluate`` call, the first strictly
    better score winning: the reference for ``solver.brute_force``, which
    walks once per internal choice vector."""
    goal = Goal(inst, setting)
    sizes = [len(labels) for labels in inst.choices]
    best_score = best_phi = None
    nodes = 0
    for vec in itertools.product(*map(range, sizes)):
        nodes += 1
        phi = inst.assignment(vec)
        m = evaluate(inst.diagram, phi, inst.initial, inst.population)
        if goal.feasible(m) and (best_score is None or goal.score(m) > best_score):
            best_score, best_phi = goal.score(m), phi
    return _solution(
        inst, setting, goal, best_phi, best_score, None, SolveStats(nodes=nodes, wall_time=0.0)
    )


def reach_state_optima(
    inst: Instance, settings: Iterable[int] = (1, 2, 3), batch: int = 1024
) -> dict[int, tuple[int, tuple[int, ...]] | None]:
    """Per setting, the best score and the smallest choice vector reaching
    it (``None`` when no assignment is feasible), by dynamic programming
    over reach states: the oracle for whole shipped families, which
    ``brute_force``'s cap rules out. It uses nothing from ``solver``.

    A state is one position per type and the count of deployed labels kept.
    Layer by layer over the internal positions, each state tries every
    candidate in canonical order, each type's test outcome taken from
    ``population.x`` over the candidate's items. Children with equal
    positions and matches merge, the first kept: states expand in
    lexicographic order, so it is the smallest prefix. Every leaf state is
    then scored against each sink-method vector in one numpy pass per
    vector, through ``Goal.ranges`` and ``Goal.signed_weights``.
    """
    d, pop = inst.diagram, inst.population
    n = len(d.internals)
    at = {v: k for k, v in enumerate(inst.positions)}
    head = {(at[a.tail], a.label): at[a.head] for a in d.arcs}
    column = {item: j for j, item in enumerate(pop.items.items)}
    # a state's positions are packed as bit planes over their offsets from
    # ``base``, the first position they can hold: after layer k, k + 1
    def planes(base: int) -> np.ndarray:
        return np.arange(max(1, (len(inst.positions) - 1 - base).bit_length()), dtype=np.uint8)

    def pack(block: np.ndarray, base: int) -> np.ndarray:
        bits = (block - base)[:, None, :] >> planes(base)[:, None] & 1 == 1
        return np.packbits(bits, axis=2).reshape(len(block), -1)

    def unpack(rows: np.ndarray, base: int) -> np.ndarray:
        p = planes(base)
        bits = np.unpackbits(rows.reshape(len(rows), len(p), -1), axis=2, count=len(pop))
        return (bits << p[:, None]).sum(axis=1, dtype=np.uint8) + np.uint8(base)

    prefixes: list[tuple[int, ...]] = [()]
    matches = [0]
    states = pack(np.full((1, len(pop)), at[d.source], dtype=np.uint8), 0)
    for k, labels in enumerate(inst.choices[:n]):
        to = [
            np.where(pop.x[:, [column[i] for i in c]].any(axis=1), head[k, 1], head[k, 0])
            for c in labels
        ]
        seen: set[tuple[bytes, int]] = set()
        next_prefixes, next_matches, keys = [], [], []
        for start in range(0, len(prefixes), batch):
            block = unpack(states[start : start + batch], k)
            here = block == k
            children = [pack(np.where(here, t, block).astype(np.uint8), k + 1) for t in to]
            for b, (prefix, m) in enumerate(zip(prefixes[start:], matches[start : start + batch])):
                for ci, child in enumerate(children):
                    key = (child[b].tobytes(), m + (ci == inst.deployed[k]))
                    if key not in seen:
                        seen.add(key)
                        next_prefixes.append(prefix + (ci,))
                        next_matches.append(key[1])
                        keys.append(key[0])
        prefixes, matches = next_prefixes, next_matches
        packed = np.frombuffer(b"".join(keys), dtype=np.uint8)
        states = packed.reshape(len(keys), len(planes(k + 1)) * -(-len(pop) // 8))

    # per leaf state and sink: its weight, and per method its responders'
    # and improvers' weights
    methods = pop.methods
    w = pop.weights
    wy, wyz = w[:, None] * pop.y, w[:, None] * (pop.y & pop.z[:, None])
    sinks = range(len(d.sinks))
    weight = np.zeros((len(prefixes), len(sinks)), dtype=np.int64)
    resp = np.zeros((len(prefixes), len(sinks), len(methods)), dtype=np.int64)
    impr = np.zeros_like(resp)
    for start in range(0, len(prefixes), batch):
        block = unpack(states[start : start + batch], n)
        for s in sinks:
            there = (block == n + s).astype(np.int64)
            weight[start : start + batch, s] = there @ w
            resp[start : start + batch, s] = there @ wy
            impr[start : start + batch, s] = there @ wyz
    matches = np.array(matches, dtype=np.int64)

    vectors = list(itertools.product(range(len(methods)), repeat=len(sinks)))
    optima = {}
    for setting in settings:
        goal = Goal(inst, setting)
        top = (max(methods.costs) + 1) * pop.total_weight + len(d.vertices)
        assert sum(map(abs, goal.signed_weights)) * top < 2**62  # no int64 overflow
        low = np.iinfo(np.int64).min
        scores = np.full((len(prefixes), len(vectors)), low, dtype=np.int64)
        for j, vec in enumerate(vectors):
            fields = (
                sum(weight[:, s] * methods.costs[mi] for s, mi in enumerate(vec)),
                matches + sum(map(operator.eq, vec, inst.deployed[n:])),
                sum(resp[:, s, mi] for s, mi in enumerate(vec)),
                sum(impr[:, s, mi] for s, mi in enumerate(vec)),
            )
            ok = np.ones(len(prefixes), dtype=bool)
            score = np.zeros(len(prefixes), dtype=np.int64)
            for f, (lo, hi), wf in zip(fields, goal.ranges, goal.signed_weights):
                f = np.broadcast_to(f, (len(prefixes),))
                ok &= (lo <= f) & (f <= hi)
                score += wf * f
            scores[ok, j] = score[ok]
        # the first maximum in row-major order: the smallest prefix, then vector
        best = int(np.argmax(scores))
        state, j = divmod(best, len(vectors))
        if scores[state, j] == low:
            optima[setting] = None
        else:
            optima[setting] = (int(scores[state, j]), prefixes[state] + vectors[j])
    return optima


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
    does), ``("sibling", prefix, cutter)`` with the sibling whose split cut
    it (see ``_Search._sibling``), or ``("bound", prefix,
    inc_obj, inc_vec)`` with the incumbent when the node bound cut it
    (``None`` twice when there was none). ``kept`` maps each prefix the
    bound kept to its threshold and the live set it passed on, ``every``
    included."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cuts: list[tuple] = []
        self.kept: dict[tuple[int, ...], tuple] = {}

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

    def _sibling(self, prefix, ci, low):
        super()._sibling(prefix, ci, low)
        self.cuts.append(("sibling", prefix + (ci,), prefix + (low,)))

    def _promising(self, prefix, frontier, matches, live):
        below = self._below(prefix)
        live = super()._promising(prefix, frontier, matches, live)
        if live is None:
            self.cuts.append(("bound", prefix, self.inc_obj, self.inc_vec))
        else:
            self.kept[prefix] = (below, live)
        return live


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


def _fmt_terms(terms, names) -> Iterator[str]:
    """Tokens of a linear expression: sign, optional magnitude, variable name."""
    if not terms:
        yield f"0 {names[0]}"
        return
    for k, (coef, idx) in enumerate(terms):
        neg = coef < 0
        mag = -coef if neg else coef
        if k == 0:
            sign = "- " if neg else ""
        else:
            sign = "- " if neg else "+ "
        if mag == 1:
            yield f"{sign}{names[idx]}"
        else:
            yield f"{sign}{_fmt_number(mag)} {names[idx]}"


def _wrap(prefix: str, tokens: Iterator[str], tail: str) -> list[str]:
    """Lines of one row: each token joins the line unless it would pass
    ``_LINE_WIDTH`` and the line already holds one."""
    lines: list[str] = []
    current = prefix
    for tok in tokens:
        if len(current) + 1 + len(tok) > _LINE_WIDTH and current != prefix:
            lines.append(current)
            current = " " + tok
        else:
            current += " " + tok
    if tail:
        current += " " + tail
    lines.append(current)
    return lines


def reference_lp(model) -> str:
    """The model's LP text written row by row from ``reference_rows``.

    The reference for ``export_lp``, which renders each row block once per
    text shape from token tables: objective, rows, Binary section and End
    marker, each row formatted term by term (``_fmt_terms``) and wrapped
    token by token (``_wrap``), sharing no rendering code with the encoder.
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
