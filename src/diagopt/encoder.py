"""Integer-program encoding of diagram assignments, and LP text export.

The binary program mirrors the assignment semantics exactly: p/q pick the
decoration, alpha tracks which vertices each examinee type passes through,
beta couples the walk to the 0/1 outcome of the chosen item set, gamma marks
(type, sink, method) incidence, and z aggregates the method each type ends
up with. Every feasible assignment induces exactly one satisfying point and
vice versa, which the test suite checks in both directions.

Rows and variable names are pinned and deterministic, so exporting the same
model twice yields byte-identical LP text.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import ceil, floor
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

from .core import Assignment, InputError, Vertex
from .problem import FIELDS, SETTINGS, Goal, Instance

Term = tuple[int, int]  # (coefficient, variable index)

_LINE_WIDTH = 72
_SENSES = {"<=": -1, "=": 0, ">=": 1}


class BuildError(ValueError):
    """Raised when an instance cannot be encoded."""


class DecodeError(ValueError):
    """Raised when a variable point does not describe a unique assignment."""


@dataclass(frozen=True)
class LinRow:
    """One linear constraint with all variables on the left-hand side."""

    name: str
    terms: tuple[Term, ...]
    sense: str  # "<=", ">=" or "="
    rhs: int | Fraction


class IPModel:
    """Immutable binary program for one instance and setting.

    The variable layout is decided once, in ``_build_layout``: each block is
    a numpy array of indices into ``names``, and the blocks follow one
    another, type-major, in this order:

    - ``p[ui][ci]``: internal vertex ``ui`` carries ``candidates[ui][ci]``
      (one array per internal vertex, in candidate order);
    - ``q[si, mi]``: sink ``si`` carries method ``methods[mi]``;
    - ``alpha[ti, vi]``: type ``ti`` visits ``vertex_order[vi]``
      (internals, then sinks, so ``vi == ui`` for an internal vertex);
    - ``beta[ti, ui, label]``: type ``ti`` leaves ``ui`` along its
      ``label`` arc;
    - ``gamma[ti, si, mi]``: type ``ti`` ends at sink ``si``, which carries
      ``methods[mi]``;
    - ``z[ti, mi]``: type ``ti`` ends up with ``methods[mi]``.

    ``choice_blocks`` holds one p or q array per decision position, indexed
    like ``Instance.choices``. The names, the rows, ``encode_assignment``,
    ``decode`` and ``variable_counts`` all read these arrays. The model also
    holds the constraint rows in family order, the objective (integer terms,
    divided exactly by ``objective_divisor`` unless it is ``None``), and the
    linear expressions for cost and the three indicators. Safe to share
    read-only.
    """

    def __init__(self, instance: Instance, setting: int):
        if setting not in SETTINGS:
            raise BuildError(f"unknown setting {setting}, expected 1, 2 or 3")
        self.instance = instance
        self.setting = setting
        goal = Goal(instance, setting)

        d = instance.diagram
        pop = instance.population
        self.internals = d.internals
        self.sinks = d.sinks
        self.vertex_order = instance.positions
        self.methods = pop.methods.methods
        self.n_types = len(pop.types)

        self._build_layout()
        self._build_expressions()
        self._build_rows(goal)
        self._build_objective(goal)

    # ------------------------------------------------------------------
    # variable layout
    # ------------------------------------------------------------------

    def _build_layout(self) -> None:
        names: list[str] = []

        def block(prefix: str, keys: str, shape: tuple[int, ...]) -> np.ndarray:
            """Name a block's variables in index order, e.g. ``a_t{ti}_v{vi}``."""
            start = len(names)
            fmt = prefix + "".join(f"_{k}{{}}" for k in keys)
            names.extend(fmt.format(*at) for at in product(*map(range, shape)))
            return np.arange(start, len(names)).reshape(shape)

        n_t, n_u, n_s, n_m = self.n_types, len(self.internals), len(self.sinks), len(self.methods)
        self.candidates = self.instance.choices[:n_u]
        self.p = [block(f"p_u{ui}", "c", (len(c),)) for ui, c in enumerate(self.candidates)]
        self.q = block("q", "sm", (n_s, n_m))
        self.choice_blocks: tuple[np.ndarray, ...] = (*self.p, *self.q)
        self.alpha = block("a", "tv", (n_t, n_u + n_s))
        self.beta = block("b", "tul", (n_t, n_u, 2))
        self.gamma = block("g", "tsm", (n_t, n_s, n_m))
        self.z = block("z", "tm", (n_t, n_m))
        self.names: tuple[str, ...] = tuple(names)

    @cached_property
    def name_index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.names)}

    @property
    def num_variables(self) -> int:
        return len(self.names)

    @property
    def variable_counts(self) -> dict[str, int]:
        sizes = {"p": sum(b.size for b in self.p)}
        for k in ("q", "alpha", "beta", "gamma", "z"):
            sizes[k] = getattr(self, k).size
        return sizes

    # ------------------------------------------------------------------
    # expressions and rows
    # ------------------------------------------------------------------

    def _build_expressions(self) -> None:
        inst = self.instance
        pop = inst.population
        z = self.z.tolist()

        cost_terms: list[Term] = []
        obj2_terms: list[Term] = []
        obj3_terms: list[Term] = []
        for ti, t in enumerate(pop.types):
            for mi, c in enumerate(pop.methods.costs):
                if c:
                    cost_terms.append((c * t.weight, z[ti][mi]))
                if t.y[mi]:
                    obj2_terms.append((t.weight, z[ti][mi]))
                    if t.z:
                        obj3_terms.append((t.weight, z[ti][mi]))

        obj1_terms = [(1, int(b[k])) for b, k in zip(self.choice_blocks, inst.deployed)]

        self.cost_expr: tuple[Term, ...] = tuple(cost_terms)
        self.obj_exprs: tuple[tuple[Term, ...], ...] = (
            tuple(obj1_terms),
            tuple(obj2_terms),
            tuple(obj3_terms),
        )

    def _build_rows(self, goal: Goal) -> None:
        inst = self.instance
        d = inst.diagram
        n_u = len(self.internals)
        p = [b.tolist() for b in self.p]
        q, alpha, beta, gamma, z = (
            b.tolist() for b in (self.q, self.alpha, self.beta, self.gamma, self.z)
        )
        rows: list[LinRow] = []

        # assignment rows: one candidate per vertex, one method per sink
        for ui, pu in enumerate(p):
            rows.append(LinRow(f"asg_u{ui}", tuple((1, i) for i in pu), "=", 1))
        for si, qs in enumerate(q):
            rows.append(LinRow(f"asg_s{si}", tuple((1, i) for i in qs), "=", 1))

        # routing rows: the source is always visited; any other vertex is
        # visited exactly when some predecessor forwards the walk into it
        # (ui, label) of each arc into a vertex: a tail is internal, and the
        # internals lead vertex_order, so a tail's vertex position is its ui
        vpos = {v: vi for vi, v in enumerate(self.vertex_order)}
        in_arcs: list[list[tuple[int, int]]] = [[] for _ in self.vertex_order]
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
        fires = [
            np.stack([inst.indicator_column(c) for c in cands], axis=1).tolist()
            for cands in self.candidates
        ]  # per vertex, (types x candidates)
        for ti, (a_t, b_t) in enumerate(zip(alpha, beta)):
            for ui, pu in enumerate(p):
                ai = a_t[ui]
                for label in (0, 1):
                    bi = b_t[ui][label]
                    p_terms = tuple((-1, pi) for pi, f in zip(pu, fires[ui][ti]) if f == label)
                    rows.append(
                        LinRow(f"ln_a_t{ti}_u{ui}_l{label}", ((1, bi), (-1, ai)), "<=", 0)
                    )
                    rows.append(
                        LinRow(f"ln_p_t{ti}_u{ui}_l{label}", ((1, bi),) + p_terms, "<=", 0)
                    )
                    rows.append(
                        LinRow(
                            f"ln_lb_t{ti}_u{ui}_l{label}",
                            ((1, bi), (-1, ai)) + p_terms,
                            ">=",
                            -1,
                        )
                    )

        # sink rows: gamma is the AND of reaching the sink and its method choice
        for ti, (a_t, g_t) in enumerate(zip(alpha, gamma)):
            for si, (g_ts, q_s) in enumerate(zip(g_t, q)):
                ai = a_t[n_u + si]
                for mi, (gi, qi) in enumerate(zip(g_ts, q_s)):
                    rows.append(
                        LinRow(f"sk_q_t{ti}_s{si}_m{mi}", ((1, gi), (-1, qi)), "<=", 0)
                    )
                    rows.append(
                        LinRow(f"sk_a_t{ti}_s{si}_m{mi}", ((1, gi), (-1, ai)), "<=", 0)
                    )
                    rows.append(
                        LinRow(
                            f"sk_lb_t{ti}_s{si}_m{mi}",
                            ((1, gi), (-1, qi), (-1, ai)),
                            ">=",
                            -1,
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
        exprs = dict(zip(FIELDS, (self.cost_expr,) + self.obj_exprs))
        for name, field, sense, rhs in goal.rows:
            rows.append(LinRow(name, exprs[field], sense, rhs))

        self.rows: tuple[LinRow, ...] = tuple(rows)

    def _build_objective(self, goal: Goal) -> None:
        merged: dict[int, int] = {}
        for expr, w in zip((self.cost_expr,) + self.obj_exprs, goal.weights):
            if not w:
                continue
            for coef, idx in expr:
                merged[idx] = merged.get(idx, 0) + coef * w
        self.objective_sense = goal.sense
        self.objective: tuple[Term, ...] = tuple(
            (coef, idx) for idx, coef in sorted(merged.items()) if coef
        )
        self.objective_divisor: int | None = goal.divisor

    @property
    def num_constraints(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # evaluation at points
    # ------------------------------------------------------------------

    @cached_property
    def _compiled(self) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Integer (A, sense, rhs) for exact vectorized row checking.

        Every coefficient is an integer, so a fractional right-hand side is
        rounded as :class:`Goal` rounds it, keeping the row's integer
        solutions: down for ``<=``, up for ``>=``.
        """
        data: list[int] = []
        indices: list[int] = []
        indptr = [0]
        for row in self.rows:
            for coef, idx in row.terms:
                data.append(coef)
                indices.append(idx)
            indptr.append(len(data))
        senses = np.array([_SENSES[row.sense] for row in self.rows], dtype=np.int8)
        rhs = np.array(
            [floor(row.rhs) if row.sense == "<=" else ceil(row.rhs) for row in self.rows],
            dtype=np.int64,
        )
        a = sparse.csr_matrix(
            (np.array(data, dtype=np.int64), np.array(indices, dtype=np.int64), indptr),
            shape=(len(self.rows), self.num_variables),
        )
        return a, senses, rhs

    def violations(self, point: "VariablePoint") -> tuple[str, ...]:
        """Names of every constraint row the point violates."""
        a, senses, rhs = self._compiled
        lhs = a @ point.values.astype(np.int64)
        bad = ((senses == -1) & (lhs > rhs)) | ((senses == 0) & (lhs != rhs)) | (
            (senses == 1) & (lhs < rhs)
        )
        return tuple(self.rows[i].name for i in np.nonzero(bad)[0])


@dataclass(frozen=True)
class VariablePoint:
    """A 0/1 valuation of every variable of one model."""

    model: IPModel
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.model.num_variables,):
            raise InputError("point length does not match the model")
        if not np.isin(self.values, (0, 1)).all():
            raise InputError("point values must be 0 or 1")

    def __getitem__(self, name: str) -> int:
        return int(self.values[self.model.name_index[name]])


def build_model(inst: Instance, setting: int) -> IPModel:
    """Encode the instance for one setting."""
    return IPModel(inst, setting)


def encode_assignment(model: IPModel, phi: Assignment) -> VariablePoint:
    """The variable point induced by a feasible assignment.

    p/q follow the decoration directly; the walk variables are derived by
    propagating per-type reachability from the source, vectorized over types.
    """
    inst = model.instance
    d = inst.diagram
    if not inst.is_feasible(phi):
        raise BuildError("assignment is not feasible for this instance")

    x = np.zeros(model.num_variables, dtype=np.int8)
    vec = inst.choice_vector(phi)
    for b, k in zip(model.choice_blocks, vec):
        x[b[k]] = 1

    n_t = model.n_types
    reach: dict[Vertex, np.ndarray] = {v: np.zeros(n_t, dtype=bool) for v in d.vertices}
    reach[d.source] = np.ones(n_t, dtype=bool)
    for u in d.topo_order:
        if u not in phi.node_items:
            continue
        ones = inst.indicator_column(phi.node_items[u])
        reach[d.out_arc(u, 1).head] |= reach[u] & ones
        reach[d.out_arc(u, 0).head] |= reach[u] & ~ones

    for vi, v in enumerate(model.vertex_order):
        x[model.alpha[:, vi]] = reach[v]
    for ui, u in enumerate(model.internals):
        ones = inst.indicator_column(phi.node_items[u])
        x[model.beta[:, ui, 1]] = reach[u] & ones
        x[model.beta[:, ui, 0]] = reach[u] & ~ones
    for si, (s, mi) in enumerate(zip(model.sinks, vec[len(model.internals) :])):
        x[model.gamma[:, si, mi]] = reach[s]
        x[model.z[:, mi]] |= reach[s]

    x.setflags(write=False)
    return VariablePoint(model=model, values=x)


def decode(model: IPModel, point: VariablePoint) -> Assignment:
    """Read the assignment back from the p/q blocks of a point."""
    vec: list[int] = []
    for v, block in zip(model.vertex_order, model.choice_blocks):
        hits = np.nonzero(point.values[block])[0]
        if len(hits) != 1:
            raise DecodeError(f"vertex {v}: {len(hits)} labels selected, expected 1")
        vec.append(int(hits[0]))
    return model.instance.assignment(vec)


# ----------------------------------------------------------------------
# LP text export
# ----------------------------------------------------------------------


def _fmt_number(x: int | Fraction) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(int(x))
        return repr(float(x))
    return str(x)


def _fmt_terms(terms: Sequence[tuple[int | Fraction, int]], names: Sequence[str]) -> Iterator[str]:
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


def export_lp(model: IPModel) -> str:
    """Serialize the model in CPLEX-style LP text.

    Objective first, then the constraint rows in family order, then a Binary
    section listing every variable, then the End marker. Output is a pure
    function of the model, so repeated exports are byte-identical.
    """
    names = model.names
    d = model.objective_divisor
    objective = model.objective if d is None else [(Fraction(c, d), i) for c, i in model.objective]
    out: list[str] = [model.objective_sense]
    out += _wrap(" obj:", _fmt_terms(objective, names), "")
    out.append("Subject To")
    for row in model.rows:
        tail = f"{row.sense} {_fmt_number(row.rhs)}"
        out += _wrap(f" {row.name}:", _fmt_terms(row.terms, names), tail)
    out.append("Binary")
    out += [f" {n}" for n in names]
    out.append("End")
    return "\n".join(out) + "\n"
