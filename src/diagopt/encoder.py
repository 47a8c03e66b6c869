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
from math import gcd
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

from .core import Assignment, InputError, ItemSet, Metrics, Vertex
from .problem import FIELDS, SETTINGS, Goal, Instance

Term = tuple[int | Fraction, int]

_LINE_WIDTH = 72


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


def expr_value(terms: Sequence[Term], values: np.ndarray) -> int | Fraction:
    """Exact value of a linear expression at a 0/1 point."""
    total: int | Fraction = 0
    for coef, idx in terms:
        if values[idx]:
            total += coef
    return total


class IPModel:
    """Immutable binary program for one instance and setting.

    Holds the pinned variable registry, the constraint rows in family order,
    the objective, and the linear expressions for cost and the three
    indicators. Safe to share read-only.
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
        self.vertex_order: tuple[Vertex, ...] = d.internals + d.sinks
        self.methods = pop.methods.methods
        self.n_types = len(pop.types)

        for u in self.internals:
            if instance.initial.node_items[u] not in instance.families[u]:
                raise BuildError(
                    f"initial assignment infeasible: label at {u} is not a candidate"
                )

        self._build_registry()
        self._build_expressions()
        self._build_rows(goal)
        self._build_objective(goal)

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------

    def _build_registry(self) -> None:
        inst = self.instance
        names: list[str] = []

        self.p_index: dict[Vertex, dict[ItemSet, int]] = {}
        for ui, u in enumerate(self.internals):
            block: dict[ItemSet, int] = {}
            for ci, c in enumerate(inst.candidate_order(u)):
                block[c] = len(names)
                names.append(f"p_u{ui}_c{ci}")
            self.p_index[u] = block

        self.q_index: dict[Vertex, dict[int, int]] = {}
        for si, s in enumerate(self.sinks):
            block = {}
            for mi, m in enumerate(self.methods):
                block[m] = len(names)
                names.append(f"q_s{si}_m{mi}")
            self.q_index[s] = block

        n_v = len(self.vertex_order)
        n_u = len(self.internals)
        n_s = len(self.sinks)
        n_m = len(self.methods)

        self._alpha0 = len(names)
        for ti in range(self.n_types):
            for vi in range(n_v):
                names.append(f"a_t{ti}_v{vi}")
        self._beta0 = len(names)
        for ti in range(self.n_types):
            for ui in range(n_u):
                for label in (0, 1):
                    names.append(f"b_t{ti}_u{ui}_l{label}")
        self._gamma0 = len(names)
        for ti in range(self.n_types):
            for si in range(n_s):
                for mi in range(n_m):
                    names.append(f"g_t{ti}_s{si}_m{mi}")
        self._z0 = len(names)
        for ti in range(self.n_types):
            for mi in range(n_m):
                names.append(f"z_t{ti}_m{mi}")

        self.names: tuple[str, ...] = tuple(names)
        self._vpos = {v: i for i, v in enumerate(self.vertex_order)}
        self._upos = {u: i for i, u in enumerate(self.internals)}
        self._spos = {s: i for i, s in enumerate(self.sinks)}
        self._mpos = {m: i for i, m in enumerate(self.methods)}

    @cached_property
    def name_index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.names)}

    def alpha_idx(self, ti: int, v: Vertex) -> int:
        return self._alpha0 + ti * len(self.vertex_order) + self._vpos[v]

    def beta_idx(self, ti: int, u: Vertex, label: int) -> int:
        return self._beta0 + (ti * len(self.internals) + self._upos[u]) * 2 + label

    def gamma_idx(self, ti: int, s: Vertex, m: int) -> int:
        n_m = len(self.methods)
        return self._gamma0 + (ti * len(self.sinks) + self._spos[s]) * n_m + self._mpos[m]

    def z_idx(self, ti: int, m: int) -> int:
        return self._z0 + ti * len(self.methods) + self._mpos[m]

    @property
    def num_variables(self) -> int:
        return len(self.names)

    @property
    def variable_counts(self) -> dict[str, int]:
        n_t, n_m, n_s = self.n_types, len(self.methods), len(self.sinks)
        return {
            "p": sum(len(b) for b in self.p_index.values()),
            "q": n_s * n_m,
            "alpha": n_t * len(self.vertex_order),
            "beta": 2 * n_t * len(self.internals),
            "gamma": n_t * n_s * n_m,
            "z": n_t * n_m,
        }

    # ------------------------------------------------------------------
    # expressions and rows
    # ------------------------------------------------------------------

    def _build_expressions(self) -> None:
        inst = self.instance
        pop = inst.population

        cost_terms: list[Term] = []
        obj2_terms: list[Term] = []
        obj3_terms: list[Term] = []
        for ti, t in enumerate(pop.types):
            for mi, m in enumerate(self.methods):
                zi = self.z_idx(ti, m)
                c = pop.methods.costs[mi]
                if c:
                    cost_terms.append((c * t.weight, zi))
                if t.y[mi]:
                    obj2_terms.append((t.weight, zi))
                    if t.z:
                        obj3_terms.append((t.weight, zi))

        obj1_terms: list[Term] = [
            (1, self.p_index[u][inst.initial.node_items[u]]) for u in self.internals
        ]
        obj1_terms += [
            (1, self.q_index[s][inst.initial.sink_methods[s]]) for s in self.sinks
        ]

        self.cost_expr: tuple[Term, ...] = tuple(cost_terms)
        self.obj_exprs: tuple[tuple[Term, ...], ...] = (
            tuple(obj1_terms),
            tuple(obj2_terms),
            tuple(obj3_terms),
        )

    def _partition_one_indices(self, u: Vertex) -> np.ndarray:
        """Boolean (n_candidates x |T|) matrix of candidate indicator outcomes."""
        inst = self.instance
        cols = [inst.indicator_column(c) for c in inst.candidate_order(u)]
        return np.stack(cols) if cols else np.zeros((0, self.n_types), dtype=bool)

    def _build_rows(self, goal: Goal) -> None:
        inst = self.instance
        d = inst.diagram
        rows: list[LinRow] = []

        # assignment rows: one candidate per vertex, one method per sink
        for ui, u in enumerate(self.internals):
            terms = tuple((1, idx) for idx in self.p_index[u].values())
            rows.append(LinRow(f"asg_u{ui}", terms, "=", 1))
        for si, s in enumerate(self.sinks):
            terms = tuple((1, idx) for idx in self.q_index[s].values())
            rows.append(LinRow(f"asg_s{si}", terms, "=", 1))

        # routing rows: the source is always visited; any other vertex is
        # visited exactly when some predecessor forwards the walk into it
        in_arcs: dict[Vertex, list[tuple[Vertex, int]]] = {v: [] for v in self.vertex_order}
        for a in d.arcs:
            in_arcs[a.head].append((a.tail, a.label))
        root = d.source
        for ti in range(self.n_types):
            rows.append(LinRow(f"rt_src_t{ti}", ((1, self.alpha_idx(ti, root)),), "=", 1))
            for v in self.vertex_order:
                if v == root:
                    continue
                vi = self._vpos[v]
                ai = self.alpha_idx(ti, v)
                ub_terms: list[Term] = [(1, ai)]
                ub_terms += [(-1, self.beta_idx(ti, w, lb)) for w, lb in in_arcs[v]]
                rows.append(LinRow(f"rt_ub_t{ti}_v{vi}", tuple(ub_terms), "<=", 0))
                for w, lb in in_arcs[v]:
                    rows.append(
                        LinRow(
                            f"rt_lb_t{ti}_v{vi}_u{self._upos[w]}_l{lb}",
                            ((1, ai), (-1, self.beta_idx(ti, w, lb))),
                            ">=",
                            0,
                        )
                    )

        # linking rows: beta fires exactly when the vertex is visited and the
        # chosen candidate's indicator equals the label
        part_one = {u: self._partition_one_indices(u) for u in self.internals}
        p_cols = {u: list(self.p_index[u].values()) for u in self.internals}
        for ti in range(self.n_types):
            for u in self.internals:
                ui = self._upos[u]
                ai = self.alpha_idx(ti, u)
                ones = part_one[u][:, ti]
                for label in (0, 1):
                    bi = self.beta_idx(ti, u, label)
                    member = np.nonzero(ones if label else ~ones)[0]
                    p_terms = tuple((-1, p_cols[u][k]) for k in member)
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
        for ti in range(self.n_types):
            for s in self.sinks:
                si = self._spos[s]
                ai = self.alpha_idx(ti, s)
                for m in self.methods:
                    mi = self._mpos[m]
                    gi = self.gamma_idx(ti, s, m)
                    qi = self.q_index[s][m]
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
        for ti in range(self.n_types):
            for m in self.methods:
                mi = self._mpos[m]
                zi = self.z_idx(ti, m)
                g_terms = tuple((-1, self.gamma_idx(ti, s, m)) for s in self.sinks)
                rows.append(LinRow(f"ag_ub_t{ti}_m{mi}", ((1, zi),) + g_terms, "<=", 0))
                for s in self.sinks:
                    si = self._spos[s]
                    rows.append(
                        LinRow(
                            f"ag_lb_t{ti}_s{si}_m{mi}",
                            ((1, zi), (-1, self.gamma_idx(ti, s, m))),
                            ">=",
                            0,
                        )
                    )

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
        d = goal.divisor
        self.objective_sense = goal.sense
        self.objective: tuple[Term, ...] = tuple(
            (coef if d is None else Fraction(coef, d), idx)
            for idx, coef in sorted(merged.items())
            if coef
        )

    @property
    def num_constraints(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # evaluation at points
    # ------------------------------------------------------------------

    @cached_property
    def _compiled(self) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Integer-scaled (A, sense, rhs) for exact vectorized row checking."""
        data: list[int] = []
        indices: list[int] = []
        indptr = [0]
        senses = np.zeros(len(self.rows), dtype=np.int8)
        rhs = np.zeros(len(self.rows), dtype=np.int64)
        for ri, row in enumerate(self.rows):
            scale = 1
            for coef, _ in row.terms:
                if isinstance(coef, Fraction):
                    scale = scale * coef.denominator // gcd(scale, coef.denominator)
            if isinstance(row.rhs, Fraction):
                scale = scale * row.rhs.denominator // gcd(scale, row.rhs.denominator)
            for coef, idx in row.terms:
                data.append(int(coef * scale))
                indices.append(idx)
            indptr.append(len(data))
            senses[ri] = {"<=": -1, "=": 0, ">=": 1}[row.sense]
            rhs[ri] = int(row.rhs * scale)
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

    def satisfies(self, point: "VariablePoint") -> bool:
        return not self.violations(point)

    def metrics_at(self, point: "VariablePoint") -> Metrics:
        """Cost and objective expressions evaluated at the point."""
        return Metrics(
            cost=int(expr_value(self.cost_expr, point.values)),
            obj1=int(expr_value(self.obj_exprs[0], point.values)),
            obj2=int(expr_value(self.obj_exprs[1], point.values)),
            obj3=int(expr_value(self.obj_exprs[2], point.values)),
        )

    def objective_value(self, point: "VariablePoint") -> int | Fraction:
        return expr_value(self.objective, point.values)


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
    """Encode the instance for one setting; rejects infeasible initial labels."""
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
    for u in model.internals:
        x[model.p_index[u][phi.node_items[u]]] = 1
    for s in model.sinks:
        x[model.q_index[s][phi.sink_methods[s]]] = 1

    n_t = model.n_types
    reach: dict[Vertex, np.ndarray] = {v: np.zeros(n_t, dtype=bool) for v in d.vertices}
    reach[d.source] = np.ones(n_t, dtype=bool)
    for u in d.topo_order:
        if u not in phi.node_items:
            continue
        ones = inst.indicator_column(phi.node_items[u])
        reach[d.out_arc(u, 1).head] |= reach[u] & ones
        reach[d.out_arc(u, 0).head] |= reach[u] & ~ones

    t_stride = np.arange(n_t)
    n_v = len(model.vertex_order)
    for v in model.vertex_order:
        idx = model.alpha_idx(0, v) + n_v * t_stride
        x[idx] = reach[v]
    n_u = len(model.internals)
    for u in model.internals:
        ones = inst.indicator_column(phi.node_items[u])
        for label in (0, 1):
            idx = model.beta_idx(0, u, label) + 2 * n_u * t_stride
            x[idx] = reach[u] & (ones if label else ~ones)
    n_s, n_m = len(model.sinks), len(model.methods)
    for s in model.sinks:
        idx = model.gamma_idx(0, s, phi.sink_methods[s]) + n_s * n_m * t_stride
        x[idx] = reach[s]
    for m in model.methods:
        got = np.zeros(n_t, dtype=bool)
        for s in model.sinks:
            if phi.sink_methods[s] == m:
                got |= reach[s]
        idx = model.z_idx(0, m) + n_m * t_stride
        x[idx] = got

    x.setflags(write=False)
    return VariablePoint(model=model, values=x)


def decode(model: IPModel, point: VariablePoint) -> Assignment:
    """Read the assignment back from the p/q blocks of a point."""
    node_items: dict[Vertex, ItemSet] = {}
    for u in model.internals:
        chosen = [c for c, idx in model.p_index[u].items() if point.values[idx]]
        if len(chosen) != 1:
            raise DecodeError(f"vertex {u}: {len(chosen)} candidates selected, expected 1")
        node_items[u] = chosen[0]
    sink_methods: dict[Vertex, int] = {}
    for s in model.sinks:
        chosen_m = [m for m, idx in model.q_index[s].items() if point.values[idx]]
        if len(chosen_m) != 1:
            raise DecodeError(f"sink {s}: {len(chosen_m)} methods selected, expected 1")
        sink_methods[s] = chosen_m[0]
    return Assignment(node_items=node_items, sink_methods=sink_methods)


# ----------------------------------------------------------------------
# LP text export
# ----------------------------------------------------------------------


def _fmt_number(x: int | Fraction) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(int(x))
        return repr(float(x))
    return str(x)


def _fmt_terms(terms: Sequence[Term], names: Sequence[str]) -> Iterator[str]:
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
    out: list[str] = [model.objective_sense]
    out += _wrap(" obj:", _fmt_terms(model.objective, names), "")
    out.append("Subject To")
    for row in model.rows:
        tail = f"{row.sense} {_fmt_number(row.rhs)}"
        out += _wrap(f" {row.name}:", _fmt_terms(row.terms, names), tail)
    out.append("Binary")
    out += [f" {n}" for n in names]
    out.append("End")
    return "\n".join(out) + "\n"
