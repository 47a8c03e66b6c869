"""Exact native optimization over the assignment space.

``solve`` runs depth-first branch-and-bound over the pinned decision order
(internal vertices in topological order, then sinks). Routing during search
is bitset-vectorized: one Python int per vertex holds the reachability bit
of every examinee type, and weighted tallies decompose the weights into
bit-planes so a weighted sum costs one popcount per plane.

``brute_force`` is the ground-truth oracle: it enumerates every assignment
and scores it through the scalar evaluation path, sharing no routing code
with the search. ``verify`` independently re-checks any returned solution.

Ties between optimal assignments break toward the lexicographically smallest
vector of canonical candidate indices (internal vertices first, then sinks),
so repeated runs and both solvers agree on the exact same assignment.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Assignment, Metrics, Vertex, evaluate
from .problem import Goal, Instance

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_LIMIT = "limit-reached"

BRUTE_FORCE_CAP = 2_000_000


class EnumerationCapError(RuntimeError):
    """Raised when the brute-force space exceeds the configured cap."""


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    wall_time: float


@dataclass(frozen=True)
class Solution:
    """Result of one solve: status, the assignment (if any), and its scores."""

    setting: int
    status: str
    assignment: Assignment | None
    metrics: Metrics | None
    objective_value: int | Fraction | None
    best_bound: int | Fraction | None
    stats: SolveStats

    @property
    def gap(self) -> int | Fraction | None:
        if self.objective_value is None or self.best_bound is None:
            return None
        return abs(self.best_bound - self.objective_value)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    issues: tuple[str, ...]


def _mask_from_bool(col: np.ndarray) -> int:
    return int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")


class _Tables:
    """Per-instance bitset precomputation shared by bound and search."""

    def __init__(self, inst: Instance):
        self.inst = inst
        d = inst.diagram
        pop = inst.population
        n_t = len(pop.types)

        self.decision_order: tuple[Vertex, ...] = d.internals + d.sinks
        self.decision_pos = {v: k for k, v in enumerate(self.decision_order)}
        self.n_internal = len(d.internals)
        self.methods = pop.methods.methods
        self.costs = pop.methods.costs
        self.cost_order = sorted(range(len(self.methods)), key=lambda mi: self.costs[mi])
        self.full = (1 << n_t) - 1

        self.candidates = {u: inst.candidate_order(u) for u in d.internals}
        self.ones = {
            u: [_mask_from_bool(inst.indicator_column(c)) for c in self.candidates[u]]
            for u in d.internals
        }

        # branch order: candidates closest to the initial label first
        initial = inst.initial
        self.branch_order: dict[Vertex, list[int]] = {}
        for u in d.internals:
            base = initial.node_items[u]
            self.branch_order[u] = sorted(
                range(len(self.candidates[u])),
                key=lambda ci: (-len(self.candidates[u][ci] & base), tuple(sorted(self.candidates[u][ci]))),
            )
        self.sink_branch_order: dict[Vertex, list[int]] = {}
        for s in d.sinks:
            mi0 = pop.methods.index(initial.sink_methods[s])
            self.sink_branch_order[s] = [mi0] + [
                mi for mi in range(len(self.methods)) if mi != mi0
            ]

        # initial-label positions for the similarity objective
        self.match_choice: dict[Vertex, int | None] = {}
        for u in d.internals:
            base = initial.node_items[u]
            self.match_choice[u] = (
                self.candidates[u].index(base) if base in self.candidates[u] else None
            )
        for s in d.sinks:
            self.match_choice[s] = pop.methods.index(initial.sink_methods[s])

        self.y_masks = [0] * len(self.methods)
        self.yz_masks = [0] * len(self.methods)
        for ti, t in enumerate(pop.types):
            bit = 1 << ti
            for mi in range(len(self.methods)):
                if t.y[mi]:
                    self.y_masks[mi] |= bit
                    if t.z:
                        self.yz_masks[mi] |= bit

        weights = [t.weight for t in pop.types]
        top = max(weights, default=0)
        self.planes: list[tuple[int, int]] = []
        for k in range(top.bit_length()):
            mask = 0
            for ti, w in enumerate(weights):
                if (w >> k) & 1:
                    mask |= 1 << ti
            self.planes.append((k, mask))

        self.topo = d.topo_order
        self.arc_heads = {
            u: (d.out_arc(u, 0).head, d.out_arc(u, 1).head) for u in d.internals
        }

    def wsum(self, mask: int) -> int:
        return sum((mask & pm).bit_count() << k for k, pm in self.planes)


def _partial_bounds(tb: _Tables, choices: Sequence[int]) -> Metrics:
    """Optimistic metrics of a choice prefix: cost from below, indicators
    from above; exact once every choice is fixed."""
    inst = tb.inst
    fixed = len(choices)

    # possible reach: fixed vertices split their types exactly, open vertices
    # forward every incoming type to both successors
    reach = {v: 0 for v in tb.topo}
    reach[inst.diagram.source] = tb.full
    for v in tb.topo:
        if v not in tb.arc_heads:
            continue
        r = reach[v]
        if not r:
            continue
        head0, head1 = tb.arc_heads[v]
        pos = tb.decision_pos[v]
        if pos < fixed:
            ones = tb.ones[v][choices[pos]]
            reach[head1] |= r & ones
            reach[head0] |= r & (tb.full ^ ones)
        else:
            reach[head1] |= r
            reach[head0] |= r

    # per-method attainability over sinks
    n_m = len(tb.methods)
    pm = [0] * n_m
    for s in inst.diagram.sinks:
        pos = tb.decision_pos[s]
        if pos < fixed:
            pm[choices[pos]] |= reach[s]
        else:
            for mi in range(n_m):
                pm[mi] |= reach[s]

    # two admissible reaction bounds: every type independently takes its
    # best attainable method (tight once sinks are fixed), and every sink
    # serves its possible audience with its single best method (tight while
    # sinks are open); take the smaller
    got2 = 0
    got3 = 0
    for mi in range(n_m):
        got2 |= pm[mi] & tb.y_masks[mi]
        got3 |= pm[mi] & tb.yz_masks[mi]
    obj2_ub = tb.wsum(got2)
    obj3_ub = tb.wsum(got3)

    per_sink2 = 0
    per_sink3 = 0
    for s in inst.diagram.sinks:
        r = reach[s]
        if not r:
            continue
        pos = tb.decision_pos[s]
        if pos < fixed:
            mi = choices[pos]
            per_sink2 += tb.wsum(r & tb.y_masks[mi])
            per_sink3 += tb.wsum(r & tb.yz_masks[mi])
        else:
            per_sink2 += max(tb.wsum(r & tb.y_masks[mi]) for mi in range(n_m))
            per_sink3 += max(tb.wsum(r & tb.yz_masks[mi]) for mi in range(n_m))
    obj2_ub = min(obj2_ub, per_sink2)
    obj3_ub = min(obj3_ub, per_sink3)

    cost_lb = 0
    remaining = tb.full
    for mi in tb.cost_order:
        take = remaining & pm[mi]
        if take:
            cost_lb += tb.costs[mi] * tb.wsum(take)
            remaining ^= take
    # types with no reachable sink method cannot occur: every type reaches a sink

    obj1_ub = 0
    for k, v in enumerate(tb.decision_order):
        match = tb.match_choice[v]
        if k < fixed:
            obj1_ub += int(match is not None and choices[k] == match)
        else:
            obj1_ub += int(match is not None)

    return Metrics(cost=cost_lb, obj1=obj1_ub, obj2=obj2_ub, obj3=obj3_ub)


def bound(inst: Instance, choices: Sequence[int], setting: int) -> int | Fraction:
    """Admissible objective bound of a choice prefix.

    ``choices[k]`` is the canonical candidate index at the k-th decision
    vertex (for sinks, the method's position in the method universe). Upper
    bound for the maximization settings, lower cost bound for the
    minimization one; equals the exact objective when the prefix is complete.
    """
    goal = Goal(inst, setting)
    return goal.value(goal.score(_partial_bounds(_Tables(inst), choices)))


def _assignment_from_choices(tb: _Tables, choices: Sequence[int]) -> Assignment:
    node_items = {
        u: tb.candidates[u][choices[tb.decision_pos[u]]]
        for u in tb.inst.diagram.internals
    }
    sink_methods = {
        s: tb.methods[choices[tb.decision_pos[s]]] for s in tb.inst.diagram.sinks
    }
    return Assignment(node_items=node_items, sink_methods=sink_methods)


def assignment_choice_vector(inst: Instance, phi: Assignment) -> tuple[int, ...]:
    """Canonical candidate-index vector used for tie-breaking."""
    vec = [inst.candidate_order(u).index(phi.node_items[u]) for u in inst.diagram.internals]
    vec += [inst.population.methods.index(phi.sink_methods[s]) for s in inst.diagram.sinks]
    return tuple(vec)


class _Search:
    """Depth-first branch-and-bound that maximizes the goal's score."""

    def __init__(
        self,
        inst: Instance,
        goal: Goal,
        node_limit: int | None,
        time_limit: float | None,
    ):
        self.goal = goal
        self.feasible = goal.feasible
        self.score = goal.score
        self.tb = _Tables(inst)
        self.node_limit = node_limit
        self.deadline = None if time_limit is None else time.perf_counter() + time_limit

        self.nodes = 0
        self.aborted = False
        self.inc_obj: int | None = None
        self.inc_vec: tuple[int, ...] | None = None
        self.open_bound: int | None = None

        order = self.tb.decision_order
        self.n_decisions = len(order)
        self.children: list[list[int]] = []
        for v in order:
            if v in self.tb.branch_order:
                self.children.append(self.tb.branch_order[v])
            else:
                self.children.append(self.tb.sink_branch_order[v])

    def _hit_limit(self) -> bool:
        if self.node_limit is not None and self.nodes >= self.node_limit:
            return True
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return True
        return False

    def _note_open(self, scaled: int) -> None:
        if self.open_bound is None or scaled > self.open_bound:
            self.open_bound = scaled

    def _prunable(self, scaled: int, choices: tuple[int, ...]) -> bool:
        if self.inc_obj is None or scaled > self.inc_obj:
            return False
        if scaled == self.inc_obj:
            # an equal-bound subtree can only matter through the tie-break
            pad = choices + (0,) * (self.n_decisions - len(choices))
            return pad >= self.inc_vec
        return True

    def run(self) -> None:
        self._dfs(())

    def _dfs(self, choices: tuple[int, ...]) -> None:
        if self.aborted:
            return
        self.nodes += 1
        m = _partial_bounds(self.tb, choices)
        if not self.feasible(m):
            return
        scaled = self.score(m)
        if self._hit_limit():
            self.aborted = True
            self._note_open(scaled)
            return
        if self._prunable(scaled, choices):
            return

        k = len(choices)
        if k == self.n_decisions:
            if (
                self.inc_obj is None
                or scaled > self.inc_obj
                or (scaled == self.inc_obj and choices < self.inc_vec)
            ):
                self.inc_obj = scaled
                self.inc_vec = choices
            return

        for ci in self.children[k]:
            self._dfs(choices + (ci,))
            if self.aborted:
                self._note_open(scaled)
                return


def solve(
    inst: Instance,
    setting: int,
    node_limit: int | None = None,
    time_limit: float | None = None,
) -> Solution:
    """Branch-and-bound to proven optimality (or the best incumbent at a limit)."""
    goal = Goal(inst, setting)
    started = time.perf_counter()
    search = _Search(inst, goal, node_limit, time_limit)
    search.run()
    wall = time.perf_counter() - started
    stats = SolveStats(nodes=search.nodes, wall_time=wall)
    return _solution_from_search(inst, setting, search, stats)


def _solution_from_search(
    inst: Instance, setting: int, search: _Search, stats: SolveStats
) -> Solution:
    value = search.goal.value
    if search.inc_vec is None:
        if search.aborted:
            return Solution(
                setting=setting,
                status=STATUS_LIMIT,
                assignment=None,
                metrics=None,
                objective_value=None,
                best_bound=None if search.open_bound is None else value(search.open_bound),
                stats=stats,
            )
        return Solution(
            setting=setting,
            status=STATUS_INFEASIBLE,
            assignment=None,
            metrics=None,
            objective_value=None,
            best_bound=None,
            stats=stats,
        )

    phi = _assignment_from_choices(search.tb, search.inc_vec)
    metrics = evaluate(inst.diagram, phi, inst.initial, inst.population)
    objective = value(search.inc_obj)
    if search.aborted:
        best = search.inc_obj
        if search.open_bound is not None:
            best = max(best, search.open_bound)
        return Solution(
            setting=setting,
            status=STATUS_LIMIT,
            assignment=phi,
            metrics=metrics,
            objective_value=objective,
            best_bound=value(best),
            stats=stats,
        )
    return Solution(
        setting=setting,
        status=STATUS_OPTIMAL,
        assignment=phi,
        metrics=metrics,
        objective_value=objective,
        best_bound=objective,
        stats=stats,
    )


def brute_force(inst: Instance, setting: int, cap: int = BRUTE_FORCE_CAP) -> Solution:
    """Exhaustive oracle: score every assignment through the scalar evaluator."""
    goal = Goal(inst, setting)
    feasible, score = goal.feasible, goal.score
    d = inst.diagram
    space = 1
    for u in d.internals:
        space *= len(inst.families[u])
    space *= len(inst.population.methods) ** len(d.sinks)
    if space > cap:
        raise EnumerationCapError(f"{space} assignments exceed the cap of {cap}")

    started = time.perf_counter()
    orders = [inst.candidate_order(u) for u in d.internals]
    methods = inst.population.methods.methods

    best_score: int | None = None
    best_phi: Assignment | None = None
    best_metrics: Metrics | None = None
    count = 0
    ranges = [range(len(o)) for o in orders] + [range(len(methods))] * len(d.sinks)
    for combo in itertools.product(*ranges):
        count += 1
        node_items = {u: orders[i][combo[i]] for i, u in enumerate(d.internals)}
        sink_methods = {
            s: methods[combo[len(orders) + j]] for j, s in enumerate(d.sinks)
        }
        phi = Assignment(node_items=node_items, sink_methods=sink_methods)
        m = evaluate(d, phi, inst.initial, inst.population)
        if not feasible(m):
            continue
        scaled = score(m)
        if best_score is None or scaled > best_score:
            best_score, best_phi, best_metrics = scaled, phi, m

    wall = time.perf_counter() - started
    stats = SolveStats(nodes=count, wall_time=wall)
    if best_phi is None:
        return Solution(
            setting=setting,
            status=STATUS_INFEASIBLE,
            assignment=None,
            metrics=None,
            objective_value=None,
            best_bound=None,
            stats=stats,
        )
    best_obj = goal.value(best_score)
    return Solution(
        setting=setting,
        status=STATUS_OPTIMAL,
        assignment=best_phi,
        metrics=best_metrics,
        objective_value=best_obj,
        best_bound=best_obj,
        stats=stats,
    )


def verify(sol: Solution, inst: Instance, setting: int) -> VerificationReport:
    """Re-derive everything the solution claims and flag each mismatch."""
    goal = Goal(inst, setting)
    issues: list[str] = []
    if sol.setting != setting:
        issues.append(f"solution is for setting {sol.setting}, not {setting}")
    if sol.assignment is None:
        if sol.status == STATUS_OPTIMAL:
            issues.append("optimal status without an assignment")
        return VerificationReport(ok=not issues, issues=tuple(issues))

    phi = sol.assignment
    if not phi.covers(inst.diagram):
        issues.append("assignment does not cover the diagram")
        return VerificationReport(ok=False, issues=tuple(issues))
    for u in inst.diagram.internals:
        if phi.node_items[u] not in inst.families[u]:
            issues.append(f"candidate/constraint violation: label at {u} not permitted")
    for s in inst.diagram.sinks:
        if phi.sink_methods[s] not in inst.population.methods:
            issues.append(f"candidate/constraint violation: unknown method at {s}")
    if issues:
        return VerificationReport(ok=False, issues=tuple(issues))

    m = evaluate(inst.diagram, phi, inst.initial, inst.population)
    if sol.metrics is not None and m != sol.metrics:
        issues.append(f"metrics mismatch: recomputed {m}, reported {sol.metrics}")
    if not goal.feasible(m):
        issues.append("candidate/constraint violation: setting side constraints fail")
    recomputed = goal.value(goal.score(m))
    if sol.objective_value is not None and recomputed != sol.objective_value:
        issues.append(
            f"objective mismatch: recomputed {recomputed}, reported {sol.objective_value}"
        )
    return VerificationReport(ok=not issues, issues=tuple(issues))
