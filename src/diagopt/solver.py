"""Exact native optimization over the assignment space.

``solve`` runs depth-first branch-and-bound over ``Instance.positions``, the
pinned decision order (internal vertices in topological order, then sinks),
and branches on indices into ``Instance.choices``. Every per-vertex table
(indicator masks, successor positions, branch order) is a list indexed by
decision position, and every arc points to a later position, so bounding a
node is one forward pass over the positions.
Routing during search is bitset-vectorized: one Python int per position
holds the reachability bit of every examinee type, and weighted tallies
decompose the weights into bit-planes so a weighted sum costs one popcount
per plane.

``brute_force`` is the ground-truth oracle: it enumerates every assignment
and scores it through the scalar evaluation path, sharing no routing code
with the search. ``verify`` independently re-checks any returned solution.

Ties between optimal assignments break toward the lexicographically smallest
choice vector (one index into ``Instance.choices`` per position), so repeated
runs and both solvers agree on the exact same assignment.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Assignment, Metrics, evaluate
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
    """Per-instance bitset tables shared by bound and search.

    Every per-vertex table is a list indexed by decision position
    (``Instance.positions``). Every arc points to a later position, so
    reach propagates in one forward pass over the positions.
    """

    def __init__(self, inst: Instance):
        d = inst.diagram
        pop = inst.population
        pos = {v: k for k, v in enumerate(inst.positions)}
        self.n_positions = len(pos)
        self.source = pos[d.source]
        self.n_internal = n = len(d.internals)
        self.methods = pop.methods.methods
        self.costs = pop.methods.costs
        self.cost_order = sorted(range(len(self.methods)), key=lambda mi: self.costs[mi])
        self.full = (1 << len(pop.types)) - 1

        self.ones = [
            [_mask_from_bool(inst.indicator_column(c)) for c in cands]
            for cands in inst.choices[:n]
        ]
        self.heads = [
            (pos[d.out_arc(u, 0).head], pos[d.out_arc(u, 1).head]) for u in d.internals
        ]

        # the deployed choice per position, for the similarity objective, and
        # branch order: internal candidates closest to the deployed label
        # first (ties in canonical order), the deployed method first at sinks
        self.match = inst.deployed
        self.children: list[list[int]] = [
            sorted(range(len(cands)), key=lambda ci: -len(cands[ci] & cands[m]))
            for cands, m in zip(inst.choices[:n], self.match)
        ]
        self.children += [
            sorted(range(len(self.methods)), key=lambda mi: mi != m) for m in self.match[n:]
        ]

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

    def wsum(self, mask: int) -> int:
        return sum((mask & pm).bit_count() << k for k, pm in self.planes)


def _partial_bounds(tb: _Tables, choices: Sequence[int]) -> Metrics:
    """Optimistic metrics of a choice prefix: cost from below, indicators
    from above; exact once every choice is fixed."""
    fixed = len(choices)
    full = tb.full

    # possible reach: fixed vertices split their types exactly, open vertices
    # forward every incoming type to both successors
    reach = [0] * tb.n_positions
    reach[tb.source] = full
    for k, (h0, h1) in enumerate(tb.heads):
        r = reach[k]
        if not r:
            continue
        if k < fixed:
            ones = tb.ones[k][choices[k]]
            reach[h1] |= r & ones
            reach[h0] |= r & (full ^ ones)
        else:
            reach[h1] |= r
            reach[h0] |= r

    # per-method attainability over sinks, and the per-sink reaction bound:
    # every sink serves its possible audience with its single best method
    # (tight while sinks are open)
    n_m = len(tb.methods)
    pm = [0] * n_m
    per_sink2 = 0
    per_sink3 = 0
    for k in range(tb.n_internal, tb.n_positions):
        r = reach[k]
        if not r:
            continue
        if k < fixed:
            mi = choices[k]
            pm[mi] |= r
            per_sink2 += tb.wsum(r & tb.y_masks[mi])
            per_sink3 += tb.wsum(r & tb.yz_masks[mi])
        else:
            for mi in range(n_m):
                pm[mi] |= r
            per_sink2 += max(tb.wsum(r & tb.y_masks[mi]) for mi in range(n_m))
            per_sink3 += max(tb.wsum(r & tb.yz_masks[mi]) for mi in range(n_m))

    # the other reaction bound: every type independently takes its best
    # attainable method (tight once sinks are fixed); take the smaller
    got2 = 0
    got3 = 0
    for mi in range(n_m):
        got2 |= pm[mi] & tb.y_masks[mi]
        got3 |= pm[mi] & tb.yz_masks[mi]
    obj2_ub = min(tb.wsum(got2), per_sink2)
    obj3_ub = min(tb.wsum(got3), per_sink3)

    cost_lb = 0
    remaining = full
    for mi in tb.cost_order:
        take = remaining & pm[mi]
        if take:
            cost_lb += tb.costs[mi] * tb.wsum(take)
            remaining ^= take
    # types with no reachable sink method cannot occur: every type reaches a sink

    obj1_ub = sum(c == m for c, m in zip(choices, tb.match)) + tb.n_positions - fixed

    return Metrics(cost=cost_lb, obj1=obj1_ub, obj2=obj2_ub, obj3=obj3_ub)


def bound(inst: Instance, choices: Sequence[int], setting: int) -> int | Fraction:
    """Admissible objective bound of a choice prefix.

    ``choices[k]`` indexes ``inst.choices[k]``, the labels of the k-th
    decision position. Upper bound for the maximization settings, lower cost
    bound for the minimization one; equals the exact objective when the
    prefix is complete.
    """
    goal = Goal(inst, setting)
    return goal.value(goal.score(_partial_bounds(_Tables(inst), choices)))


class _Search:
    """Depth-first branch-and-bound that maximizes the goal's score."""

    def __init__(self, tb: _Tables, goal: Goal, node_limit: int | None, time_limit: float | None):
        self.feasible = goal.feasible
        self.score = goal.score
        self.tb = tb
        self.n_decisions = tb.n_positions
        self.node_limit = node_limit
        self.deadline = None if time_limit is None else time.perf_counter() + time_limit

        self.nodes = 0
        self.aborted = False
        self.inc_obj: int | None = None
        self.inc_vec: tuple[int, ...] | None = None
        self.open_bound: int | None = None

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

        for ci in self.tb.children[k]:
            self._dfs(choices + (ci,))
            if self.aborted:
                self._note_open(scaled)
                return


def _solution(
    inst: Instance,
    setting: int,
    goal: Goal,
    phi: Assignment | None,
    score: int | None,
    open_bound: int | None,
    stats: SolveStats,
) -> Solution:
    """The one way a solve ends: ``phi`` scores ``score`` (both ``None`` when
    nothing feasible was found), and ``open_bound`` is set when a limit left
    subtrees of that score unexplored."""
    if open_bound is not None:
        status = STATUS_LIMIT
    else:
        status = STATUS_INFEASIBLE if phi is None else STATUS_OPTIMAL
    scores = [s for s in (score, open_bound) if s is not None]
    d = inst.diagram
    return Solution(
        setting=setting,
        status=status,
        assignment=phi,
        metrics=None if phi is None else evaluate(d, phi, inst.initial, inst.population),
        objective_value=None if score is None else goal.value(score),
        best_bound=goal.value(max(scores)) if scores else None,
        stats=stats,
    )


def solve(
    inst: Instance,
    setting: int,
    node_limit: int | None = None,
    time_limit: float | None = None,
) -> Solution:
    """Branch-and-bound to proven optimality (or the best incumbent at a limit)."""
    goal = Goal(inst, setting)
    started = time.perf_counter()
    search = _Search(_Tables(inst), goal, node_limit, time_limit)
    search.run()
    stats = SolveStats(nodes=search.nodes, wall_time=time.perf_counter() - started)
    phi = None if search.inc_vec is None else inst.assignment(search.inc_vec)
    return _solution(inst, setting, goal, phi, search.inc_obj, search.open_bound, stats)


def brute_force(inst: Instance, setting: int, cap: int = BRUTE_FORCE_CAP) -> Solution:
    """Exhaustive oracle: score every assignment through the scalar evaluator."""
    goal = Goal(inst, setting)
    feasible, score = goal.feasible, goal.score
    d = inst.diagram
    sizes = [len(labels) for labels in inst.choices]
    space = math.prod(sizes)
    if space > cap:
        raise EnumerationCapError(f"{space} assignments exceed the cap of {cap}")

    started = time.perf_counter()
    best_score: int | None = None
    best_phi: Assignment | None = None
    for vec in itertools.product(*map(range, sizes)):
        phi = inst.assignment(vec)
        m = evaluate(d, phi, inst.initial, inst.population)
        if not feasible(m):
            continue
        scaled = score(m)
        if best_score is None or scaled > best_score:
            best_score, best_phi = scaled, phi

    stats = SolveStats(nodes=space, wall_time=time.perf_counter() - started)
    return _solution(inst, setting, goal, best_phi, best_score, None, stats)


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
    for v, labels, label in zip(inst.positions, inst.choices, inst.labels(phi)):
        if label not in labels:
            issues.append(f"candidate/constraint violation: label at {v} not permitted")
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
