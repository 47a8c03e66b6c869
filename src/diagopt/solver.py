"""Exact native optimization over the assignment space.

``solve`` runs depth-first branch-and-bound over ``Instance.positions``, the
pinned decision order (internal vertices in topological order, then sinks),
and branches on indices into ``Instance.choices``. Every per-vertex table
(indicator masks, successor positions, branch order) is a list indexed by
decision position, and every arc points to a later position, so bounding a
node is one forward pass over the positions.
Routing during search is bitset-vectorized: one Python int per position
holds the reach of every examinee. While the mean type weight is small (a
generated population's weight is a record count) a mask holds one bit per
examinee, a type of weight w owning w consecutive bits, so a weighted tally
is a single popcount. An aggregated population, whose weights sum far above
its type count, gets one bit per type instead, and a tally sums one popcount
per bit-plane of the weights; the masks then stay as narrow as the type
count however large the weights are.

The search cuts prefixes that reach an earlier prefix's reach frontier, as
exact decision-diagram dynamic programming merges equal states (see
``_Search``), and branches on internal vertices only: one node per complete
internal prefix scores every sink-method combination.
A search stopped by a limit reports the root's bound, which no node's bound
exceeds.

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
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Assignment, InputError, Metrics, evaluate
from .problem import Goal, Instance

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_LIMIT = "limit-reached"

BRUTE_FORCE_CAP = 2_000_000

# masks hold one bit per examinee while the total weight is at most this many
# bits per type, and one bit per type (with weight bit-planes) above it
UNIT_BIT_MEAN_WEIGHT = 8


class EnumerationCapError(RuntimeError):
    """Raised when the brute-force space exceeds the configured cap."""


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    wall_time: float
    dominated: int = 0  # prefixes cut at a frontier an earlier prefix reached


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


class _Tables:
    """Per-instance bitset tables of the search and its node bound.

    ``tally(mask)`` is the total weight of the examinees in a mask (see the
    module docstring for the two layouts). Every per-vertex table is a list
    indexed by decision position (``Instance.positions``). Every arc points
    to a later position, so reach propagates in one forward pass over the
    positions.
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
        self.total = pop.total_weight
        weights = [t.weight for t in pop.types]
        self.unit_bits = self.total <= UNIT_BIT_MEAN_WEIGHT * len(weights)
        if self.unit_bits:
            repeats = np.array(weights, dtype=np.int64)

        def mask(col: np.ndarray) -> int:
            if self.unit_bits:
                col = np.repeat(col, repeats)
            return int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")

        if self.unit_bits:
            self.tally = int.bit_count
        else:
            planes = [
                (k, mask(np.array([(w >> k) & 1 for w in weights], dtype=bool)))
                for k in range(max(weights).bit_length())
            ]

            def wsum(m: int) -> int:
                return sum((m & plane).bit_count() << k for k, plane in planes)

            self.tally = wsum
        self.full = mask(np.ones(len(weights), dtype=bool))

        self.ones = [list(map(mask, fires)) for fires in inst.fires]
        self.heads = [(pos[h0], pos[h1]) for h0, h1 in d.heads.values()]

        # the deployed choice per position, for the similarity objective, and
        # branch order: internal candidates closest to the deployed label
        # first (ties in canonical order)
        self.match = inst.deployed
        self.children: list[list[int]] = [
            sorted(range(len(cands)), key=lambda ci: -len(cands[ci] & cands[m]))
            for cands, m in zip(inst.choices[:n], self.match)
        ]

        z = np.array([t.z for t in pop.types], dtype=bool)
        ys = [np.array([t.y[mi] for t in pop.types], dtype=bool) for mi in range(len(self.methods))]
        self.y_masks = [mask(y) for y in ys]
        self.yz_masks = [mask(y & z) for y in ys]
        # population totals, from which the last sink's tallies follow
        self.y_totals = [self.tally(m) for m in self.y_masks]
        self.yz_totals = [self.tally(m) for m in self.yz_masks]
        # the node bound's constants: with every sink open, every type can
        # take every method
        self.cost_lb = min(self.costs) * self.total
        any_y = np.logical_or.reduce(ys)
        self.any_y = self.tally(mask(any_y))
        self.any_yz = self.tally(mask(any_y & z))


def _split(tb: _Tables, f: list[int], k: int, ci: int) -> None:
    """Fix internal position ``k`` to choice ``ci`` in frontier ``f``: send
    its reach on to the successor each type's indicator picks."""
    r = f[k]
    on = r & tb.ones[k][ci]
    h0, h1 = tb.heads[k]
    f[h1] |= on
    f[h0] |= r ^ on


def _frontier(tb: _Tables, prefix: Sequence[int]) -> list[int]:
    """Per position, the types the internal choices of ``prefix`` alone send
    there, propagated from the source."""
    f = [0] * tb.n_positions
    f[tb.source] = tb.full
    for k, ci in zip(range(tb.n_internal), prefix):
        _split(tb, f, k, ci)
    return f


def _partial_bounds(tb: _Tables, depth: int, reach: list[int], matches: int) -> Metrics:
    """Optimistic metrics of an internal prefix of ``depth`` choices with
    ``matches`` deployed ones, every sink still open: cost from below,
    indicators from above.

    ``reach`` is the prefix's frontier (see :func:`_frontier`) and is
    completed in place: open vertices forward every incoming type to both
    successors. Only the per-sink reaction bound depends on the prefix: each
    sink serves its possible audience with its single best method.
    """
    tally = tb.tally
    for k in range(depth, tb.n_internal):
        r = reach[k]
        if r:
            h0, h1 = tb.heads[k]
            reach[h1] |= r
            reach[h0] |= r
    per_sink2 = 0
    per_sink3 = 0
    for r in reach[tb.n_internal :]:
        if r:
            per_sink2 += max([tally(r & y) for y in tb.y_masks])
            per_sink3 += max([tally(r & yz) for yz in tb.yz_masks])
    return Metrics(
        tb.cost_lb,
        matches + tb.n_positions - depth,
        min(per_sink2, tb.any_y),
        min(per_sink3, tb.any_yz),
    )


class _Search:
    """Depth-first branch-and-bound over the internal positions that
    maximizes the goal's score.

    A node is a choice prefix. It carries its frontier: per position, the
    types the fixed vertices alone send there, which is the whole reach of
    the next position to fix. Prefixes of one depth with equal frontiers
    (from that depth on) have the same completions and differ only in their
    matches, so a prefix is dominated, and cut, when an earlier one reached
    its frontier with at least as many matches and a smaller choice vector.
    The node at depth ``n_internal`` scores every sink-method combination.
    """

    def __init__(self, tb: _Tables, goal: Goal, node_limit: int | None, time_limit: float | None):
        self.feasible = goal.feasible
        self.score = goal.score
        self.tb = tb
        self.node_limit = node_limit
        self.deadline = None if time_limit is None else time.perf_counter() + time_limit

        self.nodes = 0
        self.dominated = 0
        self.aborted = False
        self.inc_obj: int | None = None
        self.inc_vec: tuple[int, ...] | None = None

        self.root = _frontier(tb, ())
        # no node's bound exceeds the root's: fixing a vertex only shrinks reach
        m = _partial_bounds(tb, 0, self.root.copy(), 0)
        self.root_bound = goal.score(m) if goal.feasible(m) else None
        # per depth: hash of a frontier's open positions -> the prefixes that
        # reached it and no earlier prefix dominates (frontiers are recomputed
        # on a hit, so the table holds no reach masks)
        self.seen: list[dict[int, tuple[tuple[int, ...], ...]]] = [
            {} for _ in range(tb.n_internal + 1)
        ]
        n_sinks = tb.n_positions - tb.n_internal
        self.sink_vectors = list(itertools.product(range(len(tb.methods)), repeat=n_sinks))

    def _hit_limit(self) -> bool:
        if self.node_limit is not None and self.nodes >= self.node_limit:
            return True
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return True
        return False

    def _prunable(self, scaled: int, choices: tuple[int, ...]) -> bool:
        if self.inc_obj is None or scaled > self.inc_obj:
            return False
        if scaled == self.inc_obj:
            # an equal-bound subtree can only matter through the tie-break
            pad = choices + (0,) * (self.tb.n_positions - len(choices))
            return pad >= self.inc_vec
        return True

    def _dominated(self, prefix: tuple[int, ...], frontier: list[int], matches: int) -> bool:
        """Whether an earlier prefix of this depth dominates ``prefix``;
        if not, record ``prefix`` in place of the entries it dominates."""
        depth = len(prefix)
        tail = frontier[depth:]
        table = self.seen[depth]
        key = hash(tuple(tail))
        kept = []
        for p in table.get(key, ()):
            pm = sum(map(operator.eq, p, self.tb.match))
            cuts = pm >= matches and p < prefix
            # replay p's frontier only when one of the two could cut the other
            if (cuts or (matches >= pm and prefix < p)) and _frontier(self.tb, p)[depth:] == tail:
                if cuts:
                    return True
                continue  # prefix dominates p
            kept.append(p)
        table[key] = (*kept, prefix)
        return False

    def run(self) -> None:
        self._visit((), self.root, 0)

    def _visit(self, prefix: tuple[int, ...], frontier: list[int], matches: int) -> None:
        self.nodes += 1
        if self._dominated(prefix, frontier, matches):
            self.dominated += 1
            return
        tb = self.tb
        k = len(prefix)
        if k == tb.n_internal:
            self._score_sinks(prefix, frontier, matches)
            return
        m = _partial_bounds(tb, k, frontier.copy(), matches)
        if not self.feasible(m):
            return
        scaled = self.score(m)
        if self._hit_limit():
            self.aborted = True
            return
        if self._prunable(scaled, prefix):
            return

        match = tb.match[k]
        for ci in tb.children[k]:
            f = frontier.copy()
            _split(tb, f, k, ci)
            self._visit(prefix + (ci,), f, matches + (ci == match))
            if self.aborted:
                return

    def _score_sinks(self, prefix: tuple[int, ...], frontier: list[int], matches: int) -> None:
        """Score every sink-method combination of a complete internal prefix."""
        tb = self.tb
        if self._hit_limit():
            self.aborted = True
            return

        # the sinks partition the examinees: tally every sink but the last,
        # which gets what the others leave of the population totals
        tally = tb.tally
        tallies = []
        w_left, y_left, yz_left = tb.total, tb.y_totals, tb.yz_totals
        for r in frontier[tb.n_internal : -1]:
            w = tally(r)
            y = [tally(r & m) for m in tb.y_masks]
            yz = [tally(r & m) for m in tb.yz_masks]
            tallies.append((w, y, yz))
            w_left -= w
            y_left = list(map(operator.sub, y_left, y))
            yz_left = list(map(operator.sub, yz_left, yz))
        tallies.append((w_left, y_left, yz_left))

        # (cost, obj1, obj2, obj3) of every sink-method combination, in
        # canonical order, so the first best is the smallest vector
        totals = [(0, matches, 0, 0)]
        for (w, y, yz), deployed in zip(tallies, tb.match[tb.n_internal :]):
            sink = [
                (cost * w, mi == deployed, y[mi], yz[mi]) for mi, cost in enumerate(tb.costs)
            ]
            totals = [
                (c + dc, o1 + d1, o2 + d2, o3 + d3)
                for c, o1, o2, o3 in totals
                for dc, d1, d2, d3 in sink
            ]
        # only a combination that would be the incumbent has its rows checked
        feasible, score = self.feasible, self.score
        for vec, t in zip(self.sink_vectors, totals):
            scaled = score(t)
            if self.inc_obj is not None and (
                scaled < self.inc_obj or (scaled == self.inc_obj and prefix + vec >= self.inc_vec)
            ):
                continue
            if feasible(t):
                self.inc_obj = scaled
                self.inc_vec = prefix + vec


def _solution(
    inst: Instance,
    setting: int,
    goal: Goal,
    phi: Assignment | None,
    score: int | None,
    limit_bound: int | None,
    stats: SolveStats,
) -> Solution:
    """The one way a solve ends: ``phi`` scores ``score`` (both ``None`` when
    nothing feasible was found), and ``limit_bound`` is set when a limit left
    subtrees unexplored: the root's bound, which covers all of them."""
    if limit_bound is not None:
        status = STATUS_LIMIT
    else:
        status = STATUS_INFEASIBLE if phi is None else STATUS_OPTIMAL
    scores = [s for s in (score, limit_bound) if s is not None]
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
    if node_limit is not None and node_limit < 0:
        raise InputError("node limit must be >= 0")
    if time_limit is not None and not time_limit >= 0:  # NaN seconds never expire
        raise InputError("time limit must be >= 0 seconds")
    goal = Goal(inst, setting)
    started = time.perf_counter()
    search = _Search(_Tables(inst), goal, node_limit, time_limit)
    search.run()
    stats = SolveStats(
        nodes=search.nodes,
        wall_time=time.perf_counter() - started,
        dominated=search.dominated,
    )
    phi = None if search.inc_vec is None else inst.assignment(search.inc_vec)
    limit_bound = search.root_bound if search.aborted else None
    return _solution(inst, setting, goal, phi, search.inc_obj, limit_bound, stats)


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
    for v in inst.misplaced(phi):
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
