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
internal prefix scores the sink-method combinations.
One scorer serves every node: it splits the types into regions by the set
of sinks they reach and scores the sink-method combinations still *live*
at the node. A node passes to its children only the combinations that its
bound's relaxed part leaves able to beat the incumbent within the budget,
as local bounds filter a decision diagram's nodes; no combination dropped
there can win anywhere below it (see ``_Search``). A node is
scored in two parts, a relaxed reach and the deployed completion, as a
width-2 relaxed decision diagram over the open positions would; a complete
internal prefix has no open position, so its deployed part is exact, with
the sinks as its regions, and scores the leaf. A search stopped by a limit
reports the root's bound, which no node's bound exceeds.

``brute_force`` is the ground-truth oracle: it enumerates every assignment,
routing the types through ``core.routes`` once per internal choice vector
and summing each sink-method vector from the per-sink totals
(``core.sink_totals``), so it shares no routing code with the search.
``verify`` independently re-checks any returned solution.

Ties between optimal assignments break toward the lexicographically smallest
choice vector (one index into ``Instance.choices`` per position), so repeated
runs and both solvers agree on the exact same assignment. The search applies
the rule as one threshold per node (``_Search._below``).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import Assignment, InputError, Metrics, evaluate, sink_totals
from .problem import Goal, Instance, Solution, SolveStats

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_LIMIT = "limit-reached"

BRUTE_FORCE_CAP = 2_000_000

# a region's method subsets as (cheapest cost, y mask union, y∧z mask union);
# per live sink-method combination the index of the subset it takes; and a
# getter of a per-subset list's entries at those indices, as a tuple
_Region = tuple[list[tuple[int, int, int]], list[int], Callable[[list[int]], tuple[int, ...]]]


class _Live:
    """Sink-method combinations still live at a node: their indices into
    ``_Tables.sink_vectors`` in canonical order, how many sinks each keeps
    at its deployed method and the score that adds, and per region key, on
    first use, its ``_Region`` over them (see ``_Tables.region``)."""

    __slots__ = ("combos", "kept", "kept_scores", "regions")

    def __init__(self, combos: tuple[int, ...], sink_matches: list[int], w1: int):
        self.combos = combos
        self.kept = [sink_matches[i] for i in combos]
        self.kept_scores = [w1 * kept for kept in self.kept]
        self.regions: dict[int, _Region] = {}


# per live combination its score; per region its mask, its weight, its
# method subsets and the subset each live combination takes, from which
# _best sums a checked combination's totals; the obj1 base the
# combinations' kept sinks add to; and the live combinations scored
_Scored = tuple[
    list[int], list[tuple[int, int, list[tuple[int, int, int]], list[int]]], int, _Live
]

# masks hold one bit per examinee while the total weight is at most this many
# bits per type, and one bit per type (with weight bit-planes) above it
UNIT_BIT_MEAN_WEIGHT = 8


@dataclass(frozen=True)
class VerificationReport:
    issues: tuple[str, ...]


class _Tables:
    """Per-instance bitset tables of the search and its node bound.

    ``tally(mask)`` is the total weight of the examinees in a mask (see the
    module docstring for the two layouts). Every per-vertex table is a list
    indexed by decision position (``Instance.positions``). Every arc points
    to a later position, so reach propagates in one forward pass over the
    positions.

    The sink layer is scored per *region*: the types that reach exactly the
    same nonempty set of sinks, keyed by a bit per sink (``sink_bits``).
    ``sink_vectors`` lists every sink-method combination in canonical order
    and ``sink_matches`` how many sinks each keeps at its deployed method.
    ``region(key, live)`` gives, on first use, the method subsets the
    region's sinks take under the live combinations (each subset's cheapest
    cost and the unions of its y and y∧z masks), which one each live
    combination gives the region, and a getter that gathers a per-subset
    list into live-combination order in one call.
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
        self.unit_bits = pop.total_weight <= UNIT_BIT_MEAN_WEIGHT * len(pop)

        def mask(col: np.ndarray) -> int:
            if self.unit_bits:
                col = np.repeat(col, pop.weights)
            return int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")

        if self.unit_bits:
            self.tally = int.bit_count
        else:
            w = pop.weights
            planes = [(k, mask(w >> k & 1 == 1)) for k in range(int(w.max()).bit_length())]

            def wsum(m: int) -> int:
                return sum((m & plane).bit_count() << k for k, plane in planes)

            self.tally = wsum
        self.full = mask(np.ones(len(pop), dtype=bool))

        self.ones = [list(map(mask, fires)) for fires in inst.fires]
        self.heads = [(pos[h0], pos[h1]) for h0, h1 in d.heads.values()]
        # what an open vertex can send on: to its 1-successor the types that
        # fire for some candidate, to its 0-successor those that miss for some
        self.fire_any = [mask(fires.any(0)) for fires in inst.fires]
        self.miss_any = [mask(~fires.all(0)) for fires in inst.fires]

        # the deployed choice per position, for the similarity objective, and
        # branch order: internal candidates closest to the deployed label
        # first (ties in canonical order)
        self.match = inst.deployed
        self.children: list[list[int]] = [
            sorted(range(len(cands)), key=lambda ci: -len(cands[ci] & cands[m]))
            for cands, m in zip(inst.choices[:n], self.match)
        ]

        self.y_masks = [mask(y) for y in pop.y.T]
        self.yz_masks = [mask(y & pop.z) for y in pop.y.T]

        n_sinks = self.n_positions - n
        self.sink_bits = [1 << s for s in range(n_sinks)]
        self.sink_vectors = list(itertools.product(range(len(self.methods)), repeat=n_sinks))
        deployed = self.match[n:]
        self.sink_matches = [sum(map(operator.eq, vec, deployed)) for vec in self.sink_vectors]

    def region(self, key: int, live: _Live) -> _Region:
        """The method subsets region ``key`` takes under the ``live``
        combinations, which one each takes, and their getter (see
        ``_Region``), cached in ``live``."""
        got = live.regions.get(key)
        if got is None:
            sinks = [s for s, bit in enumerate(self.sink_bits) if key & bit]
            takes = [frozenset(self.sink_vectors[i][s] for s in sinks) for i in live.combos]
            subsets = sorted(set(takes), key=sorted)
            index = {ms: i for i, ms in enumerate(subsets)}
            picks = [index[ms] for ms in takes]
            tables = [
                (
                    min(self.costs[mi] for mi in ms),
                    functools.reduce(operator.or_, (self.y_masks[mi] for mi in ms)),
                    functools.reduce(operator.or_, (self.yz_masks[mi] for mi in ms)),
                )
                for ms in subsets
            ]
            # itemgetter of one index returns the item, not a 1-tuple
            gather = operator.itemgetter(*picks) if len(picks) > 1 else lambda seq: (seq[picks[0]],)
            got = live.regions[key] = (tables, picks, gather)
        return got


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


def _regions(tb: _Tables, sink_reach: Sequence[int]) -> list[tuple[int, int]]:
    """Split the types into regions: each region holds the types that reach
    exactly the same nonempty set of sinks, as (key, mask) with bit s of the
    key set for sink s."""
    regions = [(0, tb.full)]
    for bit, r in zip(tb.sink_bits, sink_reach):
        split = []
        for key, m in regions:
            on = m & r
            if on:
                split.append((key | bit, on))
            if on != m:
                split.append((key, m ^ on))
        regions = split
    return regions


class _Search:
    """Depth-first branch-and-bound over the internal positions that
    maximizes the goal's score.

    A node is a choice prefix. It carries its frontier: per position, the
    types the fixed vertices alone send there, which is the whole reach of
    the next position to fix. Prefixes of one depth with equal frontiers
    (from that depth on) have the same completions and differ only in their
    matches, so a prefix is dominated, and cut, when an earlier one reached
    its frontier with at least as many matches and a smaller choice vector.
    A child whose split of the vertex's reach equals an earlier sibling's,
    with no more matches and a larger choice, is counted as such a cut
    without a frontier or a table lookup (``_sibling``).

    A prefix is bounded by the larger of two scored parts (see ``_relaxed``
    and ``_deployed``): every completion either keeps each open position at
    its deployed label or deviates at one of them. A child's bound never
    exceeds its parent's, since fixing a vertex only shrinks reach. The node
    at depth ``n_internal`` scores the sink-method combinations through its
    deployed part. Every node, leaf included, must score above one threshold
    (``_below``), in which the tie-break toward the smallest choice vector
    is folded.

    Each node also carries the combinations still *live* (a ``_Live``) and
    scores only those. It passes on to its children those whose relaxed
    score plus w1 beats the node's threshold and whose relaxed cost fits the
    budget (``_narrowed``). A dropped combination cannot win below the node:
    per combination, neither part of a child exceeds its parent's relaxed
    part plus w1 (reach only shrinks, the deployed completion keeps one
    more match, and wc <= 0 <= w1, w2, w3, as ``problem.Setting`` requires),
    the threshold never falls along a path, and no completion pays less
    than the relaxed part, whose regions each pay their cheapest method.
    ``bound`` and the root's bound score every combination.
    """

    def __init__(self, tb: _Tables, goal: Goal, node_limit: int | None, time_limit: float | None):
        self.feasible = goal.feasible
        self.weights = goal.signed_weights
        self.tb = tb
        self.node_limit = node_limit
        self.deadline = None if time_limit is None else time.perf_counter() + time_limit
        # responder counts are tallied for every method subset when the score
        # weighs them, and per checked combination when a row reads them; a
        # field no row reads is checked as 0, inside the range Goal gives it
        _, _, w2, w3 = self.weights
        self.scores_responders = bool(w2 or w3)
        self.rows_read_responders = any(f in ("obj2", "obj3") for _, f, _, _ in goal.rows)
        self.obj1_range = goal.ranges[1]
        # the budget, when a row caps the cost
        caps_cost = any(f == "cost" for _, f, _, _ in goal.rows)
        self.cost_cap = goal.ranges[0][1] if caps_cost else None

        self.nodes = 0
        self.dominated = 0
        self.pruned = 0
        self.aborted = False
        self.inc_obj: int | None = None
        self.inc_vec: tuple[int, ...] | None = None

        # each distinct live set once, so its region tables are built once
        self.live_sets: dict[tuple[int, ...], _Live] = {}
        self.every = self._live(tuple(range(len(tb.sink_vectors))))
        self.root = _frontier(tb, ())
        self.root_bound = self.bound(0, self.root, 0)
        # per depth: hash of a frontier's open positions -> the prefixes that
        # reached it and no earlier prefix dominates (frontiers are recomputed
        # on a hit, so the table holds no reach masks)
        self.seen: list[dict[int, tuple[tuple[int, ...], ...]]] = [
            {} for _ in range(tb.n_internal + 1)
        ]

    def _live(self, combos: tuple[int, ...]) -> _Live:
        """The one ``_Live`` of the combinations ``combos``."""
        live = self.live_sets.get(combos)
        if live is None:
            live = self.live_sets[combos] = _Live(combos, self.tb.sink_matches, self.weights[1])
        return live

    def _hit_limit(self) -> bool:
        if self.node_limit is not None and self.nodes >= self.node_limit:
            return True
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return True
        return False

    def _score(self, regions: Iterable[tuple[int, int]], base_obj1: int, live: _Live) -> _Scored:
        """The score of every ``live`` combination, in canonical order, and
        per region what its optimistic totals are summed from, for the types
        of each region (see ``_regions``).

        Each region pays its weight times the cheapest method its sinks take
        and counts its types that respond (and improve) under any of those
        methods; obj1 is ``base_obj1`` plus the sinks kept at their deployed
        method. When the sink reach partitions the types (a complete internal
        prefix), every region is one sink and the totals are exact.
        """
        tb = self.tb
        # each region adds to every combination's score, as Goal's score is
        # linear; a combination's totals are summed only when _best checks
        # its rows, and so are its responders when the score omits them
        wc, w1, w2, w3 = self.weights
        tally = tb.tally
        add = operator.add
        scores = map(add, live.kept_scores, itertools.repeat(w1 * base_obj1))
        parts = []
        for key, r in regions:
            tables, picks, gather = tb.region(key, live)
            w = tally(r)
            wcw = wc * w
            if self.scores_responders:
                gains = [wcw * c + w2 * tally(r & y) + w3 * tally(r & yz) for c, y, yz in tables]
            else:
                gains = [wcw * c for c, _, _ in tables]
            scores = map(add, scores, gather(gains))
            parts.append((r, w, tables, picks))
        return list(scores), parts, base_obj1, live

    def _relaxed(self, depth: int, frontier: list[int], matches: int, live: _Live) -> _Scored:
        """The bound's part for the completions of a prefix of ``depth``
        internal choices (``matches`` of them deployed) that deviate at some
        open position.

        Each open vertex sends on every type some candidate could send it
        on, and obj1 counts one open position fewer than there are. Where no
        open position has a second candidate, the reach is the deployed
        completion's and obj1 is one lower, so this part never beats the
        deployed one.
        """
        tb = self.tb
        n = tb.n_internal
        reach = frontier.copy()
        for k in range(depth, n):
            r = reach[k]
            if r:
                h0, h1 = tb.heads[k]
                reach[h1] |= r & tb.fire_any[k]
                reach[h0] |= r & tb.miss_any[k]
        return self._score(_regions(tb, reach[n:]), matches + n - depth - 1, live)

    def _deployed(self, depth: int, frontier: list[int], matches: int, live: _Live) -> _Scored:
        """The bound's part for the completion of a prefix that keeps every
        open position at its deployed label: exact. At depth ``n_internal``
        no position is open, and it scores the leaf's sinks."""
        tb = self.tb
        n = tb.n_internal
        f = frontier.copy()
        for k in range(depth, n):
            _split(tb, f, k, tb.match[k])
        return self._score(zip(tb.sink_bits, f[n:]), matches + n - depth, live)

    def bound(self, depth: int, frontier: list[int], matches: int) -> int | None:
        """The node bound of a prefix: the best score of a feasible
        combination in either part; ``None`` when neither has one."""
        best = None
        for part in self._relaxed, self._deployed:
            found = self._best(part(depth, frontier, matches, self.every), best)
            if found is not None:
                best = found[0]
        return best

    def _below(self, prefix: tuple[int, ...]) -> int | None:
        """The score a completion of ``prefix`` must beat to replace the
        incumbent (``None`` while there is none): one lower when ``prefix``
        padded with zeros is below the incumbent's choice vector, since the
        tie-break then lets an equal score win."""
        if self.inc_obj is None:
            return None
        pad = prefix + (0,) * (self.tb.n_positions - len(prefix))
        return self.inc_obj - (pad < self.inc_vec)

    def _promising(
        self, prefix: tuple[int, ...], frontier: list[int], matches: int, live: _Live
    ) -> _Live | None:
        """The combinations still live for the children of ``prefix``, or
        ``None`` when its bound cannot beat the incumbent (or, with none
        yet, has no feasible combination).

        It decides as the full bound would, computing the deployed part only
        when the relaxed part does not reach the threshold, and only over
        the combinations it passes on: no other can reach it.
        """
        below = self._below(prefix)
        depth = len(prefix)
        relaxed = self._relaxed(depth, frontier, matches, live)
        narrowed = self._narrowed(relaxed, below)
        if narrowed is None:
            return None
        if self._best(relaxed, below) is not None:
            return narrowed
        if self._best(self._deployed(depth, frontier, matches, narrowed), below) is not None:
            return narrowed
        return None

    def _narrowed(self, relaxed: _Scored, below: int | None) -> _Live | None:
        """The combinations of a node's relaxed part that a completion could
        still win with: those whose score plus w1 beats ``below`` and whose
        optimistic cost fits the budget; ``None`` when none does."""
        scores, parts, _, live = relaxed
        if below is not None:
            floor = below - self.weights[1]
            keep = [j for j, scaled in enumerate(scores) if scaled > floor]
        else:
            keep = range(len(scores))
        cap = self.cost_cap
        if cap is not None:
            keep = [
                j for j in keep if sum(w * tables[picks[j]][0] for _, w, tables, picks in parts) <= cap
            ]
        if len(keep) == len(scores):
            return live
        if not keep:
            return None
        combos = live.combos
        return self._live(tuple([combos[j] for j in keep]))

    def _best(self, part: _Scored, below: int | None) -> tuple[int, int] | None:
        """The best feasible combination of ``part`` that scores above
        ``below`` (any score when ``None``), as its score and its index into
        ``sink_vectors``; ``None`` when none does. Only a combination that
        would raise the best score has its rows checked, so the first of
        equal scores wins."""
        scores, parts, base_obj1, live = part
        if below is not None and max(scores) <= below:
            return None
        tally, feasible, kept = self.tb.tally, self.feasible, live.kept
        responders = self.rows_read_responders
        lo1, hi1 = self.obj1_range
        found = None
        for j, scaled in enumerate(scores):
            if below is not None and scaled <= below:
                continue
            obj1 = base_obj1 + kept[j]
            if not lo1 <= obj1 <= hi1:
                continue  # the obj1 row fails, with nothing tallied
            cost = obj2 = obj3 = 0
            for r, w, tables, picks in parts:
                c, y, yz = tables[picks[j]]
                cost += w * c
                if responders:
                    obj2 += tally(r & y)
                    obj3 += tally(r & yz)
            if feasible((cost, obj1, obj2, obj3)):
                below = scaled
                found = (scaled, live.combos[j])
        return found

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

    def _sibling(self, prefix: tuple[int, ...], ci: int, low: int) -> None:
        """Count child ``ci`` of ``prefix`` as a dominated node: its earlier
        sibling ``low < ci`` split the vertex's reach the same way with no
        fewer matches, so ``_dominated`` would cut it, by ``low`` or by the
        prefix that cut or replaced ``low``."""
        self.nodes += 1
        self.dominated += 1

    def run(self) -> None:
        self._visit((), self.root, 0, self.every)

    def _visit(self, prefix: tuple[int, ...], frontier: list[int], matches: int, live: _Live) -> None:
        self.nodes += 1
        if self._dominated(prefix, frontier, matches):
            self.dominated += 1
            return
        tb = self.tb
        k = len(prefix)
        if k == tb.n_internal:
            if self._hit_limit():
                self.aborted = True
                return
            part = self._deployed(k, frontier, matches, live)
            found = self._best(part, self._below(prefix))
            if found is not None:
                self.inc_obj, i = found
                self.inc_vec = prefix + tb.sink_vectors[i]
            return
        live = self._promising(prefix, frontier, matches, live)
        if live is None:
            self.pruned += 1
            return
        if self._hit_limit():
            self.aborted = True
            return

        match = tb.match[k]
        r = frontier[k]
        ones = tb.ones[k]
        h0, h1 = tb.heads[k]
        lowest: dict[int, int] = {}  # per split mask, the smallest choice that made it
        for ci in tb.children[k]:
            on = r & ones[ci]
            low = lowest.setdefault(on, ci)
            if low < ci and ci != match:
                self._sibling(prefix, ci, low)
                continue
            lowest[on] = min(low, ci)
            f = frontier.copy()
            f[h1] |= on
            f[h0] |= r ^ on
            self._visit(prefix + (ci,), f, matches + (ci == match), live)
            if self.aborted:
                return


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
        pruned=search.pruned,
    )
    phi = None if search.inc_vec is None else inst.assignment(search.inc_vec)
    limit_bound = search.root_bound if search.aborted else None
    return _solution(inst, setting, goal, phi, search.inc_obj, limit_bound, stats)


def brute_force(inst: Instance, setting: int) -> Solution:
    """Exhaustive oracle: score every assignment through ``core.routes``.

    Routing reads only the internal labels, so it runs once per internal
    choice vector; each sink-method vector then sums its sinks' entries of
    ``sink_totals``. Both loops run in ``itertools.product`` order, so the
    first of equal scores is the smallest choice vector.
    """
    goal = Goal(inst, setting)
    feasible, score = goal.feasible, goal.score
    d, pop = inst.diagram, inst.population
    n = len(d.internals)
    sizes = [len(labels) for labels in inst.choices]
    space = math.prod(sizes)
    if space > BRUTE_FORCE_CAP:
        raise InputError(f"{space} assignments exceed the cap of {BRUTE_FORCE_CAP}")

    started = time.perf_counter()
    sink_ranges = [range(size) for size in sizes[n:]]
    sink_deployed = inst.deployed[n:]
    best_score: int | None = None
    best_vec: tuple[int, ...] | None = None
    for head in itertools.product(*map(range, sizes[:n])):
        # a choice prefix picks the internal labels, all routing reads
        totals = sink_totals(d, inst.assignment(head), pop)
        # the internal vector's Metrics terms, then per sink, per method
        # the terms that method adds
        base = (0, sum(map(operator.eq, head, inst.deployed)), 0, 0)
        terms = [
            [(c, mi == dep, r, i) for mi, (c, r, i) in enumerate(totals[s])]
            for s, dep in zip(d.sinks, sink_deployed)
        ]
        for tail, picks in zip(itertools.product(*sink_ranges), itertools.product(*terms)):
            m = Metrics(*map(sum, zip(base, *picks)))
            if not feasible(m):
                continue
            scaled = score(m)
            if best_score is None or scaled > best_score:
                best_score, best_vec = scaled, head + tail

    stats = SolveStats(nodes=space, wall_time=time.perf_counter() - started)
    phi = None if best_vec is None else inst.assignment(best_vec)
    return _solution(inst, setting, goal, phi, best_score, None, stats)


def verify(sol: Solution, inst: Instance, setting: int) -> VerificationReport:
    """Re-derive everything the solution claims and flag each mismatch."""
    goal = Goal(inst, setting)
    issues: list[str] = []
    if sol.setting != setting:
        issues.append(f"solution is for setting {sol.setting}, not {setting}")
    if sol.assignment is None:
        if sol.status == STATUS_OPTIMAL:
            issues.append("optimal status without an assignment")
        return VerificationReport(tuple(issues))

    phi = sol.assignment
    if not phi.covers(inst.diagram):
        issues.append("assignment does not cover the diagram")
        return VerificationReport(tuple(issues))
    for v in inst.misplaced(phi):
        issues.append(f"candidate/constraint violation: label at {v} not permitted")
    if issues:
        return VerificationReport(tuple(issues))

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
    return VerificationReport(tuple(issues))
