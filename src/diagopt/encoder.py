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

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, product
from math import ceil, floor

import numpy as np

from .core import Assignment, InputError, routes
from .problem import FIELDS, Goal, Instance

Term = tuple[int, int]  # (coefficient, variable index)

_LINE_WIDTH = 72
_SENSES = {"<=": -1, "=": 0, ">=": 1}
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class LinRow:
    """One linear constraint with all variables on the left-hand side."""

    name: str
    terms: tuple[Term, ...]
    sense: str  # "<=", ">=" or "="
    rhs: int | Fraction


class IPModel:
    """Immutable binary program for one instance and setting. It reads the
    decision space (vertices, choices, methods, types) from ``instance``.

    The variable layout is decided once, in ``_build_layout``: each block is
    a numpy array of indices into ``names``, and the blocks follow one
    another, type-major, in this order:

    - ``p[ui][ci]``: internal vertex ``ui`` carries its choice ``ci``
      (one array per internal vertex, in the order of ``Instance.choices``);
    - ``q[si, mi]``: sink ``si`` carries method ``mi``;
    - ``alpha[ti, vi]``: type ``ti`` visits ``Instance.positions[vi]``
      (internals, then sinks, so ``vi == ui`` for an internal vertex);
    - ``beta[ti, ui, label]``: type ``ti`` leaves ``ui`` along its
      ``label`` arc;
    - ``gamma[ti, si, mi]``: type ``ti`` ends at sink ``si``, which carries
      method ``mi``;
    - ``z[ti, mi]``: type ``ti`` ends up with method ``mi``.

    ``choice_blocks`` holds one p or q array per decision position, indexed
    like ``Instance.choices``. The names, the rows, ``encode_assignment``,
    ``decode`` and ``variable_counts`` all read these arrays. A variable's
    name is its block's letter, then its key letters and indices in order
    (``b_t12_u2_l1``); each block's suffixes past the first index are
    formatted once. The model also holds the constraint rows in family order
    as row blocks (one template per family, repeated for every type; see
    ``_RowBlock``), from which the LP text (rendered from per-group token
    tables, see ``_block_lp``), the int64 arrays ``violations`` sums
    (``_compiled``), the row names it reports and the ``LinRow`` objects
    ``rows`` yields are all read; the linking rows' keep masks read
    ``Instance.fires``. A side row that int64 cannot hold is an
    ``InputError``. It holds the objective (integer terms, divided exactly
    by ``objective_divisor`` unless it is ``None``), and ``exprs``, the
    linear expressions of the ``FIELDS`` (cost and the three indicators).
    Safe to share read-only.
    """

    def __init__(self, instance: Instance, setting: int):
        self.instance = instance
        self.setting = setting
        goal = Goal(instance, setting)
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
            """Name a block's variables in index order, e.g. ``a_t{ti}_v{vi}``.

            The suffixes after the first key (``_v0``, ``_v1``, ...) are
            formatted once and repeated for every value of the first key.
            """
            start = len(names)
            fmt = "".join(f"_{k}{{}}" for k in keys[1:])
            suffixes = [fmt.format(*at) for at in product(*map(range, shape[1:]))]
            for i in range(shape[0]):
                head = f"{prefix}_{keys[0]}{i}"
                names.extend([head + suffix for suffix in suffixes])
            return np.arange(start, len(names)).reshape(shape)

        inst = self.instance
        n_t, n_m = len(inst.population), len(inst.population.methods)
        n_u, n_s = len(inst.diagram.internals), len(inst.diagram.sinks)
        self.p = [block(f"p_u{ui}", "c", (len(c),)) for ui, c in enumerate(inst.choices[:n_u])]
        self.q = block("q", "sm", (n_s, n_m))
        self.choice_blocks: tuple[np.ndarray, ...] = (*self.p, *self.q)
        self.alpha = block("a", "tv", (n_t, n_u + n_s))
        self.beta = block("b", "tul", (n_t, n_u, 2))
        self.gamma = block("g", "tsm", (n_t, n_s, n_m))
        self.z = block("z", "tm", (n_t, n_m))
        self.names: tuple[str, ...] = tuple(names)

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
        weights, z, costs = pop.weights.tolist(), self.z.tolist(), pop.methods.costs

        def terms(holds: np.ndarray, coefs: Sequence[int]) -> tuple[Term, ...]:
            """Type-major, where ``holds``: the type's weight x the method's coef, on z."""
            ts, ms = (a.tolist() for a in np.nonzero(holds))
            return tuple((coefs[mi] * weights[ti], z[ti][mi]) for ti, mi in zip(ts, ms))

        ones = [1] * len(costs)
        self.exprs: tuple[tuple[Term, ...], ...] = (  # in FIELDS order
            terms(np.broadcast_to([c != 0 for c in costs], pop.y.shape), costs),
            tuple((1, int(b[k])) for b, k in zip(self.choice_blocks, inst.deployed)),
            terms(pop.y, ones),
            terms(pop.y & pop.z[:, None], ones),
        )

    def _build_rows(self, goal: Goal) -> None:
        """Lay the rows out as blocks, each written once for type 0.

        A block's rows repeat for every type, type-major; a row of type
        ``ti`` reads the type-0 variables shifted by ``ti`` times their
        block's per-type stride (``_RowBlock``).
        """
        inst = self.instance
        d = inst.diagram
        n_t = len(inst.population)
        n_u = len(d.internals)
        p = [b.tolist() for b in self.p]
        q = self.q.tolist()
        stride = np.zeros(self.num_variables, dtype=np.int64)
        for b in (self.alpha, self.beta, self.gamma, self.z):
            stride[b] = np.prod(b.shape[1:])

        def row_block(
            rows: list, groups: Sequence[int] = (0,), per_type: bool = True
        ) -> _RowBlock:
            """A block from its type-0 rows ``(name format, terms, sense, rhs)``.

            A term is ``(coef, index)``, or ``(coef, index, label)`` for a p
            term kept only for the types whose indicator of that candidate is
            ``label``. A block that is not ``per_type`` is written once.
            """
            reps = n_t if per_type else 1
            terms = [(*t, -1)[:3] for _, ts, _, _ in rows for t in ts]
            coef, base, label = np.array(terms, dtype=np.int64).reshape(-1, 3).T
            keep = np.ones((reps, len(base)), dtype=bool)
            cond = label >= 0
            if cond.any():
                # p variable pi is row pi of the stacked tables: p leads the layout
                keep[:, cond] = np.concatenate(inst.fires)[base[cond]].T == label[cond]
            return _RowBlock(
                reps=reps,
                names=tuple(r[0] for r in rows),
                senses=tuple(r[2] for r in rows),
                rhs=tuple(r[3] for r in rows),
                bounds=np.cumsum([0] + [len(r[1]) for r in rows]),
                coef=coef,
                base=base,
                stride=stride[base] if per_type else np.zeros_like(base),
                keep=keep,
                groups=tuple(groups),
            )

        # assignment rows: one candidate per vertex, one method per sink
        asg = [(f"asg_u{ui}", [(1, i) for i in pu], "=", 1) for ui, pu in enumerate(p)]
        asg += [(f"asg_s{si}", [(1, i) for i in qs], "=", 1) for si, qs in enumerate(q)]
        blocks = [row_block(asg, per_type=False)]

        if n_t:
            a0, b0, g0, z0 = (b[0].tolist() for b in (self.alpha, self.beta, self.gamma, self.z))

            # routing rows: the source is always visited; any other vertex is
            # visited exactly when some predecessor forwards the walk into it
            # (ui, label) of each arc into a vertex: a tail is internal, and
            # the internals lead the positions, so a tail's vertex position is
            # its ui
            vpos = {v: vi for vi, v in enumerate(inst.positions)}
            in_arcs: list[list[tuple[int, int]]] = [[] for _ in inst.positions]
            for a in d.arcs:
                in_arcs[vpos[a.head]].append((vpos[a.tail], a.label))
            root = vpos[d.source]
            rt = [("rt_src_t{}", [(1, a0[root])], "=", 1)]
            for vi, arcs_in in enumerate(in_arcs):
                if vi == root:
                    continue
                ub_terms = [(1, a0[vi])] + [(-1, b0[ui][lb]) for ui, lb in arcs_in]
                rt.append((f"rt_ub_t{{}}_v{vi}", ub_terms, "<=", 0))
                rt += [
                    (f"rt_lb_t{{}}_v{vi}_u{ui}_l{lb}", [(1, a0[vi]), (-1, b0[ui][lb])], ">=", 0)
                    for ui, lb in arcs_in
                ]
            blocks.append(row_block(rt))

            # linking rows: beta fires exactly when the vertex is visited and
            # the chosen candidate's indicator equals the label; a p term
            # (-1, pi, label) is kept for the types where it holds
            ln = []
            for ui, pu in enumerate(p):
                ai = a0[ui]
                for label in (0, 1):
                    bi = b0[ui][label]
                    p_terms = [(-1, pi, label) for pi in pu]
                    ln.append((f"ln_a_t{{}}_u{ui}_l{label}", [(1, bi), (-1, ai)], "<=", 0))
                    ln.append((f"ln_p_t{{}}_u{ui}_l{label}", [(1, bi)] + p_terms, "<=", 0))
                    ln.append(
                        (f"ln_lb_t{{}}_u{ui}_l{label}", [(1, bi), (-1, ai)] + p_terms, ">=", -1)
                    )
            blocks.append(row_block(ln, groups=range(0, len(ln), 6)))

            # sink rows: gamma is the AND of reaching the sink and its method choice
            sk = []
            for si, (g_s, q_s) in enumerate(zip(g0, q)):
                ai = a0[n_u + si]
                for mi, (gi, qi) in enumerate(zip(g_s, q_s)):
                    sk.append((f"sk_q_t{{}}_s{si}_m{mi}", [(1, gi), (-1, qi)], "<=", 0))
                    sk.append((f"sk_a_t{{}}_s{si}_m{mi}", [(1, gi), (-1, ai)], "<=", 0))
                    sk.append(
                        (f"sk_lb_t{{}}_s{si}_m{mi}", [(1, gi), (-1, qi), (-1, ai)], ">=", -1)
                    )
            blocks.append(row_block(sk))

            # aggregation rows: z collects gamma over sinks
            ag = []
            for mi, zi in enumerate(z0):
                g_terms = [(-1, g_s[mi]) for g_s in g0]
                ag.append((f"ag_ub_t{{}}_m{mi}", [(1, zi)] + g_terms, "<=", 0))
                ag += [
                    (f"ag_lb_t{{}}_s{si}_m{mi}", [(1, zi), g], ">=", 0)
                    for si, g in enumerate(g_terms)
                ]
            blocks.append(row_block(ag))

        # per-setting side rows; every other row has coefficients of +-1. The
        # absolute sum of a row's coefficients bounds its left-hand side at
        # any 0/1 point, so within int64 no sum in ``violations`` wraps
        exprs = dict(zip(FIELDS, self.exprs))
        side = [(name, exprs[field], sense, rhs) for name, field, sense, rhs in goal.rows]
        for name, terms, _, rhs in side:
            if sum(abs(c) for c, _ in terms) > _INT64_MAX:
                raise InputError(f"side row {name}: coefficients sum past the int64 range")
            if rhs > _INT64_MAX:
                raise InputError(f"side row {name}: right-hand side {rhs} past the int64 range")
        blocks.append(row_block(side, per_type=False))
        self._blocks: tuple[_RowBlock, ...] = tuple(blocks)
        self._row_starts = np.cumsum([0] + [b.num_rows for b in blocks]).tolist()

    @property
    def rows(self) -> Iterator[LinRow]:
        """The constraint rows in family order, as ``LinRow`` objects."""
        return (row for block in self._blocks for row in block.rows())

    def _build_objective(self, goal: Goal) -> None:
        # the weighted expressions summed per variable, in variable-index order
        total: dict[int, int] = {}
        for expr, w in zip(self.exprs, goal.weights):
            if w:
                for coef, idx in expr:
                    total[idx] = total.get(idx, 0) + coef * w
        self.objective_sense = goal.sense
        self.objective: tuple[Term, ...] = tuple((total[i], i) for i in sorted(total) if total[i])
        self.objective_divisor: int | None = goal.divisor

    @property
    def num_constraints(self) -> int:
        return self._row_starts[-1]

    # ------------------------------------------------------------------
    # evaluation at points
    # ------------------------------------------------------------------

    @cached_property
    def _compiled(self) -> tuple[np.ndarray, ...]:
        """The rows as int64 arrays for exact vectorized row checking:
        ``indptr``, ``indices`` and ``data`` in CSR layout (row ``i`` holds
        terms ``indptr[i]:indptr[i + 1]``), then each row's sense (-1, 0 or 1
        for ``<=``, ``=`` or ``>=``, as int8) and right-hand side.

        Every coefficient is an integer, so a fractional right-hand side is
        rounded as :class:`Goal` rounds it, keeping the row's integer
        solutions: down for ``<=``, up for ``>=``. No row's sum at a 0/1
        point leaves int64 (see ``_build_rows``).
        """
        lengths, indices, data, senses, rhs = (
            np.concatenate(part) for part in zip(*(b.compiled() for b in self._blocks))
        )
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        return indptr, indices, data, senses, rhs

    def violations(self, point: "VariablePoint") -> tuple[str, ...]:
        """Names of every constraint row the point violates."""
        indptr, indices, data, senses, rhs = self._compiled
        # reduceat sums each start's terms up to the next start, so only the
        # rows with terms take part; a row without terms keeps lhs 0
        starts = indptr[:-1]
        has_terms = starts < indptr[1:]
        lhs = np.zeros(len(senses), dtype=np.int64)
        lhs[has_terms] = np.add.reduceat(data * point.values[indices], starts[has_terms])
        bad = ((senses == -1) & (lhs > rhs)) | ((senses == 0) & (lhs != rhs)) | (
            (senses == 1) & (lhs < rhs)
        )
        names = []
        for i in np.nonzero(bad)[0].tolist():
            bi = bisect_right(self._row_starts, i) - 1
            block = self._blocks[bi]
            ti, r = divmod(i - self._row_starts[bi], len(block.names))
            names.append(block.names[r].format(ti))
        return tuple(names)


@dataclass(frozen=True)
class _RowBlock:
    """One row family, repeated for each of ``reps`` types in type order.

    Template row ``r`` holds terms ``bounds[r]:bounds[r + 1]``. For type
    ``ti``, term ``k`` is ``coef[k]`` times variable ``base[k] + ti *
    stride[k]`` (stride 0 for the p/q variables all types share), and is
    dropped where ``keep[ti, k]`` is false. Row names are format strings of
    the type id. ``groups`` holds the first row of each run of rows whose LP
    text depends on the type only through its id's digit count and its keep
    pattern over the run's terms.
    """

    reps: int
    names: tuple[str, ...]
    senses: tuple[str, ...]
    rhs: tuple[int | Fraction, ...]
    bounds: np.ndarray
    coef: np.ndarray
    base: np.ndarray
    stride: np.ndarray
    keep: np.ndarray  # (reps, terms) bool
    groups: tuple[int, ...]

    @property
    def num_rows(self) -> int:
        return self.reps * len(self.names)

    def compiled(self) -> tuple[np.ndarray, ...]:
        """Row lengths, column indices, coefficients, senses and rhs, type-major."""
        index = self.base + np.arange(self.reps)[:, None] * self.stride
        kept = np.zeros((self.reps, len(self.base) + 1), dtype=np.int64)
        np.cumsum(self.keep, axis=1, out=kept[:, 1:])
        lengths = np.diff(kept[:, self.bounds], axis=1).ravel()
        coef = np.broadcast_to(self.coef, index.shape)
        senses = np.array([_SENSES[s] for s in self.senses], dtype=np.int8)
        rhs = np.array(
            [floor(r) if s == "<=" else ceil(r) for s, r in zip(self.senses, self.rhs)],
            dtype=np.int64,
        )
        return (
            lengths,
            index[self.keep],
            coef[self.keep],
            np.tile(senses, self.reps),
            np.tile(rhs, self.reps),
        )

    def rows(self) -> Iterator[LinRow]:
        """The block's rows as ``LinRow`` objects, type-major."""
        coef, bounds = self.coef.tolist(), self.bounds.tolist()
        for ti in range(self.reps):
            index = (self.base + ti * self.stride).tolist()
            keep = self.keep[ti].tolist()
            for r, name in enumerate(self.names):
                terms = tuple(
                    (coef[k], index[k]) for k in range(bounds[r], bounds[r + 1]) if keep[k]
                )
                yield LinRow(name.format(ti), terms, self.senses[r], self.rhs[r])


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


def build_model(inst: Instance, setting: int) -> IPModel:
    """Encode the instance for one setting."""
    return IPModel(inst, setting)


def encode_assignment(model: IPModel, phi: Assignment) -> VariablePoint:
    """The variable point induced by a feasible assignment.

    p/q follow the decoration directly; alpha, beta, gamma and z are read
    from the types' routes (``core.routes``).
    """
    inst = model.instance
    d = inst.diagram
    if not inst.is_feasible(phi):
        raise InputError("assignment is not feasible for this instance")

    x = np.zeros(model.num_variables, dtype=np.int8)
    vec = inst.choice_vector(phi)
    for b, k in zip(model.choice_blocks, vec):
        x[b[k]] = 1

    visits, ones = routes(d, phi, inst.population)
    x[model.alpha] = np.column_stack([visits[v] for v in inst.positions])
    for ui, u in enumerate(d.internals):
        x[model.beta[:, ui, 1]] = ones[u]
        x[model.beta[:, ui, 0]] = visits[u] & ~ones[u]
    for si, (s, mi) in enumerate(zip(d.sinks, vec[len(d.internals):])):
        x[model.gamma[:, si, mi]] = visits[s]
        x[model.z[:, mi]] |= visits[s]

    x.setflags(write=False)
    return VariablePoint(model=model, values=x)


def decode(model: IPModel, point: VariablePoint) -> Assignment:
    """Read the assignment back from the p/q blocks of a point."""
    vec: list[int] = []
    for v, block in zip(model.instance.positions, model.choice_blocks):
        hits = np.nonzero(point.values[block])[0]
        if len(hits) != 1:
            raise InputError(f"vertex {v}: {len(hits)} labels selected, expected 1")
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


def _term_token(coef: int | Fraction, name: str) -> str:
    """A term's LP token as a later term of its row, led by its space: sign,
    magnitude unless it is 1, variable name."""
    sign, mag = ("-", -coef) if coef < 0 else ("+", coef)
    return f" {sign} {name}" if mag == 1 else f" {sign} {_fmt_number(mag)} {name}"


def _row_lp(prefix: str, tokens: list[str], tail: str, empty: str) -> str:
    """LP text of one row from its terms' tokens (see ``_term_token``).

    The row reads ``prefix``, the tokens with a first ``+`` dropped, then
    ``tail``; a line breaks before any token after the first that would take
    it past ``_LINE_WIDTH``. A row without terms reads ``empty`` in their
    place. ``tokens`` is the caller's fresh list, and its first token is
    rewritten in place.
    """
    if not tokens:
        return prefix + empty + tail
    if tokens[0][1] == "+":
        tokens[0] = tokens[0][2:]
    # ends[j]: the width of the prefix and tokens[:j] on one line
    ends = list(accumulate(map(len, tokens), initial=len(prefix)))
    if ends[-1] <= _LINE_WIDTH:
        return prefix + "".join(tokens) + tail
    lines = []
    start, width = 0, 0  # the line's first token, the width before the line
    while start < len(tokens):
        end = max(start + 1, bisect_right(ends, width + _LINE_WIDTH) - 1)
        lines.append("".join(tokens[start:end]))
        start, width = end, ends[end]
    return prefix + "\n".join(lines) + tail


def _keep_patterns(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of one row of ``keep`` with each distinct pattern, and
    every row's pattern id."""
    if keep.all():  # one pattern, also for a run without terms
        return np.zeros(1, dtype=np.int64), np.zeros(len(keep), dtype=np.int64)
    packed = np.packbits(keep, axis=1)
    # one opaque scalar per row, so that np.unique sorts rows, not bits
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, sample, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return sample, inverse


def _block_lp(block: _RowBlock, names: Sequence[str]) -> list[str]:
    """LP text of a block: one string per type and row group, in row order.

    A group's text depends on the type only through the digit count of its
    id and its keep pattern over the group's terms. For each digit count the
    group gets one token table: per row its prefix, its tail and each term's
    token (``_term_token``), written with a placeholder of as many
    characters in place of the id, so that lines break where they would for
    the real id. Each distinct keep pattern is rendered once from the table
    by picking its kept tokens, and each type with that pattern joins the
    pieces around its id.
    """
    bounds = block.bounds.tolist()
    coef, base, stride = block.coef.tolist(), block.base.tolist(), block.stride.tolist()
    empty = f" 0 {names[0]}"
    spans: list[tuple[int, int]] = []  # (first, end) of the type ids with each digit count
    lo = 0
    while lo < block.reps:
        spans.append((lo, min(block.reps, 10 ** len(str(lo)))))
        lo = spans[-1][1]
    cuts = (*block.groups, len(block.names))
    per_run = []
    for r0, r1 in zip(cuts, cuts[1:]):
        k0, k1 = bounds[r0], bounds[r1]
        sample, inverse = _keep_patterns(block.keep[:, k0:k1])
        pieces: list[list[str]] = []
        for lo, hi in spans:
            ph = "\0" * len(str(lo))
            # a per-type variable is named "{letter}_t0_..." at type 0
            tokens = [
                _term_token(coef[k], names[i][:3] + ph + names[i][4:] if stride[k] else names[i])
                for k, i in enumerate(base[k0:k1], k0)
            ]
            table = [
                (
                    f" {block.names[r].format(ph)}:",
                    tokens[bounds[r] - k0 : bounds[r + 1] - k0],
                    f" {block.senses[r]} {_fmt_number(block.rhs[r])}",
                    bounds[r] - k0,
                    bounds[r + 1] - k0,
                )
                for r in range(r0, r1)
            ]
            ids = inverse[lo:hi].tolist()
            text: dict[int, list[str]] = {}
            for pid in set(ids):
                keep = block.keep[sample[pid], k0:k1].tolist()
                text[pid] = "\n".join(
                    _row_lp(prefix, list(compress(terms, keep[a:b])), tail, empty)
                    for prefix, terms, tail, a, b in table
                ).split(ph)
            pieces += [text[pid] for pid in ids]
        per_run.append(pieces)
    out: list[str] = []
    for ti, parts in enumerate(zip(*per_run)):
        out += map(str(ti).join, parts)
    return out


def export_lp(model: IPModel) -> str:
    """Serialize the model in CPLEX-style LP text.

    Objective first, then the constraint rows in family order, then a Binary
    section listing every variable, then the End marker. Output is a pure
    function of the model, so repeated exports are byte-identical.
    """
    names = model.names
    d = model.objective_divisor
    obj = [_term_token(c if d is None else Fraction(c, d), names[i]) for c, i in model.objective]
    out = [model.objective_sense, _row_lp(" obj:", obj, "", f" 0 {names[0]}"), "Subject To"]
    for block in model._blocks:
        out += _block_lp(block, names)
    out += ["Binary", " " + "\n ".join(names), "End", ""]  # "" ends the text with a newline
    return "\n".join(out)
