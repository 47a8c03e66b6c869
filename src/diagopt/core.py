"""Decision-diagram data model, routing semantics, and metric evaluation.

A diagram is a single-source DAG whose internal vertices each carry a set of
binary health-checkup items and route an examinee along the 0- or 1-labeled
out-arc depending on whether any carried item is positive for that examinee.
Sinks carry a single notification method. Everything here is immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

Vertex = str
ItemSet = frozenset[int]


class InputError(ValueError):
    """Raised for any input the package cannot use; a document's error names its file."""


@dataclass(frozen=True)
class ItemUniverse:
    """Ordered finite set of health-checkup item identifiers."""

    items: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise InputError("item universe must be non-empty")
        if len(set(self.items)) != len(self.items):
            raise InputError("duplicate item identifiers")

    @cached_property
    def positions(self) -> dict[int, int]:
        return {item: i for i, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)

    def __contains__(self, item: int) -> bool:
        return item in self.positions

    def index(self, item: int) -> int:
        try:
            return self.positions[item]
        except KeyError:
            raise InputError(f"item {item} not in universe") from None


@dataclass(frozen=True)
class MethodUniverse:
    """Ordered finite set of notification methods with per-examinee costs."""

    methods: tuple[int, ...]
    costs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.methods:
            raise InputError("method universe must be non-empty")
        if len(set(self.methods)) != len(self.methods):
            raise InputError("duplicate method identifiers")
        if len(self.costs) != len(self.methods):
            raise InputError("costs must align with methods")
        if any(c < 0 for c in self.costs):
            raise InputError("method costs must be non-negative")

    @cached_property
    def positions(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.methods)}

    def __len__(self) -> int:
        return len(self.methods)

    def __iter__(self) -> Iterator[int]:
        return iter(self.methods)

    def __contains__(self, method: int) -> bool:
        return method in self.positions

    def index(self, method: int) -> int:
        try:
            return self.positions[method]
        except KeyError:
            raise InputError(f"method {method} not in universe") from None


@dataclass(frozen=True, eq=False)
class Population:
    """All examinee types as read-only columns; row ``t`` of each is one type.

    ``ids`` and ``weights`` are int64 (each weight >= 1, their sum below 2**63,
    so no int64 sum of weights wraps); ``x`` and ``y`` are bool over the items
    and methods, and ``z`` marks a reaction that also improves the item.
    """

    items: ItemUniverse
    methods: MethodUniverse
    ids: np.ndarray
    weights: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids) if np.ndim(self.ids) == 1 else None
        shapes = {"ids": (n,), "weights": (n,), "z": (n,)}
        shapes |= {"x": (n, len(self.items)), "y": (n, len(self.methods))}
        for name, shape in shapes.items():
            dtype = np.dtype(np.int64 if name in ("ids", "weights") else bool)
            col = np.array(getattr(self, name))  # a copy, then read-only
            if col.dtype != dtype or col.shape != shape:
                raise InputError(f"{name} must be a {dtype} array of shape {shape}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        light = np.flatnonzero(self.weights < 1)
        if light.size:
            raise InputError(f"type {self.ids[light[0]]}: weight must be >= 1")
        if len(np.unique(self.ids)) != n:
            raise InputError("duplicate examinee type ids")
        if self.total_weight >= 2**63:
            raise InputError(f"total weight {self.total_weight} does not fit in 64 bits")

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def total_weight(self) -> int:
        return sum(self.weights.tolist())


@dataclass(frozen=True)
class Arc:
    """Directed labeled arc; labels are the 0/1 outcomes of the tail's test."""

    tail: Vertex
    head: Vertex
    label: int


@dataclass(frozen=True)
class Diagram:
    """Single-source DAG with binary-labeled out-arcs on internal vertices.

    Construction checks every structural invariant (acyclicity, a unique
    source, exactly one 0- and one 1-labeled out-arc per internal vertex) and
    raises one :class:`InputError` listing each violation found, so a built
    diagram is valid and ``heads`` gives each internal vertex's successors.
    """

    vertices: tuple[Vertex, ...]
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        known = set(self.vertices)
        for a in self.arcs:
            if a.tail not in known or a.head not in known:
                raise InputError(f"arc {a.tail}->{a.head} references unknown vertex")

        violations = [
            f"arc {a.tail}->{a.head} has label {a.label}, expected 0 or 1"
            for a in self.arcs
            if a.label not in (0, 1)
        ]
        cyclic = len(self.topo_order) != len(self.vertices)
        if cyclic:
            violations.append("cycle detected")
        sources = [v for v in self.vertices if not self._in[v]]
        if not sources and not cyclic:
            violations.append("no source vertex")
        elif len(sources) > 1:
            violations.append(f"multiple sources: {', '.join(sorted(sources))}")
        for v, out in self._out.items():
            if out and len(out) != 2:
                violations.append(f"vertex {v} has out-degree {len(out)}, expected 2")
            if len(out) == 2 and out[0].label == out[1].label:
                violations.append(f"duplicate arc label at {v}")
        if violations:
            raise InputError(f"invalid diagram: {'; '.join(violations)}")

    @cached_property
    def _out(self) -> dict[Vertex, list[Arc]]:
        out: dict[Vertex, list[Arc]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            out[a.tail].append(a)
        return out

    @cached_property
    def _in(self) -> dict[Vertex, list[Arc]]:
        inc: dict[Vertex, list[Arc]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            inc[a.head].append(a)
        return inc

    @cached_property
    def sinks(self) -> tuple[Vertex, ...]:
        """Vertices with no out-arcs, in topological order."""
        return tuple(v for v in self.topo_order if not self._out[v])

    @cached_property
    def internals(self) -> tuple[Vertex, ...]:
        """Non-sink vertices, in topological order."""
        return tuple(v for v in self.topo_order if self._out[v])

    @cached_property
    def heads(self) -> dict[Vertex, tuple[Vertex, Vertex]]:
        """Each internal vertex's (0-successor, 1-successor), in topological order."""
        return {
            u: tuple(a.head for a in sorted(self._out[u], key=lambda a: a.label))
            for u in self.internals
        }

    @cached_property
    def source(self) -> Vertex:
        return self.topo_order[0]

    @cached_property
    def topo_order(self) -> tuple[Vertex, ...]:
        """Deterministic topological order; ties resolved by vertex declaration order.

        On a cycle (which construction rejects) it holds only the vertices
        ordered before the cycle blocks the rest.
        """
        rank = {v: i for i, v in enumerate(self.vertices)}
        indeg = {v: len(self._in[v]) for v in self.vertices}
        ready = sorted((v for v in self.vertices if indeg[v] == 0), key=rank.__getitem__)
        order: list[Vertex] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            freed = []
            for a in self._out[v]:
                indeg[a.head] -= 1
                if indeg[a.head] == 0:
                    freed.append(a.head)
            if freed:
                ready = sorted(ready + freed, key=rank.__getitem__)
        return tuple(order)


@dataclass(frozen=True)
class Assignment:
    """Decoration of a diagram: item subsets on internal vertices, one method per sink."""

    node_items: Mapping[Vertex, ItemSet]
    sink_methods: Mapping[Vertex, int]

    @staticmethod
    def build(
        node_items: Mapping[Vertex, Iterable[int]],
        sink_methods: Mapping[Vertex, int],
    ) -> "Assignment":
        return Assignment(
            node_items={u: frozenset(c) for u, c in node_items.items()},
            sink_methods=dict(sink_methods),
        )

    def covers(self, diagram: Diagram) -> bool:
        return set(self.node_items) == set(diagram.internals) and set(self.sink_methods) == set(
            diagram.sinks
        )


class Metrics(NamedTuple):
    """Cost and the three optimization indicators of one assignment."""

    cost: int
    obj1: int
    obj2: int
    obj3: int


def routes(
    d: Diagram, phi: Assignment, pop: Population
) -> tuple[dict[Vertex, np.ndarray], dict[Vertex, np.ndarray]]:
    """Which types of ``pop`` visit each vertex under ``phi``, and which of
    each internal vertex's visitors leave it by the 1-arc: bool masks over
    the types.

    One pass over ``Diagram.heads`` in topological order, so a vertex's
    visit mask is complete before it is read. A visitor leaves by the 1-arc
    when some carried item is positive for it. Every internal label of
    ``phi`` is read, and none of its sink methods.
    """
    visits = {v: np.zeros(len(pop), dtype=bool) for v in d.vertices}
    visits[d.source][:] = True
    ones: dict[Vertex, np.ndarray] = {}
    for u, (head0, head1) in d.heads.items():
        carried = [pop.items.index(i) for i in phi.node_items[u]]
        on = ones[u] = visits[u] & pop.x[:, carried].any(axis=1)
        visits[head1] |= on
        visits[head0] |= visits[u] & ~on
    return visits, ones


def sink_totals(
    d: Diagram, phi: Assignment, pop: Population
) -> dict[Vertex, list[tuple[int, int, int]]]:
    """Per sink, per method in universe order: weight x cost, responders and
    improvers over the types that reach the sink.

    Only ``phi``'s internal labels are read. Each type's weight goes to the
    column of the sink it reaches (``routes``); one product of those columns
    with ``y`` (with ``y`` and ``z``) sums the responders (improvers). Costs
    multiply Python ints.
    """
    visits, _ = routes(d, phi, pop)
    at = np.column_stack([visits[s] for s in d.sinks]) * pop.weights[:, None]
    weights = at.sum(axis=0).tolist()
    responders = (at.T @ pop.y).tolist()
    improvers = (at.T @ (pop.y & pop.z[:, None])).tolist()
    return {
        s: [(c * w, r, i) for c, r, i in zip(pop.methods.costs, rs, fs)]
        for s, w, rs, fs in zip(d.sinks, weights, responders, improvers)
    }


def evaluate(d: Diagram, phi: Assignment, phi_in: Assignment, pop: Population) -> Metrics:
    """Compute cost and all three objectives of ``phi`` against ``pop``.

    All quantities are exact integers:

    - cost: total notification cost over all examinees,
    - obj1: number of vertices whose decoration equals the initial one,
    - obj2: examinees reacting positively to their assigned method,
    - obj3: the obj2 subpopulation whose tracked item also improves.

    Each sink adds its method's entry of :func:`sink_totals`.
    """
    cost = 0
    obj2 = 0
    obj3 = 0
    for s, per_method in sink_totals(d, phi, pop).items():
        c, responders, improvers = per_method[pop.methods.index(phi.sink_methods[s])]
        cost += c
        obj2 += responders
        obj3 += improvers

    obj1 = sum(1 for u in d.internals if phi.node_items[u] == phi_in.node_items[u])
    obj1 += sum(1 for s in d.sinks if phi.sink_methods[s] == phi_in.sink_methods[s])

    return Metrics(cost=cost, obj1=obj1, obj2=obj2, obj3=obj3)
