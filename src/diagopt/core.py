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
    def _pos(self) -> dict[int, int]:
        return {item: i for i, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)

    def __contains__(self, item: int) -> bool:
        return item in self._pos

    def index(self, item: int) -> int:
        try:
            return self._pos[item]
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
    def _pos(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.methods)}

    def __len__(self) -> int:
        return len(self.methods)

    def __iter__(self) -> Iterator[int]:
        return iter(self.methods)

    def __contains__(self, method: int) -> bool:
        return method in self._pos

    def index(self, method: int) -> int:
        try:
            return self._pos[method]
        except KeyError:
            raise InputError(f"method {method} not in universe") from None


@dataclass(frozen=True)
class ExamineeType:
    """One row of the population: a weighted equivalence class of examinees.

    ``x`` and ``y`` are 0/1 vectors aligned with the item and method universes;
    ``z`` marks whether a positive reaction also improves the tracked item.
    """

    id: int
    weight: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    z: int

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise InputError(f"type {self.id}: weight must be >= 1")
        if not {*self.x, *self.y} <= {0, 1}:
            raise InputError(f"type {self.id}: x and y must be 0/1 vectors")
        if self.z not in (0, 1):
            raise InputError(f"type {self.id}: z must be 0 or 1")


@dataclass(frozen=True)
class Population:
    """All examinee types together with the universes their vectors index."""

    items: ItemUniverse
    methods: MethodUniverse
    types: tuple[ExamineeType, ...]

    def __post_init__(self) -> None:
        ids = [t.id for t in self.types]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate examinee type ids")
        for t in self.types:
            if len(t.x) != len(self.items):
                raise InputError(f"type {t.id}: x length {len(t.x)} != |items| {len(self.items)}")
            if len(t.y) != len(self.methods):
                raise InputError(f"type {t.id}: y length {len(t.y)} != |methods| {len(self.methods)}")

    def __len__(self) -> int:
        return len(self.types)

    @property
    def total_weight(self) -> int:
        return sum(t.weight for t in self.types)


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


# a decorated vertex's carried item positions, then its 0- and 1-successors
_Step = tuple[tuple[int, ...], Vertex, Vertex]


def _walk_table(d: Diagram, phi: Assignment, items: ItemUniverse) -> dict[Vertex, _Step]:
    """Every decorated vertex's step, resolved once per assignment."""
    return {
        u: (tuple(items.index(i) for i in phi.node_items[u]), *heads)
        for u, heads in d.heads.items()
        if u in phi.node_items
    }


def _walk(source: Vertex, table: Mapping[Vertex, _Step], x: tuple[int, ...]) -> list[Vertex]:
    """The vertices visited by a type with item vector ``x``, source to sink.

    Terminates in at most |V| steps on any valid diagram.
    """
    v = source
    path = [v]
    while v in table:
        # the 0-successor, unless some carried item is positive
        positions, v, head1 = table[v]
        for p in positions:
            if x[p]:
                v = head1
                break
        path.append(v)
    return path


def reached_sinks(d: Diagram, phi: Assignment, pop: Population) -> list[Vertex]:
    """The sink each type of ``pop`` reaches under ``phi``, in population order."""
    table = _walk_table(d, phi, pop.items)
    return [_walk(d.source, table, t.x)[-1] for t in pop.types]


def evaluate(d: Diagram, phi: Assignment, phi_in: Assignment, pop: Population) -> Metrics:
    """Compute cost and all three objectives of ``phi`` against ``pop``.

    All quantities are exact integers:

    - cost: total notification cost over all examinees,
    - obj1: number of vertices whose decoration equals the initial one,
    - obj2: examinees reacting positively to their assigned method,
    - obj3: the obj2 subpopulation whose tracked item also improves.
    """
    cost = 0
    obj2 = 0
    obj3 = 0
    for t, s in zip(pop.types, reached_sinks(d, phi, pop)):
        mi = pop.methods.index(phi.sink_methods[s])
        cost += pop.methods.costs[mi] * t.weight
        if t.y[mi]:
            obj2 += t.weight
            if t.z:
                obj3 += t.weight

    obj1 = sum(1 for u in d.internals if phi.node_items[u] == phi_in.node_items[u])
    obj1 += sum(1 for s in d.sinks if phi.sink_methods[s] == phi_in.sink_methods[s])

    return Metrics(cost=cost, obj1=obj1, obj2=obj2, obj3=obj3)
