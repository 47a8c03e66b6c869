"""The three shipped decision-diagram instances: roles, budgets, targets, labels.

Arc topologies are reconstructions, stored as plain data so they can be
replaced: the internal vertices form a chain in index order, the 1-labeled
arc of each internal vertex exits to the first sink, and the 0-labeled arc
continues the chain (the last one falls through to the second sink). Both
sinks are reachable from every internal vertex, and any positive test ends
the walk at the first sink.
"""
from __future__ import annotations

from .core import Assignment, InputError, ItemUniverse, Population, Vertex
from .datagen import default_method_universe, default_threshold_table
from .fileio import InstanceDoc
from .problem import Instance

ITEM_CATEGORIES: tuple[tuple[int, ...], ...] = (
    (1, 2),
    (3, 4),
    (5, 6, 7, 8, 9, 10, 11),
    (12, 13, 14),
    (15, 16, 17),
    (18, 19, 20, 21, 22, 23, 24),
    (25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35),
)

_SINKS = ("s1", "s2")


def _chain(internals: tuple[Vertex, ...]) -> tuple[tuple[Vertex, Vertex, int], ...]:
    next_on_zero = list(internals[1:]) + [_SINKS[1]]
    arcs: list[tuple[Vertex, Vertex, int]] = []
    for u, succ in zip(internals, next_on_zero):
        arcs.append((u, _SINKS[0], 1))
        arcs.append((u, succ, 0))
    return tuple(arcs)


def _template(
    roles: dict[Vertex, tuple[int, ...]],
    node_labels: dict[Vertex, tuple[int, ...]],
    sink_labels: dict[Vertex, int],
    budget: int,
    targets: tuple[int, int, int],
) -> InstanceDoc:
    """A chain over the roles' vertices, in order, on the default universes."""
    internals = tuple(roles)
    return InstanceDoc(
        items=ItemUniverse(default_threshold_table().item_ids),
        methods=default_method_universe(),
        vertices=internals + _SINKS,
        arcs=_chain(internals),
        roles=roles,
        categories=ITEM_CATEGORIES,
        initial=Assignment.build(node_labels, sink_labels),
        budget=budget,
        targets=targets,
    )


def _template_1() -> InstanceDoc:
    return _template(
        roles={
            "r": (0,),
            "v1": tuple(range(1, 18)),
            "v2": (38, 39, 42, 44, 46, 47, 48),
            "v3": (36, 40, 43),
        },
        node_labels={"r": (0,), "v1": (1, 4, 8), "v2": (44,), "v3": (40,)},
        sink_labels={"s1": 1, "s2": 0},
        budget=35000,
        targets=(6, 15, 9),
    )


def _template_2() -> InstanceDoc:
    return _template(
        roles={
            "r": (0,),
            "v1": tuple(range(1, 18)),
            "v2": tuple(range(18, 36)),
            "v3": tuple(range(36, 46)),
        },
        node_labels={"r": (0,), "v1": (8,), "v2": (23,), "v3": (45,)},
        sink_labels={"s1": 0, "s2": 1},
        budget=373333,
        targets=(6, 160, 96),
    )


def _template_3() -> InstanceDoc:
    return _template(
        roles={
            "r": (0,),
            "v1": tuple(range(1, 18)),
            "v2": tuple(range(36, 46)),
            "v3": tuple(range(36, 46)),
            "v4": (38, 39, 42, 44, 46, 47, 48),
            "v5": (36, 40, 43),
        },
        node_labels={
            "r": (0,),
            "v1": (1, 8),
            "v2": (44,),
            "v3": (45,),
            "v4": (39,),
            "v5": (36,),
        },
        sink_labels={"s1": 1, "s2": 0},
        budget=483000,
        targets=(8, 207, 124),
    )


_TEMPLATES = {1: _template_1, 2: _template_2, 3: _template_3}


def instance_template(id: int) -> InstanceDoc:
    """The shipped instance ``id`` as a doc with no population."""
    try:
        return _TEMPLATES[id]()
    except KeyError:
        raise InputError(f"unknown instance id {id}, expected 1, 2 or 3") from None


def build_instance(id: int, pop: Population) -> Instance:
    """Assemble a shipped instance over the given population.

    The population must use the 49-item and 4-method universes.
    """
    return instance_template(id).instance(pop)
