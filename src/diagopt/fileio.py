"""Stable JSON formats for populations, instances, assignments, and reports.

One structured-text format for everything, canonically serialized (sorted
keys, two-space indent, sorted item lists) so that write -> read -> write is
byte-identical and files diff cleanly.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from .candidates import CategoryFamily, build_family
from .core import (
    Arc,
    Assignment,
    Diagram,
    ExamineeType,
    InputError,
    ItemUniverse,
    MethodUniverse,
    Population,
    Vertex,
    validate_diagram,
)
from .datagen import (
    AttributeSpec,
    Categorical,
    GenConfig,
    Predicate,
    ThresholdTable,
    TruncatedNormal,
    default_attribute_specs,
    default_method_universe,
    default_threshold_table,
)
from .problem import Instance
from .solver import Solution

CONFIG_DIR_ENV = "DIAGOPT_CONFIG_DIR"

_Doc = TypeVar("_Doc")


class FormatError(ValueError):
    """Raised when a document does not match its schema."""


def resolve_path(path: str | Path) -> Path:
    """Use the path as given, or fall back to the configured directory."""
    p = Path(path)
    if p.exists():
        return p
    base = os.environ.get(CONFIG_DIR_ENV)
    if base and not p.is_absolute():
        candidate = Path(base) / p
        if candidate.exists():
            return candidate
    return p


def dump_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str | Path) -> Any:
    p = resolve_path(path)
    try:
        with open(p, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{p}: invalid JSON ({exc})") from exc


def write_text(path: str | Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _from_doc(
    obj: Any, kind: str, from_obj: Callable[[Mapping[str, Any]], _Doc], where: str | Path
) -> _Doc:
    """Parse a document of ``kind``: any schema error is a FormatError."""
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise FormatError(f"{where}: not a document of kind {kind!r}")
    try:
        return from_obj(obj)
    except FormatError:
        raise
    except (AttributeError, TypeError, ValueError, KeyError) as exc:
        raise FormatError(f"{where}: malformed {kind} document ({exc})") from exc


def _read_doc(
    path: str | Path, kind: str, from_obj: Callable[[Mapping[str, Any]], _Doc]
) -> _Doc:
    return _from_doc(load_json(path), kind, from_obj, path)


def _expect(obj: Mapping[str, Any], key: str, ctx: str) -> Any:
    if key not in obj:
        raise FormatError(f"{ctx}: missing required key {key!r}")
    return obj[key]


# ----------------------------------------------------------------------
# populations
# ----------------------------------------------------------------------


def population_to_obj(pop: Population) -> dict[str, Any]:
    items = pop.items
    methods = pop.methods
    return {
        "kind": "population",
        "items": list(items.items),
        "methods": [[m, methods.costs[i]] for i, m in enumerate(methods.methods)],
        "types": [
            {
                "id": t.id,
                "weight": t.weight,
                "x1": sorted(i for i, b in zip(items.items, t.x) if b),
                "y1": sorted(m for m, b in zip(methods.methods, t.y) if b),
                "z": t.z,
            }
            for t in pop.types
        ],
    }


def population_from_obj(obj: Mapping[str, Any]) -> Population:
    ctx = "population"
    items = ItemUniverse(tuple(int(i) for i in _expect(obj, "items", ctx)))
    raw_methods = _expect(obj, "methods", ctx)
    methods = MethodUniverse(
        methods=tuple(int(m) for m, _ in raw_methods),
        costs=tuple(int(c) for _, c in raw_methods),
    )
    types = []
    for row in _expect(obj, "types", ctx):
        x1 = set(int(i) for i in _expect(row, "x1", f"{ctx} type"))
        y1 = set(int(m) for m in _expect(row, "y1", f"{ctx} type"))
        types.append(
            ExamineeType(
                id=int(_expect(row, "id", f"{ctx} type")),
                weight=int(_expect(row, "weight", f"{ctx} type")),
                x=tuple(int(i in x1) for i in items.items),
                y=tuple(int(m in y1) for m in methods.methods),
                z=int(_expect(row, "z", f"{ctx} type")),
            )
        )
    return Population(items=items, methods=methods, types=tuple(types))


def write_population(pop: Population, path: str | Path) -> None:
    write_text(path, dump_canonical(population_to_obj(pop)))


def read_population(path: str | Path) -> Population:
    return _read_doc(path, "population", population_from_obj)


# ----------------------------------------------------------------------
# assignments
# ----------------------------------------------------------------------


def assignment_to_obj(phi: Assignment) -> dict[str, Any]:
    return {
        "kind": "assignment",
        "nodes": {u: sorted(c) for u, c in phi.node_items.items()},
        "sinks": dict(phi.sink_methods),
    }


def assignment_from_obj(obj: Mapping[str, Any]) -> Assignment:
    nodes = _expect(obj, "nodes", "assignment")
    sinks = _expect(obj, "sinks", "assignment")
    return Assignment.build(
        {str(u): frozenset(int(i) for i in c) for u, c in nodes.items()},
        {str(s): int(m) for s, m in sinks.items()},
    )


def write_assignment(phi: Assignment, path: str | Path) -> None:
    write_text(path, dump_canonical(assignment_to_obj(phi)))


def read_assignment(path: str | Path) -> Assignment:
    return _read_doc(path, "assignment", assignment_from_obj)


# ----------------------------------------------------------------------
# generator configs
# ----------------------------------------------------------------------


def _attribute_from_obj(obj: Mapping[str, Any]) -> AttributeSpec:
    kind = _expect(obj, "kind", "attribute")
    name = str(_expect(obj, "name", "attribute"))
    if kind == "truncnormal":
        return TruncatedNormal(
            name=name,
            lo=float(_expect(obj, "lo", name)),
            hi=float(_expect(obj, "hi", name)),
            mean=float(_expect(obj, "mean", name)),
            sd=float(_expect(obj, "sd", name)),
        )
    if kind == "categorical":
        table = tuple(
            (float(v), float(p)) for v, p in _expect(obj, "table", name)
        )
        return Categorical(name=name, table=table)
    raise FormatError(f"attribute {name}: unknown kind {kind!r}")


def _attribute_to_obj(spec: AttributeSpec) -> dict[str, Any]:
    if isinstance(spec, TruncatedNormal):
        return {
            "kind": "truncnormal",
            "name": spec.name,
            "lo": spec.lo,
            "hi": spec.hi,
            "mean": spec.mean,
            "sd": spec.sd,
        }
    return {
        "kind": "categorical",
        "name": spec.name,
        "table": [[v, p] for v, p in spec.table],
    }


def _predicate_from_obj(obj: Mapping[str, Any]) -> Predicate:
    return Predicate(
        op=str(_expect(obj, "op", "predicate")),
        attr=str(_expect(obj, "attr", "predicate")),
        value=float(obj.get("value", 0.0)),
        upper=float(obj.get("upper", 0.0)),
    )


def _predicate_to_obj(pred: Predicate) -> dict[str, Any]:
    obj: dict[str, Any] = {"op": pred.op, "attr": pred.attr}
    if pred.op in ("ge", "lt", "eq", "band"):
        obj["value"] = pred.value
    if pred.op == "band":
        obj["upper"] = pred.upper
    return obj


@dataclass(frozen=True)
class GeneratorDoc:
    """Parsed generator configuration: attributes, thresholds, probabilities."""

    specs: tuple[AttributeSpec, ...]
    thresholds: ThresholdTable
    methods: MethodUniverse
    response_probs: dict[int, float]
    improvement_prob: float

    def gen_config(self, n: int, seed: int) -> GenConfig:
        return GenConfig(
            n=n,
            seed=seed,
            methods=self.methods,
            response_probs=dict(self.response_probs),
            improvement_prob=self.improvement_prob,
        )

    def to_obj(self) -> dict[str, Any]:
        return {
            "kind": "genconfig",
            "attributes": [_attribute_to_obj(s) for s in self.specs],
            "thresholds": [
                [item, _predicate_to_obj(pred)] for item, pred in self.thresholds.entries
            ],
            "methods": [
                [m, self.methods.costs[i]] for i, m in enumerate(self.methods.methods)
            ],
            "response_probs": {str(m): p for m, p in sorted(self.response_probs.items())},
            "improvement_prob": self.improvement_prob,
        }

    @staticmethod
    def from_obj(obj: Mapping[str, Any]) -> "GeneratorDoc":
        ctx = "genconfig"
        raw_methods = _expect(obj, "methods", ctx)
        methods = MethodUniverse(
            methods=tuple(int(m) for m, _ in raw_methods),
            costs=tuple(int(c) for _, c in raw_methods),
        )
        return GeneratorDoc(
            specs=tuple(_attribute_from_obj(a) for a in _expect(obj, "attributes", ctx)),
            thresholds=ThresholdTable(
                entries=tuple(
                    (int(item), _predicate_from_obj(p))
                    for item, p in _expect(obj, "thresholds", ctx)
                )
            ),
            methods=methods,
            response_probs={
                int(m): float(p) for m, p in _expect(obj, "response_probs", ctx).items()
            },
            improvement_prob=float(_expect(obj, "improvement_prob", ctx)),
        )

    @staticmethod
    def default() -> "GeneratorDoc":
        cfg = GenConfig(n=0, seed=0)
        return GeneratorDoc(
            specs=default_attribute_specs(),
            thresholds=default_threshold_table(),
            methods=default_method_universe(),
            response_probs=dict(cfg.response_probs),
            improvement_prob=cfg.improvement_prob,
        )


def read_generator_doc(path: str | Path) -> GeneratorDoc:
    return _read_doc(path, "genconfig", GeneratorDoc.from_obj)


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceDoc:
    """An instance file's contents; ``instance`` assembles it over a population.

    The shipped instances are docs without a population (see ``instances``).
    """

    items: tuple[int, ...]
    methods: tuple[tuple[int, int], ...]  # (id, cost) pairs
    vertices: tuple[Vertex, ...]
    arcs: tuple[tuple[Vertex, Vertex, int], ...]
    roles: dict[Vertex, tuple[int, ...]]
    categories: tuple[tuple[int, ...], ...]
    initial_nodes: dict[Vertex, tuple[int, ...]]
    initial_sinks: dict[Vertex, int]
    budget: int
    targets: tuple[int, int, int]
    population_inline: dict[str, Any] | None = None
    population_path: str | None = None
    gen_config: dict[str, Any] | None = None

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "kind": "instance",
            "items": list(self.items),
            "methods": [[m, c] for m, c in self.methods],
            "vertices": list(self.vertices),
            "arcs": [[t, h, l] for t, h, l in self.arcs],
            "roles": {u: sorted(r) for u, r in self.roles.items()},
            "categories": [sorted(c) for c in self.categories],
            "initial": {
                "nodes": {u: sorted(c) for u, c in self.initial_nodes.items()},
                "sinks": dict(self.initial_sinks),
            },
            "budget": self.budget,
            "targets": list(self.targets),
        }
        if self.population_inline is not None:
            obj["population"] = self.population_inline
        if self.population_path is not None:
            obj["population_path"] = self.population_path
        if self.gen_config is not None:
            obj["gen_config"] = self.gen_config
        return obj

    @staticmethod
    def from_obj(obj: Mapping[str, Any]) -> "InstanceDoc":
        ctx = "instance"
        initial = _expect(obj, "initial", ctx)
        doc = InstanceDoc(
            items=tuple(int(i) for i in _expect(obj, "items", ctx)),
            methods=tuple((int(m), int(c)) for m, c in _expect(obj, "methods", ctx)),
            vertices=tuple(str(v) for v in _expect(obj, "vertices", ctx)),
            arcs=tuple((str(t), str(h), int(l)) for t, h, l in _expect(obj, "arcs", ctx)),
            roles={
                str(u): tuple(sorted(int(i) for i in r))
                for u, r in _expect(obj, "roles", ctx).items()
            },
            categories=tuple(
                tuple(sorted(int(i) for i in c)) for c in _expect(obj, "categories", ctx)
            ),
            initial_nodes={
                str(u): tuple(sorted(int(i) for i in c))
                for u, c in _expect(initial, "nodes", ctx).items()
            },
            initial_sinks={str(s): int(m) for s, m in _expect(initial, "sinks", ctx).items()},
            budget=int(_expect(obj, "budget", ctx)),
            targets=tuple(int(t) for t in _expect(obj, "targets", ctx)),
            population_inline=obj.get("population"),
            population_path=obj.get("population_path"),
            gen_config=obj.get("gen_config"),
        )
        if len(doc.targets) != 3:
            raise FormatError(f"{ctx}: targets must have exactly three entries")
        if doc.population_inline is None and doc.population_path is None:
            raise FormatError(f"{ctx}: needs either population or population_path")
        if not isinstance(doc.population_path, (str, type(None))):
            raise FormatError(f"{ctx}: population_path must be a string")
        return doc

    def load_population(self, base_dir: Path | None = None) -> Population:
        if self.population_inline is not None:
            return _from_doc(
                self.population_inline, "population", population_from_obj, "inline population"
            )
        assert self.population_path is not None
        p = Path(self.population_path)
        if not p.is_absolute() and base_dir is not None and (base_dir / p).exists():
            p = base_dir / p
        return read_population(p)

    @property
    def initial_assignment(self) -> Assignment:
        return Assignment.build(self.initial_nodes, self.initial_sinks)

    def instance(self, pop: Population) -> Instance:
        """Assemble the instance over ``pop``, which must use the doc's universes.

        Candidate families are built from the initial labels through the
        neighborhood, category, and role pipeline.
        """
        if pop.items.items != self.items:
            raise InputError("population item universe differs from the instance's")
        if tuple(zip(pop.methods.methods, pop.methods.costs)) != self.methods:
            raise InputError("population method universe differs from the instance's")
        diagram = Diagram(
            vertices=self.vertices,
            arcs=tuple(Arc(t, h, l) for t, h, l in self.arcs),
        )
        report = validate_diagram(diagram)
        if not report.ok:
            raise InputError(f"invalid diagram: {'; '.join(report.violations)}")
        if set(self.roles) != set(diagram.internals):
            raise InputError("roles must cover exactly the internal vertices")
        initial = self.initial_assignment
        if not initial.covers(diagram):
            raise InputError("initial labels must cover exactly the diagram's vertices")
        categories = CategoryFamily.build(self.categories)
        families = {
            u: build_family(u, initial.node_items[u], pop.items, categories, self.roles[u])
            for u in diagram.internals
        }
        return Instance(
            diagram=diagram,
            population=pop,
            families=families,
            initial=initial,
            budget=self.budget,
            targets=self.targets,
        )

    def build(self, base_dir: Path | None = None) -> Instance:
        """Load the doc's population and assemble the instance over it."""
        pop = self.load_population(base_dir)
        try:
            return self.instance(pop)
        except InputError as exc:
            raise FormatError(str(exc)) from exc


def instance_doc_from_template(doc: InstanceDoc, population_path: str | None = None) -> InstanceDoc:
    """A shipped instance referencing a population file, ready to write."""
    return replace(doc, population_path=population_path)


def read_instance_doc(path: str | Path) -> InstanceDoc:
    return _read_doc(path, "instance", InstanceDoc.from_obj)


def read_instance(path: str | Path) -> Instance:
    p = resolve_path(path)
    return read_instance_doc(p).build(base_dir=p.parent)


def write_instance_doc(doc: InstanceDoc, path: str | Path) -> None:
    write_text(path, dump_canonical(doc.to_obj()))


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


def _objective_to_obj(value: int | Fraction | None) -> int | str | None:
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    return value


def objective_from_obj(value: int | str | None) -> int | Fraction | None:
    if value is None:
        return None
    if isinstance(value, str):
        return Fraction(value)
    return int(value)


def report_to_obj(sol: Solution, solver_name: str) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "kind": "report",
        "setting": sol.setting,
        "solver": solver_name,
        "status": sol.status,
        "objective": _objective_to_obj(sol.objective_value),
        "best_bound": _objective_to_obj(sol.best_bound),
        "stats": {"nodes": sol.stats.nodes, "wall_time": sol.stats.wall_time},
    }
    if sol.metrics is not None:
        obj["metrics"] = {
            "cost": sol.metrics.cost,
            "obj1": sol.metrics.obj1,
            "obj2": sol.metrics.obj2,
            "obj3": sol.metrics.obj3,
        }
    if sol.assignment is not None:
        obj["assignment"] = {
            "nodes": {u: sorted(c) for u, c in sol.assignment.node_items.items()},
            "sinks": dict(sol.assignment.sink_methods),
        }
    return obj


def write_report(sol: Solution, solver_name: str, path: str | Path) -> None:
    write_text(path, dump_canonical(report_to_obj(sol, solver_name)))
