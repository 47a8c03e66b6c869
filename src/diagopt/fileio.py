"""Stable JSON formats for populations, instances, assignments, generator
configs, and reports.

One structured-text format for everything, canonically serialized (sorted
keys, two-space indent, sorted item lists) so that write -> read -> write is
byte-identical and files diff cleanly. A block several formats share has one
codec: methods (``_methods_to_obj`` / ``_methods_from_obj``) and assignment
labels (``_labels_to_obj`` / ``assignment_from_obj``). Every reader goes
through ``_from_doc``, so a schema error is one ``FormatError`` naming the file.
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
    """Parse a document of ``kind``: any schema error is a FormatError naming ``where``."""
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise FormatError(f"{where}: not a document of kind {kind!r}")
    try:
        return from_obj(obj)
    except KeyError as exc:
        raise FormatError(f"{where}: malformed {kind} document (missing key {exc})") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{where}: malformed {kind} document ({exc})") from exc


def _read_doc(
    path: str | Path, kind: str, from_obj: Callable[[Mapping[str, Any]], _Doc]
) -> _Doc:
    return _from_doc(load_json(path), kind, from_obj, path)


# ----------------------------------------------------------------------
# shared blocks
# ----------------------------------------------------------------------


def _methods_to_obj(methods: MethodUniverse) -> list[list[int]]:
    return [[m, c] for m, c in zip(methods.methods, methods.costs)]


def _methods_from_obj(rows: Any) -> MethodUniverse:
    return MethodUniverse(
        methods=tuple(int(m) for m, _ in rows),
        costs=tuple(int(c) for _, c in rows),
    )


def _labels_to_obj(phi: Assignment) -> dict[str, Any]:
    return {
        "nodes": {u: sorted(c) for u, c in phi.node_items.items()},
        "sinks": dict(phi.sink_methods),
    }


def assignment_from_obj(obj: Mapping[str, Any]) -> Assignment:
    """The assignment an object's ``nodes`` and ``sinks`` labels describe."""
    return Assignment.build(
        {str(u): (int(i) for i in c) for u, c in obj["nodes"].items()},
        {str(s): int(m) for s, m in obj["sinks"].items()},
    )


# ----------------------------------------------------------------------
# populations
# ----------------------------------------------------------------------


def population_to_obj(pop: Population) -> dict[str, Any]:
    items = pop.items
    methods = pop.methods
    return {
        "kind": "population",
        "items": list(items.items),
        "methods": _methods_to_obj(methods),
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
    items = ItemUniverse(tuple(int(i) for i in obj["items"]))
    methods = _methods_from_obj(obj["methods"])
    types = []
    for row in obj["types"]:
        x1 = set(int(i) for i in row["x1"])
        y1 = set(int(m) for m in row["y1"])
        types.append(
            ExamineeType(
                id=int(row["id"]),
                weight=int(row["weight"]),
                x=tuple(int(i in x1) for i in items.items),
                y=tuple(int(m in y1) for m in methods.methods),
                z=int(row["z"]),
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
    return {"kind": "assignment", **_labels_to_obj(phi)}


def write_assignment(phi: Assignment, path: str | Path) -> None:
    write_text(path, dump_canonical(assignment_to_obj(phi)))


def read_assignment(path: str | Path) -> Assignment:
    return _read_doc(path, "assignment", assignment_from_obj)


# ----------------------------------------------------------------------
# generator configs
# ----------------------------------------------------------------------


def _attribute_from_obj(obj: Mapping[str, Any]) -> AttributeSpec:
    kind = obj["kind"]
    name = str(obj["name"])
    if kind == "truncnormal":
        return TruncatedNormal(
            name=name,
            lo=float(obj["lo"]),
            hi=float(obj["hi"]),
            mean=float(obj["mean"]),
            sd=float(obj["sd"]),
        )
    if kind == "categorical":
        table = tuple((float(v), float(p)) for v, p in obj["table"])
        return Categorical(name=name, table=table)
    raise ValueError(f"attribute {name}: unknown kind {kind!r}")


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
        op=str(obj["op"]),
        attr=str(obj["attr"]),
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


def genconfig_to_obj(cfg: GenConfig) -> dict[str, Any]:
    """The generator-config document: all of ``cfg`` but ``n`` and ``seed``."""
    return {
        "kind": "genconfig",
        "attributes": [_attribute_to_obj(s) for s in cfg.specs],
        "thresholds": [
            [item, _predicate_to_obj(pred)] for item, pred in cfg.thresholds.entries
        ],
        "methods": _methods_to_obj(cfg.methods),
        "response_probs": {str(m): p for m, p in sorted(cfg.response_probs.items())},
        "improvement_prob": cfg.improvement_prob,
    }


def _genconfig_from_obj(obj: Mapping[str, Any]) -> GenConfig:
    return GenConfig(
        n=0,
        seed=0,
        specs=tuple(_attribute_from_obj(a) for a in obj["attributes"]),
        thresholds=ThresholdTable(
            tuple((int(item), _predicate_from_obj(p)) for item, p in obj["thresholds"])
        ),
        methods=_methods_from_obj(obj["methods"]),
        response_probs={int(m): float(p) for m, p in obj["response_probs"].items()},
        improvement_prob=float(obj["improvement_prob"]),
    )


def read_genconfig(path: str | Path, n: int, seed: int) -> GenConfig:
    """The generator config in ``path``, drawing ``n`` records from ``seed``."""
    # n and seed are set after parsing, so a bad count is not blamed on the file
    return replace(_read_doc(path, "genconfig", _genconfig_from_obj), n=n, seed=seed)


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceDoc:
    """An instance file's contents; ``instance`` assembles it over a population.

    The shipped instances are docs without a population (see ``instances``).
    """

    items: ItemUniverse
    methods: MethodUniverse
    vertices: tuple[Vertex, ...]
    arcs: tuple[tuple[Vertex, Vertex, int], ...]
    roles: dict[Vertex, tuple[int, ...]]
    categories: tuple[tuple[int, ...], ...]
    initial: Assignment
    budget: int
    targets: tuple[int, int, int]
    population_inline: dict[str, Any] | None = None
    population_path: str | None = None

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "kind": "instance",
            "items": list(self.items.items),
            "methods": _methods_to_obj(self.methods),
            "vertices": list(self.vertices),
            "arcs": [[t, h, l] for t, h, l in self.arcs],
            "roles": {u: sorted(r) for u, r in self.roles.items()},
            "categories": [sorted(c) for c in self.categories],
            "initial": _labels_to_obj(self.initial),
            "budget": self.budget,
            "targets": list(self.targets),
        }
        if self.population_inline is not None:
            obj["population"] = self.population_inline
        if self.population_path is not None:
            obj["population_path"] = self.population_path
        return obj

    @staticmethod
    def from_obj(obj: Mapping[str, Any]) -> "InstanceDoc":
        doc = InstanceDoc(
            items=ItemUniverse(tuple(int(i) for i in obj["items"])),
            methods=_methods_from_obj(obj["methods"]),
            vertices=tuple(str(v) for v in obj["vertices"]),
            arcs=tuple((str(t), str(h), int(l)) for t, h, l in obj["arcs"]),
            roles={str(u): tuple(sorted(int(i) for i in r)) for u, r in obj["roles"].items()},
            categories=tuple(tuple(sorted(int(i) for i in c)) for c in obj["categories"]),
            initial=assignment_from_obj(obj["initial"]),
            budget=int(obj["budget"]),
            targets=tuple(int(t) for t in obj["targets"]),
            population_inline=obj.get("population"),
            population_path=obj.get("population_path"),
        )
        if len(doc.targets) != 3:
            raise ValueError("targets must have exactly three entries")
        if doc.population_inline is None and doc.population_path is None:
            raise ValueError("needs either population or population_path")
        if not isinstance(doc.population_path, (str, type(None))):
            raise ValueError("population_path must be a string")
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

    def instance(self, pop: Population) -> Instance:
        """Assemble the instance over ``pop``, which must use the doc's universes.

        Candidate families are built from the initial labels through the
        neighborhood, category, and role pipeline.
        """
        if pop.items != self.items:
            raise InputError("population item universe differs from the instance's")
        if pop.methods != self.methods:
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
        for u, role in self.roles.items():
            if not set(role) <= set(pop.items):
                raise InputError(f"role at {u} names an item outside the universe")
        initial = self.initial
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

    def build(self, path: Path) -> Instance:
        """Load the doc's population and assemble the instance over it.

        ``path`` is the instance file: a relative population path is looked
        up beside it, and a construction error names it.
        """
        pop = self.load_population(path.parent)
        try:
            return self.instance(pop)
        except InputError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def instance_doc_from_template(doc: InstanceDoc, population_path: str | None = None) -> InstanceDoc:
    """A shipped instance referencing a population file, ready to write."""
    return replace(doc, population_path=population_path)


def read_instance_doc(path: str | Path) -> InstanceDoc:
    return _read_doc(path, "instance", InstanceDoc.from_obj)


def read_instance(path: str | Path) -> Instance:
    p = resolve_path(path)
    return read_instance_doc(p).build(p)


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
        obj["assignment"] = _labels_to_obj(sol.assignment)
    return obj


def write_report(sol: Solution, solver_name: str, path: str | Path) -> None:
    write_text(path, dump_canonical(report_to_obj(sol, solver_name)))
