"""Stable JSON formats for populations, instances, assignments, generator
configs, and reports.

One structured-text format for everything, canonically serialized (sorted
keys, two-space indent, sorted item lists) so that write -> read -> write is
byte-identical and files diff cleanly. Assignments (an ``assignment``
document or a solve report's ``assignment`` block) and generator configs are
only read. A block several formats share has one codec: methods
(``_methods_to_obj`` / ``_methods_from_obj``) and assignment labels
(``_labels_to_obj`` / ``_labels_from_obj``). Every reader goes
through ``_from_doc``, so a schema error is one ``InputError`` naming the file,
and reads integer fields through ``_int``, which rejects a float or a bool
instead of truncating it, and real fields through ``_float``, which rejects a
string, a bool or a non-finite number. Every reader also rejects a key its
objects do not declare (``_declared_keys``). Populations, the largest
documents, are read in one pass into numpy columns and written from a
per-type template, byte for byte what ``dump_canonical`` gives for their
document.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from itertools import chain, compress
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

import numpy as np

from .candidates import build_family
from .core import (
    Arc,
    Assignment,
    Diagram,
    InputError,
    ItemUniverse,
    MethodUniverse,
    Population,
    Vertex,
)
from .datagen import (
    ATTRIBUTE_KINDS,
    AttributeSpec,
    GenConfig,
    Predicate,
    ThresholdTable,
)
from .problem import Instance, Solution

CONFIG_DIR_ENV = "DIAGOPT_CONFIG_DIR"

_Doc = TypeVar("_Doc")


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
    # ValueError covers bad JSON and bytes that are not UTF-8
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{p}: invalid JSON ({exc})") from exc


def write_text(path: str | Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _from_doc(
    obj: Any, kind: str, from_obj: Callable[[Mapping[str, Any]], _Doc], where: str | Path
) -> _Doc:
    """Parse a document of ``kind``: any schema error is an InputError naming ``where``."""
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise InputError(f"{where}: not a document of kind {kind!r}")
    try:
        return from_obj(obj)
    except KeyError as exc:
        raise InputError(f"{where}: malformed {kind} document (missing key {exc})") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: malformed {kind} document ({exc})") from exc


def _read_doc(
    path: str | Path, kind: str, from_obj: Callable[[Mapping[str, Any]], _Doc]
) -> _Doc:
    return _from_doc(load_json(path), kind, from_obj, path)


# ----------------------------------------------------------------------
# shared blocks
# ----------------------------------------------------------------------


def _int(value: Any) -> int:
    """A JSON integer field: a float or a bool is an error, never truncated."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _int_key(key: str) -> int:
    """A JSON object key naming an integer id, written exactly as ``str(id)``."""
    if str(int(key)) != key:
        raise ValueError(f"{key!r} is not an integer key")
    return int(key)


def _float(value: Any) -> float:
    """A JSON real field: a finite number; a string or a bool is an error."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _list(value: Any, what: str) -> list[Any]:
    """A JSON array field: an object is an error, never read as its keys."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list")
    return value


def _positions(ids: Any, positions: dict[int, int], what: str) -> list[int]:
    """The positions of a type's ``x1`` or ``y1`` ids, each inside the universe."""
    try:
        return [positions[_int(i)] for i in ids]
    except KeyError:
        # every id is checked to be an integer before any is checked to lie inside
        outside = set(map(_int, ids)) - positions.keys()
        raise ValueError(f"{what} {min(outside)} outside the universe") from None


def _int64s(values: tuple[int, ...], what: str) -> np.ndarray:
    """An int64 column of ``values``; a value int64 cannot hold is an error, never wrapped."""
    for v in values:
        if not -(2**63) <= v < 2**63:
            raise ValueError(f"{what} {v} does not fit in 64 bits")
    return np.array(values, dtype=np.int64)


def _scatter(rows: tuple[list[int], ...], width: int) -> np.ndarray:
    """A bool matrix of ``width`` columns, True in row ``t`` where ``rows[t]`` lists."""
    m = np.zeros((len(rows), width), dtype=bool)
    m[np.repeat(np.arange(len(rows)), list(map(len, rows))), list(chain.from_iterable(rows))] = True
    return m


def _declared_keys(obj: Mapping[str, Any], keys: frozenset[str]) -> None:
    """Reject the first key of ``obj`` outside ``keys``, the object's required
    and optional keys. Called once the object is read, so that a missing key
    or a bad value is the error a document with both reports."""
    if not obj.keys() <= keys:
        raise ValueError(f"unexpected key {next(k for k in obj if k not in keys)!r}")


def _methods_to_obj(methods: MethodUniverse) -> list[list[int]]:
    return [[m, c] for m, c in zip(methods.methods, methods.costs)]


def _methods_from_obj(rows: Any) -> MethodUniverse:
    return MethodUniverse(
        methods=tuple(_int(m) for m, _ in rows),
        costs=tuple(_int(c) for _, c in rows),
    )


def _labels_to_obj(phi: Assignment) -> dict[str, Any]:
    return {
        "nodes": {u: sorted(c) for u, c in phi.node_items.items()},
        "sinks": dict(phi.sink_methods),
    }


_LABEL_KEYS = frozenset(("nodes", "sinks"))


def _labels_from_obj(obj: Mapping[str, Any]) -> Assignment:
    """The assignment an object's ``nodes`` and ``sinks`` labels describe."""
    return Assignment.build(
        {str(u): (_int(i) for i in _list(c, f"label at {u}")) for u, c in obj["nodes"].items()},
        {str(s): _int(m) for s, m in obj["sinks"].items()},
    )


def assignment_from_obj(obj: Mapping[str, Any]) -> Assignment:
    """The labels of an object holding no key but ``kind`` and its labels."""
    phi = _labels_from_obj(obj)
    _declared_keys(obj, _LABEL_KEYS | {"kind"})
    return phi


# ----------------------------------------------------------------------
# populations
# ----------------------------------------------------------------------


_POPULATION_KEYS = frozenset(("kind", "items", "methods", "types"))
_TYPE_KEYS = frozenset(("id", "weight", "x1", "y1", "z"))


def population_from_obj(obj: Mapping[str, Any]) -> Population:
    """One pass checks each type in document order; ``x`` and ``y`` are then
    scattered from the types' id positions at once."""
    items = ItemUniverse(tuple(map(_int, obj["items"])))
    methods = _methods_from_obj(obj["methods"])
    types = []
    for row in _list(obj["types"], "types"):
        xs = _positions(_list(row["x1"], "x1"), items.positions, "item")
        ys = _positions(_list(row["y1"], "y1"), methods.positions, "method")
        tid, weight, z = _int(row["id"]), _int(row["weight"]), _int(row["z"])
        if weight < 1:
            raise ValueError(f"type {tid}: weight must be >= 1")
        if z not in (0, 1):
            raise ValueError(f"type {tid}: z must be 0 or 1")
        _declared_keys(row, _TYPE_KEYS)
        types.append((tid, weight, xs, ys, z))
    _declared_keys(obj, _POPULATION_KEYS)
    ids, weights, xs, ys, zs = zip(*types) if types else ((),) * 5
    ids, weights = _int64s(ids, "type id"), _int64s(weights, "weight")
    x, y = _scatter(xs, len(items)), _scatter(ys, len(methods))
    return Population(items, methods, ids, weights, x, y, np.array(zs, dtype=bool))


def _sorted_ids(ids: tuple[Any, ...]) -> tuple[list[str], list[int]]:
    """Each id of a universe as a JSON token, in sorted-id order, and the
    universe positions in that order."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [json.dumps(ids[k]) for k in order], order


def _json_ids(tokens: list[str]) -> str:
    """A type's ``x1`` or ``y1`` list as ``dump_canonical`` indents it."""
    return "[\n        " + ",\n        ".join(tokens) + "\n      ]" if tokens else "[]"


# each field as its integer, a bool z as 0 or 1
_TYPE_TEMPLATE = """    {{
      "id": {:d},
      "weight": {:d},
      "x1": {},
      "y1": {},
      "z": {:d}
    }}"""


def write_population(pop: Population, path: str | Path) -> None:
    """Write ``dump_canonical`` of the population's document, each type from one template."""
    doc = dump_canonical({
        "kind": "population",
        "items": list(pop.items.items),
        "methods": _methods_to_obj(pop.methods),
        "types": [],
    })
    if len(pop):
        item_tokens, item_order = _sorted_ids(pop.items.items)
        method_tokens, method_order = _sorted_ids(pop.methods.methods)
        columns = (pop.ids, pop.weights, pop.x[:, item_order], pop.y[:, method_order], pop.z)
        rows = [
            _TYPE_TEMPLATE.format(
                tid,
                weight,
                _json_ids(list(compress(item_tokens, x))),
                _json_ids(list(compress(method_tokens, y))),
                z,
            )
            for tid, weight, x, y, z in zip(*(c.tolist() for c in columns))
        ]
        doc = doc[: -len("[]\n}\n")] + "[\n" + ",\n".join(rows) + "\n  ]\n}\n"
    write_text(path, doc)


def read_population(path: str | Path) -> Population:
    return _read_doc(path, "population", population_from_obj)


# ----------------------------------------------------------------------
# assignments
# ----------------------------------------------------------------------


# a report document's keys: the solution's fields, its objective value as
# "objective", and the solver's name
_REPORT_KEYS = frozenset(f.name for f in fields(Solution)) - {"objective_value"}
_REPORT_KEYS |= {"kind", "objective", "solver"}


def _report_labels(obj: Mapping[str, Any]) -> Assignment:
    """The labels of a report's ``assignment`` block."""
    phi = _labels_from_obj(obj["assignment"])
    _declared_keys(obj["assignment"], _LABEL_KEYS)
    _declared_keys(obj, _REPORT_KEYS)
    return phi


def read_assignment(path: str | Path) -> Assignment:
    """The labels of an ``assignment`` document, or of a solve report's
    ``assignment`` block, which only a solve that found an incumbent writes."""
    obj = load_json(path)
    if isinstance(obj, dict) and obj.get("kind") == "report":
        if "assignment" not in obj:
            raise InputError(f"{path}: report holds no assignment (status {obj.get('status')!r})")
        return _from_doc(obj, "report", _report_labels, path)
    return _from_doc(obj, "assignment", assignment_from_obj, path)


# ----------------------------------------------------------------------
# generator configs
# ----------------------------------------------------------------------


# the reader of each field type an attribute spec class declares
_SPEC_FIELDS: dict[str, Callable[[Any], Any]] = {
    "str": str,
    "float": _float,
    "tuple[tuple[float, float], ...]": lambda rows: tuple((_float(v), _float(p)) for v, p in rows),
}


def _attribute_from_obj(obj: Mapping[str, Any]) -> AttributeSpec:
    kind, name = obj["kind"], str(obj["name"])
    if kind not in ATTRIBUTE_KINDS:
        raise ValueError(f"attribute {name}: unknown kind {kind!r}")
    cls = ATTRIBUTE_KINDS[kind]
    spec = cls(**{f.name: _SPEC_FIELDS[f.type](obj[f.name]) for f in fields(cls)})
    _declared_keys(obj, frozenset(f.name for f in fields(cls)) | {"kind"})
    return spec


# a predicate object's keys: the predicate's fields
_PREDICATE_KEYS = frozenset(f.name for f in fields(Predicate))


def _predicate_from_obj(obj: Mapping[str, Any]) -> Predicate:
    """A predicate with every threshold the file gives; ``Predicate``
    rejects a missing or an extra one."""
    thresholds = {f: _float(obj[f]) for f in ("value", "upper") if f in obj}
    pred = Predicate(op=str(obj["op"]), attr=str(obj["attr"]), **thresholds)
    _declared_keys(obj, _PREDICATE_KEYS)
    return pred


# a genconfig document's keys: the config's fields but the record count and
# seed, which the command line gives, with the specs as "attributes"
_GENCONFIG_KEYS = frozenset(f.name for f in fields(GenConfig)) - {"n", "seed", "specs"}
_GENCONFIG_KEYS |= {"kind", "attributes"}


def _genconfig_from_obj(obj: Mapping[str, Any]) -> GenConfig:
    cfg = GenConfig(
        n=0,
        seed=0,
        specs=tuple(_attribute_from_obj(a) for a in obj["attributes"]),
        thresholds=ThresholdTable(
            tuple((_int(item), _predicate_from_obj(p)) for item, p in obj["thresholds"])
        ),
        methods=_methods_from_obj(obj["methods"]),
        response_probs={_int_key(m): _float(p) for m, p in obj["response_probs"].items()},
        improvement_prob=_float(obj["improvement_prob"]),
    )
    _declared_keys(obj, _GENCONFIG_KEYS)
    return cfg


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
            items=ItemUniverse(tuple(map(_int, obj["items"]))),
            methods=_methods_from_obj(obj["methods"]),
            vertices=tuple(str(v) for v in _list(obj["vertices"], "vertices")),
            arcs=tuple((str(t), str(h), _int(l)) for t, h, l in obj["arcs"]),
            roles={
                str(u): tuple(sorted(map(_int, _list(r, f"role of {u}"))))
                for u, r in obj["roles"].items()
            },
            categories=tuple(
                tuple(sorted(map(_int, _list(c, "a category"))))
                for c in _list(obj["categories"], "categories")
            ),
            initial=_labels_from_obj(obj["initial"]),
            budget=_int(obj["budget"]),
            targets=tuple(map(_int, obj["targets"])),
            population_inline=obj.get("population"),
            population_path=obj.get("population_path"),
        )
        if len(doc.targets) != 3:
            raise ValueError("targets must have exactly three entries")
        if (doc.population_inline is None) == (doc.population_path is None):
            raise ValueError("needs exactly one of population and population_path")
        if not isinstance(doc.population_path, (str, type(None))):
            raise ValueError("population_path must be a string")
        _declared_keys(obj["initial"], _LABEL_KEYS)
        _declared_keys(obj, _INSTANCE_KEYS)
        return doc

    def load_population(self, path: Path) -> Population:
        """The doc's population; ``path`` is the instance file (see ``build``)."""
        if self.population_inline is not None:
            where = f"{path} (inline population)"
            return _from_doc(self.population_inline, "population", population_from_obj, where)
        assert self.population_path is not None
        p = Path(self.population_path)
        if not p.is_absolute() and (path.parent / p).exists():
            p = path.parent / p
        return read_population(p)

    def instance(self, pop: Population) -> Instance:
        """Assemble the instance over ``pop``, which must use the doc's universes.

        Each internal vertex's candidate family is built from its deployed
        label, its role and the item categories (see ``build_family``).
        """
        if pop.items != self.items:
            raise InputError("population item universe differs from the instance's")
        if pop.methods != self.methods:
            raise InputError("population method universe differs from the instance's")
        diagram = Diagram(
            vertices=self.vertices,
            arcs=tuple(Arc(t, h, l) for t, h, l in self.arcs),
        )
        if set(self.roles) != set(diagram.internals):
            raise InputError("roles must cover exactly the internal vertices")
        universe = set(pop.items)
        for k, category in enumerate(self.categories):
            if not set(category) <= universe:
                raise InputError(f"category {k} names an item outside the universe")
        initial = self.initial
        if not initial.covers(diagram):
            raise InputError("initial labels must cover exactly the diagram's vertices")
        categories = [frozenset(c) for c in self.categories]
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
        pop = self.load_population(path)
        try:
            return self.instance(pop)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc


# an instance document's keys: the doc's fields, the inline population as "population"
_INSTANCE_KEYS = frozenset(f.name for f in fields(InstanceDoc)) - {"population_inline"}
_INSTANCE_KEYS |= {"kind", "population"}


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
        "stats": asdict(sol.stats),
    }
    if sol.metrics is not None:
        obj["metrics"] = sol.metrics._asdict()
    if sol.assignment is not None:
        obj["assignment"] = _labels_to_obj(sol.assignment)
    return obj


def write_report(sol: Solution, solver_name: str, path: str | Path) -> None:
    write_text(path, dump_canonical(report_to_obj(sol, solver_name)))
