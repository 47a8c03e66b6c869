"""Synthetic examinee populations: raw health attributes, item bits, responses.

Generation is a single seeded stream: per record, every attribute is drawn
in declaration order straight onto its own column, then a response vector
plus improvement bit are drawn. Each threshold is evaluated once over its
attribute's whole column into that item's bits (``binarize_columns``, the one
binarizer, which also reports a ``bit`` attribute that drew neither 0 nor 1).
Records with identical (X, Y, z) triples collapse into one weighted examinee
type.

Each attribute kind is one spec class with a ``kind`` tag and a ``draw``
(``ATTRIBUTE_KINDS``), each threshold op one ``PREDICATE_OPS`` entry; the
generator, ``Predicate`` and the genconfig codec in ``fileio`` read them.

The shipped attribute set models Japanese health-checkup screening data
(blood glucose, HbA1c, blood pressure, urine protein, eGFR, visit and
treatment history). Response and improvement probabilities are configurable
defaults, not estimates from any survey.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Mapping

import numpy as np

from .core import InputError, ItemUniverse, MethodUniverse, Population

RESAMPLE_CAP = 1_000_000


@dataclass(frozen=True)
class TruncatedNormal:
    """Normal(mean, sd) restricted to [lo, hi] by rejection."""

    kind: ClassVar[str] = "truncnormal"
    name: str
    lo: float
    hi: float
    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InputError(f"{self.name}: lo must be < hi")
        if not self.sd > 0:
            raise InputError(f"{self.name}: sd must be > 0")
        if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
            raise InputError(f"{self.name}: mean and sd must be finite")

    def draw(self, rng: random.Random) -> float:
        for _ in range(RESAMPLE_CAP):
            v = rng.gauss(self.mean, self.sd)
            if self.lo <= v <= self.hi:
                return v
        raise InputError(f"{self.name}: exceeded {RESAMPLE_CAP} rejection resamples")


@dataclass(frozen=True)
class Categorical:
    """Finite value table sampled by inverse CDF; covers Bernoulli bits as {0,1}."""

    kind: ClassVar[str] = "categorical"
    name: str
    table: tuple[tuple[float, float], ...]  # (value, probability) rows

    def __post_init__(self) -> None:
        total = sum(p for _, p in self.table)
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"{self.name}: probabilities sum to {total}, expected 1")
        if any(not 0.0 <= p <= 1.0 for _, p in self.table):
            raise InputError(f"{self.name}: probabilities must lie in [0, 1]")

    @staticmethod
    def bernoulli(name: str, p_one: float) -> "Categorical":
        return Categorical(name, ((0.0, 1.0 - p_one), (1.0, p_one)))

    def draw(self, rng: random.Random) -> float:
        u = rng.random()
        acc = 0.0
        for value, p in self.table:
            acc += p
            if u < acc:
                return value
        return self.table[-1][0]


AttributeSpec = TruncatedNormal | Categorical

# each attribute kind by the tag a generator config file gives it
ATTRIBUTE_KINDS = {c.kind: c for c in (TruncatedNormal, Categorical)}


# each predicate op: the threshold fields it reads, and its test of a whole
# column of raw values (an object array); a ``bit`` draw that is neither 0 nor 1
# is ``binarize_columns``' error
PREDICATE_OPS: dict[str, tuple[tuple[str, ...], Callable[["Predicate", Any], Any]]] = {
    "ge": (("value",), lambda pred, v: v >= pred.value),
    "lt": (("value",), lambda pred, v: v < pred.value),
    "eq": (("value",), lambda pred, v: v == pred.value),
    "band": (("value", "upper"), lambda pred, v: (v >= pred.value) & (v < pred.upper)),
    "bit": ((), lambda pred, v: v == 1),
}


@dataclass(frozen=True)
class Predicate:
    """Single-item test over raw attributes.

    Ops: ``ge`` (value >= threshold), ``lt`` (value < threshold), ``eq``
    (value == threshold), ``band`` (threshold <= value < upper, which needs
    threshold < upper), ``bit`` (the attribute is already a 0/1 draw). A
    predicate holds exactly the thresholds its op reads (see ``PREDICATE_OPS``).
    """

    op: str
    attr: str
    value: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        if self.op not in PREDICATE_OPS:
            raise InputError(f"unknown predicate op {self.op!r}")
        reads = PREDICATE_OPS[self.op][0]
        for f in ("value", "upper"):
            if (getattr(self, f) is None) == (f in reads):
                need = "needs" if f in reads else "takes no"
                raise InputError(f"{self.op} on {self.attr!r} {need} threshold {f!r}")
        if self.op == "band" and not self.value < self.upper:
            raise InputError(f"band on {self.attr!r} never fires: upper must be > value")


@dataclass(frozen=True)
class ThresholdTable:
    """Ordered item-id/predicate pairs; the order is the item-vector order."""

    entries: tuple[tuple[int, Predicate], ...]

    def __post_init__(self) -> None:
        ids = [i for i, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise InputError("threshold table defines an item more than once")

    @property
    def item_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)


@dataclass(frozen=True)
class GenConfig:
    """Record count, seed, and the tables a draw reads (the shipped ones by default)."""

    n: int
    seed: int
    specs: tuple[AttributeSpec, ...] = field(default_factory=lambda: default_attribute_specs())
    thresholds: ThresholdTable = field(default_factory=lambda: default_threshold_table())
    methods: MethodUniverse = field(default_factory=lambda: default_method_universe())
    response_probs: Mapping[int, float] = field(
        default_factory=lambda: dict(DEFAULT_RESPONSE_PROBS)
    )
    improvement_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("record count must be >= 0")
        if not 0.0 <= self.improvement_prob <= 1.0:
            raise InputError("improvement probability must lie in [0, 1]")
        if self.response_probs.get(self.methods.methods[0], 0.0) != 0.0:
            raise InputError("the no-suggestion method always has response probability 0")
        for m, p in self.response_probs.items():
            if m not in self.methods:
                raise InputError(f"response probability for unknown method {m}")
            if not 0.0 <= p <= 1.0:
                raise InputError(f"response probability for method {m} must lie in [0, 1]")
        drawn = Counter(spec.name for spec in self.specs)
        twice = next((name for name, k in drawn.items() if k > 1), None)
        if twice is not None:
            raise InputError(f"attribute {twice!r} is declared more than once")
        for item, pred in self.thresholds.entries:
            if pred.attr not in drawn:
                raise InputError(f"item {item} reads attribute {pred.attr!r}, which no spec draws")


def binarize_columns(columns: Mapping[str, np.ndarray], tbl: ThresholdTable) -> np.ndarray:
    """Evaluate every item predicate over whole attribute columns, one bool row per record.

    A column is an object array of the values as drawn, so each comparison is
    Python's own. A ``bit`` attribute that drew neither 0 nor 1 is an error
    naming the earliest record that holds one, at its first ``bit`` threshold
    in table order.
    """
    bits = [PREDICATE_OPS[pred.op][1](pred, columns[pred.attr]) for _, pred in tbl.entries]
    ones = {pred.attr: b for (_, pred), b in zip(tbl.entries, bits) if pred.op == "bit"}
    if ones:
        bad = np.column_stack([~(b | (columns[a] == 0)) for a, b in ones.items()])
        records = bad.any(axis=1)
        if records.any():
            r = int(records.argmax())
            a = list(ones)[int(bad[r].argmax())]
            raise InputError(f"bit attribute {a!r} drew {columns[a][r]}, expected 0 or 1")
    return np.column_stack(bits)


def sample_response(cfg: GenConfig, rng: random.Random) -> tuple[tuple[int, ...], int]:
    """Draw the response vector (method 0 pinned to 0) and the improvement bit."""
    probs = cfg.response_probs
    y = (0, *[int(rng.random() < probs.get(m, 0.0)) for m in cfg.methods.methods[1:]])
    return y, int(rng.random() < cfg.improvement_prob)


def generate_population(cfg: GenConfig) -> Population:
    """Draw ``cfg.n`` records and aggregate identical (X, Y, z) triples.

    Weights count the collapsed records, so they always sum to ``cfg.n``.
    Type ids follow first occurrence; the whole result is a pure function of
    the config.
    """
    items = ItemUniverse(cfg.thresholds.item_ids)

    rng = random.Random(cfg.seed)
    values: list[list[Any]] = [[] for _ in cfg.specs]
    draws = [(spec.draw, column.append) for spec, column in zip(cfg.specs, values)]
    responses: list[tuple[tuple[int, ...], int]] = []
    failed: InputError | None = None
    try:
        for _ in range(cfg.n):
            for draw, append in draws:
                append(draw(rng))
            responses.append(sample_response(cfg, rng))
    except InputError as exc:  # a bad bit in a record drawn before it is the error
        failed = exc
    n = len(responses)  # the records drawn in full
    columns = {spec.name: np.fromiter(c, dtype=object, count=n) for spec, c in zip(cfg.specs, values)}
    x = binarize_columns(columns, cfg.thresholds)
    if failed is not None:
        raise failed
    yz = np.array([(*y, z) for y, z in responses], dtype=np.uint8)
    del values, draws, columns, responses  # free the draws before the rows are aggregated: a lower peak
    rows = np.hstack((x, yz.reshape(cfg.n, len(cfg.methods) + 1)))
    width, buf = rows.shape[1], rows.tobytes()
    weights = Counter(buf[k:k + width] for k in range(0, len(buf), width))
    unique = np.frombuffer(b"".join(weights), dtype=np.uint8).reshape(-1, width).astype(bool)
    ids = np.arange(len(unique), dtype=np.int64)
    counts = np.fromiter(weights.values(), dtype=np.int64, count=len(unique))
    x, y, z = np.split(unique, [len(items), width - 1], axis=1)
    return Population(items, cfg.methods, ids, counts, x, y, z[:, 0])


def default_method_universe() -> MethodUniverse:
    """No suggestion, mail, telephone, mail and telephone."""
    return MethodUniverse(methods=(0, 1, 2, 3), costs=(0, 200, 500, 700))


DEFAULT_RESPONSE_PROBS: tuple[tuple[int, float], ...] = ((1, 0.3), (2, 0.5), (3, 0.6))


def default_attribute_specs() -> tuple[AttributeSpec, ...]:
    """The shipped screening attributes with their marginal distributions."""
    return (
        Categorical.bernoulli("health_checkup_history", 0.551),
        TruncatedNormal("fasting_blood_glucose", 20, 600, 97.78, 21.8),
        Categorical(
            "casual_blood_glucose",
            ((120, 0.889), (130, 0.039), (170, 0.052), (210, 0.020)),
        ),
        TruncatedNormal("hba1c", 3, 20, 5.19, 0.73),
        TruncatedNormal("diastolic_bp", 30, 150, 75.45, 12.15),
        TruncatedNormal("systolic_bp", 60, 300, 120.63, 17.11),
        Categorical(
            "urine_protein",
            ((1, 0.853), (2, 0.100), (3, 0.034), (4, 0.010), (5, 0.003)),
        ),
        TruncatedNormal("egfr", 1, 500, 79.56, 14.54),
        Categorical.bernoulli("diabetes_medical_history", 0.170),
        Categorical.bernoulli("diabetes_treatment_ongoing", 0.112),
        Categorical.bernoulli("diabetes_visit_this_year", 0.112),
        Categorical.bernoulli("diabetes_visit_previous_year", 0.112),
        Categorical.bernoulli("diabetes_visit_two_years_back", 0.112),
        Categorical.bernoulli("diabetes_no_visit_after_checkup", 0.888),
        Categorical.bernoulli("diabetes_treatment_interruption", 0.058),
        Categorical.bernoulli("diabetes_medication", 0.081),
        Categorical.bernoulli("hypertension_visit_this_year", 0.132),
        Categorical.bernoulli("hypertension_visit_previous_year", 0.132),
        Categorical.bernoulli("hypertension_visit_after_checkup", 0.132),
        Categorical.bernoulli("hypertension_treatment_interruption", 0.164),
        Categorical.bernoulli("medical_institution_visit", 0.294),
    )


def default_threshold_table() -> ThresholdTable:
    """Item definitions for the 49-item universe."""
    ge = lambda attr, v: Predicate("ge", attr, v)
    lt = lambda attr, v: Predicate("lt", attr, v)
    eq = lambda attr, v: Predicate("eq", attr, v)
    band = lambda attr, lo, hi: Predicate("band", attr, lo, hi)
    bit = lambda attr: Predicate("bit", attr)

    entries: list[tuple[int, Predicate]] = [
        (0, bit("health_checkup_history")),
        (1, ge("fasting_blood_glucose", 126)),
        (2, ge("fasting_blood_glucose", 130)),
        (3, ge("casual_blood_glucose", 126)),
        (4, ge("casual_blood_glucose", 200)),
        (5, ge("hba1c", 5.6)),
        (6, ge("hba1c", 6.0)),
        (7, ge("hba1c", 6.2)),
        (8, ge("hba1c", 6.5)),
        (9, ge("hba1c", 7.0)),
        (10, ge("hba1c", 8.0)),
        (11, band("hba1c", 6.0, 6.5)),
        (12, ge("diastolic_bp", 90)),
        (13, ge("diastolic_bp", 100)),
        (14, ge("diastolic_bp", 160)),
        (15, ge("systolic_bp", 130)),
        (16, ge("systolic_bp", 140)),
        (17, ge("systolic_bp", 160)),
        (18, eq("urine_protein", 1)),
        (19, eq("urine_protein", 2)),
        (20, eq("urine_protein", 3)),
        (21, ge("urine_protein", 1)),
        (22, ge("urine_protein", 2)),
        (23, ge("urine_protein", 3)),
        (24, ge("urine_protein", 4)),
        (25, lt("egfr", 30)),
        (26, lt("egfr", 45)),
        (27, lt("egfr", 50)),
        (28, lt("egfr", 60)),
        (29, lt("egfr", 90)),
        (30, ge("egfr", 30)),
        (31, band("egfr", 30, 45)),
        (32, band("egfr", 30, 60)),
        (33, band("egfr", 30, 90)),
        (34, band("egfr", 45, 60)),
        (35, band("egfr", 60, 90)),
        (36, bit("diabetes_visit_this_year")),
        (37, bit("diabetes_treatment_ongoing")),
        (38, bit("diabetes_visit_previous_year")),
        (39, bit("diabetes_visit_two_years_back")),
        (40, bit("diabetes_no_visit_after_checkup")),
        (41, bit("hypertension_visit_this_year")),
        (42, bit("hypertension_visit_previous_year")),
        (43, bit("hypertension_visit_after_checkup")),
        (44, bit("diabetes_medication")),
        (45, bit("medical_institution_visit")),
        (46, bit("diabetes_medical_history")),
        (47, bit("diabetes_treatment_interruption")),
        (48, bit("hypertension_treatment_interruption")),
    ]
    return ThresholdTable(entries=tuple(entries))
