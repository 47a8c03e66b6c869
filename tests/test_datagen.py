"""Population generation: sampling, binarization, aggregation."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import (
    binarize,
    evaluate_predicate,
    every_op_genconfig,
    population_doc,
    reference_population,
    sample_raw,
)
from diagopt import datagen
from diagopt.core import InputError
from diagopt.datagen import (
    PREDICATE_OPS,
    Categorical,
    GenConfig,
    Predicate,
    ThresholdTable,
    TruncatedNormal,
    binarize_columns,
    default_attribute_specs,
    default_threshold_table,
    generate_population,
    sample_response,
)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def truncated_tail_oracle(lo: float, hi: float, mean: float, sd: float, cut: float) -> float:
    """P(value >= cut) for a normal restricted to [lo, hi], by the CDF."""
    a, b = normal_cdf((lo - mean) / sd), normal_cdf((hi - mean) / sd)
    c = normal_cdf((cut - mean) / sd)
    return (b - c) / (b - a)


def raw_with(**overrides: float) -> dict[str, float]:
    values = {spec.name: 0.0 for spec in default_attribute_specs()}
    values["urine_protein"] = 1.0
    values.update(overrides)
    return values


def columns_of(*raws: dict[str, float]) -> dict[str, np.ndarray]:
    """Raw records as the attribute columns ``binarize_columns`` reads."""
    return {a: np.array([raw[a] for raw in raws], dtype=object) for a in raws[0]}


def binarized(raw: dict[str, float]) -> tuple[int, ...]:
    """One record's item bits over whole columns, checked against conftest's scalar ``binarize``."""
    tbl = default_threshold_table()
    x = tuple(binarize_columns(columns_of(raw), tbl)[0].astype(int).tolist())
    assert x == binarize(raw, tbl)
    return x


class TestSpecValidation:
    def test_sd_must_be_positive(self):
        with pytest.raises(InputError):
            TruncatedNormal("a", 0, 10, 5, 0.0)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(InputError):
            TruncatedNormal("a", 10, 10, 5, 1.0)

    @pytest.mark.parametrize(
        "mean, sd", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (5.0, math.inf)]
    )
    def test_mean_and_sd_must_be_finite(self, mean, sd):
        # a NaN mean would otherwise spend RESAMPLE_CAP draws before failing
        with pytest.raises(InputError, match="must be finite"):
            TruncatedNormal("a", 0, 10, mean, sd)

    @pytest.mark.parametrize("upper", [6.0, 5.5, math.nan])
    def test_band_must_be_able_to_fire(self, upper):
        with pytest.raises(InputError, match="never fires"):
            Predicate("band", "hba1c", 6.0, upper)

    @pytest.mark.parametrize(
        "op, thresholds, message",
        [
            ("ge", {}, "needs threshold 'value'"),
            ("lt", {}, "needs threshold 'value'"),
            ("eq", {}, "needs threshold 'value'"),
            ("band", {"value": 6.0}, "needs threshold 'upper'"),
            ("band", {"upper": 6.5}, "needs threshold 'value'"),
            ("bit", {"value": 1.0}, "takes no threshold 'value'"),
            ("ge", {"value": 6.0, "upper": 7.0}, "takes no threshold 'upper'"),
        ],
    )
    def test_predicate_holds_exactly_the_thresholds_its_op_reads(self, op, thresholds, message):
        # a missing threshold would otherwise read as 0.0: "hba1c >= 0"
        with pytest.raises(InputError, match=message):
            Predicate(op, "hba1c", **thresholds)

    def test_categorical_probabilities_sum_to_one(self):
        with pytest.raises(InputError):
            Categorical("c", ((0, 0.5), (1, 0.6)))

    def test_response_prob_for_method_zero_rejected(self):
        with pytest.raises(InputError):
            GenConfig(n=1, seed=0, response_probs={0: 0.2})

    def test_response_prob_range_checked(self):
        with pytest.raises(InputError):
            GenConfig(n=1, seed=0, response_probs={1: 1.5})

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: Categorical("c", ((0, 1.5), (1, -0.5))),
                r"^c: probabilities must lie in \[0, 1\]$",
            ),
            (
                lambda: ThresholdTable(((1, Predicate("bit", "a")), (1, Predicate("bit", "b")))),
                "^threshold table defines an item more than once$",
            ),
            (lambda: GenConfig(n=-1, seed=0), "^record count must be >= 0$"),
            (
                lambda: GenConfig(n=1, seed=0, improvement_prob=1.5),
                r"^improvement probability must lie in \[0, 1\]$",
            ),
            (
                lambda: GenConfig(n=1, seed=0, response_probs={9: 0.5}),
                "^response probability for unknown method 9$",
            ),
            (
                # both specs would consume the stream, and the later one shadow the first
                lambda: GenConfig(
                    n=1,
                    seed=0,
                    specs=(*default_attribute_specs(), TruncatedNormal("egfr", 1, 500, 400, 1)),
                ),
                "^attribute 'egfr' is declared more than once$",
            ),
        ],
        ids=[
            "negative-probability",
            "duplicate-item",
            "negative-count",
            "improvement",
            "method",
            "duplicate-attribute",
        ],
    )
    def test_bad_values_rejected(self, build, message):
        with pytest.raises(InputError, match=message):
            build()


class TestSampleRaw:
    def test_bernoulli_frequency(self):
        rng = random.Random(123)
        spec = (Categorical.bernoulli("health_checkup_history", 0.551),)
        hits = sum(sample_raw(spec, rng)["health_checkup_history"] for _ in range(20000))
        assert abs(hits / 20000 - 0.551) < 0.01

    def test_truncation_bounds_hold(self):
        rng = random.Random(9)
        spec = (TruncatedNormal("egfr", 1, 500, 79.56, 14.54),)
        values = [sample_raw(spec, rng)["egfr"] for _ in range(5000)]
        assert all(1 <= v <= 500 for v in values)

    def test_tight_band_samples_inside(self):
        rng = random.Random(9)
        spec = (TruncatedNormal("x", 99.9, 100.1, 100.0, 5.0),)
        values = [sample_raw(spec, rng)["x"] for _ in range(200)]
        assert all(99.9 <= v <= 100.1 for v in values)

    def test_unreachable_band_raises(self):
        rng = random.Random(1)
        spec = (TruncatedNormal("x", 0.0, 1.0, 1e6, 1e-3),)
        with pytest.raises(InputError, match="^x: exceeded 1000000 rejection resamples$"):
            sample_raw(spec, rng)

    def test_consumes_specs_in_order(self):
        specs = (
            Categorical.bernoulli("a", 0.5),
            Categorical.bernoulli("b", 0.5),
        )
        one = sample_raw(specs, random.Random(42))
        two = sample_raw(specs, random.Random(42))
        assert one == two
        assert list(one) == ["a", "b"]


class TestBinarize:
    def test_hba1c_thresholds(self):
        x = binarized(raw_with(hba1c=6.7))
        assert [x[i] for i in (5, 6, 7, 8)] == [1, 1, 1, 1]
        assert [x[i] for i in (9, 10, 11)] == [0, 0, 0]

    def test_urine_protein_category_one(self):
        x = binarized(raw_with(urine_protein=1))
        assert x[18] == 1 and x[21] == 1
        assert [x[i] for i in (19, 20, 22, 23, 24)] == [0, 0, 0, 0, 0]

    def test_egfr_55(self):
        # every eGFR predicate evaluated at 55: <60, <90, >=30, and the
        # bands [30,60), [30,90), [45,60) hold; the rest do not
        x = binarized(raw_with(egfr=55))
        on = {i for i in range(25, 36) if x[i]}
        assert on == {28, 29, 30, 32, 33, 34}

    def test_direct_bits_pass_through(self):
        x = binarized(raw_with(diabetes_medication=1))
        assert x[44] == 1 and x[36] == 0

    @pytest.mark.parametrize("value", [2.0, float("inf"), float("nan")])
    def test_bit_attribute_outside_0_1_raises(self, value):
        with pytest.raises(InputError):
            binarize_columns(columns_of(raw_with(diabetes_medication=value)), default_threshold_table())

    def test_missing_attribute_raises(self):
        # the default thresholds read attributes this spec list does not draw
        with pytest.raises(InputError, match="which no spec draws"):
            GenConfig(n=1, seed=0, specs=(TruncatedNormal("hba1c", 3, 20, 5.19, 0.73),))

    def test_table_covers_49_items_once(self):
        tbl = default_threshold_table()
        assert tbl.item_ids == tuple(range(49))


class TestPredicateOps:
    # each op's test written out by hand, at value 6.0 and upper 6.5
    REFERENCE = {
        "ge": lambda v: v >= 6.0,
        "lt": lambda v: v < 6.0,
        "eq": lambda v: v == 6.0,
        "band": lambda v: 6.0 <= v < 6.5,
        "bit": lambda v: v == 1,
    }

    def test_every_op_has_a_reference(self):
        assert set(PREDICATE_OPS) == set(self.REFERENCE)

    @pytest.mark.parametrize("op", sorted(PREDICATE_OPS))
    def test_matches_the_reference_at_and_beside_each_threshold(self, op):
        thresholds = {"value": 6.0, "upper": 6.5}
        pred = Predicate(op, "a", **{f: thresholds[f] for f in PREDICATE_OPS[op][0]})
        points = {0.0, 1.0}
        if op != "bit":
            for t in thresholds.values():
                points |= {math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)}
        column = sorted(points)
        for v in column:
            assert evaluate_predicate(pred, {"a": v}) == int(self.REFERENCE[op](v)), v
        bits = PREDICATE_OPS[op][1](pred, np.array(column, dtype=object))
        assert bits.tolist() == [bool(self.REFERENCE[op](v)) for v in column]

    @pytest.mark.parametrize("v, bit", [(True, 1), (False, 0), (1, 1), (0.0, 0)])
    def test_bit_takes_any_value_equal_to_0_or_1(self, v, bit):
        # as a Python bool, ~True is -2: the check must not negate a scalar bitwise
        pred = Predicate("bit", "a")
        assert evaluate_predicate(pred, {"a": v}) == bit
        column = np.array([v, 1 - bit], dtype=object)
        assert PREDICATE_OPS["bit"][1](pred, column).tolist() == [bool(bit), not bit]


class TestSampleResponse:
    def test_zero_probabilities(self):
        cfg = GenConfig(n=1, seed=0, response_probs={1: 0.0, 2: 0.0, 3: 0.0})
        y, _ = sample_response(cfg, random.Random(3))
        assert y == (0, 0, 0, 0)

    def test_certain_probabilities(self):
        cfg = GenConfig(n=1, seed=0, response_probs={1: 1.0, 2: 1.0, 3: 1.0})
        y, _ = sample_response(cfg, random.Random(3))
        assert y == (0, 1, 1, 1)

    def test_empirical_mean_tracks_probability(self):
        cfg = GenConfig(n=1, seed=0)
        rng = random.Random(17)
        p1 = dict(cfg.response_probs)[1]
        hits = sum(sample_response(cfg, rng)[0][1] for _ in range(100_000))
        assert abs(hits / 100_000 - p1) < 0.01


class TestGeneratePopulation:
    def test_single_record(self):
        pop = generate_population(GenConfig(n=1, seed=5))
        assert len(pop) == 1
        assert pop.weights.tolist() == [1]

    @pytest.mark.parametrize("n", [0, 1, 10, 500])
    def test_weights_partition_the_records(self, n):
        pop = generate_population(GenConfig(n=n, seed=2))
        assert pop.total_weight == n

    def test_same_seed_is_identical(self):
        a = generate_population(GenConfig(n=300, seed=77))
        b = generate_population(GenConfig(n=300, seed=77))
        assert population_doc(a) == population_doc(b)

    def test_different_seeds_differ(self):
        a = generate_population(GenConfig(n=300, seed=1))
        b = generate_population(GenConfig(n=300, seed=2))
        assert population_doc(a) != population_doc(b)

    def test_duplicate_triples_are_aggregated(self):
        from diagopt.datagen import ThresholdTable

        # collapse X to a near-constant vector so duplicates actually occur
        tbl_entries = [e for e in default_threshold_table().entries if e[0] == 0]
        cfg = GenConfig(
            n=2000,
            seed=4,
            specs=(Categorical.bernoulli("health_checkup_history", 0.5),),
            thresholds=ThresholdTable(entries=tuple(tbl_entries)),
            response_probs={1: 0.0, 2: 0.0, 3: 0.0},
            improvement_prob=0.0,
        )
        pop = generate_population(cfg)
        assert len(pop) == 2
        assert pop.total_weight == 2000
        assert (pop.weights > 1).all()

    def test_item_invariants_across_population(self):
        pop = generate_population(GenConfig(n=2000, seed=13))
        up_pos = pop.items.index(21)
        hb = [pop.items.index(i) for i in (5, 6, 7, 8, 9, 10)]
        for x, y in zip(pop.x.tolist(), pop.y.tolist()):
            assert x[up_pos] == 1  # urine protein categories are all >= 1
            bits = [x[i] for i in hb]
            assert all(a >= b for a, b in zip(bits, bits[1:]))
            assert y[0] == 0

    def test_item8_frequency_tracks_cdf_oracle(self):
        pop = generate_population(GenConfig(n=20_000, seed=21))
        freq = sum(pop.weights[pop.x[:, 8]].tolist()) / pop.total_weight
        want = truncated_tail_oracle(3, 20, 5.19, 0.73, 6.5)
        assert abs(freq - want) < 0.01


class TestColumnwiseGeneration:
    """``generate_population`` against the record-by-record reference."""

    @pytest.mark.parametrize("seed", [7, 977, 20240601])
    @pytest.mark.parametrize("n", [0, 1, 120, 800])
    def test_equals_the_record_by_record_reference(self, n, seed):
        cfg = GenConfig(n=n, seed=seed)
        assert population_doc(generate_population(cfg)) == population_doc(reference_population(cfg))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_op_at_its_thresholds(self, seed):
        cfg = every_op_genconfig(800, seed)
        pop = generate_population(cfg)
        assert population_doc(pop) == population_doc(reference_population(cfg))
        columns = (pop.ids, pop.weights, pop.x, pop.y, pop.z)
        assert [c.dtype for c in columns] == [np.int64, np.int64, bool, bool, bool]


def _bit_config(n: int, seed: int, *specs, table: tuple[str, ...]) -> GenConfig:
    """A config of ``specs`` whose items read the attributes in ``table`` as bits."""
    entries = tuple((k, Predicate("bit", a)) for k, a in enumerate(table))
    return GenConfig(n=n, seed=seed, specs=specs, thresholds=ThresholdTable(entries))


def _error(cfg: GenConfig, draw=generate_population) -> str:
    with pytest.raises(InputError) as info:
        draw(cfg)
    return str(info.value)


class TestDrawErrorOrder:
    """A bad draw is reported as drawing record by record reports it."""

    def test_an_int_is_reported_as_drawn(self):
        cfg = _bit_config(5, 0, Categorical("b", ((2, 1.0),)), table=("b",))
        assert _error(cfg) == "bit attribute 'b' drew 2, expected 0 or 1"

    def test_the_earliest_record_is_named_before_table_order(self):
        # p's bits come first in the table, but q draws a bad value in an earlier record
        def cfg(q_bad):
            p = Categorical("p", ((0, 0.8), (7, 0.2)))
            q = Categorical("q", ((0, 0.8), (q_bad, 0.2)))
            return _bit_config(50, 1, p, q, table=("p", "q"))

        assert _error(cfg(1)) == "bit attribute 'p' drew 7, expected 0 or 1"
        assert _error(cfg(9)) == "bit attribute 'q' drew 9, expected 0 or 1"
        assert _error(cfg(9)) == _error(cfg(9), reference_population)

    def test_table_order_names_the_threshold_within_a_record(self):
        q, p = Categorical("q", ((9, 1.0),)), Categorical("p", ((7, 1.0),))
        cfg = _bit_config(3, 0, q, p, table=("p", "q"))
        assert _error(cfg) == "bit attribute 'p' drew 7, expected 0 or 1"

    @pytest.mark.parametrize(
        "seed, message",
        [(0, "t: exceeded 2 rejection resamples"), (2, "bit attribute 'b' drew 2, expected 0 or 1")],
        ids=["draw-error-first", "earlier-bad-bit"],
    )
    def test_a_failed_draw_comes_after_the_records_before_it(self, monkeypatch, seed, message):
        monkeypatch.setattr(datagen, "RESAMPLE_CAP", 2)

        def cfg(b_bad):
            b = Categorical("b", ((0, 0.9), (b_bad, 0.1)))
            t = TruncatedNormal("t", 0.0, 1.0, 0.0, 1.0)
            return _bit_config(40, seed, b, t, table=("b",))

        # the same stream with a valid bit table fails a draw
        assert _error(cfg(1)) == "t: exceeded 2 rejection resamples"
        assert _error(cfg(2)) == message == _error(cfg(2), reference_population)

    def test_a_non_bit_threshold_reads_any_value(self):
        # only a bit threshold requires a 0/1 draw: 2 is an ordinary value to ge and eq
        c = Categorical("c", ((0, 0.5), (2, 0.5)))
        thresholds = ThresholdTable(((0, Predicate("ge", "c", 1.0)), (1, Predicate("eq", "c", 2.0))))
        cfg = GenConfig(n=40, seed=3, specs=(c,), thresholds=thresholds)
        pop = generate_population(cfg)
        assert population_doc(pop) == population_doc(reference_population(cfg))
        assert pop.x.any(axis=0).tolist() == [True, True]

    def test_one_attribute_feeds_two_bit_thresholds(self):
        b = Categorical.bernoulli("b", 0.5)
        cfg = _bit_config(40, 4, b, table=("b", "b"))
        pop = generate_population(cfg)
        assert population_doc(pop) == population_doc(reference_population(cfg))
        assert pop.x[:, 0].tolist() == pop.x[:, 1].tolist() and pop.x[:, 0].any()

        c = Categorical.bernoulli("c", 0.5)
        bad = _bit_config(40, 4, Categorical("b", ((0, 0.8), (3, 0.2))), c, table=("c", "b", "b"))
        assert _error(bad) == "bit attribute 'b' drew 3, expected 0 or 1"
        assert _error(bad) == _error(bad, reference_population)
