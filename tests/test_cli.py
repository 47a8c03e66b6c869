"""Command-line workflows and the stable file formats behind them."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagopt import datagen
from diagopt.cli import main
from diagopt.core import (
    Assignment,
    InputError,
    ItemUniverse,
    MethodUniverse,
    evaluate,
)
from diagopt.datagen import GenConfig, generate_population
from diagopt.encoder import build_model
from diagopt.fileio import (
    InstanceDoc,
    dump_canonical,
    read_instance,
    read_genconfig,
    read_instance_doc,
    read_population,
    write_population,
)
from diagopt.instances import instance_template
from diagopt.solver import solve
from conftest import (
    assignment_doc,
    every_op_genconfig,
    genconfig_doc,
    population_doc,
    population_from_rows,
    reference_population,
    write_assignment,
)
from lp_reader import parse_lp

# sha256 of the files `generate --seed 7 --n 120` and `make-instance` write,
# of instance 1's initial labels as an assignment file, and of the setting 3
# report on instance 1 without its "stats" block (which holds a wall time)
PINNED_JSON_SHA256 = {
    "pop.json": "1d018b527f2543d572293aacdf7f43989ab1686999089993911d9caaaf467878",
    "inst1.json": "9e04ea71b9f640d6330a819d86e8753a780b6cae3569ae7b2d0ae3611372b1ce",
    "inst2.json": "d4a08f382d94fe2f6a4c7fa6cd30a2e4930359657508d388ca3868df6eac86dc",
    "inst3.json": "3dc635da43996c141244917df887a981ab096397c9fd434ea49a4b962d297f0d",
    "assignment.json": "aa570691a588830cf8f45b436b926d6e6e50e63e5ff9a4ce2c82ffb767dfa502",
    "report.json": "2a88f1b10f5f88267a04c200379fadad46831b53b8059110c52745055f551d58",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    pop_path = tmp_path / "pop.json"
    inst_path = tmp_path / "inst1.json"
    assert main(["generate", "--seed", "5", "--n", "120", "--out", str(pop_path)]) == 0
    assert main([
        "make-instance", "--id", "1",
        "--population", str(pop_path), "--out", str(inst_path),
    ]) == 0
    return tmp_path, pop_path, inst_path


def toy_docs(population_path: str | None = None) -> dict:
    """A hand-written toy instance small enough for the enumeration oracle,
    with its population inline or at ``population_path``, and an assignment.
    """
    from conftest import tiny_instance

    inst = tiny_instance(budget=10**6, weights=(2, 5), positive=({0}, set()),
                         responds=({1}, {2}), improves=(1, 0))
    pop = population_doc(inst.population)
    doc = InstanceDoc(
        items=ItemUniverse((0, 1)),
        methods=MethodUniverse(methods=(0, 1, 2, 3), costs=(0, 200, 400, 600)),
        vertices=("r", "s0", "s1"),
        arcs=(("r", "s0", 0), ("r", "s1", 1)),
        roles={"r": (0, 1)},
        categories=(),
        initial=Assignment.build({"r": (0,)}, {"s0": 0, "s1": 1}),
        budget=10**6,
        targets=(3, 1, 1),
        population_inline=None if population_path else pop,
        population_path=population_path,
    )
    return {
        "instance": doc.to_obj(),
        "population": pop,
        "assignment": assignment_doc(doc.initial),
    }


@pytest.fixture(scope="module")
def toy_instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("toy") / "toy.json"
    path.write_text(dump_canonical(toy_docs()["instance"]))
    return path


class TestGenerate:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--seed", "7", "--n", "500", "--out", str(a)]) == 0
        assert main(["generate", "--seed", "7", "--n", "500", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        out = capsys.readouterr().out
        assert "|T| =" in out and "total weight = 500" in out

    def test_empty_population_warns(self, tmp_path, capsys):
        out_path = tmp_path / "empty.json"
        assert main(["generate", "--seed", "1", "--n", "0", "--out", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        pop = read_population(out_path)
        assert len(pop) == 0 and pop.total_weight == 0

    def test_reported_counts_match_file(self, tmp_path, capsys):
        out_path = tmp_path / "p.json"
        main(["generate", "--seed", "3", "--n", "1000", "--out", str(out_path)])
        pop = read_population(out_path)
        out = capsys.readouterr().out
        assert f"|T| = {len(pop)}" in out
        assert pop.total_weight == 1000

    def test_default_genconfig_file_gives_the_same_bytes(self, tmp_path):
        cfg_path = tmp_path / "genconfig.json"
        cfg_path.write_text(dump_canonical(genconfig_doc(GenConfig(0, 0))))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--seed", "7", "--n", "300", "--out", str(a)]) == 0
        assert main([
            "generate", "--config", str(cfg_path), "--seed", "7", "--n", "300", "--out", str(b),
        ]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestJsonBytes:
    def test_json_bytes_are_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--seed", "7", "--n", "120", "--out", "pop.json"]) == 0
        for iid in (1, 2, 3):
            assert main([
                "make-instance", "--id", str(iid), "--population", "pop.json",
                "--out", f"inst{iid}.json",
            ]) == 0
        write_assignment(read_instance("inst1.json").initial, "assignment.json")
        assert main([
            "solve", "--instance", "inst1.json", "--setting", "3", "--out", "report.json",
        ]) == 0
        report = json.loads(Path("report.json").read_text())
        del report["stats"]
        Path("report.json").write_text(dump_canonical(report))
        got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in PINNED_JSON_SHA256}
        assert got == PINNED_JSON_SHA256


class TestPopulationFiles:
    """``write_population`` writes exactly ``dump_canonical`` of the reference document."""

    @staticmethod
    def written(pop, tmp_path) -> bytes:
        path = tmp_path / "pop.json"
        write_population(pop, path)
        assert path.read_bytes() == dump_canonical(population_doc(pop)).encode("utf-8")
        return path.read_bytes()

    @pytest.mark.parametrize("seed", [7, 977, 20240601])
    @pytest.mark.parametrize("n", [0, 1, 120, 800])
    def test_generated_populations(self, tmp_path, n, seed):
        pop = generate_population(GenConfig(n=n, seed=seed))
        self.written(pop, tmp_path)
        assert population_doc(read_population(tmp_path / "pop.json")) == population_doc(pop)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_op_population_over_unsorted_items(self, tmp_path, seed):
        pop = generate_population(every_op_genconfig(800, seed))
        self.written(pop, tmp_path)
        assert population_doc(read_population(tmp_path / "pop.json")) == population_doc(pop)

    def test_empty_lists_and_bool_fields(self, tmp_path):
        # the bool columns are written as 0/1, so every written population reads back
        pop = population_from_rows(
            ItemUniverse((3, 1, 2)),
            MethodUniverse(methods=(0, 1), costs=(0, 5)),
            [(0, 2, (0, 0, 0), (0, 0), 0), (1, 1, (True, 0, 1), (0, True), True)],
        )
        text = self.written(pop, tmp_path).decode()
        assert '"x1": [],' in text and '"y1": [],' in text and '"z": 1' in text
        assert "true" not in text
        assert population_doc(read_population(tmp_path / "pop.json")) == population_doc(pop)


class TestInstanceFiles:
    def test_round_trip_is_byte_identical(self, workspace):
        _, _, inst_path = workspace
        text = inst_path.read_text()
        doc = read_instance_doc(inst_path)
        assert dump_canonical(doc.to_obj()) == text

    def test_built_instance_matches_template(self, workspace):
        _, _, inst_path = workspace
        inst = read_instance(inst_path)
        tpl = instance_template(1)
        assert inst.budget == tpl.budget
        assert inst.targets == tpl.targets
        assert inst.initial == tpl.initial

    def test_population_mismatch_rejected(self, workspace, tmp_path):
        _, pop_path, inst_path = workspace
        obj = json.loads(inst_path.read_text())
        obj["items"] = obj["items"][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        with pytest.raises(
            InputError, match="population item universe differs from the instance's$"
        ) as excinfo:
            read_instance(bad)
        assert str(bad) in str(excinfo.value)

    def test_population_mismatch_names_the_population(self, tmp_path, capsys):
        cfg = genconfig_doc(GenConfig(0, 0))
        cfg["methods"] = cfg["methods"][:3]  # methods 0, 1 and 2
        del cfg["response_probs"]["3"]
        paths = _write_docs(tmp_path, {"genconfig": cfg})
        pop, out = tmp_path / "pop.json", tmp_path / "inst.json"
        argv = ["--config", str(paths["genconfig"]), "--seed", "1", "--n", "20"]
        assert main(["generate", *argv, "--out", str(pop)]) == 0
        capsys.readouterr()
        argv = ["--id", "1", "--population", str(pop), "--out", str(out)]
        assert main(["make-instance", *argv]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {pop}: population method universe differs from the instance's\n"
        assert not out.exists()

    def test_missing_population_key_rejected(self, workspace, tmp_path):
        _, _, inst_path = workspace
        obj = json.loads(inst_path.read_text())
        del obj["population_path"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        with pytest.raises(
            InputError,
            match=r"malformed instance document \(needs exactly one of population and population_path\)$",
        ):
            read_instance_doc(bad)


class TestEncodeCommand:
    def test_setting2_starts_with_minimize(self, workspace, capsys):
        tmp, _, inst_path = workspace
        lp_path = tmp / "m2.lp"
        assert main([
            "encode", "--instance", str(inst_path), "--setting", "2",
            "--out", str(lp_path),
        ]) == 0
        assert lp_path.read_text().startswith("Minimize\n")

    def test_printed_counts_match_model(self, workspace, capsys):
        tmp, _, inst_path = workspace
        lp_path = tmp / "m1.lp"
        main(["encode", "--instance", str(inst_path), "--setting", "1", "--out", str(lp_path)])
        out = capsys.readouterr().out
        model = build_model(read_instance(inst_path), 1)
        assert f"variables: {model.num_variables}" in out
        assert f"constraints: {model.num_constraints}" in out
        parsed = parse_lp(lp_path.read_text())
        assert parsed.variable_count == model.num_variables
        assert parsed.constraint_count == model.num_constraints

    @pytest.mark.parametrize("setting", ["1", "3"])
    def test_budget_coefficient_past_int64_is_one_error_line(self, tmp_path, capsys, setting):
        docs = _file_docs()
        docs["population"]["types"][0]["weight"] = 2**62  # times a cost of 200 or more
        paths = _write_docs(tmp_path, docs)
        lp_path = tmp_path / "model.lp"
        argv = ["--instance", str(paths["instance"]), "--out", str(lp_path)]
        assert main(["encode", *argv, "--setting", "2"]) == 0  # no budget row
        lp_path.unlink()
        capsys.readouterr()
        assert main(["encode", *argv, "--setting", setting]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {paths['instance']}: side row budget: coefficients sum past the int64 range\n"
        )
        assert not lp_path.exists()

    def test_reencode_is_byte_identical(self, workspace):
        tmp, _, inst_path = workspace
        a, b = tmp / "a.lp", tmp / "b.lp"
        main(["encode", "--instance", str(inst_path), "--setting", "3", "--out", str(a)])
        main(["encode", "--instance", str(inst_path), "--setting", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSolveCommand:
    def test_native_and_brute_agree(self, toy_instance_file, tmp_path):
        rn, rb = tmp_path / "native.json", tmp_path / "brute.json"
        assert main([
            "solve", "--instance", str(toy_instance_file), "--setting", "3",
            "--out", str(rn),
        ]) == 0
        assert main([
            "solve", "--instance", str(toy_instance_file), "--setting", "3",
            "--brute", "--out", str(rb),
        ]) == 0
        native = json.loads(rn.read_text())
        brute = json.loads(rb.read_text())
        assert native["objective"] == brute["objective"]
        assert native["assignment"] == brute["assignment"]
        assert native["solver"] == "native" and brute["solver"] == "brute"

    def test_infeasible_exit_code(self, workspace, tmp_path):
        _, _, inst_path = workspace
        obj = json.loads(inst_path.read_text())
        obj["targets"] = [6, 10**6, 9]
        bad = tmp_path / "impossible.json"
        bad.write_text(dump_canonical(obj))
        assert main(["solve", "--instance", str(bad), "--setting", "2"]) == 2

    def test_limit_exit_code(self, workspace):
        _, _, inst_path = workspace
        code = main([
            "solve", "--instance", str(inst_path), "--setting", "1",
            "--node-limit", "1",
        ])
        assert code == 3

    def test_stats_count_dominated_prefixes(self, workspace, capsys):
        tmp, _, inst_path = workspace
        report_path = tmp / "report-stats.json"
        capsys.readouterr()
        assert main([
            "solve", "--instance", str(inst_path), "--setting", "1",
            "--out", str(report_path),
        ]) == 0
        stats = json.loads(report_path.read_text())["stats"]
        sol = solve(read_instance(inst_path), 1)
        counts = (sol.stats.nodes, sol.stats.dominated, sol.stats.pruned)
        assert (stats["nodes"], stats["dominated"], stats["pruned"]) == counts
        assert sol.stats.dominated > 0 and sol.stats.pruned > 0
        out = capsys.readouterr().out
        nodes, dominated, pruned = counts
        assert f"nodes: {nodes} ({dominated} dominated, {pruned} pruned), " in out

    def test_report_reverifies(self, workspace):
        tmp, _, inst_path = workspace
        report_path = tmp / "report.json"
        assert main([
            "solve", "--instance", str(inst_path), "--setting", "1",
            "--out", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        inst = read_instance(inst_path)
        from diagopt.fileio import assignment_from_obj

        phi = assignment_from_obj(report["assignment"])
        m = evaluate(inst.diagram, phi, inst.initial, inst.population)
        assert report["metrics"] == {
            "cost": m.cost, "obj1": m.obj1, "obj2": m.obj2, "obj3": m.obj3,
        }
        th1, th2, th3 = inst.targets
        want = Fraction(m.obj1, th1) + Fraction(m.obj2, th2) + Fraction(m.obj3, th3)
        assert Fraction(report["objective"]) == want


class TestEvalCommand:
    def test_initial_assignment_scores_full_similarity(self, workspace, capsys):
        tmp, _, inst_path = workspace
        inst = read_instance(inst_path)
        phi_path = tmp / "initial.json"
        write_assignment(inst.initial, phi_path)
        assert main([
            "eval", "--instance", str(inst_path), "--assignment", str(phi_path),
        ]) == 0
        out = capsys.readouterr().out
        m = evaluate(inst.diagram, inst.initial, inst.initial, inst.population)
        assert m.obj1 == len(inst.diagram.vertices)
        assert str(m.obj1) in out and str(m.cost) in out

    def test_all_method_zero_costs_nothing(self, workspace, capsys):
        tmp, _, inst_path = workspace
        inst = read_instance(inst_path)
        phi = type(inst.initial).build(
            dict(inst.initial.node_items), {s: 0 for s in inst.diagram.sinks}
        )
        phi_path = tmp / "zero.json"
        write_assignment(phi, phi_path)
        assert main([
            "eval", "--instance", str(inst_path), "--assignment", str(phi_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "         0" in out.splitlines()[-1]

    def test_noncandidate_assignment_warns_but_evaluates(self, workspace, capsys):
        tmp, _, inst_path = workspace
        inst = read_instance(inst_path)
        phi = type(inst.initial).build(
            {**inst.initial.node_items, "v1": {2, 3, 5}},  # not an edit of {1,4,8}
            dict(inst.initial.sink_methods),
        )
        phi_path = tmp / "off.json"
        write_assignment(phi, phi_path)
        assert main([
            "eval", "--instance", str(inst_path), "--assignment", str(phi_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "cost" in captured.out

    def test_item_outside_the_universe_past_the_source_is_one_error_line(
        self, workspace, capsys
    ):
        # every internal label is read, the last vertex's as the source's
        tmp, _, inst_path = workspace
        inst = read_instance(inst_path)
        last = inst.diagram.internals[-1]
        phi = type(inst.initial).build(
            {**inst.initial.node_items, last: {*inst.initial.node_items[last], 99}},
            dict(inst.initial.sink_methods),
        )
        phi_path = tmp / "outside.json"
        write_assignment(phi, phi_path)
        assert main([
            "eval", "--instance", str(inst_path), "--assignment", str(phi_path),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {phi_path}: item 99 not in universe\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "part, vertex, label, message",
        [
            ("nodes", "r", [-1], "item -1 not in universe"),
            ("sinks", "s0", -1, "method -1 not in universe"),
        ],
        ids=["node-item", "sink-method"],
    )
    def test_label_outside_the_universe_is_one_error_line(
        self, tmp_path, capsys, part, vertex, label, message
    ):
        docs = _file_docs()
        docs["assignment"][part][vertex] = label
        assert _run_on_files(tmp_path, "assignment", docs) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {tmp_path / 'assignment.json'}: {message}\n"
        assert captured.out == ""

    def test_solve_report_evaluates(self, workspace, capsys):
        tmp, _, inst_path = workspace
        report_path = tmp / "report-eval.json"
        assert main([
            "solve", "--instance", str(inst_path), "--setting", "3",
            "--out", str(report_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", "--instance", str(inst_path), "--assignment", str(report_path),
        ]) == 0
        m = json.loads(report_path.read_text())["metrics"]
        row = capsys.readouterr().out.splitlines()[-1]
        want = [str(m[f]) for f in ("cost", "obj1", "obj2", "obj3")]
        assert row.split() == ["assignment", *want]

    def test_report_without_assignment_is_one_error_line(self, workspace, tmp_path, capsys):
        _, _, inst_path = workspace
        obj = json.loads(inst_path.read_text())
        obj["targets"] = [6, 10**6, 9]
        bad, report_path = tmp_path / "impossible.json", tmp_path / "infeasible.json"
        bad.write_text(dump_canonical(obj))
        assert main([
            "solve", "--instance", str(bad), "--setting", "2", "--out", str(report_path),
        ]) == 2
        capsys.readouterr()
        assert main([
            "eval", "--instance", str(inst_path), "--assignment", str(report_path),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(report_path) in err and "no assignment" in err


class TestConfigDir:
    def test_relative_paths_fall_back_to_env_dir(self, workspace, tmp_path, monkeypatch, capsys):
        base, _, inst_path = workspace
        monkeypatch.setenv("DIAGOPT_CONFIG_DIR", str(base))
        monkeypatch.chdir(tmp_path)  # instance not present here
        assert main([
            "eval", "--instance", inst_path.name, "--assignment", "missing.json",
        ]) == 1  # instance resolves via the env dir; the assignment still fails
        inst = read_instance(inst_path.name)
        assert inst.budget == 35000

    def test_local_file_wins_over_env_dir(self, workspace, tmp_path, monkeypatch):
        base, _, _ = workspace
        monkeypatch.setenv("DIAGOPT_CONFIG_DIR", str(base))
        monkeypatch.chdir(tmp_path)
        local = tmp_path / "pop.json"
        local.write_text('{"kind": "population", "items": [0], "methods": [[0, 0]], "types": []}')
        pop = read_population("pop.json")
        assert len(pop.items) == 1


def _arc_with_two_fields(obj):
    obj["arcs"][0] = obj["arcs"][0][:2]


def _missing_initial_label(obj):
    del obj["initial"]["nodes"]["v1"]


def _string_targets(obj):
    obj["targets"] = ["six", "fifteen", "nine"]


def _null_budget(obj):
    obj["budget"] = None


def _infinite_budget(obj):
    obj["budget"] = float("inf")  # json writes Infinity, which int() cannot take


def _fractional_budget(obj):
    obj["budget"] += 0.9  # int() would truncate it


def _arc_labeled_seven(obj):
    obj["arcs"][0][2] = 7


def _role_outside_universe(obj):
    obj["roles"]["v1"] = [99]


def _role_with_item_outside_universe(obj):
    obj["roles"]["v1"].append(99)


def _label_with_item_outside_universe(obj):
    obj["initial"]["nodes"]["v1"].append(99)


def _category_outside_universe(obj):
    obj["categories"].append([999, 998])


def _role_without_deployed_label(obj):
    obj["roles"]["v1"] = [2, 3]  # the deployed label {1, 4, 8} is no longer a candidate


def _second_one_arc(obj):
    obj["arcs"].append(["v1", "s2", 1])


def _sink_to_source_arc(obj):
    obj["arcs"].append(["s1", "r", 0])


def _extra_source(obj):
    obj["vertices"].append("x")


class TestErrors:
    @pytest.mark.parametrize(
        "corrupt",
        [
            _arc_with_two_fields,
            _missing_initial_label,
            _string_targets,
            _null_budget,
            _infinite_budget,
            _fractional_budget,
            _arc_labeled_seven,
            _role_outside_universe,
            _role_with_item_outside_universe,
            _label_with_item_outside_universe,
            _role_without_deployed_label,
            _category_outside_universe,
            _second_one_arc,
        ],
    )
    def test_malformed_instance_is_one_error_line(self, workspace, tmp_path, capsys, corrupt):
        _, _, inst_path = workspace
        obj = json.loads(inst_path.read_text())
        corrupt(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        for command in (["solve"], ["encode", "--out", str(tmp_path / "bad.lp")]):
            assert main([*command, "--instance", str(bad), "--setting", "1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
            assert str(bad) in err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_arc_labeled_seven, "arc r->s1 has label 7, expected 0 or 1"),
            (_second_one_arc, "vertex v1 has out-degree 3, expected 2"),
            (_sink_to_source_arc, "cycle detected; vertex s1 has out-degree 1, expected 2"),
            (_extra_source, "multiple sources: r, x"),
        ],
    )
    def test_invalid_diagram_error_text(self, workspace, tmp_path, capsys, corrupt, message):
        _, _, inst_path = workspace
        obj = json.loads(inst_path.read_text())
        corrupt(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["solve", "--instance", str(bad), "--setting", "1"]) == 1
        assert capsys.readouterr().err == f"error: {bad}: invalid diagram: {message}\n"

    @pytest.mark.parametrize(
        "corrupt",
        [
            _role_outside_universe,
            _role_with_item_outside_universe,
            _label_with_item_outside_universe,
        ],
    )
    def test_item_outside_universe_error_text(self, workspace, tmp_path, capsys, corrupt):
        _, _, inst_path = workspace
        obj = json.loads(inst_path.read_text())
        corrupt(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["solve", "--instance", str(bad), "--setting", "1"]) == 1
        assert capsys.readouterr().err == f"error: {bad}: item 99 at v1 is outside the universe\n"

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["solve", "--instance", "x.json", "--setting", "9"],
            ["solve", "--instance", "x.json", "--setting", "1", "--node-limit", "abc"],
            ["generate", "--seed", "1", "--out", "x.json"],
        ],
        ids=["no-command", "unknown-setting", "non-integer-limit", "missing-option"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        # argparse's own code, 2, would read as an infeasible problem
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--node-limit" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "limit",
        [["--time-limit", "nan"], ["--time-limit", "-1"], ["--node-limit", "-1"]],
        ids=["nan-seconds", "negative-seconds", "negative-nodes"],
    )
    def test_invalid_limit_is_one_error_line(self, workspace, capsys, limit):
        _, _, inst_path = workspace
        capsys.readouterr()
        assert main(["solve", "--instance", str(inst_path), "--setting", "3", *limit]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "limit" in err

    @pytest.mark.parametrize(
        "limit", [["--node-limit", "1"], ["--time-limit", "60"]], ids=["nodes", "seconds"]
    )
    def test_brute_rejects_limits(self, toy_instance_file, capsys, limit):
        capsys.readouterr()
        argv = ["solve", "--instance", str(toy_instance_file), "--setting", "1", "--brute"]
        assert main([*argv, *limit]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert limit[0] in err and "--brute" in err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main([
            "solve", "--instance", str(tmp_path / "nope.json"), "--setting", "1",
        ]) == 1

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"]
    )
    def test_unreadable_json_is_one_error_line(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["solve", "--instance", str(bad), "--setting", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err

    def test_brute_cap_error_code(self, workspace, monkeypatch, capsys):
        _, _, inst_path = workspace
        import diagopt.solver as solver_mod

        monkeypatch.setattr(solver_mod, "BRUTE_FORCE_CAP", 3)
        assert main([
            "solve", "--instance", str(inst_path), "--setting", "1", "--brute",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceed the cap of 3" in err


def _null_weight(docs):
    docs["population"]["types"][0]["weight"] = None


def _fractional_weight(docs):
    docs["population"]["types"][0]["weight"] = 1.5


def _item_outside_universe(docs):
    docs["population"]["types"][0]["x1"].append(999)


def _method_outside_universe(docs):
    docs["population"]["types"][0]["y1"].append(77)


def _population_list(docs):
    docs["population"] = [docs["population"]]


def _assignment_list(docs):
    docs["assignment"] = [docs["assignment"]]


def _null_node_label(docs):
    docs["assignment"]["nodes"]["r"] = None


def _inline_null_weight(docs):
    inline = json.loads(json.dumps(docs["population"]))
    inline["types"][0]["weight"] = None
    docs["instance"]["population"] = inline
    del docs["instance"]["population_path"]


def _assignment_covering_nothing(docs):
    docs["assignment"] = {"kind": "assignment", "nodes": {}, "sinks": {}}


def _genconfig_list(docs):
    docs["genconfig"] = [docs["genconfig"]]


def _nameless_attribute(docs):
    del docs["genconfig"]["attributes"][0]["name"]


def _string_probability(docs):
    docs["genconfig"]["improvement_prob"] = "0.5"


def _boolean_probability(docs):
    docs["genconfig"]["improvement_prob"] = True


def _nan_mean(docs):
    spec = docs["genconfig"]["attributes"][1]
    assert spec["name"] == "fasting_blood_glucose"
    spec["mean"] = float("nan")  # json writes NaN


def _duplicate_attribute(docs):
    # the second spec would shadow the first: its mean lands every record on item 1
    attrs = docs["genconfig"]["attributes"]
    assert attrs[1]["name"] == "fasting_blood_glucose"
    attrs.append({**attrs[1], "mean": 400.0})


def _undrawn_attribute(docs):
    attrs = docs["genconfig"]["attributes"]
    attrs[:] = [a for a in attrs if a["name"] != "egfr"]  # items 25-35 still read it


def _renamed_method_key(new_key, name):
    """Key method 1's response probability ``new_key``, which int() reads as 1."""

    def corrupt(docs):
        probs = docs["genconfig"]["response_probs"]
        probs[new_key] = probs.pop("1")

    corrupt.__name__ = name
    return corrupt


def _instance_value(key, value, name):
    """Set the instance document's ``key`` to ``value``."""

    def corrupt(docs):
        docs["instance"][key] = value

    corrupt.__name__ = name
    return corrupt


def _threshold(docs, item):
    at, pred = docs["genconfig"]["thresholds"][item]
    assert at == item
    return pred


def _threshold_without_value(docs):
    pred = _threshold(docs, 1)
    assert pred["op"] == "ge"
    del pred["value"]  # "fasting_blood_glucose >= 0" if read as 0.0


def _band_without_upper(docs):
    pred = _threshold(docs, 11)
    assert pred["op"] == "band"
    del pred["upper"]


def _empty_band(docs):
    pred = _threshold(docs, 11)
    pred["upper"] = pred["value"]  # 6.0 <= hba1c < 6.0 never fires


def _unknown_attribute_kind(docs):
    docs["genconfig"]["attributes"][0]["kind"] = "lognormal"


def _unknown_op(docs):
    _threshold(docs, 1)["op"] = "gt"


def _table_row_not_a_pair(docs):
    spec = docs["genconfig"]["attributes"][0]
    assert spec["kind"] == "categorical"
    spec["table"][0].append(0.0)


def _ge_with_upper(docs):
    pred = _threshold(docs, 1)
    assert pred["op"] == "ge"
    pred["upper"] = pred["value"] + 1  # dropped unread if only "value" were read


def _bit_with_value(docs):
    pred = _threshold(docs, 0)
    assert pred["op"] == "bit"
    pred["value"] = 1


def _duplicate_method(kind):
    """List method 0 a second time, at method 1's cost, in the document of ``kind``."""

    def corrupt(docs):
        methods = docs[kind]["methods"]
        assert methods[0][0] == 0
        methods.append([0, methods[1][1]])

    corrupt.__name__ = f"_duplicate_method_in_{kind}"
    return corrupt


def _inline_and_path_population(docs):
    assert "population_path" in docs["instance"]
    docs["instance"]["population"] = docs["population"]


def _write_docs(tmp: Path, docs: dict) -> dict[str, Path]:
    """Write each document as ``<name>.json`` in ``tmp``; their paths by name."""
    paths = {name: tmp / f"{name}.json" for name in docs}
    for name, obj in docs.items():
        paths[name].write_text(json.dumps(obj))
    return paths


def _run_on_files(tmp: Path, kind: str, docs: dict, n: int = 5) -> int:
    """Write the documents and run the command that reads the one of ``kind``."""
    paths = _write_docs(tmp, docs)
    if kind == "genconfig":
        argv = ["generate", "--config", str(paths[kind]), "--seed", "1", "--n", str(n),
                "--out", str(tmp / "out.json")]
    elif kind in ("assignment", "report"):
        argv = ["eval", "--instance", str(paths["instance"]),
                "--assignment", str(paths[kind])]
    else:
        argv = ["solve", "--instance", str(paths["instance"]), "--setting", "1"]
    return main(argv)


def _file_docs() -> dict:
    docs = toy_docs(population_path="population.json")
    docs["genconfig"] = genconfig_doc(GenConfig(0, 0))
    return docs


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "kind, corrupt",
        [
            ("population", _null_weight),
            ("population", _fractional_weight),
            ("population", _item_outside_universe),
            ("population", _method_outside_universe),
            ("population", _population_list),
            ("population", _duplicate_method("population")),
            ("instance", _inline_null_weight),
            ("instance", _inline_and_path_population),
            ("instance", _instance_value("targets", [3, 1], "_two_targets")),
            ("instance", _instance_value("population_path", 7, "_numeric_population_path")),
            ("instance", _instance_value("roles", {}, "_role_missing")),
            ("instance", _instance_value("budget", -1, "_negative_budget")),
            ("instance", _instance_value("targets", [3, 0, 1], "_zero_target")),
            ("instance", _duplicate_method("instance")),
            ("assignment", _assignment_list),
            ("assignment", _null_node_label),
            ("assignment", _assignment_covering_nothing),
            ("genconfig", _genconfig_list),
            ("genconfig", _nameless_attribute),
            ("genconfig", _string_probability),
            ("genconfig", _boolean_probability),
            ("genconfig", _nan_mean),
            ("genconfig", _undrawn_attribute),
            ("genconfig", _duplicate_attribute),
            ("genconfig", _renamed_method_key(" 1 ", "_padded_method_key")),
            ("genconfig", _renamed_method_key("+1", "_signed_method_key")),
            ("genconfig", _renamed_method_key("0_1", "_underscored_method_key")),
            ("genconfig", _threshold_without_value),
            ("genconfig", _band_without_upper),
            ("genconfig", _empty_band),
            ("genconfig", _unknown_attribute_kind),
            ("genconfig", _unknown_op),
            ("genconfig", _table_row_not_a_pair),
            ("genconfig", _ge_with_upper),
            ("genconfig", _bit_with_value),
            ("genconfig", _duplicate_method("genconfig")),
        ],
    )
    def test_one_error_line(self, tmp_path, capsys, kind, corrupt):
        docs = _file_docs()
        assert _run_on_files(tmp_path, kind, docs) == 0
        corrupt(docs)
        capsys.readouterr()
        assert _run_on_files(tmp_path, kind, docs) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert str(tmp_path / f"{kind}.json") in err

    @staticmethod
    def population_error(tmp_path, capsys, edits: dict) -> str:
        """The one error line of the toy population with each type's fields edited."""
        docs = _file_docs()
        for k, fields in edits.items():
            docs["population"]["types"][k].update(fields)
        assert _run_on_files(tmp_path, "population", docs) == 1
        err = capsys.readouterr().err
        head = f"error: {tmp_path / 'population.json'}: malformed population document ("
        assert err.startswith(head) and err.endswith(")\n") and err.count("\n") == 1
        return err[len(head):-2]

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({0: {"weight": 0}, 1: {"x1": [999]}}, "type 0: weight must be >= 1"),
            ({0: {"x1": [999]}, 1: {"weight": 0}}, "item 999 outside the universe"),
            ({0: {"z": 2}, 1: {"y1": [7]}}, "type 0: z must be 0 or 1"),
            ({0: {"y1": [7]}, 1: {"z": 2}}, "method 7 outside the universe"),
        ],
        ids=["weight-then-item", "item-then-weight", "z-then-method", "method-then-z"],
    )
    def test_error_names_the_first_bad_type(self, tmp_path, capsys, edits, message):
        # each type is checked in full before the next is read
        assert self.population_error(tmp_path, capsys, edits) == message

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({0: {"id": 2**63}}, f"type id {2**63} does not fit in 64 bits"),
            ({1: {"id": -(2**63) - 1}}, f"type id {-(2**63) - 1} does not fit in 64 bits"),
            ({1: {"weight": 2**63}}, f"weight {2**63} does not fit in 64 bits"),
            (
                {0: {"weight": 2**62}, 1: {"weight": 2**62}},
                f"total weight {2**63} does not fit in 64 bits",
            ),
        ],
        ids=["id", "negative-id", "weight", "total-weight"],
    )
    def test_value_outside_int64_is_one_error_line(self, tmp_path, capsys, edits, message):
        # ids and weights are int64 columns: a value they cannot hold is never wrapped
        assert self.population_error(tmp_path, capsys, edits) == message

    @pytest.mark.parametrize("value", [{}, {"0": 1}, "01"], ids=["empty", "keyed", "string"])
    @pytest.mark.parametrize(
        "at, message",
        [
            (("population", "types"), "types must be a list"),
            (("population", "types", 0, "x1"), "x1 must be a list"),
            (("population", "types", 1, "y1"), "y1 must be a list"),
            (("instance", "vertices"), "vertices must be a list"),
            (("instance", "categories"), "categories must be a list"),
            (("instance", "categories", 0), "a category must be a list"),
            (("instance", "roles", "r"), "role of r must be a list"),
            (("instance", "initial", "nodes", "r"), "label at r must be a list"),
            (("assignment", "nodes", "r"), "label at r must be a list"),
        ],
        ids=[
            "types", "x1", "y1", "vertices", "categories", "category", "role", "initial-label",
            "label",
        ],
    )
    def test_object_for_a_list_is_one_error_line(self, tmp_path, capsys, at, message, value):
        # an object is never read as the list of its keys, an empty one as no
        # entries, a string as its characters
        kind, *path = at
        docs = _file_docs()
        docs["instance"]["categories"] = [[0]]
        assert _run_on_files(tmp_path, kind, docs) == 0
        parent = docs[kind]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        capsys.readouterr()
        assert _run_on_files(tmp_path, kind, docs) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / f'{kind}.json'}: malformed {kind} document ({message})\n"

    def test_undrawn_attribute_is_an_error_without_records(self, tmp_path, capsys):
        docs = _file_docs()
        _undrawn_attribute(docs)
        assert _run_on_files(tmp_path, "genconfig", docs, n=0) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {tmp_path / 'genconfig.json'}: malformed genconfig document "
            "(item 25 reads attribute 'egfr', which no spec draws)\n"
        )

    def test_duplicate_attribute_is_one_error_line(self, tmp_path, capsys):
        docs = _file_docs()
        _duplicate_attribute(docs)
        assert _run_on_files(tmp_path, "genconfig", docs) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {tmp_path / 'genconfig.json'}: malformed genconfig document "
            "(attribute 'fasting_blood_glucose' is declared more than once)\n"
        )


class TestUnknownKeys:
    """A population, instance, assignment, genconfig or report object holding
    a key its format does not declare is one error line naming the file, as
    the misspelled ``wieght`` here; ``at`` is the document, then the path to
    the object."""

    @pytest.mark.parametrize("inline", [False, True], ids=["file", "inline"])
    @pytest.mark.parametrize(
        "at",
        [
            ("population",),
            ("population", "types", 0),
            ("population", "types", 1),
            ("instance",),
            ("instance", "initial"),
            ("assignment",),
        ],
        ids=["document", "type0", "type1", "instance", "initial", "assignment"],
    )
    def test_added_key_is_one_error_line(self, tmp_path, capsys, inline, at):
        docs = _file_docs()
        kind, *path = at
        read, where = kind, tmp_path / f"{kind}.json"
        if inline:
            docs["instance"]["population"] = docs["population"]
            del docs["instance"]["population_path"]
            if kind == "population":
                read, where = "instance", f"{tmp_path / 'instance.json'} (inline population)"
        assert _run_on_files(tmp_path, read, docs) == 0
        obj = docs[kind]
        for key in path:
            obj = obj[key]
        obj["wieght"] = 3
        capsys.readouterr()
        assert _run_on_files(tmp_path, read, docs) == 1
        err = capsys.readouterr().err
        assert err == f"error: {where}: malformed {kind} document (unexpected key 'wieght')\n"

    @pytest.mark.parametrize(
        "at, key",
        [
            ((), "budgte"),
            (("attributes", 0), "meen"),
            (("attributes", 1), "meen"),
            (("thresholds", 0, 1), "uper"),
            (("thresholds", 1, 1), "uper"),
            (("thresholds", 11, 1), "uper"),
        ],
        ids=["document", "categorical", "truncnormal", "bit", "ge", "band"],
    )
    def test_added_genconfig_key_is_one_error_line(self, tmp_path, capsys, at, key):
        docs = _file_docs()
        obj = docs["genconfig"]
        for k in at:
            obj = obj[k]
        obj[key] = 1.0
        assert _run_on_files(tmp_path, "genconfig", docs) == 1
        err = capsys.readouterr().err
        where = tmp_path / "genconfig.json"
        assert err == f"error: {where}: malformed genconfig document (unexpected key {key!r})\n"

    @pytest.mark.parametrize("at", [(), ("assignment",)], ids=["report", "labels"])
    def test_added_report_key_is_one_error_line(self, tmp_path, capsys, at):
        docs = _file_docs()
        report = tmp_path / "report.json"
        _run_on_files(tmp_path, "instance", docs)
        assert main([
            "solve", "--instance", str(tmp_path / "instance.json"), "--setting", "1",
            "--out", str(report),
        ]) == 0
        docs["report"] = json.loads(report.read_text())
        assert _run_on_files(tmp_path, "report", docs) == 0
        obj = docs["report"]
        for k in at:
            obj = obj[k]
        obj["wieght"] = 3
        capsys.readouterr()
        assert _run_on_files(tmp_path, "report", docs) == 1
        err = capsys.readouterr().err
        assert err == f"error: {report}: malformed report document (unexpected key 'wieght')\n"


def _drawn_table(value):
    """Make ``health_checkup_history``, which item 0 reads as a bit, always draw ``value``."""

    def corrupt(docs):
        spec = docs["genconfig"]["attributes"][0]
        assert spec["name"] == "health_checkup_history"
        spec["table"] = [[value, 1.0]]

    return corrupt


def _unreachable_band(docs):
    spec = docs["genconfig"]["attributes"][1]
    assert spec["name"] == "fasting_blood_glucose"
    spec["lo"], spec["hi"] = 500, 600  # 18 sd above the mean


def _no_thresholds(docs):
    docs["genconfig"]["thresholds"] = []


class TestDrawErrors:
    """A genconfig that parses but cannot be drawn is one error line naming the file."""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_drawn_table(1.5), "bit attribute 'health_checkup_history' drew 1.5, expected 0 or 1"),
            (_drawn_table(-1), "bit attribute 'health_checkup_history' drew -1.0, expected 0 or 1"),
            (_unreachable_band, "fasting_blood_glucose: exceeded 1000 rejection resamples"),
            (_no_thresholds, "item universe must be non-empty"),
        ],
        ids=["bit-drew-1.5", "bit-drew-minus-1", "unreachable-band", "no-thresholds"],
    )
    def test_names_the_config_file(self, tmp_path, capsys, monkeypatch, corrupt, message):
        monkeypatch.setattr(datagen, "RESAMPLE_CAP", 1000)
        docs = _file_docs()
        corrupt(docs)
        assert _run_on_files(tmp_path, "genconfig", docs) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'genconfig.json'}: {message}\n"
        # the record-by-record reference draws the same stream to the same error
        with pytest.raises(InputError) as info:
            reference_population(read_genconfig(tmp_path / "genconfig.json", 5, 1))
        assert str(info.value) == message


def _locations(obj, at=()):
    """Every key path into a JSON document, containers before their members."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return
    for key, value in children:
        yield at + (key,)
        yield from _locations(value, at + (key,))


_DROP = object()
_replacements = st.one_of(
    st.just(_DROP),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2),
)


@st.composite
def _mutated_docs(draw):
    kind = draw(st.sampled_from(["population", "instance", "assignment", "genconfig"]))
    docs = _file_docs()
    at = draw(st.sampled_from(list(_locations(docs[kind]))))
    parent = docs[kind]
    for key in at[:-1]:
        parent = parent[key]
    value = draw(_replacements)
    if value is _DROP:
        del parent[at[-1]]
    else:
        parent[at[-1]] = value
    return kind, docs


@st.composite
def _docs_with_an_added_key(draw):
    """The file documents with a key no format declares added to one object
    of one document, the document itself included."""
    kind = draw(st.sampled_from(["population", "instance", "assignment", "genconfig"]))
    docs = _file_docs()
    objects = [docs[kind]]
    for at in _locations(docs[kind]):
        obj = docs[kind]
        for key in at:
            obj = obj[key]
        if isinstance(obj, dict):
            objects.append(obj)
    obj = draw(st.sampled_from(objects))
    obj[draw(st.sampled_from(["wieght", "budgte", "meen", "uper"]))] = draw(
        _replacements.filter(lambda v: v is not _DROP)
    )
    return kind, docs


class TestFuzzDocuments:
    @settings(max_examples=80, deadline=None)
    @given(mutated=_mutated_docs())
    def test_mutated_document_never_raises(self, mutated):
        kind, docs = mutated
        with tempfile.TemporaryDirectory() as tmp:
            assert _run_on_files(Path(tmp), kind, docs) in (0, 1, 2, 3)

    @settings(max_examples=40, deadline=None)
    @given(mutated=_docs_with_an_added_key())
    def test_added_key_is_one_error_line(self, mutated):
        kind, docs = mutated
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
            assert _run_on_files(Path(tmp), kind, docs) == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert str(Path(tmp) / f"{kind}.json") in err.getvalue()
