"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Every workload runs in-process with n=60 and a 2000-node cap, untraced and
traced. The tests check that every declared metric is printed with its unit, that a
clean run fails nothing, and that a tampered output is counted as failed.
"""
from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SECOND_SEED = 977  # a seed not used while the benchmark was written
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# the end-to-end figures each workload prints in its report, with their units
RAW = ("setup_cpu_s", "session_cpu_s", "speed_s")
PRINTED = {
    "desk": ("setup_s", "session_s", "solve_s", "solved_share", "gap_rel", "peak_rss_mb", "failed_share") + RAW,
    "scale": ("setup_s", "session_s", "solve_s", "solved_share", "gap_rel", "peak_rss_mb", "failed_share") + RAW,
    "export": ("setup_s", "session_s", "solve_s", "solved_share", "gap_rel", "lp_export_s", "roundtrip_s",
               "oracle_s", "peak_rss_mb", "failed_share") + RAW,
}


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at n=60 with a 2000-node cap."""
    small = {name: dataclasses.replace(wl, n=60, node_cap=2000) for name, wl in bench.WORKLOADS.items()}
    monkeypatch.setattr(bench, "WORKLOADS", small)


def test_declared_metrics_match_the_script():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["end_to_end"]] == list(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_tiny_run_prints_every_metric(tiny, capsys, workload, trace):
    assert bench.main(["--workload", workload, "--seed", str(SECOND_SEED), "--seconds", "0",
                       "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for value in last["metrics"].values():
        assert isinstance(value["value"], (int, float))

    report = "\n".join(lines[:-1])
    assert "reference=skipped" in report
    for name in PRINTED[workload]:
        unit = bench.END_TO_END_UNITS[name]
        assert re.search(rf"^\s+{name}\s+\S+ {re.escape(unit)}$", report, re.M), name
    assert re.search(r"^\s+failed_share\s+0 share$", report, re.M)
    if trace:
        assert "tracing overhead:" in report
        for module in bench.MODULES:
            assert re.search(rf"^\s+{module}\s+\d+\s+[\d.]+\s+[\d.]+$", report, re.M), module


def _failed(result) -> int:
    return bench.summary(result, traced=False)["failed"]


def test_tampered_objective_is_counted(tiny, monkeypatch):
    real = bench.solve

    def off_by_one(*args, **kwargs):
        sol = real(*args, **kwargs)
        if sol.objective_value is None:
            return sol
        return dataclasses.replace(sol, objective_value=sol.objective_value + 1)

    monkeypatch.setattr(bench, "solve", off_by_one)
    result = bench.run("desk", bench.DEFAULT_SEED, 0, False)
    summary = bench.summary(result, traced=False)
    assert summary["failed"] > 0 and summary["correct"] is False
    assert bench.end_to_end(result)["failed_share"] > 0


@pytest.mark.parametrize("workload, table", [("export", "lp_sha256"), ("desk", "reports")])
def test_reference_is_checked_and_tampering_counted(tiny, workload, table):
    first = bench.run(workload, bench.DEFAULT_SEED, 0, False)
    reference = bench.reference_entry(first)
    assert reference[table]

    again = bench.run(workload, bench.DEFAULT_SEED, 0, False, reference=reference)
    assert again["reference_checked"] and _failed(again) == 0

    key = sorted(reference[table])[0]
    if table == "lp_sha256":
        reference[table][key] = "0" * 64
    else:
        reference[table][key] = dict(reference[table][key], objective=-1)
    tampered = bench.run(workload, bench.DEFAULT_SEED, 0, False, reference=reference)
    assert _failed(tampered) == 1


@pytest.mark.parametrize("workload", ["desk", "scale", "export"])
def test_committed_reference_is_for_the_default_seed(workload):
    assert bench.load_reference(bench.config_of(workload, bench.DEFAULT_SEED)) is not None
    assert bench.load_reference(bench.config_of(workload, SECOND_SEED)) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
