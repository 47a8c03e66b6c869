#!/usr/bin/env python3
"""diagopt benchmark: analyst sessions run through the public API, checked.

    python3 perfbench/run.py --workload desk --seed 20240601 --seconds 30 --trace 0

Load shape: a closed loop, one caller in one single-threaded process. A run
repeats *passes* until ``--seconds`` of wall time have passed. A pass is one
analyst session: generate the population, write it and the instance files,
read every cell's instance back, then run the cells back to back. An
untraced pass sets up ``SETUP_REPEATS`` times and its cells use the last.
A cell is one (instance, setting) pair and works on its own freshly read
instance, so no per-instance cache is shared between cells.

Workloads (``WORKLOADS``):

- ``desk``: n=800, all 9 cells solved under a fixed node cap, so status,
  node counts and gap do not depend on the machine.
- ``scale``: n=5000, the 5 cells that close at that size.
- ``export``: n=800, ``build_model`` -> ``export_lp`` -> LP file for all 9
  cells, the encode/violations/decode round trip of the deployed rule, then
  the brute-force oracle against native ``solve`` on truncated instance 1.

End-to-end metrics come from untraced passes. A stage time (``solve_s``:
solve + write_report; ``lp_export_s``: build_model + export_lp + file write;
``roundtrip_s``: encode_assignment + violations + decode; ``oracle_s``:
brute_force) is the sum over the cells of each cell's median across passes.
``session_s`` is the same over all four stages, ``setup_s`` the median of
all set-ups of the untraced passes, ``solved_share`` the solves proven
optimal, ``gap_rel`` the mean relative gap, ``failed_share`` the operations
that failed. Timings are CPU seconds of this process (``tracing.clock``).

End-to-end times are rescaled to a reference machine speed, because the
machine's speed drifts by up to ~1.6x for minutes at a time: a short fixed
loop (``tracing.speed_probe``) is timed before and after every set-up and
every cell, and the step's CPU time is multiplied by ``SPEED_REF_S`` over the
mean of the two speed probes. The report also prints the raw CPU seconds
(``setup_cpu_s``, ``session_cpu_s``) and the median speed probe (``speed_s``).
Per-layer times are raw CPU seconds.

``--trace 0`` ends with the end-to-end metrics, ``--trace 1`` with the
per-layer ones. A traced run alternates untraced and traced passes; traced
passes record spans around every call into a diagopt module and also run
the layer probes (``PROBES``) that time the layers a workload's cells do not
call. Per-layer metrics are medians over traced passes of per-pass figures.
The tracing overhead is the number of spans times the measured cost of one
span (``tracing.span_cost``), as a share of the traced pass's time.

Every output is checked: each ``Solution`` passes ``verify``, written reports
read back unchanged, round trips decode to the encoded rule, flagged rows
are exactly the side rows ``evaluate`` says fail, and brute force equals
native solve. At the default seed the outputs are also compared with
``reference.json`` (objective, assignment and report of each proven
cell, and the sha256 of each LP text); refresh it with ``--write-reference``
when output changes on purpose. An operation that raises or fails a check
counts in ``failed``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; everything above it is a readable report. The
full result (environment, per-cell records and, when traced, the spans) is
written to ``.bench_out/`` at the repository root; ``baseline/`` keeps the
first such results, at the default seed.

Self-test at a tiny size: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import scipy  # noqa: E402
from diagopt.candidates import CandidateFamily  # noqa: E402
from diagopt.core import evaluate  # noqa: E402
from diagopt.datagen import GenConfig, generate_population  # noqa: E402
from diagopt.encoder import Instance, build_model, decode, encode_assignment, export_lp  # noqa: E402
from diagopt.fileio import (  # noqa: E402
    instance_doc_from_template,
    read_instance,
    report_to_obj,
    write_instance_doc,
    write_population,
    write_report,
    write_text,
)
from diagopt.instances import build_instance, instance_template  # noqa: E402
from diagopt.solver import STATUS_LIMIT, STATUS_OPTIMAL, Solution, brute_force, solve, verify  # noqa: E402
from tracing import Pass, at_reference, clock, module_table, span_cost, speed_probe  # noqa: E402

DEFAULT_SEED = 20240601  # the acceptance suite's desk-scale seed
DEFAULT_SECONDS = 30
# Set-up is short against the machine's noise, so an untraced pass repeats it
# and setup_s is the median over all repeats of the run.
SETUP_REPEATS = 3
SIDE_ROWS = ("budget", "target_obj1", "target_obj2", "target_obj3")
MODULES = ("datagen", "fileio", "instances", "encoder", "core", "solver")


@dataclass(frozen=True)
class Op:
    """One cell: ``solve`` or ``export`` an instance, or check the ``oracle``.

    An oracle cell cuts every family of the instance to its deployed label
    plus the next ``extra`` canonical members, then compares ``brute_force``
    with native ``solve`` on it.
    """

    kind: str
    instance: int
    setting: int
    extra: int = 0

    @property
    def id(self) -> str:
        prefix = "" if self.kind == "solve" else f"{self.kind}-"
        return f"{prefix}i{self.instance}s{self.setting}"


# Traced passes add these probes so that every layer is timed at the
# workload's size even when its cells do not call it.
PROBES = (Op("export", 1, 1), Op("oracle", 1, 1, extra=0))


@dataclass(frozen=True)
class Workload:
    n: int
    node_cap: int
    ops: tuple[Op, ...]
    probes: tuple[Op, ...] = PROBES


def _cells(kind: str, cells: tuple[tuple[int, int], ...]) -> tuple[Op, ...]:
    return tuple(Op(kind, i, s) for i, s in cells)


ALL_CELLS = tuple((i, s) for i in (1, 2, 3) for s in (1, 2, 3))

WORKLOADS = {
    # Desk scale (T=787), where search does ~95% of the work. Instance 1 and
    # the setting-3 cells close under the cap; instance 2 settings 1-2 and
    # instance 3 settings 1-2 hit it, so pruning shows in status and gap.
    "desk": Workload(800, 50_000, _cells("solve", ALL_CELLS)),
    # T~4576: every bitset is ~6x wider, and only the cells that close at
    # this size; the cap only guards against a seed that does not close.
    "scale": Workload(5000, 200_000, _cells("solve", ((1, 1), (1, 2), (1, 3), (2, 3), (3, 3)))),
    # No real search: the encoder and the scalar evaluate path do the work.
    # Its cells already call every layer, so it needs no probes.
    "export": Workload(
        800,
        50_000,
        _cells("export", ALL_CELLS) + tuple(Op("oracle", 1, s, extra=1) for s in (1, 2, 3)),
        probes=(),
    ),
}

# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def assignment_space(inst: Instance) -> int:
    """Product of family sizes times |methods|^|sinks|."""
    space = len(inst.population.methods) ** len(inst.diagram.sinks)
    for fam in inst.families.values():
        space *= len(fam)
    return space


def truncated(inst: Instance, extra: int) -> Instance:
    families = {}
    for u, fam in inst.families.items():
        keep = [inst.initial.node_items[u]]
        keep += [c for c in fam.ordered if c not in keep][:extra]
        families[u] = CandidateFamily(vertex=u, candidates=frozenset(keep), role=fam.role)
    return replace(inst, families=families)


def gap_rel(sol: Solution) -> float:
    """0 when proven, 1 when the cap hit before any incumbent."""
    if sol.status != STATUS_LIMIT:
        return 0.0
    if sol.objective_value is None or sol.objective_value == 0:
        return 1.0
    return min(1.0, float(abs(sol.gap) / abs(sol.objective_value)))


def without_stats(report: dict[str, Any]) -> dict[str, Any]:
    """A report minus ``stats``: node counts and wall time may change, the rest may not."""
    return {k: v for k, v in report.items() if k != "stats"}


def check_reference(ref: dict[str, Any] | None, table: str, key: str, got: Any, rec: dict[str, Any]) -> None:
    if ref is None or key not in ref.get(table, {}):
        return
    if ref[table][key] != got:
        rec["issues"].append(f"{table}[{key}] differs from reference.json")


def side_row_holds(name: str, m: Any, inst: Instance) -> bool:
    th1, th2, th3 = inst.targets
    return {
        "budget": m.cost <= inst.budget,
        "target_obj1": 2 * m.obj1 >= th1,
        "target_obj2": m.obj2 >= th2,
        "target_obj3": m.obj3 >= th3,
    }[name]


def check_verified(p: Pass, sol: Solution, inst: Instance, setting: int, rec: dict[str, Any]) -> None:
    report = p.call("solver.verify", verify, sol, inst, setting)
    rec["issues"] += [f"verify: {issue}" for issue in report.issues]


def solve_and_report(p: Pass, wl: Workload, op: Op, inst: Instance, workdir: Path, ref: Any, rec: dict[str, Any]) -> Solution:
    sol = p.call("solver.solve", solve, inst, op.setting, node_limit=wl.node_cap, stage="solve_s")
    path = workdir / f"report-{op.id}.json"
    p.call("fileio.write_report", write_report, sol, "native", path, stage="solve_s")
    p.count["fileio.bytes"] += path.stat().st_size
    if p.traced:
        fresh = p.call("instances.build_instance", build_instance, op.instance, inst.population)
        if op.kind == "oracle":
            fresh = truncated(fresh, op.extra)
        p.call("solver.solve.setup", solve, fresh, op.setting, node_limit=1)

    p.count["solver.nodes"] += sol.stats.nodes
    p.count["solver.space"] += assignment_space(inst)
    rec.update(status=sol.status, nodes=sol.stats.nodes, gap_rel=gap_rel(sol), objective=str(sol.objective_value))
    check_verified(p, sol, inst, op.setting, rec)
    if sol.status == STATUS_OPTIMAL and sol.best_bound != sol.objective_value:
        rec["issues"].append("optimal status with best_bound != objective")
    written = json.loads(path.read_text(encoding="utf-8"))
    if written != json.loads(json.dumps(report_to_obj(sol, "native"))):
        rec["issues"].append("written report does not read back as the solution")
    if sol.status == STATUS_OPTIMAL:
        rec["report"] = without_stats(written)
        check_reference(ref, "reports", op.id, rec["report"], rec)
    return sol


def run_solve(p: Pass, wl: Workload, op: Op, inst: Instance, workdir: Path, ref: Any, rec: dict[str, Any]) -> None:
    # the input row that `diagopt solve` prints before searching
    p.call("core.evaluate", evaluate, inst.diagram, inst.initial, inst.initial, inst.population)
    solve_and_report(p, wl, op, inst, workdir, ref, rec)


def run_export(p: Pass, wl: Workload, op: Op, inst: Instance, workdir: Path, ref: Any, rec: dict[str, Any]) -> None:
    model = p.call("encoder.build_model", build_model, inst, op.setting, stage="lp_export_s")
    lp = p.call("encoder.export_lp", export_lp, model, stage="lp_export_s")
    path = workdir / f"model-{op.id}.lp"
    p.call("fileio.write_text", write_text, path, lp, stage="lp_export_s")
    size = path.stat().st_size
    p.count["fileio.bytes"] += size
    p.count["encoder.lp_bytes"] += size
    p.count["encoder.rows"] += model.num_constraints
    p.count["encoder.variables"] += model.num_variables

    phi = inst.initial
    point = p.call("encoder.encode_assignment", encode_assignment, model, phi, stage="roundtrip_s")
    flagged = p.call("encoder.violations", model.violations, point, stage="roundtrip_s")
    back = p.call("encoder.decode", decode, model, point, stage="roundtrip_s")
    if back != phi:
        rec["issues"].append("decode(encode_assignment(phi)) != phi")
    m = p.call("core.evaluate", evaluate, inst.diagram, phi, inst.initial, inst.population)
    side = {row.name for row in model.rows if row.name in SIDE_ROWS}
    failing = sorted(name for name in side if not side_row_holds(name, m, inst))
    if sorted(flagged) != failing:
        rec["issues"].append(f"violations flagged {sorted(flagged)}, evaluate fails {failing}")

    rec["lp_sha256"] = hashlib.sha256(lp.encode("utf-8")).hexdigest()
    check_reference(ref, "lp_sha256", op.id, rec["lp_sha256"], rec)


def run_oracle(p: Pass, wl: Workload, op: Op, inst: Instance, workdir: Path, ref: Any, rec: dict[str, Any]) -> None:
    small = truncated(inst, op.extra)
    slow = p.call("solver.brute_force", brute_force, small, op.setting, stage="oracle_s")
    p.count["core.evaluate_calls"] += slow.stats.nodes
    check_verified(p, slow, small, op.setting, rec)
    fast = solve_and_report(p, wl, op, small, workdir, ref, rec)
    if (slow.status, slow.assignment, slow.objective_value) != (fast.status, fast.assignment, fast.objective_value):
        rec["issues"].append(
            f"brute force {slow.status} {slow.objective_value} != native {fast.status} {fast.objective_value}"
        )


RUNNERS: dict[str, Callable[..., None]] = {"solve": run_solve, "export": run_export, "oracle": run_oracle}

# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def set_up(p: Pass, wl: Workload, ops: tuple[Op, ...], seed: int, workdir: Path) -> list[Instance]:
    """Generate, write the population and instance files, read each cell's instance."""
    pop = p.call("datagen.generate_population", generate_population, GenConfig(n=wl.n, seed=seed))
    p.count["datagen.types"] = len(pop)
    pop_path = workdir / "population.json"
    p.call("fileio.write_population", write_population, pop, pop_path)
    paths = {}
    for iid in sorted({op.instance for op in ops}):
        doc = instance_doc_from_template(instance_template(iid), population_path=pop_path.name)
        paths[iid] = workdir / f"instance{iid}.json"
        p.call("fileio.write_instance_doc", write_instance_doc, doc, paths[iid])
    insts = [p.call("fileio.read_instance", read_instance, paths[op.instance]) for op in ops]

    size = {path: path.stat().st_size for path in (pop_path, *paths.values())}
    written = sum(size.values())
    read = sum(size[pop_path] + size[paths[op.instance]] for op in ops)
    p.count["fileio.bytes"] += written + read
    p.count["candidates.space"] += sum(assignment_space(inst) for inst in insts)
    return insts


def session(wl: Workload, ops: tuple[Op, ...], seed: int, workdir: Path, traced: bool, ref: Any) -> Pass:
    p = Pass(traced)
    with p.span("bench.pass"):
        before = speed_probe()
        repeats = 1 if traced else SETUP_REPEATS
        for k in range(repeats):
            q = p if k == repeats - 1 else Pass(False)  # only the last set-up's counts are kept
            insts = []  # drop the previous repeat's instances, which would raise the peak memory
            started = clock()
            with q.span("bench.setup", request="setup"):
                insts = set_up(q, wl, ops, seed, workdir)
            took, after = clock() - started, speed_probe()
            p.setups.append({"cpu_s": took, "speed_s": (before + after) / 2})
            before = after
        for op, inst in zip(ops, insts):
            rec: dict[str, Any] = {"op": op.id, "issues": []}
            staged = dict(p.stage)
            with p.span("bench.op", request=op.id):
                try:
                    RUNNERS[op.kind](p, wl, op, inst, workdir, ref, rec)
                except Exception as exc:  # a failing operation is counted, the run goes on
                    traceback.print_exc()
                    rec["issues"].append(f"raised {type(exc).__name__}: {exc}")
            rec["stage"] = {k: v - staged.get(k, 0.0) for k, v in p.stage.items() if k in STAGES}
            after = speed_probe()
            rec["speed_s"] = (before + after) / 2
            before = after
            for issue in rec["issues"]:
                print(f"FAILED {op.id}: {issue}", file=sys.stderr)
            p.ops.append(rec)
    return p


def config_of(name: str, seed: int) -> dict[str, Any]:
    wl = WORKLOADS[name]
    return {"workload": name, "seed": seed, "n": wl.n, "node_cap": wl.node_cap}


def load_reference(config: dict[str, Any]) -> dict[str, Any] | None:
    """The entry of ``reference.json`` recorded with exactly this configuration."""
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text(encoding="utf-8")).get(config["workload"])
    return entry if entry is not None and entry["config"] == config else None


def run(name: str, seed: int, seconds: float, traced: bool, reference: dict[str, Any] | None = None) -> dict[str, Any]:
    """Run one workload; outputs are also compared with ``reference`` when given."""
    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    passes: list[Pass] = []
    started = time.perf_counter()
    try:
        while True:
            trace_this = traced and len(passes) % 2 == 1
            ops = wl.ops + (wl.probes if trace_this else ())
            passes.append(session(wl, ops, seed, workdir, trace_this, reference))
            if time.perf_counter() - started >= seconds and (not traced or len(passes) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "config": config_of(name, seed),
        "reference_checked": reference is not None,
        "env": environment(load_start),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "span_cost_s": span_cost() if traced else None,
    }


def environment(load_start: tuple[float, float, float]) -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "clock": "process CPU time",
        "load_start": list(load_start),
        "load_end": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

STAGES = ("solve_s", "lp_export_s", "roundtrip_s", "oracle_s")

# (name, unit, better); BENCHMARK.json lists the same names and units
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("session_s", "s", "lower"),
    ("solved_share", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def stage_time(passes: list[Pass], stages: tuple[str, ...], rescale: bool = True) -> float:
    """Sum over the cells of each cell's median time in ``stages`` across the passes.

    Each cell's time is rescaled to the reference speed by the speed probes
    taken around it, unless ``rescale`` is false. Per-cell medians drop a
    burst of load on the machine that hits one cell of one pass, wherever it
    falls.
    """
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for rec in p.ops:
            took = sum(rec["stage"].get(s, 0.0) for s in stages)
            per_op.setdefault(rec["op"], []).append(at_reference(took, rec["speed_s"]) if rescale else took)
    return sum(_median(times) for times in per_op.values())


def end_to_end(result: dict[str, Any]) -> dict[str, float]:
    """Every end-to-end figure, from the untraced passes."""
    passes = [p for p in result["passes"] if not p.traced]
    solves = [rec for p in passes for rec in p.ops if "status" in rec]
    ops = [rec for p in result["passes"] for rec in p.ops]
    setups = [s for p in passes for s in p.setups]
    figures = {
        "setup_s": _median([at_reference(s["cpu_s"], s["speed_s"]) for s in setups]),
        "session_s": stage_time(passes, STAGES),
        "solved_share": sum(r["status"] == STATUS_OPTIMAL for r in solves) / max(1, len(solves)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    for stage in STAGES:
        figures[stage] = stage_time(passes, (stage,))
    figures["setup_cpu_s"] = _median([s["cpu_s"] for s in setups])
    figures["session_cpu_s"] = stage_time(passes, STAGES, rescale=False)
    figures["speed_s"] = _median([s["speed_s"] for s in setups] + [r["speed_s"] for p in passes for r in p.ops])
    figures["gap_rel"] = statistics.fmean(r["gap_rel"] for r in solves) if solves else 0.0
    figures["failed_share"] = sum(bool(r["issues"]) for r in ops) / max(1, len(ops))
    return figures


END_TO_END_UNITS = {name: unit for name, unit, _ in END_TO_END} | {
    "setup_cpu_s": "s",
    "session_cpu_s": "s",
    "speed_s": "s",
    "solve_s": "s",
    "lp_export_s": "s",
    "roundtrip_s": "s",
    "oracle_s": "s",
    "gap_rel": "share",
    "failed_share": "share",
}


def _sum_spans(*names: str) -> Callable[[Pass], float]:
    return lambda p: sum(p.total(n) for n in names)


def _count(key: str) -> Callable[[Pass], float]:
    return lambda p: p.count[key]


def _us_per_node(p: Pass) -> float:
    search = p.total("solver.solve") - p.total("solver.solve.setup")
    return 1e6 * search / max(1, p.count["solver.nodes"])


def _module_spans(module: str) -> Callable[[Pass], float]:
    return lambda p: module_table(p.spans).get(module, {}).get("spans", 0)


# (name, unit, better, value of one traced pass); times are per pass except
# core.evaluate_s, the median per call
PER_LAYER: tuple[tuple[str, str, str, Callable[[Pass], float]], ...] = (
    ("datagen.generate_s", "s", "lower", _sum_spans("datagen.generate_population")),
    ("datagen.types", "count", "lower", _count("datagen.types")),
    ("fileio.write_s", "s", "lower", _sum_spans(
        "fileio.write_population", "fileio.write_instance_doc", "fileio.write_report", "fileio.write_text")),
    ("fileio.read_instance_s", "s", "lower", _sum_spans("fileio.read_instance")),
    ("fileio.bytes", "B", "lower", _count("fileio.bytes")),
    ("instances.build_s", "s", "lower", _sum_spans("instances.build_instance")),
    ("candidates.space", "count", "lower", _count("candidates.space")),
    ("encoder.build_model_s", "s", "lower", _sum_spans("encoder.build_model")),
    ("encoder.export_lp_s", "s", "lower", _sum_spans("encoder.export_lp")),
    ("encoder.rows", "count", "lower", _count("encoder.rows")),
    ("encoder.variables", "count", "lower", _count("encoder.variables")),
    ("encoder.lp_bytes", "B", "lower", _count("encoder.lp_bytes")),
    ("encoder.encode_s", "s", "lower", _sum_spans("encoder.encode_assignment")),
    ("encoder.check_s", "s", "lower", _sum_spans("encoder.violations")),
    ("encoder.decode_s", "s", "lower", _sum_spans("encoder.decode")),
    ("core.evaluate_s", "s", "lower", lambda p: _median(p.durations("core.evaluate"))),
    ("core.evaluate_calls", "count", "lower", _count("core.evaluate_calls")),
    ("solver.setup_s", "s", "lower", _sum_spans("solver.solve.setup")),
    ("solver.nodes", "count", "lower", _count("solver.nodes")),
    ("solver.node_share", "share", "lower", lambda p: p.count["solver.nodes"] / max(1, p.count["solver.space"])),
    ("solver.us_per_node", "us", "lower", _us_per_node),
    ("solver.verify_s", "s", "lower", _sum_spans("solver.verify")),
    ("solver.brute_force_s", "s", "lower", _sum_spans("solver.brute_force")),
) + tuple((f"{m}.spans", "count", "lower", _module_spans(m)) for m in MODULES)


def per_layer(result: dict[str, Any]) -> dict[str, float]:
    """Per-layer figures: medians over the traced passes, plus the tracing overhead."""
    traced = [p for p in result["passes"] if p.traced]
    figures = {name: _median([fn(p) for p in traced]) for name, _, _, fn in PER_LAYER}
    figures["trace.overhead_share"] = _median(
        [len(p.spans) * result["span_cost_s"] / p.total("bench.pass") for p in traced])
    figures["trace.spans"] = _median([len(p.spans) for p in traced])
    return figures


PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER} | {
    "trace.overhead_share": "share",
    "trace.spans": "count",
}

# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def print_report(name: str, result: dict[str, Any], traced: bool) -> None:
    cfg, env = result["config"], result["env"]
    passes = result["passes"]
    print(
        f"diagopt benchmark: workload={name} seed={cfg['seed']} n={cfg['n']} node_cap={cfg['node_cap']} "
        f"trace={int(traced)} passes={len(passes)} reference={'checked' if result['reference_checked'] else 'skipped'}"
    )
    print(
        f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"clock={env['clock']} load_start={env['load_start'][0]:.2f} load_end={env['load_end'][0]:.2f}"
    )
    print("end-to-end (untraced passes):")
    plain = [p for p in passes if not p.traced]
    for metric, value in end_to_end(result).items():
        if metric in STAGES and not any(metric in p.stage for p in plain):
            continue  # a stage this workload does not run
        print(f"  {metric:<14} {value:>14.6g} {END_TO_END_UNITS[metric]}")
    if traced:
        layer = per_layer(result)
        print("per-layer (traced passes):")
        for metric, value in layer.items():
            print(f"  {metric:<24} {value:>14.6g} {PER_LAYER_UNITS[metric]}")
        traced_passes = [p for p in passes if p.traced]
        print(f"  {'module':<10} {'spans':>6} {'total_s':>10} {'self_s':>10}   (first traced pass)")
        for module, row in sorted(module_table(traced_passes[0].spans).items()):
            print(f"  {module:<10} {row['spans']:>6} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        print(f"  tracing overhead: {layer['trace.spans']:g} spans x {1e6 * result['span_cost_s']:.3f} us"
              f" = {100 * layer['trace.overhead_share']:.4f}% of a traced pass")
    shown = next(p for p in passes if p.traced == traced)
    print(f"cells (first {'traced' if traced else 'untraced'} pass):")
    for rec in shown.ops:
        if "status" in rec:
            print(f"  {rec['op']:<12} {rec['status']:<14} nodes={rec['nodes']:<8} objective={rec['objective']}"
                  f" gap_rel={rec['gap_rel']:.4g}")
        else:
            print(f"  {rec['op']:<12} lp_sha256={rec.get('lp_sha256', '-')[:16]}")


def save(name: str, result: dict[str, Any], traced: bool) -> Path:
    cfg = result["config"]
    doc = {
        "config": cfg,
        "env": result["env"],
        "reference_checked": result["reference_checked"],
        "end_to_end": end_to_end(result),
        "per_layer": per_layer(result) if traced else None,
        "span_cost_s": result["span_cost_s"],
        "passes": [
            {
                "traced": p.traced,
                "setups": p.setups,
                "stage": dict(p.stage),
                "count": dict(p.count),
                "ops": p.ops,
                "modules": module_table(p.spans) if p.traced else None,
                "spans": [asdict(s) for s in p.spans],
            }
            for p in result["passes"]
        ],
    }
    path = OUT / f"{name}-seed{cfg['seed']}-trace{int(traced)}.json"
    path.write_text(json.dumps(doc, indent=1, default=str) + "\n", encoding="utf-8")
    return path


def reference_entry(result: dict[str, Any]) -> dict[str, Any]:
    """Outputs of the first pass that later runs must reproduce exactly."""
    ops = result["passes"][0].ops
    return {
        "config": result["config"],
        "reports": {r["op"]: r["report"] for r in ops if "report" in r},
        "lp_sha256": {r["op"]: r["lp_sha256"] for r in ops if "lp_sha256" in r},
    }


def write_reference(name: str, result: dict[str, Any]) -> None:
    doc = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    doc[name] = reference_entry(result)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def summary(result: dict[str, Any], traced: bool) -> dict[str, Any]:
    """The final line: the metrics BENCHMARK.json declares for this mode."""
    ops = [rec for p in result["passes"] for rec in p.ops]
    failed = sum(bool(rec["issues"]) for rec in ops)
    if traced:
        figures, units = per_layer(result), PER_LAYER_UNITS
    else:
        e2e = end_to_end(result)
        figures = {name: e2e[name] for name, _, _ in END_TO_END}
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in figures.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's outputs in reference.json")
    args = parser.parse_args(argv)

    traced = bool(args.trace)
    reference = None if args.write_reference else load_reference(config_of(args.workload, args.seed))
    result = run(args.workload, args.seed, args.seconds, traced, reference)
    print_report(args.workload, result, traced)
    print(f"result written to {save(args.workload, result, traced).relative_to(ROOT)}")
    if args.write_reference:
        write_reference(args.workload, result)
        print(f"reference for {args.workload} written to {REFERENCE.relative_to(ROOT)}")
    print(json.dumps(summary(result, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
