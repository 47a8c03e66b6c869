"""Command-line front end: generate, make-instance, encode, solve, eval.

Exit codes: 0 when an optimal solution is returned, 2 when the problem is
infeasible, 3 when a limit stopped the search, 1 for usage, format, or I/O
errors.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

from .core import InputError, Metrics, evaluate
from .datagen import GenConfig, generate_population
from .encoder import build_model, export_lp
from .fileio import (
    instance_doc_from_template,
    read_assignment,
    read_genconfig,
    read_instance,
    write_instance_doc,
    write_population,
    write_report,
    write_text,
)
from .instances import instance_template
from .solver import (
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    brute_force,
    solve,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3

_EXIT_BY_STATUS = {
    STATUS_OPTIMAL: EXIT_OK,
    STATUS_INFEASIBLE: EXIT_INFEASIBLE,
    STATUS_LIMIT: EXIT_LIMIT,
}


def _metrics_header() -> str:
    return f"{'':<12}{'cost':>10}{'obj1':>6}{'obj2':>8}{'obj3':>8}"


def _metrics_row(label: str, m: Metrics) -> str:
    return f"{label:<12}{m.cost:>10}{m.obj1:>6}{m.obj2:>8}{m.obj3:>8}"


def _fmt_objective(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value} ({float(value):.6f})"
    return str(value)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.config:
        cfg = read_genconfig(args.config, n=args.n, seed=args.seed)
    else:
        cfg = GenConfig(n=args.n, seed=args.seed)
    try:
        pop = generate_population(cfg)
    except InputError as exc:
        # only a --config file can hold tables that fail to draw
        raise InputError(f"{args.config}: {exc}") from exc
    if args.n == 0:
        print("warning: generated an empty population (n = 0)", file=sys.stderr)
    write_population(pop, args.out)
    print(f"wrote {args.out}: |T| = {len(pop)}, total weight = {pop.total_weight}")
    return EXIT_OK


def cmd_make_instance(args: argparse.Namespace) -> int:
    tpl = instance_template(args.id)
    doc = instance_doc_from_template(tpl, population_path=args.population)
    inst = doc.build(Path(args.out))
    write_instance_doc(doc, args.out)
    sizes = ", ".join(
        f"{u}:{len(inst.families[u])}" for u in inst.diagram.internals
    )
    print(f"wrote {args.out}: budget = {inst.budget}, targets = {inst.targets}")
    print(f"candidate family sizes: {sizes}")
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    model = build_model(inst, args.setting)
    write_text(args.out, export_lp(model))
    counts = model.variable_counts
    per_kind = ", ".join(f"{k}={v}" for k, v in counts.items())
    print(f"wrote {args.out}")
    print(f"variables: {model.num_variables} ({per_kind})")
    print(f"constraints: {model.num_constraints}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    if args.brute and (args.node_limit is not None or args.time_limit is not None):
        raise InputError("--node-limit and --time-limit apply to the native search, not --brute")
    inst = read_instance(args.instance)
    if args.brute:
        sol = brute_force(inst, args.setting)
        solver_name = "brute"
    else:
        sol = solve(
            inst, args.setting, node_limit=args.node_limit, time_limit=args.time_limit
        )
        solver_name = "native"

    print(_metrics_header())
    print(_metrics_row("input", evaluate(inst.diagram, inst.initial, inst.initial, inst.population)))
    if sol.metrics is not None:
        print(_metrics_row(f"setting {args.setting}", sol.metrics))
    print(f"status: {sol.status}")
    print(f"objective: {_fmt_objective(sol.objective_value)}")
    if sol.status == STATUS_LIMIT:
        print(f"best bound: {_fmt_objective(sol.best_bound)} (gap {_fmt_objective(sol.gap)})")
    print(
        f"nodes: {sol.stats.nodes} ({sol.stats.dominated} dominated, {sol.stats.pruned} pruned), "
        f"wall time: {sol.stats.wall_time:.3f}s"
    )
    if sol.assignment is not None:
        for u in inst.diagram.internals:
            print(f"  {u}: {sorted(sol.assignment.node_items[u])}")
        for s in inst.diagram.sinks:
            print(f"  {s}: method {sol.assignment.sink_methods[s]}")
    if args.out:
        write_report(sol, solver_name, args.out)
        print(f"wrote {args.out}")
    return _EXIT_BY_STATUS[sol.status]


def cmd_eval(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    phi = read_assignment(args.assignment)
    if not phi.covers(inst.diagram):
        raise InputError(f"{args.assignment}: assignment does not cover the instance diagram")
    try:
        m = evaluate(inst.diagram, phi, inst.initial, inst.population)
    except InputError as exc:  # a label outside the item or method universe
        raise InputError(f"{args.assignment}: {exc}") from exc
    if inst.misplaced(phi):
        print(
            "warning: assignment is not candidate-feasible for this instance",
            file=sys.stderr,
        )
    print(_metrics_header())
    print(_metrics_row("assignment", m))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Exit ``EXIT_ERROR``: argparse's usage-error code, 2, is ``EXIT_INFEASIBLE``."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diagopt",
        description="Optimize item/method assignments on a fixed decision-diagram skeleton.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic examinee population")
    p.add_argument("--config", help="generator configuration JSON (defaults built in)")
    p.add_argument("--seed", type=int, required=True, help="random seed")
    p.add_argument("--n", type=int, required=True, help="number of records to draw")
    p.add_argument("--out", required=True, help="population JSON to write")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("make-instance", help="write a shipped instance template as a file")
    p.add_argument("--id", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--population", required=True, help="population JSON path to reference")
    p.add_argument("--out", required=True, help="instance JSON to write")
    p.set_defaults(func=cmd_make_instance)

    p = sub.add_parser("encode", help="export the integer program as LP text")
    p.add_argument("--instance", required=True)
    p.add_argument("--setting", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--out", required=True, help=".lp file to write")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("--instance", required=True)
    p.add_argument("--setting", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--brute", action="store_true", help="exhaustive oracle (takes no limits)")
    p.add_argument("--time-limit", type=float, help="wall-clock limit in seconds (not with --brute)")
    p.add_argument("--node-limit", type=int, help="search node limit (not with --brute)")
    p.add_argument("--out", help="report JSON to write")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate an assignment against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--assignment", required=True, help="assignment JSON or solve report")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
