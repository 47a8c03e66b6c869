"""Error parity of the population reader between two source trees.

Each mutated toy population is read through the command line, once as the
population file of the toy instance (``solve``) and once inline in it, and
the exit code and stderr of every run are recorded. The mutations are the
one-fault edits of ``test_cli._population_edits`` (each location of the
toy population dropped or set to each fault value, each fault value
appended to each list, a key added to each object) and seeded random
combinations of two and of three of them, half of those drawn from the
edits inside ``types``. Too slow for tier-1, so pytest does not collect it.
Run it from the repository root once per source tree, then compare:

    PYTHONPATH=<tree>/src python tests/population_sweep.py --out <file> [--docs 6000]
    PYTHONPATH=src python tests/population_sweep.py --compare <file> <file>

A run the command line does not turn into an exit code (an exception
other than the input errors it reports) stops the sweep. ``--compare``
prints the number of runs and the runs whose exit code or stderr differ,
and exits 1 if any differ.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli import _DROP, _edited, _file_docs, _population_edits, _write_docs  # noqa: E402
from diagopt.cli import main as cli_main  # noqa: E402


def mutations(count: int, seed: int) -> list[list]:
    """Every one-fault edit, then seeded two- and three-fault combinations, ``count`` in all."""
    edits = _population_edits(_file_docs()["population"])
    in_types = [e for e in edits if e[0][0] == "types"]
    rng = random.Random(seed)
    cases = [[e] for e in edits]
    while len(cases) < count:
        cases.append(rng.sample(rng.choice([edits, in_types]), rng.choice([2, 3])))
    return cases[:count]


def run(tmp: Path, pop: dict, inline: bool) -> tuple[int, str]:
    """The exit code and stderr of solving the toy instance over ``pop``."""
    docs = _file_docs()
    if inline:
        docs["instance"]["population"] = pop
        del docs["instance"]["population_path"]
    paths = _write_docs(tmp, {"instance": docs["instance"], "population": pop})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["solve", "--instance", str(paths["instance"]), "--setting", "1"])
    return code, err.getvalue().replace(str(tmp), "<dir>")


def sweep(count: int, seed: int) -> list[list]:
    pop = _file_docs()["population"]
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in mutations(count, seed):
            doc = _edited(pop, case)
            for inline in (False, True):
                label = repr([(at, "<drop>" if v is _DROP else v) for at, v in case])
                records.append([label, inline, *run(Path(tmp), doc, inline)])
    return records


def compare(a: list[list], b: list[list]) -> int:
    if [r[:2] for r in a] != [r[:2] for r in b]:
        raise SystemExit("the two files hold different mutations")
    differ = [(x, y) for x, y in zip(a, b) if x[2:] != y[2:]]
    errors = sum(r[2] != 0 for r in a)
    print(f"{len(a)} runs ({errors} errors), {len(differ)} differ")
    for x, y in differ[:20]:
        print(f"  {x[0]} inline={x[1]}: {x[2:]} != {y[2:]}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--docs", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args()
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        return compare(a, b)
    if args.out is None:
        parser.error("give --out or --compare")
    args.out.write_text(json.dumps(sweep(args.docs, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
