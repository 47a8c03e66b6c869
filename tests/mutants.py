"""A committed mutation audit: each mutant is one exact text patch to
``src/diagopt`` and the tier-1 tests expected to kill it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the runner copies ``src/`` to a temporary directory, applies
the patch there, and runs the mutant's tests against the copy (``pytest -o
pythonpath=<copy>``, with ``PYTHONPATH`` pointed at it too). It prints one
line per mutant (killed or survived, its test counts and seconds, and the
test that killed it) and exits 1 if any mutant survives. The working tree
is never touched.
``tests/test_mutants.py`` checks in tier-1 that every patch's old text
occurs exactly once in its file, so a refactor that moves the code updates
this table.

pytest does not collect this file (its name does not start with ``test_``).
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diagopt"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/diagopt
    old: str
    new: str
    tests: tuple[str, ...]  # tier-1 node ids, relative to the repo root


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "dominated-without-match-count",
        "solver.py",
        "cuts = pm >= matches and p < prefix",
        "cuts = p < prefix",
        ("tests/test_solver.py::TestReachStateOracle",),
    ),
    Mutant(
        "dominated-without-order",
        "solver.py",
        "cuts = pm >= matches and p < prefix",
        "cuts = pm >= matches",
        ("tests/test_solver.py::TestReachStateOracle",),
    ),
    Mutant(
        "below-without-tie-break",
        "solver.py",
        "return self.inc_obj - (pad < self.inc_vec)",
        "return self.inc_obj",
        (
            "tests/test_solver.py::TestOracleEquivalence",
            "tests/test_solver.py::TestSearchOrder::test_toy_decisions_are_pinned",
        ),
    ),
    Mutant(
        "relaxed-reach-never-takes-a-0-arc",
        "solver.py",
        "                reach[h0] |= r & tb.miss_any[k]\n",
        "",
        ("tests/test_solver.py::TestBound",),
    ),
    Mutant(
        "relaxed-reach-sends-every-type-on-the-0-arc",
        "solver.py",
        "reach[h0] |= r & tb.miss_any[k]",
        "reach[h0] |= r",
        ("tests/test_solver.py::TestSearchOrder",),
    ),
    Mutant(
        "linking-lower-row-without-the-visit",
        "encoder.py",
        '[(1, bi), (-1, ai)] + p_terms, ">=", -1',
        '[(1, bi)] + p_terms, ">=", 0',
        (
            "tests/test_encoder.py::TestEncode",
            "tests/test_encoder.py::TestExportLp::test_lp_bytes_are_pinned",
        ),
    ),
    Mutant(
        "improvers-without-z",
        "core.py",
        "improvers = (at.T @ (pop.y & pop.z[:, None])).tolist()",
        "improvers = (at.T @ pop.y).tolist()",
        ("tests/test_core.py::TestSinkTotals",),
    ),
    Mutant(
        "routes-0-arc-without-the-visit",
        "core.py",
        "visits[head0] |= visits[u] & ~on",
        "visits[head0] |= ~on",
        ("tests/test_core.py::TestRouteProperties", "tests/test_core.py::TestSinkTotals"),
    ),
    Mutant(
        "vertices-read-without-list-check",
        "fileio.py",
        '_list(obj["vertices"], "vertices")',
        'obj["vertices"]',
        ("tests/test_cli.py::TestMalformedDocuments::test_object_for_a_list_is_one_error_line",),
    ),
    Mutant(
        "population-writer-in-universe-order",
        "fileio.py",
        "order = sorted(range(len(ids)), key=ids.__getitem__)",
        "order = list(range(len(ids)))",
        ("tests/test_cli.py::TestPopulationFiles::test_every_op_population_over_unsorted_items",),
    ),
    Mutant(
        "population-weight-checked-after-every-type",
        "fileio.py",
        '    types.fail(weights < 1, lambda t: _reject(f"type {tids[t]}: weight must be >= 1"))\n',
        "",
        (
            "tests/test_cli.py::TestMalformedDocuments::test_error_names_the_first_bad_type",
            "tests/test_cli.py::TestPopulationReader::test_matches_the_reference_on_mutated_populations",
        ),
    ),
    Mutant(
        "population-last-faulty-type",
        "fileio.py",
        "t = int(bad.any(axis=0).argmax())",
        "t = len(self.rows) - 1 - int(bad.any(axis=0)[::-1].argmax())",
        (
            "tests/test_cli.py::TestMalformedDocuments::test_error_names_the_first_bad_type",
            "tests/test_cli.py::TestPopulationReader::test_matches_the_reference_on_mutated_populations",
        ),
    ),
    Mutant(
        "target-obj1-rounded-down",
        "problem.py",
        "lo[k] = max(lo[k], ceil(rhs))",
        "lo[k] = max(lo[k], floor(rhs))",
        ("tests/test_solver.py::TestOracleEquivalence",),
    ),
    Mutant(
        "lp-line-width-80",
        "encoder.py",
        "_LINE_WIDTH = 72",
        "_LINE_WIDTH = 80",
        ("tests/test_encoder.py::TestExportLp::test_lp_bytes_are_pinned",),
    ),
    Mutant(
        "sibling-without-deployed-check",
        "solver.py",
        "if low < ci and ci != match:",
        "if low < ci:",
        ("tests/test_solver.py::TestOracleEquivalence::test_matches_brute_force",),
    ),
    Mutant(
        "narrowed-floor-without-w1",
        "solver.py",
        "else below - self.weights[1]",
        "else below",
        ("tests/test_solver.py::TestOracleEquivalence::test_matches_brute_force",),
    ),
    Mutant(
        "narrowed-without-the-extra-match",
        "solver.py",
        "self._holds(relaxed, j, 1)",
        "self._holds(relaxed, j, 0)",
        (
            "tests/test_solver.py::TestOracleEquivalence",
            "tests/test_solver.py::TestReachStateOracle",
            "tests/test_solver.py::TestBound",
        ),
    ),
    Mutant(
        "relaxed-part-wins-without-obj1",
        "solver.py",
        " and lo <= base_obj1 + live.kept[j] <= hi",
        "",
        ("tests/test_solver.py::TestSearchOrder",),
    ),
    Mutant(
        "side-row-range-strict",
        "solver.py",
        "if not lo <= v <= hi:",
        "if not lo < v <= hi:",
        (
            "tests/test_solver.py::TestOracleEquivalence",
            "tests/test_solver.py::TestReachStateOracle",
            "tests/test_solver.py::TestBound",
        ),
    ),
    Mutant(
        "improvers-tallied-from-y",
        "solver.py",
        "tables[picks[j]][k - 1]",
        "tables[picks[j]][1]",
        (
            "tests/test_solver.py::TestOracleEquivalence",
            "tests/test_solver.py::TestReachStateOracle",
            "tests/test_solver.py::TestBound",
        ),
    ),
    Mutant(
        "violations-ignore-point",
        "encoder.py",
        "np.add.reduceat(data * point.values[indices], starts[has_terms])",
        "np.add.reduceat(data, starts[has_terms])",
        ("tests/test_encoder.py::TestEncode::test_encoded_points_satisfy_all_structural_rows",),
    ),
    Mutant(
        "violations-empty-rows-summed",
        "encoder.py",
        "has_terms = starts < indptr[1:]",
        "has_terms = starts <= indptr[1:]",
        ("tests/test_encoder.py::TestEncode::test_encoded_points_satisfy_all_structural_rows",),
    ),
    Mutant(
        "int64-sum-guard-off-by-one",
        "encoder.py",
        "sum(abs(c) for c, _ in terms) > _INT64_MAX",
        "sum(abs(c) for c, _ in terms) >= _INT64_MAX",
        ("tests/test_encoder.py::TestInt64Rows",),
    ),
    Mutant(
        "int64-rhs-guard-off-by-one",
        "encoder.py",
        "if rhs > _INT64_MAX:",
        "if rhs >= _INT64_MAX:",
        ("tests/test_encoder.py::TestInt64Rows",),
    ),
)


def patched(m: Mutant, package: Path) -> None:
    """Apply ``m`` to the copy of the package at ``package``."""
    path = package / m.file
    text = path.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: old text occurs {text.count(m.old)} times in {m.file}")
    mutated = text.replace(m.old, m.new)
    compile(mutated, str(path), "exec")  # a mutant that does not parse proves nothing
    path.write_text(mutated, encoding="utf-8")


def run(m: Mutant) -> tuple[bool, str]:
    """Whether ``m``'s tests kill it, and a one-line summary of their run."""
    with tempfile.TemporaryDirectory(prefix="diagopt-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "diagopt", ignore=shutil.ignore_patterns("__pycache__"))
        patched(m, src / "diagopt")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        started = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "-o", f"pythonpath={src}", *m.tests,
            ],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        seconds = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    # exit 1: some test failed; any other code (no tests collected, an
    # internal error) proves nothing about the mutant
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{m.name}: pytest exited {proc.returncode}: {summary}")
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    by = f" by {failed[0]}" if failed else ""
    return proc.returncode == 1, f"{summary} ({seconds:.1f} s){by}"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    survivors = []
    for m in chosen:
        killed, summary = run(m)
        print(f"{'killed ' if killed else 'SURVIVED'} {m.name}: {summary}", flush=True)
        if not killed:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
