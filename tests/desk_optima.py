"""Check the native optimum of every uncapped desk cell against the reach-state DP.

The 9 cells (instances 1-3 x settings 1-3) at desk scale, n=800 and seed
20240601 by default, are solved to optimality with no node cap and compared
with ``conftest.reach_state_optima`` in status, choice vector, objective and
bound. Too slow for tier-1 (~30 s), so pytest does not collect it. Run from
the repository root:

    PYTHONPATH=src python tests/desk_optima.py [--n 800] [--seed 20240601]

It prints one line per cell and exits 1 if any cell disagrees.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import reach_state_optima  # noqa: E402
from diagopt.datagen import GenConfig, generate_population  # noqa: E402
from diagopt.instances import build_instance  # noqa: E402
from diagopt.problem import Goal  # noqa: E402
from diagopt.solver import solve  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=800)
    parser.add_argument("--seed", type=int, default=20240601)
    args = parser.parse_args()
    pop = generate_population(GenConfig(n=args.n, seed=args.seed))
    failed = 0
    for instance in (1, 2, 3):
        inst = build_instance(instance, pop)
        started = time.process_time()
        optima = reach_state_optima(inst)
        dp_s = time.process_time() - started
        for setting in (1, 2, 3):
            started = time.process_time()
            sol = solve(inst, setting)
            native_s = time.process_time() - started
            vec = None if sol.assignment is None else inst.choice_vector(sol.assignment)
            optimum = optima[setting]
            if optimum is None:
                want = ("infeasible", None, None, None)
            else:
                value = Goal(inst, setting).value(optimum[0])
                want = ("optimal", optimum[1], value, value)
            got = (sol.status, vec, sol.objective_value, sol.best_bound)
            ok = got == want
            failed += not ok
            print(
                f"i{instance}s{setting} {'agree' if ok else 'DIFFER'}: native {got} "
                f"in {sol.stats.nodes} nodes, {native_s:.2f} s; dp {want}, {dp_s:.2f} s per instance",
                flush=True,
            )
    print(f"{9 - failed} of 9 cells agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
