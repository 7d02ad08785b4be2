#!/usr/bin/env python3
"""Run the offline benchmark suite on the bundled problems.

Uses the mutation generator, so no network or API key is needed.  Compares
the three search modes on every problem and prints median final NMSE plus the
pairwise win-rate at the last iteration.  Full traces, summary.json, and
trajectories.csv land under --out; rerunning with the same --out resumes
instead of recomputing.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

from symreg.fit import OptimizerConfig
from symreg.harness import SuiteConfig, run_suite
from symreg.search import MODES, SearchConfig


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problems", default=str(root / "problems"), help="directory of problem JSON files")
    parser.add_argument("--out", default=str(root / "runs" / "mutation_suite"))
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0, help="base seed; repeat r runs with seed+r")
    parser.add_argument("--modes", nargs="+", default=list(MODES), choices=list(MODES))
    parser.add_argument(
        "--workers", type=int, default=1,
        help="runs at once on threads; fits hold the GIL, so offline suites run fastest on one",
    )
    args = parser.parse_args()

    problem_files = sorted(Path(args.problems).glob("*.json"))
    if not problem_files:
        parser.error(f"no problem JSON files in {args.problems}")

    config = SuiteConfig(
        problems=tuple(problem_files),
        modes=tuple(args.modes),
        out_dir=Path(args.out),
        search=SearchConfig(
            iterations=args.iterations,
            samples_per_prompt=2,
            mode=args.modes[0],
            islands=4,
            island_capacity=16,
            seed=args.seed,
            retry_budget=1,
            optimizer=OptimizerConfig(restarts=3, max_iterations=120, max_evaluations=1200),
        ),
        generator={"type": "mutation"},
        repeats=args.repeats,
        workers=args.workers,
    )

    report = run_suite(config)

    print(f"runs: {len(report.outcomes)} (failures: {report.failures})")
    print()
    print(f"{'problem':<22}{'mode':<18}{'median NMSE':>14}{'IQR':>12}")
    for key, entry in sorted(report.aggregates.items()):
        problem, mode = key.rsplit("/", 1)
        stats = entry["final_val_nmse"]
        med_s = f"{stats['median']:.3g}" if math.isfinite(stats["median"]) else "inf"
        iqr_s = f"{stats['iqr']:.3g}" if math.isfinite(stats["iqr"]) else "inf"
        print(f"{problem:<22}{mode:<18}{med_s:>14}{iqr_s:>12}")
    if report.win_curves:
        print()
        print("win rate at the final iteration:")
        for key, curve in sorted(report.win_curves.items()):
            if curve:
                a, b = key.split("_vs_")
                print(f"  {a} vs {b}: {curve[-1]:.3f}")
    print()
    print(f"wrote {Path(args.out) / 'summary.json'}")


if __name__ == "__main__":
    main()
