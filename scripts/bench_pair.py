#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs.

    python3 scripts/bench_pair.py --parent DIR --change DIR --pr N \\
        --workload proaug-large --workload suite-parallel --pairs 10 \\
        --seeds 1 2 3 --seconds 45

Runs ``perfbench/run.py`` of each checkout on that checkout, N pairs per
workload; pair k uses seed ``seeds[k % len(seeds)]``, and the side that runs
first flips from pair to pair.  Each run also records ``ru_minflt``, the
minor page faults of the run and everything it started, from
``getrusage(RUSAGE_CHILDREN)``, the number of passes it made, from its
``digest <workload> <sha> (N passes)`` line, and ``ru_minflt_per_pass``,
which is compared like the metrics.  Writes ``BENCH_<pr>.json``: the
machine, every pair's values, digests and pass counts, the commit each
checkout is at and whether it has uncommitted changes (``null`` for a
directory that is not the top of a git checkout), and per metric each
side's median and quartiles, the number of pairs the change wins (ties
count for neither) and the verdict, which it also prints one row per
workload and metric:

- ``claim``: a gain may be claimed, i.e. the change wins at least 9 in 10
  pairs and its median is better than the parent's by more than the
  parent's inter-quartile range;
- ``within_bound``: the change's median is worse than the parent's by at
  most the metric's ``BENCHMARK.json`` bound, a fraction of the parent's
  median (``-`` for a metric without a bound).

Per workload it also prints, per side, the runs that report ``correct:
false`` and the summed ``failed`` count, and the pairs whose digests differ.
It exits 1 when any digest differs or any run is incorrect.

The two checkouts must have paths of equal length: heap layout follows the
path length, and that alone has moved run_s by 10-17%.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGEST_LINE = re.compile(r"digest \S+ (\S+) \((\d+) passes\)")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout} {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest, passes = next(m.groups() for m in map(DIGEST_LINE.fullmatch, lines) if m)
    machine = next(json.loads(line[len("machine "):]) for line in lines if line.startswith("machine "))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["ru_minflt"] = minflt
    values["ru_minflt_per_pass"] = minflt / int(passes)
    return {"values": values, "digest": digest, "passes": int(passes),
            "correct": result["correct"], "failed": result["failed"], "machine": machine}


def checkout_state(checkout: Path) -> dict:
    """``git rev-parse HEAD`` of the checkout and whether ``git status
    --porcelain`` lists anything; both None unless `checkout` is the top of a
    git work tree."""
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                                  check=False)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != checkout.resolve():
        return {"head": None, "dirty": None}
    status = git("status", "--porcelain")
    return {"head": git("rev-parse", "HEAD"), "dirty": None if status is None else status != ""}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in pairs[0]["parent"]["values"]:
        sides = {side: [p[side]["values"][name] for p in pairs] for side in SIDES}
        sign = 1 if better.get(name, "lower") == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        gain = sign * (parent["median"] - change["median"])
        bound = bounds.get(name)
        summary[name] = {
            "parent": parent, "change": change, "change_wins": wins, "pairs": len(pairs),
            "better": "lower" if sign == 1 else "higher",
            "claim": 10 * wins >= 9 * len(pairs) and gain > parent["q3"] - parent["q1"],
            "within_bound": None if bound is None else -gain <= bound * abs(parent["median"]),
        }
    return summary


def health(pairs: list[dict]) -> dict:
    """Per side, the runs that report ``correct: false`` and the summed
    ``failed`` count; and the pairs whose two digests differ."""
    return {
        "incorrect": {side: sum(not p[side]["correct"] for p in pairs) for side in SIDES},
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "digests_differ": sum(p["parent"]["digest"] != p["change"]["digest"] for p in pairs),
        "pairs": len(pairs),
    }


def health_row(workload: str, h: dict) -> str:
    def per_side(counts: dict) -> str:
        return " ".join(f"{side} {counts[side]}" for side in SIDES)

    return (f"{workload:<15} incorrect runs: {per_side(h['incorrect'])}; "
            f"failed: {per_side(h['failed'])}; "
            f"digests differ: {h['digests_differ']}/{h['pairs']} pairs")


def healthy(h: dict) -> bool:
    return h["digests_differ"] == 0 and not any(h["incorrect"].values())


def verdict_rows(workload: str, summary: dict) -> list[str]:
    def side(q: dict) -> str:
        return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"

    rows = []
    for name, m in summary.items():
        bound = {None: "-", True: "yes", False: "NO"}[m["within_bound"]]
        rows.append(f"{workload:<15} {name:<12} parent {side(m['parent']):<28} "
                    f"change {side(m['change']):<28} wins {m['change_wins']}/{m['pairs']} "
                    f"claim {'yes' if m['claim'] else 'no'} within_bound {bound}")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two points")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        parser.error(f"checkout paths differ in length: {checkouts['parent']} {checkouts['change']}")
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record: dict = {"pr": args.pr, "seconds": args.seconds,
                    "checkouts": {side: checkout_state(path) for side, path in checkouts.items()},
                    "workloads": {}}
    for workload in args.workload:
        pairs = []
        for k in range(args.pairs):
            seed = args.seeds[k % len(args.seeds)]
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair: dict = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                record["machine"] = pair[side].pop("machine")
            pair["same_digest"] = pair["parent"]["digest"] == pair["change"]["digest"]
            pairs.append(pair)
            print(workload, f"pair {k} seed {seed}",
                  {s: round(pair[s]["values"]["run_s"], 3) for s in SIDES},
                  "same digest" if pair["same_digest"] else "DIGESTS DIFFER", flush=True)
        record["workloads"][workload] = {"pairs": pairs, "health": health(pairs),
                                         "summary": summarize(pairs, better, bounds)}

    out = args.out_dir / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    for workload, result in record["workloads"].items():
        print("\n".join(verdict_rows(workload, result["summary"])))
    for workload, result in record["workloads"].items():
        print(health_row(workload, result["health"]))
    return 0 if all(healthy(r["health"]) for r in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
