#!/usr/bin/env python3
"""The symreg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs (``workloads.py``; only ``proaug-large``
depends on the seed), then runs passes of it, each in a fresh interpreter
(``worker.py``), until ``--seconds`` is spent (at least two passes).  A pass
is one ``symreg suite`` command on the input files followed by the same
command as a resume pass.  Every pass is checked (``checks.py``) and every
pass of a run must write byte-identical traces.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (search
runs, and how many raised) and ``metrics``.

``--trace 0`` reports the end-to-end metrics, medians over passes:

- ``run_s``: wall time of one pass, from the end of set-up until the suite
  command returns;
- ``iter_ms.p50`` / ``iter_ms.p90``: gap between successive iterations'
  first equation call (the last iteration closes when ``run()`` returns);
- ``setup_s``: fresh interpreter to the end of the first split, i.e.
  imports, problem loading and generator construction; median of at least
  five set-ups;
- ``peak_rss_mb``: peak resident memory of the pass process, children
  included.

It also prints, without a bound: ``failed_frac`` (failed equation samples
and analysis attempts over attempted ones), ``final_val_nmse``, ``resume_s``
(the suite command again on the finished output directory, where every run
is reused) and the trace digest.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``tracing.py`` plus
``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import inspect_pass
from tracing import LAYER_UNITS
from workloads import WORKLOADS, prepare, write_suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT = 150.0
RUN_LIMIT = 150.0  # no new pass starts past this; the run must end within 180 s
MIN_PASSES = 2
MIN_SETUPS = 5

END_TO_END = {
    "run_s": "s",
    "iter_ms.p50": "ms",
    "iter_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# Passes


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child; return its rusage, which covers its own children."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return rusage
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"pass exceeded {timeout:.0f} s")
        time.sleep(0.01)


def run_worker(pass_dir: Path, suite: dict, *flags: str) -> dict:
    pass_dir.mkdir(parents=True)
    write_suite(suite, pass_dir / "suite.json", Path("out"))
    with open(pass_dir / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), str(pass_dir), repr(spawned),
             *flags],
            stdout=subprocess.DEVNULL,
            stderr=err,
            cwd=ROOT,
        )
        rusage = _wait(proc, PASS_TIMEOUT)
    if proc.returncode != 0:
        tail = (pass_dir / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"pass in {pass_dir.name} exited with {proc.returncode}:\n{tail}")
    result = json.loads((pass_dir / "result.json").read_text())
    result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    result["wall_s"] = time.monotonic() - spawned
    result["traced"] = "--trace" in flags
    return result


class ValidationRows:
    """tr-val rows of a run, split with the program's own rule and seed."""

    def __init__(self, problem_paths: list[str]):
        from symreg.data import load_problem

        self._paths = {load_problem(p).name: p for p in problem_paths}
        self._cache: dict = {}

    def __call__(self, name: str, seed: int):
        from symreg.data import DEFAULT_SPLIT_RATIO, load_problem, load_problem_data, split

        if name not in self._cache:
            self._cache[name] = load_problem_data(load_problem(self._paths[name])).train
        view = split(self._cache[name], seed, DEFAULT_SPLIT_RATIO)
        return view.tr_val.features, view.tr_val.target


def digest_errors(inspections: list[dict]) -> list[str]:
    digests = {i["digest"] for i in inspections}
    return [] if len(digests) == 1 else [f"passes disagree: {len(digests)} distinct trace digests"]


# ---------------------------------------------------------------------------
# Reduction


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def end_to_end(timed: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "run_s": _median_of(timed, lambda p: p["run_s"]),
        "iter_ms.p50": _median_of(timed, lambda p: statistics.median(p["iter_ms"])),
        "iter_ms.p90": _median_of(timed, lambda p: _p90(p["iter_ms"])),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _median_of(timed, lambda p: p["peak_rss_mb"]),
    }


def per_layer(timed: list[dict], traced: list[dict], workers: int) -> dict[str, float]:
    ops = timed[0]["inspection"]["ops"]
    analyses = ops["analyses"]
    metrics = {
        name: _median_of(traced, lambda p, name=name: p["layers"][name])
        for name in traced[0]["layers"]
    }
    untraced_run_s = _median_of(timed, lambda p: p["run_s"])
    metrics.update(
        {
            "context.cache_hit_frac": ops["cached"] / analyses if analyses else 0.0,
            "context.analysis_ok_frac": ops["analysis_ok"] / analyses if analyses else 0.0,
            "context.attempts_per_iter": ops["attempts"] / analyses if analyses else 0.0,
            "harness.worker_busy_frac": _median_of(
                timed, lambda p: p["inspection"]["run_s_sum"] / (workers * p["suite_s"])
            ),
            "harness.run_s_max": _median_of(timed, lambda p: p["inspection"]["run_s_max"]),
            "harness.run_s_sum": _median_of(timed, lambda p: p["inspection"]["run_s_sum"]),
            "trace.overhead_frac": _median_of(traced, lambda p: p["run_s"]) / untraced_run_s - 1.0,
        }
    )
    if set(metrics) != set(LAYER_UNITS):
        mismatch = sorted(set(metrics) ^ set(LAYER_UNITS))
        raise BenchError(f"layer metrics out of step with LAYER_UNITS: {mismatch}")
    return metrics


# ---------------------------------------------------------------------------


def bench(args, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    print("machine", json.dumps(machine_record()))
    print(f"workload {workload.name}: {workload.why}")
    prepared = prepare(workload, ROOT, work / "inputs", args.seed, args.size)
    suite = prepared["suite"]
    print(f"inputs seed={args.seed} size={args.size} {json.dumps(prepared['facts'])}")

    # fills the bytecode and page caches; users do not pay that on every run
    run_worker(work / "warmup", suite, "--setup-only")

    passes: list[dict] = []
    started = time.monotonic()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        flags = ("--trace",) if traced else ()
        passes.append(run_worker(work / f"pass{len(passes)}", suite, *flags))
        elapsed = time.monotonic() - started
        longest = max(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + longest > min(args.seconds, RUN_LIMIT):
            break

    setups = [p["setup_s"] for p in passes if not p["traced"]]
    if args.trace == 0:
        while len(setups) < MIN_SETUPS:
            probe = run_worker(work / f"setup{len(setups)}", suite, "--setup-only")
            setups.append(probe["setup_s"])

    rows = ValidationRows(suite["problems"])
    errors: list[str] = []
    for i, p in enumerate(passes):
        p["inspection"] = inspect_pass(work / f"pass{i}", suite, p, rows)
        errors += [f"pass {i}: {e}" for e in p["inspection"]["errors"]]
        kind = "traced" if p["traced"] else "timed"
        print(
            f"pass {i} ({kind}): run_s={p['run_s']:.4f} setup_s={p['setup_s']:.4f} "
            f"digest={p['inspection']['digest'][:16]}"
        )
    errors += digest_errors([p["inspection"] for p in passes])

    timed = [p for p in passes if not p["traced"]]
    first = timed[0]["inspection"]
    ops = first["ops"]
    attempted_ops = ops["samples"] + ops["attempts"]
    failed_ops = ops["failed_samples"] + ops["failed_attempts"]
    iterations = len(timed[0]["iter_ms"])
    print(f"digest {workload.name} {first['digest']} ({len(passes)} passes)")
    print(
        f"failed_frac = {failed_ops / attempted_ops:.6g} frac "
        f"({failed_ops}/{attempted_ops}: "
        f"{ops['failed_samples']}/{ops['samples']} equation samples, "
        f"{ops['failed_attempts']}/{ops['attempts']} analysis attempts)"
    )
    print(
        f"final_val_nmse = {first['final_val_nmse']!r} 1 "
        f"(median best tr-val NMSE over {first['runs']} runs)"
    )
    resume_s = _median_of(timed, lambda p: statistics.median(p["resume_s"]))
    print(
        f"resume_s = {resume_s!r} s "
        f"(median of {len(timed)} passes, each the median of its resume commands)"
    )
    if ops["analyses"]:
        print(
            f"analysis cache_hit_share={ops['cached'] / ops['analyses']:.4f} "
            f"malformed_share={ops['failed_attempts'] / ops['attempts']:.4f} "
            f"ok_share={ops['analysis_ok'] / ops['analyses']:.4f}"
        )

    if args.trace == 0:
        units = END_TO_END
        metrics = end_to_end(timed, setups)
        notes = {
            "iter_ms.p50": f"n={iterations} iterations per pass",
            "iter_ms.p90": f"n={iterations} iterations per pass",
            "setup_s": f"median of {len(setups)} set-ups",
        }
    else:
        units = LAYER_UNITS
        traced = [i for i, p in enumerate(passes) if p["traced"]]
        metrics = per_layer(timed, [passes[i] for i in traced], suite["workers"])
        notes = {}
        # the work dir goes when the run ends; keep the last traced pass's spans
        spans = work.parent / f"{workload.name}.spans.jsonl"
        shutil.move(work / f"pass{traced[-1]}" / "spans.jsonl", spans)
        print(f"spans {spans.relative_to(ROOT)}")
    for name, value in metrics.items():
        note = notes.get(name, f"median of {len(timed)} passes")
        print(f"{name} = {value!r} {units[name]} ({note})")

    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(p["inspection"]["runs"] for p in passes),
                "failed": sum(p["inspection"]["failed_runs"] for p in passes),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test size"
    )
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "symreg" / "__init__.py", ROOT / "problems" / "kepler.json"):
        if not needed.is_file():
            print(f"benchmark needs the symreg checkout: {needed} is missing", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    sys.exit(main())
