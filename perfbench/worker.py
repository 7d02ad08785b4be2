"""One pass of a workload, in a fresh interpreter.

Usage: ``worker.py ROOT PASS_DIR SPAWN_TIME [--setup-only] [--trace]``

Runs ``symreg suite PASS_DIR/suite.json`` through the program's own CLI
entry point, then the same command again as the resume pass, and writes
``PASS_DIR/result.json``.  SPAWN_TIME is the parent's ``time.monotonic()``
just before it started this process (CLOCK_MONOTONIC is system-wide on
Linux), so set-up is timed from a fresh interpreter.

Three thin hooks are always installed, each run at most once per generator
call or per search run: a proxy around each generator the harness builds
(stamps iteration starts), a wrapper on ``harness.run`` (stamps the close of
the last iteration and counts runs) and a wrapper on ``search.split`` (the
end of set-up).  ``--trace`` adds the per-layer spans of ``tracing.py``.
``--setup-only`` exits as soon as set-up ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT, PASS_DIR, SPAWN = Path(sys.argv[1]), Path(sys.argv[2]), float(sys.argv[3])
SETUP_ONLY = "--setup-only" in sys.argv[4:]
TRACE = "--trace" in sys.argv[4:]

sys.path.insert(0, str(ROOT / "src"))

import symreg.cli  # noqa: E402  (the user's entry point; its import is set-up)
import symreg.harness  # noqa: E402
import symreg.search  # noqa: E402

if Path(symreg.__file__).resolve().parent != (ROOT / "src" / "symreg").resolve():
    raise SystemExit(f"imported symreg from {symreg.__file__}, not from {ROOT / 'src'}")

SUITE = json.loads((PASS_DIR / "suite.json").read_text())
SAMPLES = SUITE["search"]["samples_per_prompt"]


class StampingGenerator:
    """Records when each iteration's first equation call arrives.

    Retries (n=1 equation calls) and analysis calls do not start an
    iteration.  ``close`` marks the end of the last iteration.
    """

    def __init__(self, inner, recorder=None):
        self._inner = inner
        self._recorder = recorder
        self.tag = inner.tag
        self.stamps: list[float] = []

    def generate(self, request):
        if request.purpose == "equation" and request.n_samples == SAMPLES:
            self.stamps.append(time.perf_counter())
        if self._recorder is None:
            return self._inner.generate(request)
        name = f"generate.generator.{request.purpose}"
        return self._recorder.call(name, self._inner.generate, (request,), {})

    def close(self) -> None:
        self.stamps.append(time.perf_counter())

    def gaps_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in zip(self.stamps, self.stamps[1:])]


generators: list[StampingGenerator] = []
runs_started: list[str] = []  # list.append is atomic across the harness's threads
setup_end: list[float] = []
recorder = None
if TRACE:
    import tracing

    recorder = tracing.Recorder()

original_make_generator = symreg.harness.make_generator
original_run = symreg.harness.run
original_split = symreg.search.split


def make_generator(settings, arity, run_seed):
    generator = StampingGenerator(original_make_generator(settings, arity, run_seed), recorder)
    generators.append(generator)
    return generator


def run(config, problem, generator, analysis_generator=None):
    runs_started.append(problem.name)
    trace = original_run(config, problem, generator, analysis_generator)
    generator.close()
    return trace


def split(*args, **kwargs):
    view = original_split(*args, **kwargs)
    if not setup_end:
        setup_end.append(time.monotonic())
        if SETUP_ONLY:
            (PASS_DIR / "result.json").write_text(json.dumps({"setup_s": setup_end[0] - SPAWN}))
            os._exit(0)
    return view


symreg.harness.make_generator = make_generator
symreg.harness.run = run
symreg.search.split = split
if recorder is not None:
    recorder.install()


def suite_command() -> float:
    """``symreg suite --config suite.json``; returns its wall time."""
    started = time.monotonic()
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            code = symreg.cli.main(["suite", "--config", str(PASS_DIR / "suite.json")])
        finally:
            sys.stdout = stdout
    if code != 0:
        raise SystemExit(f"symreg suite exited with {code}")
    return time.monotonic() - started


suite_s = suite_command()
finished = time.monotonic()
if recorder is not None:
    recorder.restore()
# the resume pass rewrites these; keep the write pass's copy for comparison
for name in ("summary.json", "trajectories.csv"):
    (PASS_DIR / f"write.{name}").write_bytes((PASS_DIR / "out" / name).read_bytes())

result = {
    "setup_s": setup_end[0] - SPAWN,
    "run_s": finished - setup_end[0],
    "suite_s": suite_s,
    "runs": len(runs_started),
    "iter_ms": [gap for g in generators for gap in g.gaps_ms()],
}
if recorder is not None:
    result["layers"] = recorder.layer_metrics()
    recorder.write_spans(PASS_DIR / "spans.jsonl")

# resume: every run must be reused, so run() is never called again
resume: list[float] = []
while len(resume) < 3 or (sum(resume) < 1.0 and len(resume) < 30):
    resume.append(suite_command())
result["resume_s"] = resume
result["resume_runs"] = len(runs_started) - result["runs"]

(PASS_DIR / "result.json").write_text(json.dumps(result))
