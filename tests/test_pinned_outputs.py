"""Pinned output digests for a short suite over the bundled problems.

The suite runs every bundled problem in every mode with the offline mutation
generator; proaug reads a scripted analysis program that exercises every
directive kind, every transform and combiner, an ``_na`` fit, a malformed
reply, a fully failed analysis phase and a cache hit.  The sha256 digests
were taken before the operator table, the JSON writer and the run-outcome
construction were consolidated, so a refactor that changes any byte of a
trace, a run summary (minus its wall-clock timings) or the suite report
fails here.  The run-summary digest was re-taken three times since: when
the summaries began to record the generator settings and stopped recording
the demonstration count and sampling temperature, and when they stopped
recording the remote request's decoding settings, each of which became
constants; and when the settings moved under one ``settings`` key and the
deleted ``inject_report`` flag left them.  Every other byte of each summary
stayed as it was.  The digests
depend on the float results of numpy and the platform libm; a deliberate
numerics change re-pins them and says so.  They hold only on hosts with the
pinning host's numpy version and SIMD dispatch level (numpy 2.4.6 with its
AVX-512 kernels, which ``numpy.show_runtime()`` lists as found): with
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`` numpy's float64
``exp``, ``log`` and ``power`` give other last bits, and the suite test and 6
of the 7 single-fit cases fail.

Those problems are small, so their fits evaluate blocks of many parameter
vectors per call.  A fit over more than 4,096 rows evaluates one vector per
call, so the second test pins such fits: the benchmark's four equation
shapes, with sin and with cos, and a three-start fit, by the ``repr`` of
their results.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from symreg.data import Dataset
from symreg.expr import parse
from symreg.fit import OptimizerConfig, fit_params
from symreg.harness import SuiteConfig, run_suite
from symreg.search import SearchConfig

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

PROGRAM_A = """```analysis
sample 5 sort=y_desc
sample 3 seed=7
stats all
r2 y ~ x0
r2 log(y) ~ log(x0)
r2 log(y) ~ log(sin(x0))
r2 y ~ exp(x0)
r2 y ~ cos(x0)
r2 y ~ sqrt(x0)
r2 y ~ square(x0)
r2 y ~ inv(x0)
r2 y ~ abs(x0)
r2 y ~ inv(difference(x0,x0))
corr y ~ product(x0,x0)
corr log(y) ~ ratio(x0,x0)
corr y ~ sum(x0,x0)
corr y ~ log(difference(x0,x0))
```"""

PROGRAM_B = """```analysis
sample 4 sort=y_asc
stats y x0
r2 y ~ log(square(x0))
corr y ~ x0
```"""

MALFORMED = "```analysis\nr2 y ~ tan(x0)\n```"

# iteration 0: A; 1: malformed, then B on retry; 2: both attempts malformed,
# so B's report is reused and the error is fed back; 3: A again, a cache hit;
# 4: A, a cache hit
ANALYSIS_REPLIES = [PROGRAM_A, MALFORMED, PROGRAM_B, MALFORMED, MALFORMED, PROGRAM_A]

TRACES_SHA256 = "fc016c3d9e3a1fac57354d957925b83fd565bcae1558ad84a301d783d4b62515"
RUN_SUMMARIES_SHA256 = "8dbbdf1468dcb61672209e9eabb50e7072db3e1e13cf18a80d6ff83abdd82260"
SUITE_REPORT_SHA256 = "1f7e0c0a9dae1dccec47f2d9e9080ea543ecdf28ebe3e58a8479131fecf021d0"


def _suite(out_dir: Path, broken: Path) -> SuiteConfig:
    return SuiteConfig(
        problems=(*sorted(PROBLEMS.glob("*.json")), broken),
        modes=("llm-sr", "statistical-hint", "proaug"),
        out_dir=out_dir,
        search=SearchConfig(
            iterations=5,
            samples_per_prompt=2,
            islands=2,
            island_capacity=8,
            retry_budget=1,
            optimizer=OptimizerConfig(restarts=2, max_iterations=60, max_evaluations=300),
        ),
        generator={"type": "mutation"},
        analysis_generator={"type": "scripted", "texts": ANALYSIS_REPLIES},
        repeats=2,
    )


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _run_summary_bytes(path: Path) -> bytes:
    summary = json.loads(path.read_text())
    del summary["timings"]
    return json.dumps(summary, indent=2, sort_keys=True).encode()


def test_bundled_suite_outputs_are_pinned(tmp_path, runs_started):
    broken = tmp_path / "broken.json"
    # its load error names no path, so the suite report is machine-independent
    broken.write_text(
        json.dumps(
            {
                "name": "broken",
                "instructions": "-",
                "data_path": str(PROBLEMS / "kepler.csv"),
                "variable_descriptions": ["a", "b"],
            }
        )
    )
    out = tmp_path / "out"
    config = _suite(out, broken)
    report = run_suite(config)
    assert report.failures == 6  # every run of the unloadable problem

    traces = sorted(out.glob("*/*/*.trace.jsonl"))
    summaries = sorted(out.glob("*/*/*.summary.json"))
    assert len(traces) == len(summaries) == 30
    suite_files = [(out / "summary.json").read_bytes(), (out / "trajectories.csv").read_bytes()]

    assert _digest(p.read_bytes() for p in traces) == TRACES_SHA256
    assert _digest(_run_summary_bytes(p) for p in summaries) == RUN_SUMMARIES_SHA256
    assert _digest(suite_files) == SUITE_REPORT_SHA256

    # resuming reuses every run and rewrites the report unchanged
    runs_started.clear()
    run_suite(config)
    assert runs_started == []
    assert _digest(
        [(out / "summary.json").read_bytes(), (out / "trajectories.csv").read_bytes()]
    ) == SUITE_REPORT_SHA256


# perfbench/workloads.py's EQUATION_SHAPES at a, b, c = 0, 1, 2, each shape
# that calls a function once with sin and once with cos; the optimizer
# settings, the start seed and the pinned result follow each text
SINGLE_VECTOR_FITS = [
    (
        "p0 * x0 ^ p1 * x1 / (x2 + p2)", OptimizerConfig(restarts=1, max_evaluations=30), 0,
        "FitResult(params=(0.5086611857726114, 2.117104457856484, 1.469801567054115), "
        "train_mse=4.808360861120336, converged=False, restarts_used=1, evaluations=30)",
    ),
    (
        "p0 * sin(p1 * x0) + p2 * x1 * x2", OptimizerConfig(restarts=1, max_evaluations=30), 0,
        "FitResult(params=(0.7524177495248282, 0.6393420704826168, -0.047748678558590545), "
        "train_mse=13.97382578012074, converged=False, restarts_used=1, evaluations=30)",
    ),
    (
        "p0 * cos(p1 * x0) + p2 * x1 * x2", OptimizerConfig(restarts=1, max_evaluations=30), 0,
        "FitResult(params=(0.6450136005462171, 3.4201584847251563, 0.2212054150110422), "
        "train_mse=12.275622023677393, converged=False, restarts_used=1, evaluations=30)",
    ),
    (
        "(p0 * x0 + p1) / (p2 + x1 * x2)", OptimizerConfig(restarts=1, max_evaluations=30), 0,
        "FitResult(params=(1.9029795773599187, 1.2685203012975816, 0.6358184966509289), "
        "train_mse=8.620405020101765, converged=False, restarts_used=1, evaluations=30)",
    ),
    (
        "p0 * x0 ^ p1 + p2 * sin(x1) * x2", OptimizerConfig(restarts=1, max_evaluations=30), 0,
        "FitResult(params=(0.9178392005672154, 1.4944180462508911, -0.23262147686065288), "
        "train_mse=4.453519714320795, converged=False, restarts_used=1, evaluations=30)",
    ),
    (
        "p0 * x0 ^ p1 + p2 * cos(x1) * x2", OptimizerConfig(restarts=1, max_evaluations=30), 0,
        "FitResult(params=(0.7863429280274019, 1.458255675636262, 0.3132640396688299), "
        "train_mse=4.685347461395287, converged=False, restarts_used=1, evaluations=30)",
    ),
    # two iterations per start, so every start counts and the best point is
    # a random start's
    (
        "p0 * sin(p1 * x0) + p2 * x1 * x2",
        OptimizerConfig(restarts=3, max_iterations=2, max_evaluations=90), 5,
        "FitResult(params=(1.4661100344990736, -1.4400824914899448, 0.29253386000781006), "
        "train_mse=9.828743271888303, converged=False, restarts_used=3, evaluations=90)",
    ),
]


@pytest.fixture(scope="module")
def large_dataset() -> Dataset:
    rng = np.random.default_rng(2024)
    X = rng.uniform(0.5, 4.0, size=(16384, 3))
    y = (
        1.5 * X[:, 0] ** 1.3 + np.sin(2.0 * X[:, 0]) * X[:, 1] - X[:, 2]
        + rng.normal(0, 0.1, 16384)
    )
    return Dataset(features=X, target=y, feature_names=("x0", "x1", "x2"))


@pytest.mark.parametrize("text, config, seed, pinned", SINGLE_VECTOR_FITS)
def test_single_vector_fits_are_pinned(large_dataset, text, config, seed, pinned):
    assert repr(fit_params(parse(text, 3), large_dataset, config, seed)) == pinned
