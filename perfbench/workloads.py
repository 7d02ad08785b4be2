"""The benchmark's workloads and the inputs each one runs on.

Every workload is one ``symreg suite`` command on files: the problem
JSON/CSV files, scripted generator replies where a workload uses them, and
a suite JSON per pass.  The program only ever receives the files.

``suite-parallel`` runs the 5 bundled problems with the
``run_mutation_suite.py`` settings, search seed 0, whatever the workload
seed: seeding its data or its search seed makes the mutation trajectory,
and with it the work in a pass, differ by 20-30% between seeds, more than a
regression bound can absorb.  ``proaug-large`` draws its data and its
scripted replies from the workload seed; its fits are capped at a fixed
evaluation budget on fixed-shape skeletons, so its work per pass does not
depend on the seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# run_mutation_suite.py search and optimizer settings
MUTATION_SEARCH = {
    "samples_per_prompt": 2,
    "islands": 4,
    "island_capacity": 16,
    "seed": 0,
    "retry_budget": 1,
    "optimizer": {"restarts": 3, "max_iterations": 120, "max_evaluations": 1200},
}

PROAUG_ARITY = 3
PROAUG_DIRECTIVES = 60
PROAUG_CACHE_SHARE = 0.25
PROAUG_MALFORMED_SHARE = 0.08

# equation replies for proaug-large: one fixed cycle of equal-cost shapes, so
# the fitting work per pass does not depend on the seed or the trajectory
EQUATION_SHAPES = (
    "p0 * x{a} ^ p1 * x{b} / (x{c} + p2)",
    "p0 * {f}(p1 * x{a}) + p2 * x{b} * x{c}",
    "(p0 * x{a} + p1) / (p2 + x{b} * x{c})",
    "p0 * x{a} ^ p1 + p2 * {f}(x{b}) * x{c}",
)

TRANSFORMS = ("log", "exp", "sin", "cos", "sqrt", "square", "inv", "abs")
COMBINERS = ("product", "ratio", "sum", "difference")


@dataclass(frozen=True)
class Sizes:
    iterations: int
    rows: int = 0
    test_rows: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    modes: tuple[str, ...]
    sizes: dict[str, Sizes]  # "full", and "tiny" for the smoke test
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "proaug-large",
            "serial proaug on a seeded 50k-row arity-3 problem with scripted equations and "
            "60-directive analyses: context.execute dominates, fits are array-bound",
            ("proaug",),
            {
                "full": Sizes(iterations=100, rows=50_000, test_rows=5_000),
                "tiny": Sizes(iterations=4, rows=2_000, test_rows=200),
            },
        ),
        Workload(
            "suite-parallel",
            "run_suite over the 5 bundled problems x 3 modes on nproc thread workers: "
            "interpreter-bound fits at n_fit=160, and the only workload where harness "
            "scheduling matters",
            ("llm-sr", "statistical-hint", "proaug"),
            {"full": Sizes(iterations=8), "tiny": Sizes(iterations=2)},
            workers=len(os.sched_getaffinity(0)),
        ),
    )
}


# ---------------------------------------------------------------------------
# Input generation


def prepare(workload: Workload, root: Path, inputs: Path, seed: int, size: str) -> dict:
    """Write the workload's inputs under ``inputs``; return the suite settings
    (without ``out_dir``) and facts about the inputs worth printing."""
    sizes = workload.sizes[size]
    inputs.mkdir(parents=True, exist_ok=True)
    search = dict(MUTATION_SEARCH, iterations=sizes.iterations)
    analysis_generator = None
    if workload.name == "proaug-large":
        problems = [_write_proaug_problem(inputs, seed, sizes)]
        script, facts = _write_analysis_script(inputs, seed, sizes.iterations)
        analysis_generator = {"type": "scripted", "path": str(script)}
        replies = _write_equation_script(inputs, seed, sizes.iterations)
        generator = {"type": "scripted", "path": str(replies)}
        search["optimizer"] = {"restarts": 1, "max_iterations": 120, "max_evaluations": 30}
    else:
        problems = sorted((root / "problems").glob("*.json"))
        generator = {"type": "mutation"}
        facts = {"problems": "the bundled ones; the seed does not apply"}
    suite = {
        "problems": [str(p) for p in problems],
        "modes": list(workload.modes),
        "generator": generator,
        "search": search,
        "repeats": 1,
        "workers": workload.workers,
    }
    if analysis_generator is not None:
        suite["analysis_generator"] = analysis_generator
    return {"suite": suite, "facts": facts}


def write_suite(settings: dict, path: Path, out_dir: Path) -> None:
    path.write_text(json.dumps(dict(settings, out_dir=str(out_dir)), indent=2) + "\n")


def _write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(X.shape[1])] + ["target"])
        for row, target in zip(X.tolist(), y.tolist()):
            writer.writerow([repr(v) for v in row] + [repr(target)])


def _write_proaug_problem(inputs: Path, seed: int, sizes: Sizes) -> Path:
    rng = np.random.default_rng([seed, 1])
    n, m = sizes.rows, sizes.test_rows
    X = rng.uniform(0.5, 4.0, size=(n + m, PROAUG_ARITY))
    scale, power = rng.uniform(1.5, 3.0), rng.uniform(0.5, 2.0)
    y = scale * X[:, 0] ** power * X[:, 1] / (1.0 + X[:, 2])
    _write_csv(inputs / "proaug_large.csv", X[:n], y[:n])
    _write_csv(inputs / "proaug_large_test.csv", X[n:], y[n:])
    path = inputs / "proaug_large.json"
    path.write_text(
        json.dumps(
            {
                "name": "proaug_large",
                "instructions": (
                    "A response driven by one factor, amplified by a second and damped by a third."
                ),
                "data_path": "proaug_large.csv",
                "test_path": "proaug_large_test.csv",
                "variable_descriptions": ["driving factor", "amplifier", "damper"],
                "target_description": "response",
            },
            indent=2,
        )
        + "\n"
    )
    return path


def _x_term(rng: np.random.Generator, arity: int) -> str:
    if rng.random() < 0.3:
        left, right = rng.choice(arity, size=2, replace=False)
        term = f"{COMBINERS[rng.integers(len(COMBINERS))]}(x{left},x{right})"
    else:
        term = f"x{rng.integers(arity)}"
    for _ in range(rng.integers(3)):
        term = f"{TRANSFORMS[rng.integers(len(TRANSFORMS))]}({term})"
    return term


def _program(rng: np.random.Generator, arity: int, index: int) -> str:
    # the sample seed makes every program's canonical text distinct
    lines = ["stats all", f"sample 8 sort=y_asc seed={index}"]
    while len(lines) < PROAUG_DIRECTIVES:
        kind = "r2" if rng.random() < 0.7 else "corr"
        target = "log(y)" if rng.random() < 0.5 else "y"
        lines.append(f"{kind} {target} ~ {_x_term(rng, arity)}")
    return "\n".join(lines)


def _reply(body: str) -> str:
    return f"<thought>Probe the functional form.</thought>\n```analysis\n{body}\n```"


def _malformed(rng: np.random.Generator, arity: int) -> str:
    kind = rng.integers(4)
    if kind == 0:
        return "<thought>Forgot the fence.</thought>\nstats all"
    if kind == 1:
        return _reply("stats all\nfit y ~ x0")
    if kind == 2:
        return _reply("stats all\nr2 y ~ tanh(x0)")
    return _reply(f"stats all\nr2 y ~ x{arity}")


def _write_analysis_script(inputs: Path, seed: int, iterations: int) -> tuple[Path, dict]:
    """Scripted analysis replies, one valid program per iteration.

    A quarter of iterations replay an earlier program, so the analysis cache
    is hit; a small share are preceded by a malformed reply, so the re-ask
    path runs.  Retry budget 1 means the valid reply after a malformed one is
    always accepted.
    """
    rng = np.random.default_rng([seed, 2])
    # iteration 0 has no earlier program to repeat
    n_repeats = round(PROAUG_CACHE_SHARE * iterations)
    n_malformed = round(PROAUG_MALFORMED_SHARE * iterations)
    repeats = set(rng.choice(np.arange(1, iterations), n_repeats, replace=False).tolist())
    malformed = set(rng.choice(iterations, n_malformed, replace=False).tolist())
    texts: list[str] = []
    programs: list[str] = []
    for t in range(iterations):
        if t in malformed:
            texts.append(_malformed(rng, PROAUG_ARITY))
        if t in repeats:
            texts.append(programs[rng.integers(len(programs))])
        else:
            programs.append(_reply(_program(rng, PROAUG_ARITY, len(programs))))
            texts.append(programs[-1])
    path = inputs / "analysis_replies.json"
    path.write_text(json.dumps(texts, indent=1) + "\n")
    facts = {
        "analysis_programs": len(programs),
        "planned_cache_hit_share": len(repeats) / iterations,
        "planned_malformed_share": len(malformed) / len(texts),
    }
    return path, facts


def _write_equation_script(inputs: Path, seed: int, iterations: int) -> Path:
    """Two valid skeleton replies per iteration; the seed picks variables and sin/cos."""
    rng = np.random.default_rng([seed, 3])
    texts = []
    for i in range(iterations * MUTATION_SEARCH["samples_per_prompt"]):
        a, b, c = rng.permutation(PROAUG_ARITY)
        f = ("sin", "cos")[rng.integers(2)]
        body = EQUATION_SHAPES[i % len(EQUATION_SHAPES)].format(a=a, b=b, c=c, f=f)
        texts.append(f"<thought>Scripted proposal.</thought>\n```expr\n{body}\n```")
    path = inputs / "equation_replies.json"
    path.write_text(json.dumps(texts, indent=1) + "\n")
    return path
