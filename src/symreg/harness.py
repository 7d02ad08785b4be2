"""Multi-problem benchmark orchestration and analytics.

Runs |problems| x |modes| x repeats searches (seed = base seed + repeat
index), persists every trace, and reduces the results into win-rate curves
and median/IQR spread statistics.  Suites are resumable at run granularity:
a run whose trace and summary files already exist is loaded, not re-run.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .data import Problem, json_safe, load_problem, load_problem_data
from .fit import OptimizerConfig
from .generate import (
    DecodingConfig,
    Generator,
    MutationGenerator,
    RemoteChatGenerator,
    ScriptedGenerator,
)
from .search import MODES, RunTrace, SearchConfig, run, write_trace

INF = float("inf")
LOG10_FLOOR = 1e-300


class HarnessError(ValueError):
    """Raised for invalid suite configurations."""


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class SuiteConfig:
    problems: tuple[Path, ...]
    modes: tuple[str, ...]
    out_dir: Path
    search: SearchConfig
    generator: dict
    analysis_generator: dict | None = None
    repeats: int = 3
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.problems:
            raise HarnessError("suite needs at least one problem")
        if not self.modes:
            raise HarnessError("suite needs at least one mode")
        for mode in self.modes:
            if mode not in MODES:
                raise HarnessError(f"unknown mode {mode!r}")
        if self.repeats < 1:
            raise HarnessError("repeats must be >= 1")
        if self.workers < 1:
            raise HarnessError("workers must be >= 1")


def search_config_from_json(raw: dict) -> SearchConfig:
    optimizer = OptimizerConfig(**raw.pop("optimizer", {}))
    decoding_raw = raw.pop("decoding", {})
    if "stop" in decoding_raw:
        decoding_raw["stop"] = tuple(decoding_raw["stop"])
    decoding = DecodingConfig(**decoding_raw)
    return SearchConfig(optimizer=optimizer, decoding=decoding, **raw)


def suite_config_from_json(path: str | Path) -> SuiteConfig:
    """Load a suite description; relative paths resolve against the JSON dir."""
    path = Path(path)
    raw = json.loads(path.read_text())
    base = path.parent

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    def generator_settings(settings: dict) -> dict:
        settings = dict(settings)
        if settings.get("type") == "scripted" and "path" in settings:
            settings["path"] = str(resolve(settings["path"]))
        return settings

    for key in ("problems", "modes", "out_dir", "generator"):
        if key not in raw:
            raise HarnessError(f"{path}: missing required key {key!r}")
    search_raw = dict(raw.get("search", {}))
    search_raw.setdefault("mode", raw["modes"][0])
    analysis = raw.get("analysis_generator")
    return SuiteConfig(
        problems=tuple(resolve(p) for p in raw["problems"]),
        modes=tuple(raw["modes"]),
        out_dir=resolve(raw["out_dir"]),
        search=search_config_from_json(search_raw),
        generator=generator_settings(raw["generator"]),
        analysis_generator=None if analysis is None else generator_settings(analysis),
        repeats=int(raw.get("repeats", 3)),
        workers=int(raw.get("workers", 1)),
    )


def make_generator(settings: dict, arity: int, run_seed: int) -> Generator:
    """Instantiate a generator from its settings mapping.

    Types: ``mutation`` (seed defaults to the run seed), ``scripted``
    (``texts`` inline or ``path`` to a JSON array file), ``remote``
    (``url``, ``model``, optional ``timeout``).
    """
    kind = settings.get("type")
    if kind == "mutation":
        return MutationGenerator(arity, seed=int(settings.get("seed", run_seed)))
    if kind == "scripted":
        if "texts" in settings:
            return ScriptedGenerator(settings["texts"])
        if "path" in settings:
            return ScriptedGenerator(settings["path"])
        raise HarnessError("scripted generator needs 'texts' or 'path'")
    if kind == "remote":
        for key in ("url", "model"):
            if key not in settings:
                raise HarnessError(f"remote generator needs {key!r}")
        return RemoteChatGenerator(
            url=settings["url"],
            model=settings["model"],
            timeout=float(settings.get("timeout", 120.0)),
        )
    raise HarnessError(f"unknown generator type {kind!r}")


# ---------------------------------------------------------------------------
# Analytics


def _median(sorted_values: list[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2 == 1:
        return sorted_values[mid]
    return 0.5 * (sorted_values[mid - 1] + sorted_values[mid])


def _quartiles(sorted_values: list[float]) -> tuple[float, float]:
    """Inclusive convention: odd-length data puts the median in both halves."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0], sorted_values[0]
    half = n // 2
    if n % 2 == 0:
        lower, upper = sorted_values[:half], sorted_values[half:]
    else:
        lower, upper = sorted_values[: half + 1], sorted_values[half:]
    return _median(lower), _median(upper)


def variance_stats(values) -> dict:
    """Median/IQR/min/max of the values and of their log10.

    Values are clamped at 1e-300 before log10 so exact zeros stay finite.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise HarnessError("variance_stats needs at least one value")
    s = sorted(vals)
    q1, q3 = _quartiles(s)
    logs = sorted(math.log10(max(v, LOG10_FLOOR)) for v in s)
    lq1, lq3 = _quartiles(logs)
    return {
        "median": _median(s),
        "iqr": q3 - q1,
        "q1": q1,
        "q3": q3,
        "min": s[0],
        "max": s[-1],
        "mean": sum(s) / len(s),
        "log10": {
            "median": _median(logs),
            "iqr": lq3 - lq1,
            "q1": lq1,
            "q3": lq3,
            "min": logs[0],
            "max": logs[-1],
        },
    }


def win_rate(trajectories_a: dict, trajectories_b: dict, t: int) -> float:
    """Fraction of problems where A's repeat-averaged best-so-far NMSE at
    iteration t is strictly lower than B's; ties count 0.5."""
    if set(trajectories_a) != set(trajectories_b):
        raise HarnessError("win_rate needs identical problem sets")
    if not trajectories_a:
        raise HarnessError("win_rate needs at least one problem")
    score = 0.0
    for problem in trajectories_a:
        a = trajectories_a[problem][t]
        b = trajectories_b[problem][t]
        if a < b:
            score += 1.0
        elif a == b:
            score += 0.5
    return score / len(trajectories_a)


def win_rate_curve(trajectories_a: dict, trajectories_b: dict) -> list[float]:
    lengths = {len(v) for v in trajectories_a.values()} | {
        len(v) for v in trajectories_b.values()
    }
    if len(lengths) != 1:
        raise HarnessError("win_rate_curve needs equal-length trajectories")
    return [win_rate(trajectories_a, trajectories_b, t) for t in range(lengths.pop())]


def average_trajectories(per_repeat: list[list[float]]) -> list[float]:
    """Element-wise mean across repeats; non-finite entries stay infinite."""
    if not per_repeat:
        raise HarnessError("need at least one trajectory")
    length = len(per_repeat[0])
    if any(len(tr) != length for tr in per_repeat):
        raise HarnessError("trajectories must share one length")
    out = []
    for t in range(length):
        column = [tr[t] for tr in per_repeat]
        out.append(sum(column) / len(column) if all(math.isfinite(v) for v in column) else INF)
    return out


# ---------------------------------------------------------------------------
# Suite execution


@dataclass(frozen=True)
class RunOutcome:
    problem: str
    mode: str
    repeat: int
    seed: int
    trace_path: Path
    summary_path: Path
    trajectory: tuple[float, ...]
    final_val_nmse: float
    test_nmse: float | None
    reused: bool
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class SuiteReport:
    outcomes: tuple[RunOutcome, ...]
    aggregates: dict
    win_curves: dict
    failures: int


def load_trajectory(trace_path: str | Path) -> list[float]:
    """Best-so-far tr-val NMSE per iteration from a trace file (null -> inf)."""
    values = []
    for line in Path(trace_path).read_text().splitlines():
        record = json.loads(line)
        value = record.get("best_nmse")
        values.append(INF if value is None else float(value))
    return values


def _run_paths(config: SuiteConfig, problem: str, mode: str, repeat: int) -> tuple[Path, Path]:
    run_dir = config.out_dir / problem / mode
    return run_dir / f"{repeat}.trace.jsonl", run_dir / f"{repeat}.summary.json"


def _outcome(
    config: SuiteConfig,
    problem: str,
    mode: str,
    repeat: int,
    *,
    trajectory=(),
    final_val_nmse: float | None = None,
    test_nmse: float | None = None,
    reused: bool = False,
    error: Exception | None = None,
) -> RunOutcome:
    """The outcome of one run; a missing final NMSE (no valid candidate, or
    null in a summary file) reads as inf."""
    trace_path, summary_path = _run_paths(config, problem, mode, repeat)
    return RunOutcome(
        problem=problem,
        mode=mode,
        repeat=repeat,
        seed=config.search.seed + repeat,
        trace_path=trace_path,
        summary_path=summary_path,
        trajectory=tuple(trajectory),
        final_val_nmse=INF if final_val_nmse is None else float(final_val_nmse),
        test_nmse=test_nmse,
        reused=reused,
        error=None if error is None else f"{type(error).__name__}: {error}",
    )


def _run_one(config: SuiteConfig, problem: Problem, mode: str, repeat: int) -> RunOutcome:
    trace_path, summary_path = _run_paths(config, problem.name, mode, repeat)
    if trace_path.exists() and summary_path.exists():
        summary = json.loads(summary_path.read_text())
        return _outcome(
            config,
            problem.name,
            mode,
            repeat,
            trajectory=load_trajectory(trace_path),
            final_val_nmse=summary.get("best_val_nmse"),
            test_nmse=summary.get("test_nmse"),
            reused=True,
        )

    seed = config.search.seed + repeat
    search_config = replace(config.search, mode=mode, seed=seed)
    generator = make_generator(config.generator, problem.arity, seed)
    analysis_settings = config.analysis_generator
    analysis_generator = (
        make_generator(analysis_settings, problem.arity, seed)
        if analysis_settings is not None
        else None
    )
    try:
        trace: RunTrace = run(search_config, problem, generator, analysis_generator)
    except Exception as exc:
        return _outcome(config, problem.name, mode, repeat, error=exc)
    write_trace(trace, trace_path, summary_path)
    return _outcome(
        config,
        problem.name,
        mode,
        repeat,
        trajectory=(r.best_nmse for r in trace.records),
        final_val_nmse=None if trace.best is None else -trace.best.fitness,
        test_nmse=trace.test_nmse,
    )


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute (or resume) every run, then reduce to the suite report.

    Per-run failures are recorded and excluded from aggregates; the suite
    itself keeps going.  Outputs under out_dir: per-run trace and summary
    files, ``summary.json``, and ``trajectories.csv``.
    """
    problems: list[Problem] = []
    outcomes: list[RunOutcome] = []
    for path in config.problems:
        try:
            problems.append(load_problem_data(load_problem(path)))
        except Exception as exc:
            # every run of an unloadable problem is recorded as failed
            outcomes += [
                _outcome(config, path.stem, mode, repeat, error=exc)
                for mode in config.modes
                for repeat in range(config.repeats)
            ]

    jobs = [
        (problem, mode, repeat)
        for problem in problems
        for mode in config.modes
        for repeat in range(config.repeats)
    ]
    if config.workers == 1:
        outcomes += [_run_one(config, p, mode, rep) for p, mode, rep in jobs]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_run_one, config, p, mode, rep) for p, mode, rep in jobs]
            outcomes += [f.result() for f in futures]

    report = build_report(outcomes, config.modes)
    _write_report(config, report)
    return report


def build_report(outcomes, modes) -> SuiteReport:
    """Reduce run outcomes to aggregates and win-rate curves.

    Pure: callable on freshly produced outcomes or on outcomes reloaded from
    disk, with identical results.
    """
    outcomes = tuple(outcomes)
    ok = [o for o in outcomes if not o.failed]
    failures = len(outcomes) - len(ok)

    by_problem_mode: dict[tuple[str, str], list[RunOutcome]] = {}
    for o in ok:
        by_problem_mode.setdefault((o.problem, o.mode), []).append(o)

    aggregates: dict = {}
    # repeat-averaged per-problem trajectories for each mode
    mode_trajectories: dict[str, dict[str, list[float]]] = {}
    for (problem, mode), runs in sorted(by_problem_mode.items()):
        entry = {
            "repeats": len(runs),
            "final_val_nmse": variance_stats([o.final_val_nmse for o in runs]),
        }
        tests = [o.test_nmse for o in runs]
        if all(t is not None for t in tests):
            entry["test_nmse"] = variance_stats(tests)
        aggregates[f"{problem}/{mode}"] = entry
        repeats = [list(o.trajectory) for o in runs if o.trajectory]
        if repeats:
            mode_trajectories.setdefault(mode, {})[problem] = average_trajectories(repeats)

    win_curves: dict = {}
    for a in modes:
        for b in modes:
            if a == b:
                continue
            ta, tb = mode_trajectories.get(a, {}), mode_trajectories.get(b, {})
            shared = set(ta) & set(tb)
            if not shared:
                continue
            try:
                curve = win_rate_curve({k: ta[k] for k in shared}, {k: tb[k] for k in shared})
            except HarnessError:  # trajectories of unequal length have no curve
                continue
            win_curves[f"{a}_vs_{b}"] = curve

    return SuiteReport(
        outcomes=outcomes,
        aggregates=aggregates,
        win_curves=win_curves,
        failures=failures,
    )


def _relative_to_out(path: Path, out: Path) -> str:
    # machine-independent report: paths are recorded relative to out_dir
    try:
        return path.relative_to(out).as_posix()
    except ValueError:
        return path.name


def _write_report(config: SuiteConfig, report: SuiteReport) -> None:
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "problems": [p.name for p in config.problems],
        "modes": list(config.modes),
        "repeats": config.repeats,
        "failures": report.failures,
        "runs": [
            {
                "problem": o.problem,
                "mode": o.mode,
                "repeat": o.repeat,
                "seed": o.seed,
                "trace": _relative_to_out(o.trace_path, out),
                "final_val_nmse": o.final_val_nmse,
                "test_nmse": o.test_nmse,
                "error": o.error,
            }
            for o in report.outcomes
        ],
        "aggregates": report.aggregates,
        "win_rate": report.win_curves,
    }
    (out / "summary.json").write_text(
        json.dumps(json_safe(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    )

    with open(out / "trajectories.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "mode", "repeat", "iteration", "best_nmse"])
        for o in report.outcomes:
            for t, value in enumerate(o.trajectory):
                rendered = "" if not math.isfinite(value) else repr(value)
                writer.writerow([o.problem, o.mode, o.repeat, t, rendered])
