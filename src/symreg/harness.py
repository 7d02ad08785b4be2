"""Multi-problem benchmark orchestration and analytics.

Runs |problems| x |modes| x repeats searches (seed = base seed + repeat
index), persists every trace, and reduces the results into win-rate curves
and median/IQR spread statistics.  Suites are resumable at run granularity:
a run whose trace and summary files already exist is loaded, not re-run,
unless they do not parse, the summary's ``settings`` record is not exactly
the run's (``run_settings``) or its result is not a finite number, or the
trace holds another number of iterations.  Fresh or loaded, a run's outcome
is read from those files, which are checked only there, so the report
depends only on what is on disk.  A suite's worker threads compute one at a
time: each holds the suite's lock for its whole run, except while a remote
generator waits on its reply.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path

from .data import (
    Problem,
    check_counts,
    is_real,
    json_safe,
    load_problem,
    load_problem_data,
    read_json,
    write_json,
)
from .generate import (
    DEFAULT_TIMEOUT,
    Generator,
    MutationGenerator,
    RemoteChatGenerator,
    ScriptedGenerator,
)
from .search import MODES, RunTrace, SearchConfig, run, write_trace

INF = float("inf")
LOG10_FLOOR = 1e-300

_SETTINGS_BLOCKS = ("search", "generator", "analysis_generator")
_SUITE_KEYS = ("problems", "modes", "out_dir", "repeats", "workers")
_GENERATOR_KEYS = {
    "mutation": {"type"},
    "scripted": {"type", "texts", "path"},
    "remote": {"type", "url", "model", "timeout"},
}


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
        if len(set(self.modes)) != len(self.modes):
            # two jobs would share one <problem>/<mode>/<repeat> path
            raise HarnessError(f"duplicate mode in {list(self.modes)}")
        check_counts(self, HarnessError, repeats=1, workers=1)


def _config(cls, raw, path: Path, block: str):
    """A ``cls`` built from ``block`` of the config file ``path``: a JSON
    object with a key per field it sets.  A field whose default is a config
    is built the same way."""
    if not isinstance(raw, dict):
        raise HarnessError(f"{path}: {block} must be a JSON object, got {raw!r}")
    defaults = {
        f.name: f.default_factory() if f.default is MISSING else f.default for f in fields(cls)
    }
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise HarnessError(f"{path}: unknown key {unknown[0]!r} in {block}")
    values = dict(raw)
    for key, value in raw.items():
        if is_dataclass(defaults[key]):
            values[key] = _config(type(defaults[key]), value, path, f"{block}.{key}")
    return cls(**values)


def _generator_settings(settings: dict, path: Path, block: str) -> dict:
    """The settings of a generator block of the config file ``path``,
    checked: ``mutation``, ``scripted`` (``texts`` inline or ``path`` to a
    JSON array file, which resolves against the file's directory) or
    ``remote`` (``url``, ``model``, optional ``timeout``).  Any other key is
    refused."""
    kind = settings.get("type")
    if kind not in _GENERATOR_KEYS:
        raise HarnessError(f"{path}: unknown generator type {kind!r} in {block}")
    unknown = sorted(set(settings) - _GENERATOR_KEYS[kind])
    if unknown:
        raise HarnessError(f"{path}: unknown key {unknown[0]!r} in {block}")
    where = f"{path}: {block}:"
    if kind == "scripted":
        texts, source = settings.get("texts"), settings.get("path")
        if "texts" in settings and not (
            isinstance(texts, list) and texts and all(isinstance(t, str) for t in texts)
        ):
            raise HarnessError(
                f"{where} scripted texts must be a non-empty list of strings, got {texts!r}"
            )
        if "path" in settings and not isinstance(source, str):
            raise HarnessError(f"{where} scripted path must be a string, got {source!r}")
        if texts is None and source is None:
            raise HarnessError(f"{where} scripted generator needs 'texts' or 'path'")
        if source is not None:
            settings = {**settings, "path": str(path.parent / source)}
    if kind == "remote":
        for key in ("url", "model"):
            if key not in settings:
                raise HarnessError(f"{where} remote generator needs {key!r}")
            if not (isinstance(settings[key], str) and settings[key]):
                raise HarnessError(
                    f"{where} remote {key} must be a non-empty string, got {settings[key]!r}"
                )
        timeout = settings.get("timeout", DEFAULT_TIMEOUT)
        if not (is_real(timeout) and 0.0 < timeout < math.inf):
            raise HarnessError(
                f"{where} remote timeout must be a positive finite number, got {timeout!r}"
            )
    return settings


def read_config(path: str | Path, keys: tuple[str, ...] = ()) -> dict:
    """Read a JSON config object.  A top-level key other than the ``search``,
    ``generator`` and ``analysis_generator`` blocks and ``keys`` is refused,
    and so is a block that is not an object (``analysis_generator`` may be
    null).  ``load_settings`` checks what the blocks hold."""
    path = Path(path)
    raw = read_json(path, HarnessError)
    if not isinstance(raw, dict):
        raise HarnessError(f"{path}: top level must be an object")
    for key in raw:
        if key not in _SETTINGS_BLOCKS + keys:
            raise HarnessError(f"{path}: unknown key {key!r}")
    for block in _SETTINGS_BLOCKS:
        value = raw.get(block, {})
        if not (isinstance(value, dict) or block == "analysis_generator" and value is None):
            raise HarnessError(f"{path}: {block} must be a JSON object, got {value!r}")
    return raw


def load_settings(raw: dict, path: Path) -> tuple[SearchConfig, dict | None, dict | None]:
    """The search config and the checked generator and analysis-generator
    settings of the blocks of the config file ``path``, each error naming
    the file and the block."""
    search = _config(SearchConfig, raw.get("search", {}), path, "search")
    generators = [
        None if raw.get(block) is None else _generator_settings(raw[block], path, block)
        for block in ("generator", "analysis_generator")
    ]
    return search, *generators


def suite_config_from_json(path: str | Path) -> SuiteConfig:
    """Load a suite description; relative paths resolve against the JSON dir."""
    path = Path(path)
    raw = read_config(path, _SUITE_KEYS)
    for key in ("problems", "modes", "out_dir", "generator"):
        if key not in raw:
            raise HarnessError(f"{path}: missing required key {key!r}")
    for key in ("problems", "modes"):
        if not isinstance(raw[key], list):
            raise HarnessError(f"{path}: {key} must be a list, got {raw[key]!r}")
    if not all(isinstance(p, str) for p in raw["problems"]):
        raise HarnessError(f"{path}: problems must be a list of strings, got {raw['problems']!r}")
    if not isinstance(raw["out_dir"], str):
        raise HarnessError(f"{path}: out_dir must be a string, got {raw['out_dir']!r}")
    if "mode" in raw.get("search", {}):
        raise HarnessError(f"{path}: search.mode is not a suite setting; modes sets each run's")
    search, generator, analysis_generator = load_settings(raw, path)
    return SuiteConfig(
        problems=tuple(path.parent / p for p in raw["problems"]),
        modes=tuple(raw["modes"]),
        out_dir=path.parent / raw["out_dir"],
        search=search,
        generator=generator,
        analysis_generator=analysis_generator,
        repeats=raw.get("repeats", 3),
        workers=raw.get("workers", 1),
    )


def make_generator(settings: dict, arity: int, run_seed: int) -> Generator:
    """Instantiate a generator from settings that ``load_settings`` checked.
    A mutation generator is seeded by the run seed, and a scripted one
    replays its ``texts``, or else the replies in its ``path``."""
    if settings["type"] == "mutation":
        return MutationGenerator(arity, seed=run_seed)
    if settings["type"] == "scripted":
        return ScriptedGenerator(settings.get("texts") or settings["path"])
    return RemoteChatGenerator(
        url=settings["url"],
        model=settings["model"],
        timeout=float(settings.get("timeout", DEFAULT_TIMEOUT)),
    )


def run_settings(search: SearchConfig, generator: dict, analysis_generator: dict | None) -> dict:
    """The record of every setting of a run, which ``write_trace`` writes
    under the run summary's ``settings`` key: each search field, and the
    settings its generator and analysis generator were built from.  A
    scripted generator that reads its replies from ``path`` is also recorded
    by the sha256 of the file's bytes (None if it cannot be read), so that a
    run is not reused after its replies file changes."""
    record = {
        **json_safe(search),
        "generator_settings": generator,
        "analysis_generator_settings": analysis_generator,
    }
    for name, entry in (("generator", generator), ("analysis_generator", analysis_generator)):
        if not (entry and entry["type"] == "scripted" and entry.get("texts") is None):
            continue
        try:
            digest = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
        except OSError:
            digest = None
        record[f"{name}_replies_sha256"] = digest
    return json_safe(record)


class _Unlocked:
    """A remote generator that lets go of ``lock`` while it waits on its
    reply, so that another run can compute meanwhile."""

    def __init__(self, generator: Generator, lock: threading.Lock):
        self._generator, self._lock = generator, lock
        self.tag = generator.tag

    def generate(self, request):
        self._lock.release()
        try:
            return self._generator.generate(request)
        finally:
            self._lock.acquire()


def run_to_files(
    search: SearchConfig,
    problem: Problem,
    generator: dict,
    analysis_generator: dict | None,
    trace_path: Path,
    summary_path: Path,
    lock: threading.Lock | None = None,
) -> RunTrace:
    """Build a run's equation generator, then its analysis generator unless
    it has no settings of its own, run the search, and write its trace and
    its summary with the run's settings, as recorded before the generators
    read their replies.  ``lock``, held by the caller, is let go while a
    remote generator waits."""

    def build(settings: dict) -> Generator:
        built = make_generator(settings, problem.arity, search.seed)
        if lock is None or settings["type"] != "remote":
            return built
        return _Unlocked(built, lock)

    settings = run_settings(search, generator, analysis_generator)
    equations = build(generator)
    analyses = None if analysis_generator is None else build(analysis_generator)
    trace = run(search, problem, equations, analyses)
    write_trace(trace, trace_path, summary_path, settings)
    return trace


# ---------------------------------------------------------------------------
# Analytics


def _median(s: list[float]) -> float:
    """The median of sorted values: the middle one, or the mean of the two."""
    h = len(s) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


def _spread(sorted_values: list[float]) -> dict:
    # inclusive quartiles: odd-length data puts the median in both halves
    n = len(sorted_values)
    q1 = _median(sorted_values[: (n + 1) // 2])
    q3 = _median(sorted_values[n // 2 :])
    return {
        "median": _median(sorted_values),
        "iqr": q3 - q1,
        "q1": q1,
        "q3": q3,
        "min": sorted_values[0],
        "max": sorted_values[-1],
    }


def variance_stats(values) -> dict:
    """Median/IQR/min/max of the values and of their log10.

    Values are clamped at 1e-300 before log10 so exact zeros stay finite.
    """
    s = sorted(float(v) for v in values)
    logs = sorted(math.log10(max(v, LOG10_FLOOR)) for v in s)
    return {**_spread(s), "mean": sum(s) / len(s), "log10": _spread(logs)}


def win_rate_curve(trajectories_a: dict, trajectories_b: dict) -> list[float]:
    """Per iteration t, the fraction of problems where A's repeat-averaged
    best-so-far NMSE at t is strictly lower than B's; ties count 0.5.  Both
    map the same problems to trajectories of one length."""
    pairs = [(trajectories_a[problem], trajectories_b[problem]) for problem in trajectories_a]
    return [
        sum(1.0 if a[t] < b[t] else 0.5 if a[t] == b[t] else 0.0 for a, b in pairs) / len(pairs)
        for t in range(len(pairs[0][0]))
    ]


def average_trajectories(per_repeat: list[list[float]]) -> list[float]:
    """Element-wise mean across repeats of one length; non-finite entries
    stay infinite."""
    return [
        sum(column) / len(column) if all(math.isfinite(v) for v in column) else INF
        for column in zip(*per_repeat)
    ]


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
    """Best-so-far tr-val NMSE per iteration from a trace file (null -> inf).
    A line that is not a JSON object, or whose ``best_nmse`` is neither null
    nor a number, raises ValueError, as one that does not parse does."""
    values = []
    with open(trace_path) as fh:
        for line in fh:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"{trace_path}: a line is not a JSON object")
            value = record.get("best_nmse")
            if value is None:
                value = INF
            elif not is_real(value):
                raise ValueError(f"{trace_path}: best_nmse {value!r} is not a number")
            values.append(float(value))
    return values


def run_paths(out_dir: str | Path, problem: str, mode: str, index: int) -> tuple[Path, Path]:
    """The trace and summary files of one run:
    ``<out_dir>/<problem>/<mode>/<index>.{trace.jsonl,summary.json}``."""
    run_dir = Path(out_dir) / problem / mode
    return run_dir / f"{index}.trace.jsonl", run_dir / f"{index}.summary.json"


def _outcome(
    config: SuiteConfig,
    problem: str,
    mode: str,
    repeat: int,
    *,
    settings: dict | None = None,
    error: Exception | None = None,
) -> RunOutcome:
    """The outcome of one run, read from its trace and summary files unless
    the run failed.  A null final NMSE (no valid candidate) reads as inf.
    A summary whose ``best_val_nmse`` or ``test_nmse`` is neither null nor a
    finite number, or a trace that does not hold one record per iteration,
    raises ValueError, as one that does not parse does.  ``settings`` is
    given for a reused run, whose summary's ``settings`` record must equal
    it: a summary that records a setting more, fewer or another value, or
    none, is another run's."""
    trace_path, summary_path = run_paths(config.out_dir, problem, mode, repeat)
    seed = config.search.seed + repeat
    trajectory, summary = [], {}
    if error is None:
        summary = read_json(summary_path, ValueError)
        if not isinstance(summary, dict):
            raise ValueError(f"{summary_path} is not a run summary")
        if settings is not None and summary.get("settings") != settings:
            raise ValueError(f"{summary_path} records other search or generator settings")
        for name in ("best_val_nmse", "test_nmse"):
            value = summary.get(name)
            # the writer records a non-finite score as null
            if not (value is None or is_real(value) and math.isfinite(value)):
                raise ValueError(f"{summary_path}: {name} {value!r} is not a finite number")
        trajectory = load_trajectory(trace_path)
        if len(trajectory) != config.search.iterations:
            raise ValueError(f"{trace_path} holds {len(trajectory)} iterations")
    final_val_nmse = summary.get("best_val_nmse")
    return RunOutcome(
        problem=problem,
        mode=mode,
        repeat=repeat,
        seed=seed,
        trace_path=trace_path,
        summary_path=summary_path,
        trajectory=tuple(trajectory),
        final_val_nmse=INF if final_val_nmse is None else float(final_val_nmse),
        test_nmse=summary.get("test_nmse"),
        reused=settings is not None,
        error=None if error is None else f"{type(error).__name__}: {error}",
    )


def _run_one(
    config: SuiteConfig,
    problem: Problem,
    mode: str,
    repeat: int,
    lock: threading.Lock | None = None,
) -> RunOutcome:
    trace_path, summary_path = run_paths(config.out_dir, problem.name, mode, repeat)
    search = replace(config.search, mode=mode, seed=config.search.seed + repeat)
    if trace_path.exists() and summary_path.exists():
        settings = run_settings(search, config.generator, config.analysis_generator)
        try:
            return _outcome(config, problem.name, mode, repeat, settings=settings)
        # the summary is written last: one cut short is an unfinished run, and
        # one that records other settings is another run's
        except ValueError:
            pass
    try:
        run_to_files(
            search,
            problem,
            config.generator,
            config.analysis_generator,
            trace_path,
            summary_path,
            lock,
        )
    except Exception as exc:
        return _outcome(config, problem.name, mode, repeat, error=exc)
    return _outcome(config, problem.name, mode, repeat)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute (or resume) every run, then reduce to the suite report.

    Per-run failures are recorded and excluded from aggregates; the suite
    itself keeps going.  Problems that share a name would share run files,
    so they are rejected before any run starts.  With more than one worker,
    up to ``workers`` runs are in flight and one computes: the others wait
    on a remote reply or for the lock.  An exception that escapes a run, or
    one while the results are collected, an interrupt included, starts no
    further run before it propagates.  Outputs under out_dir:
    per-run trace and summary files, ``summary.json``, and
    ``trajectories.csv``.
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
    names = [problem.name for problem in problems]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise HarnessError(f"problems share a name: {', '.join(shared)}")

    jobs = [
        (problem, mode, repeat)
        for problem in problems
        for mode in config.modes
        for repeat in range(config.repeats)
    ]
    if config.workers == 1:
        outcomes += [_run_one(config, p, mode, rep) for p, mode, rep in jobs]
    else:
        lock, stop = threading.Lock(), threading.Event()

        def run_locked(problem: Problem, mode: str, repeat: int) -> RunOutcome | None:
            with lock:
                # a job taken before the suite stopped starts no run
                if stop.is_set():
                    return None
                try:
                    return _run_one(config, problem, mode, repeat, lock)
                except BaseException:
                    stop.set()
                    raise

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(run_locked, p, mode, rep) for p, mode, rep in jobs]
            try:
                outcomes += [f.result() for f in futures]
            except BaseException:
                # else leaving the pool runs every queued run first
                stop.set()
                pool.shutdown(cancel_futures=True)
                raise

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
        trajectories = [o.trajectory for o in runs]
        mode_trajectories.setdefault(mode, {})[problem] = average_trajectories(trajectories)

    win_curves: dict = {}
    for a in modes:
        for b in modes:
            if a == b:
                continue
            ta, tb = mode_trajectories.get(a, {}), mode_trajectories.get(b, {})
            shared = set(ta) & set(tb)
            if not shared:
                continue
            win_curves[f"{a}_vs_{b}"] = win_rate_curve(
                {k: ta[k] for k in shared}, {k: tb[k] for k in shared}
            )

    return SuiteReport(
        outcomes=outcomes,
        aggregates=aggregates,
        win_curves=win_curves,
        failures=failures,
    )


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
                # relative to out_dir, so the report is machine-independent
                "trace": o.trace_path.relative_to(out).as_posix(),
                "final_val_nmse": o.final_val_nmse,
                "test_nmse": o.test_nmse,
                "error": o.error,
            }
            for o in report.outcomes
        ],
        "aggregates": report.aggregates,
        "win_rate": report.win_curves,
    }
    write_json(out / "summary.json", payload)

    with open(out / "trajectories.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "mode", "repeat", "iteration", "best_nmse"])
        for o in report.outcomes:
            for t, value in enumerate(o.trajectory):
                rendered = "" if not math.isfinite(value) else repr(value)
                writer.writerow([o.problem, o.mode, o.repeat, t, rendered])
