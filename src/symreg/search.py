"""The evolutionary search loop and the island experience buffer.

One iteration = one equation prompt producing ``samples_per_prompt``
candidates.  Three modes differ only in how the prompt's analysis block is
produced: ``llm-sr`` injects none, ``statistical-hint`` computes the fixed
default analysis once up front, ``proaug`` asks the analysis generator for a
fresh directive program every iteration and executes it on tr-tr.

Everything is deterministic given the generators: per-phase seeds are derived
from the run seed with SeedSequence, and run traces serialize without
wall-clock fields so equal runs produce byte-identical trace files.

An iteration's samples are fitted in worker processes, forked once per
process at its first fit, at most one per usable CPU.  The parent collects
the fits of iteration t only after the analysis of iteration t+1, just
before it draws that iteration's demonstrations, so the two overlap; buffer
adds and trace records keep their order.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import context as ctx
from .data import (
    DEFAULT_SPLIT_RATIO,
    Problem,
    SplitView,
    check_counts,
    json_safe,
    split,
    write_json,
)
from .expr import Skeleton, evaluate, parse
from .fit import Candidate, OptimizerConfig, evaluate_candidate, nmse, DegenerateTargetError
from .generate import (
    ExtractionError,
    Generator,
    GeneratorRequest,
    build_analysis_prompt,
    build_equation_prompt,
    extract_expression,
    extract_spec,
)

MODES = ("llm-sr", "statistical-hint", "proaug")
K_DEMOS = 2
FITNESS_FLOOR = -10.0

# phase codes for seed derivation
_DEMO, _EVAL = 1, 2


class SearchError(ValueError):
    """Raised for invalid configurations (bad mode, missing generator)."""


@dataclass(frozen=True)
class SearchConfig:
    iterations: int = 150
    samples_per_prompt: int = 2
    mode: str = "proaug"
    islands: int = 4
    island_capacity: int = 32
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    retry_budget: int = 3

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SearchError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_counts(
            self, SearchError, iterations=1, samples_per_prompt=1, islands=1,
            island_capacity=K_DEMOS, seed=0, retry_budget=0,
        )


def derive_seed(root: int, *path: int) -> int:
    """Stable per-phase integer seed from the run seed and a phase path."""
    return int(np.random.SeedSequence([root, *path]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Experience buffer


class ExperienceBuffer:
    """Fixed number of islands, each a fitness-sorted bounded population.

    Valid candidates are routed round-robin by an insertion counter.  Within
    an island, candidates are unique by canonical skeleton text (the better
    copy is kept); overflowing an island evicts its worst member.
    """

    def __init__(self, islands: int, capacity: int):
        self.capacity = capacity
        self._islands: list[list[Candidate]] = [[] for _ in range(islands)]
        self._counter = 0

    def add(self, candidate: Candidate) -> None:
        if not candidate.is_valid:
            return
        island = self._islands[self._counter % len(self._islands)]
        self._counter += 1
        key = candidate.skeleton.text
        for i, existing in enumerate(island):
            if existing.skeleton.text == key:
                if candidate.fitness > existing.fitness:
                    island.pop(i)
                    break
                return
        island.append(candidate)
        island.sort(key=lambda c: -c.fitness)
        if len(island) > self.capacity:
            island.pop()

    def sample_demonstrations(self, k: int, seed: int) -> list[Candidate]:
        """Draw up to k demonstrations from one uniformly chosen island.

        Weights are exp(max(fitness - best, FITNESS_FLOOR)), where best is the
        island's best fitness: shifting by it makes the draw invariant to
        adding a constant to every fitness, and the floor keeps every weight
        at or above e^-10, so no candidate becomes unreachable and the
        remaining weights never all underflow.  Draws are without
        replacement, each one inverting the cdf of the remaining weights with
        ``rng.random()`` as ``Generator.choice`` does.  The returned list is
        sorted ascending by fitness (worst first).  An empty buffer returns an
        empty list.
        """
        rng = np.random.default_rng(seed)
        occupied = [island for island in self._islands if island]
        if not occupied:
            return []
        island = occupied[rng.integers(len(occupied))]
        fitnesses = np.array([c.fitness for c in island])
        weights = np.exp(np.maximum(fitnesses - fitnesses.max(), FITNESS_FLOOR))
        chosen: list[int] = []
        available = list(range(len(island)))
        for _ in range(min(k, len(island))):
            w = weights[available]
            cdf = (w / w.sum()).cumsum()
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
            chosen.append(available.pop(pick))
        picked = [island[i] for i in chosen]
        picked.sort(key=lambda c: c.fitness)
        return picked


# ---------------------------------------------------------------------------
# Run traces


@dataclass(frozen=True)
class SampleRecord:
    raw: str
    expression: str | None
    error: str | None
    retries: int
    fitness: float
    train_mse: float
    params: tuple[float, ...]


@dataclass(frozen=True)
class AnalysisRecord:
    prompt: str
    spec_text: str | None
    report: ctx.AnalysisReport | None
    error: str | None
    attempts: int
    cached: bool


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    analysis: AnalysisRecord | None
    equation_prompt: str
    samples: tuple[SampleRecord, ...]
    best_nmse: float


@dataclass(frozen=True)
class RunTrace:
    records: tuple[IterationRecord, ...]
    best: Candidate | None
    test_nmse: float | None
    problem_name: str
    generator_tag: str
    timings: dict[str, float]


def trace_lines(trace: RunTrace) -> list[str]:
    """One JSON line per iteration. Deliberately excludes configuration and
    wall-clock timing so identical runs serialize byte-identically."""
    return [json.dumps(json_safe(rec), sort_keys=True, allow_nan=False) for rec in trace.records]


def trace_summary(trace: RunTrace) -> dict:
    """The run's results: its problem, generator tag, best candidate and its
    scores, and timings: wall seconds of ``analysis``, which may overlap the
    previous iteration's fits, ``generation`` (equation calls, re-asks and
    parsing each reply), ``evaluation`` (handing fits to the fit workers and
    waiting for them) and ``total``.  A non-finite score stays a float here;
    ``write_json`` writes it as null."""
    best = trace.best
    return dict(
        problem=trace.problem_name,
        generator=trace.generator_tag,
        best_expression=best.skeleton.text if best is not None else None,
        best_params=best.fit.params if best is not None else None,
        best_val_nmse=-best.fitness if best is not None else float("inf"),
        test_nmse=trace.test_nmse,
        timings=trace.timings,
    )


# ---------------------------------------------------------------------------
# Fit workers


def _serve(conn, views: dict[int, SplitView]) -> None:
    """A fit worker: keep each run's split under its token, starting from
    ``views``, fit each job's skeleton on it and send back ``(job,
    (FitResult, fitness))``, or the exception the fit raised.  It ignores
    SIGINT and returns when the parent dies or the pipe closes."""
    import multiprocessing

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    parent = multiprocessing.parent_process().sentinel
    try:
        while parent not in multiprocessing.connection.wait([conn, parent]):
            kind, token, body = conn.recv()
            if kind == "data":
                views[token] = body
            elif kind == "drop":
                del views[token]
            else:
                job, text, arity, optimizer, seed = body
                try:
                    skeleton = parse(text, arity)
                    candidate = evaluate_candidate(skeleton, views[token], optimizer, seed)
                    reply = (candidate.fit, candidate.fitness)
                except Exception as exc:
                    reply = exc
                conn.send((job, reply))
    except (EOFError, OSError):
        pass


class _Worker:
    """A forked fit worker and the parent's end of its pipe.  It inherits the
    split of the run that forks it."""

    def __init__(self, token: int, view: SplitView):
        # imported here, so a process that fits nothing does not load them
        import multiprocessing
        import multiprocessing.connection

        # fork, not Python 3.14's forkserver default, whose cold start every
        # first fit would wait on
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()
        self.process = context.Process(target=_serve, args=(theirs, {token: view}), daemon=True)
        # SIGINT stays blocked until the worker ignores it: Ctrl-C is the parent's
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self.process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        theirs.close()
        self.conn = ours
        self.tokens = {token}  # the runs whose split it holds
        self.pending = 0  # jobs sent whose reply is not read yet
        self.replies: dict[int, object] = {}  # replies read for another run's job
        self.reading = threading.Lock()


_workers: list[_Worker] = []
_workers_lock = threading.Lock()
_serial = itertools.count()  # run tokens and job ids


def _retire(worker: _Worker) -> RuntimeError:
    """Take ``worker`` out of service and reap it; return the error that
    fails the runs whose jobs it held.  The caller holds ``_workers_lock``."""
    if worker in _workers:
        _workers.remove(worker)
        worker.process.terminate()
        worker.process.join()
    return RuntimeError(f"fit worker {worker.process.pid} died ({worker.process.exitcode})")


class _Fits:
    """One run's fits on the process's fit workers.

    A job goes to an idle worker; a new worker is forked only when every
    worker is busy and fewer run than the process has usable CPUs, else the
    job queues on the least busy one.  A worker receives the run's split
    before its first job of the run, and drops it when the run ends.  Runs
    on several threads share the workers: a reply read by one thread for
    another's job waits in ``replies``.  A worker that dies fails the runs
    whose jobs it held.
    """

    def __init__(self, view: SplitView):
        self.view = view
        self.token = next(_serial)
        self.unread: set[tuple[_Worker, int]] = set()

    def submit(self, skeleton: Skeleton, optimizer: OptimizerConfig, seed: int):
        with _workers_lock:
            for worker in [w for w in _workers if not w.pending and not w.process.is_alive()]:
                _retire(worker)
            idle = [w for w in _workers if not w.pending]
            if idle:
                worker = idle[0]
            elif len(_workers) < len(os.sched_getaffinity(0)):
                worker = _Worker(self.token, self.view)
                _workers.append(worker)
            else:
                worker = min(_workers, key=lambda w: w.pending)
            job = next(_serial)
            try:
                if self.token not in worker.tokens:
                    worker.conn.send(("data", self.token, self.view))
                    worker.tokens.add(self.token)
                body = (job, skeleton.text, skeleton.arity, optimizer, seed)
                worker.conn.send(("fit", self.token, body))
            except OSError:
                raise _retire(worker) from None
            worker.pending += 1
        self.unread.add((worker, job))
        return worker, job

    def result(self, ticket):
        """The ``(FitResult, fitness)`` of a submitted job."""
        worker, job = ticket
        self.unread.discard(ticket)
        with worker.reading:
            while job not in worker.replies:
                try:
                    got, reply = worker.conn.recv()
                except (EOFError, OSError):
                    with _workers_lock:
                        error = _retire(worker)
                    raise error from None
                except BaseException:
                    # cut short mid-message, the pipe is out of step
                    with _workers_lock:
                        _retire(worker)
                    raise
                worker.replies[got] = reply
                with _workers_lock:
                    worker.pending -= 1
            reply = worker.replies.pop(job)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def __enter__(self) -> _Fits:
        return self

    def __exit__(self, kind, value, tb) -> None:
        # after an error, wait for the run's fits; after an interrupt, stop
        # the workers that hold them
        for ticket in list(self.unread):
            if kind is None or issubclass(kind, Exception):
                try:
                    self.result(ticket)
                except Exception:
                    pass
            else:
                with _workers_lock:
                    _retire(ticket[0])
        with _workers_lock:
            for worker in [w for w in _workers if self.token in w.tokens]:
                worker.tokens.remove(self.token)
                try:
                    worker.conn.send(("drop", self.token, None))
                except OSError:
                    _retire(worker)


# ---------------------------------------------------------------------------
# The loop


def _ask(generator: Generator, request: GeneratorRequest, reply, extract, budget: int, reprompt):
    """Extract a value from a reply, re-asking up to ``budget`` times.

    ``reply`` is the first ``(raw text, generator error)`` pair.  A generator
    error or an ``ExtractionError`` from ``extract(raw)`` spends one re-ask:
    ``request`` again with one sample and ``reprompt(error)`` as its prompt.
    Returns ``(value or None, last raw text, last error, re-asks spent)``.
    """
    raw, error = reply
    for retries in range(budget + 1):
        if retries:
            response = generator.generate(replace(request, prompt=reprompt(error), n_samples=1))
            raw, error = response.raw_texts[0], response.errors[0]
        if error is not None:
            error = f"generation failed: {error}"
            continue
        try:
            return extract(raw), raw, None, retries
        except ExtractionError as exc:
            error = str(exc)
    return None, raw, error, budget


def run(
    config: SearchConfig,
    problem: Problem,
    generator: Generator,
    analysis_generator: Generator | None = None,
) -> RunTrace:
    """Execute the search and return its full trace.

    ``generator`` produces equation candidates; ``analysis_generator`` (proaug
    only; defaults to ``generator``) produces analysis programs.  The held-out
    test set is read exactly once, after the loop, to score the final best
    candidate.
    """
    timings = {"analysis": 0.0, "generation": 0.0, "evaluation": 0.0, "total": 0.0}
    t_start = time.monotonic()

    view = split(problem.train, config.seed, DEFAULT_SPLIT_RATIO)
    buffer = ExperienceBuffer(config.islands, config.island_capacity)
    if analysis_generator is None:
        analysis_generator = generator

    # the report the equation prompt carries: the hint, fixed for the run, or
    # proaug's last successful analysis (None until one succeeds)
    report: ctx.AnalysisReport | None = None
    if config.mode == "statistical-hint":
        t0 = time.monotonic()
        report = ctx.execute(
            ctx.default_hint_spec(problem.arity),
            view.tr_tr,
            seed=config.seed,
            source="statistical-hint",
        )
        timings["analysis"] += time.monotonic() - t0

    analysis_memo: dict = {}
    seen_programs: set[str] = set()
    last_analysis_error: str | None = None

    records: list[IterationRecord] = []
    best: Candidate | None = None
    best_nmse = float("inf")

    def finish(t, analysis_record, prompt, asked) -> None:
        """Collect iteration t's fits and record the iteration."""
        nonlocal best, best_nmse
        samples: list[SampleRecord] = []
        for skeleton, raw, error, retries, ticket in asked:
            candidate = None
            if skeleton is not None:
                t0 = time.monotonic()
                candidate = Candidate(skeleton, *fits.result(ticket))
                timings["evaluation"] += time.monotonic() - t0
                buffer.add(candidate)
                if candidate.is_valid and -candidate.fitness < best_nmse:
                    best_nmse = -candidate.fitness
                    best = candidate
            samples.append(
                SampleRecord(
                    raw=raw,
                    expression=None if skeleton is None else skeleton.text,
                    error=error,
                    retries=retries,
                    fitness=float("-inf") if candidate is None else candidate.fitness,
                    train_mse=float("inf") if candidate is None else candidate.fit.train_mse,
                    params=() if candidate is None else candidate.fit.params,
                )
            )
        records.append(
            IterationRecord(
                iteration=t,
                analysis=analysis_record,
                equation_prompt=prompt,
                samples=tuple(samples),
                best_nmse=best_nmse,
            )
        )

    with _Fits(view) as fits:
        # the previous iteration, whose fits the workers may still be running
        unfinished = None
        for t in range(config.iterations):
            analysis_record: AnalysisRecord | None = None
            if config.mode == "proaug":
                t0 = time.monotonic()
                analysis_prompt = build_analysis_prompt(problem, last_analysis_error)
                request = GeneratorRequest(
                    prompt=analysis_prompt,
                    n_samples=1,
                    purpose="analysis",
                )
                first = analysis_generator.generate(request)
                spec, _, last_analysis_error, retries = _ask(
                    analysis_generator,
                    request,
                    (first.raw_texts[0], first.errors[0]),
                    lambda text: extract_spec(text, problem.arity),
                    config.retry_budget,
                    lambda error: build_analysis_prompt(problem, error),
                )
                spec_text, fresh, cached = None, None, False
                if spec is not None:
                    spec_text = spec.text
                    cached = spec_text in seen_programs
                    seen_programs.add(spec_text)
                    fresh = report = ctx.execute(
                        spec, view.tr_tr, seed=config.seed, source="proaug", memo=analysis_memo
                    )
                analysis_record = AnalysisRecord(
                    prompt=analysis_prompt,
                    spec_text=spec_text,
                    report=fresh,
                    error=last_analysis_error,
                    attempts=retries + 1,
                    cached=cached,
                )
                timings["analysis"] += time.monotonic() - t0

            if unfinished is not None:
                finish(*unfinished)
            demos = buffer.sample_demonstrations(K_DEMOS, derive_seed(config.seed, _DEMO, t))
            prompt = build_equation_prompt(problem, demos, report)

            t0 = time.monotonic()
            request = GeneratorRequest(
                prompt=prompt,
                n_samples=config.samples_per_prompt,
                purpose="equation",
            )
            response = generator.generate(request)
            timings["generation"] += time.monotonic() - t0

            asked = []
            for j in range(config.samples_per_prompt):
                t0 = time.monotonic()
                skeleton, raw, error, retries = _ask(
                    generator,
                    request,
                    (response.raw_texts[j], response.errors[j]),
                    lambda text: extract_expression(text, problem.arity),
                    config.retry_budget,
                    lambda _: prompt,
                )
                timings["generation"] += time.monotonic() - t0
                ticket = None
                if skeleton is not None:
                    t0 = time.monotonic()
                    seed = derive_seed(config.seed, _EVAL, t, j)
                    ticket = fits.submit(skeleton, config.optimizer, seed)
                    timings["evaluation"] += time.monotonic() - t0
                asked.append((skeleton, raw, error, retries, ticket))
            unfinished = (t, analysis_record, prompt, asked)
        finish(*unfinished)

    test_nmse: float | None = None
    if problem.test is not None and best is not None:
        pred = evaluate(best.skeleton, problem.test.features, best.fit.params)
        try:
            value = nmse(pred, problem.test.target)
            test_nmse = value if math.isfinite(value) else None
        except DegenerateTargetError:
            test_nmse = None

    timings["total"] = time.monotonic() - t_start
    return RunTrace(
        records=tuple(records),
        best=best,
        test_nmse=test_nmse,
        problem_name=problem.name,
        generator_tag=generator.tag,
        timings=timings,
    )


def write_trace(trace: RunTrace, trace_path, summary_path, settings: dict | None = None) -> None:
    """Write the trace lines, then the summary: the run's results and, under
    its ``settings`` key, the record of the run's settings (null if none is
    given)."""
    trace_path = Path(trace_path)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text("\n".join(trace_lines(trace)) + "\n")
    write_json(summary_path, {**trace_summary(trace), "settings": settings})
