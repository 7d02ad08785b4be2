"""The evolutionary search loop and the island experience buffer.

One iteration = one equation prompt producing ``samples_per_prompt``
candidates.  Three modes differ only in how the prompt's analysis block is
produced: ``llm-sr`` injects none, ``statistical-hint`` computes the fixed
default analysis once up front, ``proaug`` asks the analysis generator for a
fresh directive program every iteration and executes it on tr-tr.

Everything is deterministic given the generators: per-phase seeds are derived
from the run seed with SeedSequence, and run traces serialize without
wall-clock fields so equal runs produce byte-identical trace files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import context as ctx
from .data import DEFAULT_SPLIT_RATIO, Problem, json_safe, split
from .expr import evaluate
from .fit import Candidate, OptimizerConfig, evaluate_candidate, nmse, DegenerateTargetError
from .generate import (
    DecodingConfig,
    ExtractionError,
    Generator,
    GeneratorRequest,
    build_analysis_prompt,
    build_equation_prompt,
    extract_expression,
    extract_spec,
)

MODES = ("llm-sr", "statistical-hint", "proaug")
FITNESS_FLOOR = -10.0

# phase codes for seed derivation
_DEMO, _EVAL, _ANALYSIS = 1, 2, 3


class SearchError(ValueError):
    """Raised for invalid configurations (bad mode, missing generator)."""


@dataclass(frozen=True)
class SearchConfig:
    iterations: int = 150
    samples_per_prompt: int = 2
    mode: str = "proaug"
    islands: int = 4
    island_capacity: int = 32
    sampling_temperature: float = 1.0
    k_demos: int = 2
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    retry_budget: int = 3
    split_ratio: float = DEFAULT_SPLIT_RATIO
    split_seed: int | None = None
    inject_report: bool = True
    fitness_floor: float = FITNESS_FLOOR
    decoding: DecodingConfig = field(default_factory=DecodingConfig)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SearchError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.iterations < 1:
            raise SearchError("iterations must be >= 1")
        if self.samples_per_prompt < 1:
            raise SearchError("samples_per_prompt must be >= 1")
        if self.islands < 1:
            raise SearchError("islands must be >= 1")
        if self.k_demos < 1:
            raise SearchError("k_demos must be >= 1")
        if self.island_capacity < self.k_demos:
            raise SearchError("island_capacity must be >= k_demos")
        if self.sampling_temperature <= 0:
            raise SearchError("sampling_temperature must be positive")


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
        if islands < 1 or capacity < 1:
            raise SearchError("islands and capacity must be >= 1")
        self.capacity = capacity
        self._islands: list[list[Candidate]] = [[] for _ in range(islands)]
        # per island: (temperature, floor, shifted fitnesses, weights, first-pick
        # cdf), rebuilt on the first draw after the island changes
        self._draw_tables: list[tuple | None] = [None] * islands
        self._counter = 0

    @property
    def islands(self) -> tuple[tuple[Candidate, ...], ...]:
        return tuple(tuple(island) for island in self._islands)

    def __len__(self) -> int:
        return sum(len(island) for island in self._islands)

    def add(self, candidate: Candidate) -> None:
        if not candidate.is_valid:
            return
        index = self._counter % len(self._islands)
        island = self._islands[index]
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
        self._draw_tables[index] = None

    def _island_weights(self, index: int, temperature: float, floor: float) -> tuple:
        cached = self._draw_tables[index]
        if cached is None or cached[:2] != (temperature, floor):
            fitnesses = np.array([c.fitness for c in self._islands[index]])
            shifted = np.maximum(fitnesses - fitnesses.max(), floor)
            weights = np.exp(shifted / temperature)
            cached = (temperature, floor, shifted, weights, _cdf(weights))
            self._draw_tables[index] = cached
        return cached[2:]

    def sample_demonstrations(
        self,
        k: int,
        temperature: float,
        seed: int,
        floor: float = FITNESS_FLOOR,
    ) -> list[Candidate]:
        """Draw up to k demonstrations from one uniformly chosen island.

        Weights are exp((fitness - max_fitness clamped at `floor`) / T);
        shifting by the max first makes the draw invariant to adding a
        constant to every fitness.  Draws are without replacement, each one
        inverting the cdf of the remaining weights with ``rng.random()`` as
        ``Generator.choice`` does.  When every remaining weight has underflowed
        to 0 (a low temperature after the best member is taken), the remaining
        weights are re-shifted by their own max, which is the same softmax
        without the underflow.  The returned list is sorted ascending by
        fitness (worst first).  An empty buffer returns an empty list.
        """
        rng = np.random.default_rng(seed)
        occupied = [i for i, island in enumerate(self._islands) if island]
        if not occupied:
            return []
        index = occupied[rng.integers(len(occupied))]
        island = self._islands[index]
        shifted, weights, cdf = self._island_weights(index, temperature, floor)
        chosen: list[int] = []
        available = list(range(len(island)))
        for _ in range(min(k, len(island))):
            if chosen:
                w = weights[available]
                if w.sum() == 0.0:
                    rest = shifted[available]
                    w = np.exp((rest - rest.max()) / temperature)
                cdf = _cdf(w)
            pick = int(cdf.searchsorted(rng.random(), side="right"))
            chosen.append(available.pop(pick))
        picked = [island[i] for i in chosen]
        picked.sort(key=lambda c: c.fitness)
        return picked


def _cdf(weights: np.ndarray) -> np.ndarray:
    """Normalized cumulative weights, computed as ``Generator.choice`` does."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


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
    report: dict | None
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
    config: SearchConfig
    problem_name: str
    generator_tag: str
    timings: dict[str, float]


def trace_lines(trace: RunTrace) -> list[str]:
    """One JSON line per iteration. Deliberately excludes configuration and
    wall-clock timing so identical runs serialize byte-identically."""
    return [json.dumps(json_safe(rec), sort_keys=True, allow_nan=False) for rec in trace.records]


def trace_summary(trace: RunTrace) -> dict:
    """Every search setting, the best candidate and its scores, and timings."""
    cfg = trace.config
    best = trace.best
    summary = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    summary.update(
        problem=trace.problem_name,
        generator=trace.generator_tag,
        best_expression=best.skeleton.text if best is not None else None,
        best_params=best.fit.params if best is not None else None,
        best_val_nmse=-best.fitness if best is not None else float("inf"),
        test_nmse=trace.test_nmse,
        timings=trace.timings,
    )
    return json_safe(summary)


# ---------------------------------------------------------------------------
# The loop


def _run_analysis_phase(
    problem: Problem,
    tr_tr,
    config: SearchConfig,
    generator: Generator,
    seed: int,
    cache: dict,
    previous_error: str | None,
) -> tuple[AnalysisRecord, ctx.AnalysisReport | None]:
    """One proaug analysis phase: ask, extract, execute, with feedback re-asks.

    Programs run with the run's split seed, so ``cache`` is keyed by the
    canonical program text alone.
    """
    prompt = build_analysis_prompt(problem, previous_error)
    first_prompt = prompt
    last_error: str | None = None
    for attempt in range(1 + config.retry_budget):
        request = GeneratorRequest(
            prompt=prompt, n_samples=1, decoding=config.decoding, purpose="analysis"
        )
        response = generator.generate(request)
        raw = response.raw_texts[0]
        sample_error = response.errors[0]
        if sample_error is not None:
            last_error = f"generation failed: {sample_error}"
        else:
            try:
                spec = extract_spec(raw, problem.arity)
                spec_text = ctx.format_spec(spec)
                cached = spec_text in cache
                if cached:
                    report = cache[spec_text]
                else:
                    report = ctx.execute(spec, tr_tr, seed=seed, source="proaug")
                    cache[spec_text] = report
                record = AnalysisRecord(
                    prompt=first_prompt,
                    spec_text=spec_text,
                    report=ctx.report_to_json(report),
                    error=None,
                    attempts=attempt + 1,
                    cached=cached,
                )
                return record, report
            except ExtractionError as exc:
                last_error = str(exc)
        prompt = build_analysis_prompt(problem, last_error)
    record = AnalysisRecord(
        prompt=first_prompt,
        spec_text=None,
        report=None,
        error=last_error,
        attempts=1 + config.retry_budget,
        cached=False,
    )
    return record, None


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

    split_seed = config.split_seed if config.split_seed is not None else config.seed
    view = split(problem.train, split_seed, config.split_ratio)
    buffer = ExperienceBuffer(config.islands, config.island_capacity)
    if analysis_generator is None:
        analysis_generator = generator

    hint_report: ctx.AnalysisReport | None = None
    if config.mode == "statistical-hint" and config.inject_report:
        t0 = time.monotonic()
        hint_report = ctx.execute(
            ctx.default_hint_spec(problem.arity),
            view.tr_tr,
            seed=split_seed,
            source="statistical-hint",
        )
        timings["analysis"] += time.monotonic() - t0

    analysis_cache: dict = {}
    last_report: ctx.AnalysisReport | None = None
    last_analysis_error: str | None = None

    records: list[IterationRecord] = []
    best: Candidate | None = None
    best_nmse = float("inf")

    for t in range(config.iterations):
        analysis_record: AnalysisRecord | None = None
        report: ctx.AnalysisReport | None = None
        if config.inject_report:
            if config.mode == "proaug":
                t0 = time.monotonic()
                analysis_record, fresh = _run_analysis_phase(
                    problem,
                    view.tr_tr,
                    config,
                    analysis_generator,
                    split_seed,
                    analysis_cache,
                    last_analysis_error,
                )
                timings["analysis"] += time.monotonic() - t0
                if fresh is not None:
                    last_report = fresh
                    last_analysis_error = None
                else:
                    last_analysis_error = analysis_record.error
                report = last_report  # falls back to last success (None at t=0)
            elif config.mode == "statistical-hint":
                report = hint_report

        demos = buffer.sample_demonstrations(
            config.k_demos,
            config.sampling_temperature,
            derive_seed(config.seed, _DEMO, t),
            floor=config.fitness_floor,
        )
        prompt = build_equation_prompt(problem, demos, report)

        t0 = time.monotonic()
        response = generator.generate(
            GeneratorRequest(
                prompt=prompt,
                n_samples=config.samples_per_prompt,
                decoding=config.decoding,
                purpose="equation",
            )
        )
        timings["generation"] += time.monotonic() - t0

        samples: list[SampleRecord] = []
        for j in range(config.samples_per_prompt):
            raw = response.raw_texts[j]
            error = response.errors[j]
            skeleton = None
            retries = 0
            while True:
                if error is None:
                    try:
                        skeleton = extract_expression(raw, problem.arity)
                        break
                    except ExtractionError as exc:
                        error = str(exc)
                if retries >= config.retry_budget:
                    break
                retries += 1
                t0 = time.monotonic()
                retry = generator.generate(
                    GeneratorRequest(
                        prompt=prompt,
                        n_samples=1,
                        decoding=config.decoding,
                        purpose="equation",
                    )
                )
                timings["generation"] += time.monotonic() - t0
                raw = retry.raw_texts[0]
                error = retry.errors[0]

            if skeleton is None:
                samples.append(
                    SampleRecord(
                        raw=raw,
                        expression=None,
                        error=error,
                        retries=retries,
                        fitness=float("-inf"),
                        train_mse=float("inf"),
                        params=(),
                    )
                )
                continue

            t0 = time.monotonic()
            candidate = evaluate_candidate(
                skeleton,
                view,
                config.optimizer,
                seed=derive_seed(config.seed, _EVAL, t, j),
            )
            timings["evaluation"] += time.monotonic() - t0
            buffer.add(candidate)
            if candidate.is_valid and -candidate.fitness < best_nmse:
                best_nmse = -candidate.fitness
                best = candidate
            samples.append(
                SampleRecord(
                    raw=raw,
                    expression=skeleton.text,
                    error=None,
                    retries=retries,
                    fitness=candidate.fitness,
                    train_mse=candidate.fit.train_mse,
                    params=candidate.fit.params,
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
        config=config,
        problem_name=problem.name,
        generator_tag=generator.tag,
        timings=timings,
    )


def write_trace(trace: RunTrace, trace_path, summary_path) -> None:
    trace_path = Path(trace_path)
    summary_path = Path(summary_path)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text("\n".join(trace_lines(trace)) + "\n")
    summary_path.write_text(
        json.dumps(trace_summary(trace), indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
