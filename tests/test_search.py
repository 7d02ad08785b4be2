import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from symreg import context as ctx
from symreg import search
from symreg.data import json_safe, split
from symreg.expr import parse
from symreg.fit import Candidate, FitResult, OptimizerConfig
from symreg.generate import (
    REPORT_HEADER,
    GeneratorRequest,
    GeneratorResponse,
    MutationGenerator,
    ScriptedGenerator,
)
from symreg.harness import run_settings
from symreg.search import (
    ExperienceBuffer,
    SearchConfig,
    SearchError,
    derive_seed,
    run,
    trace_lines,
    trace_summary,
    write_trace,
)
from tests.conftest import make_problem

GOOD_POWER = "<thought>power law</thought>\n```expr\np0 * x0 ^ p1\n```"
GOOD_LINEAR = "<thought>line</thought>\n```expr\np0 * x0 + p1\n```"
GOOD_ANALYSIS = "<thought>basics</thought>\n```analysis\nstats all\n```"


def _quick_config(**overrides):
    base = dict(
        iterations=3,
        samples_per_prompt=1,
        mode="llm-sr",
        islands=2,
        island_capacity=8,
        seed=0,
        optimizer=OptimizerConfig(restarts=2, max_evaluations=400),
        retry_budget=2,
    )
    base.update(overrides)
    return SearchConfig(**base)


def _candidate(text, fitness, arity=1):
    sk = parse(text, arity)
    fit = FitResult(params=(), train_mse=0.0, converged=True, restarts_used=0, evaluations=1)
    return Candidate(sk, fit, fitness)


class RecordingGenerator:
    """Wraps a scripted generator and logs every prompt it sees."""

    def __init__(self, texts, tag="scripted"):
        self._inner = ScriptedGenerator(texts)
        self.tag = tag
        self.prompts = []

    def generate(self, request):
        self.prompts.append(request.prompt)
        return self._inner.generate(request)


class FailingGenerator:
    """Reports ``HTTP 500`` for its first ``fail_calls`` calls (all of them by
    default), then replies ``reply``; logs every request it sees."""

    tag = "failing"

    def __init__(self, fail_calls=None, reply=""):
        self.fail_calls = fail_calls
        self.reply = reply
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        n = request.n_samples
        if self.fail_calls is None or len(self.requests) <= self.fail_calls:
            return GeneratorResponse(("",) * n, ("HTTP 500",) * n)
        return GeneratorResponse((self.reply,) * n, (None,) * n)


class MustNotCall:
    tag = "sentinel"

    def generate(self, request):
        raise AssertionError("this generator must never be invoked")


class TestDeriveSeed:
    def test_matches_seed_sequence_oracle(self):
        expected = int(np.random.SeedSequence([7, 1, 3]).generate_state(1)[0])
        assert derive_seed(7, 1, 3) == expected

    def test_paths_distinct(self):
        seeds = {derive_seed(0, a, b) for a in range(3) for b in range(10)}
        assert len(seeds) == 30

    def test_deterministic(self):
        assert derive_seed(42, 2, 5) == derive_seed(42, 2, 5)


class TestSearchConfig:
    def test_bad_mode(self):
        with pytest.raises(SearchError, match="mode"):
            SearchConfig(mode="evolve")

    def test_zero_iterations(self):
        with pytest.raises(SearchError, match="iterations"):
            SearchConfig(iterations=0)

    def test_capacity_below_k_demos(self):
        with pytest.raises(SearchError, match="island_capacity"):
            SearchConfig(island_capacity=1)

    # numpy's seed sequence refused it only once the run started
    def test_negative_seed(self):
        with pytest.raises(SearchError, match="seed"):
            SearchConfig(seed=-1)
        assert SearchConfig(seed=0).seed == 0

    def test_negative_retry_budget(self):
        with pytest.raises(SearchError, match="retry_budget"):
            SearchConfig(retry_budget=-1)
        assert SearchConfig(retry_budget=0).retry_budget == 0

    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.mode == "proaug"
        assert cfg.iterations == 150

    # a float count passed validation, then the run died in range()
    @pytest.mark.parametrize(
        "name",
        ["iterations", "samples_per_prompt", "islands", "island_capacity", "seed", "retry_budget"],
    )
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(SearchError, match=name):
            SearchConfig(**{name: value})


class TestExperienceBuffer:
    def test_round_robin_routing(self):
        buf = ExperienceBuffer(islands=3, capacity=8)
        for i in range(6):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=-float(i)))
        sizes = [len(island) for island in buf._islands]
        assert sizes == [2, 2, 2]

    def test_invalid_candidates_dropped_without_advancing(self):
        buf = ExperienceBuffer(islands=3, capacity=4)
        buf.add(_candidate("p0 * x0", fitness=float("-inf")))
        assert buf._islands == [[], [], []]
        buf.add(_candidate("p0 * x0", fitness=-1.0))
        buf.add(_candidate("p0 * x0 + 1.0", fitness=float("-inf")))
        buf.add(_candidate("p0 * x0 + 2.0", fitness=-2.0))
        # invalid candidates take no turn: the valid ones land on islands 0, 1
        texts = [[c.skeleton.text for c in island] for island in buf._islands]
        assert texts == [["(p0 * x0)"], ["((p0 * x0) + 2.0)"], []]

    def test_islands_sorted_best_first(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        for i, f in enumerate([-3.0, -1.0, -2.0]):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=f))
        island = buf._islands[0]
        assert [c.fitness for c in island] == [-1.0, -2.0, -3.0]

    def test_dedup_keeps_better_copy(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        buf.add(_candidate("p0 * x0", fitness=-2.0))
        buf.add(_candidate("p0*x0", fitness=-1.0))  # same canonical text
        assert len(buf._islands[0]) == 1
        assert buf._islands[0][0].fitness == -1.0

    def test_dedup_rejects_worse_copy(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        buf.add(_candidate("p0 * x0", fitness=-1.0))
        buf.add(_candidate("p0 * x0", fitness=-2.0))
        assert len(buf._islands[0]) == 1
        assert buf._islands[0][0].fitness == -1.0

    def test_eviction_of_worst_on_overflow(self):
        buf = ExperienceBuffer(islands=1, capacity=2)
        buf.add(_candidate("p0 * x0 + 1.0", fitness=-3.0))
        buf.add(_candidate("p0 * x0 + 2.0", fitness=-1.0))
        buf.add(_candidate("p0 * x0 + 3.0", fitness=-2.0))
        fits = [c.fitness for c in buf._islands[0]]
        assert fits == [-1.0, -2.0]

    def test_sample_empty_buffer(self):
        buf = ExperienceBuffer(islands=2, capacity=4)
        assert buf.sample_demonstrations(2, seed=0) == []

    def test_sample_returns_ascending(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        for i, f in enumerate([-0.5, -3.0, -1.5, -0.1]):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=f))
        demos = buf.sample_demonstrations(3, seed=7)
        fits = [c.fitness for c in demos]
        assert fits == sorted(fits)

    def test_sample_without_replacement(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        for i in range(4):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=-float(i)))
        demos = buf.sample_demonstrations(4, seed=3)
        texts = [c.skeleton.text for c in demos]
        assert len(set(texts)) == 4

    def test_sample_k_larger_than_island(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        buf.add(_candidate("p0 * x0", fitness=-1.0))
        assert len(buf.sample_demonstrations(5, seed=0)) == 1

    def test_sample_deterministic(self):
        buf = ExperienceBuffer(islands=2, capacity=8)
        for i in range(8):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=-float(i) / 2))
        a = buf.sample_demonstrations(2, seed=11)
        b = buf.sample_demonstrations(2, seed=11)
        assert [c.fitness for c in a] == [c.fitness for c in b]

    def test_sample_shift_invariance(self):
        def build(offset):
            buf = ExperienceBuffer(islands=1, capacity=8)
            for i, f in enumerate([-0.2, -1.0, -2.5, -4.0]):
                buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=f + offset))
            return buf

        for seed in range(20):
            a = build(0.0).sample_demonstrations(2, seed=seed)
            b = build(-100.0).sample_demonstrations(2, seed=seed)
            assert [c.skeleton.text for c in a] == [
                c.skeleton.text for c in b
            ]

    def test_sample_ratio_quick(self):
        # fitness gap of 1: better wins first draw with probability
        # e/(1+e) ~ 0.731
        buf = ExperienceBuffer(islands=1, capacity=4)
        buf.add(_candidate("p0 * x0", fitness=0.0))
        buf.add(_candidate("p0 + x0", fitness=-1.0))
        wins = 0
        n = 4000
        for seed in range(n):
            demo = buf.sample_demonstrations(1, seed=seed)[0]
            wins += demo.fitness == 0.0
        expected = math.e / (1 + math.e)
        assert wins / n == pytest.approx(expected, abs=0.02)

    def test_floor_keeps_terrible_candidates_reachable(self):
        # a gap of 1e6 would underflow the weak one's weight to 0; the floor
        # clamps it to e^-10 ~ 4.5e-5 relative, so some seed draws it
        buf = ExperienceBuffer(islands=1, capacity=4)
        buf.add(_candidate("p0 * x0", fitness=0.0))
        buf.add(_candidate("p0 + x0", fitness=-1e6))
        assert any(
            buf.sample_demonstrations(1, seed=seed)[0].fitness == -1e6 for seed in range(100_000)
        )

    def test_draws_match_generator_choice(self):
        # the reference draws each pick with Generator.choice over the
        # remaining weights; the buffer must reproduce its picks exactly,
        # with adds between draws, and on islands whose fitness gaps pass
        # the floor
        def reference(buf, k, seed):
            rng = np.random.default_rng(seed)
            occupied = [i for i, island in enumerate(buf._islands) if island]
            island = buf._islands[occupied[rng.integers(len(occupied))]]
            fitnesses = np.array([c.fitness for c in island])
            weights = np.exp(np.maximum(fitnesses - fitnesses.max(), -10.0))
            available = list(range(len(island)))
            chosen = []
            for _ in range(min(k, len(island))):
                w = weights[available]
                chosen.append(available.pop(int(rng.choice(len(available), p=w / w.sum()))))
            return sorted((island[i] for i in chosen), key=lambda c: c.fitness)

        rng = np.random.default_rng(0)
        added = floored = 0
        for _ in range(40):
            buf = ExperienceBuffer(islands=int(rng.integers(1, 4)), capacity=int(rng.integers(2, 10)))
            scale = float(rng.choice([0.1, 2.0, 30.0]))
            for draw in range(30):
                if draw % 3 == 0:
                    added += 1
                    buf.add(_candidate(f"p0 * x0 + {added}.0", -float(rng.exponential(scale))))
                k = int(rng.integers(1, 6))
                seed = int(rng.integers(2**32))
                got = buf.sample_demonstrations(k, seed)
                assert got == reference(buf, k, seed)
                floored += any(i and i[0].fitness - i[-1].fitness > 10.0 for i in buf._islands)
        assert floored


class TestRunLlmSr:
    def test_scripted_run_finds_power_law(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = ScriptedGenerator([GOOD_POWER, GOOD_LINEAR])
        trace = run(_quick_config(), problem, gen)
        assert trace.best is not None
        assert -trace.best.fitness < 1e-8
        assert trace.problem_name == "orbit"
        assert trace.generator_tag == "scripted"

    def test_no_analysis_and_no_report(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = RecordingGenerator([GOOD_POWER])
        trace = run(_quick_config(), problem, gen, analysis_generator=MustNotCall())
        assert all(rec.analysis is None for rec in trace.records)
        assert all(REPORT_HEADER not in p for p in gen.prompts)

    def test_trajectory_monotone_non_increasing(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = ScriptedGenerator([GOOD_LINEAR, GOOD_POWER, GOOD_LINEAR])
        trace = run(_quick_config(iterations=4), problem, gen)
        traj = [rec.best_nmse for rec in trace.records]
        assert len(traj) == 4
        assert all(b <= a for a, b in zip(traj, traj[1:]))

    def test_demos_appear_in_later_prompts(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = RecordingGenerator([GOOD_POWER])
        run(_quick_config(iterations=2), problem, gen)
        assert "# equation_v0\n" in gen.prompts[0]  # seed skeleton, no fitness
        assert "# equation_v0 (fitness = " in gen.prompts[1]

    def test_trace_deterministic_across_fresh_runs(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        cfg = _quick_config(iterations=3)
        a = run(cfg, problem, ScriptedGenerator([GOOD_POWER, GOOD_LINEAR]))
        b = run(cfg, problem, ScriptedGenerator([GOOD_POWER, GOOD_LINEAR]))
        assert trace_lines(a) == trace_lines(b)

    def test_mutation_generator_end_to_end(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        cfg = _quick_config(iterations=8, samples_per_prompt=2)
        gen = MutationGenerator(arity=1, seed=0)
        trace = run(cfg, problem, gen)
        assert trace.best is not None
        traj = [rec.best_nmse for rec in trace.records]
        assert all(b <= a for a, b in zip(traj, traj[1:]))
        assert math.isfinite(traj[-1])


class TestRetryFlow:
    def test_unparseable_then_recovered(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = ScriptedGenerator(["no fenced block here", GOOD_POWER])
        trace = run(_quick_config(iterations=1), problem, gen)
        sample = trace.records[0].samples[0]
        assert sample.retries == 1
        assert sample.error is None
        assert sample.expression == "(p0 * (x0 ^ p1))"

    def test_budget_exhaustion_discards_sample(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = ScriptedGenerator(["still nothing"])
        trace = run(_quick_config(iterations=1, retry_budget=2), problem, gen)
        sample = trace.records[0].samples[0]
        assert sample.retries == 2
        assert sample.expression is None
        assert sample.error is not None
        assert sample.fitness == float("-inf")
        assert trace.best is None

    @pytest.mark.parametrize(
        "body",
        ["(" * 400 + "p0*x0" + ")" * 400, "+".join(["x0"] * 3000)],
        ids=["400-deep-parentheses", "3000-term-chain"],
    )
    def test_deeply_nested_reply_is_an_extraction_failure(self, kepler_dataset, body):
        problem = make_problem(kepler_dataset, name="orbit")
        deep = f"<thought>nested</thought>\n```expr\n{body}\n```"
        gen = ScriptedGenerator([GOOD_POWER, deep])
        trace = run(_quick_config(iterations=2, retry_budget=0), problem, gen)
        first, second = (record.samples[0] for record in trace.records)
        assert first.expression == "(p0 * (x0 ^ p1))"
        assert second.expression is None
        assert second.error.startswith("expr block failed to parse")
        assert "deeper than 100 levels" in second.error
        assert trace.best is not None

    def test_generation_error_consumes_retry(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = FailingGenerator(fail_calls=1, reply=GOOD_POWER)
        trace = run(_quick_config(iterations=1), problem, gen)
        sample = trace.records[0].samples[0]
        assert sample.retries == 1
        assert sample.expression is not None

    def test_equation_generation_error_exhausts_budget(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = FailingGenerator()
        trace = run(_quick_config(iterations=1, retry_budget=2), problem, gen)
        sample = trace.records[0].samples[0]
        assert sample.error == "generation failed: HTTP 500"
        assert sample.retries == 2
        assert sample.expression is None
        assert sample.fitness == float("-inf")
        assert [r.n_samples for r in gen.requests] == [1, 1, 1]
        assert len({r.prompt for r in gen.requests}) == 1
        assert trace.best is None

    def test_analysis_generation_error_is_fed_back(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        an = FailingGenerator(fail_calls=1, reply=GOOD_ANALYSIS)
        cfg = _quick_config(mode="proaug", iterations=1, retry_budget=2)
        trace = run(cfg, problem, ScriptedGenerator([GOOD_POWER]), analysis_generator=an)
        record = trace.records[0].analysis
        assert record.attempts == 2
        assert record.error is None
        assert record.spec_text == "stats all"
        assert record.prompt == an.requests[0].prompt
        assert "rejected" not in an.requests[0].prompt
        assert (
            "Your previous analysis program was rejected: generation failed: HTTP 500"
            in an.requests[1].prompt
        )
        assert all(r.purpose == "analysis" and r.n_samples == 1 for r in an.requests)


class TestRunStatisticalHint:
    def test_report_in_every_prompt(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = RecordingGenerator([GOOD_POWER])
        cfg = _quick_config(mode="statistical-hint", iterations=3)
        trace = run(cfg, problem, gen, analysis_generator=MustNotCall())
        assert all(REPORT_HEADER in p for p in gen.prompts)
        assert all(rec.analysis is None for rec in trace.records)

    def test_hint_block_identical_across_iterations(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = RecordingGenerator([GOOD_POWER])
        run(_quick_config(mode="statistical-hint", iterations=3), problem, gen)
        blocks = [
            p.split(REPORT_HEADER)[1].split("\n\nPrevious candidate")[0]
            for p in gen.prompts
        ]
        assert blocks[0] == blocks[1] == blocks[2]

    def test_hint_detects_kepler_exponent(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = RecordingGenerator([GOOD_POWER])
        run(_quick_config(mode="statistical-hint", iterations=1), problem, gen)
        assert "'r2_log(Y)_log(X_0)': 1.0" in gen.prompts[0]


class TestRunProaug:
    def test_analysis_recorded_and_cached(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        eq = ScriptedGenerator([GOOD_POWER])
        an = ScriptedGenerator([GOOD_ANALYSIS])
        cfg = _quick_config(mode="proaug", iterations=2)
        trace = run(cfg, problem, eq, analysis_generator=an)
        first, second = trace.records[0].analysis, trace.records[1].analysis
        assert first.spec_text == "stats all"
        assert first.cached is False
        assert second.cached is True
        assert first.report == second.report
        assert first.error is None and first.attempts == 1

    def test_memo_shared_across_programs(self, kepler_dataset):
        # two programs that differ but share directives, then a repeat
        first_program = "stats all\nsample 3 seed=1\nr2 log(y) ~ log(x0)\ncorr y ~ x0"
        second_program = "r2 log(y) ~ log(x0)\nstats all\nsample 3 seed=1\nr2 y ~ sqrt(x0)"
        replies = [f"```analysis\n{text}\n```" for text in (first_program, second_program)]
        problem = make_problem(kepler_dataset, name="orbit")
        eq = ScriptedGenerator([GOOD_POWER])
        an = ScriptedGenerator([replies[0], replies[1], replies[0]])
        cfg = _quick_config(mode="proaug", iterations=3)
        trace = run(cfg, problem, eq, analysis_generator=an)
        first, second, repeat = (rec.analysis for rec in trace.records)
        tr_tr = split(problem.train, cfg.seed).tr_tr
        standalone = ctx.execute(
            ctx.parse_spec(second_program, 1), tr_tr, seed=cfg.seed, source="proaug"
        )
        assert first.cached is False
        assert second.cached is False
        assert json_safe(second.report) == json_safe(standalone)
        assert repeat.cached is True
        assert repeat.report == first.report

    def test_report_lands_in_equation_prompt(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        eq = RecordingGenerator([GOOD_POWER])
        an = ScriptedGenerator([GOOD_ANALYSIS])
        run(_quick_config(mode="proaug", iterations=1), problem, eq, analysis_generator=an)
        assert REPORT_HEADER in eq.prompts[0]
        assert "Statistics: {" in eq.prompts[0]

    def test_feedback_reask_within_iteration(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        eq = ScriptedGenerator([GOOD_POWER])
        an = RecordingGenerator(["nothing fenced", GOOD_ANALYSIS])
        cfg = _quick_config(mode="proaug", iterations=1, retry_budget=3)
        trace = run(cfg, problem, eq, analysis_generator=an)
        record = trace.records[0].analysis
        assert record.attempts == 2
        assert record.error is None
        assert len(an.prompts) == 2
        assert "rejected" not in an.prompts[0]
        assert "Your previous analysis program was rejected: " in an.prompts[1]
        assert "no fenced analysis block" in an.prompts[1]

    def test_total_failure_no_report_then_recovery(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        eq = RecordingGenerator([GOOD_POWER])
        # t=0: four bad attempts (1 + retry_budget 3); t=1: immediate success
        an = RecordingGenerator(["bad"] * 4 + [GOOD_ANALYSIS])
        cfg = _quick_config(mode="proaug", iterations=2, retry_budget=3)
        trace = run(cfg, problem, eq, analysis_generator=an)
        assert trace.records[0].analysis.error is not None
        assert trace.records[0].analysis.attempts == 4
        assert REPORT_HEADER not in eq.prompts[0]
        assert trace.records[1].analysis.error is None
        assert REPORT_HEADER in eq.prompts[1]
        # the t=1 ask leads with feedback from the failed iteration
        assert "rejected" in an.prompts[4]

    def test_failed_iteration_falls_back_to_last_report(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        eq = RecordingGenerator([GOOD_POWER])
        an = ScriptedGenerator([GOOD_ANALYSIS] + ["bad"] * 4)
        cfg = _quick_config(mode="proaug", iterations=2, retry_budget=3)
        trace = run(cfg, problem, eq, analysis_generator=an)
        assert trace.records[1].analysis.error is not None
        assert REPORT_HEADER in eq.prompts[1]  # stale report still used

    def test_analysis_generator_defaults_to_equation_generator(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = ScriptedGenerator([GOOD_ANALYSIS, GOOD_POWER])
        cfg = _quick_config(mode="proaug", iterations=1)
        trace = run(cfg, problem, gen)
        assert trace.records[0].analysis.spec_text == "stats all"
        assert trace.records[0].samples[0].expression is not None

    def test_one_generator_sees_the_calls_of_a_serial_loop(self, kepler_dataset):
        # the fits of iteration t run while iteration t+1 analyses; the calls,
        # and the demonstrations in each prompt, must be those of a loop that
        # fits each sample before it goes on
        class Calls:
            tag = "calls"

            def __init__(self, texts):
                self._inner = ScriptedGenerator(texts)
                self.calls = []

            def generate(self, request):
                digest = hashlib.sha256(request.prompt.encode()).hexdigest()
                self.calls.append((request.purpose, request.n_samples, digest))
                return self._inner.generate(request)

        problem = make_problem(kepler_dataset, name="orbit")
        # per iteration: a malformed analysis and its re-ask, then an equation
        # call whose second reply is malformed, and that sample's re-ask
        gen = Calls(["no block", GOOD_ANALYSIS, GOOD_POWER, "no block either", GOOD_LINEAR])
        cfg = _quick_config(mode="proaug", samples_per_prompt=2, retry_budget=1)
        trace = run(cfg, problem, gen)
        analysis = [
            "878a3c6bdbe46bcdd76e593dee8de3fd3f16bea20478a118299976dc1f1688c3",
            "ea0cf7f2269439dc14fff0694253ae1b98d816810d02864a03135083bada3623",
        ]
        equation = [
            "c9f526f22006d6d32f58100ed7bf2462ded819bb38d6917ab58f034ffde0881a",
            "f96b375fdc6cc03a07ccc4954afdf324b47ae1d7e788fa2fc55363cf8c12a374",
            "6923e48b6c5b3cb8486bf382a7b37dafb5ab85b2d70798474b168fca58192664",
        ]
        expected = []
        for digest in equation:
            expected += [("analysis", 1, analysis[0]), ("analysis", 1, analysis[1])]
            expected += [("equation", 2, digest), ("equation", 1, digest)]
        assert gen.calls == expected
        assert [r.analysis.attempts for r in trace.records] == [2, 2, 2]
        assert [s.retries for r in trace.records for s in r.samples] == [0, 1] * 3


class TestTraceSerialization:
    def _trace(self, kepler_dataset, test=None, **overrides):
        problem = make_problem(kepler_dataset, name="orbit", test=test)
        gen = ScriptedGenerator([GOOD_POWER, GOOD_LINEAR])
        return run(_quick_config(**overrides), problem, gen)

    def test_lines_are_json_without_config_or_timing(self, kepler_dataset):
        trace = self._trace(kepler_dataset)
        lines = trace_lines(trace)
        assert len(lines) == 3
        for line in lines:
            payload = json.loads(line)
            assert set(payload) == {
                "iteration",
                "analysis",
                "equation_prompt",
                "samples",
                "best_nmse",
            }

    def test_non_finite_fitness_serializes_as_null(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = ScriptedGenerator(["never valid"])
        trace = run(_quick_config(iterations=1), problem, gen)
        payload = json.loads(trace_lines(trace)[0])
        assert payload["samples"][0]["fitness"] is None
        assert payload["samples"][0]["train_mse"] is None
        assert payload["best_nmse"] is None

    def test_summary_echoes_config(self, kepler_dataset):
        trace = self._trace(kepler_dataset, seed=9)
        summary = trace_summary(trace)
        assert summary["problem"] == "orbit"
        assert summary["best_expression"] == "(p0 * (x0 ^ p1))"
        assert summary["best_val_nmse"] < 1e-8
        assert "timings" in summary
        # the run's settings are recorded once, under the key write_trace adds
        settings = run_settings(_quick_config(seed=9), {"type": "mutation"}, None)
        assert settings["mode"] == "llm-sr"
        assert settings["seed"] == 9
        assert settings["optimizer"]["restarts"] == 2
        assert "decoding" not in settings
        assert not set(settings) & set(summary)

    def test_test_split_scored_once_at_end(self, kepler_dataset):
        rng = np.random.default_rng(5)
        X = rng.uniform(0.4, 30.0, size=(40, 1))
        test = make_problem(kepler_dataset).train.__class__(
            features=X, target=X[:, 0] ** 1.5, feature_names=("R",)
        )
        trace = self._trace(kepler_dataset, test=test)
        assert trace.test_nmse is not None
        assert trace.test_nmse < 1e-8

    def test_no_test_split_gives_none(self, kepler_dataset):
        trace = self._trace(kepler_dataset)
        assert trace.test_nmse is None

    def test_write_trace_files(self, tmp_path, kepler_dataset):
        trace = self._trace(kepler_dataset)
        trace_path = tmp_path / "runs" / "t.jsonl"
        summary_path = tmp_path / "runs" / "s.json"
        write_trace(trace, trace_path, summary_path)
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(summary_path.read_text())["problem"] == "orbit"
        assert trace_path.read_text().endswith("\n")

    def test_written_trace_byte_identical_across_runs(self, tmp_path, kepler_dataset):
        paths = []
        for tag in ("a", "b"):
            trace = self._trace(kepler_dataset)
            tp = tmp_path / f"{tag}.jsonl"
            sp = tmp_path / f"{tag}.json"
            write_trace(trace, tp, sp)
            paths.append(tp)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def _stop_fit_workers():
    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout=10)
        assert not child.is_alive()


@pytest.fixture
def fresh_fit_workers():
    """Stops this process's fit workers before and after the test, so the
    test's runs fork their own, which see the test's patches, and later
    tests' runs do not."""
    _stop_fit_workers()
    yield
    _stop_fit_workers()


def _python(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def _parent_pid(pid: int) -> int | None:
    """The parent id in ``/proc/<pid>/stat``; None if the process is gone
    or a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return None if state == "Z" else int(ppid)


KEPLER = Path(__file__).resolve().parents[1] / "problems" / "kepler.json"
RUN_ITERATIONS = (
    "import multiprocessing, os, sys\n"
    "from symreg.data import load_problem, load_problem_data, split\n"
    "from symreg.generate import MutationGenerator\n"
    "from symreg.search import SearchConfig, run\n"
    "if len(sys.argv) > 2:\n"
    "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "problem = load_problem_data(load_problem(sys.argv[1]))\n"
    "split(problem.train, 0)\n"
    "counts = [len(multiprocessing.active_children())]\n"
    "for samples in (1, 3):\n"
    "    config = SearchConfig(iterations=3, samples_per_prompt=samples, mode='llm-sr')\n"
    "    run(config, problem, MutationGenerator(problem.arity, seed=0))\n"
    "    counts.append(len(multiprocessing.active_children()))\n"
    "print(*counts)\n"
)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
class TestFitWorkers:
    def test_a_worker_starts_at_the_first_fit_and_only_when_all_are_busy(self):
        # one fit in flight at a time needs one worker; three at once, three
        counts = _python(RUN_ITERATIONS, str(KEPLER))
        assert counts == f"0 1 {min(3, len(os.sched_getaffinity(0)))}"

    def test_workers_never_outnumber_the_usable_cpus(self):
        assert _python(RUN_ITERATIONS, str(KEPLER), "one-cpu") == "0 1 1"

    def test_threads_that_share_the_workers_each_get_their_own_fits(self, kepler_dataset):
        # replies come back in each worker's order, so a thread may read
        # another's; each must still get its own, and leave no job behind
        skeletons = [parse(text, 1) for text in ("p0 * x0 ^ p1", "p0 * x0 + p1", "p0 * exp(x0)")]
        optimizer = OptimizerConfig(restarts=2, max_evaluations=200)

        def fits_of(seed):
            view = split(kepler_dataset, seed)
            with search._Fits(view) as fits:
                tickets = [fits.submit(sk, optimizer, seed) for sk in skeletons]
                return [fits.result(ticket) for ticket in reversed(tickets)][::-1]

        def expected(seed):
            view = split(kepler_dataset, seed)
            return [search.evaluate_candidate(sk, view, optimizer, seed) for sk in skeletons]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = [f.result(timeout=60) for f in [pool.submit(fits_of, s) for s in range(16)]]
        finally:
            sys.setswitchinterval(interval)
        for seed, replies in enumerate(got):
            assert replies == [(c.fit, c.fitness) for c in expected(seed)]
        assert [(w.pending, w.tokens, w.replies) for w in search._workers] == [
            (0, set(), {}) for _ in search._workers
        ]
        assert 1 <= len(search._workers) <= len(os.sched_getaffinity(0))

    def test_a_dead_worker_fails_its_run_and_the_next_run_forks_another(
        self, tmp_path, monkeypatch, fresh_fit_workers
    ):
        from symreg.harness import SuiteConfig, run_suite
        from tests.conftest import write_problem_files

        # a worker forked after this patch dies at run seed 0's first fit
        doomed = derive_seed(0, search._EVAL, 0, 0)
        original = search.evaluate_candidate

        def evaluate_candidate(skeleton, view, optimizer, seed):
            if seed == doomed:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(skeleton, view, optimizer, seed)

        monkeypatch.setattr(search, "evaluate_candidate", evaluate_candidate)
        X = np.random.default_rng(8).uniform(1, 5, size=(30, 1))
        problem = write_problem_files(tmp_path, "square", X, X[:, 0] ** 2)
        config = SuiteConfig(
            problems=(problem,),
            modes=("llm-sr",),
            out_dir=tmp_path / "out",
            search=_quick_config(),
            generator={"type": "scripted", "texts": [GOOD_POWER]},
            repeats=2,
        )
        first, second = run_suite(config).outcomes
        assert first.error.startswith("RuntimeError: fit worker ")
        assert first.error.endswith(" died (-9)")
        dead = int(first.error.split()[3])
        assert second.error is None and len(second.trajectory) == 3
        alive = [child.pid for child in multiprocessing.active_children()]
        assert alive and dead not in alive
        assert sorted(worker.process.pid for worker in search._workers) == sorted(alive)

    def test_workers_ignore_an_interrupt(self, kepler_dataset):
        # Ctrl-C signals the whole process group; only the parent may stop
        problem = make_problem(kepler_dataset, name="orbit")
        cfg = _quick_config(samples_per_prompt=2)
        first = trace_lines(run(cfg, problem, ScriptedGenerator([GOOD_POWER, GOOD_LINEAR])))
        workers = multiprocessing.active_children()
        for worker in workers:
            os.kill(worker.pid, signal.SIGINT)
        time.sleep(0.2)
        assert workers and all(worker.is_alive() for worker in workers)
        again = trace_lines(run(cfg, problem, ScriptedGenerator([GOOD_POWER, GOOD_LINEAR])))
        assert again == first

    def test_a_killed_suite_leaves_no_worker(self, tmp_path):
        config = tmp_path / "suite.json"
        config.write_text(json.dumps({
            "problems": [str(KEPLER)], "modes": ["llm-sr"], "out_dir": "out", "repeats": 1,
            "search": {"iterations": 100000}, "generator": {"type": "mutation"},
        }))
        env = {**os.environ, "PYTHONPATH": str(KEPLER.parents[1] / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "symreg.cli", "suite", "--config", str(config)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        def children():
            pids = [int(p) for p in os.listdir("/proc") if p.isdigit()]
            return [pid for pid in pids if _parent_pid(pid) == proc.pid]

        try:
            deadline = time.monotonic() + 60
            while not children() and time.monotonic() < deadline:
                time.sleep(0.05)
            # each iteration's second sample forks the second worker
            time.sleep(0.5)
            workers = children()
            assert workers, "the suite started no fit worker"
        finally:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 10
        while any(_parent_pid(pid) is not None for pid in workers):
            assert time.monotonic() < deadline, "a fit worker outlived its suite"
            time.sleep(0.05)
