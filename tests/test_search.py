import json
import math

import numpy as np
import pytest

from symreg.expr import parse
from symreg.fit import Candidate, FitResult, OptimizerConfig
from symreg.generate import (
    REPORT_HEADER,
    GeneratorRequest,
    MutationGenerator,
    ScriptedGenerator,
)
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
        k_demos=2,
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
            SearchConfig(island_capacity=1, k_demos=2)

    def test_zero_temperature(self):
        with pytest.raises(SearchError, match="temperature"):
            SearchConfig(sampling_temperature=0.0)

    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.mode == "proaug"
        assert cfg.iterations == 150


class TestExperienceBuffer:
    def test_round_robin_routing(self):
        buf = ExperienceBuffer(islands=3, capacity=8)
        for i in range(6):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=-float(i)))
        sizes = [len(island) for island in buf.islands]
        assert sizes == [2, 2, 2]

    def test_invalid_candidates_dropped_without_advancing(self):
        buf = ExperienceBuffer(islands=3, capacity=4)
        buf.add(_candidate("p0 * x0", fitness=float("-inf")))
        assert len(buf) == 0
        buf.add(_candidate("p0 * x0", fitness=-1.0))
        buf.add(_candidate("p0 * x0 + 1.0", fitness=float("-inf")))
        buf.add(_candidate("p0 * x0 + 2.0", fitness=-2.0))
        # invalid candidates take no turn: the valid ones land on islands 0, 1
        texts = [[c.skeleton.text for c in island] for island in buf.islands]
        assert texts == [["(p0 * x0)"], ["((p0 * x0) + 2.0)"], []]

    def test_islands_sorted_best_first(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        for i, f in enumerate([-3.0, -1.0, -2.0]):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=f))
        island = buf.islands[0]
        assert [c.fitness for c in island] == [-1.0, -2.0, -3.0]

    def test_dedup_keeps_better_copy(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        buf.add(_candidate("p0 * x0", fitness=-2.0))
        buf.add(_candidate("p0*x0", fitness=-1.0))  # same canonical text
        assert len(buf) == 1
        assert buf.islands[0][0].fitness == -1.0

    def test_dedup_rejects_worse_copy(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        buf.add(_candidate("p0 * x0", fitness=-1.0))
        buf.add(_candidate("p0 * x0", fitness=-2.0))
        assert len(buf) == 1
        assert buf.islands[0][0].fitness == -1.0

    def test_eviction_of_worst_on_overflow(self):
        buf = ExperienceBuffer(islands=1, capacity=2)
        buf.add(_candidate("p0 * x0 + 1.0", fitness=-3.0))
        buf.add(_candidate("p0 * x0 + 2.0", fitness=-1.0))
        buf.add(_candidate("p0 * x0 + 3.0", fitness=-2.0))
        fits = [c.fitness for c in buf.islands[0]]
        assert fits == [-1.0, -2.0]

    def test_sample_empty_buffer(self):
        buf = ExperienceBuffer(islands=2, capacity=4)
        assert buf.sample_demonstrations(2, 1.0, seed=0) == []

    def test_sample_returns_ascending(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        for i, f in enumerate([-0.5, -3.0, -1.5, -0.1]):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=f))
        demos = buf.sample_demonstrations(3, 1.0, seed=7)
        fits = [c.fitness for c in demos]
        assert fits == sorted(fits)

    def test_sample_without_replacement(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        for i in range(4):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=-float(i)))
        demos = buf.sample_demonstrations(4, 1.0, seed=3)
        texts = [c.skeleton.text for c in demos]
        assert len(set(texts)) == 4

    def test_sample_k_larger_than_island(self):
        buf = ExperienceBuffer(islands=1, capacity=8)
        buf.add(_candidate("p0 * x0", fitness=-1.0))
        assert len(buf.sample_demonstrations(5, 1.0, seed=0)) == 1

    def test_sample_deterministic(self):
        buf = ExperienceBuffer(islands=2, capacity=8)
        for i in range(8):
            buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=-float(i) / 2))
        a = buf.sample_demonstrations(2, 1.0, seed=11)
        b = buf.sample_demonstrations(2, 1.0, seed=11)
        assert [c.fitness for c in a] == [c.fitness for c in b]

    def test_sample_shift_invariance(self):
        def build(offset):
            buf = ExperienceBuffer(islands=1, capacity=8)
            for i, f in enumerate([-0.2, -1.0, -2.5, -4.0]):
                buf.add(_candidate(f"p0 * x0 + {i}.0", fitness=f + offset))
            return buf

        for seed in range(20):
            a = build(0.0).sample_demonstrations(2, 1.0, seed=seed)
            b = build(-100.0).sample_demonstrations(2, 1.0, seed=seed)
            assert [c.skeleton.text for c in a] == [
                c.skeleton.text for c in b
            ]

    def test_sample_ratio_quick(self):
        # fitness gap of 1 at temperature 1: better wins first draw with
        # probability e/(1+e) ~ 0.731
        buf = ExperienceBuffer(islands=1, capacity=4)
        buf.add(_candidate("p0 * x0", fitness=0.0))
        buf.add(_candidate("p0 + x0", fitness=-1.0))
        wins = 0
        n = 4000
        for seed in range(n):
            demo = buf.sample_demonstrations(1, 1.0, seed=seed)[0]
            wins += demo.fitness == 0.0
        expected = math.e / (1 + math.e)
        assert wins / n == pytest.approx(expected, abs=0.02)

    def test_floor_keeps_terrible_candidates_reachable(self):
        buf = ExperienceBuffer(islands=1, capacity=4)
        buf.add(_candidate("p0 * x0", fitness=0.0))
        buf.add(_candidate("p0 + x0", fitness=-1e6))
        seen = set()
        for seed in range(500):
            demo = buf.sample_demonstrations(1, 1.0, seed=seed, floor=-2.0)[0]
            seen.add(demo.fitness)
        # clamped weight e^-2 ~ 0.12 relative: the weak one must appear
        assert seen == {0.0, -1e6}

    def test_low_temperature_sharpens(self):
        buf = ExperienceBuffer(islands=1, capacity=4)
        buf.add(_candidate("p0 * x0", fitness=0.0))
        buf.add(_candidate("p0 + x0", fitness=-1.0))
        cold = sum(
            buf.sample_demonstrations(1, 0.2, seed=s)[0].fitness == 0.0
            for s in range(800)
        )
        warm = sum(
            buf.sample_demonstrations(1, 5.0, seed=s)[0].fitness == 0.0
            for s in range(800)
        )
        assert cold > warm

    def test_draws_match_generator_choice(self):
        # the reference draws each pick with Generator.choice over the
        # remaining weights; the buffer must reproduce its picks exactly,
        # with adds (which rebuild an island's weights) between draws
        def reference(buf, k, temperature, seed):
            rng = np.random.default_rng(seed)
            occupied = [i for i, island in enumerate(buf.islands) if island]
            island = buf.islands[occupied[rng.integers(len(occupied))]]
            fitnesses = np.array([c.fitness for c in island])
            weights = np.exp(np.maximum(fitnesses - fitnesses.max(), -10.0) / temperature)
            available = list(range(len(island)))
            chosen = []
            for _ in range(min(k, len(island))):
                w = weights[available]
                chosen.append(available.pop(int(rng.choice(len(available), p=w / w.sum()))))
            return sorted((island[i] for i in chosen), key=lambda c: c.fitness)

        rng = np.random.default_rng(0)
        added = 0
        for _ in range(40):
            buf = ExperienceBuffer(islands=int(rng.integers(1, 4)), capacity=int(rng.integers(2, 10)))
            scale = float(rng.choice([0.1, 2.0, 30.0]))
            for draw in range(30):
                if draw % 3 == 0:
                    added += 1
                    buf.add(_candidate(f"p0 * x0 + {added}.0", -float(rng.exponential(scale))))
                k = int(rng.integers(1, 6))
                temperature = float(rng.choice([0.05, 0.3, 1.0, 4.0]))
                seed = int(rng.integers(2**32))
                got = buf.sample_demonstrations(k, temperature, seed)
                assert got == reference(buf, k, temperature, seed)

    def test_rejects_bad_shape(self):
        with pytest.raises(SearchError):
            ExperienceBuffer(islands=0, capacity=4)
        with pytest.raises(SearchError):
            ExperienceBuffer(islands=1, capacity=0)


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

    def test_low_temperature_draw_after_underflow(self, kepler_dataset):
        # an NMSE gap far past the floor at T=0.01 underflows every weight but
        # the best one's; the second demo must still be drawn, not crash
        problem = make_problem(kepler_dataset, name="orbit")
        replies = [
            "```expr\np0 * x0 ^ p1\n```",
            "```expr\np0 + 1000 * sin(50 * x0)\n```",
        ]
        gen = RecordingGenerator(replies)
        cfg = _quick_config(
            iterations=2, samples_per_prompt=2, islands=1, sampling_temperature=0.01
        )
        run(cfg, problem, gen)
        assert "sin" in gen.prompts[1] and "x0 ^ p1" in gen.prompts[1]

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

        class FlakyGenerator:
            tag = "flaky"

            def __init__(self):
                self.calls = 0

            def generate(self, request):
                self.calls += 1
                from symreg.generate import GeneratorResponse

                if self.calls == 1:
                    return GeneratorResponse(
                        ("",) * request.n_samples,
                        ("HTTP 500",) * request.n_samples,
                    )
                return GeneratorResponse(
                    (GOOD_POWER,) * request.n_samples,
                    (None,) * request.n_samples,
                )

        trace = run(_quick_config(iterations=1), problem, FlakyGenerator())
        sample = trace.records[0].samples[0]
        assert sample.retries == 1
        assert sample.expression is not None


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

    def test_inject_report_false_suppresses_hint(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = RecordingGenerator([GOOD_POWER])
        cfg = _quick_config(mode="statistical-hint", iterations=2, inject_report=False)
        run(cfg, problem, gen)
        assert all(REPORT_HEADER not in p for p in gen.prompts)


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

    def test_inject_report_false_skips_analysis_entirely(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        eq = RecordingGenerator([GOOD_POWER])
        cfg = _quick_config(mode="proaug", iterations=2, inject_report=False)
        trace = run(cfg, problem, eq, analysis_generator=MustNotCall())
        assert all(rec.analysis is None for rec in trace.records)
        assert all(REPORT_HEADER not in p for p in eq.prompts)

    def test_analysis_generator_defaults_to_equation_generator(self, kepler_dataset):
        problem = make_problem(kepler_dataset, name="orbit")
        gen = ScriptedGenerator([GOOD_ANALYSIS, GOOD_POWER])
        cfg = _quick_config(mode="proaug", iterations=1)
        trace = run(cfg, problem, gen)
        assert trace.records[0].analysis.spec_text == "stats all"
        assert trace.records[0].samples[0].expression is not None


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
        assert summary["mode"] == "llm-sr"
        assert summary["seed"] == 9
        assert summary["optimizer"]["restarts"] == 2
        assert summary["decoding"]["temperature"] == 0.8
        assert summary["best_expression"] == "(p0 * (x0 ^ p1))"
        assert summary["best_val_nmse"] < 1e-8
        assert "timings" in summary

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
