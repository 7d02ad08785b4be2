import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from symreg.fit import OptimizerConfig
from symreg.generate import MutationGenerator, RemoteChatGenerator, ScriptedGenerator
from symreg.harness import (
    HarnessError,
    SuiteConfig,
    average_trajectories,
    build_report,
    load_trajectory,
    make_generator,
    run_suite,
    search_config_from_json,
    suite_config_from_json,
    variance_stats,
    win_rate,
    win_rate_curve,
)
from symreg.search import SearchConfig
from tests.conftest import write_problem_files

INF = float("inf")

GOOD_POWER = "<thought>power law</thought>\n```expr\np0 * x0 ^ p1\n```"
GOOD_LINEAR = "<thought>line</thought>\n```expr\np0 * x0 + p1\n```"


class TestVarianceStats:
    def test_three_values_inclusive_quartiles(self):
        stats = variance_stats([1.0, 2.0, 3.0])
        assert stats["median"] == 2.0
        assert stats["q1"] == 1.5
        assert stats["q3"] == 2.5
        assert stats["iqr"] == 1.0

    def test_four_values(self):
        stats = variance_stats([1.0, 2.0, 3.0, 4.0])
        assert stats["median"] == 2.5
        assert stats["q1"] == 1.5
        assert stats["q3"] == 3.5
        assert stats["iqr"] == 2.0

    def test_single_value(self):
        stats = variance_stats([7.0])
        assert stats["median"] == 7.0
        assert stats["iqr"] == 0.0
        assert stats["min"] == stats["max"] == 7.0

    def test_mean_and_extremes(self):
        stats = variance_stats([4.0, 1.0, 7.0])
        assert stats["mean"] == 4.0
        assert stats["min"] == 1.0
        assert stats["max"] == 7.0

    def test_order_invariance(self):
        assert variance_stats([3.0, 1.0, 2.0]) == variance_stats([1.0, 2.0, 3.0])

    def test_log10_block(self):
        stats = variance_stats([1e-8, 1e-6, 1e-4])
        assert stats["log10"]["median"] == pytest.approx(-6.0)
        assert stats["log10"]["iqr"] == pytest.approx(2.0)

    def test_log10_zero_clamped(self):
        stats = variance_stats([0.0, 1.0])
        assert stats["log10"]["min"] == pytest.approx(-300.0)
        assert math.isfinite(stats["log10"]["median"])

    def test_empty_rejected(self):
        with pytest.raises(HarnessError):
            variance_stats([])


class TestWinRate:
    def test_complete_win(self):
        a = {"p1": [0.1], "p2": [0.2]}
        b = {"p1": [0.5], "p2": [0.9]}
        assert win_rate(a, b, 0) == 1.0

    def test_all_ties_half(self):
        a = {"p1": [0.3], "p2": [0.4]}
        assert win_rate(a, dict(a), 0) == 0.5

    def test_hand_crossover(self):
        a = {"p1": [1.0, 0.1], "p2": [1.0, 0.9]}
        b = {"p1": [0.5, 0.5], "p2": [0.5, 0.5]}
        curve = win_rate_curve(a, b)
        assert curve == [0.0, 0.5]

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        a = {f"p{i}": [float(rng.uniform(0, 1))] for i in range(9)}
        b = {f"p{i}": [float(rng.uniform(0, 1))] for i in range(9)}
        assert win_rate(a, b, 0) + win_rate(b, a, 0) == pytest.approx(1.0)

    def test_inf_vs_finite(self):
        a = {"p1": [INF]}
        b = {"p1": [0.5]}
        assert win_rate(a, b, 0) == 0.0
        assert win_rate(b, a, 0) == 1.0

    def test_mismatched_problem_sets(self):
        with pytest.raises(HarnessError, match="identical problem sets"):
            win_rate({"p1": [0.1]}, {"p2": [0.1]}, 0)

    def test_empty_rejected(self):
        with pytest.raises(HarnessError):
            win_rate({}, {}, 0)

    def test_curve_length_mismatch(self):
        with pytest.raises(HarnessError, match="equal-length"):
            win_rate_curve({"p1": [0.1, 0.2]}, {"p1": [0.1]})


class TestAverageTrajectories:
    def test_elementwise_mean(self):
        out = average_trajectories([[1.0, 3.0], [3.0, 1.0]])
        assert out == [2.0, 2.0]

    def test_inf_propagates(self):
        out = average_trajectories([[INF, 2.0], [1.0, 2.0]])
        assert out[0] == INF
        assert out[1] == 2.0

    def test_single_repeat(self):
        assert average_trajectories([[0.5, 0.25]]) == [0.5, 0.25]

    def test_length_mismatch(self):
        with pytest.raises(HarnessError):
            average_trajectories([[1.0], [1.0, 2.0]])

    def test_empty(self):
        with pytest.raises(HarnessError):
            average_trajectories([])


class TestMakeGenerator:
    def test_mutation_defaults_to_run_seed(self):
        gen = make_generator({"type": "mutation"}, arity=2, run_seed=17)
        assert isinstance(gen, MutationGenerator)
        same = make_generator({"type": "mutation"}, arity=2, run_seed=17)
        from symreg.generate import GeneratorRequest

        req = GeneratorRequest(prompt="x", n_samples=2)
        assert gen.generate(req).raw_texts == same.generate(req).raw_texts

    def test_mutation_explicit_seed(self):
        a = make_generator({"type": "mutation", "seed": 3}, arity=1, run_seed=99)
        b = make_generator({"type": "mutation", "seed": 3}, arity=1, run_seed=12)
        from symreg.generate import GeneratorRequest

        req = GeneratorRequest(prompt="x", n_samples=2)
        assert a.generate(req).raw_texts == b.generate(req).raw_texts

    def test_scripted_inline_texts(self):
        gen = make_generator({"type": "scripted", "texts": ["a"]}, arity=1, run_seed=0)
        assert isinstance(gen, ScriptedGenerator)

    def test_scripted_path(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(["a", "b"]))
        gen = make_generator({"type": "scripted", "path": str(path)}, arity=1, run_seed=0)
        assert isinstance(gen, ScriptedGenerator)

    def test_scripted_missing_source(self):
        with pytest.raises(HarnessError, match="texts.*path|path.*texts"):
            make_generator({"type": "scripted"}, arity=1, run_seed=0)

    def test_remote(self):
        gen = make_generator(
            {"type": "remote", "url": "http://localhost:1/x", "model": "m"},
            arity=1,
            run_seed=0,
        )
        assert isinstance(gen, RemoteChatGenerator)

    def test_remote_missing_url(self):
        with pytest.raises(HarnessError, match="url"):
            make_generator({"type": "remote", "model": "m"}, arity=1, run_seed=0)

    def test_unknown_type(self):
        with pytest.raises(HarnessError, match="unknown generator"):
            make_generator({"type": "oracle"}, arity=1, run_seed=0)


class TestConfigParsing:
    def test_search_config_nested_blocks(self):
        cfg = search_config_from_json(
            {
                "iterations": 9,
                "mode": "llm-sr",
                "optimizer": {"restarts": 2},
                "decoding": {"temperature": 0.1, "stop": ["```"]},
            }
        )
        assert cfg.iterations == 9
        assert cfg.optimizer.restarts == 2
        assert cfg.optimizer.max_evaluations == OptimizerConfig().max_evaluations
        assert cfg.decoding.stop == ("```",)

    def test_search_block_rejects_repeats(self):
        # repeats is a suite setting; a search run has no use for it
        with pytest.raises(TypeError, match="repeats"):
            search_config_from_json({"iterations": 9, "repeats": 2})

    def test_suite_config_resolves_relative_paths(self, tmp_path):
        X = np.linspace(1, 4, 12).reshape(-1, 1)
        write_problem_files(tmp_path, "tiny", X, X[:, 0])
        script = tmp_path / "texts.json"
        script.write_text(json.dumps([GOOD_LINEAR]))
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "problems": ["tiny.json"],
                    "modes": ["llm-sr"],
                    "out_dir": "out",
                    "generator": {"type": "scripted", "path": "texts.json"},
                    "analysis_generator": {"type": "scripted", "path": "texts.json"},
                    "search": {"iterations": 2},
                    "repeats": 1,
                }
            )
        )
        cfg = suite_config_from_json(cfg_path)
        assert cfg.problems[0] == tmp_path / "tiny.json"
        assert cfg.out_dir == tmp_path / "out"
        assert cfg.generator["path"] == str(tmp_path / "texts.json")
        assert cfg.analysis_generator["path"] == str(tmp_path / "texts.json")
        assert cfg.search.iterations == 2
        assert cfg.search.mode == "llm-sr"

    def test_suite_config_missing_key(self, tmp_path):
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(json.dumps({"problems": ["a.json"], "modes": ["llm-sr"]}))
        with pytest.raises(HarnessError, match="out_dir"):
            suite_config_from_json(cfg_path)

    def test_suite_validation(self, tmp_path):
        base = dict(
            problems=(tmp_path / "p.json",),
            modes=("llm-sr",),
            out_dir=tmp_path / "out",
            search=SearchConfig(mode="llm-sr"),
            generator={"type": "mutation"},
        )
        SuiteConfig(**base)
        with pytest.raises(HarnessError, match="mode"):
            SuiteConfig(**{**base, "modes": ("turbo",)})
        with pytest.raises(HarnessError, match="repeats"):
            SuiteConfig(**{**base, "repeats": 0})
        with pytest.raises(HarnessError, match="problem"):
            SuiteConfig(**{**base, "problems": ()})


def _suite(tmp_path, *, modes=("llm-sr", "statistical-hint"), repeats=2, out="out"):
    rng = np.random.default_rng(8)
    X1 = rng.uniform(1, 5, size=(30, 1))
    write_problem_files(tmp_path, "square", X1, X1[:, 0] ** 2, X_test=X1, y_test=X1[:, 0] ** 2)
    X2 = rng.uniform(0.5, 3, size=(30, 1))
    write_problem_files(tmp_path, "cube", X2, X2[:, 0] ** 3, X_test=X2, y_test=X2[:, 0] ** 3)
    return SuiteConfig(
        problems=(tmp_path / "square.json", tmp_path / "cube.json"),
        modes=modes,
        out_dir=tmp_path / out,
        search=SearchConfig(
            iterations=3,
            samples_per_prompt=1,
            mode=modes[0],
            islands=2,
            island_capacity=8,
            optimizer=OptimizerConfig(restarts=2, max_evaluations=300),
        ),
        generator={"type": "scripted", "texts": [GOOD_POWER, GOOD_LINEAR]},
        repeats=repeats,
    )


class TestRunSuite:
    def test_cardinality_and_layout(self, tmp_path):
        config = _suite(tmp_path)
        report = run_suite(config)
        assert len(report.outcomes) == 2 * 2 * 2  # problems x modes x repeats
        assert report.failures == 0
        for o in report.outcomes:
            assert o.trace_path.exists()
            assert o.summary_path.exists()
            assert o.trace_path.parent == config.out_dir / o.problem / o.mode
        assert (config.out_dir / "summary.json").exists()
        assert (config.out_dir / "trajectories.csv").exists()

    def test_seeds_offset_by_repeat(self, tmp_path):
        report = run_suite(_suite(tmp_path))
        for o in report.outcomes:
            assert o.seed == o.repeat  # base seed 0

    def test_aggregates_and_win_curves(self, tmp_path):
        report = run_suite(_suite(tmp_path))
        assert set(report.aggregates) == {
            "square/llm-sr",
            "square/statistical-hint",
            "cube/llm-sr",
            "cube/statistical-hint",
        }
        entry = report.aggregates["square/llm-sr"]
        assert entry["repeats"] == 2
        assert "final_val_nmse" in entry
        assert "test_nmse" in entry
        assert set(report.win_curves) == {
            "llm-sr_vs_statistical-hint",
            "statistical-hint_vs_llm-sr",
        }
        fwd = report.win_curves["llm-sr_vs_statistical-hint"]
        rev = report.win_curves["statistical-hint_vs_llm-sr"]
        assert len(fwd) == 3
        for f, r in zip(fwd, rev):
            assert f + r == pytest.approx(1.0)

    def test_resume_reuses_completed_runs(self, tmp_path):
        config = _suite(tmp_path)
        first = run_suite(config)
        assert all(not o.reused for o in first.outcomes)
        second = run_suite(config)
        assert all(o.reused for o in second.outcomes)
        assert [o.trajectory for o in second.outcomes] == [
            o.trajectory for o in first.outcomes
        ]
        assert [o.final_val_nmse for o in second.outcomes] == [
            o.final_val_nmse for o in first.outcomes
        ]

    def test_resumed_summary_byte_identical(self, tmp_path):
        config = _suite(tmp_path)
        run_suite(config)
        before = (config.out_dir / "summary.json").read_bytes()
        before_csv = (config.out_dir / "trajectories.csv").read_bytes()
        run_suite(config)
        assert (config.out_dir / "summary.json").read_bytes() == before
        assert (config.out_dir / "trajectories.csv").read_bytes() == before_csv

    def test_deterministic_across_out_dirs(self, tmp_path):
        a = run_suite(_suite(tmp_path, out="out_a"))
        b = run_suite(_suite(tmp_path, out="out_b"))
        assert [o.trajectory for o in a.outcomes] == [o.trajectory for o in b.outcomes]
        assert a.aggregates == b.aggregates
        assert a.win_curves == b.win_curves

    def test_summary_json_is_machine_independent(self, tmp_path):
        config = _suite(tmp_path)
        run_suite(config)
        payload = json.loads((config.out_dir / "summary.json").read_text())
        assert payload["problems"] == ["square.json", "cube.json"]
        for entry in payload["runs"]:
            assert not entry["trace"].startswith("/")
        assert str(tmp_path) not in (config.out_dir / "summary.json").read_text()

    def test_summary_json_is_strict_json(self, tmp_path):
        # no run finds a valid candidate, so the aggregates are inf and nan
        config = dataclasses.replace(
            _suite(tmp_path, modes=("llm-sr",)),
            search=SearchConfig(iterations=1, samples_per_prompt=1, mode="llm-sr", retry_budget=0),
            generator={"type": "scripted", "texts": ["<thought>no block</thought>"]},
        )
        run_suite(config)

        def reject(token):
            raise ValueError(f"non-finite JSON token {token}")

        text = (config.out_dir / "summary.json").read_text()
        payload = json.loads(text, parse_constant=reject)
        stats = payload["aggregates"]["square/llm-sr"]["final_val_nmse"]
        assert stats["median"] is None and stats["iqr"] is None

    def test_trajectories_csv_shape(self, tmp_path):
        config = _suite(tmp_path)
        run_suite(config)
        with open(config.out_dir / "trajectories.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["problem", "mode", "repeat", "iteration", "best_nmse"]
        assert len(rows) == 1 + 8 * 3  # 8 runs x 3 iterations
        for row in rows[1:]:
            assert row[4] == "" or float(row[4]) >= 0.0

    def test_load_trajectory_round_trip(self, tmp_path):
        config = _suite(tmp_path)
        report = run_suite(config)
        o = report.outcomes[0]
        assert tuple(load_trajectory(o.trace_path)) == o.trajectory

    def test_unloadable_problem_recorded_not_fatal(self, tmp_path):
        config = _suite(tmp_path)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        config = SuiteConfig(
            problems=config.problems + (broken,),
            modes=config.modes,
            out_dir=config.out_dir,
            search=config.search,
            generator=config.generator,
            repeats=config.repeats,
        )
        report = run_suite(config)
        assert report.failures == 2 * 2  # modes x repeats for the broken one
        failed = [o for o in report.outcomes if o.failed]
        assert {o.problem for o in failed} == {"broken"}
        assert "broken/llm-sr" not in report.aggregates
        # the two healthy problems still aggregate
        assert "square/llm-sr" in report.aggregates

    def test_workers_parallel_matches_serial(self, tmp_path):
        serial = run_suite(_suite(tmp_path, out="serial"))
        cfg = _suite(tmp_path, out="parallel")
        cfg = SuiteConfig(
            problems=cfg.problems,
            modes=cfg.modes,
            out_dir=cfg.out_dir,
            search=cfg.search,
            generator=cfg.generator,
            repeats=cfg.repeats,
            workers=4,
        )
        parallel = run_suite(cfg)
        key = lambda o: (o.problem, o.mode, o.repeat)
        assert sorted(
            [(key(o), o.trajectory) for o in serial.outcomes]
        ) == sorted([(key(o), o.trajectory) for o in parallel.outcomes])

    def test_build_report_pure_reduction(self, tmp_path):
        config = _suite(tmp_path)
        report = run_suite(config)
        rebuilt = build_report(report.outcomes, config.modes)
        assert rebuilt.aggregates == report.aggregates
        assert rebuilt.win_curves == report.win_curves
        assert rebuilt.failures == report.failures
