import csv
import dataclasses
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from symreg import harness
from symreg.fit import OptimizerConfig
from symreg.generate import MutationGenerator, RemoteChatGenerator, ScriptedGenerator
from symreg.harness import (
    HarnessError,
    SuiteConfig,
    average_trajectories,
    build_report,
    load_trajectory,
    load_settings,
    make_generator,
    read_config,
    run_suite,
    suite_config_from_json,
    variance_stats,
    win_rate_curve,
)
from symreg.search import MODES, SearchConfig, SearchError
from tests.conftest import REPO, write_problem_files

INF = float("inf")

GOOD_POWER = "<thought>power law</thought>\n```expr\np0 * x0 ^ p1\n```"
GOOD_LINEAR = "<thought>line</thought>\n```expr\np0 * x0 + p1\n```"
# load_settings names the file in its errors; it reads none
CFG = Path("cfg.json")


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


class TestWinRate:
    def test_complete_win(self):
        a = {"p1": [0.1], "p2": [0.2]}
        b = {"p1": [0.5], "p2": [0.9]}
        assert win_rate_curve(a, b)[0] == 1.0

    def test_all_ties_half(self):
        a = {"p1": [0.3], "p2": [0.4]}
        assert win_rate_curve(a, dict(a))[0] == 0.5

    def test_hand_crossover(self):
        a = {"p1": [1.0, 0.1], "p2": [1.0, 0.9]}
        b = {"p1": [0.5, 0.5], "p2": [0.5, 0.5]}
        curve = win_rate_curve(a, b)
        assert curve == [0.0, 0.5]

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        a = {f"p{i}": [float(rng.uniform(0, 1))] for i in range(9)}
        b = {f"p{i}": [float(rng.uniform(0, 1))] for i in range(9)}
        assert win_rate_curve(a, b)[0] + win_rate_curve(b, a)[0] == pytest.approx(1.0)

    def test_inf_vs_finite(self):
        a = {"p1": [INF]}
        b = {"p1": [0.5]}
        assert win_rate_curve(a, b)[0] == 0.0
        assert win_rate_curve(b, a)[0] == 1.0


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


class TestMakeGenerator:
    def test_mutation_defaults_to_run_seed(self):
        gen = make_generator({"type": "mutation"}, arity=2, run_seed=17)
        assert isinstance(gen, MutationGenerator)
        same = make_generator({"type": "mutation"}, arity=2, run_seed=17)
        from symreg.generate import GeneratorRequest

        req = GeneratorRequest(prompt="x", n_samples=2)
        assert gen.generate(req).raw_texts == same.generate(req).raw_texts

    def test_scripted_inline_texts(self):
        gen = make_generator({"type": "scripted", "texts": ["a"]}, arity=1, run_seed=0)
        assert isinstance(gen, ScriptedGenerator)

    def test_scripted_path(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(["a", "b"]))
        gen = make_generator({"type": "scripted", "path": str(path)}, arity=1, run_seed=0)
        assert isinstance(gen, ScriptedGenerator)

    @pytest.mark.parametrize(
        "texts", ["replies.json", [1, 2], ["a", None], [], None, {"a": "b"}]
    )
    def test_scripted_texts_must_be_a_non_empty_list_of_strings(self, texts):
        # a string used to be read as a file path, and [1, 2] failed every run mid-search
        with pytest.raises(HarnessError, match="scripted texts"):
            load_settings({"generator": {"type": "scripted", "texts": texts}}, CFG)

    @pytest.mark.parametrize("path", [["a.json"], 3, None])
    def test_scripted_path_must_be_a_string(self, path, tmp_path):
        # a config's path reaches the check unresolved, not as a TypeError from the join
        with pytest.raises(HarnessError, match="scripted path"):
            load_settings({"generator": {"type": "scripted", "path": path}}, tmp_path / "cfg.json")

    def test_scripted_missing_source(self):
        with pytest.raises(HarnessError, match="texts.*path|path.*texts"):
            load_settings({"generator": {"type": "scripted"}}, CFG)

    def test_remote(self):
        gen = make_generator(
            {"type": "remote", "url": "http://localhost:1/x", "model": "m"},
            arity=1,
            run_seed=0,
        )
        assert isinstance(gen, RemoteChatGenerator)

    def test_remote_missing_url(self):
        with pytest.raises(HarnessError, match="url"):
            load_settings({"generator": {"type": "remote", "model": "m"}}, CFG)

    # {"url": 3, "model": null} used to build a generator whose every call
    # failed with "Invalid URL '3'"
    @pytest.mark.parametrize("key", ["url", "model"])
    @pytest.mark.parametrize("value", [3, None, "", ["http://localhost:1/x"]])
    def test_remote_url_and_model_must_be_non_empty_strings(self, key, value):
        settings = {"type": "remote", "url": "http://localhost:1/x", "model": "m", key: value}
        with pytest.raises(HarnessError, match=f"remote {key} must be a non-empty string"):
            load_settings({"generator": settings}, CFG)

    def test_unknown_type(self):
        with pytest.raises(HarnessError, match="unknown generator"):
            load_settings({"generator": {"type": "oracle"}}, CFG)

    @pytest.mark.parametrize("timeout", [True, "30", 0, 0.0, -1.0, INF, float("nan"), None])
    def test_remote_timeout_must_be_positive_and_finite(self, timeout):
        settings = {"type": "remote", "url": "http://localhost:1/x", "model": "m"}
        with pytest.raises(HarnessError, match="timeout"):
            load_settings({"generator": {**settings, "timeout": timeout}}, CFG)

    @pytest.mark.parametrize(
        "settings",
        [
            {"type": "mutation", "seeed": 3},
            {"type": "scripted", "texts": ["a"], "seeed": 3},
            {"type": "remote", "url": "http://localhost:1/x", "model": "m", "seeed": 3},
        ],
    )
    def test_unknown_key_refused(self, settings):
        # a misspelled key used to be ignored: "seeed" ran with the run seed
        with pytest.raises(HarnessError, match="unknown key 'seeed' in"):
            load_settings({"generator": settings}, CFG)

    @pytest.mark.parametrize("timeout", [5, 2.5, np.float64(0.25)])
    def test_remote_timeout_accepts_positive_numbers(self, timeout):
        settings = {"type": "remote", "url": "http://localhost:1/x", "model": "m"}
        _, checked, _ = load_settings({"generator": {**settings, "timeout": timeout}}, CFG)
        gen = make_generator(checked, arity=1, run_seed=0)
        assert gen._timeout == float(timeout) and type(gen._timeout) is float


class TestConfigParsing:
    def test_search_config_nested_blocks(self):
        cfg, _, _ = load_settings(
            {
                "search": {
                    "iterations": 9,
                    "mode": "llm-sr",
                    "optimizer": {"restarts": 2},
                }
            },
            CFG,
        )
        assert cfg.iterations == 9
        assert cfg.optimizer.restarts == 2
        assert cfg.optimizer.max_evaluations == OptimizerConfig().max_evaluations

    def test_search_block_rejects_repeats(self):
        # repeats is a suite setting; a search run has no use for it
        with pytest.raises(HarnessError, match="repeats"):
            load_settings({"search": {"iterations": 9, "repeats": 2}}, CFG)

    def test_suite_config_resolves_relative_paths(self, tmp_path):
        X = np.linspace(1, 4, 12).reshape(-1, 1)
        write_problem_files(tmp_path, "tiny", X, X[:, 0])
        script = tmp_path / "texts.json"
        script.write_text(json.dumps([GOOD_LINEAR]))
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "problems": ["tiny.json", str(tmp_path / "elsewhere" / "other.json")],
                    "modes": ["llm-sr"],
                    "out_dir": "out",
                    "generator": {"type": "scripted", "path": "texts.json"},
                    "analysis_generator": {"type": "scripted", "path": str(script)},
                    "search": {"iterations": 2},
                    "repeats": 1,
                }
            )
        )
        cfg = suite_config_from_json(cfg_path)
        assert cfg.problems == (tmp_path / "tiny.json", tmp_path / "elsewhere" / "other.json")
        assert cfg.out_dir == tmp_path / "out"
        assert cfg.generator["path"] == str(tmp_path / "texts.json")
        assert cfg.analysis_generator["path"] == str(tmp_path / "texts.json")
        assert cfg.search.iterations == 2

    def test_suite_config_missing_key(self, tmp_path):
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(json.dumps({"problems": ["a.json"], "modes": ["llm-sr"]}))
        with pytest.raises(HarnessError, match="out_dir"):
            suite_config_from_json(cfg_path)

    def test_suite_config_empty_modes(self, tmp_path):
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(
            json.dumps(
                {"problems": ["a.json"], "modes": [], "out_dir": "out",
                 "generator": {"type": "mutation"}}
            )
        )
        with pytest.raises(HarnessError, match="at least one mode"):
            suite_config_from_json(cfg_path)

    def test_duplicate_modes_rejected(self, tmp_path):
        # both copies would write, then reuse, the same run files
        with pytest.raises(HarnessError, match="duplicate mode"):
            SuiteConfig(
                problems=(tmp_path / "p.json",),
                modes=("llm-sr", "proaug", "llm-sr"),
                out_dir=tmp_path / "out",
                search=SearchConfig(mode="llm-sr"),
                generator={"type": "mutation"},
            )

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

    # int() used to turn 2.7 into 2, "2" into 2 and true into 1
    @pytest.mark.parametrize("key", ["repeats", "workers"])
    @pytest.mark.parametrize("value", [2.7, 2.0, "2", True])
    def test_suite_json_rejects_non_integer_counts(self, tmp_path, key, value):
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(
            json.dumps(
                {"problems": ["a.json"], "modes": ["llm-sr"], "out_dir": "out",
                 "generator": {"type": "mutation"}, key: value}
            )
        )
        with pytest.raises(HarnessError, match=key):
            suite_config_from_json(cfg_path)

    def test_suite_json_search_block_rejects_non_integer_counts(self, tmp_path):
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(
            json.dumps(
                {"problems": ["a.json"], "modes": ["llm-sr"], "out_dir": "out",
                 "generator": {"type": "mutation"}, "search": {"islands": 2.0}}
            )
        )
        with pytest.raises(SearchError, match="islands"):
            suite_config_from_json(cfg_path)

    def _suite_json(self, tmp_path, **entries):
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(
            json.dumps(
                {"problems": ["a.json"], "modes": ["llm-sr"], "out_dir": "out",
                 "generator": {"type": "mutation"}, **entries}
            )
        )
        return cfg_path

    def test_suite_json_rejects_unknown_top_level_key(self, tmp_path):
        # "repeat" used to be ignored, running the default 3 repeats
        with pytest.raises(HarnessError, match="unknown key 'repeat'"):
            suite_config_from_json(self._suite_json(tmp_path, repeat=5))

    # a misspelled key used to surface as the config class's own TypeError
    # ("__init__() got an unexpected keyword argument"), naming no file or block
    @pytest.mark.parametrize(
        "block, key, search",
        [
            ("search", "split_seed", {"split_seed": 3}),
            ("search.optimizer", "restart", {"optimizer": {"restart": 2}}),
            # the remote request's sampling settings became constants
            ("search", "decoding", {"decoding": {"temperature": 0.1}}),
            # the no-report control is mode llm-sr
            ("search", "inject_report", {"inject_report": False}),
        ],
    )
    def test_suite_json_rejects_unknown_search_keys(self, tmp_path, block, key, search):
        path = self._suite_json(tmp_path, search=search)
        with pytest.raises(HarnessError) as err:
            suite_config_from_json(path)
        assert str(err.value) == f"{path}: unknown key {key!r} in {block}"

    @pytest.mark.parametrize("key", ["problems", "modes"])
    def test_suite_json_lists_must_be_lists(self, tmp_path, key):
        value = "a.json" if key == "problems" else "llm-sr"
        with pytest.raises(HarnessError, match=f"{key} must be a list"):
            suite_config_from_json(self._suite_json(tmp_path, **{key: value}))

    # a number used to fail as "unsupported operand type(s) for /"
    @pytest.mark.parametrize(
        "key, value", [("problems", [3]), ("problems", ["a.json", None]), ("out_dir", 3)]
    )
    def test_suite_json_paths_must_be_strings(self, tmp_path, key, value):
        with pytest.raises(HarnessError, match=f"{key} must be"):
            suite_config_from_json(self._suite_json(tmp_path, **{key: value}))

    def test_suite_json_refuses_search_mode(self, tmp_path):
        # it used to be accepted and ignored: each run takes its mode from modes
        with pytest.raises(HarnessError, match="search.mode"):
            suite_config_from_json(self._suite_json(tmp_path, search={"mode": "proaug"}))

    def test_suite_and_run_configs_share_one_loader(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        raw = {
            "search": {"iterations": 4, "optimizer": {"restarts": 2}},
            "generator": {"type": "scripted", "path": "replies.json"},
            "analysis_generator": {"type": "scripted", "path": "analyses.json"},
        }
        search, generator, analysis = load_settings(raw, sub / "cfg.json")
        assert search.iterations == 4 and search.optimizer.restarts == 2
        assert generator == {"type": "scripted", "path": str(sub / "replies.json")}
        assert analysis == {"type": "scripted", "path": str(sub / "analyses.json")}
        # the raw blocks are left as they were
        assert raw["generator"]["path"] == "replies.json"
        cfg = suite_config_from_json(self._suite_json(sub, **raw))
        assert (cfg.search, cfg.generator, cfg.analysis_generator) == (search, generator, analysis)

    def test_read_config_names_a_file_that_is_not_utf8(self, tmp_path):
        # the decoder's message alone did not say which file
        path = tmp_path / "cfg.json"
        path.write_bytes(json.dumps({"search": {}}).encode("utf-16"))
        with pytest.raises(HarnessError, match=r"cfg\.json: not UTF-8 text"):
            read_config(path)

    def test_read_config_refuses_unknown_keys_and_non_objects(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"search": {}, "generator": {}, "analysis_generator": None}))
        assert read_config(path)["search"] == {}
        path.write_text(json.dumps({"serach": {}}))
        with pytest.raises(HarnessError, match="unknown key 'serach'"):
            read_config(path)
        path.write_text(json.dumps([{"search": {}}]))
        with pytest.raises(HarnessError, match="object"):
            read_config(path)
        path.write_text('{"search": {"iterations": 3,}}')
        with pytest.raises(HarnessError, match=r"cfg\.json: invalid JSON"):
            read_config(path)
        for block in ("search", "generator", "analysis_generator"):
            path.write_text(json.dumps({block: [{"type": "mutation"}]}))
            with pytest.raises(HarnessError, match=f"{block} must be a JSON object"):
                read_config(path)
        path.write_text(json.dumps({"generator": None}))
        with pytest.raises(HarnessError, match="generator must be a JSON object"):
            read_config(path)
        with pytest.raises(HarnessError, match="search.optimizer must be a JSON object"):
            load_settings({"search": {"optimizer": [1]}}, path)


class TestBundledMutationSuite:
    """``configs/mutation_suite.json`` is the offline three-mode suite."""

    PATH = REPO / "configs" / "mutation_suite.json"

    def test_search_block_matches_the_benchmark_copy(self, perfbench_workloads):
        # perfbench's suite-parallel workload keeps its own copy of the settings
        search = json.loads(self.PATH.read_text())["search"]
        for key, value in perfbench_workloads.MUTATION_SEARCH.items():
            assert search[key] == value, key

    def test_lists_every_bundled_problem(self):
        bundled = sorted((REPO / "problems").glob("*.json"))
        problems = json.loads(self.PATH.read_text())["problems"]
        assert problems == [f"../problems/{p.name}" for p in bundled]

    def test_loads(self):
        config = suite_config_from_json(self.PATH)
        assert [p.resolve() for p in config.problems] == sorted((REPO / "problems").glob("*.json"))
        assert config.out_dir.resolve() == REPO / "runs" / "mutation_suite"
        assert (config.modes, config.repeats, config.workers) == (MODES, 3, 1)
        assert config.generator == {"type": "mutation"}
        assert config.search == SearchConfig(
            iterations=100,
            samples_per_prompt=2,
            islands=4,
            island_capacity=16,
            seed=0,
            retry_budget=1,
            optimizer=OptimizerConfig(restarts=3, max_iterations=120, max_evaluations=1200),
        )

    def test_benchmark_suites_load(self, tmp_path, perfbench_workloads):
        # a key the benchmark writes and the loader refuses would fail every pass
        paths = [self.PATH]
        for name, workload in perfbench_workloads.WORKLOADS.items():
            settings = perfbench_workloads.prepare(workload, REPO, tmp_path / name, 0, "tiny")
            paths.append(tmp_path / f"{name}.json")
            perfbench_workloads.write_suite(settings["suite"], paths[-1], tmp_path / "out")
        for path in paths:
            assert suite_config_from_json(path).search.iterations > 0

    # fields that no shipped suite sets, and why each stays a setting
    UNSET_BY_SUITES = {"mode": "a suite's modes sets it for each run"}

    def test_every_search_setting_is_set_by_a_shipped_suite(self, tmp_path, perfbench_workloads):
        # a setting that nothing sets belongs in the code as a constant
        blocks = [json.loads(self.PATH.read_text())["search"]]
        for name, workload in perfbench_workloads.WORKLOADS.items():
            suite = perfbench_workloads.prepare(workload, REPO, tmp_path / name, 0, "tiny")["suite"]
            blocks.append(suite["search"])
        unset = [
            f.name for f in dataclasses.fields(SearchConfig) if not any(f.name in b for b in blocks)
        ]
        unset += [
            f"optimizer.{f.name}"
            for f in dataclasses.fields(OptimizerConfig)
            if not any(f.name in b.get("optimizer", {}) for b in blocks)
        ]
        assert sorted(unset) == sorted(self.UNSET_BY_SUITES)


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
        fresh = run_suite(config)
        before = (config.out_dir / "summary.json").read_bytes()
        before_csv = (config.out_dir / "trajectories.csv").read_bytes()
        resumed = run_suite(config)
        assert (config.out_dir / "summary.json").read_bytes() == before
        assert (config.out_dir / "trajectories.csv").read_bytes() == before_csv
        assert [dataclasses.replace(o, reused=True) for o in fresh.outcomes] == list(
            resumed.outcomes
        )

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

    @pytest.mark.parametrize("escape", ["absolute", "../up"])
    def test_problem_name_outside_out_dir_recorded_as_failed(self, tmp_path, escape):
        X = np.linspace(1, 4, 12).reshape(-1, 1)
        path = write_problem_files(tmp_path, "evil", X, X[:, 0])
        name = str(tmp_path / "evil_target") if escape == "absolute" else escape
        raw = json.loads(path.read_text())
        path.write_text(json.dumps({**raw, "name": name}))
        config = _suite(tmp_path)
        config = dataclasses.replace(config, problems=config.problems + (path,))
        report = run_suite(config)
        failed = [o for o in report.outcomes if o.failed]
        assert len(failed) == 2 * 2 and {o.problem for o in failed} == {"evil"}
        assert all("one path component" in o.error for o in failed)
        assert not (tmp_path / "evil_target").exists() and not (tmp_path / "up").exists()
        assert sorted(p.name for p in config.out_dir.iterdir()) == [
            "cube", "square", "summary.json", "trajectories.csv"
        ]

    def test_problems_sharing_a_name_rejected_before_any_run(self, tmp_path):
        X = np.linspace(1, 4, 12).reshape(-1, 1)
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(write_problem_files(tmp_path / sub, "same", X, X[:, 0]))
        config = dataclasses.replace(_suite(tmp_path), problems=tuple(paths))
        with pytest.raises(HarnessError, match="share a name: same"):
            run_suite(config)
        assert not config.out_dir.exists()

    def test_unreadable_run_summary_is_rerun(self, tmp_path):
        config = _suite(tmp_path)
        first = run_suite(config)
        torn = first.outcomes[3].summary_path
        torn.write_text(torn.read_text()[:40])
        second = run_suite(config)
        assert [o.reused for o in second.outcomes] == [i != 3 for i in range(8)]
        json.loads(torn.read_text())
        fresh = _suite(tmp_path, out="fresh")
        run_suite(fresh)
        assert (config.out_dir / "summary.json").read_bytes() == (
            fresh.out_dir / "summary.json"
        ).read_bytes()

    @pytest.mark.parametrize("text", ["null", "[1, 2]", "3"])
    def test_run_summary_that_is_not_an_object_is_rerun(self, tmp_path, text):
        config = _suite(tmp_path)
        first = run_suite(config)
        first.outcomes[3].summary_path.write_text(text)
        second = run_suite(config)
        assert [o.reused for o in second.outcomes] == [i != 3 for i in range(8)]
        assert second.outcomes[3] == first.outcomes[3]

    @pytest.mark.parametrize("line", ["[1]", '{"best_nmse": [1]}', '{"best_nmse": true}'])
    def test_run_trace_line_that_is_not_a_record_is_rerun(self, tmp_path, line):
        config = _suite(tmp_path)
        first = run_suite(config)
        first.outcomes[3].trace_path.write_text(line + "\n")
        second = run_suite(config)
        assert [o.reused for o in second.outcomes] == [i != 3 for i in range(8)]
        assert second.outcomes[3] == first.outcomes[3]

    def test_replies_that_are_not_json_fail_their_runs_not_the_suite(self, tmp_path):
        # building the generators outside the run's guard aborted the suite
        # before its report was written
        replies = tmp_path / "replies.json"
        replies.write_text("{not json")
        config = dataclasses.replace(
            _suite(tmp_path), generator={"type": "scripted", "path": str(replies)}
        )
        report = run_suite(config)
        assert report.failures == 8
        assert all(f"{replies}: invalid JSON" in o.error for o in report.outcomes)
        written = json.loads((config.out_dir / "summary.json").read_text())
        assert [run["error"] for run in written["runs"]] == [o.error for o in report.outcomes]

    def test_resume_reruns_a_run_of_other_search_settings(self, tmp_path):
        # a run recorded at 2 iterations used to be reused at 3
        config = _suite(tmp_path)
        short = dataclasses.replace(config, search=dataclasses.replace(config.search, iterations=2))
        run_suite(short)
        longer = run_suite(config)
        assert not any(o.reused for o in longer.outcomes)
        for o in longer.outcomes:
            assert len(o.trace_path.read_text().splitlines()) == 3
            assert json.loads(o.summary_path.read_text())["settings"]["iterations"] == 3
        assert all(o.reused for o in run_suite(config).outcomes)

    def test_resume_reruns_a_run_of_other_generator_settings(self, tmp_path):
        # a run whose scripted replies changed used to be reused, and its
        # summary still reported the old replies' best expression
        linear = dataclasses.replace(
            _suite(tmp_path, modes=("llm-sr",), repeats=1),
            generator={"type": "scripted", "texts": ["```expr\np0 * x0\n```"]},
        )
        power = dataclasses.replace(linear, generator={"type": "scripted", "texts": [GOOD_POWER]})
        run_suite(linear)
        report = run_suite(power)
        assert not any(o.reused for o in report.outcomes)
        for o in report.outcomes:
            summary = json.loads(o.summary_path.read_text())
            assert summary["best_expression"] == "(p0 * (x0 ^ p1))"
            assert summary["settings"]["generator_settings"] == power.generator
            assert summary["settings"]["analysis_generator_settings"] is None
        analysed = dataclasses.replace(power, analysis_generator={"type": "mutation"})
        assert not any(o.reused for o in run_suite(analysed).outcomes)
        assert all(o.reused for o in run_suite(analysed).outcomes)

    def test_resume_reruns_a_run_whose_replies_file_changed(self, tmp_path):
        # a scripted generator given by path was recorded by its path only, so
        # a run was reused after its replies file changed
        replies = tmp_path / "replies.json"
        replies.write_text(json.dumps(["```expr\np0 * x0\n```"]))
        config = _suite(tmp_path, modes=("llm-sr",), repeats=1)
        config = dataclasses.replace(
            config, problems=config.problems[:1], generator={"type": "scripted", "path": str(replies)}
        )
        run_suite(config)
        replies.write_text(json.dumps([GOOD_POWER]))
        (outcome,) = run_suite(config).outcomes
        assert not outcome.reused
        summary = json.loads(outcome.summary_path.read_text())
        assert summary["best_expression"] == "(p0 * (x0 ^ p1))"
        assert len(summary["settings"]["generator_replies_sha256"]) == 64
        assert "analysis_generator_replies_sha256" not in summary["settings"]
        assert run_suite(config).outcomes[0].reused
        # an unreadable file is not a reason to reuse: the run is re-run, and
        # building its generator fails that run, which the report records
        replies.unlink()
        (config.out_dir / "summary.json").unlink()
        (outcome,) = run_suite(config).outcomes
        assert outcome.failed and "replies.json" in outcome.error
        report = json.loads((config.out_dir / "summary.json").read_text())
        assert report["failures"] == 1 and report["runs"][0]["error"] == outcome.error

    def test_resume_reruns_a_run_whose_replies_file_changed_while_it_ran(
        self, tmp_path, monkeypatch
    ):
        # the recorded replies digest must be of the replies the run read,
        # not of the file as it is when the run ends
        replies = tmp_path / "replies.json"
        replies.write_text(json.dumps(["```expr\np0 * x0\n```"]))
        config = _suite(tmp_path, modes=("llm-sr",), repeats=1)
        config = dataclasses.replace(
            config, problems=config.problems[:1], generator={"type": "scripted", "path": str(replies)}
        )
        original = harness.run

        def run(*args):
            trace = original(*args)
            replies.write_text(json.dumps([GOOD_POWER]))
            return trace

        monkeypatch.setattr(harness, "run", run)
        run_suite(config)
        monkeypatch.setattr(harness, "run", original)
        (outcome,) = run_suite(config).outcomes
        assert not outcome.reused
        assert json.loads(outcome.summary_path.read_text())["best_expression"] == "(p0 * (x0 ^ p1))"

    def test_run_summary_without_generator_settings_is_rerun(self, tmp_path):
        # such a summary does not say which generator wrote the run
        config = _suite(tmp_path)
        first = run_suite(config)
        path = first.outcomes[3].summary_path
        summary = json.loads(path.read_text())
        del summary["settings"]["generator_settings"]
        path.write_text(json.dumps(summary))
        second = run_suite(config)
        assert [o.reused for o in second.outcomes] == [i != 3 for i in range(8)]
        assert second.outcomes[3] == first.outcomes[3]

    @pytest.mark.parametrize(
        "edit",
        [
            # a setting that became a constant, a deleted flag, and the format
            # in which every setting was a key of its own
            lambda summary: summary["settings"].update(k_demos=7),
            lambda summary: summary["settings"].update(inject_report=False),
            lambda summary: summary.update(summary.pop("settings")),
        ],
        ids=["k_demos", "inject_report", "no_settings_key"],
    )
    def test_run_summary_whose_settings_record_differs_is_rerun(self, tmp_path, edit):
        # the settings used to be compared as a subset of the summary's keys,
        # so a summary that recorded a setting more was reused
        config = _suite(tmp_path)
        first = run_suite(config)
        path = first.outcomes[3].summary_path
        written = path.read_bytes()
        summary = json.loads(written)
        edit(summary)
        path.write_text(json.dumps(summary))
        second = run_suite(config)
        assert [o.reused for o in second.outcomes] == [i != 3 for i in range(8)]
        assert second.outcomes[3] == first.outcomes[3]
        assert json.loads(path.read_bytes())["settings"] == json.loads(written)["settings"]
        assert all(o.reused for o in run_suite(config).outcomes)

    @pytest.mark.parametrize("repeats", [1, 2])
    @pytest.mark.parametrize(
        "damage", ["best_val_nmse", "nan", "test_nmse", "trace_short", "trace_long"]
    )
    def test_run_files_the_report_cannot_read_are_rerun(self, tmp_path, repeats, damage):
        # a result that is not a number aborted the resumed suite, a NaN one
        # made its aggregates null, and a trace of another length aborted it
        # at 2 repeats and lost the win curves at 1
        config = _suite(tmp_path, repeats=repeats)
        first = run_suite(config)
        summary_path, trace_path = first.outcomes[1].summary_path, first.outcomes[1].trace_path
        summary = json.loads(summary_path.read_text())
        lines = trace_path.read_text().splitlines(keepends=True)
        if damage == "best_val_nmse":
            summary_path.write_text(json.dumps({**summary, "best_val_nmse": [1]}))
        elif damage == "nan":
            summary_path.write_text(json.dumps({**summary, "best_val_nmse": math.nan}))
        elif damage == "test_nmse":
            summary_path.write_text(json.dumps({**summary, "test_nmse": "abc"}))
        elif damage == "trace_short":
            trace_path.write_text("".join(lines[:-1]))
        else:
            trace_path.write_text("".join(lines + lines[-1:]))
        second = run_suite(config)
        assert [o.reused for o in second.outcomes] == [i != 1 for i in range(4 * repeats)]
        assert second.outcomes[1] == first.outcomes[1]
        written = json.loads((config.out_dir / "summary.json").read_text())
        assert set(written["win_rate"]) == {
            "llm-sr_vs_statistical-hint", "statistical-hint_vs_llm-sr"
        }
        assert written["win_rate"] == json.loads(json.dumps(first.win_curves))

    def test_interrupt_cancels_queued_runs(self, tmp_path, monkeypatch):
        # leaving the pool on the exception used to run every queued run first
        class Interrupting:
            tag = "interrupting"

            def generate(self, request):
                raise KeyboardInterrupt

        started = []
        original = harness.run

        def run(config, problem, generator, analysis_generator=None):
            started.append(config.seed)
            if config.seed == 0:
                generator = Interrupting()
            return original(config, problem, generator, analysis_generator)

        monkeypatch.setattr(harness, "run", run)
        workers = 2
        config = _suite(tmp_path, modes=("llm-sr",), repeats=8)
        config = dataclasses.replace(config, problems=config.problems[:1], workers=workers)
        with pytest.raises(KeyboardInterrupt):
            run_suite(config)
        assert 0 in started and len(started) <= 1 + 2 * workers

    def test_interrupt_starts_no_run_after_the_interrupting_one(self, tmp_path, monkeypatch):
        # each worker that had taken a job used to start its run after the
        # interrupt, and under the suite's lock they would run one by one
        class Interrupting:
            tag = "interrupting"

            def generate(self, request):
                raise KeyboardInterrupt

        started = []
        original = harness.run

        def run(config, problem, generator, analysis_generator=None):
            started.append(config.seed)
            if config.seed == 0:
                generator = Interrupting()
            return original(config, problem, generator, analysis_generator)

        monkeypatch.setattr(harness, "run", run)
        config = _suite(tmp_path, modes=("llm-sr",), repeats=8)
        config = dataclasses.replace(config, problems=config.problems[:1], workers=4)
        with pytest.raises(KeyboardInterrupt):
            run_suite(config)
        assert started[-1] == 0

    def test_offline_runs_compute_one_at_a_time(self, tmp_path, monkeypatch):
        # every worker thread used to compute at once, its fits contending
        # for the GIL with the others'
        in_flight, most = [0], [0]
        original = harness.run

        def run(config, problem, generator, analysis_generator=None):
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
            try:
                return original(config, problem, generator, analysis_generator)
            finally:
                in_flight[0] -= 1

        monkeypatch.setattr(harness, "run", run)
        config = dataclasses.replace(
            _suite(tmp_path), generator={"type": "mutation"}, workers=4
        )
        # threads switch often, so two runs that may overlap do
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = run_suite(config)
        finally:
            sys.setswitchinterval(interval)
        assert report.failures == 0 and len(report.outcomes) == 8
        assert most == [1]

    def test_remote_runs_overlap_their_waits(self, tmp_path, provider):
        # a run lets go of the suite's lock while its remote generator waits
        url, stub = provider
        stub.payload = {"choices": [{"message": {"content": GOOD_POWER}}]}
        stub.reply_delay = 0.5
        config = _suite(tmp_path, modes=("llm-sr",), repeats=4)
        config = dataclasses.replace(
            config,
            problems=config.problems[:1],
            search=dataclasses.replace(config.search, iterations=1),
            generator={"type": "remote", "url": url, "model": "m"},
            workers=4,
        )
        started = time.monotonic()
        report = run_suite(config)
        elapsed = time.monotonic() - started
        assert report.failures == 0 and len(stub.requests_seen) == 4
        assert stub.most_in_flight > 1
        assert elapsed < 0.5 * 4 * stub.reply_delay

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

    def test_threaded_remote_suite_matches_serial(self, tmp_path, provider):
        # remote runs let go of the suite's lock while they wait, so their
        # computing interleaves; the outcomes must not depend on it
        url, stub = provider
        stub.payload = {"choices": [{"message": {"content": GOOD_POWER}}]}
        stub.reply_delay = 0.05
        trajectories = {}
        for workers in (4, 1):
            config = _suite(tmp_path, modes=("llm-sr",), repeats=4, out=f"w{workers}")
            config = dataclasses.replace(
                config,
                problems=config.problems[:1],
                generator={"type": "remote", "url": url, "model": "m"},
                workers=workers,
            )
            report = run_suite(config)
            assert report.failures == 0 and len(report.outcomes) == 4
            trajectories[workers] = {
                (o.problem, o.mode, o.repeat): o.trajectory for o in report.outcomes
            }
        assert trajectories[4] == trajectories[1]

    def test_threaded_suite_leaves_warning_filters_alone(self, tmp_path):
        # warnings.catch_warnings swaps the process-wide filter list, so fits
        # that entered it from two worker threads could leave an "ignore"
        # filter behind
        before = list(warnings.filters)
        config = dataclasses.replace(
            _suite(tmp_path, modes=("llm-sr", "statistical-hint", "proaug")), workers=2
        )
        run_suite(config)
        assert warnings.filters == before

    def test_build_report_pure_reduction(self, tmp_path):
        config = _suite(tmp_path)
        report = run_suite(config)
        rebuilt = build_report(report.outcomes, config.modes)
        assert rebuilt.aggregates == report.aggregates
        assert rebuilt.win_curves == report.win_curves
        assert rebuilt.failures == report.failures
