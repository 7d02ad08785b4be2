import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symreg.cli import main
from symreg.generate import REPORT_HEADER
from symreg.search import MODES
from tests.conftest import write_csv, write_problem_files

GOOD_POWER = "<thought>power</thought>\n```expr\np0 * x0 ^ p1\n```"


@pytest.fixture
def kepler_files(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(0.4, 30.0, size=(60, 1))
    y = X[:, 0] ** 1.5
    problem = write_problem_files(tmp_path, "orbit", X, y, X_test=X[:5], y_test=y[:5])
    return problem, tmp_path / "orbit.csv"


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_missing_required_option(self, capsys):
        assert main(["suite"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_mode_choice(self, kepler_files, capsys):
        problem, _ = kepler_files
        assert main(["run", str(problem), "--mode", "warp"]) == 1

    def test_runtime_failure_is_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["run", str(missing), "--iterations", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    # numpy's seed sequence used to refuse it once the run started, naming
    # no setting
    def test_negative_seed_is_refused(self, kepler_files, tmp_path, capsys):
        problem, _ = kepler_files
        out = tmp_path / "runs"
        assert main(["run", str(problem), "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_expression_is_two(self, tmp_path, kepler_files, capsys):
        _, csv_path = kepler_files
        expr = tmp_path / "e.txt"
        expr.write_text("p0 ** x0")
        assert main(["eval", "--expr", str(expr), "--data", str(csv_path)]) == 2


class TestRunCommand:
    def test_mutation_run_writes_trace(self, kepler_files, tmp_path, capsys):
        problem, _ = kepler_files
        out = tmp_path / "runs"
        rc = main(
            [
                "run",
                str(problem),
                "--mode",
                "llm-sr",
                "--iterations",
                "3",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        output = capsys.readouterr().out
        assert "best expression:" in output
        assert "best tr-val NMSE:" in output
        trace_path = out / "orbit" / "llm-sr" / "1.trace.jsonl"
        assert trace_path.exists()
        assert (out / "orbit" / "llm-sr" / "1.summary.json").exists()
        assert len(trace_path.read_text().splitlines()) == 3

    def test_config_overrides(self, kepler_files, tmp_path, capsys):
        problem, _ = kepler_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "search": {"iterations": 2, "samples_per_prompt": 1},
                    "generator": {"type": "scripted", "texts": [GOOD_POWER]},
                }
            )
        )
        out = tmp_path / "runs"
        rc = main(
            [
                "run",
                str(problem),
                "--mode",
                "llm-sr",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        summary = json.loads(
            (out / "orbit" / "llm-sr" / "0.summary.json").read_text()
        )
        assert summary["settings"]["iterations"] == 2
        assert summary["generator"] == "scripted"
        assert summary["best_val_nmse"] < 1e-8
        assert summary["test_nmse"] is not None

    def test_summary_records_the_generator_settings(self, kepler_files, tmp_path):
        problem, _ = kepler_files
        cfg = tmp_path / "cfg.json"
        generator = {"type": "scripted", "texts": [GOOD_POWER]}
        cfg.write_text(
            json.dumps(
                {
                    "search": {"iterations": 1, "samples_per_prompt": 1, "mode": "proaug"},
                    "generator": generator,
                    "analysis_generator": {"type": "mutation"},
                }
            )
        )
        out = tmp_path / "runs"
        assert main(["run", str(problem), "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "orbit" / "proaug" / "0.summary.json").read_text())
        assert summary["settings"]["generator_settings"] == generator
        assert summary["settings"]["analysis_generator_settings"] == {"type": "mutation"}

    def test_cli_iterations_beats_config_file(self, kepler_files, tmp_path):
        problem, _ = kepler_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"search": {"iterations": 9}}))
        out = tmp_path / "runs"
        rc = main(
            [
                "run",
                str(problem),
                "--mode",
                "llm-sr",
                "--iterations",
                "2",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "orbit" / "llm-sr" / "0.summary.json").read_text())
        assert summary["settings"]["iterations"] == 2

    def test_config_mode_and_seed_stand_unless_flags_are_given(self, kepler_files, tmp_path):
        problem, _ = kepler_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"search": {"mode": "llm-sr", "seed": 5, "iterations": 1}}))
        from_file, from_flags = tmp_path / "file", tmp_path / "flags"
        assert main(["run", str(problem), "--config", str(cfg), "--out", str(from_file)]) == 0
        trace = from_file / "orbit" / "llm-sr" / "5.trace.jsonl"
        assert sorted(p.relative_to(from_file) for p in from_file.rglob("*.jsonl")) == [
            trace.relative_to(from_file)
        ]
        # the generator is seeded from the resolved seed too
        args = ["run", str(problem), "--mode", "llm-sr", "--seed", "5", "--iterations", "1"]
        assert main([*args, "--out", str(from_flags)]) == 0
        assert (from_flags / "orbit" / "llm-sr" / "5.trace.jsonl").read_bytes() == trace.read_bytes()

        overridden = tmp_path / "overridden"
        args = ["--mode", "statistical-hint", "--seed", "2", "--out", str(overridden)]
        assert main(["run", str(problem), "--config", str(cfg), *args]) == 0
        summary_path = overridden / "orbit" / "statistical-hint" / "2.summary.json"
        summary = json.loads(summary_path.read_text())["settings"]
        assert (summary["mode"], summary["seed"]) == ("statistical-hint", 2)


    def test_config_scripted_path_resolves_against_the_config_dir(
        self, kepler_files, tmp_path, monkeypatch
    ):
        # as in a suite JSON; it used to resolve against the working directory
        problem, _ = kepler_files
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "replies.json").write_text(json.dumps([GOOD_POWER]))
        (sub / "cfg.json").write_text(
            json.dumps(
                {
                    "search": {"iterations": 2, "samples_per_prompt": 1},
                    "generator": {"type": "scripted", "path": "replies.json"},
                }
            )
        )
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["run", str(problem), "--mode", "llm-sr", "--config", "sub/cfg.json", "--out", "runs"]
        )
        assert rc == 0
        summary_path = tmp_path / "runs" / "orbit" / "llm-sr" / "0.summary.json"
        summary = json.loads(summary_path.read_text())
        assert summary["generator"] == "scripted"
        assert summary["best_val_nmse"] < 1e-8

    def test_config_unknown_key_is_refused(self, kepler_files, tmp_path, capsys):
        problem, _ = kepler_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"search": {"iterations": 2}, "generatr": {"type": "mutation"}}))
        out = tmp_path / "runs"
        assert main(["run", str(problem), "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown key 'generatr'" in capsys.readouterr().err
        assert not out.exists()

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
    def test_config_unknown_search_key_is_refused(
        self, kepler_files, tmp_path, capsys, block, key, search
    ):
        problem, _ = kepler_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"search": search}))
        out = tmp_path / "runs"
        assert main(["run", str(problem), "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}: unknown key {key!r} in {block}" in capsys.readouterr().err
        assert not out.exists()
        suite_cfg = tmp_path / "suite.json"
        suite = {"problems": [problem.name], "modes": ["llm-sr"], "out_dir": "out"}
        suite = {**suite, "generator": {"type": "mutation"}, "search": search}
        suite_cfg.write_text(json.dumps(suite))
        assert main(["suite", "--config", str(suite_cfg)]) == 2
        assert capsys.readouterr().err == f"error: {suite_cfg}: unknown key {key!r} in {block}\n"
        assert not (tmp_path / "out").exists()

    def test_generator_flag_is_refused(self, kepler_files, tmp_path, capsys):
        # it only named a default type, and "scripted" or "remote" without a
        # config always failed
        problem, _ = kepler_files
        out = tmp_path / "runs"
        assert main(["run", str(problem), "--generator", "mutation", "--out", str(out)]) == 1
        assert "--generator" in capsys.readouterr().err
        assert not out.exists()


# each used to fail every run of a suite with an error that named no file,
# and the suite exited 0
BAD_GENERATORS = [
    ({"type": "mutaton"}, "unknown generator type 'mutaton' in {block}"),
    ({"type": "mutation", "sead": 3}, "unknown key 'sead' in {block}"),
    (
        {"type": "scripted", "texts": "a"},
        "{block}: scripted texts must be a non-empty list of strings, got 'a'",
    ),
    ({"type": "remote", "model": "m"}, "{block}: remote generator needs 'url'"),
    (
        {"type": "remote", "url": "http://localhost:1/x", "model": "m", "timeout": 0},
        "{block}: remote timeout must be a positive finite number, got 0",
    ),
]


@pytest.mark.parametrize("block", ["generator", "analysis_generator"])
@pytest.mark.parametrize(
    "settings, message",
    BAD_GENERATORS,
    ids=["unknown-type", "unknown-key", "texts-string", "remote-no-url", "remote-timeout-0"],
)
def test_bad_generator_settings_are_refused_before_any_run(
    kepler_files, tmp_path, capsys, block, settings, message
):
    problem, _ = kepler_files
    blocks = {"generator": {"type": "mutation"}, block: settings}
    suite_cfg, run_cfg = tmp_path / "suite.json", tmp_path / "run.json"
    suite = {"problems": [problem.name], "modes": ["llm-sr"], "out_dir": "out", "repeats": 1}
    suite_cfg.write_text(json.dumps({**suite, **blocks}))
    run_cfg.write_text(json.dumps(blocks))
    expected = message.format(block=block)
    assert main(["suite", "--config", str(suite_cfg)]) == 2
    assert capsys.readouterr().err == f"error: {suite_cfg}: {expected}\n"
    assert not (tmp_path / "out").exists()
    out = tmp_path / "runs"
    args = ["--config", str(run_cfg), "--iterations", "1", "--out", str(out)]
    assert main(["run", str(problem), *args]) == 2
    assert capsys.readouterr().err == f"error: {run_cfg}: {expected}\n"
    assert not out.exists()


class TestSuiteCommand:
    def test_end_to_end(self, tmp_path, capsys):
        X = np.linspace(1, 5, 30).reshape(-1, 1)
        write_problem_files(tmp_path, "square", X, X[:, 0] ** 2)
        cfg = tmp_path / "suite.json"
        cfg.write_text(
            json.dumps(
                {
                    "problems": ["square.json"],
                    "modes": ["llm-sr"],
                    "out_dir": "out",
                    "generator": {"type": "scripted", "texts": [GOOD_POWER]},
                    "search": {
                        "iterations": 2,
                        "samples_per_prompt": 1,
                        "optimizer": {"restarts": 2, "max_evaluations": 300},
                    },
                    "repeats": 1,
                }
            )
        )
        assert main(["suite", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "runs: 1 (failures: 0)" in out
        assert (tmp_path / "out" / "summary.json").exists()

    def test_run_and_a_one_run_suite_write_the_same_summary(self, kepler_files, tmp_path):
        # symreg run and symreg suite share one run path
        problem, _ = kepler_files
        (tmp_path / "replies.json").write_text(json.dumps([GOOD_POWER]))
        settings = {
            "search": {"iterations": 2, "samples_per_prompt": 1},
            "generator": {"type": "scripted", "path": "replies.json"},
        }
        run_cfg, suite_cfg = tmp_path / "run.json", tmp_path / "suite.json"
        run_cfg.write_text(json.dumps(settings))
        suite = {"problems": [problem.name], "modes": ["llm-sr"], "out_dir": "suite", "repeats": 1}
        suite_cfg.write_text(json.dumps({**settings, **suite}))
        out = tmp_path / "run"
        args = ["--mode", "llm-sr", "--config", str(run_cfg), "--out", str(out)]
        assert main(["run", str(problem), *args]) == 0
        assert main(["suite", "--config", str(suite_cfg)]) == 0
        summaries = [
            json.loads((root / "orbit" / "llm-sr" / "0.summary.json").read_text())
            for root in (out, tmp_path / "suite")
        ]
        for summary in summaries:
            del summary["timings"]
        assert summaries[0] == summaries[1]
        assert len(summaries[0]["settings"]["generator_replies_sha256"]) == 64

    def test_prints_the_mode_table(self, tmp_path, capsys):
        X = np.linspace(1, 5, 30).reshape(-1, 1)
        write_problem_files(tmp_path, "square", X, X[:, 0] ** 2)
        write_problem_files(tmp_path, "cube", X, X[:, 0] ** 3)
        cfg = tmp_path / "suite.json"
        cfg.write_text(
            json.dumps(
                {
                    "problems": ["square.json", "cube.json"],
                    "modes": ["llm-sr", "proaug"],
                    "out_dir": "out",
                    "generator": {"type": "mutation"},
                    "search": {"iterations": 2, "samples_per_prompt": 1},
                    "repeats": 1,
                }
            )
        )
        assert main(["suite", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "runs: 4 (failures: 0)"
        assert lines[-1] == f"report: {tmp_path / 'out' / 'summary.json'}"
        assert f"{'problem':<22}{'mode':<18}{'median NMSE':>14}{'IQR':>12}" in lines
        rows = [line.split() for line in lines if line.startswith(("square ", "cube "))]
        assert [row[:2] for row in rows] == [
            ["cube", "llm-sr"], ["cube", "proaug"], ["square", "llm-sr"], ["square", "proaug"]
        ]
        assert all(len(row) == 4 for row in rows)
        wins = [line for line in lines if " vs " in line]
        assert [line.split(":")[0] for line in wins] == ["  llm-sr vs proaug", "  proaug vs llm-sr"]


class TestAnalyzeCommand:
    def test_prints_rendered_report(self, kepler_files, tmp_path, capsys):
        _, csv_path = kepler_files
        spec = tmp_path / "spec.txt"
        spec.write_text("stats all\nr2 log(y) ~ log(x0)\n")
        assert main(["analyze", "--spec", str(spec), "--data", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Statistics: {" in out
        assert "'r2_log(Y)_log(X_0)': 1.0" in out

    def test_bad_spec_is_runtime_error(self, kepler_files, tmp_path, capsys):
        _, csv_path = kepler_files
        spec = tmp_path / "spec.txt"
        spec.write_text("bogus directive")
        assert main(["analyze", "--spec", str(spec), "--data", str(csv_path)]) == 2

    def test_spec_that_is_not_utf8_is_named(self, kepler_files, tmp_path, capsys):
        # the decoder's message alone did not say which file
        _, csv_path = kepler_files
        spec = tmp_path / "spec.txt"
        spec.write_bytes("stats all\n".encode("utf-16"))
        assert main(["analyze", "--spec", str(spec), "--data", str(csv_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {spec}: not UTF-8 text (")

    def test_seed_changes_sample_block(self, kepler_files, tmp_path, capsys):
        _, csv_path = kepler_files
        spec = tmp_path / "spec.txt"
        spec.write_text("sample 3")
        main(["analyze", "--spec", str(spec), "--data", str(csv_path), "--seed", "1"])
        first = capsys.readouterr().out
        main(["analyze", "--spec", str(spec), "--data", str(csv_path), "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestEvalCommand:
    def test_fits_params_then_scores(self, kepler_files, tmp_path, capsys):
        _, csv_path = kepler_files
        expr = tmp_path / "e.txt"
        expr.write_text("p0 * x0 ^ p1\n")
        assert main(["eval", "--expr", str(expr), "--data", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "fitted params:" in out
        nmse_value = float(out.strip().splitlines()[-1].split("NMSE: ")[1])
        assert nmse_value < 1e-8

    def test_expression_that_is_not_utf8_is_named(self, kepler_files, tmp_path, capsys):
        # the decoder's message alone did not say which file
        _, csv_path = kepler_files
        expr = tmp_path / "e.txt"
        expr.write_bytes("p0 * x0".encode("utf-16"))
        assert main(["eval", "--expr", str(expr), "--data", str(csv_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {expr}: not UTF-8 text (")

    def test_parameter_free_expression(self, tmp_path, capsys):
        X = np.linspace(1, 4, 20)
        write_csv(tmp_path / "d.csv", X, X**2)
        expr = tmp_path / "e.txt"
        expr.write_text("square(x0)")
        assert main(["eval", "--expr", str(expr), "--data", str(tmp_path / "d.csv")]) == 0
        out = capsys.readouterr().out
        assert "fitted params:" not in out
        assert float(out.split("NMSE: ")[1]) == 0.0


class TestHintCommand:
    def test_header_and_block(self, kepler_files, capsys):
        _, csv_path = kepler_files
        assert main(["hint", "--data", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(REPORT_HEADER)
        assert "### 12 Random Samples (X, Y) (Sorted by Y from small to large):" in out
        assert "'r2_log(Y)_log(X_0)': 1.0" in out

    def test_deterministic_given_seed(self, kepler_files, capsys):
        _, csv_path = kepler_files
        main(["hint", "--data", str(csv_path), "--seed", "5"])
        first = capsys.readouterr().out
        main(["hint", "--data", str(csv_path), "--seed", "5"])
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_a_command_quietly(flags):
    # the write to a closed pipe used to fail the command: "error: [Errno 32]
    # Broken pipe" and exit 2 unbuffered, "Exception ignored" and exit 120
    # from the exit flush buffered
    repo = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    args = [sys.executable, *flags, "-m", "symreg.cli", "hint", "--data", "problems/kepler.csv"]
    proc = subprocess.Popen(
        args, cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    # closed before the child writes, so its first write meets EPIPE
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), stderr) == (0, b"")


def test_importing_the_cli_loads_neither_scipy_nor_requests():
    # each would add to the start-up of every command: scipy.optimize about
    # 0.6 s, requests with urllib3 and certifi about 0.07 s
    src = Path(__file__).resolve().parent.parent / "src"
    # the modules the import adds: the interpreter's site hooks may load
    # some of these before it
    code = (
        "import sys; before = set(sys.modules); import symreg.cli; "
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in "
        "('scipy', 'requests', 'urllib3', 'certifi')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_loads_neither_statistics_nor_decimal():
    # statistics loads decimal and fractions, about 0.5 MB of peak RSS, for
    # the one median the report takes
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; before = set(sys.modules); import symreg.cli; "
        "print(sorted({'statistics', 'decimal', 'fractions'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_an_offline_suite_runs_on_numpy_alone(tmp_path):
    # numpy is the only runtime dependency the offline path may import: each
    # of these is blocked, so importing it anywhere in the suite fails
    repo = Path(__file__).resolve().parent.parent
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({
        "problems": [str(repo / "problems" / "kepler.json")],
        "modes": list(MODES),
        "out_dir": "out",
        "generator": {"type": "mutation"},
        "search": {"iterations": 2, "samples_per_prompt": 1},
        "repeats": 1,
    }))
    code = (
        "import sys\n"
        "for name in ('scipy', 'sympy', 'requests'):\n"
        "    sys.modules[name] = None\n"
        "from symreg.cli import main\n"
        f"sys.exit(main(['suite', '--config', {str(cfg)!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "runs: 3 (failures: 0)" in proc.stdout
