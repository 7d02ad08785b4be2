import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"


def test_rejects_fewer_than_two_pairs(tmp_path):
    # quartiles need two points, so one pair would run both sides and then fail
    args = ["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"), "--pr", "t",
            "--workload", "proaug-large", "--pairs", "1", "--out-dir", str(tmp_path)]
    proc = subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--pairs must be at least 2" in proc.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))


def _bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent: list[float], change: list[float], name: str = "run_s") -> list[dict]:
    return [{"parent": {"values": {name: p}}, "change": {"values": {name: c}}}
            for p, c in zip(parent, change)]


PARENT = [10.0 + 0.1 * i for i in range(10)]  # median 10.45, IQR 0.45


@pytest.mark.parametrize(
    "change, claim",
    [
        ([p - 1.0 for p in PARENT], True),  # 10/10 wins, gap 1.0 > IQR
        ([p - 1.0 for p in PARENT[:9]] + [PARENT[9]], True),  # 9/10 is enough
        ([p - 1.0 for p in PARENT[:8]] + PARENT[8:], False),  # 8/10 wins
        ([p - 0.3 for p in PARENT], False),  # 10/10 wins, gap 0.3 < IQR 0.45
    ],
)
def test_claim_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_iqr(change, claim):
    summary = _bench_pair().summarize(_pairs(PARENT, change), {"run_s": "lower"}, {})
    assert summary["run_s"]["claim"] is claim
    assert summary["run_s"]["within_bound"] is None


@pytest.mark.parametrize(
    "better, shift, within",
    [("lower", 2.6, True), ("lower", 2.62, False), ("higher", -2.6, True),
     ("higher", -2.62, False), ("higher", 5.0, True)],
)
def test_within_bound_is_relative_to_the_parent_median(better, shift, within):
    # bound 0.25 of the parent median 10.45 allows 2.6125 worse
    summary = _bench_pair().summarize(
        _pairs(PARENT, [p + shift for p in PARENT], "m"), {"m": better}, {"m": 0.25})
    assert summary["m"]["within_bound"] is within
    assert summary["m"]["change_wins"] == (10 if (shift < 0) == (better == "lower") else 0)


def test_verdict_rows_print_each_side_wins_claim_and_bound():
    bench_pair = _bench_pair()
    pairs = [{side: {"values": {"run_s": v, "ru_minflt": 5.0}} for side, v in
              (("parent", p), ("change", p - 1.0))} for p in PARENT]
    summary = bench_pair.summarize(pairs, {"run_s": "lower"}, {"run_s": 0.25})
    run_s, minflt = bench_pair.verdict_rows("suite-parallel", summary)
    assert run_s.split()[:2] == ["suite-parallel", "run_s"]
    assert "parent 10.45 [10.22, 10.67]" in run_s
    assert "change 9.45 [9.225, 9.675]" in run_s
    assert run_s.endswith("wins 10/10 claim yes within_bound yes")
    assert minflt.endswith("wins 0/10 claim no within_bound -")


def _runs(digests: list[tuple[str, str]], correct=(True, True), failed=(0, 0)) -> list[dict]:
    return [{"parent": {"digest": p, "correct": correct[0], "failed": failed[0]},
             "change": {"digest": c, "correct": correct[1], "failed": failed[1]}}
            for p, c in digests]


def test_health_counts_incorrect_runs_failures_and_differing_digests():
    bench_pair = _bench_pair()
    pairs = _runs([("a", "a"), ("b", "c")], failed=(0, 2)) + _runs(
        [("d", "d")], correct=(True, False), failed=(1, 0))
    h = bench_pair.health(pairs)
    assert h == {"incorrect": {"parent": 0, "change": 1}, "failed": {"parent": 1, "change": 4},
                 "digests_differ": 1, "pairs": 3}
    assert bench_pair.health_row("proaug-large", h) == (
        "proaug-large    incorrect runs: parent 0 change 1; failed: parent 1 change 4; "
        "digests differ: 1/3 pairs")
    assert not bench_pair.healthy(h)


@pytest.mark.parametrize(
    "pairs, ok",
    [
        (_runs([("a", "a"), ("b", "b")]), True),
        (_runs([("a", "a"), ("b", "b")], failed=(3, 3)), True),  # printed, not fatal
        (_runs([("a", "a"), ("b", "x")]), False),
        (_runs([("a", "a")], correct=(False, True)), False),
        (_runs([("a", "a")], correct=(True, False)), False),
    ],
)
def test_healthy_needs_equal_digests_and_correct_runs(pairs, ok):
    bench_pair = _bench_pair()
    assert bench_pair.healthy(bench_pair.health(pairs)) is ok


def test_exits_nonzero_when_a_digest_differs(tmp_path, monkeypatch, capsys):
    bench_pair = _bench_pair()
    parent, change = tmp_path / "pa", tmp_path / "ch"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}]}')

    def fake_run(checkout, workload, seed, seconds):
        return {"values": {"run_s": 1.0}, "digest": checkout.name, "correct": True,
                "failed": 0, "machine": {}}

    monkeypatch.setattr(bench_pair, "run_once", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pair.py", "--parent", str(parent), "--change",
                                      str(change), "--pr", "t", "--workload", "w",
                                      "--pairs", "2", "--out-dir", str(tmp_path)])
    assert bench_pair.main() == 1
    assert "digests differ: 2/2 pairs" in capsys.readouterr().out
    monkeypatch.setattr(bench_pair, "run_once",
                        lambda *args: {**fake_run(*args), "digest": "same"})
    assert bench_pair.main() == 0


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                   check=True, capture_output=True)


def test_checkout_state_names_the_commit_and_uncommitted_changes(tmp_path):
    bench_pair = _bench_pair()
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.txt").write_text("a\n")
    _git(repo, "add", "a.txt")
    _git(repo, "commit", "-q", "-m", "a")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert bench_pair.checkout_state(repo) == {"head": head, "dirty": False}
    (repo / "a.txt").write_text("b\n")
    assert bench_pair.checkout_state(repo) == {"head": head, "dirty": True}
    (repo / "a.txt").write_text("a\n")
    (repo / "new.txt").write_text("untracked\n")
    assert bench_pair.checkout_state(repo) == {"head": head, "dirty": True}
    # a directory inside a work tree is not a checkout of its own
    (repo / "sub").mkdir()
    assert bench_pair.checkout_state(repo / "sub") == {"head": None, "dirty": None}
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pair.checkout_state(plain) == {"head": None, "dirty": None}


def test_bench_file_records_each_sides_checkout(tmp_path, monkeypatch):
    bench_pair = _bench_pair()
    parent, change = tmp_path / "pa", tmp_path / "ch"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}]}')
    _git(change, "init", "-q")
    _git(change, "add", "BENCHMARK.json")
    _git(change, "commit", "-q", "-m", "spec")
    monkeypatch.setattr(bench_pair, "run_once", lambda *args: {
        "values": {"run_s": 1.0}, "digest": "d", "correct": True, "failed": 0, "machine": {}})
    monkeypatch.setattr(sys, "argv", ["bench_pair.py", "--parent", str(parent), "--change",
                                      str(change), "--pr", "t", "--workload", "w",
                                      "--pairs", "2", "--out-dir", str(tmp_path)])
    assert bench_pair.main() == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["checkouts"]["parent"] == {"head": None, "dirty": None}
    assert record["checkouts"]["change"] == bench_pair.checkout_state(change)
    assert len(record["checkouts"]["change"]["head"]) == 40
    assert record["checkouts"]["change"]["dirty"] is False


STUB_RUN = """\
import json
print('machine {}')
print('digest w abc123 (3 passes)')
print(json.dumps({'correct': True, 'failed': 0,
                  'metrics': {'run_s': {'value': 1.5, 'unit': 's'}}}))
"""


def test_run_once_reads_the_pass_count_and_divides_the_faults_by_it(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
    run = _bench_pair().run_once(tmp_path, "w", 1, 1.0)
    assert run["digest"] == "abc123" and run["passes"] == 3
    values = run["values"]
    assert values["run_s"] == 1.5 and values["ru_minflt"] > 0
    assert values["ru_minflt_per_pass"] == values["ru_minflt"] / 3
