import importlib.util
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
