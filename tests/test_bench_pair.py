import subprocess
import sys
from pathlib import Path

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
