"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that one command prints every metric with its unit and ends with the
result line BENCHMARK.json promises, and that a perturbed trace trips the
digest check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import inspect_pass  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED_ONLY = {"failed_frac": "frac", "final_val_nmse": "1", "resume_s": "s"}


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines: list[str]) -> dict[str, str]:
    """name -> unit of every ``name = value unit (...)`` line."""
    found = {}
    for line in lines:
        m = re.match(r"^(\S+) = (\S+) (\S+)( \(|$)", line)
        if m:
            float(m.group(2))
            found[m.group(1)] = m.group(3)
    return found


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert whys == {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    lines, result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert _printed(lines) == {**run.END_TO_END, **PRINTED_ONLY}
    assert any(re.match(rf"^digest {workload} [0-9a-f]{{64}} ", line) for line in lines)
    assert any(line.startswith("machine {") and '"scipy"' in line for line in lines)


def test_every_layer_metric_is_printed_with_its_unit():
    lines, result = _bench("proaug-large", trace=1)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS
    assert _printed(lines) == {**LAYER_UNITS, **PRINTED_ONLY}
    assert result["metrics"]["context.execute.calls"]["value"] > 0


def test_perturbed_trace_trips_the_digest_check():
    work = ROOT / ".perfbench-work" / f"smoke-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        suite = prepare(WORKLOADS["suite-parallel"], ROOT, work / "inputs", 3, "tiny")["suite"]
        rows = run.ValidationRows(suite["problems"])
        inspections = []
        for i in range(2):
            result = run.run_worker(work / f"pass{i}", suite)
            inspections.append(inspect_pass(work / f"pass{i}", suite, result, rows))
        assert run.digest_errors(inspections) == []
        assert inspections[0]["errors"] == []

        trace = sorted((work / "pass1" / "out").rglob("*.trace.jsonl"))[0]
        trace.write_text(trace.read_text().replace("Mutated", "Mutates", 1))
        inspections[1] = inspect_pass(work / "pass1", suite, result, rows)
        assert inspections[1]["digest"] != inspections[0]["digest"]
        assert run.digest_errors(inspections) == ["passes disagree: 2 distinct trace digests"]

        lines = trace.read_text().splitlines()
        record = json.loads(lines[-1])
        record["best_nmse"] = (record["best_nmse"] or 1.0) * 0.5
        trace.write_text("\n".join(lines[:-1] + [json.dumps(record, sort_keys=True)]) + "\n")
        errors = inspect_pass(work / "pass1", suite, result, rows)["errors"]
        assert any("running minimum" in e for e in errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)
