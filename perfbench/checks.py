"""Correctness of one pass, read from the files the program wrote.

``inspect_pass`` hashes the trace files, counts attempted and failed
operations, reads the harness timings, and lists every violated check:

- no search run failed, and every expected run wrote a trace of the
  configured length;
- each trace's best-so-far NMSE is the running minimum of its samples and
  matches the run summary;
- the best candidate's validation NMSE, recomputed by an evaluator
  independent of ``symreg.expr``, matches the summary;
- the resume pass reused every run and rewrote the suite report unchanged.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

INF = float("inf")


def trace_digest(out_dir: Path) -> str:
    """sha256 over every trace file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.trace.jsonl")):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Reference evaluator for the canonical (fully parenthesized) skeleton text

_UNARY = {
    "neg": np.negative,
    "log": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "square": lambda v: v * v,
    "inv": lambda v: np.float64(1.0) / v,
}
_BINARY = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def reference_evaluate(text: str, X: np.ndarray, params) -> np.ndarray:
    tree = ast.parse(text.replace("^", "**"), mode="eval").body

    def ev(node):
        if isinstance(node, ast.BinOp):
            return _BINARY[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Call):
            (arg,) = node.args
            return _UNARY[node.func.id](ev(arg))
        if isinstance(node, ast.Constant):
            return np.float64(node.value)
        if isinstance(node, ast.Name):
            kind, index = node.id[0], node.id[1:]
            if kind == "x":
                return X[:, int(index)]
            if kind == "p":
                return np.float64(params[int(index)])
            return np.float64(node.id)  # inf / nan constants
        raise ValueError(f"unexpected syntax in {text!r}: {ast.dump(node)}")

    with np.errstate(all="ignore"):
        out = np.asarray(ev(tree), dtype=float)
    return np.full(X.shape[0], float(out)) if out.ndim == 0 else out


def reference_nmse(pred: np.ndarray, target: np.ndarray) -> float:
    if not np.all(np.isfinite(pred)):
        return INF
    return float(np.sum((pred - target) ** 2) / np.sum((target - np.mean(target)) ** 2))


# ---------------------------------------------------------------------------
# One pass


def _finite(value) -> float:
    return INF if value is None else float(value)


def inspect_pass(pass_dir: Path, suite: dict, result: dict, validation_rows) -> dict:
    """Facts and check failures of one pass.

    ``validation_rows(problem_name, seed)`` returns the tr-val (X, y) of a run.
    """
    out = pass_dir / "out"
    errors: list[str] = []
    summary = json.loads((pass_dir / "write.summary.json").read_text())
    iterations = suite["search"]["iterations"]
    ops = dict.fromkeys(
        (
            "samples", "failed_samples", "attempts", "failed_attempts",
            "analyses", "analysis_ok", "cached",
        ),
        0,
    )
    run_totals: list[float] = []
    finals: list[float] = []

    expected = len(suite["problems"]) * len(suite["modes"]) * suite["repeats"]
    if len(summary["runs"]) != expected or summary["failures"]:
        recorded = len(summary["runs"])
        errors.append(f"{summary['failures']} failed runs, {recorded}/{expected} recorded")
    for entry in summary["runs"]:
        name = f"{entry['problem']}/{entry['mode']}/{entry['repeat']}"
        if entry["error"] is not None:
            errors.append(f"{name}: {entry['error']}")
            continue
        final = _finite(entry["final_val_nmse"])
        finals.append(final)
        lines = (out / entry["trace"]).read_text().splitlines()
        if len(lines) != iterations:
            errors.append(f"{name}: {len(lines)} trace lines, expected {iterations}")
        best = INF
        for line in lines:
            record = json.loads(line)
            for sample in record["samples"]:
                ops["samples"] += 1
                if sample["expression"] is None or sample["fitness"] is None:
                    ops["failed_samples"] += 1
                else:
                    best = min(best, -sample["fitness"])
            analysis = record["analysis"]
            if analysis is not None:
                ok = analysis["error"] is None
                ops["analyses"] += 1
                ops["analysis_ok"] += ok
                ops["cached"] += analysis["cached"]
                ops["attempts"] += analysis["attempts"]
                ops["failed_attempts"] += analysis["attempts"] - ok
            if _finite(record["best_nmse"]) != best:
                errors.append(
                    f"{name}: iteration {record['iteration']} best_nmse is not the running minimum"
                )
                break
        if best != final:
            errors.append(f"{name}: final_val_nmse {final} != trace best {best}")

        run_summary_path = out / entry["trace"].replace(".trace.jsonl", ".summary.json")
        run_summary = json.loads(run_summary_path.read_text())
        run_totals.append(run_summary["timings"]["total"])
        if run_summary["best_expression"] is not None:
            X, y = validation_rows(entry["problem"], entry["seed"])
            pred = reference_evaluate(run_summary["best_expression"], X, run_summary["best_params"])
            recomputed = reference_nmse(pred, y)
            if not math.isclose(recomputed, final, rel_tol=1e-9, abs_tol=1e-300):
                errors.append(
                    f"{name}: best NMSE recomputes to {recomputed!r}, summary says {final!r}"
                )

    if result["resume_runs"]:
        errors.append(f"resume pass re-ran {result['resume_runs']} runs instead of reusing them")
    for name in ("summary.json", "trajectories.csv"):
        if (out / name).read_bytes() != (pass_dir / f"write.{name}").read_bytes():
            errors.append(f"resume pass changed {name}")

    return {
        "digest": trace_digest(out),
        "errors": errors,
        "ops": ops,
        "runs": len(summary["runs"]),
        "failed_runs": summary["failures"],
        "final_val_nmse": statistics.median(finals) if finals else INF,
        "run_s_sum": sum(run_totals),
        "run_s_max": max(run_totals, default=0.0),
    }
