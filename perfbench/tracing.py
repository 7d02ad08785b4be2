"""Per-layer spans for the traced pass.

Wrappers go on the attribute the *consuming* module looks up at call time,
because ``fit``, ``search``, ``generate`` and ``harness`` bind names at
import (``from .expr import evaluate``): a wrapper on
``symreg.expr.evaluate`` would see no call at all.  Each span records its
name, its parent span's name, thread, start, duration and self time
(duration minus the time its child spans cover, kept on a per-thread
stack).  Under thread workers a span also covers time spent waiting for
the interpreter lock.  Spans stay in memory until the pass ends, the
originals are restored, then the spans are written out.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict

# Every per-layer metric the benchmark prints, with its unit, grouped by
# layer.  Each group's comment names the end-to-end metric it should move.
LAYER_UNITS = {
    # run_s and iter_ms.* on suite-parallel; little on proaug-large
    "expr.evaluate.calls": "count",
    "expr.evaluate.self_s": "s",
    "expr.evaluate.us_p50": "us",
    "expr.parse.calls": "count",
    "expr.parse.self_s": "s",
    # us_per_eval: run_s on suite-parallel, peak_rss_mb on proaug-large; the
    # counts stay exact under numerics-preserving changes and move final_val_nmse
    "fit.fit_params.calls": "count",
    "fit.fit_params.self_s": "s",
    "fit.fit_params.ms_p50": "ms",
    "fit.fit_params.ms_p90": "ms",
    "fit.evals": "count",
    "fit.evals_per_fit": "evals/fit",
    "fit.us_per_eval": "us",
    "fit.converged_frac": "frac",
    "fit.budget_hit_frac": "frac",
    # run_s and iter_ms.p90 on proaug-large, failed_frac on suite-parallel
    "context.execute.calls": "count",
    "context.execute.self_s": "s",
    "context.execute.ms_p50": "ms",
    "context.render.self_s": "s",
    "context.parse_spec.self_s": "s",
    "context.cache_hit_frac": "frac",
    "context.analysis_ok_frac": "frac",
    "context.attempts_per_iter": "attempts/iter",
    # iter_ms.p50 on proaug-large
    "generate.generator.calls": "count",
    "generate.generator.equation.ms_p50": "ms",
    "generate.generator.analysis.ms_p50": "ms",
    "generate.prompt.self_s": "s",
    "generate.extract.self_s": "s",
    "generate.extract_fail_frac": "frac",
    "generate.prompt_chars_mean": "chars",
    # ~60 us a call against iterations over 50 ms: a layer cost only
    "search.sample_demonstrations.calls": "count",
    "search.sample_demonstrations.us_p50": "us",
    "search.buffer_add.us_p50": "us",
    "search.run.self_s": "s",
    "search.write_trace.ms": "ms",
    # read from the summary files; run_s on suite-parallel, not on the serial
    # proaug-large
    "harness.worker_busy_frac": "frac",
    "harness.run_s_max": "s",
    "harness.run_s_sum": "s",
    # setup_s on proaug-large
    "data.load_problem_data.s": "s",
    "data.split.ms": "ms",
    # median traced run_s over median untraced run_s, minus 1
    "trace.overhead_frac": "frac",
}


def _targets():
    """(owner, attribute, span name) for every wrapped call site."""
    import symreg.context
    import symreg.fit
    import symreg.generate
    import symreg.harness
    import symreg.search as search

    return [
        (symreg.fit, "evaluate", "expr.evaluate"),
        (search, "evaluate", "expr.evaluate"),
        (symreg.generate, "parse", "expr.parse"),
        (symreg.fit, "fit_params", "fit.fit_params"),
        (search, "evaluate_candidate", "fit.evaluate_candidate"),
        (symreg.context, "execute", "context.execute"),
        (symreg.generate, "render", "context.render"),
        (symreg.generate, "parse_spec", "context.parse_spec"),
        (search, "build_equation_prompt", "generate.prompt"),
        (search, "build_analysis_prompt", "generate.prompt"),
        (search, "extract_expression", "generate.extract"),
        (search, "extract_spec", "generate.extract"),
        (search.ExperienceBuffer, "sample_demonstrations", "search.sample_demonstrations"),
        (search.ExperienceBuffer, "add", "search.buffer_add"),
        (symreg.harness, "run", "search.run"),
        (symreg.harness, "write_trace", "search.write_trace"),
        (symreg.harness, "load_problem_data", "data.load_problem_data"),
        (search, "split", "data.split"),
    ]


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, parent, thread, start, dur, self, ok)
        self.fits: list[tuple[int, bool, bool]] = []  # (evaluations, converged, budget hit)
        self.prompt_chars: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [name, 0.0]  # name, time covered by child spans
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += dur
            self.spans.append((name, parent, threading.get_ident(), start, dur, dur - frame[1], ok))
            if ok:
                self._observe(name, args, kwargs, result)

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "fit.fit_params":
            from symreg.fit import OptimizerConfig

            config = args[2] if len(args) > 2 else kwargs.get("config")
            budget = (config or OptimizerConfig()).max_evaluations
            self.fits.append((result.evaluations, result.converged, result.evaluations >= budget))
        elif name == "generate.prompt":
            self.prompt_chars.append(len(result))

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """The span-derived per-layer metrics of one pass."""
        durs: dict[str, list[float]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        failed: dict[str, int] = defaultdict(int)
        for name, _parent, _thread, _start, dur, own, ok in self.spans:
            durs[name].append(dur)
            self_s[name] += own
            failed[name] += not ok
        generator_calls = sum(
            len(v) for k, v in durs.items() if k.startswith("generate.generator.")
        )
        evals = sum(f[0] for f in self.fits)
        fits = len(self.fits)
        return {
            "expr.evaluate.calls": len(durs["expr.evaluate"]),
            "expr.evaluate.self_s": self_s["expr.evaluate"],
            "expr.evaluate.us_p50": _quantile(durs["expr.evaluate"], 0.5) * 1e6,
            "expr.parse.calls": len(durs["expr.parse"]),
            "expr.parse.self_s": self_s["expr.parse"],
            "fit.fit_params.calls": len(durs["fit.fit_params"]),
            "fit.fit_params.self_s": self_s["fit.fit_params"],
            "fit.fit_params.ms_p50": _quantile(durs["fit.fit_params"], 0.5) * 1e3,
            "fit.fit_params.ms_p90": _quantile(durs["fit.fit_params"], 0.9) * 1e3,
            "fit.evals": evals,
            "fit.evals_per_fit": _ratio(evals, fits),
            "fit.us_per_eval": _ratio(sum(durs["fit.fit_params"]), evals) * 1e6,
            "fit.converged_frac": _ratio(sum(f[1] for f in self.fits), fits),
            "fit.budget_hit_frac": _ratio(sum(f[2] for f in self.fits), fits),
            "context.execute.calls": len(durs["context.execute"]),
            "context.execute.self_s": self_s["context.execute"],
            "context.execute.ms_p50": _quantile(durs["context.execute"], 0.5) * 1e3,
            "context.render.self_s": self_s["context.render"],
            "context.parse_spec.self_s": self_s["context.parse_spec"],
            "generate.generator.calls": generator_calls,
            "generate.generator.equation.ms_p50":
                _quantile(durs["generate.generator.equation"], 0.5) * 1e3,
            "generate.generator.analysis.ms_p50":
                _quantile(durs["generate.generator.analysis"], 0.5) * 1e3,
            "generate.prompt.self_s": self_s["generate.prompt"],
            "generate.extract.self_s": self_s["generate.extract"],
            "generate.extract_fail_frac":
                _ratio(failed["generate.extract"], len(durs["generate.extract"])),
            "generate.prompt_chars_mean": _ratio(sum(self.prompt_chars), len(self.prompt_chars)),
            "search.sample_demonstrations.calls": len(durs["search.sample_demonstrations"]),
            "search.sample_demonstrations.us_p50":
                _quantile(durs["search.sample_demonstrations"], 0.5) * 1e6,
            "search.buffer_add.us_p50": _quantile(durs["search.buffer_add"], 0.5) * 1e6,
            "search.run.self_s": self_s["search.run"],
            "search.write_trace.ms": _quantile(durs["search.write_trace"], 0.5) * 1e3,
            "data.load_problem_data.s": sum(durs["data.load_problem_data"]),
            "data.split.ms": _quantile(durs["data.split"], 0.5) * 1e3,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for a layer that never ran."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    if q == 0.5:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1]
