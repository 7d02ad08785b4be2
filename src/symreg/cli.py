"""Command-line entry points.

Subcommands: ``run`` (one problem, one mode), ``suite`` (multi-problem
benchmark from a JSON config), ``analyze`` (execute an analysis-spec file
against a CSV), ``eval`` (score an expression file against a CSV), ``hint``
(print the default statistical-hint block for a CSV).

Exit codes: 0 success, 1 usage error, 2 run failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import context as ctx
from .data import load_csv, load_problem, load_problem_data, read_text
from .expr import evaluate, parse
from .fit import fit_params, nmse
from .generate import REPORT_HEADER
from .harness import (
    SuiteConfig,
    SuiteReport,
    load_settings,
    read_config,
    run_paths,
    run_suite,
    run_to_files,
    suite_config_from_json,
)
from .search import MODES


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="symreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_run = sub.add_parser("run", help="search one problem in one mode")
    p_run.add_argument("problem", help="problem JSON path")
    p_run.add_argument("--mode", choices=MODES, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--iterations", type=int, default=None)
    p_run.add_argument("--out", default="runs", help="output directory")
    p_run.add_argument("--config", default=None, help="JSON overrides (search/generator)")

    p_suite = sub.add_parser("suite", help="run a multi-problem benchmark")
    p_suite.add_argument("--config", required=True, help="suite JSON path")

    p_analyze = sub.add_parser("analyze", help="execute an analysis spec on a CSV")
    p_analyze.add_argument("--spec", required=True, help="directive file")
    p_analyze.add_argument("--data", required=True, help="CSV path")
    p_analyze.add_argument("--seed", type=int, default=0)

    p_eval = sub.add_parser("eval", help="score an expression file against a CSV")
    p_eval.add_argument("--expr", required=True, help="expression file")
    p_eval.add_argument("--data", required=True, help="CSV path")
    p_eval.add_argument("--seed", type=int, default=0)

    p_hint = sub.add_parser("hint", help="print the statistical-hint block for a CSV")
    p_hint.add_argument("--data", required=True, help="CSV path")
    p_hint.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_run(args) -> int:
    raw, path = {}, Path("command line")  # errors name this when no file is given
    if args.config:
        raw, path = read_config(args.config), Path(args.config)
    # the flags given override the file's search block
    flags = {"mode": args.mode, "seed": args.seed, "iterations": args.iterations}
    raw["search"] = {
        **raw.get("search", {}),
        **{key: value for key, value in flags.items() if value is not None},
    }
    raw.setdefault("generator", {"type": "mutation"})
    config, generator_settings, analysis_settings = load_settings(raw, path)

    problem = load_problem_data(load_problem(args.problem))
    trace_path, summary_path = run_paths(args.out, problem.name, config.mode, config.seed)
    trace = run_to_files(
        config, problem, generator_settings, analysis_settings, trace_path, summary_path
    )

    best = trace.best
    if best is None:
        print("no valid candidate found")
    else:
        print(f"best expression: {best.skeleton.text}")
        print(f"best tr-val NMSE: {-best.fitness:.6g}")
        if trace.test_nmse is not None:
            print(f"test NMSE: {trace.test_nmse:.6g}")
    print(f"trace: {trace_path}")
    return 0


def _cmd_suite(args) -> int:
    config: SuiteConfig = suite_config_from_json(args.config)
    report = run_suite(config)
    print(f"runs: {len(report.outcomes)} (failures: {report.failures})")
    _print_mode_table(report)
    print(f"report: {config.out_dir / 'summary.json'}")
    return 0


def _print_mode_table(report: SuiteReport) -> None:
    """Median and IQR of final NMSE per problem and mode, then each mode
    pair's win rate at the final iteration."""
    print()
    print(f"{'problem':<22}{'mode':<18}{'median NMSE':>14}{'IQR':>12}")
    for key, entry in sorted(report.aggregates.items()):
        problem, mode = key.rsplit("/", 1)
        stats = entry["final_val_nmse"]
        median, iqr = (
            f"{stats[k]:.3g}" if math.isfinite(stats[k]) else "inf" for k in ("median", "iqr")
        )
        print(f"{problem:<22}{mode:<18}{median:>14}{iqr:>12}")
    if report.win_curves:
        print()
        print("win rate at the final iteration:")
        for key, curve in sorted(report.win_curves.items()):
            a, b = key.split("_vs_")
            print(f"  {a} vs {b}: {curve[-1]:.3f}")
    print()


def _cmd_analyze(args) -> int:
    dataset = load_csv(args.data)
    text = read_text(args.spec, ValueError)
    spec = ctx.parse_spec(text, dataset.arity)
    report = ctx.execute(spec, dataset, seed=args.seed, source="cli")
    print(ctx.render(report))
    return 0


def _cmd_eval(args) -> int:
    dataset = load_csv(args.data)
    text = read_text(args.expr, ValueError).strip()
    skeleton = parse(text, dataset.arity)
    if skeleton.param_count > 0:
        # parameters are fitted on the same CSV before scoring
        result = fit_params(skeleton, dataset, seed=args.seed)
        params = result.params
        print(f"fitted params: {[round(p, 6) for p in params]}")
    else:
        params = ()
    predictions = evaluate(skeleton, dataset.features, params)
    value = nmse(predictions, dataset.target)
    print(f"NMSE: {value:.6g}")
    return 0


def _cmd_hint(args) -> int:
    dataset = load_csv(args.data)
    spec = ctx.default_hint_spec(dataset.arity)
    report = ctx.execute(spec, dataset, seed=args.seed, source="statistical-hint")
    print(REPORT_HEADER)
    print(ctx.render(report))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "suite": _cmd_suite,
    "analyze": _cmd_analyze,
    "eval": _cmd_eval,
    "hint": _cmd_hint,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed stdout is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout; each command prints only after its work is
        # done, so quiet the exit flush and stop
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
