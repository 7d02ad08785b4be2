"""Command-line entry points.

Subcommands: ``run`` (one problem, one mode), ``suite`` (multi-problem
benchmark from a JSON config), ``analyze`` (execute an analysis-spec file
against a CSV), ``eval`` (score an expression file against a CSV), ``hint``
(print the default statistical-hint block for a CSV).

Exit codes: 0 success, 1 usage error, 2 run failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import context as ctx
from .data import load_csv, load_problem, load_problem_data
from .expr import evaluate, parse
from .fit import fit_params, nmse
from .generate import REPORT_HEADER
from .harness import (
    SuiteConfig,
    search_config_from_json,
    make_generator,
    run_suite,
    suite_config_from_json,
)
from .search import MODES, run, write_trace


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
    p_run.add_argument("--mode", choices=MODES, default="proaug")
    p_run.add_argument(
        "--generator", choices=("remote", "scripted", "mutation"), default="mutation"
    )
    p_run.add_argument("--seed", type=int, default=0)
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
    overrides: dict = {}
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
    search_raw = dict(overrides.get("search", {}))
    search_raw["mode"] = args.mode
    search_raw["seed"] = args.seed
    if args.iterations is not None:
        search_raw["iterations"] = args.iterations
    config = search_config_from_json(search_raw)

    problem = load_problem_data(load_problem(args.problem))
    generator_settings = dict(overrides.get("generator", {}))
    generator_settings.setdefault("type", args.generator)
    generator = make_generator(generator_settings, problem.arity, args.seed)
    analysis_settings = overrides.get("analysis_generator")
    analysis_generator = (
        make_generator(dict(analysis_settings), problem.arity, args.seed)
        if analysis_settings is not None
        else None
    )

    trace = run(config, problem, generator, analysis_generator)
    run_dir = Path(args.out) / problem.name / config.mode
    trace_path = run_dir / f"{args.seed}.trace.jsonl"
    summary_path = run_dir / f"{args.seed}.summary.json"
    write_trace(trace, trace_path, summary_path)

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
    print(f"report: {config.out_dir / 'summary.json'}")
    return 0


def _cmd_analyze(args) -> int:
    dataset = load_csv(args.data)
    text = Path(args.spec).read_text()
    spec = ctx.parse_spec(text, dataset.arity)
    report = ctx.execute(spec, dataset, seed=args.seed, source="cli")
    print(ctx.render(report))
    return 0


def _cmd_eval(args) -> int:
    dataset = load_csv(args.data)
    text = Path(args.expr).read_text().strip()
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
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
