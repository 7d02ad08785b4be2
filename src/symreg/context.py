"""Interpreted dataset-analysis directive language.

Generators ask questions about the data through a tiny line-oriented spec
language instead of running arbitrary code.  A spec is parsed into directives
(summary stats, seeded row samples, single-regressor R^2 fits, correlations),
executed as a pure function of (spec, dataset, seed), and rendered into a
prompt block whose key naming and number formatting follow the established
statistics-dictionary layout (``mean_Y``, ``r2_log(Y)_log(X_0)``,
``r2_log(Y)_log(sin(x_0))``, sample lines ``X[i] = [...], Y[i] = ...``).

Grammar, one directive per line (``#`` comments and blank lines ignored)::

    stats all | stats <col> [<col> ...]        col: y or x<i>
    sample <count> [sort=y_asc|y_desc|none] [seed=<int>]
    r2   <y-term> ~ <x-term>
    corr <y-term> ~ <x-term>

    y-term: y | log(y)
    x-term: transform chain over a feature or a pairwise combination, e.g.
            x0, log(x3), log(sqrt(x0)), ratio(x0,x1), log(ratio(x0,x1))

Transforms: log exp sin cos sqrt square inv abs.  Combiners: product ratio
sum difference.  Execution masks rows where any involved transform is
undefined; a fit with fewer than 8 valid rows, or whose sums overflow, reports
an ``_na`` key carrying the valid-row count instead of a score.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import Dataset, json_safe
from .expr import BINARY, UNARY

MAX_DIRECTIVES = 64
MIN_VALID_ROWS = 8

# transforms and combiners evaluate through the expression operator table
TRANSFORMS = ("log", "exp", "sin", "cos", "sqrt", "square", "inv", "abs")
_COMBINER_OPS = {"product": "mul", "ratio": "div", "sum": "add", "difference": "sub"}
COMBINERS = tuple(_COMBINER_OPS)

_SORT_TOKEN = {"y_asc": "target_asc", "y_desc": "target_desc", "none": "none"}
_SORT_SUFFIX = {
    "target_asc": " (Sorted by Y from small to large)",
    "target_desc": " (Sorted by Y from large to small)",
    "none": "",
}


class SpecError(ValueError):
    """Parse failure; message carries the 1-based line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"{message} (line {line})")
        self.line = line


@dataclass(frozen=True)
class FeatureRef:
    index: int


@dataclass(frozen=True)
class FeatureCombo:
    combiner: str
    left: int
    right: int


@dataclass(frozen=True)
class FeatureTerm:
    """A transform chain (outermost first, may be empty) over a base term."""

    chain: tuple[str, ...]
    base: Union[FeatureRef, FeatureCombo]


@dataclass(frozen=True)
class DescribeStats:
    # column None denotes the target; ints are feature indices
    columns: tuple[int | None, ...]


@dataclass(frozen=True)
class SampleRows:
    count: int
    sort: str = "none"
    seed: int | None = None


@dataclass(frozen=True)
class R2Fit:
    x_term: FeatureTerm
    y_transform: str = "identity"  # identity or log


@dataclass(frozen=True)
class Correlation:
    x_term: FeatureTerm
    y_transform: str = "identity"


Directive = Union[DescribeStats, SampleRows, R2Fit, Correlation]


@dataclass(frozen=True)
class AnalysisSpec:
    directives: tuple[Directive, ...]
    arity: int


@dataclass(frozen=True)
class ReportEntry:
    """One rendered fact: a scalar keyed for the statistics line, or a
    sample block (header + lines) when ``lines`` is non-empty."""

    key: str
    value: float | int | None = None
    detail: dict | None = None
    header: str = ""
    lines: tuple[str, ...] = ()


@dataclass(frozen=True)
class AnalysisReport:
    entries: tuple[ReportEntry, ...]
    execution_errors: tuple[str, ...] = ()
    source: str = ""


# ---------------------------------------------------------------------------
# Key naming


def term_key(term: FeatureTerm) -> str:
    """Statistics-dictionary key for an x-term.

    A bare feature is ``X_i`` and a single transform keeps that casing
    (``log(X_0)``); deeper chains and combinations switch to lowercase
    (``log(sin(x_0))``, ``log(ratio(x_0,x_1))``).
    """
    if isinstance(term.base, FeatureRef):
        if len(term.chain) <= 1:
            inner = f"X_{term.base.index}"
        else:
            inner = f"x_{term.base.index}"
    else:
        inner = f"{term.base.combiner}(x_{term.base.left},x_{term.base.right})"
    for t in reversed(term.chain):
        inner = f"{t}({inner})"
    return inner


def _y_key(y_transform: str) -> str:
    return "Y" if y_transform == "identity" else "log(Y)"


def _column_key(column: int | None) -> str:
    return "Y" if column is None else f"X_{column}"


# ---------------------------------------------------------------------------
# Parsing


_VAR_TOKEN = re.compile(r"^x(\d+)$")
_CALL_TOKEN = re.compile(r"^([A-Za-z_]+)\((.*)\)$")


def _parse_feature_ref(token: str, arity: int, line: int) -> int:
    m = _VAR_TOKEN.match(token)
    if not m:
        raise SpecError(f"expected a feature like x0, got {token!r}", line)
    index = int(m.group(1))
    if index >= arity:
        raise SpecError(f"feature x{index} out of range for arity {arity}", line)
    return index


def _parse_x_term(token: str, arity: int, line: int) -> FeatureTerm:
    chain: list[str] = []
    current = token
    while True:
        m = _CALL_TOKEN.match(current)
        if not m:
            break
        head, inner = m.group(1), m.group(2)
        if head in TRANSFORMS:
            chain.append(head)
            current = inner.strip()
            continue
        if head in COMBINERS:
            parts = [p.strip() for p in inner.split(",")]
            if len(parts) != 2:
                raise SpecError(f"{head} expects two features", line)
            left = _parse_feature_ref(parts[0], arity, line)
            right = _parse_feature_ref(parts[1], arity, line)
            return FeatureTerm(tuple(chain), FeatureCombo(head, left, right))
        raise SpecError(f"unknown transform {head!r}", line)
    index = _parse_feature_ref(current, arity, line)
    return FeatureTerm(tuple(chain), FeatureRef(index))


def _parse_y_term(token: str, line: int) -> str:
    if token == "y":
        return "identity"
    if token == "log(y)":
        return "log"
    raise SpecError(f"target term must be y or log(y), got {token!r}", line)


def _parse_fit_line(rest: str, arity: int, line: int) -> tuple[str, FeatureTerm]:
    if "~" not in rest:
        raise SpecError("expected '<y-term> ~ <x-term>'", line)
    left, _, right = rest.partition("~")
    y_transform = _parse_y_term(left.strip().replace(" ", ""), line)
    x_term = _parse_x_term(right.strip().replace(" ", ""), arity, line)
    return y_transform, x_term


def parse_spec(text: str, arity: int) -> AnalysisSpec:
    """Parse directive lines into an AnalysisSpec, preserving order."""
    directives: list[Directive] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if len(directives) >= MAX_DIRECTIVES:
            raise SpecError(f"more than {MAX_DIRECTIVES} directives", lineno)
        word, _, rest = stripped.partition(" ")
        rest = rest.strip()
        if word == "stats":
            if not rest:
                raise SpecError("stats needs 'all' or a column list", lineno)
            if rest == "all":
                columns: tuple[int | None, ...] = (None, *range(arity))
            else:
                cols: list[int | None] = []
                for token in rest.split():
                    if token == "y":
                        cols.append(None)
                    else:
                        cols.append(_parse_feature_ref(token, arity, lineno))
                columns = tuple(cols)
            directives.append(DescribeStats(columns))
        elif word == "sample":
            parts = rest.split()
            if not parts:
                raise SpecError("sample needs a row count", lineno)
            try:
                count = int(parts[0])
            except ValueError:
                raise SpecError(f"sample count must be an integer, got {parts[0]!r}", lineno) from None
            if count < 1:
                raise SpecError("sample count must be positive", lineno)
            sort = "none"
            seed: int | None = None
            for opt in parts[1:]:
                key, eq, value = opt.partition("=")
                if not eq:
                    raise SpecError(f"expected key=value option, got {opt!r}", lineno)
                if key == "sort":
                    if value not in _SORT_TOKEN:
                        raise SpecError(
                            f"sort must be one of {'/'.join(_SORT_TOKEN)}, got {value!r}",
                            lineno,
                        )
                    sort = _SORT_TOKEN[value]
                elif key == "seed":
                    try:
                        seed = int(value)
                    except ValueError:
                        raise SpecError(f"seed must be an integer, got {value!r}", lineno) from None
                else:
                    raise SpecError(f"unknown sample option {key!r}", lineno)
            directives.append(SampleRows(count, sort, seed))
        elif word in ("r2", "corr"):
            y_transform, x_term = _parse_fit_line(rest, arity, lineno)
            cls = R2Fit if word == "r2" else Correlation
            directives.append(cls(x_term, y_transform))
        else:
            raise SpecError(f"unknown directive {word!r}", lineno)
    return AnalysisSpec(tuple(directives), arity)


def format_spec(spec: AnalysisSpec) -> str:
    """Canonical one-directive-per-line text; parses back to an equal spec."""

    def term_text(term: FeatureTerm) -> str:
        if isinstance(term.base, FeatureRef):
            inner = f"x{term.base.index}"
        else:
            inner = f"{term.base.combiner}(x{term.base.left},x{term.base.right})"
        for t in reversed(term.chain):
            inner = f"{t}({inner})"
        return inner

    lines = []
    for d in spec.directives:
        if isinstance(d, DescribeStats):
            if d.columns == (None, *range(spec.arity)):
                lines.append("stats all")
            else:
                cols = " ".join("y" if c is None else f"x{c}" for c in d.columns)
                lines.append(f"stats {cols}")
        elif isinstance(d, SampleRows):
            text = f"sample {d.count}"
            if d.sort != "none":
                token = "y_asc" if d.sort == "target_asc" else "y_desc"
                text += f" sort={token}"
            if d.seed is not None:
                text += f" seed={d.seed}"
            lines.append(text)
        else:
            word = "r2" if isinstance(d, R2Fit) else "corr"
            y = "y" if d.y_transform == "identity" else "log(y)"
            lines.append(f"{word} {y} ~ {term_text(d.x_term)}")
    return "\n".join(lines)


def default_hint_spec(arity: int) -> AnalysisSpec:
    """The fixed statistical-hint analysis: 12 target-sorted samples, full
    summary stats, identity and log-log fits per feature, and log-composed
    sin/cos/exp/sqrt fits per feature."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    lines = ["sample 12 sort=y_asc", "stats all"]
    lines += [f"r2 y ~ x{i}" for i in range(arity)]
    lines += [f"r2 log(y) ~ log(x{i})" for i in range(arity)]
    for i in range(arity):
        for t in ("sin", "cos", "exp", "sqrt"):
            lines.append(f"r2 log(y) ~ log({t}(x{i}))")
    return parse_spec("\n".join(lines), arity)


# ---------------------------------------------------------------------------
# Execution


def _term_values(term: FeatureTerm, data: Dataset) -> np.ndarray:
    X = data.features
    with np.errstate(all="ignore"):
        if isinstance(term.base, FeatureRef):
            values = X[:, term.base.index]
        else:
            # ratio by 0 and inv of 0 give non-finite rows, masked downstream
            combine = BINARY[_COMBINER_OPS[term.base.combiner]]
            values = combine(X[:, term.base.left], X[:, term.base.right])
        for t in reversed(term.chain):
            values = UNARY[t](values)
    return values


def _y_values(y_transform: str, data: Dataset) -> np.ndarray:
    if y_transform == "identity":
        return data.target
    with np.errstate(all="ignore"):
        return np.log(data.target)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float] | None:
    """Least-squares line y ~ x: (slope, intercept, r2 clamped to [0,1]), or
    None when a sum is non-finite (finite rows whose sums overflow)."""
    mx = float(np.mean(x))
    my = float(np.mean(y))
    sxx = float(np.sum((x - mx) ** 2))
    sxy = float(np.sum((x - mx) * (y - my)))
    if sxx == 0.0:
        slope, intercept = 0.0, my
    else:
        slope = sxy / sxx
        intercept = my - slope * mx
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - my) ** 2))
    if not all(map(math.isfinite, (mx, my, sxx, sxy, ss_res, ss_tot))):
        return None
    if ss_tot == 0.0:
        return slope, intercept, 0.0
    return slope, intercept, float(min(1.0, max(0.0, 1.0 - ss_res / ss_tot)))


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Correlation clamped to [-1, 1], or None when a sum is non-finite."""
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    sxy = float(np.mean((x - np.mean(x)) * (y - np.mean(y))))
    scale = sx * sy
    if not (math.isfinite(sxy) and math.isfinite(scale)):
        return None
    return min(1.0, max(-1.0, sxy / scale))


def _run_stats(directive: DescribeStats, data: Dataset) -> list[ReportEntry]:
    entries = []
    for column in directive.columns:
        values = data.target if column is None else data.features[:, column]
        key = _column_key(column)
        entries.append(ReportEntry(f"mean_{key}", float(np.mean(values))))
        entries.append(ReportEntry(f"std_{key}", float(np.std(values))))
        entries.append(ReportEntry(f"min_{key}", float(np.min(values))))
        entries.append(ReportEntry(f"max_{key}", float(np.max(values))))
    return entries


def _run_sample(
    directive: SampleRows, data: Dataset, rng: np.random.Generator
) -> list[ReportEntry]:
    n = data.n_rows
    count = min(directive.count, n)
    chosen = rng.choice(n, size=count, replace=False)
    if directive.sort == "target_asc":
        chosen = chosen[np.argsort(data.target[chosen], kind="stable")]
    elif directive.sort == "target_desc":
        chosen = chosen[np.argsort(-data.target[chosen], kind="stable")]
    header = f"### {count} Random Samples (X, Y){_SORT_SUFFIX[directive.sort]}:"
    lines = []
    for j, row in enumerate(chosen):
        feats = ", ".join(f"{v:.3f}" for v in data.features[row])
        lines.append(f"X[{j}] = [{feats}], Y[{j}] = {data.target[row]:.3f}")
    return [ReportEntry(key="samples", header=header, lines=tuple(lines))]


def _run_fit(directive: R2Fit | Correlation, data: Dataset) -> list[ReportEntry]:
    x = _term_values(directive.x_term, data)
    y = _y_values(directive.y_transform, data)
    valid = np.isfinite(x) & np.isfinite(y)
    n_valid = int(np.count_nonzero(valid))
    kind = "r2" if isinstance(directive, R2Fit) else "corr"
    key = f"{kind}_{_y_key(directive.y_transform)}_{term_key(directive.x_term)}"
    na = [ReportEntry(f"{key}_na", n_valid, detail={"n_valid": n_valid})]
    if n_valid < MIN_VALID_ROWS:
        return na
    xv, yv = x[valid], y[valid]
    with np.errstate(all="ignore"):
        fit = _ols(xv, yv) if kind == "r2" else _pearson(xv, yv)
    if fit is None:
        return na
    if kind == "r2":
        slope, intercept, r2 = fit
        detail = {"slope": slope, "intercept": intercept, "n_valid": n_valid}
        return [ReportEntry(key, r2, detail=detail)]
    return [ReportEntry(key, fit, detail={"n_valid": n_valid})]


def execute(spec: AnalysisSpec, data: Dataset, seed: int = 0, source: str = "") -> AnalysisReport:
    """Run every directive against the fitting data (tr-tr view only).

    Pure in (spec, data, seed): no clock, file, or network access.  Each
    directive executes independently; one that raises contributes a line to
    execution_errors and no entries.
    """
    if data.arity != spec.arity:
        raise ValueError(f"spec arity {spec.arity} != dataset arity {data.arity}")
    entries: list[ReportEntry] = []
    errors: list[str] = []
    for i, directive in enumerate(spec.directives):
        try:
            if isinstance(directive, DescribeStats):
                entries.extend(_run_stats(directive, data))
            elif isinstance(directive, SampleRows):
                entropy = directive.seed if directive.seed is not None else seed
                rng = np.random.default_rng([entropy, i])
                entries.extend(_run_sample(directive, data, rng))
            else:
                entries.extend(_run_fit(directive, data))
        except Exception as exc:  # per-directive isolation
            errors.append(f"directive {i + 1}: {exc}")
    return AnalysisReport(tuple(entries), tuple(errors), source)


# ---------------------------------------------------------------------------
# Rendering


def _render_value(value: float | int) -> str:
    if isinstance(value, int):
        return repr(value)
    rounded = round(value, 3)
    if rounded == 0.0:
        rounded = 0.0  # normalize -0.0
    return repr(rounded)


def render(report: AnalysisReport) -> str:
    """Deterministic prompt block: sample sections, one Statistics line with
    3-decimal values, then a single Analysis errors line when present."""
    blocks: list[str] = []
    scalars: list[tuple[str, str]] = []
    for entry in report.entries:
        if entry.lines or entry.header:
            blocks.append("\n".join((entry.header, *entry.lines)))
        elif entry.value is not None:
            scalars.append((entry.key, _render_value(entry.value)))
    if scalars:
        mapping = ", ".join(f"'{k}': {v}" for k, v in scalars)
        blocks.append(f"Statistics: {{{mapping}}}")
    if report.execution_errors:
        blocks.append("Analysis errors: " + "; ".join(report.execution_errors))
    return "\n".join(blocks)


def report_to_json(report: AnalysisReport) -> dict:
    """Trace-friendly form; non-finite scalars map to null."""
    entries = []
    for e in report.entries:
        item: dict = {"key": e.key}
        if e.value is not None:
            item["value"] = json_safe(e.value)
        if e.detail is not None:
            item["detail"] = json_safe(e.detail)
        if e.header:
            item["header"] = e.header
            item["lines"] = list(e.lines)
        entries.append(item)
    return {
        "entries": entries,
        "execution_errors": list(report.execution_errors),
        "source": report.source,
    }
