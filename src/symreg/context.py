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
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .data import Dataset
from .expr import BINARY, UNARY

MAX_DIRECTIVES = 64
MIN_VALID_ROWS = 8

# transforms and combiners evaluate through the expression operator table
TRANSFORMS = ("log", "exp", "sin", "cos", "sqrt", "square", "inv", "abs")
_COMBINER_OPS = {"product": "mul", "ratio": "div", "sum": "add", "difference": "sub"}
COMBINERS = tuple(_COMBINER_OPS)

# sample sort word -> header suffix
SORTS = {
    "y_asc": " (Sorted by Y from small to large)",
    "y_desc": " (Sorted by Y from large to small)",
    "none": "",
}
# fit y-term word -> statistics-dictionary key
Y_TERMS = {"y": "Y", "log(y)": "log(Y)"}


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
    sort: str = "none"  # a key of SORTS
    seed: int | None = None


@dataclass(frozen=True)
class Fit:
    kind: str  # r2 (least-squares line) or corr (Pearson)
    x_term: FeatureTerm
    y_term: str = "y"  # a key of Y_TERMS


Directive = Union[DescribeStats, SampleRows, Fit]


@dataclass(frozen=True)
class AnalysisSpec:
    directives: tuple[Directive, ...]
    arity: int
    # canonical program, one directive per line, built by parse_spec; parses
    # back to an equal spec with the same text
    text: str = field(default="", compare=False)


@dataclass(frozen=True)
class Statistic:
    """A summary statistic, keyed for the Statistics line."""

    key: str
    value: float


@dataclass(frozen=True)
class FitScore:
    """An r2 or corr score and its fit's details, or an ``_na`` row count."""

    key: str
    value: float | int
    detail: dict


@dataclass(frozen=True)
class SampleBlock:
    """A prompt section: a header, then one line per sampled row."""

    header: str
    lines: tuple[str, ...]
    key: str = "samples"


ReportEntry = Union[Statistic, FitScore, SampleBlock]


@dataclass(frozen=True)
class AnalysisReport:
    """Entries in directive order; ``json_safe`` of it is its trace form."""

    entries: tuple[ReportEntry, ...]
    execution_errors: tuple[str, ...] = ()
    source: str = ""


# ---------------------------------------------------------------------------
# Term text and key naming


def _term_text(term: FeatureTerm, var: str) -> str:
    """An x-term printed with feature ``i`` spelled ``{var}{i}``: ``x`` in
    canonical program text, ``X_`` or ``x_`` in statistics keys."""
    base = term.base
    if isinstance(base, FeatureRef):
        text = f"{var}{base.index}"
    else:
        text = f"{base.combiner}({var}{base.left},{var}{base.right})"
    for t in reversed(term.chain):
        text = f"{t}({text})"
    return text


def term_key(term: FeatureTerm) -> str:
    """Statistics-dictionary key for an x-term.

    A bare feature is ``X_i`` and a single transform keeps that casing
    (``log(X_0)``); deeper chains and combinations switch to lowercase
    (``log(sin(x_0))``, ``log(ratio(x_0,x_1))``).
    """
    upper = isinstance(term.base, FeatureRef) and len(term.chain) <= 1
    return _term_text(term, "X_" if upper else "x_")


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


def _parse_fit_line(kind: str, rest: str, arity: int, line: int) -> Fit:
    if "~" not in rest:
        raise SpecError("expected '<y-term> ~ <x-term>'", line)
    left, _, right = rest.partition("~")
    y_term = left.strip().replace(" ", "")
    if y_term not in Y_TERMS:
        raise SpecError(f"target term must be {' or '.join(Y_TERMS)}, got {y_term!r}", line)
    return Fit(kind, _parse_x_term(right.strip().replace(" ", ""), arity, line), y_term)


def parse_spec(text: str, arity: int) -> AnalysisSpec:
    """Parse directive lines into an AnalysisSpec, preserving order, and
    build its canonical text line by line."""
    directives: list[Directive] = []
    lines: list[str] = []
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
            every: tuple[int | None, ...] = (None, *range(arity))
            if rest == "all":
                columns = every
            else:
                columns = tuple(
                    None if token == "y" else _parse_feature_ref(token, arity, lineno)
                    for token in rest.split()
                )
            directives.append(DescribeStats(columns))
            if columns == every:
                lines.append("stats all")
            else:
                lines.append("stats " + " ".join("y" if c is None else f"x{c}" for c in columns))
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
                    if value not in SORTS:
                        raise SpecError(
                            f"sort must be one of {'/'.join(SORTS)}, got {value!r}",
                            lineno,
                        )
                    sort = value
                elif key == "seed":
                    try:
                        seed = int(value)
                    except ValueError:
                        raise SpecError(f"seed must be an integer, got {value!r}", lineno) from None
                    if seed < 0:
                        # default_rng rejects negative entropy at execute time
                        raise SpecError("seed must be a non-negative integer", lineno)
                else:
                    raise SpecError(f"unknown sample option {key!r}", lineno)
            directives.append(SampleRows(count, sort, seed))
            line = f"sample {count}"
            if sort != "none":
                line += f" sort={sort}"
            if seed is not None:
                line += f" seed={seed}"
            lines.append(line)
        elif word in ("r2", "corr"):
            fit = _parse_fit_line(word, rest, arity, lineno)
            directives.append(fit)
            lines.append(f"{word} {fit.y_term} ~ {_term_text(fit.x_term, 'x')}")
        else:
            raise SpecError(f"unknown directive {word!r}", lineno)
    return AnalysisSpec(tuple(directives), arity, "\n".join(lines))


def default_hint_spec(arity: int) -> AnalysisSpec:
    """The fixed statistical-hint analysis: 12 target-sorted samples, full
    summary stats, identity and log-log fits per feature, and log-composed
    sin/cos/exp/sqrt fits per feature."""
    lines = ["sample 12 sort=y_asc", "stats all"]
    lines += [f"r2 y ~ x{i}" for i in range(arity)]
    lines += [f"r2 log(y) ~ log(x{i})" for i in range(arity)]
    for i in range(arity):
        for t in ("sin", "cos", "exp", "sqrt"):
            lines.append(f"r2 log(y) ~ log({t}(x{i}))")
    return parse_spec("\n".join(lines), arity)


# ---------------------------------------------------------------------------
# Execution


def _term_values(term: FeatureTerm, data: Dataset, out: np.ndarray) -> np.ndarray:
    """The x-term's value per row, written into ``out``."""
    X = data.features
    with np.errstate(all="ignore"):
        if isinstance(term.base, FeatureRef):
            np.copyto(out, X[:, term.base.index])
        else:
            # ratio by 0 and inv of 0 give non-finite rows, masked downstream
            combine = BINARY[_COMBINER_OPS[term.base.combiner]]
            combine(X[:, term.base.left], X[:, term.base.right], out=out)
        for t in reversed(term.chain):
            UNARY[t](out, out=out)
    return out


# The kernels take their scratch arrays (each the length of x) from the
# caller and spell np.mean, np.sum and np.std as the ufunc steps those run,
# in the same order, so each value is bitwise what the numpy call returns.


def _ols(
    x: np.ndarray, y: np.ndarray, dx: np.ndarray, dy: np.ndarray, tmp: np.ndarray
) -> tuple[float, float, float] | None:
    """Least-squares line y ~ x: (slope, intercept, r2 clamped to [0,1]), or
    None when a sum is non-finite (finite rows whose sums overflow)."""
    n = len(x)
    mx = float(np.add.reduce(x) / n)
    my = float(np.add.reduce(y) / n)
    np.subtract(x, mx, out=dx)
    np.subtract(y, my, out=dy)
    sxx = float(np.add.reduce(np.multiply(dx, dx, out=tmp)))
    sxy = float(np.add.reduce(np.multiply(dx, dy, out=tmp)))
    if sxx == 0.0:
        slope, intercept = 0.0, my
    else:
        slope = sxy / sxx
        intercept = my - slope * mx
    residuals = np.multiply(slope, x, out=tmp)
    np.add(residuals, intercept, out=residuals)
    np.subtract(y, residuals, out=residuals)
    ss_res = float(np.add.reduce(np.multiply(residuals, residuals, out=tmp)))
    ss_tot = float(np.add.reduce(np.multiply(dy, dy, out=tmp)))
    if not all(map(math.isfinite, (mx, my, sxx, sxy, ss_res, ss_tot))):
        return None
    if ss_tot == 0.0:
        return slope, intercept, 0.0
    return slope, intercept, float(min(1.0, max(0.0, 1.0 - ss_res / ss_tot)))


def _pearson(
    x: np.ndarray, y: np.ndarray, dx: np.ndarray, dy: np.ndarray, tmp: np.ndarray
) -> float | None:
    """Correlation clamped to [-1, 1], or None when a sum is non-finite."""
    n = len(x)
    np.subtract(x, np.add.reduce(x) / n, out=dx)
    sx = float(np.sqrt(np.add.reduce(np.square(dx, out=tmp)) / n))
    np.subtract(y, np.add.reduce(y) / n, out=dy)
    sy = float(np.sqrt(np.add.reduce(np.square(dy, out=tmp)) / n))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    sxy = float(np.add.reduce(np.multiply(dx, dy, out=tmp)) / n)
    scale = sx * sy
    if not (math.isfinite(sxy) and math.isfinite(scale)):
        return None
    return min(1.0, max(-1.0, sxy / scale))


def _run_stats(directive: DescribeStats, data: Dataset) -> list[ReportEntry]:
    entries = []
    for column in directive.columns:
        values = data.target if column is None else data.features[:, column]
        key = _column_key(column)
        entries.append(Statistic(f"mean_{key}", float(np.mean(values))))
        entries.append(Statistic(f"std_{key}", float(np.std(values))))
        entries.append(Statistic(f"min_{key}", float(np.min(values))))
        entries.append(Statistic(f"max_{key}", float(np.max(values))))
    return entries


def _run_sample(
    directive: SampleRows, data: Dataset, rng: np.random.Generator
) -> list[ReportEntry]:
    n = data.n_rows
    count = min(directive.count, n)
    chosen = rng.choice(n, size=count, replace=False)
    if directive.sort == "y_asc":
        chosen = chosen[np.argsort(data.target[chosen], kind="stable")]
    elif directive.sort == "y_desc":
        chosen = chosen[np.argsort(-data.target[chosen], kind="stable")]
    header = f"### {count} Random Samples (X, Y){SORTS[directive.sort]}:"
    lines = []
    for j, row in enumerate(chosen):
        feats = ", ".join(f"{v:.3f}" for v in data.features[row])
        lines.append(f"X[{j}] = [{feats}], Y[{j}] = {data.target[row]:.3f}")
    return [SampleBlock(header, tuple(lines))]


def _run_fit(
    directive: Fit, data: Dataset, targets: dict, scratch: np.ndarray, mask: np.ndarray
) -> list[ReportEntry]:
    """``targets`` holds each y-term already computed in this execute, with
    its finite-row mask.  ``scratch`` is a (6, n) buffer and ``mask`` an (n,)
    bool buffer, both overwritten."""
    if directive.y_term not in targets:
        with np.errstate(all="ignore"):
            y = data.target if directive.y_term == "y" else np.log(data.target)
        targets[directive.y_term] = y, np.isfinite(y)
    y, y_finite = targets[directive.y_term]
    values, x_valid, y_valid, dx, dy, tmp = scratch
    x = _term_values(directive.x_term, data, values)
    valid = np.bitwise_and(np.isfinite(x, out=mask), y_finite, out=mask)
    n_valid = int(np.count_nonzero(valid))
    kind = directive.kind
    key = f"{kind}_{Y_TERMS[directive.y_term]}_{term_key(directive.x_term)}"
    na = [FitScore(f"{key}_na", n_valid, {"n_valid": n_valid})]
    if n_valid < MIN_VALID_ROWS:
        return na
    if n_valid < len(valid):
        # compacted into buffers other than the ones read
        x = np.compress(valid, x, out=x_valid[:n_valid])
        y = np.compress(valid, y, out=y_valid[:n_valid])
    kernel = _ols if kind == "r2" else _pearson
    with np.errstate(all="ignore"):
        fit = kernel(x, y, dx[:n_valid], dy[:n_valid], tmp[:n_valid])
    if fit is None:
        return na
    if kind == "r2":
        slope, intercept, r2 = fit
        detail = {"slope": slope, "intercept": intercept, "n_valid": n_valid}
        return [FitScore(key, r2, detail)]
    return [FitScore(key, fit, {"n_valid": n_valid})]


def execute(
    spec: AnalysisSpec,
    data: Dataset,
    seed: int = 0,
    source: str = "",
    memo: dict | None = None,
) -> AnalysisReport:
    """Run every directive against the fitting data (tr-tr view only).

    Pure in (spec, data, seed): no clock, file, or network access.  Each
    directive executes independently; one that raises contributes a line to
    execution_errors and no entries.

    ``memo`` maps each stats, r2 and corr directive already run to its
    entries or its error text, and is filled as directives run; pass one
    dict to every execute on the same dataset so a repeated directive is
    looked up instead of re-run.  It is only valid for that one dataset.
    Sample directives depend on their index and the seed, so they always
    run.  An error line carries the directive's index in this spec.

    The r2 and corr kernels run in scratch buffers allocated once per call
    (term values, masked x and y, deviations, a temporary and a row mask),
    which they overwrite with ``out=``, so a directive allocates no
    full-length temporary of its own.
    """
    if data.arity != spec.arity:
        raise ValueError(f"spec arity {spec.arity} != dataset arity {data.arity}")
    if memo is None:
        memo = {}
    targets: dict = {}
    scratch = np.empty((6, data.n_rows))
    mask = np.empty(data.n_rows, dtype=bool)
    entries: list[ReportEntry] = []
    errors: list[str] = []
    for i, directive in enumerate(spec.directives):
        outcome: list[ReportEntry] | str | None = memo.get(directive)
        if outcome is None:
            try:
                if isinstance(directive, DescribeStats):
                    outcome = _run_stats(directive, data)
                elif isinstance(directive, SampleRows):
                    entropy = directive.seed if directive.seed is not None else seed
                    rng = np.random.default_rng([entropy, i])
                    outcome = _run_sample(directive, data, rng)
                else:
                    outcome = _run_fit(directive, data, targets, scratch, mask)
            except Exception as exc:  # per-directive isolation
                outcome = str(exc)
            if not isinstance(directive, SampleRows):  # a draw depends on its index
                memo[directive] = outcome
        if isinstance(outcome, str):
            errors.append(f"directive {i + 1}: {outcome}")
        else:
            entries.extend(outcome)
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
        if isinstance(entry, SampleBlock):
            blocks.append("\n".join((entry.header, *entry.lines)))
        else:
            scalars.append((entry.key, _render_value(entry.value)))
    if scalars:
        mapping = ", ".join(f"'{k}': {v}" for k, v in scalars)
        blocks.append(f"Statistics: {{{mapping}}}")
    if report.execution_errors:
        blocks.append("Analysis errors: " + "; ".join(report.execution_errors))
    return "\n".join(blocks)
