"""Parameter fitting and NMSE-based candidate scoring.

Skeleton parameters are optimized on the fitting half of the training data
(tr-tr) by multi-start BFGS over the penalized mean squared error; the
candidate's fitness is the negative normalized MSE of the fitted skeleton on
the scoring half (tr-val).  Test rows are never visible here: the interfaces
only accept tr-tr / tr-val views.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .data import Dataset, SplitView, is_integer
from .expr import Skeleton, bind, evaluate

INF = float("inf")

# The objective evaluates at most this many (probe, row) predictions in one
# call: a block holds max(1, MAX // n) probes and a row tile min(n, MAX) rows.
# At 8,192 float64s every temporary is 64 KiB, under glibc's default mmap
# threshold and inside L2, so a fit over many rows neither maps, trims and
# re-faults heap pages on each evaluation nor streams them through memory.
MAX_BLOCK_ELEMENTS = 1 << 13


class FitError(ValueError):
    """Raised for malformed metric inputs (length mismatch, empty vectors)."""


class DegenerateTargetError(FitError):
    """Raised by nmse when the target has zero variance (or < 2 rows)."""


def mse(predicted, actual) -> float:
    """Mean squared error; any non-finite prediction makes it the +inf sentinel."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1:
        raise FitError(f"shape mismatch: predicted {p.shape} vs actual {a.shape}")
    if p.size == 0:
        raise FitError("mse needs at least one element")
    if not np.all(np.isfinite(p)):
        return INF
    return float(np.mean((p - a) ** 2))


def nmse(predicted, actual) -> float:
    """Squared-error sum over the target's centered sum of squares.

    0 iff predictions are exact; the mean predictor scores exactly 1.
    Non-finite predictions give the +inf sentinel.
    """
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1:
        raise FitError(f"shape mismatch: predicted {p.shape} vs actual {a.shape}")
    if a.size < 2:
        raise DegenerateTargetError(f"nmse needs at least 2 rows, got {a.size}")
    denom = float(np.sum((a - np.mean(a)) ** 2))
    if denom == 0.0:
        raise DegenerateTargetError("degenerate target variance")
    if not np.all(np.isfinite(p)):
        return INF
    return float(np.sum((p - a) ** 2) / denom)


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start BFGS settings; defaults recorded in every run trace."""

    restarts: int = 4
    max_iterations: int = 500
    max_evaluations: int = 5000
    gradient_step: float = 1e-6
    gradient_tolerance: float = 1e-8
    penalty: float = 1e10

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iterations", "max_evaluations"):
            if not is_integer(getattr(self, name)):
                raise FitError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.restarts < 1:
            raise FitError("need at least one restart (the all-ones start)")
        if self.max_iterations < 1 or self.max_evaluations < 1:
            raise FitError("iteration and evaluation budgets must be positive")
        if not 0.0 < self.gradient_step < INF:
            raise FitError("gradient_step must be positive and finite")
        if not 0.0 <= self.gradient_tolerance:
            raise FitError("gradient_tolerance must be non-negative")
        if not 0.0 < self.penalty < INF:
            raise FitError("penalty must be positive and finite")


@dataclass(frozen=True)
class FitResult:
    params: tuple[float, ...]
    train_mse: float
    converged: bool
    restarts_used: int
    evaluations: int


@dataclass(frozen=True)
class Candidate:
    """A scored hypothesis. fitness = -NMSE on tr-val; -inf marks invalid."""

    skeleton: Skeleton
    fit: FitResult
    fitness: float

    @property
    def is_valid(self) -> bool:
        return bool(np.isfinite(self.fitness))


class _BudgetExceeded(Exception):
    pass


def _penalized_objective(
    skeleton: Skeleton, X: np.ndarray, y: np.ndarray, penalty: float, probes: int
):
    """Mean per-row squared error with non-finite rows replaced by `penalty`:
    a scalar for one parameter vector, one value per row of an ``m x k``
    block of at most `probes` vectors.

    The skeleton is bound once per tile of at most MAX_BLOCK_ELEMENTS rows.
    Each tile's squared errors land in one buffer over all rows, which the
    penalty and the sum then run over whole, so the value does not depend on
    the tiling."""
    n = len(y)
    tile_rows = min(n, MAX_BLOCK_ELEMENTS)
    tiles = [
        (slice(start, start + tile_rows), bind(skeleton, X[start : start + tile_rows]))
        for start in range(0, n, tile_rows)
    ]
    squares = np.empty((probes, n))

    def objective(theta: np.ndarray):
        sq = squares[0] if theta.ndim == 1 else squares[: len(theta)]
        with np.errstate(all="ignore"):
            for rows, evaluator in tiles:
                # the evaluator's output can be a view of theta: write only sq
                tile = sq[..., rows]
                np.subtract(evaluator(theta), y[rows], out=tile)
                np.square(tile, out=tile)
        np.copyto(sq, penalty, where=~np.isfinite(sq))
        # the sum and division np.mean does, without its per-call overhead
        return np.add.reduce(sq, axis=-1) / n

    return objective


def fit_params(
    skeleton: Skeleton,
    tr_tr: Dataset,
    config: OptimizerConfig | None = None,
    seed: int = 0,
) -> FitResult:
    """Fit the skeleton's parameters to tr-tr by multi-start BFGS.

    Start 1 is the all-ones vector; remaining starts are standard-normal
    draws from a generator seeded by `seed`.  Gradients are central finite
    differences with per-coordinate step h = gradient_step * max(1, |theta|).
    The skeleton is bound to tr-tr once per fit, in row tiles of at most
    MAX_BLOCK_ELEMENTS rows, so a subtree that reads no parameter is
    computed once per fit and no operator call covers more than
    MAX_BLOCK_ELEMENTS predictions.  The 2k probes of a gradient, in the
    order theta + h_0 e_0, theta - h_0 e_0, theta + h_1 e_1, ..., are
    evaluated as parameter blocks of max(1, MAX_BLOCK_ELEMENTS // n)
    probes each.  Every probe counts as
    one evaluation: when the budget runs out inside a gradient, the probes
    that fit are evaluated in that order, the rest are dropped, and the fit
    stops, exactly as if they had been evaluated one at a time.
    The returned MSE never exceeds the all-ones start's objective value
    (best-seen tracking), and the whole call is deterministic in its inputs.
    """
    if config is None:
        config = OptimizerConfig()
    if skeleton.arity != tr_tr.arity:
        raise FitError(
            f"skeleton arity {skeleton.arity} != dataset arity {tr_tr.arity}"
        )
    X, y = tr_tr.features, tr_tr.target
    k = skeleton.param_count
    if k == 0:
        pred = evaluate(skeleton, X, ())
        return FitResult(
            params=(),
            train_mse=mse(pred, y),
            converged=True,
            restarts_used=0,
            evaluations=1,
        )

    probes_per_block = max(1, MAX_BLOCK_ELEMENTS // len(y))
    objective = _penalized_objective(skeleton, X, y, config.penalty, probes_per_block)
    state = {"evals": 0, "best_f": INF, "best_x": np.ones(k)}

    def counted(theta: np.ndarray) -> float:
        if state["evals"] >= config.max_evaluations:
            raise _BudgetExceeded
        state["evals"] += 1
        f = float(objective(theta))
        if f < state["best_f"]:
            state["best_f"] = f
            state["best_x"] = np.array(theta, dtype=float)
        return f

    diagonal = np.arange(k)

    def gradient(theta: np.ndarray) -> np.ndarray:
        # fmax, like the builtin max, maps a nan |theta_i| to 1
        h = config.gradient_step * np.fmax(1.0, np.abs(theta))
        probes = np.empty((k, 2, k))  # probes[i] = (theta + h_i e_i, theta - h_i e_i)
        probes[:] = theta
        probes[diagonal, 0, diagonal] += h
        probes[diagonal, 1, diagonal] -= h
        probes = probes.reshape(2 * k, k)
        left = config.max_evaluations - state["evals"]
        values = []
        for start in range(0, min(2 * k, left), probes_per_block):
            block = probes[start : min(start + probes_per_block, left)]
            state["evals"] += len(block)
            f = objective(block)
            best = int(np.argmin(f))  # the first minimum, as a strict < scan keeps
            if f[best] < state["best_f"]:
                state["best_f"] = float(f[best])
                state["best_x"] = block[best].copy()
            values.append(f)
        if left < 2 * k:
            raise _BudgetExceeded
        up_dn = np.concatenate(values)
        return (up_dn[0::2] - up_dn[1::2]) / (2.0 * h)

    rng = np.random.default_rng(seed)
    starts = [np.ones(k)]
    for _ in range(config.restarts - 1):
        starts.append(rng.standard_normal(k))

    converged = False
    restarts_used = 0
    for x0 in starts:
        restarts_used += 1
        try:
            counted(x0)  # records the start point itself
            # penalized objectives legitimately push BFGS through non-finite
            # arithmetic and failed line searches; neither carries signal here
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = minimize(
                    counted,
                    x0,
                    method="BFGS",
                    jac=gradient,
                    options={
                        "maxiter": config.max_iterations,
                        "gtol": config.gradient_tolerance,
                    },
                )
            converged = converged or bool(result.success)
        except _BudgetExceeded:
            break

    return FitResult(
        params=tuple(float(v) for v in state["best_x"]),
        train_mse=float(state["best_f"]),
        converged=converged,
        restarts_used=restarts_used,
        evaluations=state["evals"],
    )


def evaluate_candidate(
    skeleton: Skeleton,
    split: SplitView,
    config: OptimizerConfig | None = None,
    seed: int = 0,
) -> Candidate:
    """Fit on tr-tr, score fitness = -NMSE on tr-val.

    Degenerate tr-val variance or non-finite predictions yield an invalid
    candidate (fitness -inf) rather than an exception.
    """
    fit = fit_params(skeleton, split.tr_tr, config, seed)
    pred = evaluate(skeleton, split.tr_val.features, fit.params)
    try:
        val_nmse = nmse(pred, split.tr_val.target)
    except DegenerateTargetError:
        val_nmse = INF
    fitness = -val_nmse if np.isfinite(val_nmse) else -INF
    return Candidate(skeleton=skeleton, fit=fit, fitness=fitness)
