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

from .data import Dataset, SplitView
from .expr import Skeleton, evaluate

INF = float("inf")


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
        if self.restarts < 1:
            raise FitError("need at least one restart (the all-ones start)")
        if self.max_iterations < 1 or self.max_evaluations < 1:
            raise FitError("iteration and evaluation budgets must be positive")


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


def _penalized_objective(skeleton: Skeleton, X: np.ndarray, y: np.ndarray, penalty: float):
    """Mean per-row squared error with non-finite rows replaced by `penalty`."""

    def objective(theta: np.ndarray) -> float:
        pred = evaluate(skeleton, X, theta)
        with np.errstate(all="ignore"):
            sq = (pred - y) ** 2
        sq = np.where(np.isfinite(sq), sq, penalty)
        return float(np.mean(sq))

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

    objective = _penalized_objective(skeleton, X, y, config.penalty)
    state = {"evals": 0, "best_f": INF, "best_x": np.ones(k)}

    def counted(theta: np.ndarray) -> float:
        if state["evals"] >= config.max_evaluations:
            raise _BudgetExceeded
        state["evals"] += 1
        f = objective(theta)
        if f < state["best_f"]:
            state["best_f"] = f
            state["best_x"] = np.array(theta, dtype=float)
        return f

    h0 = config.gradient_step

    def gradient(theta: np.ndarray) -> np.ndarray:
        g = np.empty(k)
        for i in range(k):
            h = h0 * max(1.0, abs(float(theta[i])))
            up = np.array(theta, dtype=float)
            dn = np.array(theta, dtype=float)
            up[i] += h
            dn[i] -= h
            g[i] = (counted(up) - counted(dn)) / (2.0 * h)
        return g

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
