"""Parameter fitting and NMSE-based candidate scoring.

Skeleton parameters are optimized on the fitting half of the training data
(tr-tr) by multi-start BFGS over the penalized mean squared error; the
candidate's fitness is the negative normalized MSE of the fitted skeleton on
the scoring half (tr-val).  Test rows are never visible here: the interfaces
only accept tr-tr / tr-val views.

The BFGS loop is this module's own, and so is its line search: no scipy
module is imported.  Each restart is a generator (`_BFGS`) that takes the
steps scipy 1.17's ``minimize(method="BFGS")`` takes, bit for bit, with a
port of scipy's Moré-Thuente line search (`_dcsrch`) and of its wolfe2
fallback.  It yields the parameter vectors whose objective values it needs
and is sent their values.  One driver (`_drive`) evaluates the pending
requests of all restarts together, in blocks, so a line-search point, its 2k
gradient probes and the other restarts' points share objective calls.  The
driver caps each restart so that the result is bit for bit that of running
the restarts one after another, one vector per call (`fit_params`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, SplitView, check_counts
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
    # finite predictions beyond about 1e154 square to inf, which is the score
    with np.errstate(over="ignore"):
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
    # finite predictions beyond about 1e154 square to inf, which is the score
    with np.errstate(over="ignore"):
        return float(np.sum((p - a) ** 2) / denom)


# Every fit's central-difference step scale, BFGS gradient-norm tolerance and
# the squared error that replaces a non-finite one in the objective
GRADIENT_STEP = 1e-6
GRADIENT_TOLERANCE = 1e-8
PENALTY = 1e10


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start BFGS budgets; defaults recorded in every run summary."""

    restarts: int = 4
    max_iterations: int = 500
    max_evaluations: int = 5000

    def __post_init__(self) -> None:
        # restart 1 is the all-ones start
        check_counts(self, FitError, restarts=1, max_iterations=1, max_evaluations=1)


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


def _penalized_objective(skeleton: Skeleton, X: np.ndarray, y: np.ndarray, probes: int):
    """Mean squared error over the rows, each non-finite square replaced by
    PENALTY: one value per row of an ``m x k`` block of at most `probes`
    parameter vectors.

    The skeleton is bound once per tile of at most MAX_BLOCK_ELEMENTS rows.
    Each tile's squared errors land in one buffer over all rows, which the
    penalty and the sum then run over whole, so the value does not depend on
    the tiling.  The objective does not enter ``np.errstate`` itself: the
    caller holds ``np.errstate(all="ignore")`` around its calls, or
    non-finite rows raise numpy's floating-point warnings."""
    n = len(y)
    tile_rows = min(n, MAX_BLOCK_ELEMENTS)
    tiles = [
        (slice(start, start + tile_rows), bind(skeleton, X[start : start + tile_rows]))
        for start in range(0, n, tile_rows)
    ]
    squares = np.empty((probes, n))

    def objective(theta: np.ndarray) -> np.ndarray:
        sq = squares[: len(theta)]
        for rows, evaluator in tiles:
            # the evaluator's output can be a view of theta: write only sq
            tile = sq[:, rows]
            np.subtract(evaluator(theta), y[rows], out=tile)
            np.square(tile, out=tile)
        # the sum and division np.mean does, without its per-call overhead
        sums = np.add.reduce(sq, axis=-1)
        # squares are >= 0 or nan, so a finite sum has only finite terms:
        # the penalty can change only a row whose sum is not finite
        if not np.isfinite(sums).all():
            np.copyto(sq, PENALTY, where=~np.isfinite(sq))
            sums = np.add.reduce(sq, axis=-1)
        return sums / n

    return objective


# scipy's BFGS settings (``minimize(method="BFGS")``): the Wolfe constants,
# the step bounds it gives the line search, and the line searches' caps
C1, C2 = 1e-4, 0.9
STEP_MIN, STEP_MAX = 1e-100, 1e100
STEP_XTOL = 1e-14
DCSRCH_ITERATIONS = 100
WOLFE2_ITERATIONS = ZOOM_ITERATIONS = 10


def _first_step(phi0, old_phi0, derphi0):
    """The first trial step of both line searches: the minimizer of the
    quadratic through the last decrease, capped at 1."""
    if derphi0 != 0:
        alpha1 = min(1.0, 1.01 * 2 * (phi0 - old_phi0) / derphi0)
        return 1.0 if alpha1 < 0 else alpha1
    return 1.0


class _BFGS:
    """One BFGS restart from `x0`, step for step as scipy 1.17's
    ``minimize(fun, x0, method="BFGS", jac=gradient)`` runs it after one
    evaluation of ``fun(x0)``, with `gradient` the central differences of
    `fit_params`.

    ``run()`` is a generator.  It yields ``m x k`` arrays of parameter
    vectors and is sent their ``m`` objective values; it returns whether BFGS
    converged.  It holds scipy's one-point cache: the last point, with its
    value and its gradient once computed.  A point ``np.array_equal`` to it
    is not evaluated again, so ``-0.0`` hits the cache and NaN misses it.
    """

    def __init__(self, x0: np.ndarray, config: OptimizerConfig):
        self.x0 = x0
        self.max_iterations = config.max_iterations
        self.x = x0  # the cached point, its value f and its gradient g
        self.f = self.g = None

    def _rows(self, lead: int, gradient: bool):
        """`lead` copies of the cached point, then, if `gradient`, its 2k
        probes in the order theta + h_0 e_0, theta - h_0 e_0, theta + h_1 e_1,
        ..., with h = GRADIENT_STEP * max(1, |theta|); and h."""
        k = len(self.x)
        rows = np.empty((lead + 2 * k * gradient, k))
        rows[:] = self.x
        h = None
        if gradient:
            # fmax, like the builtin max, maps a nan |theta_i| to 1
            h = GRADIENT_STEP * np.fmax(1.0, np.abs(self.x))
            # in the flattened probes, coordinate i of probe 2i sits at
            # i * (2k + 1), and of probe 2i + 1 k places later
            probes = rows[lead:].reshape(-1)
            probes[:: 2 * k + 1] += h
            probes[k :: 2 * k + 1] -= h
        return rows, h

    @staticmethod
    def _central(values: np.ndarray, h: np.ndarray) -> np.ndarray:
        return (values[0::2] - values[1::2]) / (2.0 * h)

    def _visit(self, x: np.ndarray, value: bool, gradient: bool):
        """The value and/or gradient at x through the cache, as scipy's
        ``fun(x)`` then ``grad(x)`` give them, in one request."""
        # scipy compares with np.array_equal: -0.0 equals 0.0, nan equals nothing
        if not (x == self.x).all():
            self.x, self.f, self.g = x, None, None
        need_f = value and self.f is None
        need_g = gradient and self.g is None
        if need_f or need_g:
            rows, h = self._rows(int(need_f), need_g)
            values = yield rows
            if need_f:
                self.f = float(values[0])
            if need_g:
                self.g = self._central(values[need_f:], h)
        return self.f, self.g

    def run(self):
        # fit_params' own evaluation of the start, then ScalarFunction's value
        # and gradient there
        rows, h = self._rows(2, True)
        values = yield rows
        self.f, self.g = float(values[1]), self._central(values[2:], h)

        old_fval, gfk = self.f, self.g
        iteration = 0
        # an int identity, as scipy's, so that each product below takes the
        # dtypes and the code path it takes in scipy
        identity = np.eye(len(self.x0), dtype=int)
        Hk = identity
        # sets the initial step guess to dx ~ 1
        old_old_fval = old_fval + np.linalg.norm(gfk) / 2
        xk = self.x0
        failed = False
        gnorm = np.maximum.reduce(np.abs(gfk))
        while gnorm > GRADIENT_TOLERANCE and iteration < self.max_iterations:
            pk = -np.dot(Hk, gfk)
            alpha_k, old_fval, old_old_fval, gfkp1 = yield from self._line_search(
                xk, pk, gfk, old_fval, old_old_fval
            )
            if alpha_k is None:
                failed = True
                break
            sk = alpha_k * pk
            xk = xk + sk
            if gfkp1 is None:
                _, gfkp1 = yield from self._visit(xk, False, True)
            yk = gfkp1 - gfk
            gfk = gfkp1
            iteration += 1
            gnorm = np.maximum.reduce(np.abs(gfk))
            if gnorm <= GRADIENT_TOLERANCE:
                break
            # scipy's relative step test at its default xrtol = 0; its right
            # side is 0 or nan, so only a zero step needs it
            moved = alpha_k * _norm(pk)
            if not moved > 0 and moved <= 0 * (0 + _norm(xk)):
                break
            if not np.isfinite(old_fval):
                failed = True
                break
            rhok_inv = np.dot(yk, sk)
            rhok = 1000.0 if rhok_inv == 0.0 else 1.0 / rhok_inv
            A1 = identity - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
            A2 = identity - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
            Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] * sk[np.newaxis, :])

        if failed or iteration >= self.max_iterations:
            return False
        return not (np.isnan(gnorm) or np.isnan(old_fval) or np.isnan(xk).any())

    def _line_search(self, xk, pk, gfk, old_fval, old_old_fval):
        """scipy's ``_line_search_wolfe12``: Moré–Thuente (`_dcsrch`) and,
        when it fails, ``line_search_wolfe2``.  Returns the step, the value
        there, `old_fval` and the gradient there (None when wolfe2 did not
        compute it), or a None step when both fail."""
        derphi0 = np.dot(gfk, pk)
        stp = _first_step(old_fval, old_old_fval, derphi0)
        search = _dcsrch(stp, old_fval, derphi0)
        reply = None
        for _ in range(DCSRCH_ITERATIONS):
            try:
                stp = search.send(reply)
            except StopIteration as stop:
                if stop.value == "CONVERGENCE":
                    return stp, phi1, old_fval, gval
                break
            if not np.isfinite(stp):
                break
            # the value and the derivative at each trial step: one request
            # of 1 + 2k rows
            phi1, gval = yield from self._visit(xk + stp * pk, True, True)
            reply = phi1, np.dot(gval, pk)
        return (yield from self._wolfe2(xk, pk, old_fval, old_old_fval, derphi0))

    def _wolfe2(self, xk, pk, phi0, old_phi0, derphi0):
        """scipy's ``line_search_wolfe2`` (its ``scalar_search_wolfe2`` and
        ``_zoom``) with ``amax=STEP_MAX`` and no extra condition, without its
        warnings."""
        gval = None

        def phi(alpha):
            f, _ = yield from self._visit(xk + alpha * pk, True, False)
            return f

        def derphi(alpha):
            nonlocal gval
            _, gval = yield from self._visit(xk + alpha * pk, False, True)
            return np.dot(gval, pk)

        alpha0 = 0
        # at most 1, so STEP_MAX never caps it
        alpha1 = _first_step(phi0, old_phi0, derphi0)
        phi_a1 = yield from phi(alpha1)
        phi_a0, derphi_a0 = phi0, derphi0
        for i in range(WOLFE2_ITERATIONS):
            if alpha1 == 0 or alpha0 > STEP_MAX:
                return None, None, None, None
            if phi_a1 > phi0 + C1 * alpha1 * derphi0 or (phi_a1 >= phi_a0 and i > 0):
                alpha, f, derphi_star = yield from _zoom(
                    alpha0, alpha1, phi_a0, phi_a1, derphi_a0, phi, derphi, phi0, derphi0
                )
                break
            derphi_a1 = yield from derphi(alpha1)
            if abs(derphi_a1) <= -C2 * derphi0:
                alpha, f, derphi_star = alpha1, phi_a1, derphi_a1
                break
            if derphi_a1 >= 0:
                alpha, f, derphi_star = yield from _zoom(
                    alpha1, alpha0, phi_a1, phi_a0, derphi_a1, phi, derphi, phi0, derphi0
                )
                break
            alpha0, alpha1 = alpha1, min(2 * alpha1, STEP_MAX)
            phi_a0 = phi_a1
            phi_a1 = yield from phi(alpha1)
            derphi_a0 = derphi_a1
        else:
            alpha, f, derphi_star = alpha1, phi_a1, None
        return alpha, f, phi0, None if derphi_star is None else gval


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, phi, derphi, phi0, derphi0):
    """scipy's ``_zoom`` as a generator over `phi` and `derphi`: the step
    satisfying the strong Wolfe conditions inside [a_lo, a_hi], with its value
    and derivative, or three Nones."""
    phi_rec, a_rec = phi0, 0
    for i in range(ZOOM_ITERATIONS + 1):
        dalpha = a_hi - a_lo
        a, b = (a_hi, a_lo) if dalpha < 0 else (a_lo, a_hi)
        # a cubic, then a quadratic interpolant; bisect when either lands
        # too near an end of the interval
        if i > 0:
            cchk = 0.2 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if i == 0 or a_j is None or a_j > b - cchk or a_j < a + cchk:
            qchk = 0.1 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if a_j is None or a_j > b - qchk or a_j < a + qchk:
                a_j = a_lo + 0.5 * dalpha
        phi_aj = yield from phi(a_j)
        if phi_aj > phi0 + C1 * a_j * derphi0 or phi_aj >= phi_lo:
            phi_rec, a_rec = phi_hi, a_hi
            a_hi, phi_hi = a_j, phi_aj
        else:
            derphi_aj = yield from derphi(a_j)
            if abs(derphi_aj) <= -C2 * derphi0:
                return a_j, phi_aj, derphi_aj
            if derphi_aj * (a_hi - a_lo) >= 0:
                phi_rec, a_rec = phi_hi, a_hi
                a_hi, phi_hi = a_lo, phi_lo
            else:
                phi_rec, a_rec = phi_lo, a_lo
            a_lo, phi_lo, derphi_lo = a_j, phi_aj, derphi_aj
    return None, None, None


# _dcsrch, _dcstep, _cubicmin and _quadmin are ported from SciPy 1.17.1
# (scipy/optimize/_dcsrch.py and _linesearch.py), operation for operation.
# SciPy's _dcsrch.py is its 2023 Python port of MINPACK-2's dcsrch and dcstep
# (Fortran): MINPACK-1 Project, June 1983, Argonne National Laboratory, Jorge
# J. More' and David J. Thuente; MINPACK-2 Project, November 1993, Argonne
# National Laboratory and University of Minnesota, Brett M. Averick, Richard
# G. Carter and Jorge J. More'.  SciPy's notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
#
# The ports keep SciPy's operand order, its np.sqrt, np.sign and np.clip on
# scalars and its mix of Python floats and numpy scalars, so each step is
# bit for bit SciPy's: an operation on numpy scalars that divides by zero,
# overflows or is invalid gives inf or nan, as in SciPy, and the fit's
# np.errstate(all="ignore") keeps it silent.  SciPy's dcsrch holds its own
# errstate around each dcstep; the fit's makes that redundant.


def _dcsrch(stp, f, g):
    """MINPACK-2's ``dcsrch`` (Moré and Thuente, ACM TOMS 20(3), 1994) with
    scipy's BFGS settings, as scipy's ``DCSRCH._iterate`` runs it, as a
    generator in the style of `_zoom`.

    Start it with the value `f` and the derivative `g` of phi at step 0 and
    a positive first trial step `stp`.  It yields each trial step and is
    sent ``(phi, derphi)`` there.  It returns its final task as scipy words
    it: "CONVERGENCE" when the last trial step satisfies the strong Wolfe
    conditions, else "WARNING: ..." or "ERROR: ...".  The caller caps the
    number of steps and treats a non-finite one as a failure."""
    # scipy's checks of the settings are constant here: only these can fail
    task = None
    if stp < STEP_MIN:
        task = "ERROR: STP .LT. STPMIN"
    if stp > STEP_MAX:
        task = "ERROR: STP .GT. STPMAX"
    if g >= 0:
        task = "ERROR: INITIAL G .GE. ZERO"
    if task is not None:
        return task

    brackt = False
    stage = 1
    finit = f
    ginit = g
    gtest = C1 * ginit
    width = STEP_MAX - STEP_MIN
    width1 = width / 0.5
    # (stx, fx, gx): the step with the least value so far, its value and
    # derivative; (sty, fy, gy): the other end of the interval
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin = 0
    stmax = stp + 4.0 * stp
    while True:
        f, g = yield stp

        # If psi(stp) <= 0 and f'(stp) >= 0 for some step, the search enters
        # its second stage
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2

        if brackt and (stp <= stmin or stp >= stmax):
            task = "WARNING: ROUNDING ERRORS PREVENT PROGRESS"
        if brackt and stmax - stmin <= STEP_XTOL * stmax:
            task = "WARNING: XTOL TEST SATISFIED"
        if stp == STEP_MAX and f <= ftest and g <= gtest:
            task = "WARNING: STP = STPMAX"
        if stp == STEP_MIN and (f > ftest or g >= gtest):
            task = "WARNING: STP = STPMIN"
        if f <= ftest and abs(g) <= C2 * -ginit:
            task = "CONVERGENCE"
        if task is not None:
            return task

        if stage == 1 and f <= fx and f > ftest:
            # a lower value without sufficient decrease: step on the modified
            # function psi in the first stage
            fm = f - stp * gtest
            fxm = fx - stx * gtest
            fym = fy - sty * gtest
            gm = g - gtest
            gxm = gx - gtest
            gym = gy - gtest
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt, stmin, stmax
            )
            fx = fxm + stx * gtest
            fy = fym + sty * gtest
            gx = gxm + gtest
            gy = gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
            )

        # bisect when the bracket did not shrink enough
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)

        if brackt:
            stmin = min(stx, sty)
            stmax = max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)

        stp = np.clip(stp, STEP_MIN, STEP_MAX)

        # when no further progress is possible, try the best step so far
        if (
            brackt
            and (stp <= stmin or stp >= stmax)
            or (brackt and stmax - stmin <= STEP_XTOL * stmax)
        ):
            stp = stx


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's ``dcstep``: a safeguarded trial step from the interval
    with ends `stx` (the best step) and `sty` and the current step `stp`,
    each with its value and derivative.  Returns the updated ends, the new
    step and whether a minimizer is bracketed."""
    sgn_dp = np.sign(dp)
    sgn_dx = np.sign(dx)
    sgnd = sgn_dp * sgn_dx

    if fp > fx:
        # a higher value: the minimum is bracketed; take the cubic step if
        # it is closer to stx than the quadratic one, else their mean
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma *= -1
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # a lower value and derivatives of opposite sign: the minimum is
        # bracketed; take the cubic step if it is farther from stp than the
        # secant step, else the secant step
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma *= -1
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # a lower value, derivatives of the same sign, and a derivative that
        # shrinks: the cubic step only where the cubic tends to infinity in
        # the step's direction or its minimum lies beyond stp, else the
        # secant step
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)

        if brackt:
            # the step closer to stp, kept inside the bracket
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            # the step farther from stp, inside the step bounds
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = np.clip(stpf, stpmin, stpmax)
    else:
        # a lower value, derivatives of the same sign, and a derivative that
        # does not shrink: the cubic step once bracketed, else a bound
        if brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            r = p / q
            stpc = stp + r * (sty - stp)
            stpf = stpc
        elif stp > stx:
            stpf = stpmax
        else:
            stpf = stpmin

    # update the interval that contains a minimizer
    if fp > fx:
        sty = stp
        fy = fp
        dy = dp
    else:
        if sgnd < 0:
            sty = stx
            fy = fx
            dy = dx
        stx = stp
        fx = fp
        dx = dp

    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """The minimizer of the cubic through (a, fa), (b, fb) and (c, fc) with
    slope `fpa` at a, or None where there is none or the arithmetic divides
    by zero, overflows or goes invalid."""
    # f(x) = A *(x-a)^3 + B*(x-a)^2 + C*(x-a) + D
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            C = fpa
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0] = dc**2
            d1[0, 1] = -(db**2)
            d1[1, 0] = -(dc**3)
            d1[1, 1] = db**3
            [A, B] = np.dot(d1, np.asarray([fb - fa - C * db, fc - fa - C * dc]).flatten())
            A /= denom
            B /= denom
            radical = B * B - 3 * A * C
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _quadmin(a, fa, fpa, b, fb):
    """The minimizer of the quadratic through (a, fa) and (b, fb) with slope
    `fpa` at a, or None as for `_cubicmin`."""
    # f(x) = B*(x-a)^2 + C*(x-a) + D
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            D = fa
            C = fpa
            db = b - a * 1.0
            B = (fb - D - C * db) / (db * db)
            xmin = a - C / (2.0 * B)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _norm(v: np.ndarray):
    """scipy's ``vecnorm(v)``, ``np.sum(np.abs(v) ** 2, axis=0) ** 0.5``, in
    the same operations without their wrappers."""
    return np.add.reduce(v * v) ** 0.5


class _Run:
    """The driver's record of one restart: its generator, the rows it waits
    for, the rows evaluated for it and their values, and how it ended."""

    def __init__(self, steps):
        self.steps = steps
        self.request = next(steps)
        self.count = 0
        self.log: list[tuple[np.ndarray, np.ndarray]] = []
        self.done = self.cut = self.converged = False


def _drive(runs: list[_Run], objective, probes_per_block: int, budget: int) -> None:
    """Evaluate the runs' requests until every run that can still count has
    ended.  Each step gathers the pending rows of all active runs, in run
    order, and evaluates them in blocks of at most `probes_per_block` rows.

    Run r may spend at most `budget` minus the evaluations of runs 0..r-1 so
    far.  Those only grow, so a request that does not fit ends the run (it is
    cut): the rows that fit are evaluated, and no later run can count."""
    while True:
        batch = []
        spent = 0
        for run in runs:
            if not run.done:
                rows = run.request
                room = budget - spent - run.count
                if len(rows) > room:
                    rows = rows[: max(room, 0)]
                    run.done = run.cut = True
                batch.append((run, rows))
                run.count += len(rows)
                if run.cut:
                    break
            elif run.cut:
                break
            spent += run.count
        if not batch:
            return
        block = batch[0][1] if len(batch) == 1 else np.concatenate([rows for _, rows in batch])
        if len(block) == 0:
            values = np.empty(0)
        elif len(block) <= probes_per_block:
            values = objective(block)
        else:
            values = np.concatenate(
                [
                    objective(block[start : start + probes_per_block])
                    for start in range(0, len(block), probes_per_block)
                ]
            )
        start = 0
        for run, rows in batch:
            run.log.append((rows, values[start : start + len(rows)]))
            start += len(rows)
            if not run.done:
                try:
                    run.request = run.steps.send(run.log[-1][1])
                except StopIteration as stop:
                    run.done, run.converged = True, stop.value


def fit_params(
    skeleton: Skeleton,
    tr_tr: Dataset,
    config: OptimizerConfig | None = None,
    seed: int = 0,
) -> FitResult:
    """Fit the skeleton's parameters to tr-tr by multi-start BFGS.

    Start 1 is the all-ones vector; remaining starts are standard-normal
    draws from a generator seeded by `seed`.  Each start runs scipy's BFGS
    (``minimize(method="BFGS")``) after one evaluation of the start point
    itself, so the start is evaluated twice.  Gradients are central finite
    differences with per-coordinate step h = GRADIENT_STEP * max(1, |theta|),
    its 2k probes in the order theta + h_0 e_0, theta - h_0 e_0,
    theta + h_1 e_1, ....  The skeleton is bound to tr-tr once per fit, in
    row tiles of at most MAX_BLOCK_ELEMENTS rows, so a subtree that reads no
    parameter is computed once per fit.

    Block protocol: every start is a generator of requests, and each step
    evaluates the pending requests of all active starts as one block of
    parameter vectors, in calls of at most max(1, MAX_BLOCK_ELEMENTS // n)
    vectors.  A line-search point and its 2k gradient probes are one
    request.

    Sequential equivalence: the result is, bit for bit, that of running the
    starts one after another and evaluating one vector per call.
    - Every vector counts as one evaluation.  Start r may use
      max_evaluations minus the evaluations of starts 0..r-1.  When a start
      runs out inside a request, the vectors that fit count and the fit
      stops; a start with no evaluation left still counts in
      `restarts_used`.  A start evaluated past that cap, because it ran
      ahead of the starts before it, has the rest discarded.
    - The best point is the first minimum over the counted evaluations in
      start order, so the returned MSE never exceeds the all-ones start's.
    - `converged` holds if some start that ended within its cap converged.
    The loop emits no warning and leaves the process-wide warning filters
    alone; it holds one ``np.errstate(all="ignore")``, which is per thread,
    for the whole fit.  So fits may run on several threads at once.
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

    rng = np.random.default_rng(seed)
    starts = [np.ones(k)]
    for _ in range(config.restarts - 1):
        starts.append(rng.standard_normal(k))

    probes_per_block = max(1, MAX_BLOCK_ELEMENTS // len(y))
    budget = config.max_evaluations
    # penalized objectives legitimately push BFGS through non-finite arithmetic
    with np.errstate(all="ignore"):
        objective = _penalized_objective(skeleton, X, y, probes_per_block)
        runs = [_Run(_BFGS(x0, config).run()) for x0 in starts]
        _drive(runs, objective, probes_per_block, budget)

    # replay the starts in order: each within its sequential cap
    best_f, best_x = INF, starts[0]
    used = 0
    converged = False
    restarts_used = 0
    for run in runs:
        restarts_used += 1
        take = min(run.count, budget - used)
        within = run.count <= budget - used
        used += take
        for rows, values in run.log:
            if take <= 0:
                break
            values = values[:take]
            take -= len(values)
            if len(values):
                i = int(np.argmin(values))  # the first minimum, as a strict < scan keeps
                if values[i] < best_f:
                    best_f, best_x = float(values[i]), rows[i]
        if run.cut or not within:
            break
        converged = converged or bool(run.converged)

    return FitResult(
        params=tuple(float(v) for v in best_x),
        train_mse=float(best_f),
        converged=converged,
        restarts_used=restarts_used,
        evaluations=used,
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
