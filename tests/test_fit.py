import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.optimize._dcsrch import DCSRCH
from scipy.optimize._linesearch import _cubicmin, _quadmin
from scipy.optimize._optimize import _line_search_wolfe12

from symreg import expr, fit
from symreg.data import split
from symreg.expr import evaluate, parse
from symreg.fit import (
    Candidate,
    DegenerateTargetError,
    FitError,
    FitResult,
    OptimizerConfig,
    evaluate_candidate,
    fit_params,
    mse,
    nmse,
)
from tests.conftest import make_dataset, random_expression

INF = float("inf")


class TestMse:
    def test_zero_on_exact(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_case(self):
        # residuals (1, -1) -> mean of squares = 1
        assert mse([2.0, 1.0], [1.0, 2.0]) == 1.0

    def test_nan_prediction_is_inf(self):
        assert mse([float("nan"), 1.0], [0.0, 1.0]) == INF

    def test_inf_prediction_is_inf(self):
        assert mse([INF, 1.0], [0.0, 1.0]) == INF

    def test_huge_finite_prediction_is_inf_without_a_warning(self):
        # the residual's square overflowed outside any errstate, so a
        # parameterless candidate warned when its fit was scored
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mse([1e200, 1.0], [0.0, 1.0]) == INF

    def test_shape_mismatch(self):
        with pytest.raises(FitError, match="shape"):
            mse([1.0, 2.0], [1.0])

    def test_empty(self):
        with pytest.raises(FitError):
            mse([], [])

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_property(self, values):
        preds = [v + 1.0 for v in values]
        assert mse(preds, values) >= 0.0


class TestNmse:
    def test_hand_case(self):
        # target [0, 2], mean 1, centered SS = 2; residual 1 at one row -> 0.5
        assert nmse([1.0, 2.0], [0.0, 2.0]) == 0.5

    def test_mean_predictor_scores_one(self):
        y = np.array([1.0, 5.0, 3.0, 7.0])
        preds = np.full_like(y, y.mean())
        assert nmse(preds, y) == pytest.approx(1.0)

    def test_exact_scores_zero(self):
        y = np.array([1.0, 5.0, 3.0])
        assert nmse(y, y) == 0.0

    def test_scale_invariance(self):
        y = np.array([1.0, 2.0, 5.0])
        p = np.array([1.5, 2.5, 4.0])
        assert nmse(3.0 * p, 3.0 * y) == pytest.approx(nmse(p, y))

    def test_shift_invariance(self):
        y = np.array([1.0, 2.0, 5.0])
        p = np.array([1.5, 2.5, 4.0])
        assert nmse(p + 10.0, y + 10.0) == pytest.approx(nmse(p, y))

    def test_degenerate_constant_target(self):
        with pytest.raises(DegenerateTargetError):
            nmse([1.0, 2.0], [3.0, 3.0])

    def test_degenerate_single_row(self):
        with pytest.raises(DegenerateTargetError):
            nmse([1.0], [2.0])

    def test_non_finite_prediction_sentinel(self):
        assert nmse([float("nan"), 0.0], [1.0, 2.0]) == INF

    def test_huge_finite_prediction_is_inf_without_a_warning(self):
        # the residuals were squared outside any errstate, so a candidate
        # predicting beyond about 1e154 warned, and `-W error` made
        # `symreg run` exit 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nmse([1e200, 1e200, 0.0], [1.0, 2.0, 3.0]) == INF


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 4
        assert cfg.max_evaluations == 5000
        assert fit.PENALTY == 1e10

    def test_rejects_zero_restarts(self):
        with pytest.raises(FitError):
            OptimizerConfig(restarts=0)

    def test_rejects_zero_budget(self):
        with pytest.raises(FitError):
            OptimizerConfig(max_evaluations=0)

    # a float budget passed validation, then failed every fit in range() or
    # reached scipy as a float
    @pytest.mark.parametrize("name", ["restarts", "max_iterations", "max_evaluations"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    def test_rejects_non_integer_budgets(self, name, value):
        with pytest.raises(FitError, match=name):
            OptimizerConfig(**{name: value})

    def test_accepts_numpy_integer_budgets(self):
        assert OptimizerConfig(restarts=np.int64(2)).restarts == 2


class TestFitParams:
    def test_linear_exact_recovery(self, linear_dataset):
        sk = parse("p0 * x0 + p1", 1)
        result = fit_params(sk, linear_dataset, seed=0)
        assert result.params[0] == pytest.approx(2.0, abs=1e-6)
        assert result.params[1] == pytest.approx(0.0, abs=1e-6)
        assert result.train_mse < 1e-10
        assert result.converged

    def test_parameter_free_skeleton_short_circuits(self, linear_dataset):
        sk = parse("x0 + x0", 1)
        result = fit_params(sk, linear_dataset, seed=0)
        assert result.params == ()
        assert result.restarts_used == 0
        assert result.evaluations == 1
        assert result.train_mse == pytest.approx(0.0)
        assert result.converged

    def test_determinism(self, kepler_dataset):
        sk = parse("p0 * (x0 ^ p1)", 1)
        a = fit_params(sk, kepler_dataset, seed=7)
        b = fit_params(sk, kepler_dataset, seed=7)
        assert a == b

    def test_seed_changes_extra_starts_not_quality(self, kepler_dataset):
        sk = parse("p0 * (x0 ^ p1)", 1)
        a = fit_params(sk, kepler_dataset, seed=1)
        b = fit_params(sk, kepler_dataset, seed=2)
        # both must land on the same optimum even if paths differ
        assert a.train_mse == pytest.approx(b.train_mse, abs=1e-8)

    def test_never_worse_than_all_ones_start(self):
        # pathological skeleton; best-seen tracking still caps the result
        rng = np.random.default_rng(3)
        X = rng.uniform(0.5, 2.0, size=(40, 1))
        y = rng.normal(size=40)
        ds = make_dataset(X, y)
        sk = parse("exp(p0 * x0) + p1 * sin(p2 * x0)", 1)
        result = fit_params(sk, ds, seed=0)
        from symreg.expr import evaluate

        ones_pred = evaluate(sk, X, np.ones(3))
        ones_mse = float(np.mean((ones_pred - y) ** 2))
        assert result.train_mse <= ones_mse + 1e-12

    def test_evaluation_budget_respected(self, kepler_dataset):
        sk = parse("p0 * (x0 ^ p1) + p2", 1)
        cfg = OptimizerConfig(restarts=4, max_evaluations=50)
        result = fit_params(sk, kepler_dataset, cfg, seed=0)
        assert result.evaluations <= 50

    def test_budget_exhaustion_stops_restarts(self, kepler_dataset):
        sk = parse("p0 * (x0 ^ p1) + p2", 1)
        tight = fit_params(
            sk, kepler_dataset, OptimizerConfig(restarts=4, max_evaluations=30), seed=0
        )
        assert tight.restarts_used < 4

    def test_arity_mismatch(self, linear_dataset):
        sk = parse("p0 * x0 + p1 * x1", 2)
        with pytest.raises(FitError, match="arity"):
            fit_params(sk, linear_dataset, seed=0)

    def test_penalty_handles_domain_errors(self):
        # log of negatives is penalized per-row, not fatal
        X = np.linspace(-2.0, 2.0, 30).reshape(-1, 1)
        y = np.abs(X[:, 0])
        ds = make_dataset(X, y)
        result = fit_params(parse("p0 * log(x0)", 1), ds, seed=0)
        assert math.isfinite(result.train_mse)

    def test_multistart_beats_single_start_on_multimodal(self):
        # period fitting is multimodal; extra starts should never hurt
        t = np.linspace(0, 6, 120)
        y = np.sin(3.0 * t)
        ds = make_dataset(t, y)
        sk = parse("sin(p0 * x0)", 1)
        single = fit_params(sk, ds, OptimizerConfig(restarts=1), seed=0)
        multi = fit_params(sk, ds, OptimizerConfig(restarts=8), seed=0)
        assert multi.train_mse <= single.train_mse + 1e-12

    def test_quadratic_recovery(self):
        x = np.linspace(-3, 3, 50)
        y = 1.5 * x**2 - 2.0 * x + 0.5
        ds = make_dataset(x, y)
        result = fit_params(parse("p0 * x0 ^ 2 + p1 * x0 + p2", 1), ds, seed=0)
        assert result.params == pytest.approx((1.5, -2.0, 0.5), abs=1e-5)


def _per_probe_fit(skeleton, dataset, config, seed) -> FitResult:
    """fit_params as it was with a sequential finite-difference gradient:
    each probe is one evaluation of one parameter vector, counted and
    checked against the best seen in turn.  The reference the block
    gradient must reproduce exactly."""
    X, y = dataset.features, dataset.target
    k = skeleton.param_count
    state = {"evals": 0, "best_f": math.inf, "best_x": np.ones(k)}

    class BudgetExceeded(Exception):
        pass

    def counted(theta):
        if state["evals"] >= config.max_evaluations:
            raise BudgetExceeded
        state["evals"] += 1
        with np.errstate(all="ignore"):
            sq = (evaluate(skeleton, X, theta) - y) ** 2
        f = float(np.mean(np.where(np.isfinite(sq), sq, fit.PENALTY)))
        if f < state["best_f"]:
            state["best_f"] = f
            state["best_x"] = np.array(theta, dtype=float)
        return f

    def gradient(theta):
        g = np.empty(k)
        for i in range(k):
            h = fit.GRADIENT_STEP * max(1.0, abs(float(theta[i])))
            up = np.array(theta, dtype=float)
            dn = np.array(theta, dtype=float)
            up[i] += h
            dn[i] -= h
            g[i] = (counted(up) - counted(dn)) / (2.0 * h)
        return g

    rng = np.random.default_rng(seed)
    starts = [np.ones(k)] + [rng.standard_normal(k) for _ in range(config.restarts - 1)]
    converged = False
    restarts_used = 0
    for x0 in starts:
        restarts_used += 1
        try:
            counted(x0)
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = minimize(
                    counted,
                    x0,
                    method="BFGS",
                    jac=gradient,
                    options={
                        "maxiter": config.max_iterations,
                        "gtol": fit.GRADIENT_TOLERANCE,
                    },
                )
            converged = converged or bool(result.success)
        except BudgetExceeded:
            break
    return FitResult(
        params=tuple(float(v) for v in state["best_x"]),
        train_mse=float(state["best_f"]),
        converged=converged,
        restarts_used=restarts_used,
        evaluations=state["evals"],
    )


class TestBlockGradient:
    """The block finite-difference gradient reproduces the per-probe loop,
    including a budget that runs out inside a gradient."""

    # the last skeleton is flat in p1, so probes along it tie with the best
    # seen and only a strict < keeps the earlier point
    @pytest.mark.parametrize(
        "text", ["p0 * (x0 ^ p1) + p2", "p0 * log(x0 - p1) + p2", "p0 * x0 + 0.0 * p1"]
    )
    @pytest.mark.parametrize("rows_per_block", [1, 2, None])
    def test_budget_sweep_matches_per_probe_loop(
        self, kepler_dataset, monkeypatch, text, rows_per_block
    ):
        if rows_per_block is not None:
            # a block of 1 or 2 probes, as on a large dataset
            n = len(kepler_dataset.target)
            monkeypatch.setattr(fit, "MAX_BLOCK_ELEMENTS", rows_per_block * n)
        sk = parse(text, 1)
        # 2k = 6 probes per gradient, so these budgets end at every offset
        # inside one, over the first restarts
        for budget in range(1, 61):
            config = OptimizerConfig(restarts=3, max_evaluations=budget)
            got = fit_params(sk, kepler_dataset, config, seed=1)
            assert got == _per_probe_fit(sk, kepler_dataset, config, 1), budget
            assert got.evaluations <= budget

    def test_unbounded_fit_matches_per_probe_loop(self, kepler_dataset):
        sk = parse("p0 * (x0 ^ p1) + p2 * sin(p3 * x0)", 1)
        config = OptimizerConfig(restarts=2)
        got = fit_params(sk, kepler_dataset, config, seed=3)
        assert got == _per_probe_fit(sk, kepler_dataset, config, 3)
        assert got.evaluations < config.max_evaluations


    # kepler has 80 rows: tiles of 16 divide them, 30/30/20 do not, and a
    # bound of 80 gives one tile
    @pytest.mark.parametrize(
        "text", ["p0 * sin(x0) + p1", "p0 + exp(x0 * 2.0)", "p0", "p0 * (x0 ^ p1) + p2"]
    )
    @pytest.mark.parametrize("tile_rows", [16, 30, 80])
    def test_row_tiles_match_per_probe_loop(self, kepler_dataset, monkeypatch, text, tile_rows):
        monkeypatch.setattr(fit, "MAX_BLOCK_ELEMENTS", tile_rows)
        sk = parse(text, 1)
        for budget in (5, 40, 5000):
            config = OptimizerConfig(restarts=2, max_evaluations=budget)
            got = fit_params(sk, kepler_dataset, config, seed=2)
            assert got == _per_probe_fit(sk, kepler_dataset, config, 2), budget

    def test_penalty_in_one_tile_matches_per_probe_loop(self, kepler_dataset, monkeypatch):
        # log(x0) is non-finite on rows 30..59 only: the middle tile of 30/30/20
        X = kepler_dataset.features.copy()
        X[30:60] *= -1.0
        ds = make_dataset(X, kepler_dataset.target)
        monkeypatch.setattr(fit, "MAX_BLOCK_ELEMENTS", 30)
        sk = parse("p0 * log(x0) + p1", 1)
        config = OptimizerConfig(restarts=2)
        got = fit_params(sk, ds, config, seed=1)
        assert got == _per_probe_fit(sk, ds, config, 1)
        assert got.train_mse > 1e10 * 30 / 80  # the penalized rows count

    @pytest.mark.parametrize("text", ["p0", "x0 ^ p0", "p1 * x0 ^ p0"])
    @pytest.mark.parametrize("tile_rows", [1, 80])
    def test_objective_leaves_params_alone(self, kepler_dataset, monkeypatch, text, tile_rows):
        # on one-row tiles a bare Param's block evaluates to a view of the
        # params, and a block's pow rows at fast-path exponents are rewritten
        # in the evaluator's output
        monkeypatch.setattr(fit, "MAX_BLOCK_ELEMENTS", tile_rows)
        X, y = kepler_dataset.features, kepler_dataset.target
        sk = parse(text, 1)
        objective = fit._penalized_objective(sk, X, y, 4)
        theta = np.array([[2.0, 0.5]])[:, : sk.param_count]
        block = np.array([[2.0, 1.0], [0.5, 3.0], [-1.0, 1.0]])[:, : sk.param_count]
        saved = theta.copy(), block.copy()
        first = objective(theta), objective(block)
        assert np.array_equal(theta, saved[0]) and np.array_equal(block, saved[1])
        assert np.array_equal(objective(theta), first[0])
        assert np.array_equal(objective(block), first[1])

    @pytest.mark.parametrize("rows", [300, 20_000])
    def test_no_operator_call_exceeds_the_block_bound(self, monkeypatch, rows):
        # a call over more elements than the bound allocates arrays big enough
        # for glibc to map and unmap, or trim and re-fault, on every evaluation
        sizes = []

        def recording(fn):
            def wrapped(*args):
                out = fn(*args)
                sizes.append(np.size(out))
                return out

            return wrapped

        for table in (expr.UNARY, expr.BINARY):
            for name, fn in list(table.items()):
                monkeypatch.setitem(table, name, recording(fn))
        rng = np.random.default_rng(5)
        X = rng.uniform(0.5, 3.0, size=(rows, 2))
        ds = make_dataset(X, 1.5 * X[:, 0] ** 1.5 + np.cos(X[:, 1]))
        sk = parse("p0 * x0 ^ p1 + p2 * cos(x1) - sqrt(abs(x1 / p2))", 2)
        result = fit_params(sk, ds, OptimizerConfig(restarts=1, max_evaluations=120), seed=0)
        assert result.evaluations == 120
        assert sizes and max(sizes) <= fit.MAX_BLOCK_ELEMENTS
        # blocks of probes fill the bound when the rows leave room
        assert max(sizes) > rows or rows > fit.MAX_BLOCK_ELEMENTS


# a fixed problem for the property below: x0 crosses 0, so log, sqrt and inv
# skeletons take penalty rows
_PROPERTY_X = np.column_stack(
    [np.random.default_rng(21).uniform(-1.0, 3.0, 40), np.random.default_rng(22).uniform(0.5, 3.0, 40)]
)
_PROPERTY_DATA = make_dataset(_PROPERTY_X, _PROPERTY_X[:, 1] ** 1.5 + np.sin(_PROPERTY_X[:, 0]))


def _record_blocks(monkeypatch, record):
    """Make every objective a fit builds call `record(theta)` first."""
    make = fit._penalized_objective

    def recording(*args):
        objective = make(*args)

        def wrapped(theta):
            record(theta)
            return objective(theta)

        return wrapped

    monkeypatch.setattr(fit, "_penalized_objective", recording)


class TestOwnLoop:
    """The in-repo BFGS loop gives what a sequential loop of
    scipy.optimize.minimize calls gives (_per_probe_fit), bit for bit."""

    @given(
        seed=st.integers(0, 100_000),
        restarts=st.integers(1, 4),
        budget=st.integers(1, 200),
        rows_per_block=st.sampled_from([1, 2, None]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_minimize_reference(self, seed, restarts, budget, rows_per_block):
        sk = random_expression(2, seed)
        assume(sk.param_count > 0)
        bound = fit.MAX_BLOCK_ELEMENTS if rows_per_block is None else rows_per_block * 40
        config = OptimizerConfig(restarts=restarts, max_evaluations=budget)
        with mock.patch.object(fit, "MAX_BLOCK_ELEMENTS", bound):
            got = fit_params(sk, _PROPERTY_DATA, config, seed=seed)
        # repr tells -0.0 from 0.0 in the params, as a trace does
        assert repr(got) == repr(_per_probe_fit(sk, _PROPERTY_DATA, config, seed))

    def test_cache_hits_negative_zero_and_misses_nan(self):
        run = fit._BFGS(np.array([0.0, 1.0]), OptimizerConfig())

        def requests(x, value, gradient):
            """The row blocks one visit asks for; each is answered with 5s."""
            steps, asked = run._visit(np.array(x), value, gradient), []
            try:
                rows = next(steps)
                while True:
                    asked.append(rows)
                    rows = steps.send(np.full(len(rows), 5.0))
            except StopIteration:
                return asked

        assert len(requests([0.0, 1.0], True, False)) == 1
        # -0.0 == 0.0: the value is cached, and the gradient is taken at the
        # cached point, +0.0, as scipy's ScalarFunction takes it
        assert requests([-0.0, 1.0], True, False) == []
        (probes,) = requests([-0.0, 1.0], False, True)
        assert len(probes) == 4 and not np.signbit(probes[2:, 0]).any()
        assert requests([-0.0, 1.0], True, True) == []
        # nan equals nothing, itself included: every visit evaluates again
        assert [len(r) for r in requests([np.nan, 1.0], True, True)] == [5]
        assert [len(r) for r in requests([np.nan, 1.0], True, False)] == [1]
        assert [len(r) for r in requests([np.nan, 1.0], False, True)] == [4]

    def test_nan_parameter_vector_matches_reference(self, monkeypatch):
        # the two squared errors sum to 90% of the largest float at the start,
        # so the first step overflows the mean to inf, the gradient there is
        # inf - inf = nan, and BFGS steps to a nan parameter vector
        X = np.full((2, 1), 8.99e153)
        ds = make_dataset(X, np.zeros(2))
        sk = parse("p0 * x0 + p1", 1)
        requested = []
        _record_blocks(monkeypatch, lambda theta: requested.append(np.isnan(theta).any()))
        for budget in (5, 30, 5000):
            config = OptimizerConfig(restarts=2, max_evaluations=budget)
            got = fit_params(sk, ds, config, seed=4)
            assert got == _per_probe_fit(sk, ds, config, 4)
        assert any(requested)

    def test_restart_ending_on_the_last_allowed_evaluation(self, kepler_dataset):
        sk = parse("p0 * (x0 ^ p1) + p2", 1)
        unbounded = fit_params(sk, kepler_dataset, OptimizerConfig(restarts=1), seed=0)
        config = OptimizerConfig(restarts=1, max_evaluations=unbounded.evaluations)
        got = fit_params(sk, kepler_dataset, config, seed=0)
        assert got == unbounded == _per_probe_fit(sk, kepler_dataset, config, 0)
        assert got.converged

    def test_restart_with_no_evaluation_left_still_counts(self, kepler_dataset):
        # restart 1 ends on the last allowed evaluation; restart 2's cap is 0
        # and restart 3 never starts, though the loop ran both ahead
        sk = parse("p0 * (x0 ^ p1) + p2", 1)
        natural = fit_params(sk, kepler_dataset, OptimizerConfig(restarts=1), seed=0).evaluations
        config = OptimizerConfig(restarts=3, max_evaluations=natural)
        got = fit_params(sk, kepler_dataset, config, seed=0)
        assert got == _per_probe_fit(sk, kepler_dataset, config, 0)
        assert (got.restarts_used, got.evaluations, got.converged) == (2, natural, True)
        # one evaluation more, and restart 2 stops after its start point
        config = OptimizerConfig(restarts=3, max_evaluations=natural + 1)
        got = fit_params(sk, kepler_dataset, config, seed=0)
        assert got == _per_probe_fit(sk, kepler_dataset, config, 0)
        assert (got.restarts_used, got.evaluations) == (2, natural + 1)

    def test_request_spanning_two_blocks(self, monkeypatch):
        # k = 10 at n = 160: 51 vectors per call, and the three restarts'
        # 2 + 2k = 22-row start requests make 66 rows
        rng = np.random.default_rng(9)
        X = rng.uniform(0.5, 2.0, size=(160, 2))
        ds = make_dataset(X, X[:, 0] ** 2 + np.cos(X[:, 1]))
        sk = parse(" + ".join(f"p{i} * x{i % 2} ^ {i % 3 + 1}" for i in range(10)), 2)
        assert sk.param_count == 10
        sizes = []
        _record_blocks(monkeypatch, lambda theta: sizes.append(len(theta)))
        for budget in (5000, 130, 60):
            config = OptimizerConfig(restarts=3, max_evaluations=budget)
            got = fit_params(sk, ds, config, seed=5)
            assert got == _per_probe_fit(sk, ds, config, 5), budget
        assert sizes[:2] == [51, 15]

    def test_wolfe2_fallback_raises_no_warning(self, monkeypatch):
        fallbacks = []
        wolfe2 = fit._BFGS._wolfe2

        def counting(self, *args):
            fallbacks.append(args)
            return (yield from wolfe2(self, *args))

        monkeypatch.setattr(fit._BFGS, "_wolfe2", counting)
        # Moré-Thuente gives up on this skeleton once
        sk = parse("exp(exp(x0)) - p0", 2)
        config = OptimizerConfig(restarts=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_params(sk, _PROPERTY_DATA, config, seed=104)
        assert len(fallbacks) == 1
        assert got == _per_probe_fit(sk, _PROPERTY_DATA, config, 104)


def _penalty_first(skeleton, X, y, penalty, block):
    """The objective as it was: every non-finite square penalized, then the
    rows summed."""
    with np.errstate(all="ignore"):
        sq = (evaluate(skeleton, X, block) - y) ** 2
        np.copyto(sq, penalty, where=~np.isfinite(sq))
        return np.add.reduce(sq, axis=-1) / len(y)


class TestObjectiveFastPath:
    """The objective sums the squares first and penalizes only a block with a
    non-finite row sum; its values are the penalty-first values bit for bit."""

    # sqrt(x0 + p0) is nan on the rows where x0 < -p0 only; |p1| = 1.2e154
    # squares to near the largest float, so a row's sum overflows while
    # every square stays finite
    SKELETON = "sqrt(x0 + p0) + p1 * x0"
    X = np.array([[1.0], [0.9], [-0.5], [1.1], [0.2]])
    Y = np.array([1.0, -2.0, 0.25, 4.0, 1e-3])
    VALUES = st.one_of(
        st.floats(-10.0, 10.0),
        st.sampled_from([0.0, -0.0, 1.2e154, -1.2e154, 1e200, INF, -INF, math.nan]),
    )

    @given(
        st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=6),
        st.sampled_from([1, 2, 5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_penalty_first_reference(self, rows, tile_rows):
        sk = parse(self.SKELETON, 1)
        block = np.array(rows)
        with mock.patch.object(fit, "MAX_BLOCK_ELEMENTS", tile_rows):
            objective = fit._penalized_objective(sk, self.X, self.Y, len(block))
        with np.errstate(all="ignore"):
            got = objective(block)
        want = _penalty_first(sk, self.X, self.Y, 1e10, block)
        assert [repr(v) for v in got] == [repr(v) for v in want]

    def test_examples_cover_every_kind_of_row(self):
        sk = parse(self.SKELETON, 1)
        block = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, INF], [1.0, 1.2e154]])
        with np.errstate(all="ignore"):
            sq = (evaluate(sk, self.X, block) - self.Y) ** 2
            sums = np.add.reduce(sq, axis=-1)
        assert np.isfinite(sums[0])  # finite
        assert np.isnan(sq[1, 2]) and np.isfinite(np.delete(sq[1], 2)).all()  # one nan
        assert not np.isfinite(sq[2]).any()  # every square inf
        assert np.isfinite(sq[3]).all() and sums[3] == INF  # finite squares overflow
        objective = fit._penalized_objective(sk, self.X, self.Y, 4)
        with np.errstate(all="ignore"):
            got = objective(block)
        want = _penalty_first(sk, self.X, self.Y, 1e10, block)
        assert [repr(v) for v in got] == [repr(v) for v in want]
        assert got[1] > 1e10 / 5 and got[3] == INF


# 1-D functions for the line-search oracle: a random quartic, which may turn
# non-finite past a cliff, or a sequence of arbitrary replies
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-100, 1e100, 1e308, -1e308, 5e-324]),
)
_COEFFICIENT = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 1e150, -1e150]))


@st.composite
def _line_functions(draw):
    if draw(st.booleans()):
        c = draw(st.lists(_COEFFICIENT, min_size=5, max_size=5))
        cliff = draw(st.one_of(st.just(INF), st.floats(0.0, 100.0)))
        beyond = draw(st.sampled_from([(INF, math.nan), (math.nan, math.nan), (INF, 1.0)]))
        # descent at 0 unless c[1] is drawn otherwise
        if draw(st.booleans()):
            c[1] = -abs(c[1]) - 1.0

        def phi(a):
            if a > cliff:
                return beyond
            f = c[0] + a * (c[1] + a * (c[2] + a * (c[3] + a * c[4])))
            g = c[1] + a * (2 * c[2] + a * (3 * c[3] + a * 4 * c[4]))
            return float(f), g

        return (lambda: phi), c[0], c[1]
    replies = draw(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=12))

    def fresh():
        """The replies in a cycle, from the first, for one search."""
        it = itertools.cycle(replies)
        return lambda a: next(it)

    return fresh, draw(_ANY_FLOAT), draw(_ANY_FLOAT)


def _trial_steps(search, phi, stp, f, g):
    """(repr(step), task) after each step of a search, driven as the fit
    drives its line search; an exception ends the record with its type."""
    seen = []
    try:
        seen.extend(search(phi, stp, f, g))
    except ArithmeticError as exc:
        seen.append(type(exc).__name__)
    return seen


def _scipy_steps(phi, stp, f, g):
    search = DCSRCH(None, None, fit.C1, fit.C2, fit.STEP_XTOL, fit.STEP_MIN, fit.STEP_MAX)
    task = b"START"
    for _ in range(fit.DCSRCH_ITERATIONS):
        stp, f, g, task = search._iterate(stp, f, g, task)
        yield repr(stp), task.decode()
        if not np.isfinite(stp) or task != b"FG":
            return
        f, g = phi(stp)


def _own_steps(phi, stp, f, g):
    search = fit._dcsrch(stp, f, g)
    reply = None
    try:
        for _ in range(fit.DCSRCH_ITERATIONS):
            stp = search.send(reply)
            yield repr(stp), "FG"
            if not np.isfinite(stp):
                return
            reply = phi(stp)
    except StopIteration as stop:
        yield repr(stp), stop.value


class TestLineSearchPort:
    """The ported Moré-Thuente search and interpolants are scipy 1.17's, bit
    for bit: the same steps, the same exits, the same -0.0 and nan."""

    @given(
        _line_functions(),
        st.one_of(
            st.floats(1e-3, 10.0),
            _ANY_FLOAT,
            st.sampled_from([1e-101, 1e-100, 1e100, 2e100, 1e99]),
        ),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_dcsrch_takes_scipys_steps(self, function, stp, numpy_step):
        make_phi, f0, g0 = function
        f0, g0 = float(f0), np.float64(g0)
        if numpy_step:
            stp = np.float64(stp)
        with np.errstate(all="ignore"):
            want = _trial_steps(_scipy_steps, make_phi(), stp, f0, g0)
            got = _trial_steps(_own_steps, make_phi(), stp, f0, g0)
        assert got == want

    def test_oracle_reaches_every_exit(self):
        # each exit the fit's settings allow, on a hand-made function
        def quartic(*c):
            def phi(a):
                f = c[0] + a * (c[1] + a * (c[2] + a * (c[3] + a * c[4])))
                return float(f), np.float64(c[1] + a * (2 * c[2] + a * (3 * c[3] + a * 4 * c[4])))

            return phi

        quadratic = quartic(4.0, -4.0, 1.0, 0.0, 0.0)  # (a - 2) ** 2
        linear = quartic(0.0, -1.0, 0.0, 0.0, 0.0)
        steep = quartic(4.0, 1e200, 0.0, 0.0, 0.0)
        rounding = quartic(
            -0.00021948618138221146, -0.0017288528325296077, 0.14777407893679356,
            -184.09106965471292, 0.00033231713154985304,
        )
        xtol = quartic(
            -35.41716800463659, -0.0021371284362290397, 0.004101846928339126,
            -133.900823449798, 0.001151470497726105,
        )
        cases = {
            "CONVERGENCE": (quadratic, 1.0, 4.0, -4.0),
            "ERROR: STP .LT. STPMIN": (quadratic, 1e-101, 4.0, -4.0),
            "ERROR: STP .GT. STPMAX": (quadratic, 2e100, 4.0, -4.0),
            "ERROR: INITIAL G .GE. ZERO": (quadratic, 1.0, 4.0, 4.0),
            "WARNING: STP = STPMAX": (linear, 1e99, 0.0, -1.0),
            "WARNING: STP = STPMIN": (steep, 1e-100, 4.0, -1.0),
            "WARNING: ROUNDING ERRORS PREVENT PROGRESS": (
                rounding, 676.2152275926338, -0.00021948618138221146, -0.0017288528325296077,
            ),
            "WARNING: XTOL TEST SATISFIED": (
                xtol, 577.7443239616518, -35.41716800463659, -0.0021371284362290397,
            ),
        }
        for task, (phi, stp, f0, g0) in cases.items():
            g0 = np.float64(g0)
            with np.errstate(all="ignore"):
                want = _trial_steps(_scipy_steps, phi, stp, f0, g0)
                got = _trial_steps(_own_steps, phi, stp, f0, g0)
            assert got == want and got[-1][1] == task, task

    def test_fallback_after_scipys_cap_of_trial_steps(self):
        # phi(alpha) = -alpha never meets the curvature condition, so the
        # search extrapolates until scipy's cap of 100 trial steps and then
        # hands over to wolfe2
        config = OptimizerConfig()

        def F(x):
            return float(-x[0])

        def gradient(x):
            h = fit.GRADIENT_STEP * max(1.0, abs(float(x[0])))
            return np.array([(F(x + h) - F(x - h)) / (2.0 * h)])

        xk = np.zeros(1)
        gfk = gradient(xk)
        pk = -gfk
        old_fval, old_old_fval = F(xk), F(xk) + 1.0
        run = fit._BFGS(xk, config)
        run.f, run.g = old_fval, gfk
        requests = []
        steps = run._line_search(xk, pk, gfk, old_fval, old_old_fval)
        try:
            rows = next(steps)
            while True:
                requests.append(rows)
                rows = steps.send(np.array([F(r) for r in rows]))
        except StopIteration as stop:
            got = stop.value
        # each Moré-Thuente trial step asks for its value and gradient at once
        own_trials = [float(rows[0, 0]) for rows in requests if len(rows) == 3]

        scipy_trials = []

        def phi(alpha):
            scipy_trials.append(float(alpha))
            return F(xk + alpha * pk)

        derphi0 = np.dot(gfk, pk)
        search = DCSRCH(
            phi, lambda alpha: np.dot(gradient(xk + alpha * pk), pk),
            fit.C1, fit.C2, fit.STEP_XTOL, fit.STEP_MIN, fit.STEP_MAX,
        )
        with np.errstate(all="ignore"):
            stp, *_ = search(fit._first_step(old_fval, old_old_fval, derphi0), old_fval, derphi0)
            want = _line_search_wolfe12(F, gradient, xk, pk, gfk, old_fval, old_old_fval)
        assert stp is None and len(scipy_trials) == fit.DCSRCH_ITERATIONS
        assert own_trials == scipy_trials
        alpha, fval, old, gfkp1 = got
        assert repr((alpha, fval, old, gfkp1)) == repr((want[0], *want[3:]))

    # the line search passes a mix of Python floats and numpy scalars: on
    # the one, division by zero raises; on the other, np.errstate decides
    @given(
        st.lists(
            st.tuples(_ANY_FLOAT, st.booleans()).map(lambda v: np.float64(v[0]) if v[1] else v[0]),
            min_size=7,
            max_size=7,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_interpolants_match_scipy(self, values):
        a, fa, fpa, b, fb, c, fc = values
        assert repr(fit._quadmin(a, fa, fpa, b, fb)) == repr(_quadmin(a, fa, fpa, b, fb))
        assert repr(fit._cubicmin(a, fa, fpa, b, fb, c, fc)) == repr(
            _cubicmin(a, fa, fpa, b, fb, c, fc)
        )

    def test_interpolants_on_hand_cases(self):
        cases = [
            (0, 1.0, -1.0, 1.0, 0.5, 0.5, 0.6),  # an int end, as _zoom passes a_rec
            (0.0, 1.0, -1.0, 0.0, 0.5, 0.0, 0.6),  # coincident points divide by zero
            (0.0, 1e308, -1e308, 1e308, 1e308, -1e308, 1e308),  # overflow
            (-0.0, 0.0, -0.0, 1.0, 0.0, 2.0, 0.0),  # a flat line
            # numpy scalars: a zero divisor goes through np.errstate
            (0.0, 1.0, np.float64(-1.0), 0.0, 0.5, np.float64(0.0), 0.6),
        ]
        for a, fa, fpa, b, fb, c, fc in cases:
            assert repr(fit._quadmin(a, fa, fpa, b, fb)) == repr(_quadmin(a, fa, fpa, b, fb))
            assert repr(fit._cubicmin(a, fa, fpa, b, fb, c, fc)) == repr(
                _cubicmin(a, fa, fpa, b, fb, c, fc)
            )


class TestNormalEquationsOracle:
    """BFGS on a linear model must match the closed-form least squares fit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_lstsq(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 2))
        w = rng.normal(size=2)
        b = rng.normal()
        y = X @ w + b + 0.05 * rng.normal(size=60)
        ds = make_dataset(X, y)
        result = fit_params(parse("p0 * x0 + p1 * x1 + p2", 2), ds, seed=seed)
        design = np.column_stack([X, np.ones(60)])
        ref, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert result.params == pytest.approx(tuple(ref), abs=1e-5)
        ref_mse = float(np.mean((design @ ref - y) ** 2))
        assert result.train_mse == pytest.approx(ref_mse, rel=1e-6, abs=1e-10)


class TestEvaluateCandidate:
    def test_fitness_is_negative_val_nmse(self, kepler_dataset):
        view = split(kepler_dataset, seed=0)
        cand = evaluate_candidate(parse("p0 * (x0 ^ p1)", 1), view, seed=0)
        assert cand.is_valid
        assert cand.fitness <= 0.0
        assert cand.fitness == pytest.approx(0.0, abs=1e-8)

    def test_fit_uses_tr_tr_only(self, kepler_dataset):
        view = split(kepler_dataset, seed=0)
        cand = evaluate_candidate(parse("p0 * x0 + p1", 1), view, seed=0)
        direct = fit_params(parse("p0 * x0 + p1", 1), view.tr_tr, seed=0)
        assert cand.fit == direct

    def test_invalid_on_domain_failure(self):
        # model is non-finite on every tr-val row regardless of params
        X = np.concatenate([np.full(20, -1.0), np.full(5, -2.0)]).reshape(-1, 1)
        y = np.arange(25.0)
        ds = make_dataset(X, y)
        view = split(ds, seed=0)
        cand = evaluate_candidate(parse("log(x0) + p0", 1), view, seed=0)
        assert not cand.is_valid
        assert cand.fitness == -INF

    def test_candidate_validity_flag(self):
        sk = parse("p0 * x0", 1)
        fit = fit_params(sk, make_dataset([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]))
        assert Candidate(sk, fit, fitness=-0.5).is_valid
        assert not Candidate(sk, fit, fitness=-INF).is_valid
        assert not Candidate(sk, fit, fitness=float("nan")).is_valid
