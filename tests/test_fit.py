import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg.data import split
from symreg.expr import parse
from symreg.fit import (
    Candidate,
    DegenerateTargetError,
    FitError,
    OptimizerConfig,
    evaluate_candidate,
    fit_params,
    mse,
    nmse,
)
from tests.conftest import make_dataset

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


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 4
        assert cfg.max_evaluations == 5000
        assert cfg.penalty == 1e10

    def test_rejects_zero_restarts(self):
        with pytest.raises(FitError):
            OptimizerConfig(restarts=0)

    def test_rejects_zero_budget(self):
        with pytest.raises(FitError):
            OptimizerConfig(max_evaluations=0)


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
