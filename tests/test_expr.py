import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg.expr import (
    MAX_DEPTH,
    MAX_PARAMS,
    Binary,
    Const,
    ExpressionError,
    Param,
    ParseError,
    Skeleton,
    Unary,
    Var,
    depth,
    evaluate,
    parse,
    random_expression,
    random_mutation,
    skeleton_from_node,
)
from symreg.fit import OptimizerConfig, fit_params
from tests.conftest import make_dataset


def _param_slots(text: str) -> list[int]:
    return sorted({int(i) for i in re.findall(r"p(\d+)", text)})


class TestParse:
    def test_linear_skeleton(self):
        s = parse("p0*x0 + p1*x1 + p2", 2)
        assert s.param_count == 3
        assert s.arity == 2

    def test_identity_has_no_params(self):
        s = parse("x0", 1)
        assert s.param_count == 0

    def test_power_law_skeleton(self):
        s = parse("p0 * x0^p1 * x1^p2 * x2^p3 * x3^p4", 4)
        assert s.param_count == 5

    def test_whitespace_insensitive(self):
        a = parse("p0*x0+p1", 1)
        b = parse("  p0 * x0   +   p1 ", 1)
        assert a.expression == b.expression

    def test_function_call_syntax(self):
        s = parse("log(exp(x0))", 1)
        assert isinstance(s.expression, Unary)
        assert s.expression.op == "log"

    def test_pow_function_equals_caret(self):
        assert parse("pow(x0, p0)", 1).expression == parse("x0^p0", 1).expression

    def test_caret_right_associative(self):
        s = parse("x0^p0^p1", 1)
        assert s.expression == Binary("pow", Var(0), Binary("pow", Param(0), Param(1)))

    def test_unary_minus_binds_looser_than_caret(self):
        s = parse("-x0^2", 1)
        assert s.expression == Unary("neg", Binary("pow", Var(0), Const(2.0)))

    def test_negative_literal_folds_to_const(self):
        s = parse("-1.5", 1)
        assert s.expression == Const(-1.5)

    def test_scientific_notation(self):
        s = parse("1.5e-3 * x0", 1)
        assert s.text == "(0.0015 * x0)"

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("p0 * + x0", 1)
        assert err.value.position > 0
        assert "position" in str(err.value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("q0 * x0", 1)

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("tan(x0)", 1)

    def test_param_cap(self):
        with pytest.raises(ParseError, match="p10"):
            parse("p10 * x0", 1)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="x2"):
            parse("x2", 2)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x0 x0", 1)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(x0 + p0", 1)

    def test_bad_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("x0 @ p0", 1)

    def test_wrong_arg_count(self):
        with pytest.raises(ParseError, match="expects 1 argument"):
            parse("log(x0, x0)", 1)
        with pytest.raises(ParseError, match="expects 2 arguments"):
            parse("pow(x0)", 1)


class TestDepthBound:
    @pytest.mark.parametrize(
        "text",
        ["(" * 400 + "p0*x0" + ")" * 400, "sin(" * 2000 + "x0" + ")" * 2000],
        ids=["parentheses", "calls"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse(text, 1)

    @pytest.mark.parametrize(
        "text",
        ["+".join(["x0"] * 3000), "^".join(["x0"] * 3000), "-" * 3000 + "x0"],
        ids=["sum-chain", "power-chain", "minus-chain"],
    )
    def test_deep_trees_rejected(self, text):
        with pytest.raises(ExpressionError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(text, 1)

    def test_bound_is_inclusive(self):
        chain = parse("+".join(["x0"] * MAX_DEPTH), 1)
        assert depth(chain.expression) == MAX_DEPTH
        with pytest.raises(ExpressionError):
            parse("+".join(["x0"] * (MAX_DEPTH + 1)), 1)
        assert parse("(" * MAX_DEPTH + "x0" + ")" * MAX_DEPTH, 1).text == "x0"

    def test_deepest_skeleton_round_trips_and_fits(self):
        # alternating neg/add down to a negative constant, whose print "(-2.5)"
        # nests one level more than the constant itself
        node = Const(-2.5)
        for level in range(MAX_DEPTH - 1):
            node = Unary("neg", node) if level % 2 else Binary("add", node, Param(level % 3))
        sk = skeleton_from_node(node, 1)
        assert depth(sk.expression) == MAX_DEPTH
        assert parse(sk.text, 1) == sk
        with pytest.raises(ExpressionError, match="deeper than"):
            skeleton_from_node(Unary("sin", node), 1)
        # evaluation recurses once per level, inside scipy's minimize too
        X = np.linspace(0.5, 2.0, 12).reshape(-1, 1)
        config = OptimizerConfig(restarts=1, max_evaluations=400)
        result = fit_params(sk, make_dataset(X, X[:, 0]), config)
        assert math.isfinite(result.train_mse)


class TestCanonicalization:
    def test_params_renumbered_to_dense_prefix(self):
        s = parse("p5*x0 + p5 + p9", 1)
        assert s.param_count == 2
        assert s.text == "(((p0 * x0) + p0) + p1)"

    def test_renumbering_respects_first_occurrence(self):
        s = parse("p7 + p2*x0", 1)
        # p7 appears first in pre-order, so it becomes p0
        assert s.text == "(p0 + (p1 * x0))"

    def test_neg_const_folded_inside_tree(self):
        node = Binary("add", Unary("neg", Const(2.0)), Var(0))
        s = skeleton_from_node(node, 1)
        assert s.expression == Binary("add", Const(-2.0), Var(0))

    def test_text_excluded_from_equality(self):
        a = parse("p0*x0", 1)
        assert a == parse("p0 * x0", 1)
        assert dataclasses.replace(a, text="p0 * x0") == a

    def test_skeleton_from_node_validates(self):
        with pytest.raises(ExpressionError):
            skeleton_from_node(Var(3), 2)
        with pytest.raises(ExpressionError):
            skeleton_from_node(Param(11), 1)
        with pytest.raises(ExpressionError):
            skeleton_from_node(Unary("tan", Var(0)), 1)

    def test_first_invalid_node_in_pre_order_is_reported(self):
        with pytest.raises(ExpressionError, match="x5"):
            skeleton_from_node(Binary("add", Var(5), Param(11)), 1)
        with pytest.raises(ExpressionError, match="p11"):
            skeleton_from_node(Binary("add", Param(11), Var(5)), 1)
        with pytest.raises(ExpressionError, match="'foo'"):
            skeleton_from_node(Binary("foo", Var(5), Param(11)), 1)
        # validation runs before folding: the constant is named as passed
        with pytest.raises(ExpressionError, match="got 3$"):
            skeleton_from_node(Unary("neg", Const(3)), 1)


class TestPrint:
    def test_leaf(self):
        assert parse("x0", 1).text == "x0"

    def test_full_parenthesization(self):
        assert parse("p0*x0+p1", 1).text == "((p0 * x0) + p1)"

    def test_neg_prints_compactly(self):
        assert parse("-x0", 1).text == "(-x0)"

    def test_negative_zero_constant_round_trips(self):
        s = skeleton_from_node(Binary("pow", Const(-0.0), Var(0)), 1)
        assert s.text == "((-0.0) ^ x0)"
        again = parse(s.text, 1)
        assert again.expression == s.expression
        assert math.copysign(1.0, again.expression.left.value) < 0
        x = [[-2.0]]
        assert evaluate(again, x).tolist() == evaluate(s, x).tolist() == [math.inf]

    def test_round_trip_sample(self):
        for seed in range(50):
            s = random_expression(arity=3, rng_seed=seed)
            again = parse(s.text, 3)
            assert again.expression == s.expression

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, seed, arity):
        s = random_expression(arity=arity, rng_seed=seed)
        again = parse(s.text, arity)
        assert again.expression == s.expression
        assert again.param_count == s.param_count


class TestEvaluate:
    def test_identity_scaling(self):
        out = evaluate(parse("p0*x0", 1), [[2], [3]], [1.0])
        assert out.tolist() == [2.0, 3.0]

    def test_domain_violation_yields_non_finite(self):
        out = evaluate(parse("log(x0)", 1), [[-1.0]], [])
        assert out.shape == (1,)
        assert not np.isfinite(out[0])

    def test_power_law_row(self):
        out = evaluate(
            parse("p0*x0^p1*x1^p2*x2^p3*x3^p4", 4), [[2, 3, 5, 7]], [1, 1, 1, -1, -1]
        )
        assert out[0] == pytest.approx(6 / 35, abs=1e-12)

    def test_division_by_zero_is_sentinel(self):
        out = evaluate(parse("1/x0", 1), [[0.0], [2.0]], [])
        assert not np.isfinite(out[0])
        assert out[1] == 0.5

    def test_fractional_power_of_negative_is_sentinel(self):
        out = evaluate(parse("x0^p0", 1), [[-2.0]], [0.5])
        assert not np.isfinite(out[0])

    def test_constant_expression_broadcasts(self):
        out = evaluate(parse("p0", 1), [[1], [2], [3]], [4.0])
        assert out.tolist() == [4.0, 4.0, 4.0]

    def test_row_independence(self):
        s = parse("sqrt(x0) + p0", 1)
        rows = np.array([[4.0], [9.0], [16.0]])
        full = evaluate(s, rows, [1.0])
        for i in range(3):
            single = evaluate(s, rows[i : i + 1], [1.0])
            assert single[0] == full[i]

    def test_purity_bitwise(self):
        s = parse("sin(x0)*p0 + cos(x0)", 1)
        X = np.linspace(-2, 2, 17).reshape(-1, 1)
        a = evaluate(s, X, [1.7])
        b = evaluate(s, X, [1.7])
        assert np.array_equal(a, b)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ExpressionError, match="columns"):
            evaluate(parse("x0", 1), [[1, 2]], [])

    def test_short_params_raise(self):
        with pytest.raises(ExpressionError, match="parameters"):
            evaluate(parse("p0+p1", 1), [[1]], [1.0])

    def test_all_unary_ops_total(self):
        X = np.array([[-2.0], [0.0], [3.0]])
        for op in ("neg", "log", "exp", "sin", "cos", "sqrt", "abs", "square", "inv"):
            out = evaluate(parse(f"{op}(x0)", 1), X, [])
            assert out.shape == (3,)  # never raises, sentinels allowed

    def test_overflow_is_sentinel_not_crash(self):
        out = evaluate(parse("exp(x0)", 1), [[1e6]], [])
        assert not np.isfinite(out[0]) or out[0] > 0


class TestMutation:
    def test_determinism(self):
        s = parse("p0*x0 + p1", 1)
        assert random_mutation(s, 42) == random_mutation(s, 42)

    def test_different_seeds_explore(self):
        s = parse("p0*x0 + p1", 1)
        outputs = {random_mutation(s, seed).text for seed in range(40)}
        assert len(outputs) > 5

    def test_validity_sweep(self):
        s = parse("p0*x0 + p1", 2)
        for seed in range(500):
            m = random_mutation(s, seed)
            assert m.param_count <= MAX_PARAMS
            assert m.arity == 2
            assert _param_slots(m.text) == list(range(m.param_count))
            # canonical print must parse back
            assert parse(m.text, 2).expression == m.expression

    def test_depth_capped(self):
        s = parse("p0*x0", 1)
        for seed in range(200):
            s = random_mutation(s, seed)
            assert depth(s.expression) <= 12

    def test_random_expression_deterministic(self):
        assert random_expression(2, 7) == random_expression(2, 7)


class TestSkeletonInvariants:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=200, deadline=None)
    def test_param_slots_form_dense_prefix(self, seed):
        s = random_expression(arity=2, rng_seed=seed)
        assert _param_slots(s.text) == list(range(s.param_count))
        assert s.param_count <= MAX_PARAMS

    def test_skeleton_is_hashable_and_frozen(self):
        s = parse("p0*x0", 1)
        with pytest.raises(AttributeError):
            s.arity = 5
        assert isinstance(hash(s.expression), int)
        assert isinstance(s, Skeleton)
        assert math.isfinite(float(s.param_count))
