import dataclasses
import math
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg import expr, fit
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
    _random_tree,
    bind,
    depth,
    evaluate,
    parse,
    random_mutation,
    skeleton_from_node,
)
from symreg.fit import OptimizerConfig, fit_params
from tests.conftest import make_dataset, random_expression


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
        # evaluation recurses once per level, inside the fit's BFGS loop too
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

    # "1e400" used to become Const(inf), printed as "inf", which does not
    # parse back: "((p0 * x0) + exp((-inf)))"
    @pytest.mark.parametrize("text", ["p0*x0 + exp(-1e400)", "1e400", "x0 ^ 2e308"])
    def test_overflowing_literal_is_refused(self, text):
        with pytest.raises(ExpressionError, match="constant value must be finite, got -?inf"):
            parse(text, 1)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constant_is_refused(self, value):
        with pytest.raises(ExpressionError, match="must be finite"):
            skeleton_from_node(Binary("add", Var(0), Const(value)), 1)
        with pytest.raises(ExpressionError, match="must be finite"):
            skeleton_from_node(Unary("neg", Const(value)), 1)

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


# rows at the domain edges: log/sqrt of negatives, inv(0), pow with a
# negative base, exp overflow, signed zeros and non-finite inputs
EDGE_FEATURES = np.array(
    [
        [-2.0, 0.0],
        [0.0, -0.0],
        [-1.0, 0.5],
        [710.0, 3.0],
        [-710.0, -2.5],
        [1e300, -1e-300],
        [np.inf, -np.inf],
        [np.nan, 1.0],
        [2.5, -3.0],
    ]
)
# -1, 0.5 and 2 are the exponents np.power computes by a scalar fast path
PARAM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 0.5, 2.0, -2.5, 1e3, -1e3, 1e308]),
    st.floats(-10.0, 10.0),
)


def _assert_rows_match_single_vectors(s: Skeleton, X: np.ndarray, block: np.ndarray) -> None:
    # bitwise, signed zeros included, except that numpy's scalar and vector
    # kernels may give a nan a different sign or payload; every nan is
    # penalized or scored inf alike, so any nan matches any nan
    out = evaluate(s, X, block)
    assert out.shape == (len(block), len(X))
    for i, row in enumerate(block):
        single = evaluate(s, X, row)
        same = (out[i].view(np.int64) == single.view(np.int64)) | (
            np.isnan(out[i]) & np.isnan(single)
        )
        assert same.all(), (s.text, row.tolist(), out[i], single)


class TestEvaluateBlock:
    """An m x k parameter block evaluates to m rows, each bitwise equal to
    the evaluation at that row's parameter vector."""

    @given(
        st.integers(0, 10**6),
        st.integers(1, 6),
        st.lists(
            st.lists(PARAM_VALUES, min_size=MAX_PARAMS, max_size=MAX_PARAMS),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_match_single_vectors(self, seed, max_depth, block):
        s = random_expression(2, seed, max_depth)
        params = np.array(block)[:, : s.param_count]
        _assert_rows_match_single_vectors(s, EDGE_FEATURES, params)

    @pytest.mark.parametrize(
        "text",
        [
            "log(x0 - p0)",
            "sqrt(p0 * x1)",
            "inv(x0 - p0)",
            "x1 ^ p0",
            "pow(p0, x0)",
            "exp(p0 * x0) - exp(p1)",
            "p0 * x0 ^ p1 / (x1 + p2)",
            "(x0 + p0) ^ (p1 * p2)",
            "p0 ^ p1 + x0 ^ (x1 * p2)",
        ],
    )
    @pytest.mark.parametrize("rows", [slice(None), slice(5, 6)])
    def test_domain_edges(self, text, rows):
        block = np.array(
            [[0.0, 0.5, -1.0], [-2.0, 1.5, 0.0], [1e3, -0.0, 2.0], [-0.5, 2.0, 1e308],
             [3.0, -1.0, 0.5], [1e-3, 2.0, 1.0]]
        )
        s = parse(text, 2)
        _assert_rows_match_single_vectors(s, EDGE_FEATURES[rows], block[:, : s.param_count])

    @pytest.mark.parametrize("text", ["p0", "exp(p0) + log(p1)", "2.5", "inv(0.0)"])
    def test_trees_without_variables_fill_the_block(self, text):
        s = parse(text, 2)
        block = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, -0.0]])[:, : s.param_count]
        out = evaluate(s, EDGE_FEATURES, block)
        assert out.shape == (3, len(EDGE_FEATURES))
        _assert_rows_match_single_vectors(s, EDGE_FEATURES, block)

    def test_short_block_rows_raise(self):
        with pytest.raises(ExpressionError, match="parameters"):
            evaluate(parse("p0+p1", 1), [[1.0]], np.ones((3, 1)))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBind:
    """``bind(skeleton, X)`` computes the parameter-free subtrees once and
    returns the evaluator of the rest; ``evaluate`` is one bind and one call."""

    @given(
        st.integers(0, 10**6),
        st.integers(1, 6),
        st.lists(
            st.lists(PARAM_VALUES, min_size=MAX_PARAMS, max_size=MAX_PARAMS),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_binding_serves_every_evaluation(self, seed, max_depth, block):
        # one bound evaluator, reused across vectors and blocks, gives what a
        # fresh evaluation gives each time
        s = random_expression(2, seed, max_depth)
        params = np.array(block)[:, : s.param_count]
        bound = bind(s, EDGE_FEATURES)
        # the evaluator leaves np.errstate to its caller, as a fit holds it
        with np.errstate(all="ignore"):
            for p in [*params, params, params[:1], *params[::-1]]:
                assert _same_bits(bound(p), evaluate(s, EDGE_FEATURES, p)), (s.text, p)

    @given(
        st.integers(0, 10**6),
        st.integers(1, 6),
        st.lists(PARAM_VALUES, min_size=MAX_PARAMS, max_size=MAX_PARAMS),
        st.integers(1, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_tiles_concatenate_to_the_full_evaluation(self, seed, max_depth, vector, size):
        s = random_expression(2, seed, max_depth)
        p = np.array(vector)[: s.param_count]
        block = np.stack([p, -p, 0.5 * p])
        tiles = [bind(s, EDGE_FEATURES[i : i + size]) for i in range(0, len(EDGE_FEATURES), size)]
        for params in (p, block):
            with np.errstate(all="ignore"):
                joined = np.concatenate([tile(params) for tile in tiles], axis=-1)
            full = evaluate(s, EDGE_FEATURES, params)
            same = (joined.view(np.int64) == full.view(np.int64)) | (
                np.isnan(joined) & np.isnan(full)
            )
            assert joined.shape == full.shape and same.all(), (s.text, size)

    def test_a_lone_row_takes_the_kernel_of_every_row(self):
        # a one-row bind used to compute -0.0 ^ 0.5 as sqrt(-0.0) = -0.0 in a
        # block, where a bind of more rows gives np.power's 0.0
        s = parse("p0 ^ x0", 1)
        block = np.array([[-0.0], [2.0], [-0.0]])
        with np.errstate(all="ignore"):
            alone = bind(s, [[0.5]])
            joined = np.concatenate([alone(block), alone(block)], axis=-1)
            full = bind(s, [[0.5], [0.5]])(block)
            assert (joined.view(np.int64) == full.view(np.int64)).all()
            assert alone(block[0]).shape == (1,) and alone(block).shape == (3, 1)

    def test_parameter_free_subtree_runs_once_per_bind(self, monkeypatch):
        calls = []

        def counting_sin(c):
            calls.append(np.shape(c))
            return np.sin(c)

        monkeypatch.setitem(expr.UNARY, "sin", counting_sin)
        s = parse("p0 * sin(x0) + p1", 1)
        X = np.linspace(-2.0, 2.0, 7).reshape(-1, 1)
        bound = bind(s, X)
        assert calls == [(7,)]
        for _ in range(3):
            bound([1.0, 2.0])
            bound(np.ones((4, 2)))
        assert calls == [(7,)]
        evaluate(s, X, [1.0, 2.0])
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "text", ["p0", "x0", "x0 + p0", "p0 * sin(x0) + cos(x0)", "x0 ^ p0", "p0 ^ p1", "exp(x0)"]
    )
    def test_evaluation_mutates_neither_params_nor_hoisted_arrays(self, text):
        # 2.0 and 0.5 are np.power's fast-path exponents, whose block rows
        # the evaluator rewrites in its own output
        s = parse(text, 1)
        X = np.linspace(0.5, 3.0, 6).reshape(-1, 1)
        bound = bind(s, X)
        vector = np.array([2.0, 0.5])[: s.param_count]
        block = np.array([[2.0, 1.0], [0.5, 2.0], [-1.0, 3.0]])[:, : s.param_count]
        saved = X.copy(), vector.copy(), block.copy()
        first = bound(vector).copy(), bound(block).copy()
        for _ in range(2):
            assert _same_bits(bound(vector), first[0])
            assert _same_bits(bound(block), first[1])
        assert _same_bits(X, saved[0])
        assert _same_bits(vector, saved[1]) and _same_bits(block, saved[2])

    def test_evaluator_leaves_errstate_to_its_caller(self):
        # a fit holds np.errstate once around all of its evaluations;
        # evaluate holds it around its own
        s = parse("log(x0 - p0)", 1)
        bound = bind(s, [[1.0], [2.0]])
        with pytest.warns(RuntimeWarning, match="invalid value"):
            bound([3.0])
        with np.errstate(all="ignore"):
            held = bound([3.0])
        assert _same_bits(evaluate(s, [[1.0], [2.0]], [3.0]), held)
        assert np.isnan(held).all()

    def test_bind_checks_features_and_the_evaluator_checks_params(self):
        with pytest.raises(ExpressionError, match="columns"):
            bind(parse("x0 + x1", 2), [[1.0]])
        bound = bind(parse("p0 + p1 * x0", 1), [[1.0]])
        with pytest.raises(ExpressionError, match="parameters"):
            bound([1.0])


def _layouts(X: np.ndarray) -> dict[str, np.ndarray]:
    """The same rows as a C-order matrix, an F-order matrix, a view of every
    other column of a wider matrix and a view of every other row of a taller
    one."""
    wide = np.zeros((len(X), 2 * X.shape[1]))
    wide[:, 1::2] = X
    tall = np.zeros((2 * len(X), X.shape[1]))
    tall[::2] = X
    return {"C": np.ascontiguousarray(X), "F": np.asfortranarray(X),
            "columns": wide[:, 1::2], "rows": tall[::2]}


class TestColumnLayout:
    """``bind`` hands the compiled tree contiguous feature columns, whatever
    the layout of the matrix it is given."""

    @given(
        st.integers(0, 10**6),
        st.integers(1, 6),
        st.lists(
            st.lists(PARAM_VALUES, min_size=MAX_PARAMS, max_size=MAX_PARAMS),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_values_do_not_depend_on_the_layout(self, seed, max_depth, block):
        s = random_expression(2, seed, max_depth)
        params = np.array(block)[:, : s.param_count]
        layouts = _layouts(EDGE_FEATURES)
        assert not layouts["columns"].flags.c_contiguous and not layouts["rows"].flags.f_contiguous
        bound = {name: bind(s, X) for name, X in layouts.items()}
        with np.errstate(all="ignore"):
            for p in [*params, params]:
                want = bound["C"](p)
                for name in ("F", "columns", "rows"):
                    assert _same_bits(bound[name](p), want), (s.text, name, p)

    @pytest.mark.parametrize("layout", ["C", "F", "columns", "rows"])
    def test_operators_read_contiguous_columns(self, monkeypatch, layout):
        seen = []

        def recording(fn):
            def wrapped(*args):
                seen.extend(a.flags.c_contiguous for a in args if np.ndim(a) == 1)
                return fn(*args)

            return wrapped

        for table in (expr.UNARY, expr.BINARY):
            for name, fn in list(table.items()):
                monkeypatch.setitem(table, name, recording(fn))
        s = parse("p0 * sin(x1) + exp(x0 * p1) - x0 ^ p2", 2)
        bound = bind(s, _layouts(np.linspace(0.5, 3.0, 20).reshape(10, 2))[layout])
        bound([1.0, 0.5, 2.0])
        bound(np.ones((3, 3)))
        assert seen and all(seen)


def _request(point: np.ndarray) -> list[np.ndarray]:
    """A fit's request: the point, then its central-difference probes."""
    h = 1e-6 * np.fmax(1.0, np.abs(point))
    probes = [point]
    for i in range(len(point)):
        for sign in (1.0, -1.0):
            probe = point.copy()
            probe[i] += sign * h[i]
            probes.append(probe)
    return probes


def _same_values(a, b) -> bool:
    return (
        np.shape(a) == np.shape(b)
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


class TestCostlyStageMemo:
    """A costly stage that reads some but not all parameters keeps its
    values for its last distinct parameter values; a bound evaluator gives,
    bit for bit, what a fresh bind gives each vector."""

    @given(
        st.integers(0, 10**6),
        st.integers(1, 5),
        st.lists(PARAM_VALUES, min_size=MAX_PARAMS, max_size=MAX_PARAMS),
        st.sampled_from(sorted(expr.COSTLY)),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_requests_match_fresh_binds(self, seed, max_depth, vector, op, block_rows):
        # p0 * op(p1 * x0) * a random tree, or p0 * x0 ^ p1 * ...: the costly
        # stage reads p1 alone, and a product keeps the sign of a zero
        if op == "pow":
            costly = Binary("pow", Var(0), Param(1))
        else:
            costly = Unary(op, Binary("mul", Param(1), Var(0)))
        node = Binary(
            "mul",
            Binary("mul", Param(0), costly),
            _random_tree(random.Random(seed), 2, max_depth),
        )
        s = skeleton_from_node(node, 2)
        point = np.array(vector[: s.param_count])
        point[1] = 0.0
        swapped = point.copy()
        swapped[1] = -0.0
        poisoned = point.copy()
        poisoned[seed % s.param_count] = np.nan
        # np.power's scalar fast-path exponents, also as a block of several
        fast = [np.concatenate([point[:1], [e], point[2:]]) for e in (-1.0, 0.5, 2.0)]
        vectors = [
            *_request(point), *_request(swapped), *_request(poisoned), *_request(point),
            swapped, point, poisoned, poisoned, *fast, *_request(fast[1]), np.stack(fast),
            fast[0],
        ]
        bound = bind(s, EDGE_FEATURES)
        with np.errstate(all="ignore"):
            for p in vectors:
                p = p[None] if block_rows and p.ndim == 1 else p
                assert _same_values(bound(p), evaluate(s, EDGE_FEATURES, p)), (s.text, p)

    def test_signed_zeros_and_nans_are_distinct_keys(self):
        s = parse("p0 * sin(p1 * x0)", 1)
        X = np.array([[-2.0], [1.0], [3.0]])
        bound = bind(s, X)
        with np.errstate(all="ignore"):
            for p1 in (0.0, -0.0, np.nan, 0.0, -np.nan, -0.0):
                p = np.array([2.0, p1])
                assert _same_values(bound(p), evaluate(s, X, p)), p1

    # the first two are costly at the root, which reads every parameter
    @pytest.mark.parametrize(
        "text",
        ["sin(p0 * x0)", "x0 ^ (p0 * p1)", "p0 * sin(p1 * x0) + p2", "exp(x0 ^ p0) * p1",
         "p0 + log(p1)"],
    )
    def test_writing_into_an_output_leaves_later_calls_alone(self, text):
        s = parse(text, 1)
        X = np.linspace(0.5, 3.0, 6).reshape(-1, 1)
        bound = bind(s, X)
        vector = np.array([0.5, 2.0, -1.0])[: s.param_count]
        for p in (vector, vector[None]):
            with np.errstate(all="ignore"):
                expected = evaluate(s, X, p)
                bound(p)[...] = 7.0
                assert _same_bits(bound(p), expected)

    def test_a_fit_computes_sin_once_per_tile_and_distinct_p1(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3.0, 3.0, size=(10_000, 1))
        data = make_dataset(X, 1.5 * np.sin(0.8 * X[:, 0]) + 0.3 + rng.normal(0, 0.05, len(X)))
        config = OptimizerConfig(restarts=1, max_evaluations=30)
        text = "p0 * sin(p1 * x0) + p2"
        expected = fit_params(parse(text, 1), data, config)

        calls = []

        def counting_sin(c):
            calls.append(1)
            return np.sin(c)

        evaluated = []
        objective_of = fit._penalized_objective

        def recording(*args):
            objective = objective_of(*args)

            def recorded(theta):
                evaluated.extend(theta.tolist())
                return objective(theta)

            return recorded

        monkeypatch.setitem(expr.UNARY, "sin", counting_sin)
        monkeypatch.setattr(fit, "_penalized_objective", recording)
        result = fit_params(parse(text, 1), data, config)
        assert result == expected
        assert len(evaluated) == result.evaluations == 30
        tiles = 2  # 8,192 + 1,808 rows
        distinct_p1 = {np.float64(p[1]).tobytes() for p in evaluated}
        assert len(calls) == tiles * len(distinct_p1) < tiles * len(evaluated) / 2


# the operator table's entries before they were numpy ufuncs
_FORMER_OPERATORS = {
    "neg": operator.neg,
    "square": lambda c: c * c,
    "inv": lambda c: np.float64(1.0) / c,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}
_SPECIAL_VALUES = np.array(
    [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-310, 1e300, -1e300, 1.7e308, np.inf, -np.inf,
     np.nan, -np.nan]
)


class TestOperatorTable:
    def test_every_entry_is_a_ufunc_in_mutation_order(self):
        # the mutator draws from the key order, so it must never change
        assert expr.UNARY_OPS == tuple(expr.UNARY) == (
            "neg", "log", "exp", "sin", "cos", "sqrt", "abs", "square", "inv")
        assert expr.BINARY_OPS == tuple(expr.BINARY) == ("add", "sub", "mul", "div", "pow")
        for table, arity in ((expr.UNARY, 1), (expr.BINARY, 2)):
            for name, fn in table.items():
                assert isinstance(fn, np.ufunc) and fn.nin == arity, name

    @pytest.mark.parametrize("name", list(_FORMER_OPERATORS))
    def test_ufunc_matches_the_former_entry_bit_for_bit(self, name):
        ufunc = {**expr.UNARY, **expr.BINARY}[name]
        former = _FORMER_OPERATORS[name]
        rng = np.random.default_rng(0)
        values = np.concatenate([_SPECIAL_VALUES, rng.normal(scale=1e3, size=40)])
        if ufunc.nin == 1:
            operands = [(values,), *((np.float64(v),) for v in values)]
        else:
            left, right = np.meshgrid(values, values)
            operands = [(left.ravel(), right.ravel()), (values[:, None], values),
                        *((np.float64(a), np.float64(b))
                          for a in _SPECIAL_VALUES for b in _SPECIAL_VALUES)]
        with np.errstate(all="ignore"):
            for args in operands:
                got, want = ufunc(*args), former(*args)
                assert type(got) is type(want), (name, args)
                # any nan matches any nan, as in the block tests above: two
                # nan operands may propagate either one's sign
                got, want = np.asarray(got), np.asarray(want)
                same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
                assert same.all(), (name, args)


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
