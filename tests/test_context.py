import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg import context
from symreg.context import (
    COMBINERS,
    MAX_DIRECTIVES,
    MIN_VALID_ROWS,
    TRANSFORMS,
    Y_TERMS,
    AnalysisSpec,
    DescribeStats,
    FeatureCombo,
    FeatureRef,
    FeatureTerm,
    Fit,
    ReportEntry,
    SampleRows,
    SpecError,
    default_hint_spec,
    execute,
    parse_spec,
    render,
    report_to_json,
    term_key,
)
from tests.conftest import make_dataset


class TestTermKey:
    def test_bare_feature_uppercase(self):
        assert term_key(FeatureTerm((), FeatureRef(0))) == "X_0"
        assert term_key(FeatureTerm((), FeatureRef(3))) == "X_3"

    def test_single_transform_keeps_uppercase(self):
        assert term_key(FeatureTerm(("log",), FeatureRef(0))) == "log(X_0)"
        assert term_key(FeatureTerm(("sqrt",), FeatureRef(2))) == "sqrt(X_2)"

    def test_deep_chain_lowercase(self):
        assert term_key(FeatureTerm(("log", "sin"), FeatureRef(0))) == "log(sin(x_0))"
        assert (
            term_key(FeatureTerm(("log", "exp", "abs"), FeatureRef(1)))
            == "log(exp(abs(x_1)))"
        )

    def test_combo_lowercase(self):
        assert term_key(FeatureTerm((), FeatureCombo("ratio", 0, 1))) == "ratio(x_0,x_1)"
        assert (
            term_key(FeatureTerm(("log",), FeatureCombo("product", 2, 3)))
            == "log(product(x_2,x_3))"
        )


class TestParseSpec:
    def test_stats_all(self):
        spec = parse_spec("stats all", arity=3)
        assert spec.directives == (DescribeStats((None, 0, 1, 2)),)

    def test_stats_subset(self):
        spec = parse_spec("stats y x1", arity=2)
        assert spec.directives == (DescribeStats((None, 1)),)

    def test_sample_defaults(self):
        spec = parse_spec("sample 5", arity=1)
        assert spec.directives == (SampleRows(5, "none", None),)

    def test_sample_options(self):
        spec = parse_spec("sample 12 sort=y_asc seed=3", arity=1)
        assert spec.directives == (SampleRows(12, "y_asc", 3),)

    def test_sample_desc(self):
        spec = parse_spec("sample 4 sort=y_desc", arity=1)
        assert spec.directives[0].sort == "y_desc"

    def test_r2_identity(self):
        spec = parse_spec("r2 y ~ x0", arity=1)
        assert spec.directives == (Fit("r2", FeatureTerm((), FeatureRef(0)), "y"),)

    def test_r2_log_log(self):
        spec = parse_spec("r2 log(y) ~ log(x0)", arity=1)
        assert spec.directives == (Fit("r2", FeatureTerm(("log",), FeatureRef(0)), "log(y)"),)

    def test_corr_with_combo(self):
        spec = parse_spec("corr y ~ ratio(x0, x1)", arity=2)
        assert spec.directives == (
            Fit("corr", FeatureTerm((), FeatureCombo("ratio", 0, 1)), "y"),
        )

    def test_nested_transform_chain(self):
        spec = parse_spec("r2 log(y) ~ log(sin(x0))", arity=1)
        assert spec.directives[0].x_term == FeatureTerm(("log", "sin"), FeatureRef(0))

    def test_whitespace_tolerant(self):
        a = parse_spec("r2  y   ~   log( x0 )".replace("( ", "(").replace(" )", ")"), 1)
        b = parse_spec("r2 y ~ log(x0)", 1)
        assert a == b

    def test_comments_and_blanks_skipped(self):
        spec = parse_spec("# header\n\nstats all\n  # tail\n", arity=1)
        assert len(spec.directives) == 1

    def test_unknown_transform_message(self):
        with pytest.raises(SpecError) as err:
            parse_spec("r2 y ~ frobnicate(x0)", arity=1)
        assert str(err.value) == "unknown transform 'frobnicate' (line 1)"

    def test_unknown_directive_message(self):
        with pytest.raises(SpecError) as err:
            parse_spec("stats all\nbogus x0", arity=1)
        assert "unknown directive 'bogus'" in str(err.value)
        assert err.value.line == 2

    def test_feature_out_of_range(self):
        with pytest.raises(SpecError, match="out of range"):
            parse_spec("r2 y ~ x5", arity=2)

    def test_bad_y_term(self):
        with pytest.raises(SpecError, match="y or log"):
            parse_spec("r2 exp(y) ~ x0", arity=1)

    def test_missing_tilde(self):
        with pytest.raises(SpecError, match="~"):
            parse_spec("r2 y x0", arity=1)

    def test_bad_sort_token(self):
        with pytest.raises(SpecError, match="sort"):
            parse_spec("sample 3 sort=up", arity=1)

    def test_non_integer_count(self):
        with pytest.raises(SpecError, match="integer"):
            parse_spec("sample many", arity=1)

    def test_zero_count(self):
        with pytest.raises(SpecError, match="positive"):
            parse_spec("sample 0", arity=1)

    def test_negative_seed_rejected(self):
        # default_rng refuses negative entropy, which used to surface only
        # as an execution error in a program that counted as a success
        with pytest.raises(SpecError) as err:
            parse_spec("stats all\nsample 3 seed=-1", arity=1)
        assert str(err.value) == "seed must be a non-negative integer (line 2)"

    def test_combo_needs_two_features(self):
        with pytest.raises(SpecError, match="two features"):
            parse_spec("r2 y ~ ratio(x0)", arity=1)

    def test_directive_cap(self):
        text = "\n".join(["stats all"] * (MAX_DIRECTIVES + 1))
        with pytest.raises(SpecError, match="more than 64"):
            parse_spec(text, arity=1)

    def test_exactly_at_cap_ok(self):
        text = "\n".join(["stats all"] * MAX_DIRECTIVES)
        assert len(parse_spec(text, arity=1).directives) == MAX_DIRECTIVES

    def test_empty_text(self):
        assert parse_spec("", arity=2) == AnalysisSpec((), 2)


def test_benchmark_draws_the_grammar_words(perfbench_workloads):
    # perfbench/workloads.py keeps its own copy of the directive words to
    # generate the proaug-large programs; it must name the same ones
    assert perfbench_workloads.TRANSFORMS == context.TRANSFORMS
    assert perfbench_workloads.COMBINERS == context.COMBINERS


class TestFormatSpec:
    def test_canonical_text(self):
        text = "sample 12 sort=y_asc\nstats all\nr2 log(y) ~ log(x0)"
        spec = parse_spec(text, arity=1)
        assert spec.text == text

    def test_text_is_canonical_for_any_spelling(self):
        text = (
            "# header\n  stats y x0 x1\nstats x01 y\n\n"
            "sample +05 seed=007 sort=y_desc\nsample 3 sort=none\n"
            "r2 log( y )  ~  log(\tratio(x1, x0))\ncorr y~x0"
        )
        assert parse_spec(text, arity=2).text == (
            "stats all\nstats x1 y\nsample 5 sort=y_desc seed=7\nsample 3\n"
            "r2 log(y) ~ log(ratio(x1,x0))\ncorr y ~ x0"
        )

    def test_round_trip_fixed_cases(self):
        cases = [
            "stats all",
            "stats y x0 x2",
            "sample 7",
            "sample 3 sort=y_desc seed=42",
            "r2 y ~ x1",
            "corr log(y) ~ log(sqrt(x0))",
            "r2 y ~ ratio(x0,x2)",
            "corr y ~ log(product(x1,x1))",
        ]
        for text in cases:
            spec = parse_spec(text, arity=3)
            again = parse_spec(spec.text, arity=3)
            assert again == spec
            assert again.text == spec.text

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, data):
        arity = data.draw(st.integers(1, 4))
        features = st.integers(0, arity - 1)
        transforms = st.sampled_from(
            ("log", "exp", "sin", "cos", "sqrt", "square", "inv", "abs")
        )

        def term_line(draw):
            chain = draw(st.lists(transforms, max_size=3))
            if draw(st.booleans()):
                base = f"x{draw(features)}"
            else:
                comb = draw(st.sampled_from(("product", "ratio", "sum", "difference")))
                base = f"{comb}(x{draw(features)},x{draw(features)})"
            for t in reversed(chain):
                base = f"{t}({base})"
            return base

        lines = []
        for _ in range(data.draw(st.integers(1, 6))):
            kind = data.draw(st.sampled_from(("stats", "sample", "r2", "corr")))
            if kind == "stats":
                if data.draw(st.booleans()):
                    lines.append("stats all")
                else:
                    cols = data.draw(
                        st.lists(
                            st.one_of(st.just("y"), features.map(lambda i: f"x{i}")),
                            min_size=1,
                            max_size=3,
                        )
                    )
                    lines.append("stats " + " ".join(cols))
            elif kind == "sample":
                line = f"sample {data.draw(st.integers(1, 30))}"
                if data.draw(st.booleans()):
                    line += f" sort={data.draw(st.sampled_from(('y_asc', 'y_desc')))}"
                if data.draw(st.booleans()):
                    line += f" seed={data.draw(st.integers(0, 99))}"
                lines.append(line)
            else:
                y = data.draw(st.sampled_from(("y", "log(y)")))
                lines.append(f"{kind} {y} ~ {term_line(data.draw)}")

        spec = parse_spec("\n".join(lines), arity)
        again = parse_spec(spec.text, arity)
        assert again == spec
        assert again.text == spec.text


class TestDefaultHint:
    def test_structure(self):
        spec = default_hint_spec(2)
        # sample + stats + identity fits + log-log fits + 4 composed per feature
        assert len(spec.directives) == 2 + 2 + 2 + 8
        assert spec.directives[0] == SampleRows(12, "y_asc", None)
        assert spec.directives[1] == DescribeStats((None, 0, 1))

    def test_composed_fit_order(self):
        spec = default_hint_spec(1)
        tail = spec.directives[-4:]
        chains = [d.x_term.chain for d in tail]
        assert chains == [("log", "sin"), ("log", "cos"), ("log", "exp"), ("log", "sqrt")]


def _uniform_dataset(n=40, arity=1, seed=0, lo=0.5, hi=4.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, hi, size=(n, arity))
    return X


class TestExecuteStats:
    def test_values_match_numpy(self):
        X = _uniform_dataset(30, 2, seed=1)
        y = X[:, 0] * 2
        ds = make_dataset(X, y)
        report = execute(parse_spec("stats all", 2), ds)
        got = {e.key: e.value for e in report.entries}
        assert got["mean_Y"] == pytest.approx(float(np.mean(y)))
        assert got["std_X_1"] == pytest.approx(float(np.std(X[:, 1])))
        assert got["min_X_0"] == float(np.min(X[:, 0]))
        assert got["max_Y"] == float(np.max(y))

    def test_subset_order(self):
        X = _uniform_dataset(20, 2, seed=2)
        ds = make_dataset(X, X[:, 0])
        report = execute(parse_spec("stats x1 y", 2), ds)
        keys = [e.key for e in report.entries]
        assert keys == [
            "mean_X_1",
            "std_X_1",
            "min_X_1",
            "max_X_1",
            "mean_Y",
            "std_Y",
            "min_Y",
            "max_Y",
        ]


class TestExecuteSample:
    def test_count_and_shape(self):
        X = _uniform_dataset(50, 2, seed=3)
        ds = make_dataset(X, X[:, 0] + X[:, 1])
        report = execute(parse_spec("sample 5", 2), ds, seed=0)
        entry = report.entries[0]
        assert entry.header == "### 5 Random Samples (X, Y):"
        assert len(entry.lines) == 5
        assert entry.lines[0].startswith("X[0] = [")

    def test_sorted_ascending_header_and_order(self):
        X = _uniform_dataset(50, 1, seed=4)
        ds = make_dataset(X, X[:, 0])
        report = execute(parse_spec("sample 8 sort=y_asc", 1), ds, seed=0)
        entry = report.entries[0]
        assert (
            entry.header
            == "### 8 Random Samples (X, Y) (Sorted by Y from small to large):"
        )
        ys = [float(line.rpartition("= ")[2]) for line in entry.lines]
        assert ys == sorted(ys)

    def test_sorted_descending(self):
        X = _uniform_dataset(50, 1, seed=5)
        ds = make_dataset(X, X[:, 0])
        report = execute(parse_spec("sample 6 sort=y_desc", 1), ds, seed=0)
        ys = [float(line.rpartition("= ")[2]) for line in report.entries[0].lines]
        assert ys == sorted(ys, reverse=True)

    def test_deterministic_under_execute_seed(self):
        X = _uniform_dataset(50, 1, seed=6)
        ds = make_dataset(X, X[:, 0])
        spec = parse_spec("sample 5", 1)
        assert execute(spec, ds, seed=9) == execute(spec, ds, seed=9)
        assert execute(spec, ds, seed=9) != execute(spec, ds, seed=10)

    def test_directive_seed_overrides_execute_seed(self):
        X = _uniform_dataset(50, 1, seed=7)
        ds = make_dataset(X, X[:, 0])
        spec = parse_spec("sample 5 seed=123", 1)
        assert execute(spec, ds, seed=1) == execute(spec, ds, seed=2)

    def test_position_in_spec_changes_draw(self):
        X = _uniform_dataset(50, 1, seed=8)
        ds = make_dataset(X, X[:, 0])
        first = execute(parse_spec("sample 5", 1), ds, seed=0).entries[0]
        second = execute(parse_spec("stats all\nsample 5", 1), ds, seed=0).entries[-1]
        assert first.lines != second.lines

    def test_count_clipped_to_rows(self):
        X = _uniform_dataset(6, 1, seed=9)
        ds = make_dataset(X, X[:, 0])
        entry = execute(parse_spec("sample 99", 1), ds).entries[0]
        assert entry.header.startswith("### 6 Random Samples")
        assert len(entry.lines) == 6

    def test_rows_drawn_without_replacement(self):
        X = np.arange(20.0).reshape(-1, 1)
        ds = make_dataset(X, X[:, 0])
        entry = execute(parse_spec("sample 20", 1), ds).entries[0]
        xs = [float(line.split("[")[2].split("]")[0]) for line in entry.lines]
        assert sorted(xs) == sorted(X[:, 0].tolist())

    def test_line_format_three_decimals(self):
        ds = make_dataset([[1.23456, 2.0]] * 10, [9.87654] * 9 + [1.0])
        entry = execute(parse_spec("sample 1 seed=0", 2), ds).entries[0]
        line = entry.lines[0]
        assert line == "X[0] = [1.235, 2.000], Y[0] = 9.877" or line == (
            "X[0] = [1.235, 2.000], Y[0] = 1.000"
        )


class TestExecuteFits:
    def test_perfect_line_r2(self):
        x = np.linspace(1, 5, 20)
        ds = make_dataset(x, 3.0 * x + 1.0)
        report = execute(parse_spec("r2 y ~ x0", 1), ds)
        entry = report.entries[0]
        assert entry.key == "r2_Y_X_0"
        assert entry.value == pytest.approx(1.0)
        assert entry.detail["slope"] == pytest.approx(3.0)
        assert entry.detail["intercept"] == pytest.approx(1.0)
        assert entry.detail["n_valid"] == 20

    def test_power_law_log_log(self):
        x = np.linspace(0.5, 10, 40)
        ds = make_dataset(x, x**1.5)
        entry = execute(parse_spec("r2 log(y) ~ log(x0)", 1), ds).entries[0]
        assert entry.key == "r2_log(Y)_log(X_0)"
        assert entry.value == pytest.approx(1.0)
        assert entry.detail["slope"] == pytest.approx(1.5, abs=1e-9)

    def test_noise_gives_low_r2(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.normal(size=100), rng.normal(size=100))
        entry = execute(parse_spec("r2 y ~ x0", 1), ds).entries[0]
        assert 0.0 <= entry.value < 0.2

    def test_r2_clamped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            rng2 = np.random.default_rng(seed)
            ds = make_dataset(rng2.normal(size=30), rng2.normal(size=30))
            entry = execute(parse_spec("r2 y ~ x0", 1), ds).entries[0]
            assert 0.0 <= entry.value <= 1.0

    def test_masking_drops_non_finite_rows(self):
        # log is undefined on the negative half; those rows must be dropped
        x = np.concatenate([np.linspace(1, 5, 12), -np.ones(6)])
        y = np.where(x > 0, x**2.0, 1.0)
        ds = make_dataset(x, y)
        entry = execute(parse_spec("r2 log(y) ~ log(x0)", 1), ds).entries[0]
        assert entry.detail["n_valid"] == 12
        assert entry.value == pytest.approx(1.0)
        assert entry.detail["slope"] == pytest.approx(2.0, abs=1e-9)

    def test_na_below_min_valid_rows(self):
        x = np.concatenate([np.linspace(1, 2, 7), -np.ones(13)])
        ds = make_dataset(x, np.abs(x))
        entry = execute(parse_spec("r2 log(y) ~ log(x0)", 1), ds).entries[0]
        assert entry.key == "r2_log(Y)_log(X_0)_na"
        assert entry.value == 7
        assert entry.detail == {"n_valid": 7}

    def test_na_when_sums_overflow(self):
        # exp(x0) is finite on every row, but its sums overflow: the fits
        # used to read corr -1.0 and r2 0.0 for an increasing y
        x = np.linspace(700, 709, 20)
        ds = make_dataset(x, x)
        report = execute(parse_spec("r2 y ~ exp(x0)\ncorr y ~ exp(x0)", 1), ds)
        assert [e.key for e in report.entries] == ["r2_Y_exp(X_0)_na", "corr_Y_exp(X_0)_na"]
        for entry in report.entries:
            assert entry.value == 20
            assert entry.detail == {"n_valid": 20}

    def test_exactly_min_valid_rows_is_fine(self):
        x = np.concatenate([np.linspace(1, 2, 8), -np.ones(12)])
        ds = make_dataset(x, np.abs(x))
        entry = execute(parse_spec("r2 log(y) ~ log(x0)", 1), ds).entries[0]
        assert not entry.key.endswith("_na")
        assert entry.detail["n_valid"] == 8

    def test_constant_x_gives_zero_slope(self):
        ds = make_dataset(np.ones(10), np.linspace(1, 2, 10))
        entry = execute(parse_spec("r2 y ~ x0", 1), ds).entries[0]
        assert entry.value == 0.0
        assert entry.detail["slope"] == 0.0

    def test_constant_y_gives_zero_r2(self):
        ds = make_dataset(np.linspace(1, 2, 10), np.full(10, 3.0))
        entry = execute(parse_spec("r2 y ~ x0", 1), ds).entries[0]
        assert entry.value == 0.0

    def test_corr_sign(self):
        x = np.linspace(0, 1, 30)
        up = execute(parse_spec("corr y ~ x0", 1), make_dataset(x, 2 * x)).entries[0]
        down = execute(parse_spec("corr y ~ x0", 1), make_dataset(x, -2 * x)).entries[0]
        assert up.key == "corr_Y_X_0"
        assert up.value == pytest.approx(1.0)
        assert down.value == pytest.approx(-1.0)
        assert -1.0 <= down.value <= 1.0

    def test_corr_constant_column_zero(self):
        ds = make_dataset(np.ones(10), np.linspace(1, 2, 10))
        assert execute(parse_spec("corr y ~ x0", 1), ds).entries[0].value == 0.0

    def test_ratio_combo_fit(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(1, 3, size=(40, 2))
        y = X[:, 0] / X[:, 1]
        ds = make_dataset(X, y)
        entry = execute(parse_spec("r2 y ~ ratio(x0,x1)", 2), ds).entries[0]
        assert entry.key == "r2_Y_ratio(x_0,x_1)"
        assert entry.value == pytest.approx(1.0)

    def test_ratio_by_zero_rows_masked(self):
        X = np.column_stack([np.linspace(1, 4, 20), np.r_[np.zeros(5), np.ones(15)]])
        ds = make_dataset(X, X[:, 0])
        entry = execute(parse_spec("r2 y ~ ratio(x0,x1)", 2), ds).entries[0]
        assert entry.detail["n_valid"] == 15


class TestExecuteIsolation:
    def test_bad_directive_recorded_others_run(self):
        # out-of-range index sneaks past parse only via direct construction
        bad = Fit("r2", FeatureTerm((), FeatureRef(5)), "y")
        spec = AnalysisSpec((bad, SampleRows(3)), arity=1)
        ds = make_dataset(np.linspace(1, 2, 10), np.linspace(1, 2, 10))
        report = execute(spec, ds, seed=0)
        assert len(report.execution_errors) == 1
        assert report.execution_errors[0].startswith("directive 1: ")
        assert len(report.entries) == 1  # the sample still ran
        assert report.entries[0].lines

    def test_arity_mismatch_raises(self):
        ds = make_dataset(np.linspace(1, 2, 10), np.linspace(1, 2, 10))
        with pytest.raises(ValueError, match="arity"):
            execute(parse_spec("stats all", 2), ds)

    def test_source_carried(self):
        ds = make_dataset(np.linspace(1, 2, 10), np.linspace(1, 2, 10))
        report = execute(parse_spec("stats all", 1), ds, source="stats all")
        assert report.source == "stats all"


class TestExecuteMemo:
    def test_shared_memo_matches_fresh_execute(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1.0, 4.0, size=(300, 3))
        ds = make_dataset(X, X[:, 0] ** 2 * X[:, 1] - X[:, 2])
        pool = [
            "stats all",
            "stats y x2",
            "r2 y ~ x0",
            "r2 log(y) ~ log(x0)",
            "corr log(y) ~ sqrt(x1)",
            "corr y ~ ratio(x0,x2)",
            "r2 y ~ log(product(x1,x2))",
            "r2 log(y) ~ inv(difference(x0,x1))",
        ]
        memo: dict = {}
        for _ in range(12):
            lines = list(rng.choice(pool, size=5, replace=True))
            # the same sample line lands at a different index in each program
            lines.insert(int(rng.integers(len(lines) + 1)), "sample 4 sort=y_desc")
            spec = parse_spec("\n".join(lines), 3)
            shared = execute(spec, ds, seed=5, memo=memo)
            fresh = execute(spec, ds, seed=5)
            assert report_to_json(shared) == report_to_json(fresh)
        assert len(memo) == len({parse_spec(line, 3).directives[0] for line in pool})

    def test_sample_lines_never_memoized(self):
        ds = make_dataset(np.linspace(1, 2, 20), np.linspace(1, 2, 20))
        memo: dict = {}
        execute(parse_spec("sample 3\nstats all", 1), ds, memo=memo)
        assert list(memo) == [DescribeStats((None, 0))]

    def test_memoized_error_carries_index_in_each_program(self):
        bad = Fit("r2", FeatureTerm((), FeatureRef(5)), "y")
        stats = DescribeStats((None, 0))
        ds = make_dataset(np.linspace(1, 2, 10), np.linspace(1, 2, 10))
        memo: dict = {}
        first = execute(AnalysisSpec((bad, stats), 1), ds, memo=memo)
        second = execute(AnalysisSpec((stats, SampleRows(2), bad), 1), ds, memo=memo)
        assert len(first.execution_errors) == len(second.execution_errors) == 1
        assert first.execution_errors[0].startswith("directive 1: ")
        message = first.execution_errors[0].removeprefix("directive 1: ")
        assert second.execution_errors[0] == f"directive 3: {message}"
        fresh = execute(AnalysisSpec((stats, SampleRows(2), bad), 1), ds)
        assert report_to_json(second) == report_to_json(fresh)

    @pytest.mark.parametrize(
        "line", ["r2 log(y) ~ log(x0)", "corr log(y) ~ log(sqrt(x0))", "r2 y ~ log(x0)"]
    )
    def test_rows_with_undefined_transform_are_dropped_exactly(self, line):
        # the all-finite fit skips the masking copies; the masked fit must
        # read the same entries to the last bit
        x = np.linspace(0.5, 6.0, 40)
        y = 1.7 * x**1.3
        clean = execute(parse_spec(line, 1), make_dataset(x, y))
        undefined = np.array([-1.0, 0.0, -2.5, -0.25])  # every x-term is undefined
        rows = np.insert(x, [0, 10, 25, 40], undefined)
        targets = np.insert(y, [0, 10, 25, 40], -1.0)  # log(y) undefined too
        masked = execute(parse_spec(line, 1), make_dataset(rows, targets))
        assert masked.entries[0].detail["n_valid"] == 40
        assert report_to_json(masked) == report_to_json(clean)


# The analysis kernels as they were before they ran in scratch buffers:
# numpy's own mean, sum and std over fresh temporaries, and the operator
# table's former lambdas and operator functions.  The buffered kernels must
# reproduce them bit for bit.
_REFERENCE_TRANSFORMS = {
    "log": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "square": lambda c: c * c,
    "inv": lambda c: np.float64(1.0) / c,
    "abs": np.abs,
}
_REFERENCE_COMBINERS = {
    "product": operator.mul,
    "ratio": operator.truediv,
    "sum": operator.add,
    "difference": operator.sub,
}


def _reference_term_values(term: FeatureTerm, data) -> np.ndarray:
    X = data.features
    with np.errstate(all="ignore"):
        if isinstance(term.base, FeatureRef):
            values = X[:, term.base.index]
        else:
            combine = _REFERENCE_COMBINERS[term.base.combiner]
            values = combine(X[:, term.base.left], X[:, term.base.right])
        for t in reversed(term.chain):
            values = _REFERENCE_TRANSFORMS[t](values)
    return values


def _reference_ols(x, y):
    mx = float(np.mean(x))
    my = float(np.mean(y))
    dx = x - mx
    dy = y - my
    sxx = float(np.sum(dx**2))
    sxy = float(np.sum(dx * dy))
    if sxx == 0.0:
        slope, intercept = 0.0, my
    else:
        slope = sxy / sxx
        intercept = my - slope * mx
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum(dy**2))
    if not all(map(math.isfinite, (mx, my, sxx, sxy, ss_res, ss_tot))):
        return None
    if ss_tot == 0.0:
        return slope, intercept, 0.0
    return slope, intercept, float(min(1.0, max(0.0, 1.0 - ss_res / ss_tot)))


def _reference_pearson(x, y):
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    sxy = float(np.mean((x - np.mean(x)) * (y - np.mean(y))))
    scale = sx * sy
    if not (math.isfinite(sxy) and math.isfinite(scale)):
        return None
    return min(1.0, max(-1.0, sxy / scale))


def _reference_fit_entries(directive: Fit, data) -> list[ReportEntry]:
    with np.errstate(all="ignore"):
        y = data.target if directive.y_term == "y" else np.log(data.target)
    x = _reference_term_values(directive.x_term, data)
    valid = np.isfinite(x) & np.isfinite(y)
    n_valid = int(np.count_nonzero(valid))
    key = f"{directive.kind}_{Y_TERMS[directive.y_term]}_{term_key(directive.x_term)}"
    na = [ReportEntry(f"{key}_na", n_valid, detail={"n_valid": n_valid})]
    if n_valid < MIN_VALID_ROWS:
        return na
    xv, yv = (x, y) if n_valid == len(valid) else (x[valid], y[valid])
    with np.errstate(all="ignore"):
        fit = _reference_ols(xv, yv) if directive.kind == "r2" else _reference_pearson(xv, yv)
    if fit is None:
        return na
    if directive.kind == "r2":
        slope, intercept, r2 = fit
        detail = {"slope": slope, "intercept": intercept, "n_valid": n_valid}
        return [ReportEntry(key, r2, detail=detail)]
    return [ReportEntry(key, fit, detail={"n_valid": n_valid})]


def _bits(values) -> list:
    # repr tells -0.0 from 0.0 and round-trips every finite float exactly
    return [repr(v) for v in values]


# finite (datasets reject non-finite values) but at the domain edges: log and
# sqrt of negatives and zeros, exp overflow, inv of a subnormal, sums that
# overflow
_EDGE_VALUES = st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.5, 1e-310, 710.0, 1e300, -1e300])
_VALUES = st.one_of(_EDGE_VALUES, st.floats(-20.0, 20.0), st.floats(0.05, 20.0))


@st.composite
def _columns(draw, n: int, count: int) -> list[np.ndarray]:
    columns = []
    for _ in range(count):
        if draw(st.integers(0, 4)) == 0:  # a constant column: sxx or ss_tot is 0
            columns.append(np.full(n, draw(st.floats(0.5, 3.0))))
        else:
            columns.append(np.array(draw(st.lists(_VALUES, min_size=n, max_size=n))))
    return columns


@st.composite
def _datasets(draw, arity: int = 3):
    n = draw(st.integers(1, 40))
    *features, target = draw(_columns(n, arity + 1))
    return make_dataset(np.column_stack(features), target)


def _terms(arity: int = 3):
    feature = st.integers(0, arity - 1)
    base = st.one_of(
        feature.map(FeatureRef),
        st.builds(FeatureCombo, st.sampled_from(COMBINERS), feature, feature),
    )
    return st.builds(FeatureTerm, st.lists(st.sampled_from(TRANSFORMS), max_size=3).map(tuple), base)


_FITS = st.builds(Fit, st.sampled_from(("r2", "corr")), _terms(), st.sampled_from(tuple(Y_TERMS)))


def _assert_reports_reference_entries(spec: AnalysisSpec, data) -> None:
    report = execute(spec, data)
    expected = [e for d in spec.directives for e in _reference_fit_entries(d, data)]
    assert _bits(report.entries) == _bits(expected)
    assert report.execution_errors == ()


class TestBufferedKernels:
    """The kernels write into scratch buffers and must return, bit for bit,
    what the reference kernels above compute with fresh temporaries."""

    @given(_datasets(), _terms())
    @settings(max_examples=300, deadline=None)
    def test_term_values_match_reference(self, data, term):
        out = np.full(data.n_rows, np.nan)
        got = context._term_values(term, data, out)
        want = _reference_term_values(term, data)
        assert got is out
        assert np.array_equal(got.view(np.int64), np.asarray(want).view(np.int64)), term

    @given(st.integers(1, 40).flatmap(lambda n: _columns(n, 2)))
    @settings(max_examples=300, deadline=None)
    def test_ols_and_pearson_match_reference(self, columns):
        x, y = columns
        for kernel, reference in ((context._ols, _reference_ols),
                                  (context._pearson, _reference_pearson)):
            scratch = np.full((3, len(x)), np.nan)  # stale contents must not leak
            with np.errstate(all="ignore"):
                got, want = kernel(x, y, *scratch), reference(x, y)
            assert repr(got) == repr(want), kernel.__name__

    @given(_datasets(), st.lists(_FITS, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_execute_matches_reference_entries(self, data, fits):
        # several fits share one execute's buffers, masked and unmasked alike
        _assert_reports_reference_entries(AnalysisSpec(tuple(fits), 3), data)

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("combiner", [None, *COMBINERS])
    def test_every_transform_and_combiner(self, transform, combiner):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3.0, 3.0, size=(60, 2))
        X[::7, 1] = 0.0  # ratio and inv by zero
        data = make_dataset(X, np.abs(X[:, 0]) ** 1.5 + X[:, 1])
        base = FeatureRef(0) if combiner is None else FeatureCombo(combiner, 0, 1)
        fits = [Fit(kind, FeatureTerm(chain, base), y_term)
                for kind in ("r2", "corr") for y_term in Y_TERMS
                for chain in ((), (transform,), ("log", transform))]
        _assert_reports_reference_entries(AnalysisSpec(tuple(fits), 2), data)

    @pytest.mark.parametrize(
        "x, y, outcome",
        [
            (np.full(20, 2.0), np.linspace(1.0, 2.0, 20), "sxx == 0"),
            (np.linspace(1.0, 2.0, 20), np.full(20, 3.0), "ss_tot == 0"),
            (np.linspace(1e300, 1.7e308, 20), np.linspace(1.0, 2.0, 20), "overflow"),
            (np.r_[np.linspace(1.0, 2.0, 12), -np.ones(8)], np.linspace(1.0, 5.0, 20), "masked"),
        ],
    )
    def test_edge_cases_match_reference(self, x, y, outcome):
        data = make_dataset(x, y)
        fits = tuple(Fit(kind, FeatureTerm(chain, FeatureRef(0)), "y")
                     for kind in ("r2", "corr") for chain in ((), ("log",)))
        _assert_reports_reference_entries(AnalysisSpec(fits, 1), data)
        # the case reaches the branch it names
        entry = _reference_fit_entries(fits[0], data)[0]
        if outcome == "sxx == 0":
            assert entry.detail["slope"] == 0.0
        elif outcome == "ss_tot == 0":
            assert entry.value == 0.0 and entry.detail["slope"] == 0.0
        elif outcome == "overflow":
            assert entry.key.endswith("_na") and entry.value == 20
        else:
            assert _reference_fit_entries(fits[1], data)[0].detail["n_valid"] == 12


class TestRender:
    def test_statistics_line_exact(self):
        ds = make_dataset(
            np.array([1.0, 2.0, 3.0]).reshape(-1, 1), np.array([2.0, 4.0, 6.0])
        )
        report = execute(parse_spec("stats y", 1), ds)
        assert render(report) == (
            "Statistics: {'mean_Y': 4.0, 'std_Y': 1.633, 'min_Y': 2.0, 'max_Y': 6.0}"
        )

    def test_negative_zero_normalized(self):
        ds = make_dataset(
            np.array([1.0, 2.0, 3.0]).reshape(-1, 1),
            np.array([-0.0001, 0.0001, 0.0]),
        )
        text = render(execute(parse_spec("stats y", 1), ds))
        assert "'mean_Y': 0.0" in text
        assert "-0.0" not in text

    def test_three_decimal_rounding(self):
        ds = make_dataset(
            np.full((3, 1), 1.0), np.array([21.3314, 21.3314, 21.3314])
        )
        text = render(execute(parse_spec("stats y", 1), ds))
        assert "'mean_Y': 21.331" in text

    def test_int_value_rendered_bare(self):
        x = np.concatenate([np.linspace(1, 2, 7), -np.ones(13)])
        ds = make_dataset(x, np.abs(x))
        text = render(execute(parse_spec("r2 log(y) ~ log(x0)", 1), ds))
        assert "'r2_log(Y)_log(X_0)_na': 7" in text

    def test_sample_block_before_statistics(self):
        x = np.linspace(1, 2, 12)
        ds = make_dataset(x, x)
        text = render(execute(parse_spec("stats all\nsample 3", 1), ds, seed=0))
        assert text.index("### 3 Random Samples") < text.index("Statistics: {")

    def test_errors_line_last_and_joined(self):
        bad1 = Fit("r2", FeatureTerm((), FeatureRef(7)), "y")
        bad2 = Fit("r2", FeatureTerm((), FeatureRef(8)), "y")
        spec = AnalysisSpec((bad1, bad2, DescribeStats((None,))), arity=1)
        ds = make_dataset(np.linspace(1, 2, 10), np.linspace(1, 2, 10))
        text = render(execute(spec, ds))
        lines = text.splitlines()
        assert lines[-1].startswith("Analysis errors: ")
        assert lines[-1].count(";") == 1

    def test_empty_report(self):
        ds = make_dataset(np.linspace(1, 2, 10), np.linspace(1, 2, 10))
        assert render(execute(parse_spec("", 1), ds)) == ""

    def test_render_is_pure(self):
        x = np.linspace(1, 2, 20)
        ds = make_dataset(x, x**2)
        report = execute(default_hint_spec(1), ds, seed=5)
        assert render(report) == render(report)


class TestReportJson:
    def test_round_trippable_types(self):
        import json

        x = np.linspace(1, 2, 20)
        ds = make_dataset(x, x**2)
        payload = report_to_json(execute(default_hint_spec(1), ds, seed=0))
        encoded = json.dumps(payload)
        assert json.loads(encoded) == payload

    def test_non_finite_becomes_null(self):
        from symreg.context import AnalysisReport, ReportEntry

        report = AnalysisReport(
            (ReportEntry("k", float("inf"), detail={"slope": float("nan")}),), (), ""
        )
        payload = report_to_json(report)
        entry = payload["entries"][0]
        assert entry["value"] is None
        assert entry["detail"]["slope"] is None
