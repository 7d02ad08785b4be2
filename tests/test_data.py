import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg import data
from symreg.data import (
    DataError,
    Dataset,
    _load_csv_by_rows,
    load_csv,
    load_problem,
    load_problem_data,
    split,
)
from symreg.fit import FitError, OptimizerConfig
from symreg.harness import HarnessError, SuiteConfig
from symreg.search import K_DEMOS, SearchConfig, SearchError
from tests.conftest import make_dataset, write_csv, write_problem_files


BUNDLED = Path(__file__).resolve().parent.parent / "problems"

_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: f"{v:+.3e}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["1_0", "nan", "-inf", "Infinity", "#", "#1", "", " ", "1e", ".5", "-0", "0x1", '"', "1 2"]
    ),
)


def _cell(draw) -> str:
    cell = draw(_CELLS)
    pad = draw(st.sampled_from(["", " ", "\t", "  "]))
    cell = draw(st.sampled_from([cell, pad + cell, cell + pad, pad + cell + pad]))
    if draw(st.booleans()):
        cell = '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def _csv_texts(draw) -> str:
    """CSV texts near the accepted format: padded and quoted numbers, blank,
    whitespace-only and all-blank rows, cells numpy and float() read
    differently, CRLF endings, ragged rows and a consistent extra column."""
    header = draw(st.sampled_from(["a,y", "a,b,target", "target,a", " a , b ,c"]))
    width = header.count(",") + 1 + draw(st.sampled_from([0, 0, 0, 1]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "commas", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        elif kind == "commas":
            lines.append("," * (width - 1))
        else:
            n = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            lines.append(",".join(_cell(draw) for _ in range(n)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header, *lines]) + draw(st.sampled_from(["", end]))


def _outcome(load, path):
    """Names and bytes of the arrays a loader returns, or its error text."""
    try:
        ds = load(path)
    except DataError as exc:
        return str(exc)
    return (
        ds.feature_names,
        ds.target_name,
        ds.features.shape,
        ds.features.tobytes(),
        ds.target.tobytes(),
    )


class TestLoadCsv:
    def test_two_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y\n1,2\n2,4\n")
        ds = load_csv(path)
        assert ds.n_rows == 2 and ds.arity == 1
        assert ds.target.tolist() == [2.0, 4.0]

    def test_named_target_column_wins_over_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("target,a,b\n1,2,3\n4,5,6\n")
        ds = load_csv(path)
        assert ds.target.tolist() == [1.0, 4.0]
        assert ds.feature_names == ("a", "b")

    def test_last_column_default_target(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n")
        ds = load_csv(path)
        assert ds.target_name == "y"
        assert ds.feature_names == ("a", "b")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2\nabc,4\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert "'abc'" in str(err.value)
        assert "'a'" in str(err.value)
        assert "row 2" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize("rows", [0, 20_000])
    def test_text_that_is_not_utf8_is_named(self, tmp_path, rows):
        # the decoder's message alone did not say which file; with many rows
        # the bad byte is decoded after the header, in numpy's pass and then
        # in the row pass
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,y\n" + b"1,2\n" * rows + b"\xff\xfe1,2\n")
        with pytest.raises(DataError, match=r"d\.csv: not UTF-8 text \('utf-8' codec"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2\n1,2,3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path)

    def test_header_cell_over_the_csv_field_limit(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(f"a,{'y' * 140_000}\n1,2\n")
        with pytest.raises(DataError, match=r"d\.csv: field larger than .* in header$"):
            load_csv(path)

    def test_data_cell_over_the_csv_field_limit(self, tmp_path):
        long_four = "0" * 139_999 + "4"
        path = tmp_path / "d.csv"
        # the non-numeric cell sends the file to the row pass, which reads rows in order
        path.write_text(f"a,y\n1,2\n3,{long_four}\nabc,4\n")
        with pytest.raises(DataError, match=r"d\.csv: field larger than .* at data row 2$"):
            load_csv(path)
        # numpy's reader has no field limit, so a file it reads whole keeps the cell
        path.write_text(f"a,y\n1,2\n3,{long_four}\n")
        assert load_csv(path).target.tolist() == [2.0, 4.0]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2\n\n3,4\n")
        assert load_csv(path).n_rows == 2

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1e-3,2.5E+2\n2,3\n")
        ds = load_csv(path)
        assert ds.features[0, 0] == 1e-3
        assert ds.target[0] == 250.0

    def test_row_order_preserved(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n5,1\n3,2\n9,3\n")
        assert load_csv(path).features[:, 0].tolist() == [5.0, 3.0, 9.0]

    # numpy's reader refuses these rows; the row pass reads them
    @pytest.mark.parametrize(
        "text, features, target",
        [
            ("a,y\n1,2\n \t \n3,4\n", [1.0, 3.0], [2.0, 4.0]),  # whitespace-only row
            ("a,y\n1,2\n,\n3,4\n", [1.0, 3.0], [2.0, 4.0]),  # all-blank row
            ("a,y\n1_0,2\n3,4_5\n", [10.0, 3.0], [2.0, 45.0]),  # float() reads underscores
        ],
    )
    def test_rows_numpy_refuses_load(self, tmp_path, text, features, target):
        path = tmp_path / "d.csv"
        path.write_text(text)
        ds = load_csv(path)
        assert ds.features[:, 0].tolist() == features
        assert ds.target.tolist() == target

    # Excel's "CSV UTF-8" starts the file with a byte-order mark, which once
    # became part of the first column's name: a first column named target
    # was then a feature, and the last column the target
    @pytest.mark.parametrize(
        "rows", ["1,2,3\n4,5,6\n", "1,2,3\n,,\n4,5,6\n"], ids=["numpy", "row-pass"]
    )
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        path.write_bytes(("\ufefftarget,x0,x1\n" + rows).encode())
        ds = load_csv(path)
        assert ds.target_name == "target"
        assert ds.feature_names == ("x0", "x1")
        assert ds.target.tolist() == [1.0, 4.0]
        assert ds.features.tolist() == [[2.0, 3.0], [5.0, 6.0]]

    @pytest.mark.parametrize("text", ["a,y\n", "a,y\n\n\r\n"])
    def test_header_only_raises_without_a_warning(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="no data rows"):
                load_csv(path)
        assert caught == []

    @pytest.mark.parametrize("name", sorted(p.name for p in BUNDLED.glob("*.csv")))
    def test_bundled_files_load_without_the_row_pass(self, name, monkeypatch):
        expected = _outcome(_load_csv_by_rows, BUNDLED / name)
        monkeypatch.setattr(data, "_load_csv_by_rows", None)
        assert _outcome(load_csv, BUNDLED / name) == expected

    @settings(max_examples=300, deadline=None)
    @given(text=_csv_texts())
    def test_matches_the_row_pass(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode())
        assert _outcome(load_csv, path) == _outcome(_load_csv_by_rows, path)


def _suite_config(**counts):
    return SuiteConfig(
        problems=(Path("p.json"),), modes=("llm-sr",), out_dir=Path("out"),
        search=SearchConfig(mode="llm-sr"), generator={"type": "mutation"}, **counts,
    )


# (config constructor, its error class, count field, least value)
COUNT_FIELDS = [
    (SearchConfig, SearchError, "iterations", 1),
    (SearchConfig, SearchError, "samples_per_prompt", 1),
    (SearchConfig, SearchError, "islands", 1),
    (SearchConfig, SearchError, "island_capacity", K_DEMOS),
    (SearchConfig, SearchError, "seed", 0),
    (SearchConfig, SearchError, "retry_budget", 0),
    (OptimizerConfig, FitError, "restarts", 1),
    (OptimizerConfig, FitError, "max_iterations", 1),
    (OptimizerConfig, FitError, "max_evaluations", 1),
    (_suite_config, HarnessError, "repeats", 1),
    (_suite_config, HarnessError, "workers", 1),
]


class TestCheckCounts:
    @pytest.mark.parametrize(
        "build, error, name, least", COUNT_FIELDS, ids=[row[2] for row in COUNT_FIELDS]
    )
    def test_each_count_field_follows_the_one_rule(self, build, error, name, least):
        assert getattr(build(**{name: least}), name) == least
        below = re.escape(f"{name} must be >= {least}, got {least - 1}")
        with pytest.raises(error, match=below):
            build(**{name: least - 1})
        for value in (True, 2.0, "2"):
            not_integer = re.escape(f"{name} must be an integer, got {value!r}")
            with pytest.raises(error, match=not_integer):
                build(**{name: value})

    def test_the_first_bad_field_in_field_order_is_named(self):
        # a type error used to be reported before any range error
        with pytest.raises(SearchError, match="iterations must be >= 1, got 0"):
            SearchConfig(iterations=0, islands=2.0)


class TestDataset:
    def test_arrays_read_only(self):
        ds = make_dataset([[1.0], [2.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.target[0] = 9.0

    def test_row_mismatch(self):
        with pytest.raises(DataError, match="row mismatch"):
            Dataset(np.ones((3, 1)), np.ones(2), ("a",))

    def test_non_finite_feature_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(np.array([[1.0], [np.nan]]), np.ones(2), ("a",))

    def test_non_finite_target_rejected(self):
        with pytest.raises(DataError, match="non-finite target"):
            Dataset(np.ones((2, 1)), np.array([1.0, np.inf]), ("a",))

    def test_name_count_mismatch(self):
        with pytest.raises(DataError, match="feature names"):
            Dataset(np.ones((2, 2)), np.ones(2), ("a",))


class TestSplit:
    def test_cardinality(self):
        ds = make_dataset(np.arange(10.0), np.arange(10.0))
        view = split(ds, seed=0, ratio=0.8)
        assert view.tr_tr.n_rows == 8
        assert view.tr_val.n_rows == 2

    def test_determinism(self):
        ds = make_dataset(np.arange(20.0), np.arange(20.0) * 2)
        a = split(ds, seed=5)
        b = split(ds, seed=5)
        assert np.array_equal(a.tr_tr.features, b.tr_tr.features)
        assert np.array_equal(a.tr_val.target, b.tr_val.target)

    def test_different_seeds_differ(self):
        ds = make_dataset(np.arange(20.0), np.arange(20.0))
        a = split(ds, seed=1)
        b = split(ds, seed=2)
        assert not np.array_equal(a.tr_tr.features, b.tr_tr.features)

    def test_disjoint_and_complete(self):
        ds = make_dataset(np.arange(11.0), np.arange(11.0) + 100)
        view = split(ds, seed=3, ratio=0.7)
        merged = sorted(
            view.tr_tr.features[:, 0].tolist() + view.tr_val.features[:, 0].tolist()
        )
        assert merged == sorted(ds.features[:, 0].tolist())

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_union_multiset_equality_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        ds = make_dataset(X, y)
        view = split(ds, seed=seed, ratio=0.8)
        rows = np.vstack([view.tr_tr.features, view.tr_val.features])
        targets = np.concatenate([view.tr_tr.target, view.tr_val.target])
        got = sorted(map(tuple, np.column_stack([rows, targets]).tolist()))
        want = sorted(map(tuple, np.column_stack([X, y]).tolist()))
        assert got == want

    def test_too_few_rows(self):
        ds = make_dataset(np.arange(4.0), np.arange(4.0))
        with pytest.raises(DataError, match="at least 5"):
            split(ds, seed=0)

    def test_bad_ratio(self):
        ds = make_dataset(np.arange(10.0), np.arange(10.0))
        with pytest.raises(DataError, match="ratio"):
            split(ds, seed=0, ratio=1.2)

    def test_ratio_leaving_empty_side(self):
        ds = make_dataset(np.arange(5.0), np.arange(5.0))
        with pytest.raises(DataError, match="empty side"):
            split(ds, seed=0, ratio=0.95)

    def test_view_records_seed_and_ratio(self):
        # the view is the one (seed, ratio) define: the seeded permutation's
        # first int(round(0.6 * 10)) rows fit, the rest score
        ds = make_dataset(np.arange(10.0), np.arange(10.0))
        view = split(ds, seed=9, ratio=0.6)
        perm = np.random.default_rng(9).permutation(10)
        assert view.tr_tr.target.tolist() == perm[:6].tolist()
        assert view.tr_val.target.tolist() == perm[6:].tolist()


class TestProblems:
    def test_load_and_hydrate(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.uniform(1, 2, size=(10, 2))
        y = X[:, 0] + X[:, 1]
        path = write_problem_files(tmp_path, "sum2", X, y, X_test=X, y_test=y)
        problem = load_problem_data(load_problem(path))
        assert problem.name == "sum2"
        assert problem.arity == 2
        assert problem.test is not None
        # descriptions default to CSV headers
        assert problem.spec.variable_descriptions == ("x0", "x1")

    def test_relative_paths_resolve_against_json_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        X = np.arange(6.0).reshape(-1, 1)
        path = write_problem_files(sub, "rel", X, X[:, 0])
        # an absolute path is taken as it is
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        write_csv(elsewhere / "held_out.csv", X[:4], X[:4, 0])
        raw = json.loads(path.read_text())
        raw["test_path"] = str(elsewhere / "held_out.csv")
        path.write_text(json.dumps(raw))
        spec = load_problem(path)
        assert spec.data_path == sub / "rel.csv"
        assert spec.test_path == elsewhere / "held_out.csv"
        problem = load_problem_data(spec)
        assert problem.train.n_rows == 6
        assert problem.test.n_rows == 4

    def test_make_problems_regenerates_bundled_files(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        subprocess.run(
            [sys.executable, str(root / "scripts" / "make_problems.py"), "--out", str(tmp_path)],
            check=True,
        )
        bundled = sorted(p.name for p in (root / "problems").iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == bundled
        for name in bundled:
            assert (tmp_path / name).read_bytes() == (root / "problems" / name).read_bytes(), name

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(DataError, match="instructions"):
            load_problem(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(DataError, match="invalid JSON"):
            load_problem(path)

    def test_byte_order_mark_before_the_json_loads(self, tmp_path):
        X = np.arange(6.0).reshape(-1, 1)
        path = write_problem_files(tmp_path, "bom", X, X[:, 0])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_problem(path).name == "bom"

    def test_text_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(DataError, match=r"bad\.json: not UTF-8 text"):
            load_problem(path)

    def test_description_count_mismatch(self, tmp_path):
        X = np.arange(6.0).reshape(-1, 1)
        write_csv(tmp_path / "one.csv", X, X[:, 0])
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps(
                {
                    "name": "one",
                    "instructions": "i",
                    "data_path": "one.csv",
                    "variable_descriptions": ["a", "b", "c"],
                }
            )
        )
        with pytest.raises(DataError, match="variable"):
            load_problem_data(load_problem(path))

    def test_test_arity_mismatch(self, tmp_path):
        X1 = np.arange(6.0).reshape(-1, 1)
        X2 = np.arange(12.0).reshape(-1, 2)
        write_csv(tmp_path / "a.csv", X1, X1[:, 0])
        write_csv(tmp_path / "b.csv", X2, X2[:, 0])
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {
                    "name": "p",
                    "instructions": "i",
                    "data_path": "a.csv",
                    "test_path": "b.csv",
                }
            )
        )
        with pytest.raises(DataError, match="arity"):
            load_problem_data(load_problem(path))

    def test_ground_truth_carried(self, tmp_path):
        X = np.arange(6.0).reshape(-1, 1)
        write_csv(tmp_path / "g.csv", X, X[:, 0])
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "name": "g",
                    "instructions": "i",
                    "data_path": "g.csv",
                    "ground_truth": "x0",
                }
            )
        )
        assert load_problem(path).ground_truth == "x0"

    # a suite writes a problem's runs under <out_dir>/<name>/
    @pytest.mark.parametrize("name", ["", ".", "..", "/tmp/evil", "../up", "a/b", "up/"])
    def test_name_must_be_one_path_component(self, tmp_path, name):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": name, "instructions": "i", "data_path": "p.csv"}))
        with pytest.raises(DataError, match="one path component"):
            load_problem(path)

    @pytest.mark.parametrize("name", ["kepler", "a.b", "..a", "x y"])
    def test_single_component_names_load(self, tmp_path, name):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": name, "instructions": "i", "data_path": "p.csv"}))
        assert load_problem(path).name == name

    @pytest.mark.parametrize("descriptions", ["ab", {"x0": "a"}, 3])
    def test_variable_descriptions_must_be_a_list(self, tmp_path, descriptions):
        # a string used to become one description per character
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {
                    "name": "p",
                    "instructions": "i",
                    "data_path": "p.csv",
                    "variable_descriptions": descriptions,
                }
            )
        )
        with pytest.raises(DataError, match="variable_descriptions must be a list"):
            load_problem(path)

    # str() used to read a file named None, prompt with "Problem: None" and
    # drop the test set of a test_path such as 0
    @pytest.mark.parametrize(
        "key, value",
        [
            ("name", 3),
            ("instructions", None),
            ("data_path", None),
            ("target_description", 1),
            ("variable_descriptions", ["a", None]),
            ("test_path", 0),
            ("ground_truth", 1.5),
        ],
    )
    def test_text_values_must_be_strings(self, tmp_path, key, value):
        path = tmp_path / "p.json"
        raw = {"name": "p", "instructions": "i", "data_path": "p.csv", key: value}
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError, match=key):
            load_problem(path)

    def test_test_path_and_ground_truth_may_be_null(self, tmp_path):
        path = tmp_path / "p.json"
        raw = {"name": "p", "instructions": "i", "data_path": "p.csv"}
        path.write_text(json.dumps({**raw, "test_path": None, "ground_truth": None}))
        spec = load_problem(path)
        assert spec.test_path is None and spec.ground_truth is None
