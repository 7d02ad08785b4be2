import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg.data import (
    DataError,
    Dataset,
    load_csv,
    load_problem,
    load_problem_data,
    split,
)
from tests.conftest import make_dataset, write_csv, write_problem_files


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
        spec = load_problem(path)
        assert spec.data_path.is_absolute() or spec.data_path.exists()
        assert load_problem_data(spec).train.n_rows == 6

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
