"""Dataset loading, validation, splitting, and problem definitions.

A dataset is a dense numeric table: an ``n x d`` feature matrix and a
length-``n`` target vector, all entries finite.  Problems add metadata (name,
task instructions, per-variable descriptions) plus paths to a training CSV
and an optional held-out test CSV.  The training data is further partitioned
into a fitting half (tr-tr) and a scoring half (tr-val) by a seeded shuffle.
``json_safe`` is the one sanitizer traces, summaries and reports pass through
before they are serialized, and ``write_json`` the one writer of run summaries
and suite reports.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

TARGET_COLUMN = "target"
MIN_SPLIT_ROWS = 5
DEFAULT_SPLIT_RATIO = 0.8


class DataError(ValueError):
    """Raised for malformed files, non-numeric cells, or bad split requests."""


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric table. Arrays are flagged read-only on construction."""

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]
    target_name: str = TARGET_COLUMN

    def __post_init__(self) -> None:
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.target, dtype=float)
        if X.ndim != 2:
            raise DataError(f"feature matrix must be 2-dimensional, got shape {X.shape}")
        if y.ndim != 1:
            raise DataError(f"target must be 1-dimensional, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise DataError(
                f"row mismatch: {X.shape[0]} feature rows vs {y.shape[0]} targets"
            )
        if X.shape[0] == 0 or X.shape[1] == 0:
            raise DataError(f"dataset must be non-empty, got shape {X.shape}")
        if len(self.feature_names) != X.shape[1]:
            raise DataError(
                f"{len(self.feature_names)} feature names for {X.shape[1]} columns"
            )
        if not np.all(np.isfinite(X)):
            r, c = np.argwhere(~np.isfinite(X))[0]
            raise DataError(
                f"non-finite value in column {self.feature_names[c]!r} at data row {r + 1}"
            )
        if not np.all(np.isfinite(y)):
            r = int(np.flatnonzero(~np.isfinite(y))[0])
            raise DataError(f"non-finite target at data row {r + 1}")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "target", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def arity(self) -> int:
        return int(self.features.shape[1])


def load_csv(path: str | Path) -> Dataset:
    """Load a headered CSV.

    The target is the column literally named ``target`` if present, else the
    last column.  A byte-order mark before the header is not part of it.
    All cells must parse as finite floats; errors name the offending column
    and 1-based data row.

    numpy's C reader parses the data rows.  Where it refuses the text, finds
    another column count than the header's or reads a non-finite cell, the
    row pass ``_load_csv_by_rows`` decides instead: it alone defines the
    accepted format and every error.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = _read_header(reader, path)
            table = _loadtxt_rows(fh, len(header))
        if table is None:
            return _load_csv_by_rows(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    return _table_dataset(header, table)


def _read_header(reader, path: Path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc} in header") from None
    header = [h.strip() for h in header]
    if len(header) < 2:
        raise DataError(f"{path}: need at least one feature column and a target")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    return header


def _loadtxt_rows(lines, width: int) -> np.ndarray | None:
    """The data rows after the header as a table, or None for the row pass
    to decide.  Blank lines before the first data line are skipped here:
    with no line left, ``np.loadtxt`` would warn that it read no data."""
    try:
        first = next((line for line in lines if line.strip()), None)
        if first is None:
            return None
        table = np.loadtxt(
            itertools.chain((first,), lines),
            dtype=float,
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=2,
        )
    except ValueError:
        return None
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def _load_csv_by_rows(path: Path) -> Dataset:
    """``load_csv`` record by record, one ``float()`` call per cell: the
    reference definition of the accepted format and of every error, which
    names the first fault in file order."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        rows: list[list[float]] = []
        lineno = 0
        try:
            for lineno, raw in enumerate(reader, start=1):
                if not raw or all(not cell.strip() for cell in raw):
                    continue
                if len(raw) != len(header):
                    raise DataError(
                        f"{path}: data row {lineno} has {len(raw)} cells, expected {len(header)}"
                    )
                parsed = []
                for col, cell in zip(header, raw):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: non-numeric value {cell.strip()!r} in column "
                            f"{col!r} at data row {lineno}"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: non-finite value in column {col!r} at data row {lineno}"
                        )
                    parsed.append(value)
                rows.append(parsed)
        except csv.Error as exc:  # raised reading the record after row lineno
            raise DataError(f"{path}: {exc} at data row {lineno + 1}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return _table_dataset(header, np.array(rows, dtype=float))


def _table_dataset(header: list[str], table: np.ndarray) -> Dataset:
    t = header.index(TARGET_COLUMN) if TARGET_COLUMN in header else len(header) - 1
    feat_cols = [i for i in range(len(header)) if i != t]
    return Dataset(
        features=table[:, feat_cols],
        target=table[:, t],
        feature_names=tuple(header[i] for i in feat_cols),
        target_name=header[t],
    )


@dataclass(frozen=True)
class SplitView:
    """Training data partitioned into a fitting half and a scoring half.

    ``tr_tr`` and ``tr_val`` are disjoint row subsets of the training data
    whose union (as a multiset of rows) is the training data.
    """

    tr_tr: Dataset
    tr_val: Dataset


def _subset(dataset: Dataset, indices: np.ndarray) -> Dataset:
    return Dataset(
        features=dataset.features[indices],
        target=dataset.target[indices],
        feature_names=dataset.feature_names,
        target_name=dataset.target_name,
    )


def split(
    dataset: Dataset,
    seed: int,
    ratio: float = DEFAULT_SPLIT_RATIO,
) -> SplitView:
    """Seeded shuffle then prefix/suffix partition of the training rows.

    Deterministic in (dataset row order, seed, ratio); the fitting half gets
    ``int(round(ratio * n))`` rows.  Datasets with fewer than 5 rows, or
    ratios that would leave either side empty, are rejected.
    """
    n = dataset.n_rows
    if n < MIN_SPLIT_ROWS:
        raise DataError(f"need at least {MIN_SPLIT_ROWS} rows to split, got {n}")
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    n_tr = int(round(ratio * n))
    if n_tr == 0 or n_tr == n:
        raise DataError(
            f"ratio {ratio} leaves an empty side for {n} rows "
            f"(tr_tr={n_tr}, tr_val={n - n_tr})"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return SplitView(
        tr_tr=_subset(dataset, perm[:n_tr]),
        tr_val=_subset(dataset, perm[n_tr:]),
    )


# ---------------------------------------------------------------------------
# Problems


@dataclass(frozen=True)
class ProblemSpec:
    """Metadata and file locations for one regression problem.

    ``ground_truth`` is the generating expression when known; it exists for
    offline verification only and is never shown to a generator.
    """

    name: str
    instructions: str
    data_path: Path
    test_path: Path | None = None
    variable_descriptions: tuple[str, ...] = ()
    target_description: str = ""
    ground_truth: str | None = None


@dataclass(frozen=True)
class Problem:
    """A ProblemSpec with its data loaded and descriptions hydrated."""

    spec: ProblemSpec
    train: Dataset
    test: Dataset | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def arity(self) -> int:
        return self.train.arity


def load_problem(path: str | Path) -> ProblemSpec:
    """Read a problem JSON; relative data paths resolve against the JSON dir."""
    path = Path(path)
    raw = read_json(path, DataError)
    if not isinstance(raw, dict):
        raise DataError(f"{path}: top level must be an object")
    for key in ("name", "instructions", "data_path"):
        if key not in raw:
            raise DataError(f"{path}: missing required key {key!r}")
    for key in ("name", "instructions", "data_path", "target_description"):
        if key in raw and not isinstance(raw[key], str):
            raise DataError(f"{path}: {key} must be a string, got {raw[key]!r}")
    for key in ("test_path", "ground_truth"):
        if not isinstance(raw.get(key), (str, type(None))):
            raise DataError(f"{path}: {key} must be a string or null, got {raw[key]!r}")
    name = raw["name"]
    # runs are written under <out_dir>/<name>/, so the name must stay inside it
    if name in ("", ".", "..") or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise DataError(f"{path}: problem name {name!r} must be one path component")
    descriptions = raw.get("variable_descriptions", [])
    if not (isinstance(descriptions, list) and all(isinstance(v, str) for v in descriptions)):
        raise DataError(
            f"{path}: variable_descriptions must be a list of strings, got {descriptions!r}"
        )
    base = path.parent
    test_path = raw.get("test_path")
    return ProblemSpec(
        name=name,
        instructions=raw["instructions"],
        data_path=base / raw["data_path"],
        test_path=base / test_path if test_path else None,
        variable_descriptions=tuple(descriptions),
        target_description=raw.get("target_description", ""),
        ground_truth=raw.get("ground_truth"),
    )


def load_problem_data(spec: ProblemSpec) -> Problem:
    """Load the CSVs behind a spec; default variable descriptions to headers."""
    train = load_csv(spec.data_path)
    test = load_csv(spec.test_path) if spec.test_path is not None else None
    if test is not None and test.arity != train.arity:
        raise DataError(
            f"problem {spec.name!r}: test arity {test.arity} != train arity {train.arity}"
        )
    if len(spec.variable_descriptions) not in (0, train.arity):
        raise DataError(
            f"problem {spec.name!r}: {len(spec.variable_descriptions)} variable "
            f"descriptions for {train.arity} features"
        )
    hydrated = replace(
        spec,
        variable_descriptions=spec.variable_descriptions or train.feature_names,
        target_description=spec.target_description or train.target_name,
    )
    return Problem(spec=hydrated, train=train, test=test)


# ---------------------------------------------------------------------------
# Validation and JSON


def check_counts(config, error_class: type[Exception], **least) -> None:
    """Check each count field of ``config`` named in ``least``, in order: an
    int or numpy integer that is not a bool, and at least its least value.
    The first field that is not raises ``error_class`` naming it.  ``2.5``
    and ``True`` compare like numbers, then fail or truncate inside
    ``range`` and numpy much later."""
    for name, minimum in least.items():
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise error_class(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise error_class(f"{name} must be >= {minimum}, got {value!r}")


def is_real(value) -> bool:
    """True for a real number (an int, a float or a numpy scalar) that is
    not a bool, which ``numbers.Real`` also admits."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def read_text(path: str | Path, error_class: type[Exception]) -> str:
    """The text of a UTF-8 file, without the byte-order mark it may start
    with.  A file that is not UTF-8 text raises ``error_class`` with a
    message that names the path."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error_class(f"{path}: not UTF-8 text ({exc})") from None


def read_json(path: str | Path, error_class: type[Exception]):
    """The JSON value in a UTF-8 file.  A file that is not UTF-8 text or
    not JSON raises ``error_class`` with a message that names the path."""
    try:
        return json.loads(read_text(path, error_class))
    except json.JSONDecodeError as exc:
        raise error_class(f"{path}: invalid JSON ({exc})") from None


def json_safe(value):
    """JSON-ready form of a value: non-finite floats become None, dataclass
    instances become dicts of their fields, tuples become lists, recursively.

    Walks ``fields()`` rather than using ``dataclasses.asdict``, which deep-
    copies every leaf and costs about twice as much on a trace record.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if is_dataclass(value):
        return {f.name: json_safe(getattr(value, f.name)) for f in fields(value)}
    return value


def write_json(path: str | Path, value) -> None:
    """Write a value as sorted, indented strict JSON, after ``json_safe``."""
    Path(path).write_text(
        json.dumps(json_safe(value), indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
