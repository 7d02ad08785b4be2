"""Dataset loading, validation, splitting, and problem definitions.

A dataset is a dense numeric table: an ``n x d`` feature matrix and a
length-``n`` target vector, all entries finite.  Problems add metadata (name,
task instructions, per-variable descriptions) plus paths to a training CSV
and an optional held-out test CSV.  The training data is further partitioned
into a fitting half (tr-tr) and a scoring half (tr-val) by a seeded shuffle.
``json_safe`` is the one sanitizer traces, summaries and reports pass through
before they are serialized.
"""

from __future__ import annotations

import csv
import json
import math
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
    last column.  All cells must parse as finite floats; errors name the
    offending column and 1-based data row.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if len(header) < 2:
            raise DataError(f"{path}: need at least one feature column and a target")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        rows: list[list[float]] = []
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
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.array(rows, dtype=float)
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
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: top level must be an object")
    for key in ("name", "instructions", "data_path"):
        if key not in raw:
            raise DataError(f"{path}: missing required key {key!r}")
    base = path.parent

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    test_path = raw.get("test_path")
    gt = raw.get("ground_truth")
    return ProblemSpec(
        name=str(raw["name"]),
        instructions=str(raw["instructions"]),
        data_path=resolve(str(raw["data_path"])),
        test_path=resolve(str(test_path)) if test_path else None,
        variable_descriptions=tuple(str(v) for v in raw.get("variable_descriptions", [])),
        target_description=str(raw.get("target_description", "")),
        ground_truth=str(gt) if gt is not None else None,
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
# JSON


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
