import csv
import http.server
import importlib.util
import json
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from symreg import harness
from symreg.data import Dataset, Problem, ProblemSpec
from symreg.expr import Skeleton, _random_tree, skeleton_from_node

REPO = Path(__file__).resolve().parents[1]


def make_dataset(X, y, names=None) -> Dataset:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    names = names or tuple(f"x{i}" for i in range(X.shape[1]))
    return Dataset(features=X, target=np.asarray(y, dtype=float), feature_names=names)


def random_expression(arity: int, rng_seed: int, max_depth: int = 4) -> Skeleton:
    """Seeded random Skeleton; always valid.  Its subtrees come from the
    mutator's own ``_random_tree``."""
    rng = random.Random(rng_seed)
    return skeleton_from_node(_random_tree(rng, arity, max_depth), arity)


def make_problem(
    dataset: Dataset,
    name="case",
    test: Dataset | None = None,
    variable_descriptions=None,
    target_description=None,
) -> Problem:
    spec = ProblemSpec(
        name=name,
        instructions=f"recover the law behind {name}",
        data_path=Path(f"{name}.csv"),
        variable_descriptions=variable_descriptions or dataset.feature_names,
        target_description=target_description or dataset.target_name,
    )
    return Problem(spec=spec, train=dataset, test=test)


def write_csv(path: Path, X, y, header=None) -> Path:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    header = header or [f"x{i}" for i in range(X.shape[1])] + ["target"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, t in zip(X, np.asarray(y, dtype=float)):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(t))])
    return path


def write_problem_files(tmp: Path, name: str, X, y, X_test=None, y_test=None) -> Path:
    write_csv(tmp / f"{name}.csv", X, y)
    spec = {
        "name": name,
        "instructions": f"recover the law behind {name}",
        "data_path": f"{name}.csv",
    }
    if X_test is not None:
        write_csv(tmp / f"{name}_test.csv", X_test, y_test)
        spec["test_path"] = f"{name}_test.csv"
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(spec))
    return path


class _Provider(http.server.BaseHTTPRequestHandler):
    """Scriptable chat-completions stub; class attrs set per test."""

    status = 200
    payload: dict = {}
    raw_body: bytes | None = None
    requests_seen: list = []
    delay = 0.0  # seconds to hold the reply; a held request gets none
    reply_delay = 0.0  # seconds to wait before the reply
    release = threading.Event()
    in_flight = 0
    most_in_flight = 0  # the most requests that were waiting at once
    counting = threading.Lock()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        stub = type(self)
        stub.requests_seen.append({"path": self.path, "headers": dict(self.headers), "body": body})
        if self.delay:
            self.release.wait(self.delay)
            return
        with stub.counting:
            stub.in_flight += 1
            stub.most_in_flight = max(stub.most_in_flight, stub.in_flight)
        self.release.wait(self.reply_delay)
        with stub.counting:
            stub.in_flight -= 1
        out = self.raw_body if self.raw_body is not None else json.dumps(self.payload).encode()
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

    def log_message(self, *args):
        pass


@pytest.fixture
def provider():
    """The URL of a chat-completions stub on localhost, and its class."""
    _Provider.status = 200
    _Provider.payload = {}
    _Provider.raw_body = None
    _Provider.requests_seen = []
    _Provider.delay = 0.0
    _Provider.reply_delay = 0.0
    _Provider.release = threading.Event()
    _Provider.in_flight = _Provider.most_in_flight = 0
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Provider)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", _Provider
    _Provider.release.set()
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture
def runs_started(monkeypatch):
    """The ``(problem, mode, seed)`` of each run that ``harness.run``
    computes, in the order they start: a suite's reused runs add none."""
    started = []
    original = harness.run

    def run(config, problem, generator, analysis_generator=None):
        started.append((problem.name, config.mode, config.seed))
        return original(config, problem, generator, analysis_generator)

    monkeypatch.setattr(harness, "run", run)
    return started


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """``perfbench/workloads.py``, which keeps its own copies of some of the
    program's settings, loaded as a module without perfbench on the path."""
    path = REPO / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture
def linear_dataset():
    rng = np.random.default_rng(11)
    X = rng.uniform(-3, 3, size=(60, 1))
    return make_dataset(X, 2.0 * X[:, 0])


@pytest.fixture
def kepler_dataset():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.4, 30.0, size=(80, 1))
    return make_dataset(X, X[:, 0] ** 1.5, names=("R",))
