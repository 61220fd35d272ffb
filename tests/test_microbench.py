"""Smoke tests of ``scripts/microbench.py``: each suite's child body, shrunk to
its smallest case and one repeat, runs in-process against this ``fedgsp``."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fedgsp import grouping
from fedgsp.datagen import SyntheticTaskSpec, generate_task
from fedgsp.rng import generator

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "microbench.py"
_spec = importlib.util.spec_from_file_location("microbench", SCRIPT)
microbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(microbench)


@pytest.fixture()
def shrunk(monkeypatch):
    """The harness at its smallest case of each suite, with one repeat."""
    monkeypatch.setattr(microbench, "REPEATS", 1)
    monkeypatch.setattr(microbench, "SKEWS", ("shards",))
    monkeypatch.setattr(microbench, "TASK_CLIENTS", (1000,))
    monkeypatch.setattr(microbench, "LADDER", ((60, 15),))
    monkeypatch.setattr(microbench, "EVALUATE_CALLS", 1)
    monkeypatch.setattr(microbench, "STREAM_CALLS", 1)
    monkeypatch.setattr(microbench, "TRAIN_CALLS", 1)
    # Restored after the test even if the ladder child fails mid-count.
    monkeypatch.setattr(grouping, "_shortest_paths", grouping._shortest_paths)
    return microbench


def test_ladder_reports_the_assignment_bytes_and_searches(shrunk):
    cases = shrunk.ladder_child()
    assert set(cases) == {"shards/K60-L15/first", "shards/K60-L15/second"}
    spec = SyntheticTaskSpec(
        num_classes=10, num_clients=60, samples_per_client=50, feature_dim=8,
        skew="shards", seed=3,
    )
    points = np.asarray(generate_task(spec)[1], dtype=float)
    init = generator(3, "centroid-init").choice(60, size=15, replace=False)
    centroids = points[np.sort(init)]
    first = cases["shards/K60-L15/first"]
    expected = hashlib.sha256(grouping.cluster_assignment(points, centroids).tobytes())
    assert first["sha256"] == expected.hexdigest()
    assert first["searches"] > 0
    assert len(first["ms"]) == 1


def test_overhead_times_every_case(shrunk):
    cases = shrunk.overhead_child()
    assert set(cases) == {
        f"{case}/{shape}"
        for case in ("batch_seeds", "batch_orders", "icg_streams")
        for shape in ("desk-L2", "icg-L15")
    } | {"evaluate/desk", "evaluate/icg", "train_chains/desk-L2", "train_chains/icg-L15"}
    assert all(len(figures["us"]) == 1 and figures["us"][0] > 0 for figures in cases.values())


def test_task_times_one_build(shrunk):
    [(num_clients, skew)] = shrunk.child_arguments("task")
    figures = shrunk.task_child(num_clients, skew)["shards/K1000"]
    assert figures["s"][0] > 0
    assert figures["peak_rss_mb"] >= figures["import_rss_mb"] > 0


def test_summary_compares_every_source_and_child():
    same = {"ms": [2.0, 1.0], "sha256": "a", "searches": 3}
    runs = {
        "old": [{"first": same, "second": same}, {"first": same, "second": same}],
        "new": [
            {"first": {**same, "ms": [4.0, 3.0]}, "second": same},
            {"first": same, "second": {**same, "searches": 4}},
        ],
    }
    timings, identical = microbench.summarise(runs, "ms")
    assert identical == {"first": True, "second": False}
    assert timings["new"]["first"] == {"best_ms": 1.0, "median_ms": 2.5, "searches": 3}
    assert timings["new"]["second"]["searches"] == 4
    assert timings["old"]["second"] == {"best_ms": 1.0, "median_ms": 1.5, "searches": 3}
