"""Self-tests of the benchmark harness: ``python -m pytest perfbench``.

The smoke tests run every workload for two rounds per job in a scratch copy of
the checkout layout, traced and untraced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
from tracer import Span, Tracer, self_times


def test_self_times_subtract_the_union_of_children():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 1),
        Span("a.inner", 20, 30, 1, 1),
        Span("b", 50, 70, 0, 2),
        Span("c", 60, 80, 0, 2),  # overlaps b: covered time counts once
    ]
    assert self_times(spans) == [100 - 30 - 30, 30 - 10, 10, 20, 20]


def test_benchmark_json_names_what_the_harness_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [name for name, w in run.WORKLOADS.items() if w.declared]
    assert [w["name"] for w in spec["workloads"]] == declared
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_tracer_patches_every_lookup_site():
    sys.path.insert(0, str(run.ROOT / "src"))
    import fedgsp.cli
    import fedgsp.grouping
    import fedgsp.mcf
    import fedgsp.orchestrator
    import fedgsp.trainer

    lookups = [
        (fedgsp.orchestrator, "train_one_client"),
        (fedgsp.orchestrator, "generate_task"),
        (fedgsp.grouping, "cluster_assignment"),
        (fedgsp.trainer, "loss_and_gradient"),
        (fedgsp.mcf, "solve"),
        (fedgsp.cli, "resolve"),
    ]
    originals = [getattr(module, name) for module, name in lookups]
    tracer = Tracer()
    tracer.install(layers.TARGETS, layers.PACKAGE)
    try:
        for (module, name), original in zip(lookups, originals):
            assert getattr(module, name).__wrapped__ is original, f"{module.__name__}.{name}"
    finally:
        tracer.uninstall()
    assert [getattr(module, name) for module, name in lookups] == originals


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "demos"):
        (root / name).symlink_to(run.ROOT / name)
    return root


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_of_each_workload(checkout, workload):
    plain = run.measure(checkout, workload, seed=0, seconds=0, trace=False, rounds=2)
    assert plain["errors"] == []
    assert plain["report"]["failed"] == 0 and plain["report"]["correct"]
    assert set(plain["report"]["metrics"]) == set(run.END_TO_END)

    traced = run.measure(checkout, workload, seed=0, seconds=0, trace=True, rounds=2)
    assert traced["errors"] == []
    assert traced["report"]["failed"] == 0 and traced["report"]["correct"]
    metrics = {k: v["value"] for k, v in traced["report"]["metrics"].items()}
    assert set(metrics) == set(layers.PER_LAYER)
    if workload == "fedavg-k2000":
        assert metrics["mcf.solve.calls"] == 0
    else:
        assert metrics["mcf.solve.calls"] > 0
    assert metrics["trainer.loss_and_gradient.calls"] > 0
    assert metrics["orchestrator.sampled_groups"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "desk-fedgsp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
