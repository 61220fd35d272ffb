"""Micro-benchmarks of task set-up, a round's overhead and the assignment ladder.

Usage (from the root of a checkout)::

    python3 scripts/microbench.py {task,overhead,ladder} [--src DIR] [--src DIR ...]

Each ``--src`` (default: this checkout's ``src``) is imported by fresh child
processes, with BLAS pinned to one thread. Within each run every source
starts its children in turn, so a comparison of checkouts shares one
session's load. Every suite uses the demo config's task shape at K clients:
10 classes, 50 samples per client, 8 features, concentration 0.3 or two
shards per client.

- ``task``: for K = 1,000 and 10,000 and each skew (``dirichlet``,
  ``shards``), five processes per source each build the task (seed 7) with
  one ``generate_task`` call and report its wall time in seconds and the
  peak RSS (``ru_maxrss``) after importing and after the call: one task
  build in a new process, so no earlier build's freed memory shapes the peak.
- ``overhead``: three processes per source time, per call in microseconds,
  7 times each, parts of a round:
  - ``evaluate`` of the initial model on the test set of the demo config
    (``desk``: 1,000 samples, an MLP) and of the ``icg-shards-k120``
    overrides (``icg``: K = 120 under shards, ``softmax_linear``);
  - at the round shapes of those two runs, L = 2 (desk, M = 30, 9 sampled
    groups) and L = 15 (icg, M = 8, 2 sampled groups), one round's stream
    derivation, the way the call sites derive it (one ``stream_ids`` call
    per key set, one ``seed_states`` pass per stream list, orders shuffled
    in place in an ``arange`` tile), and its lockstep training:
    - ``batch_seeds``: the (G, L) batch seeds of the sampled chains;
    - ``batch_orders``: their batch-order streams and every (position,
      epoch)'s (G, n) orders, shuffled in one pass over one tile;
    - ``icg_streams``: the L cluster-deal and M group-order streams;
    - ``train_chains``: one call on the run's clients, initial model and
      SGD settings, with those chains and batch seeds.
- ``ladder``: for each (K, L) rung of ``LADDER`` and each skew, the points
  are the class counts of the task (seed 3). Three processes per source time
  two ``cluster_assignment`` calls 7 times each, in milliseconds, as an ICG
  round makes them, and record the SHA-256 of each call's output bytes and
  its Bellman-Ford search count:
  - ``first``: at the seeded initial centroids, ``L`` distinct points drawn
    the way ``constrained_cluster`` draws them (seed 3);
  - ``second``: at the centroids ``cluster_update`` moves them to after the
    first call.

Prints one JSON object: the host, every child's figures and, per source and
case, the best and median time and the largest of each other figure; and,
for the cases that record output bytes, whether every source and child
returned the same bytes after the same number of searches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 7  # timings per case and process (overhead and ladder)
SKEWS = ("dirichlet", "shards")
TASK_CLIENTS = (1000, 10000)
TASK_SEED = 7
ICG_OVERRIDES = {
    "algorithm": "naive_gsp_icg",
    "task.num_clients": "120",
    "task.skew": "shards",
    "fixed_group_count": "8",
    "model.kind": "softmax_linear",
}
# (name, L, M, sampled groups G): one round of each run.
ROUND_SHAPES = (("desk", 2, 30, 9), ("icg", 15, 8, 2))
EVALUATE_CALLS = 200  # calls per overhead timing
TRAIN_CALLS = 20
STREAM_CALLS = 500
STREAM_SEED = 7
LADDER = ((60, 15), (120, 15), (240, 60), (480, 120), (1000, 250))
LADDER_SEED = 3


def task_spec(num_clients: int, skew: str, seed: int):
    from fedgsp.datagen import SyntheticTaskSpec

    return SyntheticTaskSpec(
        num_classes=10, num_clients=num_clients, samples_per_client=50, feature_dim=8,
        skew=skew, concentration=0.3, shards_per_client=2, seed=seed,
    )


def repeat_timings(call, number: int, scale: float) -> list[float]:
    """``REPEATS`` timings of ``number`` calls, per call, times ``scale``."""
    return [t / number * scale for t in timeit.repeat(call, number=number, repeat=REPEATS)]


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def task_child(num_clients: str, skew: str) -> dict:
    from fedgsp.datagen import generate_task

    spec = task_spec(int(num_clients), skew, TASK_SEED)
    import_rss = peak_rss_mb()
    start = time.perf_counter()
    generate_task(spec)
    seconds = time.perf_counter() - start
    figures = {"s": [seconds], "import_rss_mb": import_rss, "peak_rss_mb": peak_rss_mb()}
    return {f"{skew}/K{num_clients}": figures}


def round_cases(state, group_size: int, group_count: int, sampled: int) -> dict:
    """One round's stream derivations and lockstep training, as zero-argument callables."""
    from fedgsp import rng
    from fedgsp.trainer import train_chains

    n = state.clients.labels.shape[1]
    round_index = 3
    chains = np.arange(sampled * group_size).reshape(sampled, group_size)
    keys = [(round_index, g, int(c)) for g, members in enumerate(chains) for c in members]
    epochs = range(1)

    def batch_seeds():
        return rng.stream_ids(STREAM_SEED, "batch", keys).reshape(chains.shape)

    seeds = batch_seeds()

    def batch_orders():
        flat = [s for column in seeds.T.tolist() for _ in epochs for s in column]
        ids = [e for e in epochs for _ in range(sampled)] * group_size
        streams = rng.stream_generators(rng.stream_ids(flat, "batch-order", ids))
        orders = np.tile(np.arange(n), (group_size, len(epochs), sampled, 1))
        for order, stream in zip(orders.reshape(-1, n), streams):
            stream.shuffle(order)

    def icg_streams():
        ids = np.concatenate([
            rng.stream_ids(STREAM_SEED, "cluster-deal", range(group_size)),
            rng.stream_ids(STREAM_SEED, "group-order", range(group_count)),
        ])
        return list(rng.stream_generators(ids))

    def training():
        return train_chains(state.params, state.clients, chains, seeds, state.config.sgd)

    return {
        "batch_seeds": (batch_seeds, STREAM_CALLS),
        "batch_orders": (batch_orders, STREAM_CALLS),
        "icg_streams": (icg_streams, STREAM_CALLS),
        "train_chains": (training, TRAIN_CALLS),
    }


def overhead_child() -> dict:
    from fedgsp.config import load_config_file, resolve
    from fedgsp.orchestrator import new_experiment_state
    from fedgsp.trainer import evaluate

    settings = load_config_file(str(ROOT / "demos" / "experiment.cfg"))
    cases, states = {}, {}
    for name, overrides in (("desk", {}), ("icg", ICG_OVERRIDES)):
        state = states[name] = new_experiment_state(resolve(settings, overrides).experiment)
        timed = repeat_timings(lambda: evaluate(state.params, state.test_set), EVALUATE_CALLS, 1e6)
        cases[f"evaluate/{name}"] = {"us": timed}
    for name, group_size, group_count, sampled in ROUND_SHAPES:
        round_shape = (states[name], group_size, group_count, sampled)
        for case, (call, number) in round_cases(*round_shape).items():
            cases[f"{case}/{name}-L{group_size}"] = {"us": repeat_timings(call, number, 1e6)}
    return cases


def ladder_child() -> dict:
    from fedgsp import grouping
    from fedgsp.datagen import generate_task
    from fedgsp.rng import generator

    searches = 0
    shortest_paths = grouping._shortest_paths

    def counted(swap, excess):
        nonlocal searches
        searches += 1
        return shortest_paths(swap, excess)

    cases = {}
    for skew in SKEWS:
        for num_clients, num_clusters in LADDER:
            counts = generate_task(task_spec(num_clients, skew, LADDER_SEED))[1]
            points = np.asarray(counts, dtype=float)
            init = generator(LADDER_SEED, "centroid-init").choice(
                num_clients, size=num_clusters, replace=False
            )
            centroids = {"first": points[np.sort(init)].copy()}
            for call in ("first", "second"):
                grouping._shortest_paths = counted
                searches = 0
                assignment = grouping.cluster_assignment(points, centroids[call])
                grouping._shortest_paths = shortest_paths
                timed = repeat_timings(
                    lambda: grouping.cluster_assignment(points, centroids[call]), 1, 1e3
                )
                cases[f"{skew}/K{num_clients}-L{num_clusters}/{call}"] = {
                    "ms": timed,
                    "sha256": hashlib.sha256(assignment.tobytes()).hexdigest(),
                    "searches": searches,
                }
                centroids["second"] = grouping.cluster_update(points, assignment)
    return cases


# suite: (child body, fresh processes per case and source, unit of its times)
SUITES = {
    "task": (task_child, 5, "s"),
    "overhead": (overhead_child, 3, "us"),
    "ladder": (ladder_child, 3, "ms"),
}


def child_arguments(suite: str) -> list[tuple[str, ...]]:
    """The arguments of each child a run starts per source: task builds one (K, skew) each."""
    if suite == "task":
        return [(str(num_clients), skew) for num_clients in TASK_CLIENTS for skew in SKEWS]
    return [()]


def run_child(src: Path, suite: str, arguments: tuple[str, ...]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    command = [sys.executable, __file__, suite, "--child", *arguments]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summarise(runs: dict[str, list[dict]], unit: str) -> tuple[dict, dict]:
    """Per source and case, the best and median time and the largest other figure;
    per case that records ``sha256``, whether every child agrees on it and ``searches``."""
    figures = {}  # case -> source -> every child's figures
    for src, children in runs.items():
        for child in children:
            for case, values in child.items():
                figures.setdefault(case, {}).setdefault(src, []).append(values)
    timings, identical = {src: {} for src in runs}, {}
    for case, by_source in figures.items():
        for src, children in by_source.items():
            times = [t for values in children for t in values[unit]]
            summary = {f"best_{unit}": min(times), f"median_{unit}": statistics.median(times)}
            for name, value in children[0].items():
                if name != unit and not isinstance(value, str):
                    summary[name] = max(values[name] for values in children)
            timings[src][case] = summary
        outputs = [values for children in by_source.values() for values in children]
        if "sha256" in outputs[0]:
            identical[case] = len({(v["sha256"], v["searches"]) for v in outputs}) == 1
    return timings, identical


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--src", type=Path, action="append")
    parser.add_argument("--child", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    child, processes, unit = SUITES[args.suite]
    if args.child is not None:
        print(json.dumps(child(*args.child)))
        return
    sources = [src.resolve() for src in args.src or [ROOT / "src"]]
    runs = {str(src): [] for src in sources}
    for _ in range(processes):
        for arguments in child_arguments(args.suite):
            for src in sources:
                runs[str(src)].append(run_child(src, args.suite, arguments))
    timings, identical = summarise(runs, unit)
    host = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    result = {"suite": args.suite, "host": host, "identical": identical, "timings": timings}
    print(json.dumps({**result, "runs": runs}, indent=1))


if __name__ == "__main__":
    main()
