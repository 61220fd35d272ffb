"""Time the balanced assignment over a (K, L) ladder, under both skews.

Usage (from the root of a checkout)::

    python3 scripts/assignment_ladder_bench.py [--src DIR] [--src DIR ...]

For (K, L) = (60, 15), (120, 15), (240, 60), (480, 120) and (1000, 250) and
each skew (``dirichlet``, ``shards``), the points are the class counts of
the demo config's task shape at K clients (10 classes, 50 samples per
client, 8 features, concentration 0.3 or two shards per client, task seed
3). Two ``cluster_assignment`` calls are timed, as an ICG round makes them:

- ``first``: at the seeded initial centroids, ``L`` distinct points drawn
  the way ``constrained_cluster`` draws them (seed 3);
- ``second``: at the centroids ``cluster_update`` moves them to after the
  first call.

Each ``--src`` (default: this checkout's ``src``) is imported by three fresh
child processes, the checkouts taking turns, with BLAS pinned to one thread.
A child times each call 7 times and records the SHA-256 of its output bytes
and its Bellman-Ford search count. Prints one JSON object: per source, case
and call, the best and median time in milliseconds over its children, and
per case and call whether every source returned the same bytes after the
same number of searches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LADDER = ((60, 15), (120, 15), (240, 60), (480, 120), (1000, 250))
SKEWS = ("dirichlet", "shards")
SEED = 3
RUNS = 3  # fresh processes per source
REPEATS = 7  # timings per call and process
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child() -> dict:
    from fedgsp import grouping
    from fedgsp.datagen import SyntheticTaskSpec, generate_task
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
            spec = SyntheticTaskSpec(
                num_classes=10, num_clients=num_clients, samples_per_client=50,
                feature_dim=8, skew=skew, seed=SEED,
            )
            points = np.asarray(generate_task(spec)[1], dtype=float)
            init = generator(SEED, "centroid-init").choice(
                num_clients, size=num_clusters, replace=False
            )
            centroids = {"first": points[np.sort(init)].copy()}
            for call in ("first", "second"):
                grouping._shortest_paths = counted
                searches = 0
                assignment = grouping.cluster_assignment(points, centroids[call])
                grouping._shortest_paths = shortest_paths
                times = timeit.repeat(
                    lambda: grouping.cluster_assignment(points, centroids[call]),
                    number=1, repeat=REPEATS,
                )
                cases[f"{skew}/K{num_clients}-L{num_clusters}/{call}"] = {
                    "ms": [t * 1e3 for t in times],
                    "sha256": hashlib.sha256(assignment.tobytes()).hexdigest(),
                    "searches": searches,
                }
                centroids["second"] = grouping.cluster_update(points, assignment)
    return cases


def run_child(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    command = [sys.executable, __file__, "--child"]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child()))
        return
    sources = [src.resolve() for src in args.src or [ROOT / "src"]]
    runs = {str(src): [] for src in sources}
    for _ in range(RUNS):
        for src in sources:
            runs[str(src)].append(run_child(src))
    timings, identical = {}, {}
    for src, children in runs.items():
        timings[src] = {}
        for case in children[0]:
            times = [t for run in children for t in run[case]["ms"]]
            timings[src][case] = {
                "best_ms": min(times),
                "median_ms": statistics.median(times),
                "searches": children[0][case]["searches"],
            }
    for case in timings[str(sources[0])]:
        outputs = {
            (run[case]["sha256"], run[case]["searches"])
            for children in runs.values() for run in children
        }
        identical[case] = len(outputs) == 1
    host = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    result = {"host": host, "identical": identical, "timings": timings}
    print(json.dumps({**result, "runs": runs}, indent=1))


if __name__ == "__main__":
    main()
