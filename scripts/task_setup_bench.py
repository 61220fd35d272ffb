"""Time ``datagen.generate_task`` and read its peak RSS in fresh processes.

Usage (from the root of a checkout)::

    python3 scripts/task_setup_bench.py [--src DIR]

For K = 1,000 and 10,000 clients and each skew (``dirichlet``, ``shards``),
five fresh child processes each import ``fedgsp`` from ``--src`` (default:
this checkout's ``src``), build the demo config's task shape at K clients
(10 classes, 50 samples per client, 8 features, concentration 0.3 or two
shards per client) and call ``generate_task`` once. A child reports the
call's wall time and its peak RSS (``ru_maxrss``) after importing and after
the call: one task build in a new process, so no earlier build's freed
memory shapes the peak. BLAS is pinned to one thread. Prints one JSON
object: every child's figures and, per (K, skew), the best and median call
time and the largest peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLIENTS = (1000, 10000)
SKEWS = ("dirichlet", "shards")
RUNS = 5  # fresh processes per (K, skew)
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def child(num_clients: int, skew: str) -> dict:
    from fedgsp.datagen import SyntheticTaskSpec, generate_task

    spec = SyntheticTaskSpec(
        num_classes=10,
        num_clients=num_clients,
        samples_per_client=50,
        feature_dim=8,
        skew=skew,
        concentration=0.3,
        shards_per_client=2,
        seed=7,
    )
    import_rss = peak_rss_mb()
    start = time.perf_counter()
    generate_task(spec)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "import_rss_mb": import_rss, "peak_rss_mb": peak_rss_mb()}


def run_child(src: Path, num_clients: int, skew: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    command = [sys.executable, __file__, "--child", str(num_clients), skew]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        num_clients, skew = args.child
        print(json.dumps(child(int(num_clients), skew)))
        return
    cases = []
    for num_clients in CLIENTS:
        for skew in SKEWS:
            runs = [run_child(args.src.resolve(), num_clients, skew) for _ in range(RUNS)]
            seconds = [run["seconds"] for run in runs]
            cases.append(
                {
                    "num_clients": num_clients,
                    "skew": skew,
                    "best_s": min(seconds),
                    "median_s": statistics.median(seconds),
                    "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
                    "runs": runs,
                }
            )
    host = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps({"src": str(args.src), "host": host, "cases": cases}, indent=1))


if __name__ == "__main__":
    main()
