"""Time a round's work outside the SGD steps: evaluation and stream derivation.

Usage (from the root of a checkout)::

    python3 scripts/round_overhead_bench.py [--src DIR]

Three fresh child processes each import ``fedgsp`` from ``--src`` (default:
this checkout's ``src``) and time, per call:

- ``evaluate`` of the initial model on the test set of the demo config
  (``desk``: 1,000 samples, an MLP) and of the ``icg-shards-k120`` overrides
  (``icg``: K = 120 under shards, ``softmax_linear``);
- one round's stream derivation, the way the checkout's call sites derive
  it, at the round shapes of those two runs: L = 2 (desk, M = 30, 9 sampled
  groups) and L = 15 (icg, M = 8, 2 sampled groups):
  - ``batch_seeds``: the (G, L) batch seeds of the sampled chains;
  - ``batch_orders``: their batch-order streams and each epoch's (G, n)
    orders;
  - ``icg_streams``: the L cluster-deal and M group-order streams.

A checkout whose ``fedgsp.rng`` has ``stream_ids`` derives in bulk: one
``stream_ids`` call per key set, one ``seed_states`` pass per stream list,
and orders shuffled in place in an ``arange`` tile. An older one derives one
``stream_id`` or ``generator`` per key and stacks fresh permutations. BLAS is
pinned to one thread. Prints one JSON object: every child's figures and, per
case, the best and median time per call in microseconds.
"""

from __future__ import annotations

import argparse
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
RUNS = 3  # fresh processes
REPEATS = 7  # timings per case and process
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ICG_OVERRIDES = {
    "algorithm": "naive_gsp_icg",
    "task.num_clients": "120",
    "task.skew": "shards",
    "fixed_group_count": "8",
    "model.kind": "softmax_linear",
}
# (name, L, M, sampled groups G, samples per client n): one round of each run.
ROUND_SHAPES = (("desk", 2, 30, 9, 50), ("icg", 15, 8, 2, 50))
SEED = 7


def stream_cases(rng, group_size: int, group_count: int, sampled: int, n: int) -> dict:
    """The three stream derivations of one round, as zero-argument callables."""
    round_index = 3
    chains = np.arange(sampled * group_size).reshape(sampled, group_size)
    keys = [(round_index, g, int(c)) for g, members in enumerate(chains) for c in members]
    epochs = range(1)
    bulk = hasattr(rng, "stream_ids")

    def batch_seeds():
        if bulk:
            return rng.stream_ids(SEED, "batch", keys).reshape(chains.shape)
        return np.array([rng.stream_id(SEED, "batch", *key) for key in keys], dtype=np.uint64)

    seeds = batch_seeds().reshape(chains.shape)

    def batch_orders():
        if bulk:
            flat = [s for column in seeds.T.tolist() for _ in epochs for s in column]
            ids = [e for e in epochs for _ in range(sampled)] * group_size
            streams = rng.stream_generators(rng.stream_ids(flat, "batch-order", ids))
            for _ in range(group_size * len(epochs)):
                orders = np.arange(n)[None].repeat(sampled, axis=0)
                for order in orders:
                    next(streams).shuffle(order)
        else:
            streams = rng.stream_generators(
                [rng.stream_id(int(s), "batch-order", e)
                 for column in seeds.T for e in epochs for s in column]
            )
            for _ in range(group_size * len(epochs)):
                np.stack([next(streams).permutation(n) for _ in range(sampled)])

    def icg_streams():
        if bulk:
            ids = np.concatenate([
                rng.stream_ids(SEED, "cluster-deal", range(group_size)),
                rng.stream_ids(SEED, "group-order", range(group_count)),
            ])
            return list(rng.stream_generators(ids))
        return [rng.generator(SEED, "cluster-deal", l) for l in range(group_size)] + [
            rng.generator(SEED, "group-order", m) for m in range(group_count)
        ]

    return {"batch_seeds": batch_seeds, "batch_orders": batch_orders, "icg_streams": icg_streams}


def per_call_us(call, number: int) -> list[float]:
    return [t / number * 1e6 for t in timeit.repeat(call, number=number, repeat=REPEATS)]


def child() -> dict:
    from fedgsp import rng
    from fedgsp.config import load_config_file, resolve
    from fedgsp.orchestrator import new_experiment_state
    from fedgsp.trainer import evaluate

    settings = load_config_file(str(ROOT / "demos" / "experiment.cfg"))
    figures = {}
    for name, overrides in (("desk", {}), ("icg", ICG_OVERRIDES)):
        state = new_experiment_state(resolve(settings, overrides).experiment)
        figures[f"evaluate/{name}"] = per_call_us(
            lambda: evaluate(state.params, state.test_set), number=200
        )
    for name, group_size, group_count, sampled, n in ROUND_SHAPES:
        for case, call in stream_cases(rng, group_size, group_count, sampled, n).items():
            figures[f"{case}/{name}-L{group_size}"] = per_call_us(call, number=500)
    return {"form": "bulk" if hasattr(rng, "stream_ids") else "per-key", "us": figures}


def run_child(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    command = [sys.executable, __file__, "--child"]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child()))
        return
    runs = [run_child(args.src.resolve()) for _ in range(RUNS)]
    cases = {}
    for case in runs[0]["us"]:
        times = [t for run in runs for t in run["us"][case]]
        cases[case] = {"best_us": min(times), "median_us": statistics.median(times)}
    host = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    result = {"src": str(args.src), "form": runs[0]["form"], "host": host, "cases": cases}
    print(json.dumps({**result, "runs": runs}, indent=1))


if __name__ == "__main__":
    main()
