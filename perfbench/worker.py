"""One benchmark job, run in a fresh process: time set-up, then one `fedgsp run`.

Usage: ``python3 perfbench/worker.py JOB.json``. The job names the checkout
root, the generated config, the run directory and whether to trace. The
result (set-up samples, run time, per-round times, peak memory and, when
traced, the per-layer metrics) is written to the job's ``result`` path.

Set-up is timed ``setup_repeats`` times after one untimed warm-up, so lazy
imports and first-call costs inside numpy do not land in the samples. An
untraced job wraps only ``run_round``, to time rounds; a traced job wraps
every target in ``layers.TARGETS``. A fixed calibration task is timed before
set-up and after the run, so the caller can tell how fast the machine was.
"""

from __future__ import annotations

import heapq
import json
import resource
import sys
import time
from pathlib import Path

import numpy

import layers
from tracer import Tracer


CALIBRATION_REPEATS = 3


def calibration_s() -> float:
    """Time of a fixed reference task shaped like the simulator's hot loops.

    Heap-driven shortest paths over Python lists (as in ``mcf.solve``) and
    small matrix products (as in ``trainer.loss_and_gradient``). Its time
    tracks how fast the machine runs at the moment, independent of fedgsp.
    """
    start = time.perf_counter()
    nodes = 400
    adjacency = [
        [((i * 7 + k * 13) % nodes, (i * k) % 17 + 1) for k in range(1, 9)] for i in range(nodes)
    ]
    for source in range(24):
        dist = [1 << 60] * nodes
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adjacency[u]:
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    features = numpy.arange(40.0).reshape(5, 8) / 40.0
    weights = numpy.full((8, 16), 0.1)
    for _ in range(3000):
        numpy.tanh(features @ weights).sum()
    return time.perf_counter() - start


def run_job(job: dict) -> dict:
    source = Path(job["root"]) / "src"
    sys.path.insert(0, str(source))
    import fedgsp
    from fedgsp import cli, config, orchestrator

    if Path(fedgsp.__file__).resolve().parent != (source / "fedgsp").resolve():
        raise RuntimeError(f"imported fedgsp from {fedgsp.__file__}, not from {source}")

    calibration = [calibration_s() for _ in range(CALIBRATION_REPEATS)]
    setup_s = []
    for attempt in range(job["setup_repeats"] + 1):
        start = time.perf_counter()
        resolved = config.resolve(config.load_config_file(job["config"]))
        state = orchestrator.new_experiment_state(resolved.experiment)
        elapsed = time.perf_counter() - start
        del state
        if attempt:
            setup_s.append(elapsed)

    tracer = Tracer()
    tracer.install(layers.TARGETS if job["trace"] else (layers.ROUND,), layers.PACKAGE)
    argv = ["run", "--config", job["config"], "--out", job["out"], "--name", job["name"]]
    start = time.perf_counter()
    exit_code = cli.main(argv)
    run_s = time.perf_counter() - start
    tracer.uninstall()
    calibration += [calibration_s() for _ in range(CALIBRATION_REPEATS)]

    result = {
        "exit_code": exit_code,
        "setup_s": setup_s,
        "run_s": run_s,
        "round_s": layers.round_seconds(tracer.spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "content_hash": resolved.content_hash,
        "rounds": resolved.experiment.rounds,
        "calibration_s": calibration,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if job["trace"]:
        result["layers"] = layers.derive(tracer.spans, tracer.counters)
        tracer.dump(job["spans"])
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    result = run_job(job)
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
