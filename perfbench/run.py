"""fedgsp benchmark: run one workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload desk-fedgsp --seed 1 --seconds 30 --trace 0

The workload seed picks the configs; the program only sees the generated
config files. Each job is one ``fedgsp run`` in a fresh child process
(``worker.py``) with BLAS pinned to one thread, so peak memory never carries
over. Jobs start until ``--seconds`` have passed. With ``--trace 0`` the
first config runs twice, then the jobs cycle over the other configs derived
from the seed, each at least once; the end-to-end metrics are medians over
the jobs. With ``--trace 1`` untraced and traced jobs of the first config
alternate; the per-layer metrics are medians over the traced jobs and
``trace.overhead_s`` is traced minus untraced run time (see ``per_layer``).
Every time is a job's wall-clock time scaled to the reference machine speed
(see ``speed``); the unscaled times stay in the per-job details.

Every job's ``rounds.csv`` is checked (header, one row per round, finite
values, agreement with ``summary.json`` and the manifest) and its bytes must
match every other job of the same config, traced or not. A job that fails or
whose output disagrees counts in ``failed``; ``attempted`` counts rounds.
The last line of standard output is the JSON result; the run context and
per-job details go to ``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True

from layers import COUNTS, PER_LAYER  # noqa: E402
from tracer import percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"
TIME_LIMIT_S = 170.0
# ``worker.calibration_s`` on a 2-vCPU x86 host in its faster state.
REFERENCE_CALIBRATION_S = 0.025

# name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "round_ms_p50": ("ms", "lower"),
    "round_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "final_accuracy": ("fraction", "higher"),
}

CSV_COLUMNS = [
    "round",
    "M",
    "sampled_groups",
    "accuracy",
    "loss",
    "median_group_cpd",
    "t_comp_cum_s",
    "t_comm_cum_s",
    "d_comm_cum_mb",
]

BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    """Overrides on ``demos/experiment.cfg`` and how a run samples configs.

    A run derives ``configs`` config seeds from ``--seed`` and makes at least
    ``configs + 1`` jobs, so every config runs once and the first twice.
    ``declared`` workloads are the ones ``BENCHMARK.json`` gates.
    """

    why: str
    overrides: dict[str, str] = field(default_factory=dict)
    configs: int = 5
    setup_repeats: int = 20
    declared: bool = True


WORKLOADS: dict[str, Workload] = {
    "desk-fedgsp": Workload(
        why="the shipped demo config (fedgsp arm, 150 rounds): time splits between mcf and trainer",
    ),
    "icg-shards-k120": Workload(
        why="naive_gsp_icg, K=120, L=15, shard skew: mcf is ~90% of each round",
        overrides={
            "algorithm": "naive_gsp_icg",
            "rounds": "10",
            "task.num_clients": "120",
            "task.skew": "shards",
            "fixed_group_count": "8",
            "model.kind": "softmax_linear",
        },
        # Rounds are alike (fixed M, fresh clustering each round), but their
        # cost depends on the data: many short configs average that out.
        configs=9,
    ),
    # Not gated: after 6 rounds its final accuracy still spreads by ~20-26%
    # across seeds, and a round costs 1-2 s, so no run that fits the time
    # budget is steady. It stays runnable for its trace (mcf bypassed,
    # trainer and the (G, G, C) CPD tensor dominant).
    "fedavg-k2000": Workload(
        why="fedavg, K=2000: never calls mcf; trainer and the pairwise CPD tensor dominate",
        overrides={"algorithm": "fedavg", "rounds": "6", "task.num_clients": "2000"},
        configs=3,
        setup_repeats=2,
        declared=False,
    ),
}


def render_config(base: str, overrides: dict[str, str]) -> str:
    """``base`` with each overridden key's value replaced, or appended if absent."""
    pending = dict(overrides)
    lines = []
    for line in base.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in pending:
            line = f"{key} = {pending.pop(key)}"
        lines.append(line)
    lines.extend(f"{key} = {value}" for key, value in pending.items())
    return "\n".join(lines) + "\n"


def config_seed(seed: int, index: int, configs: int) -> int:
    return seed * configs + index


def job_order(workload: Workload, trace: bool):
    """Endless (config index, traced) sequence; the first config runs twice first."""
    if trace:
        return ((0, j % 2 == 1) for j in itertools.count())
    rest = itertools.cycle(range(1, workload.configs) or [0])
    return itertools.chain([(0, False), (0, False)], ((next(rest), False) for _ in itertools.count()))


def minimum_jobs(workload: Workload, trace: bool) -> int:
    return 4 if trace else workload.configs + 1


def tail_quantile(samples: int) -> float:
    """The highest percentile, up to p90, with at least ten samples beyond it."""
    return max(0.5, min(0.9, 1.0 - 10 / samples))


def check_outputs(run_dir: Path, rounds: int, content_hash: str) -> str | None:
    """Why the run's outputs are wrong, or None if they are consistent."""
    try:
        text = (run_dir / "rounds.csv").read_text(encoding="utf-8")
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        return "rounds.csv header differs"
    body = rows[1:]
    if [row[0] for row in body] != [str(r) for r in range(1, rounds + 1)]:
        return f"rounds.csv holds {len(body)} rounds, expected {rounds}"
    try:
        values = [float(v) for row in body for v in row[3:]]
    except ValueError:
        return "rounds.csv holds a non-numeric value"
    if not all(math.isfinite(v) for v in values):
        return "rounds.csv holds a non-finite value"
    accuracies = [float(row[3]) for row in body]
    if not all(0.0 <= a <= 1.0 for a in accuracies):
        return "accuracy outside [0, 1]"
    if summary.get("final_accuracy") != accuracies[-1]:
        return "summary.json final_accuracy disagrees with rounds.csv"
    if manifest.get("status") != "completed" or manifest.get("config_hash") != content_hash:
        return "manifest is not completed or names another config"
    return None


def git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_child(job: dict, job_path: Path, timeout: float) -> tuple[dict | None, str]:
    """Run one job in a fresh interpreter; returns (result, error)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    env.pop("PYTHONPATH", None)
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            capture_output=True,
            text=True,
            env=env,
            cwd=job["root"],
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"job exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "crashed"
    return json.loads(Path(job["result"]).read_text(encoding="utf-8")), ""


def speed(job: dict) -> float:
    """Factor that scales a job's wall-clock times to the reference machine speed.

    The host's speed shifts by up to 2.5x for seconds to minutes at a time;
    the calibration task timed around each job slows with it, so scaled
    times compare across runs made at different moments.
    """
    return REFERENCE_CALIBRATION_S / statistics.median(job["calibration_s"])


def end_to_end(untraced: list[dict], accuracies: list[float]) -> dict[str, float]:
    round_ms = [t * 1000 * speed(r) for r in untraced for t in r["round_s"]]
    return {
        "setup_s": statistics.median(t * speed(r) for r in untraced for t in r["setup_s"]),
        "run_s": statistics.median(r["run_s"] * speed(r) for r in untraced),
        "round_ms_p50": statistics.median(round_ms),
        "round_ms_p90": percentile(round_ms, tail_quantile(len(round_ms))),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "final_accuracy": statistics.median(accuracies),
    }


def per_layer(jobs: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, and the counts that differ between traced jobs.

    ``jobs`` alternate untraced and traced; the tracing overhead is the
    median difference within each adjacent pair, which ran under nearly the
    same machine load.
    """
    pairs = [
        (u, t) for u, t in zip(jobs[::2], jobs[1::2]) if not (u["error"] or t["error"])
    ]
    if not pairs:
        return {}, []
    traced = [r for r in jobs if r["traced"] and not r["error"]]
    metrics, mismatches = {}, []
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        values = [r["layers"][metric] for r in traced]
        if metric in COUNTS:
            if len(set(values)) > 1:
                mismatches.append(f"{metric} differs between traced jobs: {values}")
            metrics[metric] = values[0]
        else:
            metrics[metric] = statistics.median(v * speed(r) for v, r in zip(values, traced))
    metrics["trace.overhead_s"] = statistics.median(
        t["run_s"] * speed(t) - u["run_s"] * speed(u) for u, t in pairs
    )
    return metrics, mismatches


def measure(
    root: Path,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    rounds: int | None = None,
) -> dict:
    """Run one workload; ``rounds`` overrides the round count (for smoke tests)."""
    workload = WORKLOADS[name]
    started = time.perf_counter()
    work = root / WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    base = (root / "demos" / "experiment.cfg").read_text(encoding="utf-8")
    overrides = dict(workload.overrides)
    if rounds is not None:
        overrides["rounds"] = str(rounds)
    configs = []
    for index in range(workload.configs):
        path = work / f"config{index}.cfg"
        settings = {"seed": str(config_seed(seed, index, workload.configs)), **overrides}
        path.write_text(render_config(base, settings), encoding="utf-8")
        configs.append(path)

    results, errors = [], []
    attempted = failed = 0
    csv_bytes: dict[int, bytes] = {}
    accuracy: dict[int, float] = {}
    for index, (config, traced) in enumerate(job_order(workload, trace)):
        elapsed = time.perf_counter() - started
        if index >= minimum_jobs(workload, trace) and elapsed >= seconds:
            break
        job = {
            "root": str(root),
            "config": str(configs[config]),
            "out": str(work / "runs"),
            "name": f"job{index}",
            "trace": traced,
            "setup_repeats": workload.setup_repeats,
            "result": str(work / f"job{index}.result.json"),
            "spans": str(work / f"job{index}.spans.jsonl"),
        }
        remaining = TIME_LIMIT_S - elapsed
        if remaining > 0:
            result, error = run_child(job, work / f"job{index}.json", remaining)
        else:
            result, error = None, "out of time"
        run_dir = work / "runs" / job["name"]
        if result is not None:
            attempted += max(1, len(result["round_s"]))
            if result["exit_code"] != 0:
                error = f"fedgsp run exited with {result['exit_code']}"
            else:
                error = check_outputs(run_dir, result["rounds"], result["content_hash"]) or ""
        else:
            attempted += 1
        if not error:
            data = (run_dir / "rounds.csv").read_bytes()
            if csv_bytes.setdefault(config, data) != data:
                error = f"rounds.csv of config {config} differs between jobs"
            else:
                accuracy[config] = float(data.decode().splitlines()[-1].split(",")[3])
        if error:
            failed += 1
            errors.append(f"job{index}: {error}")
        results.append({"config": config, "traced": traced, "error": error, **(result or {})})

    ok = [r for r in results if not r["error"]]
    untraced_jobs = [r for r in ok if not r["traced"]]
    metrics: dict[str, float] = {}
    if trace:
        metrics, mismatches = per_layer(results)
        failed += len(mismatches)
        errors.extend(mismatches)
    elif untraced_jobs:
        metrics = end_to_end(untraced_jobs, list(accuracy.values()))
    units = PER_LAYER if trace else END_TO_END
    complete = set(metrics) == set(units)
    context = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": ok[0]["python"] if ok else platform.python_version(),
        "numpy": ok[0]["numpy"] if ok else "unknown",
        "config_seeds": [config_seed(seed, i, workload.configs) for i in range(len(configs))],
        "config_hashes": sorted({r["content_hash"] for r in ok}),
        "jobs": len(results),
        "rounds_pooled": sum(len(r["round_s"]) for r in untraced_jobs),
        "speed_factors": [speed(r) for r in ok],
        "unscaled_run_s": statistics.median(r["run_s"] for r in ok) if ok else None,
        "wall_s": time.perf_counter() - started,
    }
    report = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m][0]} for m, v in metrics.items()},
    }
    details = {"context": context, "errors": errors, "jobs": results, "result": report}
    (work / "result.json").write_text(json.dumps(details, indent=2), encoding="utf-8")
    return {"report": report, "context": context, "errors": errors}


def print_summary(outcome: dict) -> None:
    context, report = outcome["context"], outcome["report"]
    print(
        f"perfbench {context['workload']} seed={context['seed']} trace={int(context['trace'])}"
        f" jobs={context['jobs']} git={context['git_sha']} nproc={context['nproc']}"
        f" python={context['python']} numpy={context['numpy']}"
    )
    print(f"  configs: {', '.join(context['config_hashes'])}")
    for metric, entry in report["metrics"].items():
        print(f"  {metric:38s} {entry['value']:14.6g} {entry['unit']}")
    if context["speed_factors"]:
        print(
            f"  (times scaled to the reference machine speed; median speed factor"
            f" {statistics.median(context['speed_factors']):.3f}; unscaled median run_s"
            f" {context['unscaled_run_s']:.4g} s)"
        )
    pooled = context["rounds_pooled"]
    if not context["trace"] and pooled:
        print(
            f"  (round latency over {pooled} pooled rounds;"
            f" the tail is p{100 * tail_quantile(pooled):.1f})"
        )
    ratio = report["failed"] / report["attempted"]
    print(f"  {'ops_failed_ratio':38s} {ratio:14.6g} ratio")
    for error in outcome["errors"]:
        print(f"  error: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [
        p for p in ("src/fedgsp/cli.py", "demos/experiment.cfg") if not (ROOT / p).is_file()
    ]
    if missing:
        print(f"perfbench: not a fedgsp checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    outcome = measure(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(outcome)
    print(json.dumps(outcome["report"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
