"""Experiment runner CLI: ``run``, ``ablation``, ``grid``, ``report``.

Every run writes a manifest (config snapshot + content hash + timestamps +
numpy version, on whose ``Generator`` and reduction order the bytes rest), a
per-round CSV with a fixed column schema, and a summary JSON. CSV bytes are a
pure function of the config, so two runs of the same config diff clean; only
manifests carry wall-clock timestamps.

Exit codes: 0 success, 1 config error, 2 runtime failure. The output root is
``--out``, else ``$FEDGSP_OUT_ROOT``, else ``./runs``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ResolvedRun, load_config_file, parse_override, resolve
from .errors import ConfigurationError
from .grouping import group_distributions
from .metrics import pairwise_cpd
from .orchestrator import (
    ExperimentState,
    _build_plan,
    growth_eval,
    preflight,
    run_rounds,
)

OUT_ROOT_ENV = "FEDGSP_OUT_ROOT"

# One column per ``RoundRecord`` field, in field order.
CSV_COLUMNS = (
    "round",
    "M",
    "sampled_groups",
    "accuracy",
    "loss",
    "median_group_cpd",
    "t_comp_cum_s",
    "t_comm_cum_s",
    "d_comm_cum_mb",
)

ABLATION_ARMS = ("fedavg", "naive_gsp", "naive_gsp_icg", "fedgsp")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _out_root(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ROOT_ENV, "runs"))


def _write_csv(path: Path, header, rows) -> None:
    """Write ``header`` and ``rows``.

    ``csv`` writes a float as ``str``, its shortest round-trip form (equal to
    ``repr``), and ``None`` as an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _rounds_to_target(rows: list[tuple[int, float, float]], target: float) -> int | None:
    for round_index, accuracy, _ in rows:
        if accuracy >= target:
            return round_index
    return None


def _summary(rows: list[tuple[int, float, float]], target: float) -> dict:
    """Summary payload from ``(round, accuracy, loss)`` rows."""
    return {
        "final_accuracy": rows[-1][1] if rows else None,
        "final_loss": rows[-1][2] if rows else None,
        "rounds_to_target": _rounds_to_target(rows, target),
        "target_accuracy": target,
        "rounds": len(rows),
    }


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _config_settings(args) -> tuple[dict[str, str], dict[str, str]]:
    """The ``--config`` file's settings and the ``--set`` overrides."""
    settings = load_config_file(args.config)
    return settings, dict(parse_override(item) for item in args.set or [])


def _execute_run(
    resolved: ResolvedRun,
    run_dir: Path,
    resume: str | None = None,
    checkpoint_every: int | None = None,
    dump_groupings: bool = False,
) -> tuple[dict, ExperimentState]:
    """Run one experiment into ``run_dir``; returns the summary payload and final state.

    Argument errors surface before ``run_dir`` or its manifest is touched.
    Each round's grouping plan goes to ``groupings.jsonl`` as the round
    completes. That file, ``rounds.csv`` and ``summary.json`` are deleted as
    the run starts (``checkpoint.json`` is kept); the last two are written once
    it finishes, so a failed run leaves neither. A failed run's manifest names
    the round it failed in, one past the last completed round, as ``failed_round``.
    """
    checkpoint_path = (
        str(run_dir / "checkpoint.json") if checkpoint_every is not None else None
    )
    state = preflight(resolved.experiment, resume, checkpoint_path, checkpoint_every)

    run_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = run_dir / "manifest.json"
    csv_path = run_dir / "rounds.csv"
    summary_path = run_dir / "summary.json"
    grouping_path = run_dir / "groupings.jsonl"
    manifest = {
        "artifact_version": __version__,
        "numpy": np.__version__,
        "config": resolved.snapshot,
        "config_hash": resolved.content_hash,
        "seed": resolved.seed,
        "started_at": _now(),
        "finished_at": None,
        "status": "running",
        "csv_path": csv_path.name,
        "summary_path": summary_path.name,
    }
    _write_json(manifest_path, manifest)
    csv_path.unlink(missing_ok=True)
    summary_path.unlink(missing_ok=True)
    grouping_path.unlink(missing_ok=True)

    grouping_dump = None
    try:
        if dump_groupings:
            grouping_dump = open(grouping_path, "w", encoding="utf-8")
            # Plans are a pure function of (config, round), and the
            # checkpoint's config is this one: re-derive the restored rounds.
            for round_index in range(1, len(state.records) + 1):
                grouping_dump.write(_build_plan(state, round_index).to_json() + "\n")
        for _ in run_rounds(state, checkpoint_path, checkpoint_every):
            if grouping_dump is not None:
                grouping_dump.write(state.last_plan.to_json() + "\n")
    except Exception as exc:
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["failed_round"] = len(state.records) + 1
        manifest["finished_at"] = _now()
        _write_json(manifest_path, manifest)
        raise
    finally:
        if grouping_dump is not None:
            grouping_dump.close()

    _write_csv(csv_path, CSV_COLUMNS, state.records)
    summary = _summary(
        [(r.round_index, r.accuracy, r.loss) for r in state.records], resolved.target_accuracy
    )
    _write_json(summary_path, summary)
    manifest["status"] = "completed"
    manifest["finished_at"] = _now()
    _write_json(manifest_path, manifest)
    return summary, state


def cmd_run(args) -> int:
    resolved = resolve(*_config_settings(args))
    name = args.name or Path(args.config).stem
    run_dir = _out_root(args) / name
    summary, _ = _execute_run(
        resolved, run_dir, args.resume, args.checkpoint_every, args.dump_groupings
    )
    print(f"run complete: {run_dir} (final accuracy {summary['final_accuracy']})")
    return 0


def _first_round_pair_cpds(state: ExperimentState):
    """(first, second, cpd) rows for the round-1 grouping of this arm's run."""
    plan = _build_plan(state, 1)
    units = group_distributions(plan, state.counts)
    first, second = np.triu_indices(len(units), k=1)
    return zip(first.tolist(), second.tolist(), pairwise_cpd(units).tolist())


def cmd_ablation(args) -> int:
    settings, overrides = _config_settings(args)
    # Without a fixed group count, freeze the naive arms at the growth
    # schedule's starting point. Every arm resolves before any of them runs.
    base = resolve(settings, {**overrides, "algorithm": "fedgsp"}).experiment
    naive_count = base.fixed_group_count or growth_eval(base.growth, 1)
    arms = {}
    for arm in ABLATION_ARMS:
        arm_overrides = {**overrides, "algorithm": arm}
        if arm in ("naive_gsp", "naive_gsp_icg"):
            arm_overrides["fixed_group_count"] = str(naive_count)
        arms[arm] = resolve(settings, arm_overrides)

    name = args.name or f"{Path(args.config).stem}-ablation"
    root = _out_root(args) / name
    root.mkdir(parents=True, exist_ok=True)

    comparison = []
    cpd_rows = []
    for arm, resolved in arms.items():
        summary, state = _execute_run(resolved, root / arm)
        comparison.append(
            (arm, summary["final_accuracy"], summary["final_loss"], summary["rounds_to_target"])
        )
        cpd_rows += [(arm, i, j, value) for i, j, value in _first_round_pair_cpds(state)]

    _write_csv(
        root / "comparison.csv",
        ("algorithm", "final_accuracy", "final_loss", "rounds_to_target"),
        comparison,
    )
    _write_csv(root / "cpd_pairs.csv", ("algorithm", "first", "second", "cpd"), cpd_rows)
    print(f"ablation complete: {root}")
    return 0


def _parse_list(raw: str) -> list[str]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigurationError(f"empty list: {raw!r}")
    return items


def cmd_grid(args) -> int:
    settings, overrides = _config_settings(args)
    # Every cell resolves before any of them runs; resolve checks each item.
    cells = [
        resolve(
            settings,
            {**overrides, "growth.kind": kind, "growth.alpha": alpha, "growth.beta": beta},
        )
        for kind in _parse_list(args.kinds)
        for alpha in _parse_list(args.alphas)
        for beta in _parse_list(args.betas)
    ]
    # Resolving coerces items ("1" and "1.0" are one alpha), so repeats show only now.
    cell_names = []
    for resolved in cells:
        growth = resolved.experiment.growth
        cell_name = f"{growth.kind}-{growth.alpha!r}-{growth.beta}"
        if cell_name in cell_names:
            raise ConfigurationError(f"grid cell {cell_name} is listed twice")
        cell_names.append(cell_name)

    name = args.name or f"{Path(args.config).stem}-grid"
    root = _out_root(args) / name
    root.mkdir(parents=True, exist_ok=True)

    rows = []
    for resolved, cell_name in zip(cells, cell_names):
        growth = resolved.experiment.growth
        summary, _ = _execute_run(resolved, root / cell_name)
        finished = summary["rounds"] > 0
        rows.append(
            (
                growth.kind,
                growth.alpha,
                growth.beta,
                summary["final_loss"] if finished else math.nan,
                summary["final_accuracy"] if finished else math.nan,
            )
        )
    _write_csv(root / "grid.csv", ("kind", "alpha", "beta", "final_loss", "final_accuracy"), rows)
    print(f"grid complete: {root} ({len(rows)} cells)")
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.csv, newline="", encoding="utf-8") as handle:
            table = list(csv.reader(handle))
    except (OSError, ValueError, csv.Error) as exc:
        raise ConfigurationError(f"cannot read {args.csv}: {exc}") from None
    header = table[0] if table else None
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ConfigurationError(f"unexpected CSV header in {args.csv}: {header}")
    try:
        rows = [(int(row[0]), float(row[3]), float(row[4])) for row in table[1:]]
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"bad row in {args.csv}: {exc}") from None
    print(json.dumps(_summary(rows, args.target_accuracy), indent=2, sort_keys=True))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="Path to the config file.")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="Override a config key (repeatable, applied after the file).",
    )
    parser.add_argument("--out", help=f"Output root (default ${OUT_ROOT_ENV} or ./runs).")
    parser.add_argument("--name", help="Run directory name (default: config stem).")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedgsp",
        description="Deterministic grouped sequential-to-parallel training simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Run one experiment from a config file.")
    _add_common(run)
    run.add_argument(
        "--dump-groupings",
        action="store_true",
        help="Write each round's grouping plan to groupings.jsonl.",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="Write checkpoint.json after every N rounds.",
    )
    run.add_argument("--resume", metavar="PATH", help="Resume from a checkpoint file.")
    run.set_defaults(func=cmd_run)

    ablation = sub.add_parser(
        "ablation", help=f"Run the {', '.join(ABLATION_ARMS)} arms on a shared task/seed."
    )
    _add_common(ablation)
    ablation.set_defaults(func=cmd_ablation)

    grid = sub.add_parser(
        "grid", help="Growth-function grid search: one run directory per cell, plus grid.csv.",
    )
    _add_common(grid)
    grid.add_argument("--kinds", default="linear,log,exp", help="Comma-separated growth kinds.")
    grid.add_argument("--alphas", required=True, help="Comma-separated alpha values.")
    grid.add_argument("--betas", required=True, help="Comma-separated beta values.")
    grid.set_defaults(func=cmd_grid)

    report = sub.add_parser("report", help="Re-derive a summary from an existing rounds CSV.")
    report.add_argument("--csv", required=True, help="Path to a rounds.csv file.")
    report.add_argument(
        "--target-accuracy",
        type=float,
        default=0.8,
        help="Accuracy threshold for rounds_to_target (default 0.8).",
    )
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # mid-run failure: manifest already marked failed
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
