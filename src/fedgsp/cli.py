"""Experiment runner CLI: ``run``, ``ablation``, ``grid``, ``report``.

Every run writes a manifest (config snapshot + content hash + timestamps +
numpy version, on whose ``Generator`` and reduction order the bytes rest), a
per-round CSV with a fixed column schema, and a summary JSON. CSV bytes are a
pure function of the config, so two runs of the same config diff clean; only
manifests carry wall-clock timestamps.

Exit codes: 0 success, 1 config error, 2 runtime failure. The output root is
``--out``, else ``$FEDGSP_OUT_ROOT``, else ``./runs`` (an empty value is unset).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ResolvedRun, _coerce, load_config_file, parse_override, resolve
from .errors import ConfigurationError
from .grouping import group_distributions
from .metrics import pairwise_cpd
from .orchestrator import (
    FIXED_COUNT_ALGORITHMS,
    ExperimentState,
    _build_plan,
    check_finite_float,
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
    # An empty --out or $FEDGSP_OUT_ROOT counts as unset.
    return Path(args.out or os.environ.get(OUT_ROOT_ENV) or "runs")


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


def _describe(exc: BaseException) -> str:
    """``"Type: message"``, or the type name alone when the message is empty."""
    message = str(exc)
    return f"{type(exc).__name__}: {message}" if message else type(exc).__name__


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
    the round it failed in, one past the last completed round, as
    ``failed_round``, which is null if every round completed and writing the
    outputs failed.
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
    for stale in (csv_path, summary_path, grouping_path):
        stale.unlink(missing_ok=True)

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
        if grouping_dump is not None:
            grouping_dump.close()  # a failed flush, too, fails the run
        _write_csv(csv_path, CSV_COLUMNS, state.records)
        summary = _summary(
            [(r.round_index, r.accuracy, r.loss) for r in state.records], resolved.target_accuracy
        )
        _write_json(summary_path, summary)
        manifest["status"] = "completed"
        manifest["finished_at"] = _now()
        _write_json(manifest_path, manifest)
    except BaseException as exc:  # an interrupt, too, ends the run
        for partial in (csv_path, summary_path):
            partial.unlink(missing_ok=True)
        completed = len(state.records)
        manifest["status"] = "failed"
        manifest["error"] = _describe(exc)
        manifest["failed_round"] = None if completed == state.config.rounds else completed + 1
        manifest["finished_at"] = _now()
        _write_json(manifest_path, manifest)
        raise
    finally:
        if grouping_dump is not None:
            grouping_dump.close()
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


def _run_cells(args, suffix: str, cells: dict[str, ResolvedRun]):
    """Make the root, ``--name`` else ``<config stem>-<suffix>`` under the output root.

    Returns it and a generator that runs each cell into ``<root>/<cell name>``,
    in ``cells`` order, and yields ``(cell name, summary, state)``.
    """
    root = _out_root(args) / (args.name or f"{Path(args.config).stem}-{suffix}")
    root.mkdir(parents=True, exist_ok=True)
    return root, ((cell, *_execute_run(resolved, root / cell)) for cell, resolved in cells.items())


def cmd_ablation(args) -> int:
    settings, overrides = _config_settings(args)
    # Without a fixed group count, freeze the naive arms at the growth
    # schedule's starting point. Every arm resolves before any of them runs.
    base = resolve(settings, {**overrides, "algorithm": "fedgsp"}).experiment
    naive_count = base.fixed_group_count or growth_eval(base.growth, 1)
    arms = {}
    for arm in ABLATION_ARMS:
        arm_overrides = {**overrides, "algorithm": arm}
        if arm in FIXED_COUNT_ALGORITHMS:
            arm_overrides["fixed_group_count"] = str(naive_count)
        arms[arm] = resolve(settings, arm_overrides)

    root, runs = _run_cells(args, "ablation", arms)
    header = ("algorithm", "final_accuracy", "final_loss", "rounds_to_target")
    comparison = []
    cpd_rows = []
    for arm, summary, state in runs:
        comparison.append((arm, *(summary[key] for key in header[1:])))
        cpd_rows += [(arm, *pair) for pair in _first_round_pair_cpds(state)]
        del state  # before the next arm builds its own
    _write_csv(root / "comparison.csv", header, comparison)
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
    # Every cell resolves before any of them runs; resolve checks each item
    # and coerces it ("1" and "1.0" are one alpha), so repeats show only then.
    cells = {}
    for kind, alpha, beta in itertools.product(
        _parse_list(args.kinds), _parse_list(args.alphas), _parse_list(args.betas)
    ):
        cell = {"growth.kind": kind, "growth.alpha": alpha, "growth.beta": beta}
        resolved = resolve(settings, {**overrides, **cell})
        growth = resolved.experiment.growth
        name = f"{growth.kind}-{growth.alpha!r}-{growth.beta}"
        if name in cells:
            raise ConfigurationError(f"grid cell {name} is listed twice")
        cells[name] = resolved

    root, runs = _run_cells(args, "grid", cells)
    header = ("kind", "alpha", "beta", "final_loss", "final_accuracy")
    rows = []
    for _, summary, state in runs:
        growth = state.config.growth
        # A zero-round cell has no final values: nan, not an empty cell.
        finals = [summary[key] if summary["rounds"] else math.nan for key in header[3:]]
        rows.append((growth.kind, growth.alpha, growth.beta, *finals))
        del state  # before the next cell builds its own
    _write_csv(root / "grid.csv", header, rows)
    print(f"grid complete: {root} ({len(rows)} cells)")
    return 0


def cmd_report(args) -> int:
    target = _coerce("--target-accuracy", "float", args.target_accuracy)
    try:
        with open(args.csv, newline="", encoding="utf-8") as handle:
            table = list(csv.reader(handle))
    except (OSError, ValueError, csv.Error) as exc:
        raise ConfigurationError(f"cannot read {args.csv}: {exc}") from None
    header = table[0] if table else None
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ConfigurationError(f"unexpected CSV header in {args.csv}: {header}")
    rows = []
    try:
        for line, cells in enumerate(table[1:], start=2):
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"line {line}: {len(cells)} cells, expected {len(CSV_COLUMNS)}")
            row = dict(zip(CSV_COLUMNS, cells))
            round_index = len(rows) + 1
            if int(row["round"]) != round_index:
                raise ValueError(f"line {line}: round {row['round']}, expected {round_index}")
            accuracy, loss = (
                check_finite_float(float(row[name]), "line {}: {}", line, name)
                for name in ("accuracy", "loss")
            )
            # An accuracy is a mean of matches; a loss is a mean of negated
            # log-probabilities.
            if not 0.0 <= accuracy <= 1.0:
                raise ValueError(f"line {line}: accuracy must be in [0, 1], got {accuracy!r}")
            if loss < 0.0:
                raise ValueError(f"line {line}: loss must be >= 0, got {loss!r}")
            rows.append((round_index, accuracy, loss))
    except ValueError as exc:
        raise ConfigurationError(f"bad row in {args.csv}: {exc}") from None
    print(json.dumps(_summary(rows, target), indent=2, sort_keys=True))
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
        default="0.8",
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
        print(f"runtime failure: {_describe(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
