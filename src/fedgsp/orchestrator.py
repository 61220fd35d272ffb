"""Round orchestration: group schedules, chained training, aggregation, baselines.

All four algorithms share one round implementation and differ only in two
knobs: where the round's group count comes from, and how groups are formed.

    fedgsp         growing group count f(r), clustered grouping
    naive_gsp_icg  fixed group count, clustered grouping
    naive_gsp      fixed group count, random balanced grouping
    fedavg         one group per client (chains of length 1)

Each round: regroup, sample a fraction kappa of the groups, seed every
sampled group's chain with the current global model, train the chains, and
average the chain outputs (divided by the number of sampled groups) into the
next global model. Inside a chain the clients train one after another; the
sampled chains advance in lockstep, as one stacked update per step
(``trainer.train_chains``), with each chain's result bit-identical to
training it alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import operator
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import metrics
from .datagen import Dataset, SyntheticTaskSpec, generate_task
from .errors import ConfigurationError, TrainingDivergedError
from .grouping import (
    GroupingPlan,
    group_distributions,
    inter_cluster_grouping,
    random_grouping,
    singleton_grouping,
)
from .metrics import CostModelParams
from .rng import generator, stream_id
from .trainer import ModelParams, ModelSpec, SgdConfig, evaluate, init_model, train_chains

ALGORITHMS = ("fedgsp", "naive_gsp", "naive_gsp_icg", "fedavg")

GROWTH_LINEAR = "linear"
GROWTH_LOG = "log"
GROWTH_EXP = "exp"
GROWTH_KINDS = (GROWTH_LINEAR, GROWTH_LOG, GROWTH_EXP)

# Exponent threshold beyond which exp growth saturates instead of overflowing
# float64; callers cap results at the client count long before this matters.
_EXP_SATURATION = 700.0
GROWTH_CAP = 2**62

CHECKPOINT_FORMAT_VERSION = 4


@dataclass(frozen=True)
class GrowthFunction:
    """Group-count schedule f(r); alpha sets the growth rate, beta the scale."""

    kind: str
    alpha: float
    beta: int

    def __post_init__(self) -> None:
        if self.kind not in GROWTH_KINDS:
            raise ConfigurationError(f"unknown growth kind {self.kind!r}")
        if not self.alpha > 0.0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 1:
            raise ConfigurationError(f"beta must be >= 1, got {self.beta}")


def growth_eval(growth: GrowthFunction, round_index: int) -> int:
    """Evaluate the group-count schedule at round r >= 1 (uncapped).

    linear: beta * floor(alpha * (r - 1) + 1)
    log:    beta * floor(alpha * ln(r) + 1)
    exp:    beta * floor((1 + alpha) ** (r - 1))

    The closed form is exact (acceptance criterion 7) up to a saturation
    point: for exp, where ``(r - 1) * ln(1 + alpha)`` reaches 700; for linear
    and log, where the term inside the floor reaches ``GROWTH_CAP``. From
    there on the result is ``GROWTH_CAP``, never inf or an OverflowError.
    Before it the result can exceed ``GROWTH_CAP`` (exp at alpha = 1, r = 100
    is 2**99). Callers cap the result at the client count.
    """
    if round_index < 1:
        raise ValueError(f"round_index must be >= 1, got {round_index}")
    if growth.kind == GROWTH_EXP:
        exponent = (round_index - 1) * math.log1p(growth.alpha)
        if exponent >= _EXP_SATURATION:
            return GROWTH_CAP
        return growth.beta * math.floor((1.0 + growth.alpha) ** (round_index - 1))
    if growth.kind == GROWTH_LINEAR:
        inner = growth.alpha * (round_index - 1) + 1.0
    else:
        inner = growth.alpha * math.log(round_index) + 1.0
    if not inner < GROWTH_CAP:  # inf included
        return GROWTH_CAP
    return growth.beta * math.floor(inner)


def validate_kappa(kappa: float) -> None:
    """Reject a group sampling fraction outside (0, 1]."""
    if not 0.0 < kappa <= 1.0:
        raise ConfigurationError(f"kappa must be in (0, 1], got {kappa}")


def experiment_costs(task: SyntheticTaskSpec, sgd: SgdConfig, kappa: float) -> dict:
    """The ``CostModelParams`` fields an experiment fixes, by field name."""
    return {
        "samples_per_client": task.samples_per_client,
        "num_clients": task.num_clients,
        "local_epochs": sgd.local_epochs,
        "sampling_rate": kappa,
    }


@dataclass
class ExperimentConfig:
    """A full training run: task, model, optimizer, schedule, sampling, seed."""

    algorithm: str
    task: SyntheticTaskSpec
    model: ModelSpec
    sgd: SgdConfig = SgdConfig()
    growth: GrowthFunction = GrowthFunction(kind=GROWTH_LOG, alpha=2.0, beta=10)
    kappa: float = 0.3
    rounds: int = 500
    fixed_group_count: int | None = None
    run_seed: int = 0
    cost: CostModelParams | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {', '.join(ALGORITHMS)}; got {self.algorithm!r}"
            )
        validate_kappa(self.kappa)
        if self.rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {self.rounds}")
        if self.algorithm in ("naive_gsp", "naive_gsp_icg"):
            if self.fixed_group_count is None or self.fixed_group_count < 1:
                raise ConfigurationError(
                    f"{self.algorithm} needs a positive fixed_group_count"
                )
        if self.model.feature_dim != self.task.feature_dim:
            raise ConfigurationError("model feature_dim disagrees with the task")
        if self.model.num_classes != self.task.num_classes:
            raise ConfigurationError("model num_classes disagrees with the task")
        costed = experiment_costs(self.task, self.sgd, self.kappa)
        if self.cost is None:
            self.cost = CostModelParams(**costed)
        for name, value in costed.items():
            if getattr(self.cost, name) != value:
                raise ConfigurationError(
                    f"cost {name} ({getattr(self.cost, name)}) disagrees with the "
                    f"experiment ({value})"
                )
        totals = metrics.cost_bounds(self.cost, self.rounds)
        if not all(map(math.isfinite, totals)):
            raise ConfigurationError(
                f"cost constants overflow the cumulative costs over {self.rounds} rounds "
                f"(t_comp bound, t_comm, d_comm): {totals}"
            )


class RoundRecord(NamedTuple):
    """One round's metrics: a ``rounds.csv`` row."""

    round_index: int
    group_count: int
    sampled_groups: int
    accuracy: float
    loss: float
    median_group_cpd: float
    t_comp_cum_s: float
    t_comm_cum_s: float
    d_comm_cum_mb: float


# The columns a round measures, in column order: a checkpoint ``records`` row.
# The config and the round fix every other column.
MEASURED_COLUMNS = ("accuracy", "loss", "median_group_cpd")
_measured = operator.attrgetter(*MEASURED_COLUMNS)


@dataclass
class ExperimentState:
    """Mutable run state advanced by :func:`run_round`."""

    config: ExperimentConfig
    # (K, n, d) features and (K, n) labels, row k = client k.
    clients: Dataset
    # (K, C) class counts, row k = client k; what grouping and CPD read.
    counts: np.ndarray
    test_set: Dataset
    params: ModelParams
    # Rounds 1..k so far; the run's only progress state.
    records: list[RoundRecord] = field(default_factory=list)
    # The last round's plan, for audit dumps; refreshed every round.
    last_plan: GroupingPlan | None = None

    @cached_property
    def client_cpd(self) -> float:
        """Median pairwise CPD of the clients' own class counts, computed once.

        fedavg's plan is one client per group every round, so this is its
        ``median_group_cpd`` in every round.
        """
        return metrics.median_pairwise_cpd(self.counts)


def new_experiment_state(config: ExperimentConfig) -> ExperimentState:
    clients, counts, test_set = generate_task(config.task)
    return ExperimentState(
        config=config,
        clients=clients,
        counts=counts,
        test_set=test_set,
        params=init_model(config.model),
    )


def group_count_for_round(config: ExperimentConfig, round_index: int) -> int:
    """The round's group count M, capped at the client count (grouping rejects M > K)."""
    num_clients = config.task.num_clients
    if config.algorithm == "fedgsp":
        return min(growth_eval(config.growth, round_index), num_clients)
    if config.algorithm == "fedavg":
        return num_clients
    return min(config.fixed_group_count, num_clients)


def _build_plan(state: ExperimentState, round_index: int) -> GroupingPlan:
    config = state.config
    count = group_count_for_round(config, round_index)
    seed = stream_id(config.run_seed, "grouping")
    if config.algorithm in ("fedgsp", "naive_gsp_icg"):
        return inter_cluster_grouping(state.counts, count, round_index, seed).plan
    if config.algorithm == "naive_gsp":
        return random_grouping(config.task.num_clients, count, round_index, seed)
    return singleton_grouping(config.task.num_clients, round_index)


def _sample_size(kappa: float, group_count: int) -> int:
    # Round half up, never below one group.
    return max(1, math.floor(kappa * group_count + 0.5))


def append_record(
    state: ExperimentState, accuracy: float, loss: float, median_cpd: float
) -> RoundRecord:
    """Append the next round's record to ``state.records`` and return it.

    The measured values are the round's own; the config and the round fix
    every other column. ``t_comp_cum_s`` adds this round's cost to the last
    record's (0.0 before round 1). New rounds and restored checkpoint rows
    both come through here.
    """
    config = state.config
    round_index = len(state.records) + 1
    group_count = group_count_for_round(config, round_index)
    t_comp_before = state.records[-1].t_comp_cum_s if state.records else 0.0
    record = RoundRecord(
        round_index=round_index,
        group_count=group_count,
        sampled_groups=_sample_size(config.kappa, group_count),
        accuracy=accuracy,
        loss=loss,
        median_group_cpd=median_cpd,
        t_comp_cum_s=t_comp_before + metrics.t_comp([group_count], config.cost),
        t_comm_cum_s=metrics.t_comm(round_index, config.cost),
        d_comm_cum_mb=metrics.d_comm(round_index, config.cost),
    )
    state.records.append(record)
    return record


def run_round(state: ExperimentState, round_index: int) -> RoundRecord:
    """Execute round ``round_index``, advance the state, and return its record.

    Rounds run in order: ``round_index`` must be one past the last record.
    A non-finite chain or averaged model raises ``TrainingDivergedError``.
    """
    if round_index != len(state.records) + 1:
        raise ValueError(
            f"round {round_index} does not follow the {len(state.records)} completed rounds"
        )
    config = state.config
    plan = _build_plan(state, round_index)
    sample_count = _sample_size(config.kappa, plan.group_count)
    sampled = np.sort(
        generator(config.run_seed, "group-sample", round_index).choice(
            plan.group_count, size=sample_count, replace=False
        )
    )

    chains = plan.groups[sampled]
    batch_seeds = [
        [stream_id(config.run_seed, "batch", round_index, group, client) for client in members]
        for group, members in zip(sampled.tolist(), chains.tolist())
    ]
    trained = train_chains(state.params, state.clients, chains, batch_seeds, config.sgd)
    averaged = trained.mean(axis=0)  # finite chains can still overflow their sum
    if not np.isfinite(averaged).all():
        raise TrainingDivergedError(
            f"round {round_index}: non-finite averaged model (learning-rate blowup?)"
        )
    state.params = ModelParams(values=averaged, layout=state.params.layout)

    accuracy, loss = evaluate(state.params, state.test_set)
    if plan.group_count < 2:
        median_cpd = 0.0
    elif config.algorithm == "fedavg":
        median_cpd = state.client_cpd
    else:
        median_cpd = metrics.median_pairwise_cpd(group_distributions(plan, state.counts))

    state.last_plan = plan
    return append_record(state, accuracy, loss, median_cpd)


def config_fingerprint(config: ExperimentConfig) -> str:
    """SHA-256 hex of every setting of the run except its length, ``rounds``."""
    settings = {k: v for k, v in dataclasses.asdict(config).items() if k != "rounds"}
    return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()


def save_checkpoint(state: ExperimentState, path: str) -> None:
    """Versioned JSON dump of (config fingerprint, global params, measured rows).

    Each completed round is one row of its ``MEASURED_COLUMNS``. The config
    regenerates everything else: the task, the parameter layout, every
    record's other columns, and every PRNG sub-stream, which is derived
    statelessly from ``(run_seed, purpose, round)``. JSON floats round-trip
    exactly. The text is one ``json.dumps`` (streaming ``json.dump`` writes
    the same text, more slowly), written to a temporary file that then
    replaces ``path``, so a failed write leaves the previous checkpoint
    intact.
    """
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": config_fingerprint(state.config),
        "values": state.params.values.tolist(),
        "records": list(map(_measured, state.records)),
    }
    text = json.dumps(payload)
    temporary = f"{path}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def _check_row(round_index: int, row) -> list[float]:
    """A checkpoint row: one finite ``float`` per measured column."""
    if not isinstance(row, list) or len(row) != len(MEASURED_COLUMNS):
        raise ValueError(
            f"checkpoint round {round_index}: expected {len(MEASURED_COLUMNS)} values, got {row!r}"
        )
    for name, value in zip(MEASURED_COLUMNS, row):
        # JSON 1 is an int, not a float; NaN and Infinity are floats.
        if type(value) is not float or not math.isfinite(value):
            raise ValueError(
                f"checkpoint round {round_index}: {name} must be a finite float, got {value!r}"
            )
    return row


def _check_values(values) -> np.ndarray:
    """The checkpoint's parameter values: a list of finite ``float``, as the writer writes."""
    if not isinstance(values, list):
        raise ValueError(f"checkpoint values must be a list, got {type(values).__name__}")
    for index, value in enumerate(values):
        # As in a row: JSON 1, true and 10**400 are not floats.
        if type(value) is not float or not math.isfinite(value):
            raise ValueError(f"checkpoint values[{index}] must be a finite float, got {value!r}")
    return np.array(values, dtype=np.float64)


def load_checkpoint(path: str) -> tuple[list[list[float]], str, np.ndarray]:
    """Read a checkpoint; returns (measured rows, config fingerprint, parameter values).

    Row i holds round i + 1's ``MEASURED_COLUMNS``. Raises ``ValueError`` for
    a payload that is not a JSON object, another format version, ``values``
    that are not a list of finite values of type ``float``, or a row that is
    not three such values; a bad row's error names its round and column.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint is not a JSON object: {type(payload).__name__}")
    if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format: {payload.get('format_version')}")
    values = _check_values(payload["values"])
    rows = [_check_row(i, row) for i, row in enumerate(payload["records"], start=1)]
    return rows, payload["config"], values


def preflight(
    config: ExperimentConfig,
    resume_from: str | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int | None = None,
) -> ExperimentState:
    """Check the run arguments, then build the run's state.

    Nothing runs or is written. With ``resume_from``, the checkpoint is read
    once, its parameters are restored and its rows are rebuilt into records
    by :func:`append_record`. Raises ``ConfigurationError`` for a bad
    checkpoint interval, a checkpoint that cannot be read (a bad row
    included), one written under a config that differs in anything but
    ``rounds``, or one past ``config.rounds``.
    """
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ConfigurationError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if checkpoint_path is None:
            raise ConfigurationError("checkpoint_every requires checkpoint_path")
    if resume_from is None:
        return new_experiment_state(config)
    try:
        rows, fingerprint, values = load_checkpoint(resume_from)
        if fingerprint != config_fingerprint(config):
            raise ConfigurationError(
                f"checkpoint {resume_from} was written under another config; "
                "only rounds may change on resume"
            )
        params = ModelParams(values, init_model(config.model).layout)
    except ConfigurationError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"cannot load checkpoint {resume_from}: {type(exc).__name__}: {exc}"
        ) from None
    if len(rows) > config.rounds:
        raise ConfigurationError(f"checkpoint has {len(rows)} rounds; rounds = {config.rounds}")
    state = new_experiment_state(config)
    state.params = params
    for row in rows:
        append_record(state, *row)
    return state


def run_rounds(
    state: ExperimentState,
    checkpoint_path: str | None = None,
    checkpoint_every: int | None = None,
) -> Iterator[RoundRecord]:
    """Run the rounds after ``state.records`` up to ``config.rounds``, yielding each record.

    Takes the arguments :func:`preflight` checked: a checkpoint is written to
    ``checkpoint_path`` after every ``checkpoint_every`` completed rounds,
    before that round's record is yielded. Rounds run only as the caller
    iterates.
    """
    for round_index in range(len(state.records) + 1, state.config.rounds + 1):
        record = run_round(state, round_index)
        if checkpoint_every is not None and round_index % checkpoint_every == 0:
            save_checkpoint(state, checkpoint_path)
        yield record


def run_experiment(
    config: ExperimentConfig,
    resume_from: str | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int | None = None,
) -> tuple[list[RoundRecord], ModelParams]:
    """Run all configured rounds; deterministic for a fixed config.

    Args:
        config: The experiment.
        resume_from: Optional checkpoint path to continue from.
        checkpoint_path: Where to write checkpoints (required with
            ``checkpoint_every``).
        checkpoint_every: Write a checkpoint after every N >= 1 completed rounds.

    Returns:
        Every record of the run, restored ones included, and the final global
        model. To act on each round as it completes, iterate
        :func:`run_rounds` over the state :func:`preflight` returns instead.
    """
    state = preflight(config, resume_from, checkpoint_path, checkpoint_every)
    for _ in run_rounds(state, checkpoint_path, checkpoint_every):
        pass
    return state.records, state.params
