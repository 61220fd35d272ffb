"""Experiment configs: a flat ``key = value`` text format with dotted sections.

Silent typos are the classic reproducibility killer, so unknown keys are hard
errors, as are duplicate keys and uncoercible values. Every stochastic choice
derives from the single ``seed`` key: the task, the model init and the run
each get their own sub-stream of it.

Example::

    algorithm = fedgsp
    seed = 7
    rounds = 150
    task.num_clients = 60
    task.skew = dirichlet
    task.concentration = 0.3
    growth.kind = log
    growth.alpha = 2
    growth.beta = 4

Full-line comments start with ``#``; trailing comments need ``  # `` after
the value.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .metrics import CostModelParams
from .orchestrator import ExperimentConfig, GrowthFunction, validate_kappa
from .rng import stream_id
from .datagen import SyntheticTaskSpec
from .trainer import ModelSpec, SgdConfig

_REQUIRED = object()

# key -> (coercion, default). Defaults are materialized into the snapshot.
_SCHEMA: dict[str, tuple[str, object]] = {
    "algorithm": ("str", _REQUIRED),
    "seed": ("int", 0),
    "rounds": ("int", 500),
    "kappa": ("float", 0.3),
    "fixed_group_count": ("int", 0),  # 0 = unset
    "target_accuracy": ("float", 0.8),
    "task.num_classes": ("int", 10),
    "task.num_clients": ("int", 60),
    "task.samples_per_client": ("int", 50),
    "task.feature_dim": ("int", 16),
    "task.skew": ("str", "dirichlet"),
    "task.concentration": ("float", 0.3),
    "task.shards_per_client": ("int", 2),
    "model.kind": ("str", "softmax_linear"),
    "model.hidden_units": ("int", 16),
    "sgd.learning_rate": ("float", 0.01),
    "sgd.batch_size": ("int", 5),
    "sgd.local_epochs": ("int", 1),
    "growth.kind": ("str", "log"),
    "growth.alpha": ("float", 2.0),
    "growth.beta": ("int", 10),
    "cost.calc_flops_per_sample": ("float", 96e6),
    "cost.aggregation_flops": ("float", 6.3e6),
    "cost.device_flops_per_second": ("float", 567e9),
    "cost.model_size_megabytes": ("float", 25.2),
    "cost.inbound_megabits_per_second": ("float", 567.0),
    "cost.outbound_megabits_per_second": ("float", 567.0),
}


@dataclass(frozen=True)
class ResolvedRun:
    """A validated experiment plus the exact settings it was built from."""

    experiment: ExperimentConfig
    target_accuracy: float
    snapshot: dict[str, str]
    content_hash: str
    seed: int


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping."""
    settings: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if " #" in line:
            line = line.split(" #", 1)[0].rstrip()
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigurationError(f"line {lineno}: empty key or value")
        if key in settings:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        settings[key] = value
    return settings


def parse_override(item: str) -> tuple[str, str]:
    """Parse one ``--set key=value`` argument."""
    if "=" not in item:
        raise ConfigurationError(f"override must look like key=value, got {item!r}")
    key, value = (part.strip() for part in item.split("=", 1))
    if not key or not value:
        raise ConfigurationError(f"override has an empty key or value: {item!r}")
    return key, value


def _coerce(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind != "float":
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected {kind}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{key}: expected a finite float, got {raw!r}")
    return value


def resolve(settings: dict[str, str], overrides: dict[str, str] | None = None) -> ResolvedRun:
    """Validate raw settings (plus overrides) and build the experiment.

    Raises:
        ConfigurationError: On unknown keys, bad values, or inconsistent
            combinations; the message names the offending field.
    """
    merged = dict(settings)
    merged.update(overrides or {})

    unknown = sorted(set(merged) - set(_SCHEMA))
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(unknown)}")

    values: dict[str, object] = {}
    for key, (kind, default) in _SCHEMA.items():
        if key in merged:
            values[key] = _coerce(key, kind, merged[key])
        elif default is _REQUIRED:
            raise ConfigurationError(f"missing required config key: {key}")
        else:
            values[key] = default

    seed = int(values["seed"])
    task = SyntheticTaskSpec(
        num_classes=values["task.num_classes"],
        num_clients=values["task.num_clients"],
        samples_per_client=values["task.samples_per_client"],
        feature_dim=values["task.feature_dim"],
        skew=values["task.skew"],
        concentration=values["task.concentration"],
        shards_per_client=values["task.shards_per_client"],
        seed=stream_id(seed, "task"),
    )
    model = ModelSpec(
        kind=values["model.kind"],
        feature_dim=values["task.feature_dim"],
        num_classes=values["task.num_classes"],
        hidden_units=values["model.hidden_units"],
        init_seed=stream_id(seed, "model-init"),
    )
    sgd = SgdConfig(
        learning_rate=values["sgd.learning_rate"],
        batch_size=values["sgd.batch_size"],
        local_epochs=values["sgd.local_epochs"],
    )
    growth = GrowthFunction(
        kind=values["growth.kind"],
        alpha=values["growth.alpha"],
        beta=values["growth.beta"],
    )
    # Before the cost model, which would name kappa by its own field name.
    validate_kappa(values["kappa"])
    cost = CostModelParams(
        samples_per_client=task.samples_per_client,
        num_clients=task.num_clients,
        local_epochs=sgd.local_epochs,
        sampling_rate=values["kappa"],
        calc_flops_per_sample=values["cost.calc_flops_per_sample"],
        aggregation_flops=values["cost.aggregation_flops"],
        device_flops_per_second=values["cost.device_flops_per_second"],
        model_size_megabytes=values["cost.model_size_megabytes"],
        inbound_megabits_per_second=values["cost.inbound_megabits_per_second"],
        outbound_megabits_per_second=values["cost.outbound_megabits_per_second"],
    )
    experiment = ExperimentConfig(
        algorithm=values["algorithm"],
        task=task,
        model=model,
        sgd=sgd,
        growth=growth,
        kappa=values["kappa"],
        rounds=values["rounds"],
        fixed_group_count=values["fixed_group_count"] or None,
        run_seed=stream_id(seed, "run"),
        cost=cost,
    )

    snapshot = {key: _format_value(values[key]) for key in sorted(_SCHEMA)}
    content_hash = hashlib.sha256(canonical_serialization(snapshot).encode()).hexdigest()
    return ResolvedRun(
        experiment=experiment,
        target_accuracy=values["target_accuracy"],
        snapshot=snapshot,
        content_hash=content_hash,
        seed=seed,
    )


def _format_value(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def canonical_serialization(snapshot: dict[str, str]) -> str:
    """The byte-exact form the manifest's config hash is computed over."""
    return "".join(f"{key} = {snapshot[key]}\n" for key in sorted(snapshot))


def load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_config_text(handle.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
