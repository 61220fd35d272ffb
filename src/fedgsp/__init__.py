"""Deterministic simulator for grouped sequential-to-parallel federated training."""

__version__ = "0.1.0"

from .datagen import Dataset, SyntheticTaskSpec, generate_task
from .grouping import (
    GroupCentroidReport,
    GroupingPlan,
    IcgResult,
    inter_cluster_grouping,
    random_grouping,
)
from .metrics import CostModelParams, cpd, d_comm, median_pairwise_cpd, t_comm, t_comp
from .orchestrator import (
    ExperimentConfig,
    GrowthFunction,
    RoundRecord,
    growth_eval,
    run_experiment,
    run_round,
)
from .trainer import (
    ModelParams,
    ModelSpec,
    SgdConfig,
    evaluate,
    init_model,
    train_chains,
    train_one_client,
)

__all__ = [
    "CostModelParams",
    "Dataset",
    "ExperimentConfig",
    "GroupCentroidReport",
    "GroupingPlan",
    "GrowthFunction",
    "IcgResult",
    "ModelParams",
    "ModelSpec",
    "RoundRecord",
    "SgdConfig",
    "SyntheticTaskSpec",
    "cpd",
    "d_comm",
    "evaluate",
    "generate_task",
    "growth_eval",
    "init_model",
    "inter_cluster_grouping",
    "median_pairwise_cpd",
    "random_grouping",
    "run_experiment",
    "run_round",
    "t_comm",
    "t_comp",
    "train_chains",
    "train_one_client",
]
