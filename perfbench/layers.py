"""The fedgsp layers the traced run records, and the per-layer metrics.

Each target wraps a public function at every module that binds it (see
``tracer.Tracer.install``); the observers add the work counts that a span's
duration cannot show. ``derive`` turns one traced run into the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import statistics

from tracer import Span, Target, percentile, self_times

PACKAGE = "fedgsp"

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "datagen.generate_task.s": ("s", "lower"),
    "datagen.dirichlet_proportions.calls": ("count", "lower"),
    "config.resolve.s": ("s", "lower"),
    "mcf.solve.calls": ("count", "lower"),
    "mcf.solve.self_s": ("s", "lower"),
    "mcf.solve.p50_ms": ("ms", "lower"),
    "mcf.solve.p90_ms": ("ms", "lower"),
    "mcf.arcs": ("count", "lower"),
    "mcf.units_routed": ("count", "lower"),
    "grouping.plan.s": ("s", "lower"),
    "grouping.cluster_assignment.calls": ("count", "lower"),
    "grouping.cluster_assignment.self_s": ("s", "lower"),
    "grouping.alternations": ("count", "lower"),
    "grouping.cap_hit_ratio": ("ratio", "lower"),
    "grouping.participation_ratio": ("ratio", "higher"),
    "trainer.train_one_client.calls": ("count", "lower"),
    "trainer.train_one_client.self_s": ("s", "lower"),
    "trainer.loss_and_gradient.calls": ("count", "lower"),
    "trainer.loss_and_gradient.self_s": ("s", "lower"),
    "trainer.samples_trained": ("count", "lower"),
    "trainer.evaluate.s": ("s", "lower"),
    "metrics.median_pairwise_cpd.s": ("s", "lower"),
    "metrics.cpd_groups_max": ("count", "lower"),
    "metrics.cpd_tensor_mb": ("MB", "lower"),
    "metrics.cost_models.s": ("s", "lower"),
    "orchestrator.run_round.self_s": ("s", "lower"),
    "orchestrator.sampled_groups": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics that must repeat exactly between traced runs of one config.
COUNTS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit not in ("s", "ms"))


def _observe_sampled(tracer, arguments, record) -> None:
    tracer.count("orchestrator.sampled_groups", record.sampled_groups)


def _observe_plan(offered: str):
    def observe(tracer, arguments, result) -> None:
        plan = getattr(result, "plan", result)
        clients = arguments[offered]  # a count, or the clients themselves
        offered_count = clients if isinstance(clients, int) else len(clients)
        tracer.count("grouping.offered_clients", offered_count)
        tracer.count("grouping.grouped_clients", sum(len(g) for g in plan.groups))

    return observe


def _observe_clustering(tracer, arguments, result) -> None:
    _, history = result
    alternations = len(history) // 2
    tracer.count("grouping.clusterings")
    tracer.count("grouping.alternations", alternations)
    tracer.count("grouping.cap_hits", int(alternations >= arguments["max_iterations"]))


def _observe_solve(tracer, arguments, result) -> None:
    network = arguments["network"]
    tracer.count("mcf.arcs", len(network.arcs))
    tracer.count("mcf.units_routed", sum(s for s in network.supplies if s > 0))


def _observe_training(tracer, arguments, result) -> None:
    samples = len(arguments["dataset"].labels) * arguments["config"].local_epochs
    tracer.count("trainer.samples_trained", samples)


def _observe_cpd(tracer, arguments, result) -> None:
    distributions = arguments["distributions"]
    groups = len(distributions)
    if groups > tracer.counters.get("metrics.cpd_groups_max", 0):
        first = distributions[0]
        tracer.counters["metrics.cpd_groups_max"] = groups
        tracer.counters["metrics.cpd_classes"] = len(getattr(first, "counts", first))


ROUND = Target(
    "fedgsp.orchestrator", "run_round", "orchestrator.run_round", _observe_sampled, "round_index"
)

TARGETS = (
    Target("fedgsp.cli", "main", "cli.main"),
    Target("fedgsp.config", "resolve", "config.resolve"),
    Target("fedgsp.orchestrator", "run_experiment", "orchestrator.run_experiment"),
    Target("fedgsp.datagen", "generate_task", "datagen.generate_task"),
    Target("fedgsp.rng", "dirichlet_proportions", "datagen.dirichlet_proportions"),
    ROUND,
    Target(
        "fedgsp.grouping",
        "inter_cluster_grouping",
        "grouping.inter_cluster_grouping",
        _observe_plan("clients"),
    ),
    Target(
        "fedgsp.grouping",
        "random_grouping",
        "grouping.random_grouping",
        _observe_plan("num_clients"),
    ),
    Target(
        "fedgsp.grouping",
        "singleton_grouping",
        "grouping.singleton_grouping",
        _observe_plan("num_clients"),
    ),
    Target(
        "fedgsp.grouping",
        "constrained_cluster",
        "grouping.constrained_cluster",
        _observe_clustering,
    ),
    Target("fedgsp.grouping", "cluster_assignment", "grouping.cluster_assignment"),
    Target("fedgsp.mcf", "solve", "mcf.solve", _observe_solve),
    Target(
        "fedgsp.trainer", "train_one_client", "trainer.train_one_client", _observe_training
    ),
    Target("fedgsp.trainer", "loss_and_gradient", "trainer.loss_and_gradient"),
    Target("fedgsp.trainer", "evaluate", "trainer.evaluate"),
    Target(
        "fedgsp.metrics",
        "median_pairwise_cpd",
        "metrics.median_pairwise_cpd",
        _observe_cpd,
    ),
    Target("fedgsp.metrics", "t_comp", "metrics.t_comp"),
    Target("fedgsp.metrics", "t_comm", "metrics.t_comm"),
    Target("fedgsp.metrics", "d_comm", "metrics.d_comm"),
)

GROUPING_PLANS = (
    "grouping.inter_cluster_grouping",
    "grouping.random_grouping",
    "grouping.singleton_grouping",
)
COST_MODELS = ("metrics.t_comp", "metrics.t_comm", "metrics.d_comm")


def round_seconds(spans: list[Span]) -> list[float]:
    return [(s.end - s.start) / 1e9 for s in spans if s.name == ROUND.name]


def derive(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but ``trace.overhead_s``)."""
    durations: dict[str, list[int]] = {}
    own: dict[str, int] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        durations.setdefault(span.name, []).append(span.end - span.start)
        own[span.name] = own.get(span.name, 0) + self_ns

    def total_s(*names: str) -> float:
        return sum(sum(durations.get(n, ())) for n in names) / 1e9

    def self_s(name: str) -> float:
        return own.get(name, 0) / 1e9

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    def ratio(numerator: str, denominator: str) -> float:
        base = counters.get(denominator, 0)
        return counters.get(numerator, 0) / base if base else 0.0

    solves_ms = [d / 1e6 for d in durations.get("mcf.solve", ())]
    groups = counters.get("metrics.cpd_groups_max", 0)
    return {
        "datagen.generate_task.s": total_s("datagen.generate_task"),
        "datagen.dirichlet_proportions.calls": calls("datagen.dirichlet_proportions"),
        "config.resolve.s": total_s("config.resolve"),
        "mcf.solve.calls": calls("mcf.solve"),
        "mcf.solve.self_s": self_s("mcf.solve"),
        "mcf.solve.p50_ms": statistics.median(solves_ms) if solves_ms else 0.0,
        "mcf.solve.p90_ms": percentile(solves_ms, 0.9) if solves_ms else 0.0,
        "mcf.arcs": counters.get("mcf.arcs", 0),
        "mcf.units_routed": counters.get("mcf.units_routed", 0),
        "grouping.plan.s": total_s(*GROUPING_PLANS),
        "grouping.cluster_assignment.calls": calls("grouping.cluster_assignment"),
        "grouping.cluster_assignment.self_s": self_s("grouping.cluster_assignment"),
        "grouping.alternations": counters.get("grouping.alternations", 0),
        "grouping.cap_hit_ratio": ratio("grouping.cap_hits", "grouping.clusterings"),
        "grouping.participation_ratio": ratio(
            "grouping.grouped_clients", "grouping.offered_clients"
        ),
        "trainer.train_one_client.calls": calls("trainer.train_one_client"),
        "trainer.train_one_client.self_s": self_s("trainer.train_one_client"),
        "trainer.loss_and_gradient.calls": calls("trainer.loss_and_gradient"),
        "trainer.loss_and_gradient.self_s": self_s("trainer.loss_and_gradient"),
        "trainer.samples_trained": counters.get("trainer.samples_trained", 0),
        "trainer.evaluate.s": total_s("trainer.evaluate"),
        "metrics.median_pairwise_cpd.s": total_s("metrics.median_pairwise_cpd"),
        "metrics.cpd_groups_max": groups,
        # Computed, not measured: the (G, G, C) float64 difference tensor.
        "metrics.cpd_tensor_mb": groups**2 * counters.get("metrics.cpd_classes", 0) * 8 / 1e6,
        "metrics.cost_models.s": total_s(*COST_MODELS),
        "orchestrator.run_round.self_s": self_s("orchestrator.run_round"),
        "orchestrator.sampled_groups": counters.get("orchestrator.sampled_groups", 0),
        "cli.self_s": self_s("cli.main"),
    }
