#!/usr/bin/env python3
"""Build homogeneous client groups by clustering class distributions.

Clusters similar clients into equal-size clusters (alternating exact balanced
assignment and centroid updates), then draws one client per cluster into each
group. Compares the resulting between-group divergence against random
balanced grouping on the same skewed task.
"""

import numpy as np

from fedgsp import (
    SyntheticTaskSpec,
    generate_task,
    inter_cluster_grouping,
    median_pairwise_cpd,
    random_grouping,
)
from fedgsp.grouping import group_distributions


def main():
    spec = SyntheticTaskSpec(
        num_classes=10,
        num_clients=60,
        samples_per_client=50,
        feature_dim=4,
        skew="dirichlet",
        concentration=0.3,
        seed=3,
    )
    _, counts, _ = generate_task(spec)  # counts: (K, C) class counts
    groups_wanted = 6

    print(f"=== Clustered grouping: K=60 clients into M={groups_wanted} groups ===")
    result = inter_cluster_grouping(counts, groups_wanted, 1, seed=11)
    state = result.cluster_state
    print(f"cluster count (== group size): {state.cluster_count}")
    print(f"cluster sizes: {np.bincount(state.assignment).tolist()} (exactly balanced)")
    history = ", ".join(f"{v:,.0f}" for v in result.objective_history)
    print(f"alternating objective (assign, update, ...): {history}")
    print(f"groups of {len(result.plan.groups[0])}: first three = "
          f"{result.plan.groups[:3].tolist()}")
    print(f"clients sitting out this round: {result.plan.unassigned.tolist()}")

    report = result.report
    print("\nGroup centroids vs the global centroid:")
    print(f"  squared errors: {np.round(report.squared_errors, 2).tolist()}")
    print(f"  per-group bound (sum of spreads / L):     {report.error_bound:.2f}")
    print(f"  expectation-level only (error_bound / L): "
          f"{report.error_bound / state.cluster_count:.2f}")

    print("\n=== Versus random balanced grouping, same shape and seed ===")
    random_plan = random_grouping(60, groups_wanted, 1, seed=11)
    for name, plan in (("clustered", result.plan), ("random", random_plan)):
        overall = group_distributions(plan, counts)
        med = median_pairwise_cpd(overall)
        print(f"  {name:9s}: median pairwise group CPD={med:.5f}")

    print("\nThe clustered plan makes group-level class mixes nearly identical,")
    print("which is what lets a small sampled fraction of groups stand in for")
    print("the full population during training.")


if __name__ == "__main__":
    main()
