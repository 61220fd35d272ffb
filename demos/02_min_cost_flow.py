#!/usr/bin/env python3
"""Exercise the exact min-cost-flow solver, the reference oracle for balanced clustering.

Solves a small transshipment instance, prints the per-arc flows, checks the
balanced assignment of ``grouping.cluster_assignment`` against the flow's
cost, and shows the determinism guarantee: repeated solves return identical
flows even when many optima tie on cost.
"""

import numpy as np

from fedgsp.grouping import cluster_assignment
from fedgsp.mcf import FlowNetwork, solve


def main():
    print("=== A small transshipment problem ===")
    # Two units leave node 0 for node 3; the direct-ish route through node 1
    # is cheaper but capacity-limited.
    network = FlowNetwork(
        node_count=4,
        arcs=(
            (0, 1, 1, 1),  # tail, head, capacity, unit cost
            (0, 2, 2, 3),
            (1, 3, 2, 1),
            (2, 3, 2, 1),
        ),
        supplies=(2, 0, 0, -2),
    )
    solution = solve(network)
    print(f"status: {solution.status}, total cost: {solution.total_cost}")
    for arc, flow in zip(network.arcs, solution.flows):
        tail, head, capacity, cost = arc
        print(f"  {tail} -> {head}: flow {flow}/{capacity} at unit cost {cost}")

    print("\n=== Balanced assignment as a flow ===")
    # Six points, unit supply each; two clusters demanding three points each.
    rng = np.random.default_rng(1)
    points = rng.integers(0, 10, size=(6, 2)).astype(float)
    centroids = np.array([[2.0, 2.0], [8.0, 8.0]])
    arcs = []
    for k, point in enumerate(points):
        for l, centroid in enumerate(centroids):
            cost = int(round(0.5 * float(np.sum((point - centroid) ** 2)) * 10**6))
            arcs.append((k, 6 + l, 1, cost))
    network = FlowNetwork(
        node_count=8, arcs=tuple(arcs), supplies=(1, 1, 1, 1, 1, 1, -3, -3)
    )
    solution = solve(network)
    assignment = solution.flows.reshape(6, 2).argmax(axis=1)
    print(f"points:\n{points}")
    print(f"assignment to clusters: {assignment.tolist()} (three per cluster, exactly)")
    fast = cluster_assignment(points, centroids)
    costs = np.array([arc[3] for arc in arcs]).reshape(6, 2)
    fast_cost = int(costs[np.arange(6), fast].sum())
    print(f"cluster_assignment: {fast.tolist()}, cost {fast_cost} "
          f"(flow cost {solution.total_cost}, equal: {fast_cost == solution.total_cost})")

    print("\n=== Determinism under ties ===")
    tie_costs = tuple((k, 6 + l, 1, 1) for k in range(6) for l in range(2))
    tie_network = FlowNetwork(
        node_count=8, arcs=tie_costs, supplies=(1, 1, 1, 1, 1, 1, -3, -3)
    )
    flows = [solve(tie_network).flows for _ in range(3)]
    print(f"every cost ties; flows still identical across solves: "
          f"{all(np.array_equal(flows[0], f) for f in flows[1:])}")
    print(f"chosen flow vector: {flows[0].tolist()}")

    print("\n=== Infeasibility is reported, never partial ===")
    bad = FlowNetwork(node_count=2, arcs=((0, 1, 1, 1),), supplies=(2, -2))
    result = solve(bad)
    print(f"status: {result.status}, flows: {result.flows.tolist()}")


if __name__ == "__main__":
    main()
