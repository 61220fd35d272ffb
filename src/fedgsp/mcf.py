"""Exact minimum-cost flow: the reference oracle for balanced assignment.

``grouping.cluster_assignment`` solves its transportation problem directly on
the cluster graph; the tests check its cost against this general solver on
the same integer costs.

Successive shortest paths with node potentials: augment along a cheapest
residual path from a super-source to a super-sink until all supply is routed,
or report infeasibility (with no partial flow). Costs, capacities and supplies
are integers by contract; callers pre-scale real costs. All flows are integral.
Unit costs are non-negative (``FlowNetwork`` rejects negative ones), so zero
node potentials are valid from the first Dijkstra on.

Determinism: arcs are stored and scanned in ascending index order, Dijkstra's
heap breaks distance ties by node id, and labels improve only on strictly
shorter paths, so equal-cost alternatives always resolve to the lowest arc
index encountered first. Repeated solves of the same network return identical
flows, not just identical costs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

INT64_MAX = 2**63 - 1

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FlowNetwork:
    """A min-cost-flow instance.

    ``arcs`` holds ``(tail, head, capacity, unit_cost)`` tuples; ``supplies``
    has one entry per node (positive = source, negative = sink).
    """

    node_count: int
    arcs: tuple[tuple[int, int, int, int], ...]
    supplies: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        object.__setattr__(self, "arcs", tuple(tuple(a) for a in self.arcs))
        object.__setattr__(self, "supplies", tuple(int(s) for s in self.supplies))
        if len(self.supplies) != self.node_count:
            raise ValueError("supplies must have one entry per node")
        for value in self.supplies:
            if abs(value) > INT64_MAX:
                raise ValueError("supply exceeds 64-bit range")
        for i, (tail, head, capacity, cost) in enumerate(self.arcs):
            if not (0 <= tail < self.node_count and 0 <= head < self.node_count):
                raise ValueError(f"arc {i} references an unknown node")
            if capacity < 0:
                raise ValueError(f"arc {i} has negative capacity")
            if cost < 0:
                raise ValueError(f"arc {i} has negative unit cost")
            if capacity > INT64_MAX or cost > INT64_MAX:
                raise ValueError(f"arc {i} exceeds 64-bit range")


@dataclass(frozen=True)
class FlowSolution:
    flows: np.ndarray
    total_cost: int
    status: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", np.asarray(self.flows, dtype=np.int64))


def solve(network: FlowNetwork) -> FlowSolution:
    """Find an integral min-cost flow satisfying all supplies.

    Returns:
        A :class:`FlowSolution` with status ``optimal`` and per-arc flows, or
        status ``infeasible`` (zero flows, zero cost) when the supplies cannot
        be routed. Raises ``OverflowError`` if the optimal cost cannot be
        accumulated in a signed 64-bit integer.
    """
    num_arcs = len(network.arcs)
    zero = np.zeros(num_arcs, dtype=np.int64)
    if sum(network.supplies) != 0:
        return FlowSolution(flows=zero, total_cost=0, status=STATUS_INFEASIBLE)

    source = network.node_count
    sink = network.node_count + 1
    num_nodes = network.node_count + 2

    # Paired residual edges: edge 2i is arc i forward, 2i+1 its reverse
    # (``e ^ 1`` flips direction). Adjacency lists keep ascending edge order.
    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adjacency: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(u: int, v: int, capacity: int, unit_cost: int) -> None:
        for node, other, c, w in ((u, v, capacity, unit_cost), (v, u, 0, -unit_cost)):
            adjacency[node].append(len(to))
            to.append(other)
            cap.append(c)
            cost.append(w)

    for tail, head, capacity, unit_cost in network.arcs:
        add_edge(tail, head, capacity, unit_cost)

    required = 0
    for node, supply in enumerate(network.supplies):
        if supply > 0:
            add_edge(source, node, supply, 0)
            required += supply
        elif supply < 0:
            add_edge(node, sink, -supply, 0)

    inf = float("inf")
    potential = [0] * num_nodes

    sent = 0
    while sent < required:
        # Dijkstra on reduced costs; ties pop by node id, labels only improve
        # strictly, so the lowest-index arc scanned first wins equal-cost ties.
        dist = [inf] * num_nodes
        pred_edge = [-1] * num_nodes
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            pu = potential[u]
            for e in adjacency[u]:
                if cap[e] > 0:
                    v = to[e]
                    nd = d + cost[e] + pu - potential[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        pred_edge[v] = e
                        heapq.heappush(heap, (nd, v))
        if dist[sink] == inf:
            return FlowSolution(flows=zero, total_cost=0, status=STATUS_INFEASIBLE)

        bottleneck = required - sent
        v = sink
        while v != source:
            e = pred_edge[v]
            bottleneck = min(bottleneck, cap[e])
            v = to[e ^ 1]
        v = sink
        while v != source:
            e = pred_edge[v]
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
            v = to[e ^ 1]
        sent += bottleneck
        for node in range(num_nodes):
            if dist[node] != inf:
                potential[node] += dist[node]

    flows = np.fromiter(
        (cap[2 * i + 1] for i in range(num_arcs)), dtype=np.int64, count=num_arcs
    )
    total_cost = 0
    for i, (_, _, _, unit_cost) in enumerate(network.arcs):
        total_cost += int(flows[i]) * unit_cost
        if total_cost > INT64_MAX:
            raise OverflowError("total cost exceeds the signed 64-bit range")
    return FlowSolution(flows=flows, total_cost=total_cost, status=STATUS_OPTIMAL)
