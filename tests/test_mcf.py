import itertools

import numpy as np
import pytest

from fedgsp.mcf import INT64_MAX, FlowNetwork, FlowSolution, solve


def bipartite_network(costs, sink_demands):
    """Points with unit supply on the left, capacity-limited sinks on the right."""
    num_points, num_sinks = costs.shape
    arcs = [
        (k, num_points + l, 1, int(costs[k, l]))
        for k in range(num_points)
        for l in range(num_sinks)
    ]
    supplies = [1] * num_points + [-int(d) for d in sink_demands]
    return FlowNetwork(
        node_count=num_points + num_sinks, arcs=tuple(arcs), supplies=tuple(supplies)
    )


def brute_force_min_assignment(costs, sink_demands):
    """Oracle: enumerate every feasible point->sink assignment."""
    num_points, num_sinks = costs.shape
    best = None
    for choice in itertools.product(range(num_sinks), repeat=num_points):
        loads = [0] * num_sinks
        for sink in choice:
            loads[sink] += 1
        if loads != list(sink_demands):
            continue
        total = sum(costs[k, choice[k]] for k in range(num_points))
        if best is None or total < best:
            best = total
    return best


def residual_has_negative_cycle(network: FlowNetwork, solution: FlowSolution) -> bool:
    """Bellman-Ford certificate over the residual graph of a solution."""
    edges = []
    for (tail, head, capacity, cost), flow in zip(network.arcs, solution.flows):
        if flow < capacity:
            edges.append((tail, head, cost))
        if flow > 0:
            edges.append((head, tail, -cost))
    dist = [0] * network.node_count  # virtual source to every node
    for _ in range(network.node_count):
        changed = False
        for tail, head, cost in edges:
            if dist[tail] + cost < dist[head]:
                dist[head] = dist[tail] + cost
                changed = True
        if not changed:
            return False
    return True


class TestExamples:
    def test_single_arc(self):
        network = FlowNetwork(node_count=2, arcs=((0, 1, 1, 5),), supplies=(1, -1))
        solution = solve(network)
        assert solution.status == "optimal"
        assert solution.total_cost == 5
        assert solution.flows.tolist() == [1]

    def test_two_by_two_diagonal(self):
        costs = np.array([[1, 2], [2, 1]])
        solution = solve(bipartite_network(costs, [1, 1]))
        assert solution.status == "optimal"
        assert solution.total_cost == 2
        assert solution.flows.tolist() == [1, 0, 0, 1]

    def test_transshipment(self):
        # 0 -> 1 -> 3 is cheaper than 0 -> 2 -> 3 for one of two units.
        network = FlowNetwork(
            node_count=4,
            arcs=(
                (0, 1, 1, 1),
                (0, 2, 2, 3),
                (1, 3, 2, 1),
                (2, 3, 2, 1),
            ),
            supplies=(2, 0, 0, -2),
        )
        solution = solve(network)
        assert solution.status == "optimal"
        assert solution.total_cost == 1 + 1 + 3 + 1
        assert solution.flows.tolist() == [1, 1, 1, 1]


class TestInfeasible:
    def test_unbalanced_supplies(self):
        network = FlowNetwork(node_count=2, arcs=((0, 1, 1, 1),), supplies=(2, -1))
        solution = solve(network)
        assert solution.status == "infeasible"
        assert solution.total_cost == 0
        assert not solution.flows.any()

    def test_capacity_cut(self):
        network = FlowNetwork(node_count=2, arcs=((0, 1, 1, 1),), supplies=(2, -2))
        solution = solve(network)
        assert solution.status == "infeasible"
        assert not solution.flows.any()


class TestValidation:
    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            FlowNetwork(node_count=2, arcs=((0, 1, -1, 1),), supplies=(1, -1))

    def test_unknown_node(self):
        with pytest.raises(ValueError):
            FlowNetwork(node_count=2, arcs=((0, 5, 1, 1),), supplies=(1, -1))

    def test_supply_length(self):
        with pytest.raises(ValueError):
            FlowNetwork(node_count=3, arcs=(), supplies=(0, 0))

    def test_cost_overflow_is_loud(self):
        big = INT64_MAX // 2
        network = FlowNetwork(
            node_count=2, arcs=((0, 1, 3, big),), supplies=(3, -3)
        )
        with pytest.raises(OverflowError):
            solve(network)


class TestNegativeCosts:
    def test_negative_arc_cost_rejected(self):
        with pytest.raises(ValueError, match="arc 0 has negative unit cost"):
            FlowNetwork(node_count=3, arcs=((0, 1, 2, -5), (1, 2, 2, 1)), supplies=(2, 0, -2))


class TestRandomInstancesAgainstOracle:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(120):
            num_points = int(rng.integers(2, 9))
            num_sinks = int(rng.integers(1, 4))
            costs = rng.integers(0, 101, size=(num_points, num_sinks))
            cuts = np.sort(rng.choice(num_points + 1, size=num_sinks - 1, replace=True))
            demands = np.diff(np.concatenate(([0], cuts, [num_points])))
            network = bipartite_network(costs, demands)
            solution = solve(network)
            assert solution.status == "optimal", f"trial {trial}"
            expected = brute_force_min_assignment(costs, list(demands))
            assert solution.total_cost == expected, f"trial {trial}"
            assert not residual_has_negative_cycle(network, solution), f"trial {trial}"

    def test_flow_conservation_and_integrality(self):
        rng = np.random.default_rng(7)
        costs = rng.integers(0, 50, size=(6, 3))
        network = bipartite_network(costs, [2, 2, 2])
        solution = solve(network)
        flows = solution.flows
        assert flows.dtype == np.int64
        assert np.all(flows >= 0)
        for i, (_, _, capacity, _) in enumerate(network.arcs):
            assert flows[i] <= capacity
        balance = np.zeros(network.node_count, dtype=np.int64)
        for (tail, head, _, _), flow in zip(network.arcs, flows):
            balance[tail] -= flow
            balance[head] += flow
        assert np.array_equal(balance, -np.array(network.supplies))


class TestDeterminism:
    def test_identical_flows_not_just_costs(self):
        rng = np.random.default_rng(11)
        # Duplicate costs everywhere force heavy tie-breaking.
        costs = rng.integers(0, 3, size=(8, 3))
        network = bipartite_network(costs, [3, 3, 2])
        first = solve(network)
        for _ in range(5):
            again = solve(network)
            assert np.array_equal(first.flows, again.flows)
            assert first.total_cost == again.total_cost
