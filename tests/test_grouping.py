import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgsp import grouping
from fedgsp.datagen import SyntheticTaskSpec, generate_task
from fedgsp.grouping import (
    COST_SCALE,
    UNREACHED,
    GroupingPlan,
    _cheapest_moves,
    _disjoint_paths,
    _run_limit,
    _scaled_costs,
    _shortest_paths,
    cluster_assignment,
    cluster_update,
    clustering_objective,
    constrained_cluster,
    inter_cluster_grouping,
    random_grouping,
    singleton_grouping,
)
from fedgsp.mcf import solve
from fedgsp.orchestrator import new_experiment_state, run_round
from fedgsp.rng import generator, stream_id

from test_mcf import bipartite_network
from test_orchestrator import make_config

# Assignment-step optimality is exact only up to the 1e-6 cost quantization;
# distances here are O(1) or larger, so this slack is orders of magnitude
# below anything the tests compare.
QUANTIZATION_SLACK = 1e-5


def brute_force_balanced_assignment(points, centroids):
    """Oracle: cheapest equal-size assignment by full enumeration."""
    num_points, num_clusters = len(points), len(centroids)
    quota = num_points // num_clusters
    best = None
    for labels in itertools.product(range(num_clusters), repeat=num_points):
        if any(labels.count(l) != quota for l in range(num_clusters)):
            continue
        cost = clustering_objective(points, centroids, np.array(labels))
        if best is None or cost < best:
            best = cost
    return best


class TestClusterAssignment:
    def test_points_on_their_centroids(self):
        points = np.array([[0.0, 0.0], [4.0, 4.0]])
        assignment = cluster_assignment(points, points.copy())
        assert assignment.tolist() == [0, 1]
        assert clustering_objective(points, points, assignment) == 0.0

    def test_two_pairs(self):
        # Two tight pairs far apart; the optimum keeps the pairs together and
        # costs half the sum of within-pair squared distances to centroids.
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        centroids = np.array([[0.0, 0.5], [10.0, 10.5]])
        assignment = cluster_assignment(points, centroids)
        assert assignment.tolist() == [0, 0, 1, 1]
        value = clustering_objective(points, centroids, assignment)
        assert value == pytest.approx(brute_force_balanced_assignment(points, centroids))

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(31)
        for trial in range(25):
            num_clusters = int(rng.integers(1, 3))
            quota = int(rng.integers(1, 5 if num_clusters == 2 else 9))
            num_points = num_clusters * quota
            points = rng.integers(0, 20, size=(num_points, 3)).astype(float)
            centroids = rng.integers(0, 20, size=(num_clusters, 3)).astype(float)
            assignment = cluster_assignment(points, centroids)
            value = clustering_objective(points, centroids, assignment)
            expected = brute_force_balanced_assignment(points, centroids)
            assert value <= expected + QUANTIZATION_SLACK, f"trial {trial}"
            assert value >= expected - QUANTIZATION_SLACK, f"trial {trial}"

    def test_balance_is_exact(self):
        rng = np.random.default_rng(5)
        points = rng.random((12, 4))
        centroids = rng.random((3, 4))
        assignment = cluster_assignment(points, centroids)
        assert np.bincount(assignment, minlength=3).tolist() == [4, 4, 4]

    def test_indivisible_points_rejected(self):
        with pytest.raises(ValueError):
            cluster_assignment(np.zeros((5, 2)), np.zeros((2, 2)))

    def test_integer_counts_assign_as_their_float_copies(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 30, size=(24, 5))
        centroids = counts[[1, 7, 12, 20]]
        assignment = cluster_assignment(counts, centroids)
        assert np.array_equal(assignment, cluster_assignment(counts * 1.0, centroids * 1.0))
        assert np.array_equal(_scaled_costs(counts, centroids), scaled_costs(counts * 1.0,
                                                                             centroids * 1.0))


def scaled_costs(points, centroids):
    """The integer cost matrix that ``cluster_assignment`` optimizes."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.rint(0.5 * np.sum(diff * diff, axis=-1) * COST_SCALE).astype(np.int64)


def assignment_cost(costs, assignment):
    return int(costs[np.arange(len(assignment)), assignment].sum())


def nearest_path(swap, excess):
    """The one-path search: the tree path to the nearest under-full cluster.

    Ties go to the lowest index; the tree is ``_shortest_paths``'s.
    """
    dist, pred = _shortest_paths(swap, excess)
    under = np.flatnonzero(excess < 0)
    path = [int(under[np.argmin(dist[under])])]
    while pred[path[-1]] >= 0:
        path.append(int(pred[path[-1]]))
    return path[::-1]


def move_tables(scaled, assignment, clusters, swap, mover, ties):
    """Refresh rows ``clusters`` (sorted) of three move tables in place.

    ``swap[a, b]`` is the least extra cost of moving a member of ``a`` to
    ``b``, ``mover[a, b]`` the lowest client id attaining it and
    ``ties[a, b]`` how many members attain it. Rows of empty clusters keep
    the caller's fill of ``UNREACHED``, -1 and 0.
    """
    num_points, num_clusters = scaled.shape
    chosen = np.zeros(num_clusters, dtype=bool)
    chosen[clusters] = True
    members = np.flatnonzero(chosen[assignment])
    owner = assignment[members]
    order = np.argsort(owner, kind="stable")  # grouped by cluster, ids ascending
    members, owner = members[order], owner[order]
    sizes = np.bincount(owner, minlength=num_clusters)[clusters]
    occupied = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[occupied]

    delta = scaled[members] - scaled[members, owner][:, None]
    least = np.minimum.reduceat(delta, starts, axis=0)
    attains = delta == np.repeat(least, sizes[occupied], axis=0)
    ids = np.where(attains, members[:, None], num_points)

    rows = clusters[occupied]
    swap[rows] = least
    mover[rows] = np.minimum.reduceat(ids, starts, axis=0)
    ties[rows] = np.add.reduceat(attains, starts, axis=0)


def empty_move_tables(num_clusters):
    """``swap``, ``mover`` and ``ties`` before any row is refreshed."""
    shape = (num_clusters, num_clusters)
    return (np.full(shape, UNREACHED, dtype=np.int64), np.full(shape, -1, dtype=np.int64),
            np.zeros(shape, dtype=np.int64))


def bellman_ford_reference(swap, excess):
    """``_shortest_paths`` by its documented rule, in plain Python on Python ints.

    The over-full clusters start at distance 0 with no predecessor. Each pass
    relaxes, from the distances before it, the edges out of the clusters
    whose distance fell in the pass before (the first pass: the roots). A
    cluster takes its pass's cheapest relaxation, the lowest-index tail
    among equal ones, only if it is strictly below its distance.
    """
    swap, excess = swap.tolist(), excess.tolist()
    nodes = range(len(excess))
    dist = [0 if units > 0 else UNREACHED for units in excess]
    pred = [-1 for _ in nodes]
    frontier = [node for node in nodes if excess[node] > 0]
    for _ in nodes:
        fell = []
        for head in nodes:
            cost, tail = min((dist[tail] + swap[tail][head], tail) for tail in frontier)
            if cost < dist[head]:
                fell.append((head, cost, tail))
        if not fell:
            break
        for head, cost, tail in fell:
            dist[head], pred[head] = cost, tail
        frontier = [head for head, _, _ in fell]
    else:
        raise RuntimeError("negative cycle in the balanced-assignment cluster graph")
    if min(dist[node] for node in nodes if excess[node] < 0) == UNREACHED:
        raise RuntimeError("no under-full cluster is reachable")
    return dist, pred


def draw_search_case(data):
    """(swap, excess) of one search: tie-heavy, wide or free edge costs.

    Tie-heavy and wide tables are ``r[a, b] + p[b] - p[a]`` with ``r >= 0``
    and ``r[a, a] = 0``, so no cycle is negative, as in the assignment's own
    tables; free tables may hold negative cycles. Some under-full clusters
    are empty: their rows are ``UNREACHED``.
    """
    num_clusters = data.draw(st.integers(2, 16), label="L")
    nodes = range(num_clusters)
    excess = data.draw(st.lists(st.integers(-3, 3), min_size=num_clusters,
                                max_size=num_clusters), label="excess")
    root, under = data.draw(st.permutations(nodes), label="order")[:2]
    excess[root] = max(1, excess[root])  # others may be roots too
    excess[under] = min(-1, excess[under])
    mode = data.draw(st.sampled_from(["tie-heavy", "wide", "free"]), label="mode")
    size = num_clusters * num_clusters
    if mode == "free":
        swap = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=size,
                                           max_size=size), label="swap"))
    else:
        high = 2 if mode == "tie-heavy" else 10**6
        reduced = np.array(data.draw(st.lists(st.integers(0, high), min_size=size,
                                              max_size=size), label="reduced"))
        potential = np.array(data.draw(st.lists(st.integers(-high, high),
                                                min_size=num_clusters,
                                                max_size=num_clusters), label="potential"))
        reduced = reduced.reshape(num_clusters, num_clusters)
        np.fill_diagonal(reduced, 0)
        swap = reduced + potential[None, :] - potential[:, None]
    swap = swap.reshape(num_clusters, num_clusters).astype(np.int64)
    empty = data.draw(st.sets(st.sampled_from([n for n in nodes if excess[n] < 0])),
                      label="empty")
    swap[sorted(empty)] = UNREACHED
    return swap, np.array(excess, dtype=np.int64)


def one_unit_assignment_oracle(points, centroids):
    """``cluster_assignment`` moving one client along one path per search."""
    num_clusters = len(centroids)
    quota = len(points) // num_clusters
    scaled = scaled_costs(points, centroids)
    assignment = scaled.argmin(axis=1)
    excess = np.bincount(assignment, minlength=num_clusters) - quota
    swap, mover, ties = empty_move_tables(num_clusters)
    touched = np.arange(num_clusters)
    while excess.max() > 0:
        move_tables(scaled, assignment, touched, swap, mover, ties)
        path = nearest_path(swap, excess)
        for a, b in zip(path, path[1:]):
            assignment[mover[a, b]] = b
        excess[path[0]] -= 1
        excess[path[-1]] += 1
        touched = np.sort(path)
    return assignment


def disjoint_path_oracle(points, centroids):
    """``cluster_assignment`` without one-root runs: (assignment, searches).

    Every search moves units along its disjoint tree paths, and a one-edge
    path moves only the members whose extra cost equals ``swap``.
    """
    num_clusters = len(centroids)
    quota = len(points) // num_clusters
    scaled = scaled_costs(points, centroids)
    assignment = scaled.argmin(axis=1)
    excess = np.bincount(assignment, minlength=num_clusters) - quota
    swap, mover, ties = empty_move_tables(num_clusters)
    touched = np.arange(num_clusters)
    searches = 0
    while excess.max() > 0:
        searches += 1
        move_tables(scaled, assignment, touched, swap, mover, ties)
        paths = _disjoint_paths(*_shortest_paths(swap, excess), excess)
        for path in paths:
            source, target = path[0], path[-1]
            units = 1
            if len(path) == 2:
                units = min(excess[source], -excess[target], ties[source, target])
            if units == 1:
                for a, b in zip(path, path[1:]):
                    assignment[mover[a, b]] = b
            else:
                members = np.flatnonzero(assignment == source)
                extra = scaled[members, target] - scaled[members, source]
                assignment[members[extra == swap[source, target]][:units]] = target
            excess[source] -= units
            excess[target] += units
        touched = np.array(sorted(node for path in paths for node in path))
    return assignment, searches


def move_table_oracle(points, centroids):
    """``cluster_assignment`` picking movers from the ``mover`` and ``ties`` tables.

    Returns (assignment, searches). A one-edge path in a search with more
    than one over-full cluster moves ``ties`` members at most; every edge
    that moves one unit moves ``mover``'s client, all looked up at once.
    """
    num_clusters = len(centroids)
    quota = len(points) // num_clusters
    scaled = scaled_costs(points, centroids)
    assignment = scaled.argmin(axis=1)
    excess = np.bincount(assignment, minlength=num_clusters) - quota
    swap, mover, ties = empty_move_tables(num_clusters)
    touched = np.arange(num_clusters)
    roots = int(np.count_nonzero(excess > 0))
    searches = 0
    while roots:
        searches += 1
        move_tables(scaled, assignment, touched, swap, mover, ties)
        dist, pred = _shortest_paths(swap, excess)
        paths = _disjoint_paths(dist, pred, excess)
        tails, heads = [], []
        for path in paths:
            source, target = path[0], path[-1]
            units = 1
            if len(path) == 2:
                limit = swap[source, target]
                if len(paths) > 1 or roots > 1:
                    units = min(excess[source], -excess[target], ties[source, target])
                else:
                    units = min(excess[source], -excess[target])
                    if units > 1:
                        limit = _run_limit(dist, swap, excess, source, target)
            if units == 1:
                tails += path[:-1]
                heads += path[1:]
            else:
                members = np.flatnonzero(assignment == source)
                extra = scaled[members, target] - scaled[members, source]
                run = np.flatnonzero(extra <= limit)
                if limit > swap[source, target]:
                    run = run[np.argsort(extra[run], kind="stable")]
                run = run[:units]
                assignment[members[run]] = target
                units = len(run)
            excess[source] -= units
            excess[target] += units
            if not excess[source]:
                roots -= 1
        if tails:
            heads = np.array(heads)
            assignment[mover[np.array(tails), heads]] = heads
        touched = np.array(sorted(node for path in paths for node in path))
    return assignment, searches


def unique_optimum(costs, assignment, num_clusters):
    """Whether the optimal balanced ``assignment`` is the only optimum.

    Another optimum differs from it by cycles of moves between clusters that
    cost 0 in all. The cluster graph's edge ``a -> b`` costs the least extra
    cost of moving a member of ``a`` to ``b``, and no cycle costs below 0.
    Costing each edge ``(L + 1) * cost - 1`` makes exactly the zero-cost
    cycles negative, which Floyd-Warshall finds on the diagonal.
    """
    extra = costs - costs[np.arange(len(assignment)), assignment][:, None]
    weight = np.stack([extra[assignment == a].min(axis=0) for a in range(num_clusters)])
    weight = (num_clusters + 1) * weight - 1
    np.fill_diagonal(weight, 0)
    for k in range(num_clusters):
        weight = np.minimum(weight, weight[:, k, None] + weight[None, k])
    return bool((np.diagonal(weight) >= 0).all())


def check_against_one_unit_searches(points, centroids):
    """Equal cost to the one-unit oracle, equal bytes where the optimum is unique.

    Returns whether the optimum was unique.
    """
    assignment = cluster_assignment(points, centroids)
    oracle = one_unit_assignment_oracle(points, centroids)
    costs = scaled_costs(points, centroids)
    assert assignment_cost(costs, assignment) == assignment_cost(costs, oracle)
    unique = unique_optimum(costs, assignment, len(centroids))
    if unique:
        assert np.array_equal(assignment, oracle)
    return unique


def counted_assignment(monkeypatch, points, centroids):
    """``cluster_assignment``'s result and how many searches it ran."""
    searches = []

    def counted(swap, excess):
        searches.append(None)
        return _shortest_paths(swap, excess)

    monkeypatch.setattr(grouping, "_shortest_paths", counted)
    return cluster_assignment(points, centroids), len(searches)


def draw_assignment_case(data, max_clusters):
    """(points, centroids) with 2 to ``max_clusters`` clusters, tie-heavy or not."""
    num_clusters = data.draw(st.integers(2, max_clusters), label="L")
    quota = data.draw(st.integers(1, 6), label="q")
    num_points = num_clusters * quota
    dim = data.draw(st.integers(1, 3), label="dim")
    if data.draw(st.booleans(), label="tie-heavy"):
        # Few distinct rows with small entries: many clients tie on every edge.
        pool, high, scale = data.draw(st.integers(1, num_points), label="rows"), 3, 1
    else:  # every row its own, on a fine grid: ties are rare
        pool, high, scale = num_points, 10**4, 1000
    rows = np.array(
        data.draw(st.lists(st.lists(st.integers(0, high), min_size=dim, max_size=dim),
                           min_size=pool, max_size=pool), label="rows"),
        dtype=float,
    ) / scale
    picks = data.draw(st.lists(st.integers(0, pool - 1), min_size=num_points,
                               max_size=num_points), label="picks")
    centroids = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 2 * high), min_size=dim, max_size=dim),
                           min_size=num_clusters, max_size=num_clusters),
                  label="centroids"),
        dtype=float,
    ) / (2 * scale)
    return rows[picks], centroids


class TestAssignmentAgainstOracles:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equal_cost_to_min_cost_flow(self, data):
        num_points = data.draw(st.integers(1, 40), label="K")
        divisors = [l for l in range(1, num_points + 1) if num_points % l == 0]
        # L = 1 and L = K are drawn on purpose, not left to chance.
        layout = data.draw(st.sampled_from(["L=1", "L=K", "any"]), label="layout")
        if layout == "L=1":
            num_clusters = 1
        elif layout == "L=K":
            num_clusters = num_points
        else:
            num_clusters = data.draw(st.sampled_from(divisors), label="L")
        dim = data.draw(st.integers(1, 4), label="dim")
        # A small pool of distinct rows makes duplicated points, as shard skew
        # does, and with them many equal-cost optima.
        pool = data.draw(st.integers(1, num_points), label="distinct rows")
        rows = np.array(
            data.draw(st.lists(st.lists(st.integers(0, 12), min_size=dim, max_size=dim),
                               min_size=pool, max_size=pool), label="rows"),
            dtype=float,
        )
        picks = data.draw(st.lists(st.integers(0, pool - 1), min_size=num_points,
                                   max_size=num_points), label="picks")
        points = rows[picks]
        centroids = np.array(
            data.draw(st.lists(st.lists(st.integers(0, 24), min_size=dim, max_size=dim),
                               min_size=num_clusters, max_size=num_clusters),
                      label="centroids"),
            dtype=float,
        ) / 2

        assignment = cluster_assignment(points, centroids)
        quota = num_points // num_clusters
        assert np.bincount(assignment, minlength=num_clusters).tolist() == [quota] * num_clusters
        costs = scaled_costs(points, centroids)
        oracle = solve(bipartite_network(costs, [quota] * num_clusters))
        assert oracle.status == "optimal"
        assert assignment_cost(costs, assignment) == oracle.total_cost
        assert np.array_equal(cluster_assignment(points, centroids), assignment)

    @pytest.mark.parametrize("skew", ["dirichlet", "shards"])
    @pytest.mark.parametrize(
        "num_points,num_clusters", [(120, 15), (240, 60), (1000, 25), (1000, 250)]
    )
    def test_equal_cost_to_scipy_at_scale(self, skew, num_points, num_clusters):
        from scipy.optimize import linear_sum_assignment

        spec = SyntheticTaskSpec(
            num_classes=10, num_clients=num_points, samples_per_client=50,
            feature_dim=4, skew=skew, seed=num_clusters,
        )
        _, counts, _ = generate_task(spec)
        points = counts.astype(float)
        init = np.random.default_rng(num_points).choice(num_points, num_clusters, replace=False)
        centroids = points[np.sort(init)]
        assignment = cluster_assignment(points, centroids)

        quota = num_points // num_clusters
        costs = scaled_costs(points, centroids)
        replicated = np.repeat(costs, quota, axis=1)  # one column per cluster seat
        rows, seats = linear_sum_assignment(replicated)
        assert np.bincount(assignment).tolist() == [quota] * num_clusters
        assert assignment_cost(costs, assignment) == int(replicated[rows, seats].sum())

    def test_ties_break_by_lowest_index(self):
        # Six identical points, three identical centroids: every balanced
        # assignment costs the same. All start at cluster 0 (lowest index);
        # each move takes the lowest id left there and goes to the lowest
        # under-full cluster, so ids 0, 1 fill cluster 1 and 2, 3 cluster 2.
        points = np.zeros((6, 2))
        centroids = np.ones((3, 2))
        assert cluster_assignment(points, centroids).tolist() == [1, 1, 2, 2, 0, 0]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_one_unit_searches(self, data):
        num_clusters = data.draw(st.integers(1, 12), label="L")
        quota = data.draw(st.integers(1, 6), label="q")
        num_points = num_clusters * quota
        dim = data.draw(st.integers(1, 3), label="dim")
        # Few distinct rows with small entries: many clients tie on every edge.
        pool = data.draw(st.integers(1, num_points), label="distinct rows")
        rows = np.array(
            data.draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                               min_size=pool, max_size=pool), label="rows"),
            dtype=float,
        )
        picks = data.draw(st.lists(st.integers(0, pool - 1), min_size=num_points,
                                   max_size=num_points), label="picks")
        points = rows[picks]
        centroids = np.array(
            data.draw(st.lists(st.lists(st.integers(0, 7), min_size=dim, max_size=dim),
                               min_size=num_clusters, max_size=num_clusters),
                      label="centroids"),
            dtype=float,
        ) / 2
        check_against_one_unit_searches(points, centroids)

    @pytest.mark.parametrize(
        "xs,centroids,unique",
        [
            # All three points near 0 start at cluster 0; moving the 0.2 to
            # cluster 1 is cheaper than any other balanced split.
            ([0, 0.1, 0.2, 2], [0, 2], True),
            # Four points midway between the centroids: every split costs
            # the same.
            ([1, 1, 1, 1], [0, 2], False),
        ],
        ids=["unique", "tied"],
    )
    def test_byte_oracle_branches(self, xs, centroids, unique):
        # The Hypothesis test above compares bytes only in the first case;
        # these fixed inputs make sure both of its branches run.
        points = np.array(xs, dtype=float)[:, None]
        centers = np.array(centroids, dtype=float)[:, None]
        assert check_against_one_unit_searches(points, centers) is unique

    @pytest.mark.parametrize(
        "xs,centroids,expected,searches",
        [
            # Source excess: clusters 0 (excess 2) and 1 (excess 1) feed the
            # empty cluster 2. The path [0, 2] has five tied members and a
            # deficit of 3, so it moves 2; then [1, 2] moves 1.
            ([0, 0, 0, 0, 0, 10, 10, 10, 10], [0, 10, 4], [2, 2, 0, 0, 0, 2, 1, 1, 1], 2),
            # Target deficit: six tied members in cluster 0 (excess 4). The
            # path [0, 1] stops at cluster 1's deficit of 2; [0, 2] moves 2.
            ([0, 0, 0, 0, 0, 0], [0, 1, 2], [1, 1, 2, 2, 0, 0], 2),
            # Tied count: cluster 0 holds two distinct rows and only the two
            # 1s attain the cheapest move to cluster 1, below the excess and
            # deficit of 3. Cluster 0 is the only root and has no other way
            # into cluster 1, so the same search also moves the lowest-id 0.
            ([0, 0, 0, 0, 0, 1, 1, 3], [0, 3], [1, 0, 0, 0, 0, 1, 1, 1], 1),
        ],
        ids=["source-excess", "target-deficit", "tied-count"],
    )
    def test_one_edge_path_caps(self, monkeypatch, xs, centroids, expected, searches):
        points = np.array(xs, dtype=float)[:, None]
        centers = np.array(centroids, dtype=float)[:, None]
        oracle = one_unit_assignment_oracle(points, centers)
        assignment, count = counted_assignment(monkeypatch, points, centers)
        assert assignment.tolist() == oracle.tolist() == expected
        assert count == searches

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_disjoint_path_searches(self, data):
        points, centroids = draw_assignment_case(data, max_clusters=8)
        oracle, oracle_searches = disjoint_path_oracle(points, centroids)
        with pytest.MonkeyPatch.context() as patch:
            assignment, searches = counted_assignment(patch, points, centroids)
        assert np.array_equal(assignment, oracle)
        assert searches <= oracle_searches

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bytes_and_searches_match_move_tables(self, data):
        points, centroids = draw_assignment_case(data, max_clusters=16)
        oracle, oracle_searches = move_table_oracle(points, centroids)
        with pytest.MonkeyPatch.context() as patch:
            assignment, searches = counted_assignment(patch, points, centroids)
        assert np.array_equal(assignment, oracle)
        assert searches == oracle_searches

    def test_two_edge_path_moves_lowest_id_cheapest_members(self, monkeypatch):
        # Cluster 0 is one over and cluster 2 one short; the cheapest way in
        # is the path [0, 1, 2] (extra costs 10 + 10, against 120 direct).
        # The 4 (id 0) enters cluster 1 below the 14s (ids 2 and 4) that tie
        # on the move to cluster 2, and the 10 (id 1) is cluster 1's lowest
        # id. Each edge moves its tail's lowest-id member attaining ``swap``,
        # so the 4 stays in cluster 1 and the id-2 14 goes on to cluster 2.
        # A member entering along a tree edge is never cheapest on the next
        # one (here 110 against 10), so the look-up order cannot matter.
        points = np.array([4, 10, 14, 0, 14, 1, 2, 20, 21], dtype=float)[:, None]
        centers = np.array([0, 10, 20], dtype=float)[:, None]
        expected = [1, 1, 2, 0, 1, 0, 0, 2, 2]
        assignment, count = counted_assignment(monkeypatch, points, centers)
        oracle, oracle_searches = move_table_oracle(points, centers)
        assert assignment.tolist() == oracle.tolist() == expected
        assert count == oracle_searches == 1

    @pytest.mark.parametrize(
        "xs,centroids,expected,searches",
        [
            # L = 2: cluster 0 holds five clients over its quota of 6, with
            # distinct extra costs 50 - 10x to cluster 1. Nothing else leads
            # into cluster 1, so one search moves the five largest x.
            ([[x / 10, 0] for x in range(0, 44, 4)] + [[10, 0]], [[0, 0], [10, 0]],
             [0] * 6 + [1] * 6, 1),
            # L = 3: cluster 1 is three over, cluster 2 three short. The moves
            # to cluster 2 cost 7.5 (id 2), 12.5 (id 7) and 32.5 (id 5); the
            # way in through cluster 0 costs 13.5 + 18 = 31.5. So the first
            # search moves ids 2 and 7 and stops; a second one moves id 5.
            ([[0, 7], [0, 7], [6, 5], [0, 8], [5, 0], [1, 10], [6, 1], [5, 8], [0, 1]],
             [[4, 0], [5, 6], [10, 6]], [1, 1, 2, 1, 0, 2, 0, 2, 0], 2),
            # Cluster 0 is three over. The centroid at 10 is two short, and its
            # moves cost 10 (x = 4) and 30 (x = 2); the centroid at -10 is one
            # short at distance 30 (x = -2). As cluster 2 that rival loses the
            # tie to cluster 1, so the first search moves both 4 and 2 ...
            ([[4], [2], [1], [0], [-1], [-2], [10], [-10], [-10]], [[0], [10], [-10]],
             [1, 1, 0, 0, 0, 2, 1, 2, 2], 2),
            # ... and as cluster 1 it wins it, so the first search moves only
            # the 4, the second the -2 and the third the 2.
            ([[4], [2], [1], [0], [-1], [-2], [10], [-10], [-10]], [[0], [-10], [10]],
             [2, 2, 0, 0, 0, 1, 2, 1, 1], 3),
        ],
        ids=["two-clusters-distinct", "detour-stops-run", "rival-tie-higher", "rival-tie-lower"],
    )
    def test_one_root_runs(self, monkeypatch, xs, centroids, expected, searches):
        points = np.array(xs, dtype=float)
        centers = np.array(centroids, dtype=float)
        assignment, count = counted_assignment(monkeypatch, points, centers)
        assert assignment.tolist() == expected
        assert count == searches
        assert disjoint_path_oracle(points, centers)[0].tolist() == expected

    @pytest.mark.parametrize(
        "xs,centroids,expected,searches",
        [
            # Clusters 0 and 2 are over-full, 1 and 3 under-full. The tree
            # paths [0, 1] and [2, 3] share no cluster, so one search moves
            # the 0.2 and the 100.2 together.
            ([0, 0.1, 0.2, 1, 100, 100.1, 100.2, 101], [0, 1, 100, 101],
             [0, 0, 1, 1, 2, 2, 3, 3], 1),
            # Clusters 0 and 3 are over-full. Cluster 1 (distance 0.3) takes
            # the path [0, 1]; cluster 2's tree path [0, 1, 2] (0.8) shares
            # it and waits. The next search moves the 50 along [3, 2].
            ([0, 0.1, 0.2, 1, 2, 50, 50.1, 50.2], [0, 1, 2, 50],
             [0, 0, 1, 1, 2, 2, 3, 3], 2),
        ],
        ids=["disjoint-paths", "shared-cluster-waits"],
    )
    def test_disjoint_tree_paths(self, monkeypatch, xs, centroids, expected, searches):
        points = np.array(xs, dtype=float)[:, None]
        centers = np.array(centroids, dtype=float)[:, None]
        assignment, count = counted_assignment(monkeypatch, points, centers)
        assert assignment.tolist() == expected
        assert count == searches
        assert one_unit_assignment_oracle(points, centers).tolist() == expected

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_shortest_paths_match_plain_bellman_ford(self, data):
        swap, excess = draw_search_case(data)
        try:
            expected = bellman_ford_reference(swap, excess)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                _shortest_paths(swap, excess)
            return
        dist, pred = _shortest_paths(swap, excess)
        assert dist.tolist() == expected[0]
        assert pred.tolist() == expected[1]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_cheapest_moves_refresh_the_move_table_rows(self, data):
        num_clusters = data.draw(st.integers(2, 16), label="L")
        num_points = data.draw(st.integers(1, 40), label="K")
        high = data.draw(st.sampled_from([3, 10**6]), label="high")
        scaled = np.array(
            data.draw(st.lists(st.integers(0, high), min_size=num_points * num_clusters,
                               max_size=num_points * num_clusters), label="scaled"),
            dtype=np.int64,
        ).reshape(num_points, num_clusters)
        assignment = np.array(
            data.draw(st.lists(st.integers(0, num_clusters - 1), min_size=num_points,
                               max_size=num_points), label="assignment"),
            dtype=np.int64,
        )
        # Every refresh holds a cluster with members: an over-full root.
        clusters = data.draw(st.sets(st.integers(0, num_clusters - 1)), label="clusters")
        clusters.add(int(assignment[data.draw(st.integers(0, num_points - 1), label="j")]))
        clusters = np.array(sorted(clusters))
        swap, mover, ties = empty_move_tables(num_clusters)
        swap[:] = np.array(
            data.draw(st.lists(st.integers(-high, high), min_size=num_clusters**2,
                               max_size=num_clusters**2), label="stale"),
        ).reshape(num_clusters, num_clusters)  # rows left alone keep these
        expected = swap.copy()
        move_tables(scaled, assignment, clusters, expected, mover, ties)
        _cheapest_moves(scaled, assignment, clusters, swap)
        assert np.array_equal(swap, expected)

    def test_path_search_guards(self):
        # Cluster 0 is over-full and cluster 2 under-full. With no edges, 2 is
        # unreachable; a negative cycle 0 -> 1 -> 0 never stops improving.
        excess = np.array([1, 0, -1])
        no_edges = np.full((3, 3), UNREACHED)
        with pytest.raises(RuntimeError, match="reachable"):
            _shortest_paths(no_edges, excess)
        cycle = no_edges.copy()
        cycle[0, 1] = cycle[1, 0] = -5
        with pytest.raises(RuntimeError, match="negative cycle"):
            _shortest_paths(cycle, excess)

    @pytest.mark.parametrize("cap", [1, 7, 60, 2**10, grouping.ASSIGNMENT_BLOCK_ELEMENTS])
    def test_blocked_costs_match_one_shot_build(self, monkeypatch, cap):
        rng = np.random.default_rng(cap)
        points = rng.integers(0, 50, size=(97, 6)) + rng.random((97, 6))
        centroids = rng.random((11, 6)) * 50
        monkeypatch.setattr(grouping, "ASSIGNMENT_BLOCK_ELEMENTS", cap)
        assert np.array_equal(_scaled_costs(points, centroids), scaled_costs(points, centroids))

    def test_gated_round_costs_in_one_block(self):
        # K = 120, L = 15 over 10 classes, the icg-shards-k120 round shape.
        assert 120 * 15 * 10 <= grouping.ASSIGNMENT_BLOCK_ELEMENTS

    def test_overflow_guard_sees_every_block(self, monkeypatch):
        monkeypatch.setattr(grouping, "ASSIGNMENT_BLOCK_ELEMENTS", 2)
        points = np.array([[0.0], [0.0], [0.0], [1e9]])
        with pytest.raises(OverflowError):
            cluster_assignment(points, np.zeros((2, 1)))

    def test_costs_beyond_int64_rejected(self):
        points = np.array([[0.0], [1e9]])
        with pytest.raises(OverflowError):
            cluster_assignment(points, points[::-1].copy())


def per_cluster_loop_oracle(points, assignment, centroids):
    """The per-cluster mask loops: (member means, spreads about ``centroids``)."""
    num_clusters = int(assignment.max()) + 1
    means = np.empty((num_clusters, points.shape[1]))
    spreads = np.empty(num_clusters)
    for l in range(num_clusters):
        members = points[assignment == l]
        means[l] = members.mean(axis=0)
        diff = members - centroids[l]
        spreads[l] = float(np.sum(diff * diff, axis=1).max())
    return means, spreads


class TestClusterUpdate:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_member_table_bytes_match_per_cluster_loop(self, data):
        num_clusters = data.draw(st.integers(1, 39), label="L")
        quota = data.draw(st.integers(1, 39), label="q")
        num_classes = data.draw(st.integers(1, 12), label="C")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        points = rng.random((num_clusters * quota, num_classes)) * rng.choice([1.0, 50.0])
        assignment = rng.permutation(np.repeat(np.arange(num_clusters), quota))
        centroids = cluster_update(points, assignment)
        state = grouping.ClusterState(centroids=centroids, assignment=assignment)
        rows = rng.permutation(len(points))[:num_clusters][None, :]
        spreads = grouping._centroid_report(points, rows, state).cluster_spreads
        expected_means, expected_spreads = per_cluster_loop_oracle(points, assignment, centroids)
        assert centroids.tobytes() == expected_means.tobytes()
        assert spreads.tobytes() == expected_spreads.tobytes()

    @pytest.mark.parametrize("assignment", [[0, 0, 1], [0, 0, 2, 2], [1, 1, 0, 0, 0, 1, 1]])
    def test_unbalanced_assignment_raises(self, assignment):
        points = np.arange(len(assignment), dtype=float)[:, None]
        with pytest.raises(RuntimeError, match="unbalanced"):
            cluster_update(points, np.array(assignment))

    def test_single_member(self):
        points = np.array([[3.0, 7.0]])
        assert np.array_equal(cluster_update(points, np.array([0])), points)

    def test_arithmetic_mean(self):
        points = np.array([[2.0, 0.0], [0.0, 2.0]])
        centroids = cluster_update(points, np.array([0, 0]))
        assert centroids.tolist() == [[1.0, 1.0]]

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(13)
        points = rng.random((12, 5))
        assignment = np.repeat(np.arange(3), 4)
        centroids = cluster_update(points, assignment)
        for l in range(3):
            members = [points[i] for i in range(12) if assignment[i] == l]
            expected = sum(members) / len(members)
            assert np.allclose(centroids[l], expected, atol=1e-12)


class TestConstrainedCluster:
    def test_objective_never_increases(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            points = rng.integers(0, 40, size=(18, 6)).astype(float)
            _, history = constrained_cluster(points, 3, seed=trial)
            slack = QUANTIZATION_SLACK * len(points)
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + slack, f"trial {trial}: {history}"

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        points = rng.integers(0, 30, size=(12, 4)).astype(float)
        first_state, first_history = constrained_cluster(points, 4, seed=9)
        second_state, second_history = constrained_cluster(points, 4, seed=9)
        assert np.array_equal(first_state.assignment, second_state.assignment)
        assert first_history == second_history

    def test_one_cluster_is_solved_without_draws(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("one cluster needs no draw and no assignment")

        monkeypatch.setattr(grouping, "cluster_assignment", forbidden)
        monkeypatch.setattr(grouping, "generator", forbidden)
        points = np.random.default_rng(41).integers(0, 30, size=(11, 5)).astype(float)
        state, history = constrained_cluster(points, 1, seed=3)
        assert state.assignment.tolist() == [0] * 11
        assert state.centroids.shape == (1, 5)
        assert state.centroids[0].tobytes() == points.mean(axis=0).tobytes()
        assert len(history) == 1
        assert history[0] == clustering_objective(points, state.centroids, state.assignment)


def counts_for(num_clients, num_classes, seed, low=0, high=30):
    rng = np.random.default_rng(seed)
    counts = rng.integers(low, high, size=(num_clients, num_classes))
    counts[:, 0] += 1  # every client owns at least one sample
    return counts


class TestInterClusterGrouping:
    def test_full_scale_shape(self):
        # K=364 with 52 groups: 7 clusters of 52, hence 52 groups of 7.
        clients = counts_for(364, 6, seed=0)
        result = inter_cluster_grouping(clients, 52, 1, seed=1)
        plan = result.plan
        assert plan.group_count == 52
        assert all(len(group) == 7 for group in plan.groups)
        assert plan.unassigned.tolist() == []
        assert result.cluster_state.cluster_count == 7
        assert np.bincount(result.cluster_state.assignment).tolist() == [52] * 7

    def test_single_group_degenerates(self):
        clients = counts_for(9, 4, seed=3)
        result = inter_cluster_grouping(clients, 1, 1, seed=4)
        assert result.plan.group_count == 1
        assert sorted(result.plan.groups[0]) == list(range(9))
        # One client per cluster: the loop converges after one alternation.
        assert len(result.objective_history) == 2

    def test_group_count_capped_at_clients(self):
        # M = K is the largest valid count (one client per group); the caller
        # caps the schedule, so M = K + 1 is an error here.
        clients = counts_for(6, 3, seed=5)
        result = inter_cluster_grouping(clients, 6, 1, seed=6)
        assert result.plan.group_count == 6
        assert all(len(group) == 1 for group in result.plan.groups)
        with pytest.raises(ValueError):
            inter_cluster_grouping(clients, 7, 1, seed=6)

    def test_centroid_error_example(self):
        # K=12, M=4, 3 classes: every group's squared centroid error stays
        # within the reported bound sum(cluster_spreads) / L, which holds for
        # every deal by Cauchy-Schwarz.
        clients = counts_for(12, 3, seed=7)
        result = inter_cluster_grouping(clients, 4, 1, seed=1)
        report = result.report
        assert result.cluster_state.cluster_count == 3
        assert np.all(report.squared_errors <= report.error_bound + 1e-9)

    def test_centroid_error_within_valid_bound(self):
        # ||sum of L deviations||^2 <= L * sum of squared deviations, hence
        # every group error is at most sum(cluster_spreads) / L, the reported
        # bound.
        rng = np.random.default_rng(29)
        for trial in range(8):
            num_clients = int(rng.integers(8, 40))
            groups = int(rng.integers(1, 7))
            clients = counts_for(num_clients, 5, seed=100 + trial)
            result = inter_cluster_grouping(clients, groups, 1, seed=trial)
            report = result.report
            assert np.all(report.squared_errors <= report.error_bound + 1e-9)

    def test_exact_partition_centroid_identity(self):
        # Groups consume every cluster member, so the mean of group centroids
        # must coincide with the global centroid.
        clients = counts_for(24, 5, seed=9)
        result = inter_cluster_grouping(clients, 6, 1, seed=10)
        assert result.plan.unassigned.tolist() == []
        mean_of_groups = result.report.group_centroids.mean(axis=0)
        assert np.allclose(mean_of_groups, result.report.global_centroid, atol=1e-10)

    def test_groups_disjoint_and_balanced(self):
        clients = counts_for(37, 4, seed=11)
        result = inter_cluster_grouping(clients, 5, 1, seed=12)
        plan = result.plan
        group_size = 37 // 5  # 7
        assert all(len(group) == group_size for group in plan.groups)
        members = [c for group in plan.groups for c in group]
        assert len(members) == len(set(members))
        assert set(members) | set(plan.unassigned) == set(range(37))

    def test_seeded_determinism(self):
        clients = counts_for(20, 4, seed=13)
        a = inter_cluster_grouping(clients, 4, 3, seed=14)
        b = inter_cluster_grouping(clients, 4, 3, seed=14)
        assert a.plan.to_json() == b.plan.to_json()
        c = inter_cluster_grouping(clients, 4, 4, seed=14)
        assert c.plan.to_json() != a.plan.to_json()  # round index feeds the sub-streams

    @pytest.mark.parametrize(
        "num_clients,group_count,round_index,seed",
        [(6, 6, 1, 2), (9, 5, 2, 7), (60, 32, 34, 11), (61, 40, 3, 0)],
    )
    def test_one_member_groups_follow_the_deal(
        self, num_clients, group_count, round_index, seed
    ):
        # L = 1: every client takes part, and the cluster deal's permutation
        # picks the M one-member groups in order.
        clients = counts_for(num_clients, 4, seed=num_clients)
        plan = inter_cluster_grouping(clients, group_count, round_index, seed).plan
        deal = generator(stream_id(seed, "icg", round_index), "cluster-deal", 0)
        expected = deal.permutation(num_clients)[:group_count, None]
        assert np.array_equal(plan.groups, expected)

    @pytest.mark.parametrize("group_count", [3, 6])
    def test_training_round_never_builds_the_report(self, monkeypatch, group_count):
        # M = 3 over K = 10 gives L = 3 and a participant draw; M = 6 gives L = 1.
        state = new_experiment_state(
            make_config(algorithm="naive_gsp_icg", fixed_group_count=group_count)
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("run_round built the group-centroid report")

        monkeypatch.setattr(grouping, "_centroid_report", forbidden)
        run_round(state, 1)
        monkeypatch.undo()

        seed = stream_id(state.config.run_seed, "grouping")
        result = inter_cluster_grouping(state.counts, group_count, 1, seed)
        assert np.array_equal(result.plan.groups, state.last_plan.groups)
        report = result.report
        assert report is result.report  # computed once, then kept
        assert report.error_bound == pytest.approx(
            report.cluster_spreads.sum() / result.cluster_state.cluster_count, rel=1e-12
        )
        assert np.all(report.squared_errors <= report.error_bound + 1e-9)

    def test_rejects_nonpositive_group_count(self):
        clients = counts_for(6, 3, seed=15)
        with pytest.raises(ValueError):
            inter_cluster_grouping(clients, 0, 1, seed=16)


class TestOtherStrategies:
    def test_random_grouping_shape(self):
        plan = random_grouping(17, 4, 1, seed=21)
        assert plan.group_count == 4
        assert all(len(group) == 4 for group in plan.groups)
        assert len(plan.unassigned) == 1

    def test_random_grouping_deterministic(self):
        first = random_grouping(17, 4, 2, seed=3)
        assert first.to_json() == random_grouping(17, 4, 2, seed=3).to_json()

    def test_random_grouping_rejects_out_of_range_count(self):
        for group_count in (0, 18):
            with pytest.raises(ValueError):
                random_grouping(17, group_count, 1, seed=21)

    def test_singleton_grouping(self):
        plan = singleton_grouping(5, 1)
        assert plan.groups.tolist() == [[0], [1], [2], [3], [4]]
        assert plan.unassigned.tolist() == []


class TestPlanSerialization:
    def test_json_round_trip(self):
        plan = GroupingPlan(round_index=3, groups=((4, 1), (0, 2)), num_clients=5)
        assert json.loads(plan.to_json()) == {
            "format_version": 1,
            "round": 3,
            "groups": [[4, 1], [0, 2]],
            "unassigned": [3],
        }

    def test_duplicate_member_rejected(self):
        with pytest.raises(ValueError):
            GroupingPlan(round_index=1, groups=((0, 1), (1, 2)), num_clients=3)

    @pytest.mark.parametrize(
        "groups", [((0, 0), (1, 2)), ((0, 1), (1, 2))], ids=["within-group", "across-groups"]
    )
    def test_repeated_id_message(self, groups):
        with pytest.raises(ValueError, match="^a client appears in more than one group$"):
            GroupingPlan(round_index=1, groups=groups, num_clients=4)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_unassigned_matches_setdiff1d(self, data):
        # Zero extra clients gives a plan with no one sitting out.
        group_count = data.draw(st.integers(1, 8), label="M")
        size = data.draw(st.integers(1, 6), label="L")
        num_clients = group_count * size + data.draw(st.integers(0, 5), label="extra")
        ids = data.draw(st.permutations(range(num_clients)), label="ids")
        groups = np.array(ids[: group_count * size]).reshape(group_count, size)
        expected = np.setdiff1d(np.arange(num_clients), groups)
        unassigned = GroupingPlan(1, groups, num_clients).unassigned
        assert unassigned.dtype == expected.dtype
        assert unassigned.tolist() == expected.tolist()


def plans_from_every_builder(num_clients, group_count, seed):
    """(plan, expected group count) from ICG, random and singleton grouping."""
    clients = counts_for(num_clients, 4, seed=seed)
    yield inter_cluster_grouping(clients, group_count, 2, seed).plan, group_count
    yield random_grouping(num_clients, group_count, 2, seed), group_count
    yield singleton_grouping(num_clients, 2), num_clients


class TestPlanInvariants:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_builders_give_rectangular_disjoint_plans(self, data):
        num_clients = data.draw(st.integers(1, 24), label="K")
        group_count = data.draw(st.integers(1, num_clients), label="M")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        for plan, count in plans_from_every_builder(num_clients, group_count, seed):
            assert plan.groups.shape == (count, num_clients // count)
            assert plan.groups.dtype == np.int64
            assert plan.group_count == count
            members = [int(c) for row in plan.groups for c in row]
            assert len(set(members)) == len(members)
            complement = sorted(set(range(num_clients)) - set(members))
            assert plan.unassigned.tolist() == complement
            assert json.loads(plan.to_json()) == {
                "format_version": 1,
                "round": 2,
                "groups": [[int(c) for c in row] for row in plan.groups],
                "unassigned": complement,
            }

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rejects_duplicated_and_out_of_range_ids(self, data):
        num_clients = data.draw(st.integers(2, 30), label="K")
        group_count = data.draw(st.integers(1, num_clients), label="M")
        size = data.draw(st.integers(1, num_clients // group_count), label="L")
        ids = data.draw(st.permutations(range(num_clients)), label="ids")
        groups = np.array(ids[: group_count * size]).reshape(group_count, size)
        assert GroupingPlan(1, groups, num_clients).groups.tolist() == groups.tolist()

        m = data.draw(st.integers(0, group_count - 1), label="m")
        l = data.draw(st.integers(0, size - 1), label="l")
        bad = groups.copy()
        others = [c for c in groups.ravel().tolist() if c != groups[m, l]]
        bad[m, l] = data.draw(
            st.one_of(
                st.integers(-5, -1),
                st.integers(num_clients, num_clients + 5),
                st.sampled_from(others or [-1]),
            ),
            label="bad id",
        )
        with pytest.raises(ValueError):
            GroupingPlan(1, bad, num_clients)

    @pytest.mark.parametrize(
        "groups",
        [((0, 1), (2,)), (0, 1, 2), (), ((),), np.zeros((1, 2, 1), dtype=np.int64)],
        ids=["ragged", "1-d", "empty", "empty-row", "3-d"],
    )
    def test_rejects_non_rectangular_groups(self, groups):
        with pytest.raises(ValueError):
            GroupingPlan(1, groups, 4)

    @pytest.mark.parametrize(
        "groups", [((1.7, 0.2),), np.array([[1.0, 0.0]]), ((True, False),)],
        ids=["fractional", "whole-floats", "bools"],
    )
    def test_rejects_non_integer_ids(self, groups):
        # An int64 cast once truncated [[1.7, 0.2]] to the plan [[1, 0]].
        with pytest.raises(ValueError, match="client ids must be integers"):
            GroupingPlan(1, groups, 3)

    def test_unsigned_ids_become_int64(self):
        groups = GroupingPlan(1, np.array([[2, 0]], dtype=np.uint8), 3).groups
        assert groups.dtype == np.int64 and groups.tolist() == [[2, 0]]

    def test_groups_are_read_only(self):
        plan = random_grouping(12, 3, 1, seed=2)
        with pytest.raises(ValueError):
            plan.groups[0, 0] = 5
        with pytest.raises(ValueError):
            plan.groups.flags.writeable = True
