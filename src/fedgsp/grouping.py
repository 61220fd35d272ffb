"""Group assembly by balanced clustering of client class distributions.

The round's clients are split into ``L`` equal-size clusters of similar
distributions (alternating exact balanced assignment / centroid update, with
the assignment step solved as a min-cost flow), then each group draws one
client from every cluster, so all groups end up with near-identical overall
class mixes. ``L`` is both the cluster count and the group size: with ``M``
groups requested over ``K`` clients, ``L = K // M`` and only
``L * (K // L)`` subsampled clients take part in the round.

Random balanced grouping (the ablation baseline) and singleton grouping (one
client per group, i.e. plain parallel training) produce the same plan type so
the training loop never cares how groups were formed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import mcf
from .rng import generator, stream_id

COST_SCALE = 10**6
MAX_ALTERNATIONS = 10
CENTROID_TOLERANCE = 1e-6

PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ClusterState:
    """Converged (or iteration-capped) balanced clustering of the round's clients."""

    centroids: np.ndarray
    assignment: np.ndarray

    @property
    def cluster_count(self) -> int:
        return len(self.centroids)


@dataclass(frozen=True, eq=False)
class GroupingPlan:
    """Round-specific assignment of clients to ordered groups.

    ``groups`` is a read-only (M, L) int64 array: row ``m`` lists the client
    ids of group ``m`` in training order, so every group has L members.
    ``unassigned`` are the clients of ``range(num_clients)`` sitting out the
    round (dropped by the divisibility subsample or left over in their
    cluster), in ascending order.
    """

    round_index: int
    groups: np.ndarray
    num_clients: int

    def __post_init__(self) -> None:
        groups = np.array(self.groups, dtype=np.int64)  # ragged input raises ValueError
        if groups.ndim != 2 or groups.size == 0:
            raise ValueError(f"groups must be a non-empty (M, L) array, got {groups.shape}")
        if groups.min() < 0 or groups.max() >= self.num_clients:
            raise ValueError(f"client ids must be in [0, {self.num_clients})")
        if len(np.unique(groups)) != groups.size:
            raise ValueError("a client appears in more than one group")
        groups.flags.writeable = False
        object.__setattr__(self, "groups", groups.view())  # a view cannot be made writeable

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def unassigned(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.num_clients), self.groups)

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": PLAN_FORMAT_VERSION,
                "round": self.round_index,
                "groups": self.groups.tolist(),
                "unassigned": self.unassigned.tolist(),
            }
        )


@dataclass(frozen=True)
class GroupCentroidReport:
    """How far each group's centroid strays from the global one.

    A cluster's spread is its largest member-to-centroid squared distance.
    ``error_bound`` is ``sum(cluster_spreads) / L`` and every
    ``squared_errors[m]`` stays at or below it, for every group of every deal.

    Group ``m`` takes one member ``x_l`` from each of the L equal-size
    clusters, and ``global_centroid`` is the mean of the exact member means
    ``c_l``, so with ``d_l = x_l - c_l``::

        ||C_m - C_global||^2 = (1/L^2) * ||sum_l d_l||^2
                             <= (1/L) * sum_l ||d_l||^2      (Cauchy-Schwarz)
                             <= sum(cluster_spreads) / L

    The ``1/L^2`` form, ``sum(cluster_spreads) / L**2``, drops the cross terms
    of ``||sum_l d_l||^2``. It holds only in expectation over the random deal
    (each ``d_l`` is mean-zero within its cluster), not for each group.
    """

    group_centroids: np.ndarray
    global_centroid: np.ndarray
    squared_errors: np.ndarray
    cluster_spreads: np.ndarray
    error_bound: float


@dataclass(frozen=True)
class IcgResult:
    plan: GroupingPlan
    report: GroupCentroidReport
    cluster_state: ClusterState
    objective_history: tuple[float, ...]


def clustering_objective(
    points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray
) -> float:
    """Sum of half squared distances from each point to its assigned centroid."""
    diff = points - centroids[assignment]
    return 0.5 * float(np.sum(diff * diff))


def cluster_assignment(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Optimal equal-size assignment of points to the given centroids.

    Solved exactly as a min-cost flow on the bipartite graph point -> cluster
    with arc cost ``round(0.5 * ||point - centroid||^2 * 1e6)`` (half-to-even),
    unit supplies and per-cluster demand ``len(points) / len(centroids)``.
    """
    num_points, num_clusters = len(points), len(centroids)
    if num_points % num_clusters != 0:
        raise ValueError(
            f"{num_points} points cannot fill {num_clusters} equal clusters"
        )
    quota = num_points // num_clusters

    diff = points[:, None, :] - centroids[None, :, :]
    cost = 0.5 * np.sum(diff * diff, axis=-1)
    scaled = np.rint(cost * COST_SCALE).astype(np.int64)

    arcs = [
        (k, num_points + l, 1, int(scaled[k, l]))
        for k in range(num_points)
        for l in range(num_clusters)
    ]
    supplies = [1] * num_points + [-quota] * num_clusters
    solution = mcf.solve(
        mcf.FlowNetwork(
            node_count=num_points + num_clusters,
            arcs=tuple(arcs),
            supplies=tuple(supplies),
        )
    )
    if solution.status != mcf.STATUS_OPTIMAL:
        raise RuntimeError("balanced assignment network must be feasible")
    return solution.flows.reshape(num_points, num_clusters).argmax(axis=1)


def cluster_update(points: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Move each centroid to the mean of its members."""
    num_clusters = int(assignment.max()) + 1
    centroids = np.empty((num_clusters, points.shape[1]))
    for l in range(num_clusters):
        members = points[assignment == l]
        if len(members) == 0:
            raise RuntimeError(f"cluster {l} is empty despite the balance constraint")
        centroids[l] = members.mean(axis=0)
    return centroids


def constrained_cluster(
    points: np.ndarray,
    cluster_count: int,
    seed: int,
    max_iterations: int = MAX_ALTERNATIONS,
    tolerance: float = CENTROID_TOLERANCE,
) -> tuple[ClusterState, tuple[float, ...]]:
    """Alternate exact balanced assignment and centroid update until stable.

    Centroids start at ``cluster_count`` distinct points chosen by seeded
    sampling. The returned history interleaves the objective after each
    assignment and each update step; it is non-increasing up to the cost
    quantization of the flow solver.
    """
    init = generator(seed, "centroid-init").choice(
        len(points), size=cluster_count, replace=False
    )
    centroids = points[np.sort(init)].copy()
    history: list[float] = []
    assignment = None
    for _ in range(max_iterations):
        assignment = cluster_assignment(points, centroids)
        history.append(clustering_objective(points, centroids, assignment))
        updated = cluster_update(points, assignment)
        history.append(clustering_objective(points, updated, assignment))
        displacement = float(
            np.sqrt(np.sum((updated - centroids) ** 2, axis=1)).max()
        )
        centroids = updated
        if displacement < tolerance:
            break
    return ClusterState(centroids=centroids, assignment=assignment), tuple(history)


def _centroid_report(
    pts: np.ndarray, rows: np.ndarray, state: ClusterState
) -> GroupCentroidReport:
    spreads = np.empty(state.cluster_count)
    for l in range(state.cluster_count):
        diff = pts[state.assignment == l] - state.centroids[l]
        spreads[l] = float(np.sum(diff * diff, axis=1).max())
    global_centroid = state.centroids.mean(axis=0)
    group_centroids = pts[rows].mean(axis=1)
    errors = np.sum((group_centroids - global_centroid) ** 2, axis=1)
    bound = float(spreads.sum()) / state.cluster_count
    return GroupCentroidReport(
        group_centroids=group_centroids,
        global_centroid=global_centroid,
        squared_errors=errors,
        cluster_spreads=spreads,
        error_bound=bound,
    )


def _check_group_count(group_count: int, num_clients: int) -> None:
    if not 1 <= group_count <= num_clients:
        raise ValueError(
            f"group count must be in [1, {num_clients}], got {group_count}"
        )


def inter_cluster_grouping(
    clients,
    group_count: int,
    round_index: int,
    seed: int,
) -> IcgResult:
    """Build the round's groups by clustering distributions, then drawing across clusters.

    Args:
        clients: (K, C) array-like of per-client class counts; the client
            id is the row index.
        group_count: Number of groups M, in [1, K].
        round_index: Current round (>= 1); folded into every sub-stream.
        seed: Grouping seed for the run.

    Returns:
        An :class:`IcgResult` carrying the plan, the group-centroid report,
        the final cluster state, and the objective history of the alternating
        optimization.
    """
    counts = np.asarray(clients, dtype=float)
    num_clients = len(counts)
    _check_group_count(group_count, num_clients)
    group_size = num_clients // group_count  # L: cluster count == group size
    quota = num_clients // group_size  # members per cluster
    sampled_count = group_size * quota

    icg_seed = stream_id(seed, "icg", round_index)
    participants = generator(icg_seed, "participant-sample").choice(
        num_clients, size=sampled_count, replace=False
    )
    participants = np.sort(participants)

    pts = counts[participants]
    state, history = constrained_cluster(pts, group_size, icg_seed)

    # rows[m, l]: the participant row that cluster l deals to group m.
    rows = np.empty((group_count, group_size), dtype=np.int64)
    for l in range(group_size):
        members = np.flatnonzero(state.assignment == l)
        order = generator(icg_seed, "cluster-deal", l).permutation(len(members))
        rows[:, l] = members[order[:group_count]]
    for m in range(group_count):
        generator(icg_seed, "group-order", m).shuffle(rows[m])

    plan = GroupingPlan(round_index, participants[rows], num_clients)
    report = _centroid_report(pts, rows, state)
    return IcgResult(
        plan=plan, report=report, cluster_state=state, objective_history=history
    )


def random_grouping(
    num_clients: int,
    group_count: int,
    round_index: int,
    seed: int,
) -> GroupingPlan:
    """Seeded random balanced grouping with the same shape rules as ICG."""
    _check_group_count(group_count, num_clients)
    group_size = num_clients // group_count
    drawn = generator(stream_id(seed, "random-grouping", round_index), "draw").choice(
        num_clients, size=group_count * group_size, replace=False
    )
    return GroupingPlan(round_index, drawn.reshape(group_count, group_size), num_clients)


def singleton_grouping(num_clients: int, round_index: int) -> GroupingPlan:
    """One client per group: plain parallel training."""
    return GroupingPlan(round_index, np.arange(num_clients)[:, None], num_clients)


def group_distributions(plan: GroupingPlan, counts: np.ndarray) -> np.ndarray:
    """Per-group overall class counts: the sums of the members' rows of ``counts``."""
    return counts[plan.groups].sum(axis=1)

