"""Group assembly by balanced clustering of client class distributions.

The round's clients are split into ``L`` equal-size clusters of similar
distributions (alternating exact balanced assignment / centroid update, with
the assignment step solved by successive shortest paths over the L clusters;
each Bellman-Ford search moves units along all of its vertex-disjoint tree
paths: along a one-edge path a run of its tail's cheapest members, along
each edge of a longer path the lowest-id cheapest member of its tail, all
looked up before any of them moves), then
each group draws one client from every cluster, so all groups end up with
near-identical overall class mixes. ``L`` is both the cluster
count and the group size: with ``M`` groups requested over ``K`` clients,
``L = K // M`` and only ``L * (K // L)`` subsampled clients take part in the
round.

Work whose result the input's shape already fixes is skipped, with the same
output: one cluster (``L = 1``, every group a single client) needs no
assignment, its centroid is the plain mean and a one-member group has only
one order; when ``L`` divides ``K`` the sorted participant draw is every
client. The group-centroid report is computed only when it is read.

Random balanced grouping (the ablation baseline) and singleton grouping (one
client per group, i.e. plain parallel training) produce the same plan type so
the training loop never cares how groups were formed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import generator, stream_generators, stream_id, stream_ids

COST_SCALE = 10**6
MAX_ALTERNATIONS = 10
CENTROID_TOLERANCE = 1e-6
UNREACHED = 2**62  # distance sentinel of the assignment's shortest paths
# Most elements in one block's (rows, clusters, classes) difference tensor of
# the assignment's cost build: 256 KB, which stays in cache. A K = 120, L = 15
# round over 10 classes is one block.
ASSIGNMENT_BLOCK_ELEMENTS = 2**15

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
        groups = np.array(self.groups)  # ragged input raises ValueError
        if groups.ndim != 2 or groups.size == 0:
            raise ValueError(f"groups must be a non-empty (M, L) array, got {groups.shape}")
        if groups.dtype.kind not in "iu":  # int64 would truncate 1.7 to 1
            raise ValueError(f"client ids must be integers, got dtype {groups.dtype}")
        groups = groups.astype(np.int64, copy=False)
        if groups.min() < 0 or groups.max() >= self.num_clients:
            raise ValueError(f"client ids must be in [0, {self.num_clients})")
        if np.bincount(groups.ravel(), minlength=self.num_clients).max() > 1:
            raise ValueError("a client appears in more than one group")
        groups.flags.writeable = False
        object.__setattr__(self, "groups", groups.view())  # a view cannot be made writeable

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def unassigned(self) -> np.ndarray:
        sitting_out = np.ones(self.num_clients, dtype=bool)
        sitting_out[self.groups] = False
        return np.flatnonzero(sitting_out)

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


@dataclass(frozen=True, eq=False)
class IcgResult:
    """One ICG round: the plan, the clustering behind it, and its deal.

    ``points`` are the participants' class-count rows and ``rows[m, l]`` the
    participant row that cluster ``l`` dealt to group ``m``. ``report`` is
    computed from them on first access and then kept; the training loop never
    reads it.
    """

    plan: GroupingPlan
    cluster_state: ClusterState
    objective_history: tuple[float, ...]
    points: np.ndarray
    rows: np.ndarray

    @cached_property
    def report(self) -> GroupCentroidReport:
        return _centroid_report(self.points, self.rows, self.cluster_state)


def clustering_objective(
    points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray
) -> float:
    """Sum of half squared distances from each point to its assigned centroid."""
    diff = points - centroids.take(assignment, axis=0)
    diff *= diff
    return 0.5 * float(np.add.reduce(diff, axis=None))


def _scaled_costs(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(K, L) integer costs ``round(0.5 * ||point - centroid||^2 * 1e6)``.

    Built over blocks of consecutive points, each block's difference tensor
    at most ``ASSIGNMENT_BLOCK_ELEMENTS`` elements, so memory grows with K*L,
    not K*L*C. Every cost sums its C squared differences along a contiguous
    last axis, so the bits match a one-shot build. The differences are taken
    in float64, so integer counts cost what their float copies do.
    """
    num_points, num_clusters = len(points), len(centroids)
    span = max(1, ASSIGNMENT_BLOCK_ELEMENTS // max(1, num_clusters * points.shape[1]))
    points = np.asarray(points, dtype=np.float64)
    blocks = []
    for start in range(0, num_points, span):
        # Each point's row repeated per centroid: the subtraction then runs
        # over whole (L, C) planes.
        diff = points[start : start + span, None, :].repeat(num_clusters, axis=1)
        diff -= centroids
        diff *= diff
        blocks.append(np.add.reduce(diff, axis=-1))
    cost = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    cost *= 0.5
    # Path costs then stay below UNREACHED // 4 in magnitude, so adding the
    # sentinel cannot overflow and no real distance reaches it.
    if float(np.maximum.reduce(cost, axis=None)) * COST_SCALE * num_clusters >= UNREACHED // 4:
        raise OverflowError("assignment costs exceed the signed 64-bit range")
    cost *= COST_SCALE
    return np.rint(cost, out=cost).astype(np.int64)


def _cheapest_moves(
    scaled: np.ndarray, assignment: np.ndarray, clusters: np.ndarray, swap: np.ndarray
) -> None:
    """Refresh rows ``clusters`` (sorted) of the move table ``swap`` in place.

    For a member-holding cluster ``a``, ``swap[a, b]`` is the least
    ``scaled[j, b] - scaled[j, a]`` over the members ``j`` of ``a``. The row
    of an empty cluster is left as it is; the caller fills the table with
    ``UNREACHED`` first, and a cluster that holds members never empties again.
    """
    num_clusters = len(swap)
    chosen = np.zeros(num_clusters, dtype=bool)
    chosen[clusters] = True
    members = chosen[assignment].nonzero()[0]
    owner = assignment[members]
    sizes = np.bincount(owner, minlength=num_clusters)[clusters]
    order = owner.argsort(kind="stable")  # grouped by cluster
    members = members[order]
    occupied = sizes > 0
    starts = (sizes.cumsum() - sizes)[occupied]

    delta = scaled.take(members, axis=0)
    delta -= scaled[members, owner[order]][:, None]
    swap[clusters[occupied]] = np.minimum.reduceat(delta, starts, axis=0)


def _shortest_paths(swap: np.ndarray, excess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest distances and tree predecessors from the over-full clusters.

    Bellman-Ford over the L clusters with ``swap`` as edge costs, from
    distance 0 at every over-full cluster (a root, ``pred`` -1). Each pass
    relaxes only the clusters whose distance fell in the previous one, and a
    cluster's predecessor is the lowest-index tail among its cheapest
    relaxations of that pass. The zero-cost edge ``a -> a`` never lowers a
    distance, so it needs no masking. Raises ``RuntimeError`` on a negative
    cycle or when no under-full cluster is reached.
    """
    num_clusters = len(excess)
    frontier = (excess > 0).nonzero()[0]
    dist = np.empty(num_clusters, dtype=np.int64)
    dist.fill(UNREACHED)
    dist[frontier] = 0
    pred = np.empty(num_clusters, dtype=np.int64)
    pred.fill(-1)
    columns = np.arange(num_clusters)
    via = swap.take(frontier, axis=0)  # the roots' rows: their distance is 0
    for _ in range(num_clusters):
        tail = via.argmin(axis=0)
        best = via[tail, columns]
        better = best < dist
        fell = better.nonzero()[0]
        if not len(fell):
            break
        np.copyto(dist, best, where=better)
        np.copyto(pred, frontier[tail], where=better)
        frontier = fell
        via = swap.take(frontier, axis=0)
        via += dist[frontier][:, None]
    else:
        raise RuntimeError("negative cycle in the balanced-assignment cluster graph")
    if np.minimum.reduce(dist[excess < 0]) == UNREACHED:
        raise RuntimeError("no under-full cluster is reachable")
    return dist, pred


def _disjoint_paths(dist: np.ndarray, pred: np.ndarray, excess: np.ndarray) -> list[list[int]]:
    """Vertex-disjoint tree paths from over-full roots to under-full clusters.

    Under-full targets come in ascending (``dist``, index) order. Each is
    traced back by ``pred`` to its root and skipped if the trace meets a
    cluster of an earlier trace: a taken path, or a trace that itself met
    one. Every path starts at a root, so the scan stops once each root has
    its path.
    """
    excess, pred, dist = excess.tolist(), pred.tolist(), dist.tolist()
    roots, targets = 0, []
    for node, units in enumerate(excess):
        if units < 0:
            targets.append(node)
        elif units > 0 and pred[node] < 0:
            roots += 1
    targets.sort(key=dist.__getitem__)  # stable: index order within a distance
    seen: set[int] = set()
    paths = []
    for node in targets:
        trace = []
        while node >= 0 and node not in seen:
            trace.append(node)
            node = pred[node]
        seen.update(trace)
        if node < 0 and len(trace) > 1:  # a lone trace is an unreached target
            trace.reverse()
            paths.append(trace)
            roots -= 1
            if not roots:
                break
    return paths


def _run_limit(
    dist: np.ndarray, swap: np.ndarray, excess: np.ndarray, source: int, target: int
) -> int:
    """The largest extra cost a one-root search's edge ``[source, target]`` may move.

    ``min(detour, rival)``: ``detour`` is the cheapest way into ``target``
    other than the direct edge, ``dist[c] + swap[c, target]`` over the
    clusters ``c`` outside the edge, and ``rival`` the nearest other
    under-full cluster ``t``, ``dist[t] - (t < target)`` so that an equal
    distance counts against ``target`` only at a lower index. Neither is
    below ``swap[source, target]``: the direct edge is a shortest path and
    ``target`` came first. With one root every cluster is reached, so no sum
    leaves the int64 range.
    """
    bound = dist + swap[:, target]
    rivals = (excess < 0).nonzero()[0]
    rival = dist[rivals]
    rival -= rivals < target
    bound[rivals] = np.minimum(bound[rivals], rival, out=rival)
    bound[source] = bound[target] = UNREACHED
    return int(np.minimum.reduce(bound))


def cluster_assignment(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Optimal equal-size assignment of points to the given centroids.

    Exact on the integer costs ``round(0.5 * ||point - centroid||^2 * 1e6)``
    (half-to-even) with ``len(points) / len(centroids)`` members per cluster.
    Successive shortest paths on the L-node cluster graph: every point starts
    at its cheapest cluster, then while a cluster is over its quota, one
    Bellman-Ford search from all over-full clusters gives each cluster a
    distance ``d`` and a tree predecessor, and units move along
    vertex-disjoint tree paths to under-full clusters. The edge ``a -> b``
    costs ``swap[a, b]``, the least extra cost of moving one member of ``a``
    to ``b``. Starting from the unconstrained optimum leaves no negative
    cycle, and the moves keep it so, which makes the final assignment
    optimal.

    Ties break by a fixed rule, so repeated calls return identical arrays. A
    point starts at its cheapest cluster of lowest index, and the paths of
    one search are chosen so:

    - under-full targets are taken in ascending (``d``, index) order;
    - each target's tree path is traced by its predecessors, each the
      lowest-index tail among a cluster's cheapest relaxations, and the
      target is skipped if its path meets a cluster used earlier in this
      search;
    - the scan stops once every over-full root has its path;
    - a one-edge path ``[a, b]`` takes the members ``j`` of ``a`` in
      ascending (``delta_j = C[j, b] - C[j, a]``, id) order and moves the
      longest prefix of at most ``min(excess[a], -excess[b])`` members whose
      every ``delta_j <= limit``. ``limit = swap[a, b]``, so only the members
      tied at the cheapest move go, unless the search has one over-full
      root; then ``limit = min(detour, rival)``;
    - ``detour`` is the cheapest way into ``b`` other than the direct edge,
      the least ``d[c] + swap[c, b]`` over the clusters ``c`` outside
      ``{a, b}``, and ``rival`` the nearest other target, the least
      ``d[t] - (t < b)`` over the other under-full clusters ``t`` (an equal
      distance stops the run only at a lower index);
    - every other path moves, along each edge, the lowest-id member of the
      tail that attains ``swap``; these are all looked up before any of
      them moves.

    With one over-full cluster every tree path starts there, so a search
    moves only the path to the nearest under-full cluster of lowest index.
    When that path is one edge, it moves exactly what successive such
    searches would move along it:

    - row ``a`` only loses members, and no row but ``a`` and ``b`` changes;
    - a moved member ``j`` adds edges ``b -> c`` of cost ``(C[j, c] - C[j,
      a]) - delta_j``. Members go in ascending ``delta`` and none beyond
      ``detour``, so a path into ``c`` through ``j`` costs at least
      ``C[j, c] - C[j, a] >= swap[a, c] >= d[c]``: no distance falls below
      this search's ``d``;
    - so the direct edge stays a shortest path into ``b`` while ``delta <=
      detour``, and stays ``b``'s predecessor, since Bellman-Ford relaxes
      ``a``'s edges in its first pass and replaces a predecessor only on a
      strict improvement; and ``b`` stays first in (``d``, index) order
      while ``delta <= rival``;
    - each member moved is then the next search's cheapest lowest-id mover,
      and a run ends at a cap or between two distinct ``delta``, where that
      search's tied move ends too.

    Neither ``detour`` nor ``rival`` is below ``swap[a, b] = d[b]``, so a
    run moves at least the tied members.

    A member entering along a tree edge is never the cheapest mover along
    the next one: a path through it costs no less than the direct edge from
    its old cluster, relaxed a pass earlier. So on a longer path, looking
    movers up edge by edge as they move would pick the same members.

    Why no negative cycle appears: with ``C`` the integer costs and the
    potentials ``d``, every tree edge ``a -> b`` has zero reduced cost
    ``swap[a, b] + d[a] - d[b]``, and every edge a non-negative one. The
    paths share no cluster, so a row loses at most its own movers and gains
    at most its predecessor's:

    - a row that only loses members gets no cheaper edge;
    - a mover ``j`` from ``a`` to ``b``, each tied member of a run
      included, has ``C[j, b] - C[j, a] = swap[a, b] = d[b] - d[a]``, so
      its new edges ``b -> c`` have reduced cost ``C[j, c] - C[j, b] + d[b]
      - d[c] = C[j, c] - C[j, a] + d[a] - d[c] >= swap[a, c] + d[a] - d[c]
      >= 0``;
    - a one-root run is a sequence of such searches.

    All reduced costs stay non-negative, so every cycle costs at least 0.

    Raises:
        ValueError: If the points cannot fill the clusters equally.
        OverflowError: If path costs could leave the signed 64-bit range.
        RuntimeError: If Bellman-Ford finds a negative cycle or no reachable
            under-full cluster; neither can happen on a well-formed input.
    """
    num_points, num_clusters = len(points), len(centroids)
    if num_points % num_clusters != 0:
        raise ValueError(
            f"{num_points} points cannot fill {num_clusters} equal clusters"
        )
    quota = num_points // num_clusters

    scaled = _scaled_costs(points, centroids)
    assignment = scaled.argmin(axis=1)
    excess = np.bincount(assignment, minlength=num_clusters) - quota
    swap = np.empty((num_clusters, num_clusters), dtype=np.int64)
    swap.fill(UNREACHED)
    head_of = np.empty(num_clusters, dtype=np.int64)
    touched = np.arange(num_clusters)
    roots = int(np.count_nonzero(excess > 0))  # over-full clusters; none ever refills
    while roots:
        _cheapest_moves(scaled, assignment, touched, swap)
        dist, pred = _shortest_paths(swap, excess)
        paths = _disjoint_paths(dist, pred, excess)
        # One lookup of every edge's tail members and their extra costs: the
        # paths share no cluster, so each tail has one head, and no move
        # below changes another edge's members.
        heads = np.array([node for path in paths for node in path[1:]])
        head_of.fill(-1)
        head_of[pred[heads]] = heads  # a path edge's tail is its head's predecessor
        members = (head_of[assignment] >= 0).nonzero()[0]  # ids ascending
        owner = assignment[members]
        head = head_of[owner]
        extra = scaled[members, head]
        extra -= scaled[members, owner]
        before = excess.tolist()  # this search's excess, as Python ints
        tails = []  # the edges of longer paths, one unit each
        for path in paths:
            source, target = path[0], path[-1]
            if len(path) > 2:
                tails += path[:-1]
                units = 1
            else:
                units = min(before[source], -before[target])
                limit = swap[source, target]
                if units > 1 and len(paths) == 1 and roots == 1:
                    # one root: run on as far as the next searches would
                    limit = _run_limit(dist, swap, excess, source, target)
                run = ((owner == source) & (extra <= limit)).nonzero()[0]
                if limit > swap[source, target]:  # else every extra in the run is swap
                    run = run[extra[run].argsort(kind="stable")]
                run = members[run[:units]]
                assignment[run] = target
                units = len(run)
            excess[source] -= units
            excess[target] += units
            if units == before[source]:
                roots -= 1
        if tails:
            hits = (extra == swap[owner, head]).nonzero()[0]
            lowest = np.empty(num_clusters, dtype=np.int64)
            lowest.fill(num_points)
            np.minimum.at(lowest, owner[hits], members[hits])  # lowest hit id of each tail
            assignment[lowest[tails]] = head_of[tails]  # all found before any moves
        touched = np.array(sorted(node for path in paths for node in path))
    return assignment


def _members(assignment: np.ndarray, num_clusters: int) -> np.ndarray:
    """(L, q) member table: row ``l`` is cluster ``l``'s point ids, ascending.

    Raises ``RuntimeError`` on unequal cluster sizes, which the balance rules out.
    """
    sizes = np.bincount(assignment, minlength=num_clusters)
    if len(sizes) != num_clusters or (sizes != sizes[0]).any():
        raise RuntimeError(f"unbalanced clusters despite the balance constraint: {sizes}")
    return np.argsort(assignment, kind="stable").reshape(num_clusters, -1)


def cluster_update(points: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Move each centroid to the mean of its members."""
    members = _members(assignment, int(assignment.max()) + 1)
    return np.add.reduce(points.take(members, axis=0), axis=1) / members.shape[1]


def constrained_cluster(
    points: np.ndarray,
    cluster_count: int,
    seed: int,
    max_iterations: int = MAX_ALTERNATIONS,
) -> tuple[ClusterState, tuple[float, ...]]:
    """Alternate exact balanced assignment and centroid update until stable.

    Centroids start at ``cluster_count`` distinct points chosen by seeded
    sampling. The returned history interleaves the objective after each
    assignment and each update step; it is non-increasing up to the 1e-6 cost
    quantization of the assignment step.

    One cluster is already solved: every point belongs to it and its centroid
    is the mean of all points, so no seed is drawn, no assignment runs, and
    the history is the one objective at that centroid.
    """
    if cluster_count == 1:
        centroids = np.add.reduce(points, axis=0, keepdims=True) / len(points)
        assignment = np.zeros(len(points), dtype=np.int64)
        state = ClusterState(centroids=centroids, assignment=assignment)
        return state, (clustering_objective(points, centroids, assignment),)
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
        shift = updated - centroids
        shift *= shift
        displacement = float(np.sqrt(np.add.reduce(shift, axis=1)).max())
        centroids = updated
        if displacement < CENTROID_TOLERANCE:
            break
    return ClusterState(centroids=centroids, assignment=assignment), tuple(history)


def _centroid_report(
    pts: np.ndarray, rows: np.ndarray, state: ClusterState
) -> GroupCentroidReport:
    diff = pts[_members(state.assignment, state.cluster_count)] - state.centroids[:, None]
    spreads = np.sum(diff * diff, axis=2).max(axis=1)
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
        An :class:`IcgResult` carrying the plan, the final cluster state, the
        objective history of the alternating optimization, and the deal its
        group-centroid report is computed from when read.

    Draws whose result is fixed are skipped: the participant draw when ``L``
    divides ``K`` (all clients take part, in order), and the in-group order
    when ``L = 1``. The cluster deal always runs; at ``L = 1`` it picks which
    ``M`` clients train.
    """
    counts = np.asarray(clients, dtype=float)
    num_clients = len(counts)
    _check_group_count(group_count, num_clients)
    group_size = num_clients // group_count  # L: cluster count == group size
    quota = num_clients // group_size  # members per cluster
    sampled_count = group_size * quota

    icg_seed = stream_id(seed, "icg", round_index)
    if sampled_count == num_clients:
        participants = np.arange(num_clients)
    else:
        participants = np.sort(
            generator(icg_seed, "participant-sample").choice(
                num_clients, size=sampled_count, replace=False
            )
        )

    pts = counts[participants]
    state, history = constrained_cluster(pts, group_size, icg_seed)

    # The L deal streams, then (L >= 2) the M in-group order streams: one
    # stream is seeded alone, more in one bulk pass.
    if group_size == 1:
        streams = iter([generator(icg_seed, "cluster-deal", 0)])
    else:
        deal_ids = stream_ids(icg_seed, "cluster-deal", range(group_size))
        order_ids = stream_ids(icg_seed, "group-order", range(group_count))
        streams = stream_generators(np.concatenate([deal_ids, order_ids]))
    # rows[m, l]: the participant row that cluster l deals to group m.
    rows = np.empty((group_count, group_size), dtype=np.int64)
    for l, members in enumerate(_members(state.assignment, group_size)):
        order = next(streams).permutation(len(members))
        rows[:, l] = members[order[:group_count]]
    if group_size > 1:
        for row in rows:
            next(streams).shuffle(row)

    plan = GroupingPlan(round_index, participants[rows], num_clients)
    return IcgResult(
        plan=plan, cluster_state=state, objective_history=history, points=pts, rows=rows
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

