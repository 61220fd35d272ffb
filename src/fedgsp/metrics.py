"""Divergence and cost metrics.

CPD (class probability distance) is the squared maximum mean discrepancy
between two normalized class distributions under a unit-bandwidth Gaussian
RBF kernel with classes embedded one-hot. Because the embedding is one-hot,
the full kernel double sum collapses to

    (1 - exp(-1)) * ||P - Q||_2**2

which is what this module evaluates; the tests check it against the explicit
double sum. The median over pairs is an exact selection (an in-place
partition of the fresh distance array) with ``np.median``'s bits, so a round
never pays numpy's lazy ``numpy.ma`` import that ``np.median`` triggers.

The cost models are analytic: per-round computation time from per-sample and
aggregation FLOP counts against a device throughput, plus communication time
and traffic that scale with the sampled model transfers per round. They are
estimates by construction, not measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigurationError

# 1 - exp(-||e_c - e_d||^2 / (2 sigma^2)) for distinct one-hot classes, sigma = 1.
_KERNEL_SCALE = 1.0 - math.exp(-1.0)

# Most elements in one block's (rows, later rows, classes) difference tensor:
# 512 KB, which stays in cache. On a 2-vCPU x86 host, blocks of 2**20 ran
# G = 2000 about 15% slower than a row-at-a-time loop.
CPD_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class CostModelParams:
    """Constants of the analytic cost models.

    Hardware defaults: 96 MFLOPs per trained sample, 6.3 MFLOPs per model
    aggregation, a 567 GFLOPS device, a 25.2 MB model, and symmetric
    567 Mbps links. ``samples_per_client``, ``local_epochs``, ``num_clients``
    and ``sampling_rate`` describe the experiment being costed.
    """

    samples_per_client: int
    num_clients: int
    local_epochs: int = 1
    sampling_rate: float = 0.3
    calc_flops_per_sample: float = 96e6
    aggregation_flops: float = 6.3e6
    device_flops_per_second: float = 567e9
    model_size_megabytes: float = 25.2
    inbound_megabits_per_second: float = 567.0
    outbound_megabits_per_second: float = 567.0

    def __post_init__(self) -> None:
        for constant in fields(self):
            value = getattr(self, constant.name)
            if not value > 0:
                raise ConfigurationError(f"{constant.name} must be strictly positive, got {value}")
        costs = cost_bounds(self, 1)
        if not all(map(math.isfinite, costs)):
            raise ConfigurationError(
                "cost constants give a non-finite one-round cost "
                f"(t_comp bound, t_comm, d_comm): {costs}"
            )


def _pair_squared_distances(distributions) -> np.ndarray:
    """Squared L2 distances between normalized rows, every pair i < j in row-major order.

    Works on blocks of consecutive rows ``[start, stop)``, each against every
    later row, with at most ``CPD_BLOCK_ELEMENTS`` elements in the block's
    difference tensor; so memory grows with the G*(G-1)/2 results, not with a
    (G, G, C) tensor. Each pair still sums its C squared differences along a
    contiguous last axis, so the bits match a row-at-a-time loop. Raises
    ``ValueError`` for a negative or non-finite count or a zero row total, so
    every distance is finite.
    """
    if len(distributions) < 2:
        return np.empty(0)
    counts = np.asarray(distributions, dtype=float)
    if not (np.isfinite(counts) & (counts >= 0.0)).all():
        raise ValueError("class counts must be finite and non-negative")
    totals = counts.sum(axis=1, keepdims=True)
    if (totals <= 0.0).any():
        raise ValueError("class distribution has zero total")
    rows = counts / totals
    num_rows, num_classes = rows.shape
    pieces = []
    start = 0
    while start < num_rows - 1:
        width = num_rows - start - 1  # rows after ``start``
        span = max(1, CPD_BLOCK_ELEMENTS // (width * num_classes))
        stop = min(num_rows - 1, start + span)
        squared = ((rows[None, start + 1 :] - rows[start:stop, None]) ** 2).sum(axis=-1)
        # Block row i pairs with column c, i.e. row start + 1 + c; keep c >= i.
        pieces.append(squared[~np.tri(stop - start, width, -1, dtype=bool)])
        start = stop
    return np.concatenate(pieces)


def cpd(first, second) -> float:
    """Squared-MMD distance between two class distributions.

    Args:
        first, second: Finite, non-negative class-count vectors with
            positive totals (lengths must match).

    Returns:
        A non-negative float; 0 iff the normalized distributions coincide.
    """
    return float(pairwise_cpd([first, second])[0])


def pairwise_cpd(distributions) -> np.ndarray:
    """CPD of every pair of rows i < j of a (G, C) count array, in row-major order.

    Empty for fewer than 2 rows.
    """
    return _KERNEL_SCALE * _pair_squared_distances(distributions)


def median_pairwise_cpd(distributions) -> float:
    """Median CPD over all unordered pairs of rows of a (G, C) count array."""
    if len(distributions) < 2:
        raise ValueError("need at least 2 distributions")
    # Median of the raw distances first: scaling each pair before averaging
    # the middle two (even pair counts) can change the last bit. The distances
    # are a fresh array of finite values (the counts are checked), so it is
    # partitioned in place around the middle rank(s): the middle element of
    # an odd count, (low + high) / 2.0 of an even count's middle two. These
    # are np.median's bits.
    squared = _pair_squared_distances(distributions)
    half, odd = divmod(len(squared), 2)
    middle = [half] if odd else [half - 1, half]
    squared.partition(middle)
    median = squared[half] if odd else (squared[half - 1] + squared[half]) / 2.0
    return _KERNEL_SCALE * float(median)


def t_comp(group_counts: Sequence[int], params: CostModelParams) -> float:
    """Cumulative computational time (seconds) over rounds 1..R.

    ``group_counts[r-1]`` is the group count of round r. Each round costs a
    local-training term (chains of length K/min{K, M} run in parallel) plus a
    global-aggregation term proportional to the number of sampled models.
    """
    p = params
    total = 0.0
    for count in group_counts:
        parallel = min(p.num_clients, count)
        training = (p.calc_flops_per_sample / p.device_flops_per_second) * (
            p.samples_per_client * p.local_epochs * p.num_clients / parallel
        )
        aggregation = (p.aggregation_flops / p.device_flops_per_second) * (
            p.sampling_rate * count - 1.0
        )
        total += training + aggregation
    return total


def t_comm(rounds: int, params: CostModelParams) -> float:
    """Cumulative communication time (seconds) over ``rounds`` rounds."""
    p = params
    return (
        8.0
        * p.sampling_rate
        * p.num_clients
        * p.model_size_megabytes
        * rounds
        * (1.0 / p.inbound_megabits_per_second + 1.0 / p.outbound_megabits_per_second)
    )


def d_comm(rounds: int, params: CostModelParams) -> float:
    """Cumulative cross-WAN traffic (megabytes) over ``rounds`` rounds."""
    p = params
    return 2.0 * p.sampling_rate * p.num_clients * p.model_size_megabytes * rounds


def cost_bounds(params: CostModelParams, rounds: int) -> list[float]:
    """Upper bounds of the cumulative cost columns after ``rounds`` rounds.

    Returns ``[t_comp bound, t_comm, d_comm]``, or ``[inf]`` when ``rounds``
    is beyond float range. t_comm and d_comm are linear in rounds; one round's
    t_comp = a/M + b*M peaks at M = 1 or M = K, so rounds times the larger of
    the two bounds its sum.
    """
    try:
        return [
            rounds * max(t_comp([1], params), t_comp([params.num_clients], params)),
            t_comm(rounds, params),
            d_comm(rounds, params),
        ]
    except OverflowError:
        return [math.inf]
