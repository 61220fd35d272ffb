import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgsp import metrics
from fedgsp.metrics import (
    _KERNEL_SCALE,
    CPD_BLOCK_ELEMENTS,
    _pair_squared_distances,
    CostModelParams,
    cpd,
    d_comm,
    median_pairwise_cpd,
    pairwise_cpd,
    t_comm,
    t_comp,
)


def mmd_double_sum(p, q, sigma):
    """Oracle: the full kernel double sum over class pairs (one-hot embedding)."""
    classes = len(p)
    total = 0.0
    for c in range(classes):
        for d in range(classes):
            k = math.exp(-(0.0 if c == d else 2.0) / (2.0 * sigma**2))
            total += (p[c] * p[d] - 2.0 * p[c] * q[d] + q[c] * q[d]) * k
    return total


counts = st.lists(st.integers(0, 50), min_size=2, max_size=8)


def row_loop_pair_distances(distributions):
    """Oracle: squared distances of normalized rows, one row against all later ones."""
    counts = np.asarray(distributions, dtype=float)
    rows = counts / counts.sum(axis=1, keepdims=True)
    return np.concatenate(
        [((rows[i + 1 :] - rows[i]) ** 2).sum(axis=1) for i in range(len(rows) - 1)]
    )


class TestCpd:
    def test_identical_distributions(self):
        assert cpd([3, 1, 2], [6, 2, 4]) == pytest.approx(0.0, abs=1e-15)

    def test_opposite_onehot_classes(self):
        # Frozen closed form: (1 - e^-1) * ||e0 - e1||^2 = (1 - e^-1) * 2.
        expected = (1.0 - math.exp(-1.0)) * 2.0
        assert cpd([5, 0], [0, 7]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.264241, abs=5e-7)

    @settings(max_examples=60, deadline=None)
    @given(a=counts, b=counts)
    def test_matches_double_sum_oracle(self, a, b):
        if sum(a) == 0 or sum(b) == 0 or len(a) != len(b):
            return
        p = np.array(a, dtype=float) / sum(a)
        q = np.array(b, dtype=float) / sum(b)
        assert cpd(a, b) == pytest.approx(mmd_double_sum(p, q, 1.0), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(a=counts, b=counts, scale=st.integers(1, 9))
    def test_symmetry_nonnegativity_scale_invariance(self, a, b, scale):
        if sum(a) == 0 or sum(b) == 0 or len(a) != len(b):
            return
        forward = cpd(a, b)
        assert forward >= 0.0
        assert forward == pytest.approx(cpd(b, a), abs=1e-15)
        assert forward == pytest.approx(cpd([scale * x for x in a], b), abs=1e-12)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            cpd([0, 0], [1, 1])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            cpd([1, 2], [1, 2, 3])


class TestMedianPairwise:
    def test_all_identical(self):
        assert median_pairwise_cpd([[1, 1], [2, 2], [3, 3]]) == pytest.approx(0.0)

    def test_median_of_three(self):
        # Pairwise CPDs are {0, a, a}; the median is a.
        dists = [[1, 0], [1, 0], [0, 1]]
        a = cpd([1, 0], [0, 1])
        assert median_pairwise_cpd(dists) == pytest.approx(a, abs=1e-15)

    def test_matches_sorted_recompute(self):
        rng = np.random.default_rng(5)
        dists = rng.integers(1, 30, size=(7, 4))
        pairs = sorted(
            cpd(dists[i], dists[j]) for i in range(7) for j in range(i + 1, 7)
        )
        assert median_pairwise_cpd(list(dists)) == pytest.approx(
            float(np.median(pairs)), abs=1e-12
        )

    def test_requires_two(self):
        with pytest.raises(ValueError):
            median_pairwise_cpd([[1, 2]])

    @given(
        groups=st.integers(2, 40),
        classes=st.integers(1, 6),
        high=st.sampled_from([1, 2, 3, 1000]),
        identical=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(groups=2, classes=3, high=5, identical=False, seed=0)  # one pair
    @example(groups=4, classes=2, high=1, identical=False, seed=1)  # six pairs, many ties
    @example(groups=5, classes=4, high=9, identical=True, seed=2)  # every distance 0
    @settings(max_examples=200, deadline=None)
    def test_selection_has_np_median_bits(self, groups, classes, high, identical, seed):
        # np.median is the oracle. Low ``high`` gives tie-heavy small-integer
        # rows; G rows give G(G-1)/2 pairs, odd or even.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, high + 1, size=(1 if identical else groups, classes))
        rows[:, 0] += 1  # keep every total positive
        rows = np.repeat(rows, groups, axis=0) if identical else rows
        expected = _KERNEL_SCALE * float(np.median(_pair_squared_distances(rows)))
        assert median_pairwise_cpd(rows).hex() == expected.hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_rejects_non_finite_or_negative_counts(self, bad):
        # A NaN or inf count gave NaN distances and a NaN median; a negative
        # one gave a number (cpd([-1, 3], [1, 1]) was 1.26).
        rows = [[1.0, 2.0], [bad, 3.0], [3.0, 4.0], [2.0, 2.0], [5.0, 1.0]]
        message = "class counts must be finite and non-negative"
        with pytest.raises(ValueError, match=message):
            median_pairwise_cpd(rows)
        with pytest.raises(ValueError, match=message):
            cpd(rows[1], rows[0])

    def test_memory_stays_flat_in_classes(self):
        # A (G, G, C) difference tensor alone would take 320 MB here.
        dists = np.random.default_rng(8).integers(1, 50, size=(2000, 10))
        tracemalloc.start()
        try:
            median_pairwise_cpd(dists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestPairwiseCpd:
    def test_matches_scalar_double_loop_bitwise(self):
        rng = np.random.default_rng(13)
        for groups in (2, 3, 5, 17, 40):
            for classes in (2, 3, 10):
                dists = rng.integers(0, 30, size=(groups, classes))
                dists[:, 0] += 1  # keep every total positive
                expected = [
                    cpd(dists[i], dists[j])
                    for i in range(groups)
                    for j in range(i + 1, groups)
                ]
                assert pairwise_cpd(dists).tolist() == expected

    @given(
        groups=st.integers(2, 70),
        classes=st.integers(1, 12),
        block=st.integers(1, 4096),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_blocks_match_row_loop_bytes(self, groups, classes, block, seed):
        dists = np.random.default_rng(seed).integers(0, 50, size=(groups, classes))
        dists[:, 0] += 1
        with mock.patch.object(metrics, "CPD_BLOCK_ELEMENTS", block):
            blocked = metrics._pair_squared_distances(dists)
        assert blocked.tobytes() == row_loop_pair_distances(dists).tobytes()

    def test_several_blocks_match_row_loop_bytes(self):
        dists = np.random.default_rng(21).integers(0, 50, size=(400, 10))
        dists[:, 0] += 1
        assert CPD_BLOCK_ELEMENTS // (399 * 10) < 399  # the first block stops early
        blocked = metrics._pair_squared_distances(dists)
        assert blocked.tobytes() == row_loop_pair_distances(dists).tobytes()

    def test_empty_below_two(self):
        assert pairwise_cpd([]).shape == (0,)
        assert pairwise_cpd([[1, 2]]).shape == (0,)


def full_scale_params(**kwargs):
    base = dict(samples_per_client=226, num_clients=368, local_epochs=1, sampling_rate=0.3)
    base.update(kwargs)
    return CostModelParams(**base)


class TestCostModels:
    def test_t_comp_single_round(self):
        # Hand-derived: (96e6/567e9)*(226*1*368/10) + (6.3e6/567e9)*(0.3*10-1)
        # = 1.4081354 + 2.222e-5 ~= 1.4082 s.
        params = full_scale_params()
        training = (96e6 / 567e9) * (226 * 1 * 368 / 10)
        aggregation = (6.3e6 / 567e9) * (0.3 * 10 - 1)
        assert training == pytest.approx(1.4081354, abs=5e-7)
        assert aggregation == pytest.approx(2.222e-5, abs=1e-8)
        assert training + aggregation == pytest.approx(1.4082, abs=5e-5)
        assert t_comp([10], params) == pytest.approx(training + aggregation, rel=1e-12)

    def test_t_comp_parallel_floor(self):
        params = full_scale_params(sampling_rate=1.0)
        full = t_comp([368], params)
        floor = (96e6 / 567e9) * 226
        aggregation = (6.3e6 / 567e9) * (368 - 1)
        assert full == pytest.approx(floor + aggregation, rel=1e-12)

    def test_t_comp_linearity(self):
        params = full_scale_params()
        assert t_comp([10, 10], params) == pytest.approx(2 * t_comp([10], params), rel=1e-12)

    def test_t_comm_published_constants(self):
        # Hand-derived: 8 * 0.3 * 368 * 25.2 * (2/567) = 44513.28 / 567.
        assert t_comm(1, full_scale_params()) == pytest.approx(44513.28 / 567, rel=1e-12)

    def test_t_comm_unit_plugin(self):
        params = CostModelParams(
            samples_per_client=1,
            num_clients=1,
            sampling_rate=1.0,
            model_size_megabytes=1.0,
            inbound_megabits_per_second=8.0,
            outbound_megabits_per_second=8.0,
        )
        assert t_comm(1, params) == pytest.approx(2.0, rel=1e-12)

    def test_d_comm_published_constants(self):
        assert d_comm(1, full_scale_params()) == pytest.approx(5564.16, rel=1e-12)

    def test_monotone_in_rounds(self):
        params = full_scale_params()
        comp = [t_comp([10] * r, params) for r in range(1, 5)]
        comm = [t_comm(r, params) for r in range(1, 5)]
        traffic = [d_comm(r, params) for r in range(1, 5)]
        for series in (comp, comm, traffic):
            assert all(later > earlier for earlier, later in zip(series, series[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostModelParams(samples_per_client=0, num_clients=10)
