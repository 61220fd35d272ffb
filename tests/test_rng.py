import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgsp.rng import (
    dirichlet_proportions,
    gamma_variate,
    generator,
    generators,
    seed_states,
    stream_id,
    stream_ids,
)

UINT64 = st.integers(min_value=0, max_value=2**64 - 1)
EDGE_IDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def stream_id_oracle(seed, purpose, *ids):
    """The derivation as one ``update`` per part, which ``stream_id`` must equal."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed) & (2**64 - 1)).encode())
    for part in (purpose, *ids):
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


def test_stream_id_is_stable():
    assert stream_id(7, "features", 3) == stream_id(7, "features", 3)
    # Frozen value: guards against accidental changes to the derivation rule,
    # which would silently re-randomize every experiment.
    assert stream_id(0, "task") == 14505579101146588355


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    purpose=st.text(max_size=12),
    ids=st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=4),
)
def test_stream_id_matches_per_part_updates(seed, purpose, ids):
    assert stream_id(seed, purpose, *ids) == stream_id_oracle(seed, purpose, *ids)


SEEDS = st.integers(min_value=-(2**70), max_value=2**70)
# A bulk id is one key part or a tuple of them; () keys "{seed}/{purpose}".
KEY_ID = st.one_of(SEEDS, st.lists(SEEDS, max_size=4).map(tuple))


def key_parts(key_id):
    return key_id if isinstance(key_id, tuple) else (key_id,)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, purpose=st.text(max_size=12), ids=st.lists(KEY_ID, max_size=12))
@example(seed=-(2**64) - 1, purpose="a/b", ids=[2**64, -(2**64), -1, 0, (), (7, 2**70)])
@example(seed=2**64 + 3, purpose="f\u00e9atures/\u6570", ids=[7, 2**70, (1, -1)])
def test_bulk_ids_match_stream_id(seed, purpose, ids):
    bulk = stream_ids(seed, purpose, ids)
    assert bulk.dtype == np.uint64 and bulk.shape == (len(ids),)
    assert bulk.tolist() == [stream_id(seed, purpose, *key_parts(i)) for i in ids]
    assert bulk.tolist() == [stream_id_oracle(seed, purpose, *key_parts(i)) for i in ids]


@settings(max_examples=150, deadline=None)
@given(purpose=st.text(max_size=12), keys=st.lists(st.tuples(SEEDS, KEY_ID), max_size=12))
@example(
    purpose="f\u00e9atures/\u6570",
    keys=[(-(2**64) - 1, 2**64), (2**64 + 3, ()), (0, (7, 2**70)), (2**64 - 1, -1), (-1, 0)],
)
def test_bulk_ids_with_a_seed_per_key_match_stream_id(purpose, keys):
    seeds = [seed for seed, _ in keys]
    bulk = stream_ids(seeds, purpose, [i for _, i in keys])
    assert bulk.tolist() == [stream_id(seed, purpose, *key_parts(i)) for seed, i in keys]
    assert bulk.tolist() == [stream_id_oracle(seed, purpose, *key_parts(i)) for seed, i in keys]


def test_streams_differ_by_purpose_and_id():
    ids = {
        stream_id(7, "features", 3),
        stream_id(7, "features", 4),
        stream_id(7, "labels", 3),
        stream_id(8, "features", 3),
    }
    assert len(ids) == 4


def test_generator_reproduces_sequence():
    a = generator(123, "noise", 5).standard_normal(16)
    b = generator(123, "noise", 5).standard_normal(16)
    assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(UINT64, max_size=40))
def test_bulk_states_match_seed_sequence(ids):
    ids = EDGE_IDS + ids
    states = seed_states(np.array(ids, dtype=np.uint64))
    assert states.shape == (len(ids), 4) and states.dtype == np.uint64
    assert states.flags.c_contiguous
    for entropy, state in zip(ids, states):
        expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        assert np.array_equal(state, expected), entropy


def test_no_ids_give_no_generators():
    assert seed_states(np.array([], dtype=np.uint64)).shape == (0, 4)
    assert list(generators(3, "features", [])) == []
    assert stream_ids(3, "features", []).shape == (0,)
    assert stream_ids([], "features", []).shape == (0,)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    purpose=st.text(max_size=12),
    ids=st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=12),
    size=st.integers(min_value=1, max_value=30),
)
@example(seed=-(2**64) - 1, purpose="a/b", ids=[2**64, -(2**64), -1, 0], size=5)
@example(seed=2**64 + 3, purpose="f\u00e9atures/\u6570", ids=[7, 2**70], size=5)
def test_generators_draw_as_generator(seed, purpose, ids, size):
    # generators hashes the "{seed}/{purpose}/" prefix once; the draws pin it
    # to stream_id's key format, "/" and non-ASCII purposes included.
    for k, rng in zip(ids, generators(seed, purpose, ids), strict=True):
        single = generator(seed, purpose, k)
        assert np.array_equal(rng.permutation(size), single.permutation(size))
        assert np.array_equal(rng.standard_normal(size), single.standard_normal(size))
        assert np.array_equal(
            rng.choice(size, size=size // 2 + 1, replace=False),
            single.choice(size, size=size // 2 + 1, replace=False),
        )


@pytest.mark.parametrize("shape", [0.3, 0.5, 1.0, 2.5, 9.0])
def test_gamma_moments(shape):
    rng = generator(42, "gamma-test")
    draws = np.array([gamma_variate(rng, shape) for _ in range(20000)])
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(shape, rel=0.05)
    assert draws.var() == pytest.approx(shape, rel=0.12)


def test_gamma_rejects_nonpositive_shape():
    with pytest.raises(ValueError):
        gamma_variate(generator(0, "x"), 0.0)


def test_dirichlet_basicproperties():
    rng = generator(9, "dirichlet-test")
    p = dirichlet_proportions(rng, 0.3, 6)
    assert p.shape == (6,)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p >= 0)


def test_dirichlet_concentrates_at_uniform():
    rng = generator(11, "dirichlet-test")
    p = dirichlet_proportions(rng, 1e6, 5)
    assert np.max(np.abs(p - 0.2)) < 0.01
