"""Deterministic randomness for the whole package.

Every stochastic choice in this repository flows through one named PRNG:
numpy's PCG64, seeded per sub-stream. A sub-stream id is derived by hashing
``(seed, purpose, *ids)`` with BLAKE2b, so the stream consumed by, say,
client 7's feature noise is a pure function of the master seed and never
depends on call order, thread scheduling, or how many other streams were
drawn first.

A single stream is seeded by numpy itself: ``PCG64(stream id)`` runs the id
through ``SeedSequence``. A list of streams (one per client, every batch
order of a training call, a round's ICG deal and order streams) is seeded
in bulk: :func:`stream_generators` runs ``SeedSequence``'s hash over all the
ids in one numpy pass, bit for bit, and hands each precomputed state to
``PCG64``. That skips numpy's per-call ``SeedSequence`` set-up, which is
most of the cost of building a stream. The ids themselves come in bulk from
:func:`stream_ids`: an id is one key part or a tuple of them, and a seed
shared by every key has its ``"{seed}/{purpose}"`` hashed only once, since
BLAKE2b is a streaming hash and a copy of the state after that start, fed
the rest of the key, gives the one-shot digest. :func:`_key_hash` is the one
place the key format is declared.

Gamma variates (the building block of Dirichlet draws) are produced with the
Marsaglia-Tsang squeeze method implemented here, on top of the stream's
normal/uniform output, instead of delegating to a library sampler whose
algorithm could change between releases.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Iterator

import numpy as np
from numpy.random import PCG64, Generator  # numpy >= 2 would load it on first use
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, right shifts by half a word, and these multipliers.
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of ``calls`` hash calls, and after the last.

    The constant starts at ``init`` and is multiplied by ``mult`` (mod 2**32)
    at each call, whatever the data, so the whole sequence is fixed. Column
    vectors, so that call k hashes with ``c[k]`` and ``c[k + 1]``.
    """
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array(constants, dtype=np.uint32)[:, None]


# Pool fill (4 calls) and pool mix (3 per source word), then 8 output words.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_OTHERS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``, row i with ``constants[i]``/``constants[i + 1]``."""
    out = values ^ constants[:-1]
    out *= constants[1:]
    out ^= out >> _XSHIFT
    return out


def seed_states(ids: np.ndarray) -> np.ndarray:
    """Return ``SeedSequence(int(i)).generate_state(4, np.uint64)`` for each id.

    Args:
        ids: (N,) unsigned 64-bit entropy values.

    Returns:
        A C-contiguous (N, 4) uint64 array, row i the state of ``ids[i]``.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    # The entropy words, low first. An id below 2**32 is one word to numpy,
    # and a missing word mixes in as 0, so hi = 0 gives the same pool.
    pool = np.zeros((_POOL_SIZE, ids.size), dtype=np.uint32)
    pool[0] = ids & np.uint64(0xFFFFFFFF)
    pool[1] = ids >> np.uint64(32)
    pool = _hashmix(pool, _HASH_A[: _POOL_SIZE + 1])
    call = _POOL_SIZE
    for src, dst in enumerate(_OTHERS):
        # The source word stays put while its three destinations update.
        hashed = _hashmix(pool[src], _HASH_A[call : call + _POOL_SIZE])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
        call += _POOL_SIZE - 1
    words = _hashmix(np.tile(pool, (2, 1)), _HASH_B).astype(np.uint64)
    # Little-endian word pairs, combined arithmetically on any host.
    return np.ascontiguousarray((words[0::2] | words[1::2] << np.uint64(32)).T)


class _Seeded(ISeedSequence):
    """A seed sequence whose ``generate_state(4, np.uint64)`` is precomputed."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly this: four uint64 words.
        return self.state


def _key_hash(seed, purpose: str, ids) -> bytearray:
    """The 8-byte BLAKE2b digests of the keys ``"{seed mod 2**64}/{purpose}/{part}/..."``.

    The one place the key format is declared. Key i's parts are ``ids[i]``:
    a tuple of them (``()`` keys the bare ``"{seed}/{purpose}"``) or one
    part. ``seed`` is one int for every key, whose ``"{seed}/{purpose}"`` is
    then hashed once, or a sequence of one per key. BLAKE2b is a streaming
    hash, so a copy of the state after that start, fed the rest of the key,
    gives the whole key's digest.
    """

    def start(key_seed) -> hashlib.blake2b:
        return hashlib.blake2b(f"{int(key_seed) & _MASK64}/{purpose}".encode(), digest_size=8)

    shared = isinstance(seed, (int, np.integer))
    starts = itertools.repeat(start(seed)) if shared else map(start, seed)
    digests = bytearray()  # one buffer, not one bytes object per id
    for state, parts in zip(starts, ids):
        state = state.copy()
        if isinstance(parts, tuple):
            state.update("".join(["/" + str(part) for part in parts]).encode())
        else:
            state.update(("/" + str(parts)).encode())
        digests += state.digest()
    return digests


def stream_id(seed: int, purpose: str, *ids: int) -> int:
    """Derive the 64-bit id of the ``(seed, purpose, *ids)`` sub-stream.

    Args:
        seed: Master seed (any int; reduced mod 2**64).
        purpose: Short tag naming what the stream is for, e.g. ``"features"``.
        ids: Optional integer qualifiers (client id, round, group id, ...).

    Returns:
        An unsigned 64-bit integer, stable across runs and platforms.
    """
    return int.from_bytes(_key_hash(seed, purpose, [ids]), "little")


def stream_ids(seed, purpose: str, ids) -> np.ndarray:
    """Return ``stream_id(seed, purpose, *parts)`` for each id, as one (N,) uint64 array.

    An id is one key part or a tuple of them. ``seed`` is one int, shared by
    every key (its ``"{seed}/{purpose}"`` is hashed once), or a sequence of
    N ints, one per id.
    """
    return np.frombuffer(_key_hash(seed, purpose, ids), dtype="<u8")


def generator(seed: int, purpose: str, *ids: int) -> Generator:
    """Return a fresh PCG64 generator positioned at the named sub-stream."""
    return Generator(PCG64(stream_id(seed, purpose, *ids)))


def stream_generators(ids) -> Iterator[Generator]:
    """Yield ``Generator(PCG64(s))`` for each 64-bit stream id s, bit for bit.

    All the ids are hashed at once, in one numpy pass (:func:`seed_states`),
    which costs about as much as seeding a handful of streams the numpy way;
    use :func:`generator` for one stream. Each generator is built when it is
    taken, so a long list never holds all of them at once.
    """
    states = seed_states(ids)
    return (Generator(PCG64(_Seeded(state))) for state in states)


def generators(seed: int, purpose: str, ids) -> Iterator[Generator]:
    """Yield ``generator(seed, purpose, i)`` for each i of ``ids``, bit for bit."""
    return stream_generators(stream_ids(seed, purpose, ids))


def gamma_variate(rng: Generator, shape: float) -> float:
    """Draw one Gamma(shape, 1) variate via Marsaglia-Tsang.

    For shape < 1 the usual boost is applied: draw Gamma(shape + 1) and
    multiply by U**(1/shape).
    """
    if shape <= 0.0:
        raise ValueError(f"gamma shape must be positive, got {shape}")
    if shape < 1.0:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return gamma_variate(rng, shape + 1.0) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = rng.random()
        if u < 1.0 - 0.0331 * x ** 4:
            return d * v
        if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def dirichlet_proportions(
    rng: Generator, concentration: float, size: int
) -> np.ndarray:
    """Draw one symmetric Dirichlet(concentration) vector of the given size."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    values = [gamma_variate(rng, concentration) for _ in range(size)]
    draws = np.array(values)
    if max(values) * size > 2.0**1000:  # near the float64 maximum the sum may overflow
        with np.errstate(over="ignore"):
            if not math.isfinite(draws.sum()):
                draws /= max(values)  # a finite sum keeps its bits
    total = draws.sum()
    if total == 0.0:
        # All components underflowed (pathologically small concentration).
        return np.full(size, 1.0 / size)
    return draws / total
