"""Deterministic randomness for the whole package.

Every stochastic choice in this repository flows through one named PRNG:
numpy's PCG64, seeded per sub-stream. A sub-stream id is derived by hashing
``(seed, purpose, *ids)`` with BLAKE2b, so the stream consumed by, say,
client 7's feature noise is a pure function of the master seed and never
depends on call order, thread scheduling, or how many other streams were
drawn first.

Gamma variates (the building block of Dirichlet draws) are produced with the
Marsaglia-Tsang squeeze method implemented here, on top of the stream's
normal/uniform output, instead of delegating to a library sampler whose
algorithm could change between releases.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.random import PCG64, Generator  # numpy >= 2 would load it on first use

_MASK64 = (1 << 64) - 1


def stream_id(seed: int, purpose: str, *ids: int) -> int:
    """Derive the 64-bit id of the ``(seed, purpose, *ids)`` sub-stream.

    Args:
        seed: Master seed (any int; reduced mod 2**64).
        purpose: Short tag naming what the stream is for, e.g. ``"features"``.
        ids: Optional integer qualifiers (client id, round, group id, ...).

    Returns:
        An unsigned 64-bit integer, stable across runs and platforms.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed) & _MASK64).encode())
    for part in (purpose, *ids):
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


def generator(seed: int, purpose: str, *ids: int) -> Generator:
    """Return a fresh PCG64 generator positioned at the named sub-stream."""
    return Generator(PCG64(stream_id(seed, purpose, *ids)))


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
    draws = np.array([gamma_variate(rng, concentration) for _ in range(size)])
    total = draws.sum()
    if total == 0.0:
        # All components underflowed (pathologically small concentration).
        return np.full(size, 1.0 / size)
    return draws / total
