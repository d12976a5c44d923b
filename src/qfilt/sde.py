"""Generic Ito SDE steps and the package's reproducible random streams.

Every system is read in Ito form: a Stratonovich system must be passed with
its Ito drift a + (1/2) sum_{j,k} b_j^k d(b_j)/dx^k.  ``euler_step`` takes one
Euler-Maruyama step on increments the caller draws; a path is a loop of
steps over normal(0, dt) draws from one stream.  Every random stream in the
package comes from :func:`rng_stream`: ``rng_stream(seed)`` is the root stream
of ``seed`` and ``rng_stream(seed, *tags)`` the stream that
``SeedSequence(seed).spawn`` would hand to child ``tags`` (child ``k``, then its
child ``j``, ...).  Trajectory ``k`` of a batch uses ``rng_stream(seed, k)``,
so batches are reproducible regardless of scheduling, and distinct tag tuples
never share a stream.  Functions that take a seed also accept the
:func:`stream_seed` of a tagged stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SdeSystem",
    "rng_stream",
    "stream_seed",
    "euler_step",
]


@dataclass(frozen=True)
class SdeSystem:
    """Drift/diffusion bundle dX = a(t,X) dt + sum_j b_j(t,X) dW_j.

    ``drift(t, x)`` returns a length-n vector; ``diffusion(t, x, j)`` returns
    the length-n diffusion vector for noise channel j.
    """

    state_dim: int
    noise_dim: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray, int], np.ndarray]


def stream_seed(seed, *tags: int) -> np.random.SeedSequence:
    """Seed of the stream tagged ``tags`` under ``seed`` (an int, a tuple of
    ints, or a SeedSequence whose spawn key the tags extend)."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + tags,
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(seed, spawn_key=tags)


def rng_stream(seed, *tags: int) -> np.random.Generator:
    """Generator of the stream tagged ``tags`` under ``seed``; with no tags,
    the root stream, as ``default_rng(seed)`` draws it."""
    return np.random.default_rng(stream_seed(seed, *tags))


def euler_step(system: SdeSystem, x: np.ndarray, t: float, dt: float, dW: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step x' = x + a dt + sum_j b_j dW_j."""
    out = x + system.drift(t, x) * dt
    for j in range(system.noise_dim):
        out = out + system.diffusion(t, x, j) * dW[j]
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite state produced by euler_step")
    return out

