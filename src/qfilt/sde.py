"""Generic Ito SDE integration with reproducible Wiener paths.

The integrators accept systems in Ito form only; Stratonovich systems must be
converted first with :func:`stratonovich_to_ito`.  Every random stream in the
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
    "WienerPath",
    "wiener_increments",
    "rng_stream",
    "stream_seed",
    "euler_step",
    "euler_path",
    "predictor_corrector_step",
    "stratonovich_to_ito",
    "ito_to_stratonovich",
]

ITO = "ito"
STRATONOVICH = "stratonovich"


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
    interpretation: str = ITO

    def __post_init__(self):
        if self.interpretation not in (ITO, STRATONOVICH):
            raise ValueError(f"unknown interpretation {self.interpretation!r}")


@dataclass(frozen=True)
class WienerPath:
    """Pre-drawn Wiener increments, shape (noise_dim, steps)."""

    dt: float
    increments: np.ndarray
    seed: np.random.SeedSequence

    @property
    def steps(self) -> int:
        return self.increments.shape[1]


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


def wiener_increments(m: int, steps: int, dt: float, seed, k: int | None = None) -> WienerPath:
    """Draw an m-channel Wiener path of iid normal(0, dt) increments from
    ``rng_stream(seed)``, or from ``rng_stream(seed, k)`` for trajectory k."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    tags = () if k is None else (k,)
    dw = rng_stream(seed, *tags).standard_normal((m, steps)) * np.sqrt(dt)
    return WienerPath(dt=dt, increments=dw, seed=stream_seed(seed, *tags))


def _require_ito(system: SdeSystem) -> None:
    if system.interpretation != ITO:
        raise ValueError("integrators accept Ito systems only; convert first")


def euler_step(system: SdeSystem, x: np.ndarray, t: float, dt: float, dW: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step x' = x + a dt + sum_j b_j dW_j."""
    _require_ito(system)
    out = x + system.drift(t, x) * dt
    for j in range(system.noise_dim):
        out = out + system.diffusion(t, x, j) * dW[j]
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite state produced by euler_step")
    return out


def euler_path(system: SdeSystem, x0: np.ndarray, t0: float, path: WienerPath) -> np.ndarray:
    """Integrate along a WienerPath; returns array of shape (steps+1, n)."""
    out = np.empty((path.steps + 1, len(x0)))
    out[0] = x0
    x = np.asarray(x0, dtype=float)
    t = t0
    for i in range(path.steps):
        x = euler_step(system, x, t, path.dt, path.increments[:, i])
        t += path.dt
        out[i + 1] = x
    return out


def predictor_corrector_step(system: SdeSystem, x: np.ndarray, dt: float, dW: float) -> np.ndarray:
    """Order-2.0 weak predictor-corrector step for autonomous scalar-noise systems.

    Supporting values Y± = x + a dt ± b sqrt(dt), predictor
    Xbar = x + (a(Y) + a(x)) dt / 2 + phi with Y = x + a dt + b dW, and the
    corrector uses the same phi, where

        phi = [b(Y+) + b(Y-) + 2 b(x)] dW / 4
            + [b(Y+) - b(Y-)] [(dW)^2 - dt] / (4 sqrt(dt))

    Time-dependent coefficients and multiple channels are unsupported: the
    multi-channel variant is a different scheme and is deliberately not
    guessed at; callers should fall back to euler_step.
    """
    _require_ito(system)
    if system.noise_dim != 1:
        raise ValueError("predictor-corrector supports a single noise channel only")
    dW = float(np.asarray(dW).reshape(()))
    a = lambda y: system.drift(0.0, y)
    b = lambda y: system.diffusion(0.0, y, 0)
    sqdt = np.sqrt(dt)
    ax = a(x)
    bx = b(x)
    ups_p = x + ax * dt + bx * sqdt
    ups_m = x + ax * dt - bx * sqdt
    phi = 0.25 * (b(ups_p) + b(ups_m) + 2.0 * bx) * dW \
        + 0.25 * (b(ups_p) - b(ups_m)) * ((dW * dW - dt) / sqdt)
    ups = x + ax * dt + bx * dW
    x_pred = x + 0.5 * (a(ups) + ax) * dt + phi
    out = x + 0.5 * (a(x_pred) + ax) * dt + phi
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite state produced by predictor_corrector_step")
    return out


def _drift_correction(system: SdeSystem, t: float, x: np.ndarray) -> np.ndarray:
    """(1/2) sum_{j,k} b_j^k d(b_j)/dx^k by central finite differences."""
    n = system.state_dim
    corr = np.zeros(n)
    for j in range(system.noise_dim):
        bj = system.diffusion(t, x, j)
        for k in range(n):
            h = 1e-6 * (1.0 + abs(x[k]))
            xp = x.copy()
            xm = x.copy()
            xp[k] += h
            xm[k] -= h
            dbdxk = (system.diffusion(t, xp, j) - system.diffusion(t, xm, j)) / (2.0 * h)
            corr += 0.5 * bj[k] * dbdxk
    return corr


def ito_to_stratonovich(system: SdeSystem) -> SdeSystem:
    """Equivalent Stratonovich system: abar = a - (1/2) sum_k b^k db/dx^k."""
    if system.interpretation != ITO:
        raise ValueError("expected an Ito system")

    def drift(t, x, _sys=system):
        return _sys.drift(t, x) - _drift_correction(_sys, t, x)

    return SdeSystem(system.state_dim, system.noise_dim, drift, system.diffusion, STRATONOVICH)


def stratonovich_to_ito(system: SdeSystem) -> SdeSystem:
    """Equivalent Ito system: a = abar + (1/2) sum_k b^k db/dx^k."""
    if system.interpretation != STRATONOVICH:
        raise ValueError("expected a Stratonovich system")

    def drift(t, x, _sys=system):
        return _sys.drift(t, x) + _drift_correction(_sys, t, x)

    return SdeSystem(system.state_dim, system.noise_dim, drift, system.diffusion, ITO)
