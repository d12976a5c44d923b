"""Kalman-Bucy filtering for linear-Gaussian models: the correlated-noise
filter step and the Brownian-forcing parameter demo.

A ``LinearModel`` is compiled once: its constant entries are converted once,
and a constant D is checked and inverted once.  Callable entries are
evaluated, and a callable D checked, at every queried t.  The filter step
advances by explicit Euler with per-step re-symmetrization of the covariance.

The demo's Riccati equation is solved by the standard linearization trick:
write P = X Y^{-1} and integrate the doubled linear system

    d/dt [X; Y] = K [X; Y],    K = [[A, B B^T], [C^T (D D^T)^{-1} C, -A^T]].

The system is linear and autonomous, so one classical RK4 step of length h
is the fixed (2n x 2n) propagator M = I + hK + (hK)^2/2 + (hK)^3/6 + (hK)^4/24.
The covariance does not depend on the record, so ``brownian_parameter_demo``
runs its whole covariance pass before the record loop, as the Moebius map
P' = (M11 P + M12)(M21 P + M22)^{-1} of the step Z = [P; I] -> M Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sde import SdeSystem, euler_step, rng_stream

__all__ = [
    "LinearModel",
    "KalmanState",
    "kalman_correlated_step",
    "raise_if_nonfinite",
    "brownian_parameter_demo",
]

_D_CONDITION_LIMIT = 1e12


def _at(entry, t: float) -> np.ndarray:
    """Evaluate a callable(t) matrix entry as a float array of at least two
    dimensions, as np.atleast_2d would, without re-wrapping one that
    already is."""
    m = np.asarray(entry(t), dtype=float)
    return m if m.ndim > 1 else m.reshape(1, -1)


def _inverse(D: np.ndarray, where: str) -> np.ndarray:
    """D^{-1}, after checking that D is well-conditioned."""
    if np.linalg.cond(D) > _D_CONDITION_LIMIT:
        raise ValueError(f"singular observation matrix D {where}")
    return np.linalg.inv(D)


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class LinearModel:
    """dX = A X dt + B dW,  dY = C X dt + D dV.

    Entries may be constant arrays or callables of t returning arrays.
    ``D`` must stay invertible (condition number < 1e12) at every queried t.
    """

    A: object
    B: object
    C: object
    D: object

    @cached_property
    def _compiled(self) -> tuple:
        """(A, B, C, D, D^{-1}) with each constant entry a read-only 2-d
        array, built on first use; callables are kept, and D^{-1} is None
        when D is callable."""
        A, B, C, D = (e if callable(e) else _read_only(np.atleast_2d(np.array(e, dtype=float)))
                      for e in (self.A, self.B, self.C, self.D))
        return A, B, C, D, None if callable(D) else _read_only(_inverse(D, "(constant)"))

    def at(self, t: float) -> tuple:
        """(A, B, C, D, D^{-1}) at t; raises ValueError if D is singular."""
        A, B, C, D, Dinv = self._compiled
        A, B, C = [_at(e, t) if callable(e) else e for e in (A, B, C)]
        if Dinv is None:
            D = _at(D, t)
            Dinv = _inverse(D, f"at t={t}")
        return A, B, C, D, Dinv

    def matrices(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.at(t)[:4]


@dataclass(frozen=True)
class KalmanState:
    estimate: np.ndarray  # n-vector pi_t[X]
    covariance: np.ndarray  # n x n symmetric P_t


def raise_if_nonfinite(what: str, rows, dt: float) -> None:
    """Raise FloatingPointError naming the first step, and its end time, whose
    row of ``rows`` is not finite; row i holds the state after step i + 1."""
    finite = np.isfinite(rows)
    bad = ~finite.all(axis=tuple(range(1, finite.ndim)))
    if bad.any():
        step = int(np.argmax(bad)) + 1
        raise FloatingPointError(f"non-finite {what} at step {step} (t = {step * dt:g})")


def kalman_correlated_step(model: LinearModel, state: KalmanState, dz: float, t: float, dt: float) -> KalmanState:
    """Kalman step for the case where one white noise drives both the system
    and the observation: dX = A X dt + B dW, dZ = C X dt + D dW.

    Estimate: dXtilde = A Xtilde dt + (B + V C^T) dWtilde with innovations
    dWtilde = D^{-1}(dZ - C Xtilde dt); covariance flow
    Vdot = A V + V A^T + B B^T - (B + V C^T)(B + V C^T)^T.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A, B, C, _, Dinv = model.at(t)
    x = np.asarray(state.estimate, dtype=float)
    V = state.covariance
    gain = B + V @ C.T
    innovation = Dinv @ (dz - C @ x * dt)
    x_next = x + A @ x * dt + gain @ innovation
    V_next = V + (A @ V + V @ A.T + B @ B.T - gain @ gain.T) * dt
    V_next = 0.5 * (V_next + V_next.T)
    return KalmanState(estimate=x_next, covariance=V_next)


def _doubled_propagator(A, B, C, D, h: float) -> np.ndarray:
    """The classical RK4 step Z -> M Z of length h for the doubled linear
    system d/dt [X; Y] = K [X; Y], K = [[A, B B^T], [C^T (D D^T)^{-1} C, -A^T]]:
    M = I + hK + (hK)^2/2 + (hK)^3/6 + (hK)^4/24 = R(hK).

    Raises ValueError, naming h, unless M contracts every decaying mode of
    K: |R(h lambda)| < 1 for each eigenvalue lambda with Re lambda < 0.  Real
    parts within 1e-6 max |h lambda| of zero count as neutral, since a
    defective zero eigenvalue is computed only to about sqrt(eps).
    """
    gain = C.T @ np.linalg.inv(D @ D.T) @ C
    hK = h * np.block([[A, B @ B.T], [gain, -A.T]])
    z = np.linalg.eigvals(hK)
    z = z[z.real < -1e-6 * np.abs(z).max()]
    growth = np.abs(1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0)
    if np.any(growth >= 1.0):
        raise ValueError(f"dt = {h:g} is outside the RK4 stability range of the covariance"
                         f" propagator: a decaying mode grows by {growth.max():.4g} per step")
    hK2 = hK @ hK
    return np.eye(len(hK)) + hK + hK2 / 2.0 + hK2 @ hK / 6.0 + hK2 @ hK2 / 24.0


# Matrices of the Brownian-forcing parameter estimation model: the augmented
# state is [position x, forcing parameter xi].
PARAMETER_MODEL = LinearModel(
    A=np.array([[0.0, 1.0], [0.0, 0.0]]),
    B=np.array([[1.0], [0.0]]),
    C=np.array([[1.0, 0.0]]),
    D=np.array([[1.0]]),
)


def _covariance_pass(M: np.ndarray, P0: np.ndarray, steps: int, h: float) -> np.ndarray:
    """Covariances P_0 .. P_steps (steps + 1, 2, 2) of a 2x2 Riccati flow under
    the doubled-system propagator M, renormalized to Z = [P; I] every step:
    the Moebius map P' = (M11 P + M12)(M21 P + M22)^{-1}, on Python floats.
    Each stored P after P_0 is re-symmetrized; the map carries P' as is.

    Raises np.linalg.LinAlgError naming the step and t where Y = M21 P + M22
    turns singular, and FloatingPointError at the first non-finite P.
    """
    (m00, m01, m02, m03), (m10, m11, m12, m13), \
        (m20, m21, m22, m23), (m30, m31, m32, m33) = M.tolist()
    (p00, p01), (p10, p11) = P0.tolist()
    rows = [(p00, p01, p10, p11)]
    for k in range(1, steps + 1):
        x00, x01 = m00 * p00 + m01 * p10 + m02, m00 * p01 + m01 * p11 + m03
        x10, x11 = m10 * p00 + m11 * p10 + m12, m10 * p01 + m11 * p11 + m13
        y00, y01 = m20 * p00 + m21 * p10 + m22, m20 * p01 + m21 * p11 + m23
        y10, y11 = m30 * p00 + m31 * p10 + m32, m30 * p01 + m31 * p11 + m33
        # Y starts the step at the identity; a vanishing or sign-flipped
        # determinant means the step crossed a singularity of P = X Y^{-1}
        det = y00 * y11 - y01 * y10
        if det <= 0.0:
            raise np.linalg.LinAlgError(
                f"Y singular at step {k} (t = {k * h:g}) in the covariance pass")
        p00, p01 = (x00 * y11 - x01 * y10) / det, (x01 * y00 - x00 * y01) / det
        p10, p11 = (x10 * y11 - x11 * y10) / det, (x11 * y00 - x10 * y01) / det
        sym = 0.5 * (p01 + p10)
        rows.append((p00, sym, sym, p11))
    P = np.array(rows).reshape(steps + 1, 2, 2)
    raise_if_nonfinite("covariance", P[1:], h)
    return P


def brownian_parameter_demo(xi_true: float, T: float, dt: float, seed,
                            prior_var: float = 1e5,
                            noise_scale: float = 1.0) -> dict[str, np.ndarray]:
    """Estimate the forcing parameter of a Brownian particle.

    Truth is simulated by euler_step on dx = xi dt + dW; measurements
    dy = x dt + dV feed the Kalman estimate recursion.  Large initial
    parameter uncertainty makes the Riccati flow stiff for explicit Euler,
    so the covariance is propagated through the doubled linear system by the
    RK4 propagator, with P0 = diag(0, prior_var), in one pass before the
    record loop (it does not depend on the record).  The noise is drawn as
    one (steps, 2) array of (dW, dV) pairs, and the estimate is updated on
    scalars.  Returns a record with keys 't', 'dY', 'x_true', 'x_est',
    'xi_est', 'P' (stacked covariances).  Raises ValueError, naming dt,
    before the pass if RK4 at dt does not contract every decaying mode of
    the doubled system (``_doubled_propagator``), then FloatingPointError at
    the first non-finite covariance, truth or estimate, and LinAlgError
    where the covariance pass meets a singular Y, each naming its step and
    t.
    """
    drift, diffusion = np.array([xi_true]), np.array([1.0])
    truth_sys = SdeSystem(state_dim=1, noise_dim=1, drift=lambda t, x: drift,
                          diffusion=lambda t, x, j: diffusion)
    steps = int(round(T / dt))
    P = _covariance_pass(_doubled_propagator(*PARAMETER_MODEL.matrices(0.0), dt),
                         np.diag([0.0, prior_var]), steps, dt)
    noise = noise_scale * rng_stream(seed).standard_normal((steps, 2)) * np.sqrt(dt)
    # with A = [[0, 1], [0, 0]] and C = [1, 0] the estimate update
    # pi' = pi + A pi dt + P C^T (dy - C pi dt) reads off the first column of P
    x, x_est, xi_est = np.zeros(1), 0.0, 0.0
    out = []
    try:
        for i, ((dW, dV), (g0, g1)) in enumerate(zip(noise.tolist(), P[:-1, :, 0].tolist())):
            dy = x[0] * dt + dV
            x = euler_step(truth_sys, x, i * dt, dt, np.array([dW]))
            innovation = dy - x_est * dt
            x_est, xi_est = x_est + xi_est * dt + g0 * innovation, xi_est + g1 * innovation
            out.append((dy, x[0], x_est, xi_est))
    except FloatingPointError as e:
        raise FloatingPointError(f"{e} at step {i + 1} (t = {(i + 1) * dt:g})") from None
    cols = np.zeros((4, steps + 1))
    cols[:, 1:] = np.array(out).reshape(steps, 4).T
    raise_if_nonfinite("estimate", cols[2:, 1:].T, dt)
    return {"t": np.arange(steps + 1) * dt, "dY": cols[0], "x_true": cols[1],
            "x_est": cols[2], "xi_est": cols[3], "P": P}
