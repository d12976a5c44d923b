"""Kalman-Bucy filtering for linear-Gaussian models: the correlated-noise
filter and the Brownian-forcing parameter demo.

A ``LinearModel`` is compiled once: its constant entries are converted once,
and D is checked and inverted once.  A and B may be callables of t, which
are evaluated over a whole time grid in one call.

Both runs solve their Riccati equation by the standard linearization trick:
write P = X Y^{-1} and integrate the doubled linear system

    d/dt [X; Y] = K [X; Y],    K = [[A, B B^T], [C^T (D D^T)^{-1} C, -A^T]].

One classical RK4 step of length h with K frozen is the (2n x 2n)
propagator M = I + hK + (hK)^2/2 + (hK)^3/6 + (hK)^4/24.  The covariance
does not depend on the record, so each run's whole covariance pass is the
Moebius map P' = (M11 P + M12)(M21 P + M22)^{-1} of the step Z = [P; I] -> M Z,
walked before the record loop.  The demo's K is constant, so one M serves
every step; the correlated-noise flow with time-dependent A and B takes one
M per step, with K frozen at the step's midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sde import SdeSystem, euler_step, rng_stream

__all__ = [
    "LinearModel",
    "correlated_covariance_pass",
    "kalman_correlated_step",
    "raise_if_nonfinite",
    "brownian_parameter_demo",
]

_D_CONDITION_LIMIT = 1e12


def _constant(entry) -> np.ndarray:
    m = np.atleast_2d(np.array(entry, dtype=float))
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class LinearModel:
    """dX = A X dt + B dW,  dY = C X dt + D dV.

    A and B may be constant arrays or callables of t returning arrays, a
    stack of them over an array t.  C and D are constant, and D must be
    invertible (condition number < 1e12).
    """

    A: object
    B: object
    C: object
    D: object

    @cached_property
    def _compiled(self) -> tuple:
        """(A, B, C, D, D^{-1}) with each constant entry a read-only 2-d
        array, built on first use; callable A and B are kept.  Raises
        ValueError if D is singular."""
        A, B = (e if callable(e) else _constant(e) for e in (self.A, self.B))
        C, D = _constant(self.C), _constant(self.D)
        if np.linalg.cond(D) > _D_CONDITION_LIMIT:
            raise ValueError("singular observation matrix D")
        return A, B, C, D, _constant(np.linalg.inv(D))

    def at(self, t) -> tuple:
        """(A, B, C, D, D^{-1}) at t, a float or an array of times."""
        A, B, C, D, Dinv = self._compiled
        A, B = [np.asarray(e(t), dtype=float) if callable(e) else e for e in (A, B)]
        return A, B, C, D, Dinv

    def matrices(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.at(t)[:4]


def raise_if_nonfinite(what: str, rows, dt: float) -> None:
    """Raise FloatingPointError naming the first step, and its end time, whose
    row of ``rows`` is not finite; row i holds the state after step i + 1."""
    finite = np.isfinite(rows)
    bad = ~finite.all(axis=tuple(range(1, finite.ndim)))
    if bad.any():
        step = int(np.argmax(bad)) + 1
        raise FloatingPointError(f"non-finite {what} at step {step} (t = {step * dt:g})")


def _doubled_propagator(A, B, C, D, h: float) -> np.ndarray:
    """The classical RK4 step Z -> M Z of length h for the doubled linear
    system d/dt [X; Y] = K [X; Y], K = [[A, B B^T], [C^T (D D^T)^{-1} C, -A^T]]:
    M = I + hK + (hK)^2/2 + (hK)^3/6 + (hK)^4/24 = R(hK).  Stacks of A and B
    (leading axis: steps) give the stack of per-step M.

    Raises ValueError, naming h, unless each M contracts every decaying mode
    of its K: |R(h lambda)| < 1 for each eigenvalue lambda with
    Re lambda < 0.  Real parts within 1e-6 max |h lambda| of zero count as
    neutral, since a defective zero eigenvalue is computed only to about
    sqrt(eps).
    """
    gain = C.T @ np.linalg.inv(D @ D.T) @ C
    n = A.shape[-1]
    hK = np.empty(A.shape[:-2] + (2 * n, 2 * n))
    hK[..., :n, :n], hK[..., n:, n:] = A, -np.swapaxes(A, -1, -2)
    hK[..., :n, n:], hK[..., n:, :n] = B @ np.swapaxes(B, -1, -2), gain
    hK *= h
    z = np.linalg.eigvals(hK)
    z = z[z.real < -1e-6 * np.abs(z).max(axis=-1, keepdims=True)]
    growth = np.abs(1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0)
    if np.any(growth >= 1.0):
        raise ValueError(f"dt = {h:g} is outside the RK4 stability range of the covariance"
                         f" propagator: a decaying mode grows by {growth.max():.4g} per step")
    hK2 = hK @ hK
    return np.eye(2 * n) + hK + hK2 / 2.0 + hK2 @ hK / 6.0 + hK2 @ hK2 / 24.0


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
    the doubled-system propagator M, one (4, 4) for every step or a
    (steps, 4, 4) stack, renormalized to Z = [P; I] every step: the Moebius
    map P' = (M11 P + M12)(M21 P + M22)^{-1}, on Python floats.  Each stored
    P after P_0 is re-symmetrized; the map carries P' as is.

    Raises np.linalg.LinAlgError naming the step and t where Y = M21 P + M22
    turns singular, and FloatingPointError at the first non-finite P.
    """
    Ms = M.reshape(-1, 16).tolist()
    if len(Ms) == 1:  # one M serves every step
        Ms *= steps
    (p00, p01), (p10, p11) = P0.tolist()
    rows = [(p00, p01, p10, p11)]
    for k, (m00, m01, m02, m03, m10, m11, m12, m13,
            m20, m21, m22, m23, m30, m31, m32, m33) in enumerate(Ms, 1):
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


def correlated_covariance_pass(model: LinearModel, V0: np.ndarray, steps: int,
                               dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariance pass of the Kalman filter for a 2-state model in which one
    white noise drives both the system and the observation:
    dX = A X dt + B dW, dZ = C X dt + D dW, with D square.

    The flow Vdot = A V + V A^T + B B^T - G G^T, G = B + V C^T D^{-T}, is
    the standard one with A' = A - B D^{-1} C and no process noise, so it
    runs through the doubled-system propagator with K frozen at each step's
    midpoint t + dt/2.  Returns, for steps 0 .. steps - 1, A and the gain G
    at the step's start t = k dt, and the covariances V_0 .. V_steps.
    Raises as ``_doubled_propagator`` and ``_covariance_pass`` do.
    """
    # even entries are the step starts, odd ones the midpoints
    A, B, C, D, Dinv = model.at(np.arange(2 * steps) * (dt / 2.0))
    A, B = (np.broadcast_to(e, (2 * steps,) + e.shape[-2:]) for e in (A, B))
    mid = A[1::2] - B[1::2] @ Dinv @ C
    V = _covariance_pass(_doubled_propagator(mid, np.zeros_like(B[1::2]), C, D, dt),
                         V0, steps, dt)
    return A[::2], B[::2] + V[:-1] @ (Dinv @ C).T, V


def kalman_correlated_step(model: LinearModel, x: np.ndarray, dz, A: np.ndarray,
                           gain: np.ndarray, dt: float) -> np.ndarray:
    """Estimate step of the correlated-noise Kalman filter:
    dXtilde = A Xtilde dt + G dWtilde with innovations
    dWtilde = D^{-1}(dZ - C Xtilde dt), where A and the gain G at the step's
    start come from ``correlated_covariance_pass``."""
    _, _, C, _, Dinv = model._compiled
    return x + A @ x * dt + gain @ (Dinv @ (dz - C @ x * dt))


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
