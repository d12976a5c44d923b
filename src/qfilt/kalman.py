"""Kalman-Bucy filtering for linear-Gaussian models: one filter for the
2-state, 1-output models of both Kalman runs, and the Brownian-forcing
parameter demo.

A ``LinearModel`` has one noise vector W driving both the state and the
observation, dX = A X dt + B dW, dY = C X dt + D dW.  It is compiled once:
its constant entries are converted once, and R = D D^T is checked and
inverted once.  A and B may be callables of t, which are evaluated over a
whole time grid in one call.  Independent state and observation noises are
the block case B = [B_x, 0], D = [0, D_y].

The filter's Riccati flow is the standard one with A' = A - B D^T R^{-1} C
and process noise Q = B B^T - B D^T R^{-1} D B^T, solved by the standard
linearization trick: write P = X Y^{-1} and integrate the doubled linear
system

    d/dt [X; Y] = K [X; Y],    K = [[A', Q], [C^T R^{-1} C, -A'^T]].

One classical RK4 step of length h with K frozen is the (2n x 2n)
propagator M = I + hK + (hK)^2/2 + (hK)^3/6 + (hK)^4/24.  The covariance
does not depend on the record, so the whole covariance pass is the Moebius
map P' = (M11 P + M12)(M21 P + M22)^{-1} of the step Z = [P; I] -> M Z,
walked before the record loop.  A constant model takes one M for every
step; a time-dependent one takes one M per step, with K frozen at the
step's midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sde import SdeSystem, euler_step, rng_stream

__all__ = [
    "LinearModel",
    "covariance_pass",
    "kalman_correlated_step",
    "kalman_filter",
    "brownian_parameter_demo",
]

_D_CONDITION_LIMIT = 1e12


def _constant(entry) -> np.ndarray:
    m = np.atleast_2d(np.array(entry, dtype=float))
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class LinearModel:
    """dX = A X dt + B dW,  dY = C X dt + D dW, with one noise vector W.

    A and B may be constant arrays or callables of t returning arrays, a
    stack of them over an array t.  C and D are constant, and D must have
    full row rank (condition number < 1e12), so that R = D D^T is
    invertible.
    """

    A: object
    B: object
    C: object
    D: object

    @cached_property
    def _compiled(self) -> tuple:
        """(A, B, C, D, R^{-1}) with each constant entry a read-only 2-d
        array, built on first use; callable A and B are kept.  Raises
        ValueError if D is singular."""
        A, B = (e if callable(e) else _constant(e) for e in (self.A, self.B))
        C, D = _constant(self.C), _constant(self.D)
        if np.linalg.cond(D) > _D_CONDITION_LIMIT:
            raise ValueError("singular observation matrix D")
        return A, B, C, D, _constant(np.linalg.inv(D @ D.T))

    def at(self, t) -> tuple:
        """(A, B, C, D, R^{-1}) at t, a float or an array of times."""
        A, B, C, D, Rinv = self._compiled
        A, B = [np.asarray(e(t), dtype=float) if callable(e) else e for e in (A, B)]
        return A, B, C, D, Rinv


def _raise_if_nonfinite(what: str, rows, dt: float) -> None:
    """Raise FloatingPointError naming the first step, and its end time, whose
    row of ``rows`` is not finite; row i holds the state after step i + 1."""
    finite = np.isfinite(rows)
    bad = ~finite.all(axis=tuple(range(1, finite.ndim)))
    if bad.any():
        step = int(np.argmax(bad)) + 1
        raise FloatingPointError(f"non-finite {what} at step {step} (t = {step * dt:g})")


def _doubled_propagator(A, Q, S, h: float) -> np.ndarray:
    """The classical RK4 step Z -> M Z of length h for the doubled linear
    system d/dt [X; Y] = K [X; Y], K = [[A, Q], [S, -A^T]]:
    M = I + hK + (hK)^2/2 + (hK)^3/6 + (hK)^4/24 = R(hK).  Stacks of A and Q
    (leading axis: steps) give the stack of per-step M.

    Raises ValueError, naming h, unless each M contracts every decaying mode
    of its K: |R(h lambda)| < 1 for each eigenvalue lambda with
    Re lambda < 0.  Real parts within 1e-6 max |h lambda| of zero count as
    neutral, since a defective zero eigenvalue is computed only to about
    sqrt(eps).
    """
    n = A.shape[-1]
    hK = np.empty(A.shape[:-2] + (2 * n, 2 * n))
    hK[..., :n, :n], hK[..., n:, n:] = A, -np.swapaxes(A, -1, -2)
    hK[..., :n, n:], hK[..., n:, :n] = Q, S
    hK *= h
    z = np.linalg.eigvals(hK)
    z = z[z.real < -1e-6 * np.abs(z).max(axis=-1, keepdims=True)]
    growth = np.abs(1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0)
    if np.any(growth >= 1.0):
        raise ValueError(f"dt = {h:g} is outside the RK4 stability range of the covariance"
                         f" propagator: a decaying mode grows by {growth.max():.4g} per step")
    hK2 = hK @ hK
    return np.eye(2 * n) + hK + hK2 / 2.0 + hK2 @ hK / 6.0 + hK2 @ hK2 / 24.0


# The Brownian-forcing parameter estimation model: the augmented state is
# [position x, forcing parameter xi], and W = (dW, dV) holds the forcing
# noise of x and the observation noise.
PARAMETER_MODEL = LinearModel(
    A=np.array([[0.0, 1.0], [0.0, 0.0]]),
    B=np.array([[1.0, 0.0], [0.0, 0.0]]),
    C=np.array([[1.0, 0.0]]),
    D=np.array([[0.0, 1.0]]),
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
    Ms = M.reshape(-1, 16).tolist() * (steps if M.ndim == 2 else 1)  # one M serves every step
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
    _raise_if_nonfinite("covariance", P[1:], h)
    return P


def covariance_pass(model: LinearModel, V0: np.ndarray, steps: int,
                    dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariance pass of the Kalman-Bucy filter for a 2-state, 1-output
    model: the Riccati flow of A' = A - B D^T R^{-1} C with process noise
    Q = B B^T - B D^T R^{-1} D B^T through the doubled-system propagator,
    one for a constant model, else one per step with K frozen at the step's
    midpoint t + dt/2.  Returns A and the gain G = (V C^T + B D^T) R^{-1}
    at each step's start t = k dt (A is a single matrix for a constant
    model), and the covariances V_0 .. V_steps.  Raises as
    ``_doubled_propagator`` and ``_covariance_pass`` do.
    """
    A, B, C, D, Rinv = model.at(np.arange(2 * steps) * (dt / 2.0))
    mid = A, B
    if A.ndim > 2 or B.ndim > 2:
        # even entries are the step starts, odd ones the midpoints
        A, B = (np.broadcast_to(e, (2 * steps,) + e.shape[-2:]) for e in (A, B))
        (A, B), mid = (A[::2], B[::2]), (A[1::2], B[1::2])
    Am, Bm = mid
    BmT, BDR = np.swapaxes(Bm, -1, -2), Bm @ D.T @ Rinv
    M = _doubled_propagator(Am - BDR @ C, Bm @ BmT - BDR @ D @ BmT, C.T @ Rinv @ C, dt)
    V = _covariance_pass(M, V0, steps, dt)
    return A, (V[:-1] @ C.T + B @ D.T) @ Rinv, V


def kalman_correlated_step(x: tuple, dY: list, As: list, G: list, c: list,
                           dt: float) -> list:
    """Estimate pass of the 2-state, 1-output filter on Python floats: from
    x = (x0, x1), one step x' = x + A x dt + G (dy - C x dt) per increment
    dy of dY, with A = ((a0, a1), (a2, a3)) and the gain G = (g0, g1) of
    that step's start taken from As and G, and C = (c0, c1).  Returns the
    estimates [x, x_1, ..., x_steps] as (x0, x1) pairs."""
    (x0, x1), (c0, c1) = x, c
    rows = [(x0, x1)]
    for dy, (a0, a1, a2, a3), (g0, g1) in zip(dY, As, G):
        innovation = dy - (c0 * x0 + c1 * x1) * dt
        x0, x1 = (x0 + (a0 * x0 + a1 * x1) * dt + g0 * innovation,
                  x1 + (a2 * x0 + a3 * x1) * dt + g1 * innovation)
        rows.append((x0, x1))
    return rows


def kalman_filter(model: LinearModel, V0: np.ndarray, dY: np.ndarray,
                  dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Kalman-Bucy filter of a 2-state, 1-output model over the increments
    dY (steps,), from the estimate 0 with covariance V0: ``covariance_pass``,
    then the estimate pass ``kalman_correlated_step`` over the record.
    Returns the estimates (steps + 1, 2) and covariances (steps + 1, 2, 2);
    row i holds the state after step i.  Raises as ``covariance_pass``
    does, then FloatingPointError at the first non-finite estimate.
    """
    steps = len(dY)
    A, G, V = covariance_pass(model, V0, steps, dt)
    As = A.reshape(-1, 4).tolist() * (steps if A.ndim == 2 else 1)  # one A serves every step
    X = np.array(kalman_correlated_step((0.0, 0.0), dY.tolist(), As, G.reshape(steps, 2).tolist(),
                                        model._compiled[2].ravel().tolist(), dt))
    _raise_if_nonfinite("estimate", X[1:], dt)
    return X, V


def brownian_parameter_demo(xi_true: float, T: float, dt: float, seed,
                            prior_var: float = 1e5) -> dict[str, np.ndarray]:
    """Estimate the forcing parameter of a Brownian particle.

    Truth is simulated by euler_step on dx = xi dt + dW, with measurements
    dy = x dt + dV; the noise is drawn as one (steps, 2) array of (dW, dV)
    pairs, the two components of PARAMETER_MODEL's W.  The record then runs
    through ``kalman_filter`` with P0 = diag(0, prior_var).  Returns a
    record with keys 't', 'dY', 'x_true', 'x_est', 'xi_est', 'P' (stacked
    covariances).  Raises FloatingPointError at the first non-finite truth,
    then as ``kalman_filter`` does: ValueError, naming dt, if RK4 at dt
    does not contract every decaying mode of the doubled system,
    FloatingPointError at the first non-finite covariance or estimate, and
    LinAlgError where the covariance pass meets a singular Y, each naming
    its step and t.
    """
    drift, diffusion = np.array([xi_true]), np.array([1.0])
    truth_sys = SdeSystem(state_dim=1, noise_dim=1, drift=lambda t, x: drift,
                          diffusion=lambda t, x, j: diffusion)
    noise = rng_stream(seed).standard_normal((int(round(T / dt)), 2)) * np.sqrt(dt)
    x, out = np.zeros(1), [(0.0, 0.0)]
    try:
        for i, (dW, dV) in enumerate(noise.tolist()):
            dy = x[0] * dt + dV
            x = euler_step(truth_sys, x, i * dt, dt, np.array([dW]))
            out.append((dy, x[0]))
    except FloatingPointError as e:
        raise FloatingPointError(f"{e} at step {i + 1} (t = {(i + 1) * dt:g})") from None
    dY, x_true = np.array(out).T
    X, P = kalman_filter(PARAMETER_MODEL, np.diag([0.0, prior_var]), dY[1:], dt)
    return {"t": np.arange(len(dY)) * dt, "dY": dY, "x_true": x_true,
            "x_est": X[:, 0], "xi_est": X[:, 1], "P": P}
