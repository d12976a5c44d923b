"""Kalman-Bucy filtering for linear-Gaussian models and matrix Riccati solving.

The Riccati equation is solved by the standard linearization trick: write
P = X Y^{-1} and integrate the doubled linear system

    d/dt [X; Y] = [[A, B B^T], [C^T (D D^T)^{-1} C, -A^T]] [X; Y]

with a fixed-step classical RK4 integrator.  The filter itself advances by
explicit Euler with per-step re-symmetrization of the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sde import SdeSystem, euler_step, rng_stream

__all__ = [
    "LinearModel",
    "KalmanState",
    "kalman_step",
    "kalman_correlated_step",
    "riccati_rhs",
    "riccati_solve",
    "brownian_parameter_demo",
]

_D_CONDITION_LIMIT = 1e12


def _at(entry, t: float) -> np.ndarray:
    """Evaluate a constant or callable(t) matrix entry as a 2-d float array."""
    m = entry(t) if callable(entry) else entry
    return np.atleast_2d(np.asarray(m, dtype=float))


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

    def matrices(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return _at(self.A, t), _at(self.B, t), _at(self.C, t), _at(self.D, t)


@dataclass(frozen=True)
class KalmanState:
    estimate: np.ndarray  # n-vector pi_t[X]
    covariance: np.ndarray  # n x n symmetric P_t


def riccati_rhs(A, B, C, D, P) -> np.ndarray:
    """dP/dt = A P + P A^T - P C^T (D D^T)^{-1} C P + B B^T."""
    gain = C.T @ np.linalg.inv(D @ D.T) @ C
    return A @ P + P @ A.T - P @ gain @ P + B @ B.T


def kalman_step(model: LinearModel, state: KalmanState, dy: np.ndarray, t: float, dt: float) -> KalmanState:
    """One Euler step of the Kalman-Bucy filter.

    Innovations dVbar = D^{-1} (dy - C pi dt); estimate update
    d pi = A pi dt + P (D^{-1} C)^T dVbar; covariance advanced one Euler step
    of the Riccati equation and re-symmetrized.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A, B, C, D = model.matrices(t)
    if np.linalg.cond(D) > _D_CONDITION_LIMIT:
        raise ValueError(f"singular observation matrix D at t={t}")
    pi = np.asarray(state.estimate, dtype=float)
    P = state.covariance
    Dinv = np.linalg.inv(D)
    innovation = Dinv @ (np.atleast_1d(dy) - C @ pi * dt)
    pi_next = pi + A @ pi * dt + P @ (Dinv @ C).T @ innovation
    P_next = P + riccati_rhs(A, B, C, D, P) * dt
    P_next = 0.5 * (P_next + P_next.T)
    return KalmanState(estimate=pi_next, covariance=P_next)


def kalman_correlated_step(model: LinearModel, state: KalmanState, dz: float, t: float, dt: float) -> KalmanState:
    """Kalman step for the case where one white noise drives both the system
    and the observation: dX = A X dt + B dW, dZ = C X dt + D dW.

    Estimate: dXtilde = A Xtilde dt + (B + V C^T) dWtilde with innovations
    dWtilde = D^{-1}(dZ - C Xtilde dt); covariance flow
    Vdot = A V + V A^T + B B^T - (B + V C^T)(B + V C^T)^T.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A, B, C, D = model.matrices(t)
    if np.linalg.cond(D) > _D_CONDITION_LIMIT:
        raise ValueError(f"singular observation matrix D at t={t}")
    x = np.asarray(state.estimate, dtype=float)
    V = state.covariance
    gain = B + V @ C.T
    innovation = np.linalg.inv(D) @ (np.atleast_1d(dz) - C @ x * dt)
    x_next = x + A @ x * dt + (gain @ innovation).ravel()
    V_next = V + (A @ V + V @ A.T + B @ B.T - gain @ gain.T) * dt
    V_next = 0.5 * (V_next + V_next.T)
    return KalmanState(estimate=x_next, covariance=V_next)


def _doubled_rk4(A, B, C, D):
    """One classical RK4 step Z -> Z' of length h for the doubled linear
    system d/dt [X; Y] = [[A, B B^T], [C^T (D D^T)^{-1} C, -A^T]] [X; Y]."""
    gain = C.T @ np.linalg.inv(D @ D.T) @ C
    block = np.block([[A, B @ B.T], [gain, -A.T]])

    def step(Z: np.ndarray, h: float) -> np.ndarray:
        k1 = block @ Z
        k2 = block @ (Z + 0.5 * h * k1)
        k3 = block @ (Z + 0.5 * h * k2)
        k4 = block @ (Z + h * k3)
        return Z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    return step


def riccati_solve(A, B, C, D, P0, t: float, dt: float = 1e-3) -> np.ndarray:
    """Solve the Riccati ODE with constant coefficients up to time t.

    Integrates the doubled linear system for (X, Y) with X0 = P0, Y0 = I by
    fixed-step RK4 and returns P(t) = X Y^{-1}.

    Raises
    ------
    np.linalg.LinAlgError
        If Y(t) becomes singular along the way (message carries the time).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    P0 = np.atleast_2d(np.asarray(P0, dtype=float))
    n = A.shape[0]
    rk4 = _doubled_rk4(A, B, C, D)

    if t == 0:
        return P0.copy()
    steps = max(1, int(round(t / dt)))
    h = t / steps
    Z = np.vstack([P0, np.eye(n)])
    det_sign = 1.0
    for i in range(steps):
        Z = rk4(Z, h)
        Y = Z[n:]
        # Y starts at the identity; a vanishing or sign-flipped determinant
        # means the propagation crossed a singularity of P = X Y^{-1}
        sign, _ = np.linalg.slogdet(Y)
        if sign == 0.0 or sign != det_sign or np.linalg.cond(Y) > 1e14:
            raise np.linalg.LinAlgError(
                f"Y(t) singular at t={ (i + 1) * h :.6g} in Riccati propagation")
        if (i + 1) % 100 == 0:
            # P = X Y^{-1} is invariant under Z -> Z R; reset to [P; I] to
            # keep the exponentially growing doubled system well-conditioned
            Z = np.vstack([Z[:n] @ np.linalg.inv(Y), np.eye(n)])
    X, Y = Z[:n], Z[n:]
    P = X @ np.linalg.inv(Y)
    return 0.5 * (P + P.T)


# Matrices of the Brownian-forcing parameter estimation model: the augmented
# state is [position x, forcing parameter xi].
PARAMETER_MODEL = LinearModel(
    A=np.array([[0.0, 1.0], [0.0, 0.0]]),
    B=np.array([[1.0], [0.0]]),
    C=np.array([[1.0, 0.0]]),
    D=np.array([[1.0]]),
)


def brownian_parameter_demo(xi_true: float, T: float, dt: float, seed,
                            prior_var: float = 1e5,
                            noise_scale: float = 1.0) -> dict[str, np.ndarray]:
    """Estimate the forcing parameter of a Brownian particle.

    Truth is simulated by euler_step on dx = xi dt + dW; measurements
    dy = x dt + dV feed the Kalman estimate recursion.  Large initial
    parameter uncertainty makes the Riccati flow stiff for explicit Euler,
    so the covariance is propagated through the doubled linear system (one
    RK4 pass, done once and independent of the record) with
    P0 = diag(0, prior_var).  Returns a record with keys
    't', 'dY', 'x_true', 'x_est', 'xi_est', 'P' (stacked covariances).
    """
    truth_sys = SdeSystem(
        state_dim=1, noise_dim=1,
        drift=lambda t, x: np.array([xi_true]),
        diffusion=lambda t, x, j: np.array([1.0]),
    )
    A, B, C, D = PARAMETER_MODEL.matrices(0.0)
    rk4 = _doubled_rk4(A, B, C, D)
    rng = rng_stream(seed)
    steps = int(round(T / dt))
    rec = {
        "t": np.arange(steps + 1) * dt,
        "dY": np.zeros(steps + 1),
        "x_true": np.zeros(steps + 1),
        "x_est": np.zeros(steps + 1),
        "xi_est": np.zeros(steps + 1),
        "P": np.zeros((steps + 1, 2, 2)),
    }
    Z = np.vstack([np.diag([0.0, prior_var]), np.eye(2)])
    rec["P"][0] = Z[:2]
    pi = np.zeros(2)
    x = np.zeros(1)
    sqdt = np.sqrt(dt)
    for i in range(steps):
        P = rec["P"][i]
        dW = noise_scale * rng.standard_normal() * sqdt
        dV = noise_scale * rng.standard_normal() * sqdt
        dy = x[0] * dt + dV
        x = euler_step(truth_sys, x, i * dt, dt, np.array([dW]))
        innovation = dy - (C @ pi)[0] * dt
        pi = pi + A @ pi * dt + P @ C.T[:, 0] * innovation
        Z = rk4(Z, dt)
        P_next = Z[:2] @ np.linalg.inv(Z[2:])
        # re-normalize (P = X Y^{-1} is invariant under Z -> Z R): keeps the
        # doubled system well-conditioned over long horizons
        Z = np.vstack([P_next, np.eye(2)])
        rec["dY"][i + 1] = dy
        rec["x_true"][i + 1] = x[0]
        rec["x_est"][i + 1] = pi[0]
        rec["xi_est"][i + 1] = pi[1]
        rec["P"][i + 1] = 0.5 * (P_next + P_next.T)
    return rec
