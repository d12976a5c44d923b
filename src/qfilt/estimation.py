"""Bayesian parameter estimation from continuous measurement records.

A field B on the monitored qubit (H = B sigma_y, L = sqrt(kappa) sigma_z)
is estimated by an ensemble of weighted "quantum particles" (B_i, theta_i),
theta_i the particle's Bloch angle from +x.  The ensemble is the joint
(parameter x system) filter rho = sum_i p_i |B_i><B_i| (x) rho_i, an
ordinary SME, and by Ito's quotient rule every particle filters the record
increment dM on its own innovation

    dW_i = dM - c_i dt,    c_i = Tr[(L + L^dag) rho_i] = 2 sqrt(kappa) sin(theta_i),

while the weights follow the joint filter's block traces,

    dp_i = (c_i - cbar) p_i (dM - cbar dt),    cbar = sum_j p_j c_j.

Each particle steps its scalar Bloch-angle filter on dM.  Degeneracy is
monitored with the effective sample size 1/sum(p^2) and relieved by
Liu-West kernel resampling, in which parameter and Bloch angle resample
jointly.

A finite set of candidate fields on the monitored qubit (H = B sigma_y,
L = sqrt(kappa) sigma_z) needs no particles: in reference-probability form
each candidate's unnormalized pure state stays real, one step is the fixed
2x2 map M_k = I + G_B dt + sqrt(kappa) sigma_z dY_k, and the weights are the
likelihoods |M_n ... M_1 psi_0|^2, formed by ``finite_set_filter`` as a
product scan with no per-step Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import dag
from .trajectory import TrajectoryRecord, bloch_angle_step
from .sde import rng_stream, stream_seed

__all__ = [
    "ParticleEnsemble",
    "QubitMagnetometerModel",
    "DegenerateEnsembleError",
    "sample_prior",
    "ensemble_step",
    "effective_sample_size",
    "liu_west_resample",
    "particle_filter_run",
    "observable_space_dim",
    "extended_estimation_operators",
    "simulate_qubit_record",
    "finite_set_filter",
    "qubit_finite_set_batch",
]


class DegenerateEnsembleError(RuntimeError):
    """All particle weights collapsed to zero."""


@dataclass
class ParticleEnsemble:
    """Weighted set of (parameter, conditional state) pairs; ``states``
    holds the (N,) float Bloch angles of the monitored qubit."""

    weights: np.ndarray
    params: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        n = len(self.weights)
        if len(self.params) != n or len(self.states) != n:
            raise ValueError("weights, params and states must have equal length")
        # written so that a NaN weight fails both tests
        if not (abs(self.weights.sum() - 1.0) <= 1e-9 and self.weights.min() >= 0.0):
            raise ValueError("weights must be a normalized probability vector")

    @classmethod
    def _normalized(cls, weights: np.ndarray, params: np.ndarray,
                    states: np.ndarray) -> ParticleEnsemble:
        """An ensemble whose weights the caller has just clipped at zero and
        divided by their finite, positive sum, so ``__post_init__``'s sum
        and min over them are skipped."""
        ens = object.__new__(cls)
        ens.weights, ens.params, ens.states = weights, params, states
        return ens

    @property
    def count(self) -> int:
        return len(self.weights)

    def mean(self) -> float:
        return float(self.weights @ self.params)

    def variance(self, mean: float | None = None) -> float:
        """Weighted variance about ``mean``, by default the ensemble's own,
        for a caller that already holds it."""
        m = self.mean() if mean is None else mean
        return float(self.weights @ (self.params - m) ** 2)


@dataclass(frozen=True)
class QubitMagnetometerModel:
    """Monitored qubit with H = B sigma_y, L = sqrt(kappa) sigma_z, states
    parameterized by the Bloch angle from +x (initially 0)."""

    kappa: float
    prior: tuple


def sample_prior(prior: tuple, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw n parameter values and uniform initial weights from a prior spec:
    ("finite", values), one particle per value, or ("gaussian", mu, var).
    Any other spec, a finite one with a third entry included, is refused."""
    if prior[0] == "finite" and len(prior) == 2:
        values = np.array(prior[1], dtype=float)
        if n != len(values):
            raise ValueError("finite prior requires one particle per support point")
    elif prior[0] == "gaussian" and len(prior) == 3:
        values = prior[1] + np.sqrt(prior[2]) * rng.standard_normal(n)
    else:
        raise ValueError(f"a prior is ('finite', values) or ('gaussian', mu, var), not {prior!r}")
    return values, np.full(n, 1.0 / n)


def ensemble_step(model: QubitMagnetometerModel, ens: ParticleEnsemble, dM: float,
                  dt: float) -> ParticleEnsemble:
    """Advance the full ensemble by one measurement increment dM.

    Each Bloch angle is stepped by its scalar filter on dM (see the module
    docstring); weights are updated, clipped at zero and renormalized.
    """
    # each particle's expectation of the measured observable L + L^dag
    c = 2.0 * math.sqrt(model.kappa) * np.sin(ens.states)
    cbar = float(ens.weights @ c)
    w = ens.weights * (1.0 + (c - cbar) * (dM - cbar * dt))
    np.maximum(w, 0.0, out=w)
    total = w.sum()
    if not 0.0 < total < math.inf:
        raise DegenerateEnsembleError("all particle weights collapsed to zero")
    w /= total
    states = bloch_angle_step(ens.states, dM, ens.params, model.kappa, dt, signal=c)
    return ParticleEnsemble._normalized(w, ens.params, states)


def effective_sample_size(weights: np.ndarray) -> float:
    """N_eff = 1 / sum(p_i^2); lies in [1, N] for normalized weights."""
    weights = np.asarray(weights, dtype=float)
    # written so that a NaN weight fails both tests
    if not (abs(weights.sum() - 1.0) <= 1e-6 and weights.min() >= 0.0):
        raise ValueError("weights must be normalized and non-negative")
    return float(1.0 / (weights @ weights))


def liu_west_resample(ens: ParticleEnsemble, a: float, h: float, rng) -> ParticleEnsemble:
    """Kernel resampling: sample source particles from the weights, then draw
    children of the (parameter, Bloch angle) pairs x from 2-d Gaussian
    kernels with mean a*x + (1-a)*xbar and covariance h^2 * V_t, V_t the
    pairs' weighted covariance.  Children carry weight 1/N.
    """
    if not (0.0 <= a <= 1.0) or h < 0.0:
        raise ValueError("need 0 <= a <= 1 and h >= 0")
    total = ens.weights.sum()
    if total <= 0:
        raise DegenerateEnsembleError("cannot resample an ensemble with zero weight")
    n = ens.count
    idx = rng.choice(n, size=n, p=ens.weights / total)
    xy = np.stack([ens.params, ens.states], axis=1)
    mean = ens.weights @ xy
    centered = xy - mean
    cov = (ens.weights[:, None] * centered).T @ centered
    kernel_mean = a * xy[idx] + (1.0 - a) * mean
    w_cov, v_cov = np.linalg.eigh(h * h * cov)
    root = v_cov * np.sqrt(np.clip(w_cov, 0.0, None))
    children = kernel_mean + rng.standard_normal((n, 2)) @ root.T
    return ParticleEnsemble(weights=np.full(n, 1.0 / n), params=children[:, 0],
                            states=children[:, 1])


def _check_bloch_angle_dt(kappa: float, dt: float) -> None:
    """Raise ValueError unless kappa dt < 1, the range in which the Euler
    drift kappa sin(2 theta) contracts at its stable points theta = +-pi/2
    (|1 - 2 kappa dt| < 1); beyond it the angle only wraps around under sin,
    so a run would finish with no non-finite value to stop it."""
    if not kappa * dt < 1.0:  # NaN fails too
        raise ValueError(f"kappa * dt = {kappa * dt:g} is outside the Euler stability range"
                         " kappa * dt < 1 of the Bloch-angle filter")


def particle_filter_run(model: QubitMagnetometerModel, record: TrajectoryRecord, N: int,
                        a: float, h: float, threshold: float, seed) -> dict:
    """Resampling quantum particle filter over a stored measurement record.

    Initializes N particles from the model prior, steps the ensemble through
    every increment of the record, and resamples whenever N_eff/N drops below
    ``threshold`` (never if it is 0).  Returns the posterior trace (mean and
    sd per step), the final estimate and uncertainty, and the resample count.
    Deterministic given (record, seed).  Raises ValueError unless
    kappa dt < 1, and, once the prior is drawn, unless every particle's
    field keeps the truth record's rule 2 |B_i| dt < 1.
    """
    rng = rng_stream(seed)
    dt = float(record.times[1] - record.times[0])
    _check_bloch_angle_dt(model.kappa, dt)
    params, weights = sample_prior(model.prior, N, rng)
    if not 2.0 * np.abs(params).max() * dt < 1.0:  # NaN fails too
        raise ValueError(f"2 max |B_i| * dt = {2.0 * np.abs(params).max() * dt:g} is outside"
                         " the range 2 |B| * dt < 1 of the Bloch-angle particles")
    ens = ParticleEnsemble(weights=weights, params=params, states=np.zeros(N))
    means, sds = [ens.mean()], [math.sqrt(ens.variance())]
    n_resamples = 0
    for dM in record.dY.tolist():
        ens = ensemble_step(model, ens, dM, dt)
        if threshold > 0 and effective_sample_size(ens.weights) < threshold * N:
            ens = liu_west_resample(ens, a, h, rng)
            n_resamples += 1
        means.append(ens.mean())
        sds.append(math.sqrt(ens.variance(means[-1])))
    return {
        "estimate": means[-1],
        "uncertainty": sds[-1],
        "mean_trace": np.array(means),
        "sd_trace": np.array(sds),
        "n_resamples": n_resamples,
        "ensemble": ens,
    }


# ---------------------------------------------------------------------------
# observability


# a new direction is kept when its residual after Gram-Schmidt exceeds this
# share of its norm: far above the ~1e-15 rounding of the products, far below
# any physical coupling ratio
_RANK_TOL = 1e-9


def observable_space_dim(H: np.ndarray, L: np.ndarray) -> tuple[int, np.ndarray]:
    """Dimension and Hilbert-Schmidt-orthonormal basis of the observable space.

    Iterates Z_0 = span{I}, Z_n = span{Z_{n-1}, generator[Z_{n-1}], K[Z_{n-1}]}
    with K[X] = L^dag X + X L until the span closes.  The filter is observable
    iff the returned dimension equals dim^2 of the ambient operator space.
    """
    d = H.shape[0]
    Ld = dag(L)
    LdL = Ld @ L
    vecs = [np.eye(d, dtype=complex).ravel() / np.sqrt(d)]
    frontier = [np.eye(d, dtype=complex)]
    while True:
        new_ops = []
        for X in frontier:
            new_ops.append(1j * (H @ X - X @ H) + Ld @ X @ L - 0.5 * (LdL @ X + X @ LdL))
            new_ops.append(Ld @ X + X @ L)
        frontier = []
        for op in new_ops:
            v = op.ravel().astype(complex)
            for b in vecs:
                v = v - (b.conj() @ v) * b
            norm = np.linalg.norm(v)
            if norm > _RANK_TOL * max(1.0, np.linalg.norm(op)):
                v = v / norm
                vecs.append(v)
                frontier.append(v.reshape(d, d))
        if not frontier:
            break
    basis = np.array([v.reshape(d, d) for v in vecs])
    return len(vecs), basis


def extended_estimation_operators(H0: np.ndarray, L: np.ndarray,
                                  values) -> tuple[np.ndarray, np.ndarray]:
    """Operators of the extended (parameter (x) system) filtering problem:
    H = Xi (x) H0 with Xi = diag(values), and L = I (x) L."""
    values = np.asarray(values, dtype=float)
    Xi = np.diag(values).astype(complex)
    Hext = np.kron(Xi, H0)
    Lext = np.kron(np.eye(len(values), dtype=complex), L)
    return Hext, Lext


# ---------------------------------------------------------------------------
# Qubit-magnetometer harnesses.  The finite-set estimator multiplies 2x2 maps
# stored as component arrays (a, b, c, d) of [[a, b], [c, d]] on axis 0.

# candidate-steps of 2x2 maps materialized per tree call: 2^17 maps of four
# doubles are 4 MB (2^15 steps at four candidates), whatever the horizon
_SCAN_MAPS = 1 << 17
# chunks per call: the prefix scan holds a few (4, candidates, chunks) arrays,
# so short chunks (a small store_every) must not fill a call with columns
_SCAN_CHUNKS = 1 << 12


def _product(L, R) -> tuple[np.ndarray, np.ndarray]:
    """Products L @ R of component-stacked 2x2 maps, each rescaled to max-abs
    1, and the logs of the scales."""
    P = np.stack([L[i] * R[j] + L[i + 1] * R[j + 2] for i in (0, 2) for j in (0, 1)])
    scale = np.maximum(P.max(axis=0), -P.min(axis=0))
    return P / scale, np.log(scale)


def _tree_product(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time-ordered products of the maps X (4, C, m, n), step order along the
    last axis, by pairwise levels with the later step on the left: the
    (4, C, m) products at max-abs 1 and the (C, m) logs of their scales."""
    logs = np.zeros(X.shape[1:3])
    while X.shape[3] > 1:
        P, s = _product(X[..., 1::2], X[..., :-1:2])
        logs += s.sum(axis=2)
        X = np.concatenate([P, X[..., -1:]], axis=3) if X.shape[3] % 2 else P
    return X[..., 0], logs


def _prefix_products(Q: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix products Q_j ... Q_0 of the maps Q (4, C, m) with log scales
    (C, m), by doubling strides."""
    d = 1
    while d < Q.shape[2]:
        P, s = _product(Q[..., d:], Q[..., :-d])
        Q = np.concatenate([Q[..., :d], P], axis=2)
        logs = np.concatenate([logs[:, :d], logs[:, d:] + logs[:, :-d] + s], axis=1)
        d *= 2
    return Q, logs


def finite_set_filter(kappa: float, B_values, record: TrajectoryRecord,
                      store_every: int = 0) -> dict:
    """Optimal estimator of a field known to take one of B_values, under a
    uniform prior, on the monitored-qubit record (H = B sigma_y,
    L = sqrt(kappa) sigma_z, psi_0 = +x).

    Candidate i carries the unnormalized real state psi_i = M_n ... M_1 psi_0
    of the maps M_k = I + G_B dt + sqrt(kappa) sigma_z dY_k,
    G_B = [[-kappa/2, -B], [B, -kappa/2]], and the log-weight
    log p_i + 2 log|psi_i|.  The maps of each ``store_every``-aligned chunk
    are reduced by a balanced tree, several chunks per call, and the chunk
    products are chained by a prefix scan onto the carried state psi e_1^T.
    The Rouchon-Ralph term (1/2) L^2 (dY^2 - dt) is left out: L^2 = kappa I,
    so to leading order it scales every candidate's state by the same factor.
    Returns the final weights and, if store_every > 0, snapshot "times" (the
    record times at multiples of store_every) and "weights" of shape
    (n_snaps, len(B_values)).  Raises FloatingPointError naming the first
    step of the first chunk whose product is not finite, counted from 1 as in
    every other run, and the time that step reaches.
    """
    B = np.asarray(B_values, dtype=float)[:, None]
    dt = float(record.times[1] - record.times[0])
    steps, C = len(record.dY), len(B)
    every, cap = store_every or steps, max(1, _SCAN_MAPS // C)
    # psi_0 e_1^T with psi_0 = (1, 1) up to the shared 1/sqrt(2)
    carry = np.tile(np.array([1.0, 0.0, 1.0, 0.0])[:, None, None], (1, C, 1))
    logs = lognorms = np.zeros((C, 1))
    snaps, start = [], 0
    while start < steps:
        # whole chunks per call; a chunk longer than the cap spans several calls
        reach = (min(cap - cap % every, _SCAN_CHUNKS * every) if every <= cap
                 else min(cap, every - start % every))
        seg = min(steps - start, reach, every)
        n = min(steps - start, reach) // seg * seg
        sdY, diag = np.sqrt(kappa) * record.dY[start:start + n], 1.0 - 0.5 * kappa * dt
        X = np.stack(np.broadcast_arrays(diag + sdY, -B * dt, B * dt, diag - sdY))
        Q, chunk_logs = _tree_product(X.reshape(4, C, n // seg, seg))
        R, logs = _prefix_products(np.concatenate([carry, Q], axis=2),
                                   np.concatenate([logs[:, -1:], chunk_logs], axis=1))
        # column j >= 1 holds psi after chunk j; a non-finite chunk spoils every later column
        lognorms = logs + np.log(np.hypot(R[0], R[2]))
        bad = ~np.isfinite(lognorms).all(axis=0)
        if bad.any():
            step = start + seg * (int(np.argmax(bad)) - 1) + 1
            raise FloatingPointError(f"finite-set filter: non-finite map product in the chunk"
                                     f" from step {step} (t = {record.times[step]:g})")
        if store_every:
            snaps.append(lognorms[:, 1:][:, (start + seg * np.arange(1, n // seg + 1)) % every == 0])
        carry, start = R[..., -1:], start + n

    def weights(lognorms):
        # 2 log|psi_i| up to a shared constant; the uniform log p_i cancels
        w = np.exp(2.0 * (lognorms - lognorms.max(axis=0)))
        return (w / w.sum(axis=0)).T

    out = {"final_weights": weights(lognorms[:, -1])}
    if store_every:
        out.update(times=record.times[store_every::store_every],
                   weights=weights(np.concatenate(snaps, axis=1)))
    return out


def simulate_qubit_record(kappa: float, B_true: float, T: float, dt: float, seed) -> TrajectoryRecord:
    """Measurement record of a monitored qubit starting from +x, generated by
    the scalar Bloch-angle filter driven with fresh noise, stepped on Python
    floats.  Raises ValueError unless kappa dt < 1 and 2 |B_true| dt < 1:
    past a radian of precession per step the record only aliases the field."""
    _check_bloch_angle_dt(kappa, dt)
    if not 2.0 * abs(B_true) * dt < 1.0:  # NaN fails too
        raise ValueError(f"2 |B_true| * dt = {2.0 * abs(B_true) * dt:g} is outside the range"
                         " 2 |B_true| * dt < 1 of the Bloch-angle truth")
    steps = int(round(T / dt))
    rng = rng_stream(seed)
    dW = rng.standard_normal(steps) * np.sqrt(dt)
    amplitude = 2.0 * math.sqrt(kappa)
    theta = 0.0
    dY = []
    for w in dW.tolist():
        signal = amplitude * math.sin(theta)
        dY.append(signal * dt + w)
        theta = bloch_angle_step(theta, dY[-1], B_true, kappa, dt, signal)
    return TrajectoryRecord(times=np.arange(steps + 1) * dt, dY=np.array(dY), dW=dW)


def qubit_finite_set_batch(kappa: float, B_values, B_true: float, T: float, dt: float,
                           seed, store_every: int = 0) -> dict:
    """Finite-set estimator (``finite_set_filter``) on the candidate fields
    B_values, run on a truth record at B_true drawn from stream (seed, 0);
    the estimator itself draws no random numbers.

    Returns the final weights (len(B_values),) and, if store_every > 0,
    snapshot "times" and "weights" of shape (n_snaps, len(B_values)).
    """
    return finite_set_filter(kappa, B_values, simulate_qubit_record(
        kappa, B_true, T, dt, stream_seed(seed, 0)), store_every)
