"""Double-pass atomic magnetometer: the exact model and its pure-state
filter, Fisher-information bounds, the small-angle Kalman model and the
particle-filter model for the field.

A probe beam crosses the collective spin twice, giving the dipole operator
L = sqrt(M) Fz + i sqrt(K) Fy and Hamiltonian
H = -B Fy - sqrt(KM) (Fz Fy + Fy Fz) / 2 on the 2F+1 dimensional space.
K = 0 recovers the single-pass magnetometer.  All rates are in units of the
chosen inverse time scale, and the field is in units of the spin's
gyromagnetic coupling (gamma = 1); the initial state is always the
spin-coherent state along +x.  ``fisher_information_fd``
steps every seed of one parameter point, each with its three shifted
fields, as one batch per increment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .operators import anticommutator, pure_to_density, spin_coherent, spin_operators
from .kalman import LinearModel
from .estimation import EstimationModel
from .trajectory import DiffusiveModel, TrajectoryRecord, sse_step_batch
from .sde import rng_stream

__all__ = [
    "DoublePassParams",
    "coherent_x",
    "double_pass_model",
    "double_pass_sse_step",
    "simulate_double_pass_truth",
    "fisher_information_fd",
    "cramer_rao_bound",
    "smallangle_kalman_model",
    "magnetometry_estimation_model",
]


# noise increments drawn per seed at a time by fisher_information_fd
_DRAW_BLOCK = 1000


@dataclass(frozen=True)
class DoublePassParams:
    """F: collective spin; M/K: first/second pass coupling strengths; B field,
    in units of the gyromagnetic coupling (gamma = 1)."""

    F: float
    M: float
    K: float
    B: float = 0.0

    def __post_init__(self):
        if self.M < 0 or self.K < 0 or self.F < 0.5:
            raise ValueError("need M >= 0, K >= 0 and F >= 1/2")


@lru_cache(maxsize=32)
def _spin_cached(two_f: int) -> dict[str, np.ndarray]:
    ops = spin_operators(two_f / 2.0)
    for a in ops.values():
        a.setflags(write=False)
    return ops


@lru_cache(maxsize=64)
def double_pass_model(params: DoublePassParams) -> DiffusiveModel:
    """Equivalent (H, L) pair of the double-pass interaction.

    Built once per parameter set; the returned arrays are read-only.
    """
    ops = _spin_cached(int(round(2 * params.F)))
    Fy, Fz = ops["Jy"], ops["Jz"]
    L = np.sqrt(params.M) * Fz + 1j * np.sqrt(params.K) * Fy
    H = -params.B * Fy - np.sqrt(params.K * params.M) * anticommutator(Fz, Fy) / 2.0
    for a in (H, L):
        a.setflags(write=False)
    return DiffusiveModel(H=H, L=L)


def double_pass_sse_step(params: DoublePassParams, psi: np.ndarray, dW, dt: float) -> np.ndarray:
    """Pure-state unraveling of the double-pass filter, the generic
    sse_step_batch for the pair double_pass_model.  On states with
    <Fy> = 0 (such as real-amplitude states, which the +x coherent state
    starts in and the flow preserves) it reads

        d psi = [ i B Fy - (M/2)(Fz - <Fz>)^2
                  + i sqrt(KM) Fy (Fz + <Fz>) - (K/2) Fy^2 ] psi dt
              + [ sqrt(M)(Fz - <Fz>) + i sqrt(K) Fy ] psi dW.

    Accepts one state or a stack of states.
    """
    model = double_pass_model(params)
    return sse_step_batch(model.G, model.channels, psi, dW, dt)


def coherent_x(F: float) -> np.ndarray:
    """Spin-coherent state along +x, the standard initial state."""
    return spin_coherent(F, np.pi / 2.0, 0.0)


def simulate_double_pass_truth(params: DoublePassParams, T: float, dt: float,
                               seed) -> TrajectoryRecord:
    """Generate a measurement record dZ = 2 sqrt(M) <Fz> dt + dW by evolving
    the pure-state filter with fresh noise from the +x coherent state.  A
    FloatingPointError from a step is raised again naming the step and the
    time it reaches."""
    # Fz is diagonal and real, so <Fz> is its diagonal against |psi|^2
    fz_diag = _spin_cached(int(round(2 * params.F)))["Jz"].diagonal().real
    psi = coherent_x(params.F)
    steps = int(round(T / dt))
    rng = rng_stream(seed)
    dWs = rng.standard_normal(steps) * np.sqrt(dt)
    dZ = np.zeros(steps)
    fz = np.zeros(steps + 1)
    fz[0] = f = fz_diag @ (psi.conj() * psi).real
    amplitude = 2.0 * np.sqrt(params.M)
    try:
        for i, w in enumerate(dWs.tolist()):
            dZ[i] = amplitude * f * dt + w
            psi = double_pass_sse_step(params, psi, w, dt)
            fz[i + 1] = f = fz_diag @ (psi.conj() * psi).real
    except FloatingPointError as e:
        raise FloatingPointError(f"{e} at step {i + 1} (t = {(i + 1) * dt:g})") from None
    return TrajectoryRecord(times=np.arange(steps + 1) * dt, dY=dZ, dW=dWs,
                            expectations={"Fz": fz})


def fisher_information_fd(params: DoublePassParams, deltaB: float, T: float, dt: float,
                          seeds) -> np.ndarray:
    """Conditional Fisher information of the field by central finite
    differences, one value per seed: for each seed, co-evolve trajectories
    at B, B+deltaB and B-deltaB from the +x coherent state on that seed's
    noise realization, and return Tr[((rho+ - rho-) / (2 deltaB))^2 rho_0],
    clipped at 0.  All seeds advance in lockstep, as one (seeds, 3, d) stack
    stepped by one ``sse_step_batch`` call per increment: the three shifted
    generators are one (3, d, d) array, stacked once, that broadcasts over
    the seeds, the shifts share the coupling's compiled channels, and noise
    is drawn in blocks of at most ``_DRAW_BLOCK`` increments per seed.  A
    FloatingPointError from a step is raised again naming the step, the time
    it reaches and the indices of the seeds whose states failed.
    """
    if deltaB <= 0:
        raise ValueError("deltaB must be positive")
    steps = int(round(T / dt))
    rngs = [rng_stream(seed) for seed in seeds]
    models = [double_pass_model(replace(params, B=params.B + dB))
              for dB in (0.0, deltaB, -deltaB)]
    G = np.stack([m.G for m in models])
    channels = models[0].channels  # L does not depend on B
    states = np.broadcast_to(coherent_x(params.F), (len(rngs), len(models), G.shape[-1]))
    try:
        for done in range(0, steps, _DRAW_BLOCK):
            dWs = np.stack([rng.standard_normal(min(_DRAW_BLOCK, steps - done)) for rng in rngs],
                           axis=1)[..., None] * np.sqrt(dt)
            for i, dW in enumerate(dWs, done):
                states = sse_step_batch(G, channels, states, dW, dt)
    except FloatingPointError as e:
        where = f"{e} at step {i + 1} (t = {(i + 1) * dt:g})"
        if hasattr(e, "slots"):  # the kernel's check; numpy's own errors name no slot
            where += f", seed indices {sorted({slot // len(models) for slot in e.slots})}"
        raise FloatingPointError(where) from None

    def info(psi0, psi_plus, psi_minus):
        drho = (pure_to_density(psi_plus) - pure_to_density(psi_minus)) / (2.0 * deltaB)
        return np.trace(drho @ drho @ pure_to_density(psi0)).real

    return np.maximum([info(*s) for s in states], 0.0)


def cramer_rao_bound(info: float) -> float:
    """Estimator deviation lower bound (1/2) <(d rho/dB)^2>^{-1/2}."""
    return 0.5 / np.sqrt(info)


# ---------------------------------------------------------------------------
# small-angle Kalman model


def smallangle_kalman_model(params: DoublePassParams) -> LinearModel:
    """Linear model for X = [theta, B] in the small-angle regime; system and
    observation share one white noise (D = 1), and ``kalman.kalman_filter``
    runs it.  A and B take a float t or an array of times.  K enters
    the variance flow A V + V A^T + B B^T - (B + V C^T)(B + V C^T)^T only
    through 2 F sqrt(KM) in A and -sqrt(K) in B, and the two cancel: the
    variances do not depend on K."""
    F, M, K = params.F, params.M, params.K
    sqM, sqK, sqKM = np.sqrt([M, K, K * M]).tolist()
    # the t-independent factors once, grouped as the expressions below evaluate them
    drift, rate = 2.0 * F * sqKM, 2.0 * F * M

    def A(t):
        out = np.zeros(np.shape(t) + (2, 2))
        out[..., 0, 0], out[..., 0, 1] = drift - M / (2.0 * (1.0 + rate * t) ** 2), 1.0
        return out

    def Bmat(t):
        out = np.zeros(np.shape(t) + (2, 1))
        out[..., 0, 0] = -sqM / (1.0 + rate * t) - sqK
        return out

    C = np.array([[-2.0 * sqM * F, 0.0]])
    D = np.array([[1.0]])
    return LinearModel(A=A, B=Bmat, C=C, D=D)


def magnetometry_estimation_model(params: DoublePassParams, prior: tuple) -> EstimationModel:
    """Particle-filter model for an unknown field B: H = B * (-Fy) plus the
    field-independent double-pass terms of the B = 0 model."""
    return EstimationModel(base=double_pass_model(replace(params, B=0.0)),
                           H0=-_spin_cached(int(round(2 * params.F)))["Jy"],
                           prior=prior,
                           rho0=pure_to_density(coherent_x(params.F)))

