"""Continuous-measurement quantum trajectories: the diffusive quantum filter
in density-matrix (SME) and pure-state (SSE) form, truth simulation, and the
scalar Bloch-angle filter for a monitored qubit.

The filter for a system with Hamiltonian H and coupling operator L is

    d rho = -i[H, rho] dt + D[L] rho dt + M[L] rho dW,
    dW = dY - Tr[(L + L^dag) rho] dt,

and its pure-state unraveling is d|psi> = A |psi> dt + B |psi> dW with
B = L - <L> and A = -iH - (L^dag L - 2 <L^dag> L + <L><L^dag>) / 2.

Every diffusive model ``qfilt run`` steps has one coupling L, so these
filter steps condition on one record: the density-matrix filter is stepped
by ``sme_step_batch`` and the pure-state filter by ``sse_step_batch`` (the
QEC filter, with its several generators and unmonitored noise, steps its
own Pauli-coefficient form in ``qec``).  Both take their coupling compiled
once by ``compile_channels`` into one dense form, L, L^dag, L^dag L / 2 and
the signal operator L + L^dag, and in place of H the drift generator
G = -iH - L^dag L / 2 (``Channels.generator``).  A ``DiffusiveModel``
compiles its coupling and its generator once (``channels``, ``G``), and
every density-matrix and pure-state filter of a model steps those and reads
its signal from them.

Both kernels step states in lockstep over numpy's leading axes, one
trajectory per slot, each of which must draw from its own noise stream: a
single state has no leading axis, a batch has one or more, and a per-slot G
or increment broadcasts against them.  No per-increment contraction goes
through ``np.einsum``, whose call overhead exceeds the arithmetic at these
sizes.  A failure names the row-major slots.
Steps renormalize trace/norm and re-Hermitize every step;
Euler-Maruyama is the scheme, with dt = 1e-5 by default in the problem's
inverse-rate units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .operators import SIGMA_Y, SIGMA_Z, dag
from .sde import rng_stream

__all__ = [
    "Channels",
    "DiffusiveModel",
    "TrajectoryRecord",
    "qubit_model",
    "compile_channels",
    "sme_step_batch",
    "sse_step_batch",
    "simulate_truth",
    "bloch_angle_step",
]


@dataclass(frozen=True)
class DiffusiveModel:
    """Hamiltonian/coupling pair of one diffusive measurement channel, the
    compiled filter model: ``channels`` holds L, L^dag, L^dag L / 2 and the
    signal operator L + L^dag, and ``G`` the drift generator
    -iH - L^dag L / 2, each compiled on first use and kept for the model's
    lifetime.  H and L must not be mutated afterwards."""

    H: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        if self.H.shape != self.L.shape or self.H.ndim != 2:
            raise ValueError("H and L must be square matrices of equal dimension")
        if np.max(np.abs(self.H - dag(self.H))) > 1e-12 * max(1.0, np.max(np.abs(self.H))):
            raise ValueError("Hamiltonian must be Hermitian")

    @cached_property
    def channels(self) -> Channels:
        return compile_channels(self.L)

    @cached_property
    def G(self) -> np.ndarray:
        return self.channels.generator(self.H)


def qubit_model(kappa: float, B: float) -> DiffusiveModel:
    """Qubit in a magnetic field: H = B sigma_y, L = sqrt(kappa) sigma_z."""
    return DiffusiveModel(H=B * SIGMA_Y, L=np.sqrt(kappa) * SIGMA_Z)


@dataclass
class TrajectoryRecord:
    """Measurement record of a simulated trajectory.

    ``dY[i] - signal[i] * dt == dW[i]`` holds exactly by construction,
    where signal is the filtered expectation of L + L^dag.
    """

    times: np.ndarray
    dY: np.ndarray
    dW: np.ndarray
    expectations: dict[str, np.ndarray] = field(default_factory=dict)


class Channels(NamedTuple):
    """One monitored coupling compiled once for the filter steps, each part
    (d, d): ``L``, its adjoint ``Ld``, ``K`` = L^dag L / 2 and the signal
    operator ``S`` = L + L^dag."""

    L: np.ndarray
    Ld: np.ndarray
    K: np.ndarray
    S: np.ndarray

    def signal(self, rho: np.ndarray) -> np.ndarray:
        """Tr[(L + L^dag) rho], one value per slot over the states' leading
        axes.  S is Hermitian, so the trace is the conjugating dot product
        of the flattened S and rho."""
        return np.vecdot(self.S.reshape(-1), rho.reshape(*rho.shape[:-2], -1)).real

    def generator(self, H: np.ndarray) -> np.ndarray:
        """The drift generator -iH - L^dag L / 2 of a Hamiltonian H, one
        matrix or a stack, that the filter steps take."""
        return -1j * H - self.K


def compile_channels(L: np.ndarray) -> Channels:
    """Compile one monitored coupling L (d, d) for the filter steps."""
    Ld = L.T.conj()
    return Channels(L, Ld, 0.5 * (Ld @ L), L + Ld)


def _raise_nonfinite(what: str, kernel: str, finite: np.ndarray):
    """Raise FloatingPointError naming the row-major slots where ``finite``
    (one flag per slot, over the states' leading axes) is False; the slot
    list is also kept as the error's ``slots``."""
    slots = np.flatnonzero(~finite).tolist()
    err = FloatingPointError(f"non-finite {what} in {kernel} at slots {slots}")
    err.slots = slots
    raise err


def sme_step_batch(G: np.ndarray, L: Channels, rho: np.ndarray,
                   dY: np.ndarray | float, dt: float,
                   signal: np.ndarray | None = None) -> np.ndarray:
    """One Euler step of the quantum filter on density matrices rho
    (..., d, d), whose leading axes are the batch: a single state has none.

    L is the monitored coupling compiled once by ``compile_channels``,
    shared by every slot; dY holds one increment per slot, and a float is
    shared by every slot.  G is the drift generator -iH - L^dag L / 2
    (``DiffusiveModel.G`` or ``L.generator(H)``), one matrix or one per
    slot, broadcast against the states.  The step is written as

        rho' = rho + A rho + rho A^dag + L rho L^dag dt - s dW rho,
        A = G dt + dW L,

    with s = Tr[(L + L^dag) rho] and dW = dY - s dt, which is the Euler step
    of the SME term by term (the first-order part of the Kraus form
    M rho M^dag with M = I + A).  ``signal``, if given, is s per slot from a
    caller that already has it.  Trace is renormalized and Hermiticity
    enforced after the step; a non-finite entry, checked before the
    division, raises FloatingPointError naming the row-major batch slots.
    """
    if signal is None:
        signal = L.signal(rho)
    dW = dY - signal * dt
    Arho = (G * dt + dW[..., None, None] * L.L) @ rho
    out = rho + Arho + Arho.swapaxes(-1, -2).conj() - (signal * dW)[..., None, None] * rho
    out += (L.L @ rho @ L.Ld) * dt
    out = 0.5 * (out + out.swapaxes(-1, -2).conj())
    tr = out.diagonal(0, -2, -1).sum(axis=-1).real
    # every entry, not just the trace: a finite trace over non-finite
    # off-diagonal parts would leave NaN after the division
    if not np.isfinite(out).all():
        _raise_nonfinite("density matrix", "sme_step_batch", np.isfinite(out).all(axis=(-2, -1)))
    return out / tr[..., None, None]


def sse_step_batch(G: np.ndarray, channels: Channels, psi: np.ndarray,
                   dW: np.ndarray | float, dt: float) -> np.ndarray:
    """One Euler step of the stochastic Schrodinger equation on state
    vectors psi (..., d), whose leading axes are the batch, driven directly
    by the innovation increment dW, which broadcasts against those axes.

    ``channels`` is one compiled coupling (``DiffusiveModel.channels``), so
    a call forms no operator product.  G is the drift generator
    -iH - L^dag L / 2 (``DiffusiveModel.G``), one matrix or one per slot,
    broadcast against the states.  A non-finite norm raises
    FloatingPointError naming the row-major batch slots.
    """
    Lpsi = psi @ channels.L.T
    expL = np.vecdot(psi, Lpsi)[..., None]
    expLd = expL.conj()
    Gpsi = psi @ G.T if G.ndim == 2 else np.matvec(G, psi)
    dpsi = (Gpsi + expLd * Lpsi - 0.5 * (expL * expLd) * psi) * dt
    if not isinstance(dW, float):
        dW = np.asarray(dW, dtype=float)[..., None]
    dpsi += (Lpsi - expL * psi) * dW
    out = psi + dpsi
    # np.linalg.norm's own reduction, without its dispatch
    norm = np.sqrt((out.conj() * out).real.sum(axis=-1))
    # a single state's norm is a numpy scalar, checked and divided by as one
    single = isinstance(norm, float)
    if not (math.isfinite(norm) if single else np.isfinite(norm).all()):
        _raise_nonfinite("state vector", "sse_step_batch", np.isfinite(norm))
    return out / (norm if single else norm[..., None])


def simulate_truth(model: DiffusiveModel, rho0: np.ndarray, T: float, dt: float,
                   seed, observables: dict[str, np.ndarray] | None = None,
                   store_every: int = 1) -> TrajectoryRecord:
    """Simulate a measurement record by driving the filter with fresh noise.

    The record is dY = Tr[(L + L^dag) rho] dt + dW_sim with dW_sim drawn iid
    normal(0, dt); this is how measurement records are generated for filters
    under test.  Stored expectations are evaluated on the trajectory states,
    each as the elementwise sum of op^T * rho: on states 0, store_every,
    2 store_every, ... and on the final state, with nan on the others.  A
    FloatingPointError from a step is raised again naming the step and the
    time it reaches.
    """
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    observables = {k: np.ascontiguousarray(op.T) for k, op in (observables or {}).items()}
    steps = int(round(T / dt))
    rng = rng_stream(seed)
    rho = np.array(rho0, dtype=complex)
    channels, G = model.channels, model.G
    dY = np.zeros(steps)
    dWs = rng.standard_normal(steps) * np.sqrt(dt)
    exps = {k: np.full(steps + 1, np.nan) for k in observables}
    for k, opT in observables.items():
        exps[k][0] = (opT * rho).sum().real
    try:
        for i, w in enumerate(dWs.tolist()):
            signal = channels.signal(rho)
            dY[i] = y = signal * dt + w
            rho = sme_step_batch(G, channels, rho, y, dt, signal=signal)
            if (i + 1) % store_every == 0 or i + 1 == steps:
                for k, opT in observables.items():
                    exps[k][i + 1] = (opT * rho).sum().real
    except FloatingPointError as e:
        raise FloatingPointError(f"{e} at step {i + 1} (t = {(i + 1) * dt:g})") from None
    return TrajectoryRecord(
        times=np.arange(steps + 1) * dt, dY=dY, dW=dWs, expectations=exps)


def bloch_angle_step(theta, dM, B: float, kappa: float, dt: float, signal=None):
    """Scalar filter for a monitored qubit restricted to the x-z Bloch circle,
    with theta measured from +x so that <sigma_z> = sin(theta):

        d theta = -2B dt + kappa sin(2 theta) dt + 2 sqrt(kappa) cos(theta) dW,
        dW = dM - 2 sqrt(kappa) sin(theta) dt.

    Accepts scalars or equally-shaped arrays; a float theta is stepped with
    ``math``, which skips numpy's per-call dispatch in scalar loops.
    ``signal``, if given, is 2 sqrt(kappa) sin(theta) from a caller that
    already has it.
    """
    if not kappa > 0:  # NaN fails too
        raise ValueError("kappa must be positive")
    m = math if isinstance(theta, float) else np
    amplitude = 2.0 * math.sqrt(kappa)
    signal = amplitude * m.sin(theta) if signal is None else signal
    return (theta - 2.0 * B * dt + kappa * m.sin(2.0 * theta) * dt
            + amplitude * m.cos(theta) * (dM - signal * dt))
