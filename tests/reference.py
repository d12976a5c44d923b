"""Reference forms the tests check the library against.

Each is the textbook, closed-form, element-wise or full-Hilbert-space form
of something ``qfilt`` computes in a compiled or reduced form, or a
single-state adapter over one of its batched steps; ``random_states`` draws
the density matrices several test modules feed them.  No ``qfilt run``
experiment reaches them, so they live here, beside the tests that use them,
and not in ``src/qfilt``.
"""

import numpy as np

from qfilt import qec
from qfilt.collective import CollectiveDensity, _M_SHIFT, _g_outputs, irrep_degeneracy
from qfilt.operators import dag

SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)


def random_states(d: int, B: int, rng: np.random.Generator) -> np.ndarray:
    """B random full-rank d x d density matrices (B, d, d) drawn from rng."""
    a = rng.standard_normal((B, d, d)) + 1j * rng.standard_normal((B, d, d))
    rho = a @ np.swapaxes(a, -1, -2).conj()
    return rho / np.einsum("bii->b", rho).real[:, None, None]


# ---------------------------------------------------------------------------
# Kalman-Bucy: the paper's closed-form covariance of the Brownian-forcing model


def paper_covariance(t, prior_var):
    """Closed-form covariance of the Brownian-forcing model with
    P0 = diag(0, prior_var): entries built from coth/tanh."""
    v = prior_var
    c = 1.0 / np.tanh(t)
    return np.array([
        [1.0 / (c - v / (1.0 + t * v)), v / (c - v + t * c * v)],
        [v / (c - v + t * c * v), v / (1.0 + t * v - v * np.tanh(t))],
    ])


# ---------------------------------------------------------------------------
# dense superoperators


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _check_conforming(L: np.ndarray, rho: np.ndarray) -> None:
    if L.shape != rho.shape or L.shape[0] != L.shape[1]:
        raise ValueError(f"dimension mismatch: L is {L.shape}, rho is {rho.shape}")


def lindblad_D(L: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Dissipator D[L]rho = L rho L^dag - (L^dag L rho + rho L^dag L)/2."""
    _check_conforming(L, rho)
    LdL = dag(L) @ L
    return L @ rho @ dag(L) - 0.5 * (LdL @ rho + rho @ LdL)


def measurement_M(L: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Conditioning superoperator M[L]rho = L rho + rho L^dag - <L+L^dag> rho."""
    _check_conforming(L, rho)
    signal = np.trace((L + dag(L)) @ rho)
    return L @ rho + rho @ dag(L) - signal * rho


def sme_euler_step(H: np.ndarray, Ls, rho: np.ndarray, dY, dt: float,
                   unmonitored=()) -> np.ndarray:
    """One Euler step of the SME on one state, written term by term:
    rho + (-i[H, rho] + sum_u D[U_u] rho + sum_l D[L_l] rho) dt
    + sum_l M[L_l] rho dW_l with dW_l = dY_l - Tr[(L_l + L_l^dag) rho] dt,
    Hermitized and renormalized.  Ls are the monitored channels, each with
    its increment in dY, and ``unmonitored`` the channels U_u no record
    conditions on."""
    drho = -1j * commutator(H, rho) * dt
    for U in unmonitored:
        drho += lindblad_D(U, rho) * dt
    for L, y in zip(Ls, dY):
        signal = np.trace((L + dag(L)) @ rho).real
        drho += lindblad_D(L, rho) * dt + measurement_M(L, rho) * (y - signal * dt)
    out = rho + drho
    out = 0.5 * (out + dag(out))
    return out / np.trace(out).real


# ---------------------------------------------------------------------------
# collective states: the element-wise g-tensor identity and the full
# Hilbert-space embedding via Clebsch-Gordan recursion (N <= ~12)


def g_tensor_apply(q: str, r: str, J: float, M: float, Mp: float, N: int) -> list:
    """Three-term expansion of sum_n sigma_q^(n) |J,M><J,M'| sigma_r^(n)^dag
    on an effective density matrix element (the 1/d_J-normalized grouping of
    the degenerate irreps; the z channel is the angular-momentum component,
    half the Pauli matrix).

    Returns at most three tuples (J_out, M_out, M'_out, coefficient) for the
    J, J-1 and J+1 output blocks; the output projections are M_q = M + 1, -1,
    or 0 for q = +, -, z (and likewise M'_r).  Out-of-range multiplicities
    are zero, which silently drops invalid blocks.  The prefactors come from
    ``_g_outputs``, the table the compiled generator reads.
    """
    if q not in _M_SHIFT or r not in _M_SHIFT:
        raise ValueError(f"channel indices must be in {{+, -, z}}, got {q!r}, {r!r}")
    if abs(M) > J or abs(Mp) > J or irrep_degeneracy(J, N) == 0:
        raise ValueError(f"invalid element (J={J}, M={M}, M'={Mp}) for N={N}")
    Mq, Mpr = M + _M_SHIFT[q], Mp + _M_SHIFT[r]
    out = []
    for step, table, pref in _g_outputs(J, N):
        coeff = pref * table(q, J, M) * table(r, J, Mp)
        if coeff != 0.0 and abs(Mq) <= J + step and abs(Mpr) <= J + step:
            out.append((J + step, Mq, Mpr, coeff))
    return out


def irrep_embeddings(N: int) -> dict:
    """Isometries V of shape (2^N, 2J+1) for every irrep copy, keyed by 2J.

    Built by recursively coupling one spin-1/2 at a time with the closed-form
    Clebsch-Gordan coefficients for j (x) 1/2; each new qubit is appended as
    the least significant tensor factor.
    """
    sectors = {1: [np.eye(2, dtype=complex)]}  # two_j -> list of isometries
    up, dn = np.eye(2, dtype=complex)
    for _ in range(N - 1):
        new = {}
        for two_j, vlist in sectors.items():
            j = two_j / 2.0
            for V in vlist:
                # couple to J = j + s/2, s = +-1: the |up> part of |J, M>
                # has s sqrt((j + s M + 1/2) / (2j + 1)), the |dn> part
                # sqrt((j - s M + 1/2) / (2j + 1))
                for s in (1, -1) if two_j else (1,):
                    two_J = two_j + s
                    cols = []
                    for Mn in (two_J / 2.0 - k for k in range(two_J + 1)):
                        col = np.zeros(2 * len(V), dtype=complex)
                        if abs(Mn - 0.5) <= j:
                            col += (s * np.sqrt((j + s * Mn + 0.5) / (2 * j + 1.0))
                                    * np.kron(V[:, int(round(j - (Mn - 0.5)))], up))
                        if abs(Mn + 0.5) <= j:
                            col += (np.sqrt((j - s * Mn + 0.5) / (2 * j + 1.0))
                                    * np.kron(V[:, int(round(j - (Mn + 0.5)))], dn))
                        cols.append(col)
                    new.setdefault(two_J, []).append(np.stack(cols, axis=1))
        sectors = new
    return sectors


def embed_collective(rho: CollectiveDensity) -> np.ndarray:
    """Full 2^N density matrix with every degenerate irrep populated
    identically by the effective block; missing blocks are zero."""
    out = np.zeros((2 ** rho.N, 2 ** rho.N), dtype=complex)
    for two_j, vlist in irrep_embeddings(rho.N).items():
        for V in vlist:
            if two_j in rho.blocks:
                out += V @ rho.blocks[two_j] @ V.conj().T
    return out


def project_collective(full: np.ndarray, N: int) -> CollectiveDensity:
    """Effective blocks of a full-space state, every block stored: the
    degenerate-irrep average rho_J = (1/d_J) sum_i V_i^dag rho V_i."""
    return CollectiveDensity(N=N, blocks={
        two_j: sum(V.conj().T @ full @ V for V in vlist) / len(vlist)
        for two_j, vlist in sorted(irrep_embeddings(N).items())})


# ---------------------------------------------------------------------------
# continuous QEC: every syndrome projector, and single-state filter steps


def projector_rows(code: qec.StabilizerCode) -> np.ndarray:
    """Pauli coefficients Tr[P_m Pi_s] (2^l, 4^n) of every syndrome
    projector: d / 2^l times ``signs``, placed on the group masks."""
    rows = np.zeros((code.n_syndromes, code.dim ** 2))
    rows[:, code.group] = code.dim / len(code.group) * code.signs.T
    return rows


def full_filter_step(code: qec.StabilizerCode, rho: np.ndarray, dQ: np.ndarray,
                     gamma: float, kappa: float, lambdas: np.ndarray, dt: float) -> np.ndarray:
    """One Euler step of the full 2^n-dimensional filter on one density
    matrix, through a ``_FullStep`` compiled for this call."""
    frame = code.pauli
    full = qec._FullStep(frame, frame.to_pauli(rho[None]), gamma, kappa, dt)
    signal = 2.0 * np.sqrt(kappa) * (full.r @ frame.rows)[:, len(code.channel_labels):]
    full.step(np.asarray(dQ, dtype=float)[None], np.asarray(lambdas, dtype=float)[None], signal)
    return frame.to_density(full.r)[0]


def truncated_filter_step(basis: qec.TruncatedBasis, p: np.ndarray, dQ: np.ndarray,
                          gamma: float, kappa: float, lambda_max: float,
                          dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One Euler step of the truncated filter on one state, through a
    ``_TruncatedStep`` compiled for this call; returns (p', lambdas) with the
    feedback strengths computed from the incoming state (zero-order hold)."""
    step = qec._TruncatedStep(basis, gamma, kappa, dt)
    lambdas = step.policy(p[None], lambda_max)
    out = step(p[None], np.asarray(dQ, dtype=float)[None], lambdas)
    return out[0], lambdas[0]
