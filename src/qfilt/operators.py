"""Dense complex operator kernel: spin operators, Pauli strings and
spin-coherent states.

Everything here is a plain ``numpy.ndarray`` of complex128.  Operators are
square matrices in row-major layout; pure states are 1-d amplitude vectors and
density matrices are square, trace-one, Hermitian arrays.  All functions are
pure and never mutate their inputs, so values can be shared freely across
threads.

Conventions
-----------
* Pauli strings: leftmost label acts on qubit 1, which is the most significant
  tensor factor, so ``pauli_string("ZZI")`` is ``sigma_z (x) sigma_z (x) I``.
* ``Jz`` is diagonal with entries ``j, j-1, ..., -j`` (standard angular
  momentum ordering, highest weight first).

The dense superoperators D[L] and M[L], against which the tests check the
filter steps, live beside the tests in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "dag",
    "anticommutator",
    "expm_hermitian",
    "doubled_spin",
    "spin_operators",
    "pauli_string",
    "spin_coherent",
    "pure_to_density",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
}


def dag(a: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return a.conj().T


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def expm_hermitian(h: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * h) for Hermitian h, via eigendecomposition.

    With ``scale = -1j * t`` this gives the unitary generated by ``h``.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ dag(v)


def doubled_spin(j: float) -> int:
    """2j for a spin size j; a j whose double is not a non-negative integer,
    to within 1e-9, raises ValueError."""
    two_j = 2.0 * j
    if two_j < 0 or abs(two_j - round(two_j)) > 1e-9:
        raise ValueError(f"total spin must be a non-negative half-integer, got {j}")
    return int(round(two_j))


def spin_operators(j: float) -> dict[str, np.ndarray]:
    """Spin-j operators {Jx, Jy, Jz, Jplus, Jminus} of dimension 2j+1.

    ``Jplus |j,m> = sqrt((j-m)(j+m+1)) |j,m+1>`` in the basis ordered
    m = j, j-1, ..., -j.

    Raises
    ------
    ValueError
        If 2j is not a non-negative integer.
    """
    dim = doubled_spin(j) + 1
    m = j - np.arange(dim)  # j, j-1, ..., -j
    jz = np.diag(m).astype(complex)
    # raising operator: <m+1| J+ |m>, one step above the diagonal
    ladder = np.sqrt((j - m[1:]) * (j + m[1:] + 1.0))
    jplus = np.zeros((dim, dim), dtype=complex)
    jplus[np.arange(dim - 1), np.arange(1, dim)] = ladder
    jminus = jplus.T.copy()
    # multiplications, not complex divisions: a third of the call at j = 50
    jx = (jplus + jminus) * 0.5
    jy = (jplus - jminus) * -0.5j
    return {"Jx": jx, "Jy": jy, "Jz": jz, "Jplus": jplus, "Jminus": jminus}


def pauli_string(spec: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``"XZZXI"``.

    The leftmost label is qubit 1 (most significant factor).  Result is a
    2^n x 2^n Hermitian, unitary matrix.
    """
    if not spec:
        raise ValueError("Pauli string must contain at least one label")
    out = np.array([[1.0 + 0j]])
    for label in spec:
        try:
            factor = _PAULI[label]
        except KeyError:
            raise ValueError(f"unknown Pauli label {label!r} in {spec!r}") from None
        out = np.kron(out, factor)
    return out


def spin_coherent(j: float, theta: float, phi: float) -> np.ndarray:
    """Spin-coherent state |theta, phi>: the +j eigenstate of n.J with
    n = (sin t cos p, sin t sin p, cos t).

    Built as exp(-i phi Jz) exp(-i theta Jy) |j, +j>; returns a unit vector of
    dimension 2j+1 in the Jz basis.
    """
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValueError("angles must be finite")
    ops = spin_operators(j)
    dim = ops["Jz"].shape[0]
    top = np.zeros(dim, dtype=complex)
    top[0] = 1.0  # |j, +j> (basis ordered m = j ... -j)
    psi = expm_hermitian(ops["Jy"], scale=-1j * theta) @ top
    psi = np.exp(-1j * phi * np.real(np.diag(ops["Jz"]))) * psi
    return psi / np.linalg.norm(psi)


def pure_to_density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())

