"""O(N^2) dynamics of collective states of N qubits under symmetric
single-qubit Lindblad channels.

A collective state carries no coherence between total-spin-J blocks and does
not distinguish degenerate irreps, so it is stored as one effective
(2J+1) x (2J+1) block per J with physical trace
sum_J d_J sum_M rho_{J,M,M} = 1, where d_J is the irrep multiplicity.

A symmetric channel sum_n L[s^(n)] with a single-qubit operator
s = s_I I + s_+ sigma_+ + s_- sigma_- + s_z sigma_z splits into a collective
anticommutator piece -{S_N, rho}/2, identity-involving collective terms, and
a residual non-collective bilinear evaluated with the three-term g-tensor
identity, which couples block J to J-1 and J+1 with coefficients built from
the A/B/D ladder tables and the multiplicity ratios alpha_J / d_J.  One
table (_g_outputs) holds each output's block step, ladder table and
prefactor; the compiled generator reads it, and so does the element-wise
reference in tests/reference.py, beside the Clebsch-Gordan embedding into
the 2^N-dimensional space that the tests check against.  The g-tensor's
z-component is the angular-momentum convention (sigma_z / 2); Pauli-z
channel coefficients are rescaled internally.

The generator is linear and time-invariant, and each of its pieces (the
Hamiltonian commutator, C rho C^dag - {C^dag C, rho}/2, the anticommutator
and s_I terms and the g-tensor bilinear) is a sum of rank-one terms
    out[J_out][dst] += alpha_M * rho[J][src] * beta_M'
that shift a slice of one input block into the same block or a J +- 1 block.
Spin-operator words are banded (J_+, J_-, J_z are single bands), so each
block's terms are built once from O(2J+1) band vectors and cached per
(generator, rate, 2J), with a channel's rate folded into the factors; no
matmul is formed.  Two kinds of term carry a dense weight instead: a left
and a right diagonal band share one term (weight A_ii + B_jj), and a
block-preserving term with a column factor runs on the flattened block, so
that it costs two contiguous passes.  This is the Dicke-basis bookkeeping of
PIQS (Shammah et al., PRA 98, 063815 (2018)).

Blocks are keyed by 2J (integers avoid half-integer keys) and stored sparse:
a valid 2J missing from a state's blocks is an exactly-zero block.  Stepping
allocates, reads and writes only the blocks a state occupies and the J +- 1
blocks its derivative reaches, so a state in the top block of N = 100 costs
one block per step, not 51, and the four RK4 stages are combined in place,
one buffer per block.  Observables are read off the same cached bands:
<C> = sum_J d_J sum_k v_k . diag(rho_J, -k) for the bands v_k of C, with no
dense block.

The dtype follows the data.  A block's compiled terms are stored real when
none of their factors has an imaginary part, as for the counter-twisting
Hamiltonian, sigma_- decay, sigma_z dephasing and J_- decay; coherent_top
and cat_state are real.  All blocks of one evaluation of the generator share
one dtype, the first complex generator promoting what was written before
it, so a real state under real generators steps in real arithmetic (the
same numbers as its complex copy, at half the memory traffic) and anything
complex promotes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from functools import lru_cache

import numpy as np

from .operators import spin_operators

__all__ = [
    "CollectiveDensity",
    "SpinChannel",
    "CollectiveChannel",
    "irrep_degeneracy",
    "alpha_cumulative",
    "collective_operator",
    "symmetric_lindblad_apply",
    "collective_lindblad_apply",
    "collective_master_step",
    "master_rhs",
    "coherent_top",
    "cat_state",
    "squeezing_xi2",
    "irrep_population",
    "expectation",
    "fidelity_with",
]


def irrep_degeneracy(J: float, N: int) -> int:
    """Multiplicity d_J of the total-spin-J irrep of N qubits; 0 out of range.

    d_J = alpha_J - alpha_{J+1} = C(N, N/2 - J) - C(N, N/2 - J - 1),
    equivalently N! (2J+1) / ((N/2 - J)! (N/2 + J + 1)!).
    """
    alpha = alpha_cumulative(J, N)
    return alpha - alpha_cumulative(J + 1, N) if alpha else 0


def alpha_cumulative(J: float, N: int) -> int:
    """alpha_J = sum_{J' >= J} d_J' = N! / ((N/2 - J)! (N/2 + J)!); 0 out of range."""
    two_j = int(round(2 * J))
    if two_j < 0 or two_j > N or (N - two_j) % 2 != 0 or abs(2 * J - two_j) > 1e-9:
        return 0
    return comb(N, (N - two_j) // 2)


@dataclass
class CollectiveDensity:
    """Block-diagonal effective density matrix: blocks[2J] is (2J+1) x (2J+1).

    A valid 2J missing from ``blocks`` is an exactly-zero block.  Blocks
    may be real or complex: a real state steps in real arithmetic while its
    generators are real, and the dtype follows the data (see master_rhs)."""

    N: int
    blocks: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpinChannel:
    """Symmetric-local channel: one copy of s = s_I I + s_+ sigma_+ +
    s_- sigma_- + s_z sigma_z acting on every qubit at rate ``rate``.
    sigma_z here is the full Pauli matrix diag(1, -1)."""

    s_I: complex = 0.0
    s_plus: complex = 0.0
    s_minus: complex = 0.0
    s_z: complex = 0.0
    rate: float = 1.0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        # the compile caches' key, built once per channel
        object.__setattr__(self, "_key", tuple(complex(x) for x in (
            self.s_I, self.s_plus, self.s_minus, self.s_z)))


@dataclass(frozen=True)
class CollectiveChannel:
    """Collective channel L[C] with C a polynomial in the block spin
    operators, e.g. word_coeffs=[(1.0, "-")] for L[J_-]."""

    word_coeffs: tuple
    rate: float = 1.0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        object.__setattr__(self, "_key", _words_key(self.word_coeffs))


# ladder coefficient tables of the three-term identity; q in {+, -, z} and
# the z entry is in the angular-momentum (sigma_z / 2) convention.  M may be
# an array of projections (the compiled generator) or a scalar (the tests'
# element-wise reference).
def _A(q: str, J: float, M: float) -> float:
    if q == "+":
        return np.sqrt(np.maximum((J - M) * (J + M + 1.0), 0.0))
    if q == "-":
        return np.sqrt(np.maximum((J + M) * (J - M + 1.0), 0.0))
    return M


def _B(q: str, J: float, M: float) -> float:
    if q == "+":
        return np.sqrt(np.maximum((J - M) * (J - M - 1.0), 0.0))
    if q == "-":
        return -np.sqrt(np.maximum((J + M) * (J + M - 1.0), 0.0))
    return np.sqrt(np.maximum((J + M) * (J - M), 0.0))


def _D(q: str, J: float, M: float) -> float:
    if q == "+":
        return -np.sqrt(np.maximum((J + M + 1.0) * (J + M + 2.0), 0.0))
    if q == "-":
        return np.sqrt(np.maximum((J - M + 1.0) * (J - M + 2.0), 0.0))
    return np.sqrt(np.maximum((J + M + 1.0) * (J - M + 1.0), 0.0))


_M_SHIFT = {"+": 1.0, "-": -1.0, "z": 0.0}


def _g_outputs(J: float, N: int) -> list:
    """(block step, ladder table, prefactor) of the identity's J, J-1 and J+1
    outputs on the 1/d_J-normalized elements of block J, leaving out the
    blocks whose multiplicity is zero."""
    dJ = irrep_degeneracy(J, N)
    aJ, aJ1 = alpha_cumulative(J, N), alpha_cumulative(J + 1, N)
    out = []
    if J > 0:
        out.append((0, _A, (1.0 + (aJ1 / dJ) * (2.0 * J + 1.0) / (J + 1.0)) / (2.0 * J)))
        if irrep_degeneracy(J - 1, N) > 0:
            out.append((-1, _B, aJ / (dJ * 2.0 * J)))
    if irrep_degeneracy(J + 1, N) > 0:
        out.append((1, _D, aJ1 / (dJ * 2.0 * (J + 1.0))))
    return out


# ---------------------------------------------------------------------------
# banded block operators
#
# An operator on the 2J+1 block is a dict of bands {k: v} with A[i, i + k] =
# v[i], each v of length 2J+1 and zero where i + k leaves the block.  Every
# word over the spin letters is banded, with |k| at most the word length.

_COMPILE_CACHE = 1024


def _shift(v: np.ndarray, k: int) -> np.ndarray:
    """w[i] = v[i + k], zero where i + k is out of range."""
    if k == 0:
        return v
    w = np.zeros_like(v)
    if k > 0:
        w[:-k] = v[k:]
    else:
        w[-k:] = v[:k]
    return w


def _bands_at(A: np.ndarray, offsets) -> dict:
    """The diagonals of a block operator at the given offsets, as read-only
    bands in ascending offset order; all-zero diagonals are dropped.  Any
    diagonal not listed must be zero."""
    out = {}
    for k in sorted(offsets):
        diag = np.diagonal(A, k)
        if diag.any():
            v = out[k] = np.zeros(len(A), dtype=complex)
            v[max(0, -k):max(0, -k) + len(diag)] = diag
            v.setflags(write=False)
    return out


# each letter's spin matrix and the offsets of its possibly nonzero diagonals
_LETTERS = {"+": ("Jplus", (1,)), "-": ("Jminus", (-1,)), "z": ("Jz", (0,)),
            "x": ("Jx", (-1, 1)), "y": ("Jy", (-1, 1))}


@lru_cache(maxsize=256)
def _letter_bands(two_j: int) -> dict:
    ops = spin_operators(two_j / 2.0)
    return {ch: _bands_at(ops[name], offsets) for ch, (name, offsets) in _LETTERS.items()}


def _band_product(a: dict, b: dict, dim: int) -> dict:
    out = {}
    for k, u in a.items():
        for l, v in b.items():
            if abs(k + l) < dim:
                term = u * _shift(v, k)
                out[k + l] = out[k + l] + term if k + l in out else term
    return out


def _band_sum(pairs) -> dict:
    """sum_n c_n B_n over (c_n, bands of B_n), skipping zero coefficients."""
    out = {}
    for c, bands in pairs:
        if c == 0:
            continue
        for k, v in bands.items():
            out[k] = out[k] + c * v if k in out else c * v
    return out


@lru_cache(maxsize=_COMPILE_CACHE)
def _word_bands(word: str, two_j: int) -> dict:
    """Bands of one word (read-only vectors; the cached dict is shared)."""
    letters = _letter_bands(two_j)
    bands = {0: np.ones(two_j + 1, dtype=complex)}
    for ch in word:
        bands = _band_product(bands, letters[ch], two_j + 1)
    for v in bands.values():
        v.setflags(write=False)
    return bands


def _adjoint(bands: dict) -> dict:
    """A^dag[i + k, i] = conj(A[i, i + k]): band k of A is band -k of A^dag."""
    return {-k: np.conj(_shift(v, -k)) for k, v in bands.items()}


def collective_operator(word_coeffs, two_j: int) -> np.ndarray:
    """Polynomial in the block spin operators from (coeff, word) pairs, where
    a word is a string over {+, -, z, x, y} applied left to right, e.g.
    (1.0, "++") is J_+^2 and (0.5, "") is half the identity."""
    dim = two_j + 1
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    for k, v in _band_sum((c, _word_bands(w, two_j)) for c, w in word_coeffs).items():
        lo = max(0, -k)
        flat[lo * (dim + 1) + k::dim + 1][:dim - abs(k)] = v[lo:lo + dim - abs(k)]
    return out


# ---------------------------------------------------------------------------
# the compiled generator
#
# Every term of the generator maps one input block to one output block as
#     out[2J_out][dst] += alpha * in[2J][src] * beta,
# alpha a column and beta a row of O(2J+1) coefficients, or None for ones.
# A row factor (off, v) moves row p of the input to row p + off of the
# output with weight v[p]; a column factor does the same for columns.  A
# left product A rho has one row factor per band of A, a right product
# rho B one column factor per band of B, and a sandwich one term per pair.
# H and C are read off their collective_operator blocks at the offsets
# their words reach, once per block.
#
# A column factor slices each row of a block, and numpy then loops row by
# row.  A term that has one and stays in its block is therefore stored on
# the flattened (row-major) block instead: its dst and src boxes are two
# equal-length ranges, and alpha * beta is laid out dense over the src
# range, zero at the columns that lie between box rows.  Those zeros add
# nothing to the dst range's out-of-box columns, and the term costs two
# contiguous passes.  A flat term's dst and src are 1-tuples.

_WHOLE = (slice(None), slice(None), None)


def _left(bands: dict) -> list:
    """Row factors of rho -> A rho: row p + k feeds row p with A[p, p + k]."""
    return [(-k, _shift(v, -k)) for k, v in bands.items()]


def _right(bands: dict) -> list:
    """Column factors of rho -> rho B: column p feeds column p + k with B[p, p + k]."""
    return list(bands.items())


def _factor(off: int, v: np.ndarray, dim_in: int, dim_out: int):
    """(dst, src, weights) of a factor, trimmed to its nonzero weights that
    land in the output block; None if there are none."""
    lo, hi = max(0, -off), min(dim_in, dim_out - off)
    nz = np.flatnonzero(v[lo:hi]) if lo < hi else ()
    if len(nz) == 0:
        return None
    lo, hi = lo + int(nz[0]), lo + int(nz[-1]) + 1
    return slice(lo + off, hi + off), slice(lo, hi), v[lo:hi]


def _terms(two_j_in: int, two_j_out: int, rows, cols) -> list:
    """Rank-one terms of sum_rc R_r rho C_c; rows/cols None is the identity."""
    d_in, d_out = two_j_in + 1, two_j_out + 1

    def factors(pairs):
        if pairs is None:
            return [_WHOLE]
        return [f for f in (_factor(off, v, d_in, d_out) for off, v in pairs) if f]

    out = []
    for dr, sr, a in factors(rows):
        for dc, sc, b in factors(cols):
            out.append((two_j_out, (dr, dc), (sr, sc),
                        None if a is None else a[:, None], None if b is None else b[None, :]))
    return out


def _flat(two_j: int, dst: tuple, src: tuple, a, b) -> tuple:
    """A block-preserving term out[dst] += a * rho[src] * b on the flattened
    block: one dense weight over the src range (see above)."""
    d = two_j + 1
    (r0, r1, _), (c0, c1, _), (q0, _, _), (p0, _, _) = (sl.indices(d) for sl in src + dst)
    ab = (1.0 if a is None else a) * b
    w = np.zeros((r1 - r0, d), ab.dtype)
    w[:, :c1 - c0] = ab
    w = w.reshape(-1)[:(r1 - r0 - 1) * d + c1 - c0]
    lo, shift = r0 * d + c0, (q0 - r0) * d + p0 - c0
    return two_j, (slice(lo + shift, lo + shift + len(w)),), (slice(lo, lo + len(w)),), w, None


@lru_cache(maxsize=_COMPILE_CACHE)
def _operator_bands(words: tuple, two_j: int) -> dict:
    """Bands of the polynomial given by (coeff, word) pairs on block 2J
    (read-only vectors; the cached dict is shared)."""
    offsets = {k for c, w in words if c != 0 for k in _word_bands(w, two_j)}
    return _bands_at(collective_operator(words, two_j), offsets)


def _words_key(word_coeffs) -> tuple:
    """Hashable form of (coeff, word) pairs, lists included."""
    return tuple((complex(c), str(w)) for c, w in word_coeffs)


_REAL, _COMPLEX = np.dtype(float), np.dtype(complex)


def _two_sided(two_j: int, A: dict, B: dict) -> list:
    """Terms of A rho + rho B.  The diagonal bands of A and B share one term
    whose weight is A_ii + B_jj, a dense block (a column or a row when only
    one of them has a diagonal), so the pair costs one pass, not two."""
    terms = (_terms(two_j, two_j, _left({k: v for k, v in A.items() if k}), None)
             + _terms(two_j, two_j, None, _right({k: v for k, v in B.items() if k})))
    if 0 in A or 0 in B:
        w = (A[0][:, None] if 0 in A else 0.0) + (B[0][None, :] if 0 in B else 0.0)
        terms.append((two_j, _WHOLE[:2], _WHOLE[:2], w, None))
    return terms


def _term_list(two_j: int, terms: list, scale: float = 1.0) -> tuple:
    """(dtype, terms) of input block 2J's term list, with ``scale`` (a
    channel's rate) folded into each term's first factor and the
    block-preserving terms with a column factor made flat.  When no factor
    has a nonzero imaginary part, every factor is stored as its real part
    (the same numbers), so that a real state steps in real arithmetic."""
    terms = [(o, dst, src, scale * a, b) if a is not None else (o, dst, src, a, scale * b)
             for o, dst, src, a, b in terms]
    real = not any(f is not None and f.imag.any() for *_, a, b in terms for f in (a, b))
    if real:
        terms = [(o, dst, src, *(None if f is None else np.ascontiguousarray(f.real)
                                 for f in (a, b))) for o, dst, src, a, b in terms]
    return (_REAL if real else _COMPLEX), tuple(
        _flat(*t) if t[4] is not None and t[0] == two_j else t for t in terms)


@lru_cache(maxsize=_COMPILE_CACHE)
def _hamiltonian_terms(words: tuple, two_j: int) -> tuple:
    """-i [H, rho] on block 2J."""
    H = _operator_bands(words, two_j)
    return _term_list(two_j, _two_sided(two_j, _band_sum([(-1j, H)]), _band_sum([(1j, H)])))


@lru_cache(maxsize=_COMPILE_CACHE)
def _collective_channel_terms(words: tuple, two_j: int, rate: float) -> tuple:
    """rate (C rho C^dag - {C^dag C, rho} / 2) on block 2J."""
    C = _operator_bands(words, two_j)
    Cd = _adjoint(C)
    half = _band_sum([(-0.5, _band_product(Cd, C, two_j + 1))])
    return _term_list(two_j, _terms(two_j, two_j, _left(C), _right(Cd))
                      + _two_sided(two_j, half, half), rate)


@lru_cache(maxsize=_COMPILE_CACHE)
def _spin_channel_terms(s: tuple, N: int, two_j: int, rate: float) -> tuple:
    """rate sum_n L[s^(n)] rho on input block 2J, s = (s_I, s_+, s_-, s_z)."""
    sI, sp, sm, sz = s
    # S_N = sum_n s^dag s = c_id N I + c_p J_+ + c_m J_- + c_z Jz_pauli,
    # Jz_pauli = 2 Jz
    c_id = 0.5 * abs(sm) ** 2 + 0.5 * abs(sp) ** 2 + abs(sI) ** 2 + abs(sz) ** 2
    c_p = np.conj(sm) * sI - np.conj(sm) * sz + np.conj(sI) * sp + np.conj(sz) * sp
    c_m = np.conj(sI) * sm + np.conj(sp) * sI + np.conj(sp) * sz - np.conj(sz) * sm
    c_z = 0.5 * abs(sm) ** 2 - 0.5 * abs(sp) ** 2 + np.conj(sI) * sz + np.conj(sz) * sI
    # -{S_N, rho}/2 plus the identity-involving part of sum_n s rho s^dag:
    # |s_I|^2 N rho + sum_q (s_q s_I^* J_q rho + s_I s_q^* rho J_q^dag),
    # folded into one left and one right band operator
    Id, Jp, Jm, Jz = (_word_bands(word, two_j) for word in ("", "+", "-", "z"))
    left = _band_sum([(-0.5 * c_id * N + abs(sI) ** 2 * N, Id),
                      (-0.5 * c_p + sp * np.conj(sI), Jp),
                      (-0.5 * c_m + sm * np.conj(sI), Jm),
                      (-c_z + 2.0 * sz * np.conj(sI), Jz)])
    right = _band_sum([(-0.5 * c_id * N, Id),
                       (-0.5 * c_p + sI * np.conj(sm), Jp),
                       (-0.5 * c_m + sI * np.conj(sp), Jm),
                       (-c_z + 2.0 * sI * np.conj(sz), Jz)])
    terms = _two_sided(two_j, left, right)
    # non-collective bilinear sum_qr s_q s_r^* sum_n sigma_q rho sigma_r^dag
    # by the three-term identity (sigma_z = 2 * angular-momentum z); each
    # output block is a sandwich whose row factors carry s_q and whose column
    # factors carry s_r^*.  The identity's coefficients act on the
    # 1/d_J-normalized effective elements; blocks here carry the d_J-weighted
    # trace convention, so the block-changing terms pick up d_in / d_out.
    svec = {q: v for q, v in (("+", sp), ("-", sm), ("z", 2.0 * sz)) if v != 0}
    J = two_j / 2.0
    m = J - np.arange(two_j + 1)
    dJ = irrep_degeneracy(J, N)
    for step, table, pref in _g_outputs(J, N):
        if step:
            pref = pref * (dJ / irrep_degeneracy(J + step, N))
        ladder = {q: table(q, J, m) for q in svec}
        rows = [(step - int(_M_SHIFT[q]), pref * sq * ladder[q]) for q, sq in svec.items()]
        cols = [(step - int(_M_SHIFT[r]), np.conj(sr) * ladder[r]) for r, sr in svec.items()]
        terms += _terms(two_j, two_j + 2 * step, rows, cols)
    return _term_list(two_j, terms, rate)


def _accumulate(terms_of, rho: CollectiveDensity, out: CollectiveDensity) -> None:
    """out += G rho for the generator G whose (dtype, terms) for input block
    2J are terms_of(2J), each looked up once.  Every output block takes one
    dtype, the common type of rho's blocks, G's factors and out's blocks: an
    output block missing from out is allocated with it at its first write,
    and a narrower block already in out, or one that is not C-contiguous
    (flat terms write through its flat view), is replaced by a promoted,
    contiguous copy first."""
    work = [(block, terms_of(two_j)) for two_j, block in rho.blocks.items()]
    kinds = {b.dtype.kind for b in (*rho.blocks.values(), *out.blocks.values())}
    dtype = _COMPLEX if "c" in kinds | {dt.kind for _, (dt, _) in work} else _REAL
    for two_j, acc in out.blocks.items():
        out.blocks[two_j] = np.ascontiguousarray(acc, dtype=dtype)
    for block, (_, terms) in work:
        flat = block.reshape(-1)
        for two_j_out, dst, src, a, b in terms:
            t = (flat if len(src) == 1 else block)[src]
            if a is not None:
                t = a * t
            if b is not None:
                t = t * b if a is None else np.multiply(t, b, out=t)
            acc = out.blocks.get(two_j_out)
            if acc is None:
                acc = out.blocks[two_j_out] = np.zeros((two_j_out + 1,) * 2, dtype=dtype)
            (acc.reshape(-1) if len(dst) == 1 else acc)[dst] += t


def symmetric_lindblad_apply(channel: SpinChannel, rho: CollectiveDensity,
                             out: CollectiveDensity | None = None,
                             scale: float = 1.0) -> CollectiveDensity:
    """Derivative of rho under the symmetric channel sum_n L[s^(n)] at unit
    rate (multiply by channel.rate for the physical rate).  With ``out``,
    ``scale`` times the derivative is added into it and it is returned;
    ``scale`` is folded into the compiled terms, which are cached per scale.
    The result is real when rho and the channel's terms are (see
    _accumulate).

    Uses S_N = sum_n s^dag s expanded in collective operators for the
    anticommutator part, collective terms for everything involving s_I, and
    the g-tensor identity for the non-collective bilinear.
    """
    out = CollectiveDensity(N=rho.N) if out is None else out
    _accumulate(lambda two_j: _spin_channel_terms(channel._key, rho.N, two_j, scale), rho, out)
    return out


def collective_lindblad_apply(channel: CollectiveChannel, rho: CollectiveDensity,
                              out: CollectiveDensity | None = None,
                              scale: float = 1.0) -> CollectiveDensity:
    """Block-diagonal dissipator L[C] rho for a collective operator C; ``out``,
    ``scale`` and the dtype as in symmetric_lindblad_apply."""
    out = CollectiveDensity(N=rho.N) if out is None else out
    _accumulate(lambda two_j: _collective_channel_terms(channel._key, two_j, scale), rho, out)
    return out


def master_rhs(H_coeffs, channels, rho: CollectiveDensity) -> CollectiveDensity:
    """d rho / dt = -i [H, rho] + sum_k Gamma_k L_k rho with H given as
    (coeff, word) pairs applied per block.  Blocks missing from rho.blocks
    count as zero; the result holds only the blocks some term writes to.

    The result is real when rho and every generator's terms on rho's blocks
    are real, else complex: the first complex generator promotes the blocks
    written so far (see _accumulate), so all result blocks share one dtype."""
    out = CollectiveDensity(N=rho.N)
    if H_coeffs:
        key = _words_key(H_coeffs)
        _accumulate(lambda two_j: _hamiltonian_terms(key, two_j), rho, out)
    for ch in channels:
        if isinstance(ch, SpinChannel):
            symmetric_lindblad_apply(ch, rho, out, ch.rate)
        else:
            collective_lindblad_apply(ch, rho, out, ch.rate)
    return out


def _iadd(acc, x):
    """acc + x, written into acc when its dtype holds the sum; a missing
    (None) operand adds nothing."""
    if acc is None or x is None:
        return x if acc is None else acc
    if not np.can_cast(x.dtype, acc.dtype):
        return acc + x
    acc += x
    return acc


def collective_master_step(H_coeffs, channels, rho: CollectiveDensity, dt: float) -> CollectiveDensity:
    """One fixed-step RK4 step of the master equation.

    Only the support is stored and stepped: the nonzero blocks of rho, and
    at each stage the nonzero blocks the stage derivative reaches, looked for
    among the J +- 1 neighbours of the stage state (no term moves a block
    further).  The result holds exactly the support, in ascending 2J order;
    every other block is exactly zero.  Stages are combined in place: each
    stage derivative belongs to this step, and once the next stage state is
    built it is scaled and added into one buffer per block, so no stage
    derivative outlives its stage.
    """
    N = rho.N

    def nonzero(x, keys):
        return {tj for tj in keys if tj in x.blocks and x.blocks[tj].any()}

    # the support is a set, built in the same order at every step: its
    # iteration order sets the order of the stage states' blocks, and with
    # it the order in which values are added into each output block
    support = nonzero(rho, rho.blocks)
    state = CollectiveDensity(N=N, blocks={tj: rho.blocks[tj] for tj in support})
    acc = {}  # k1 + 2 k2 + 2 k3 + k4, summed in that order
    for c, w in zip((1.0, 2.0, 2.0, 1.0), (dt / 2.0, dt / 2.0, dt, None)):
        k = master_rhs(H_coeffs, channels, state)
        support |= nonzero(k, {t for tj in state.blocks for t in (tj - 2, tj, tj + 2)
                               if 0 <= t <= N} - support)
        if w is not None:
            state = CollectiveDensity(N=N, blocks={tj: _iadd(
                w * k.blocks[tj] if tj in k.blocks else None, rho.blocks.get(tj)) for tj in support})
        for tj, x in k.blocks.items():
            acc[tj] = _iadd(acc.get(tj), x if c == 1.0 else np.multiply(x, c, out=x))
    out = CollectiveDensity(N=N)
    for tj in sorted(support):
        b = acc[tj] if tj in acc else np.zeros((tj + 1,) * 2)
        b *= dt / 6.0
        b = _iadd(b, rho.blocks.get(tj))
        if not np.isfinite(b).all():
            raise FloatingPointError(f"non-finite block 2J = {tj} in collective_master_step")
        b += b.conj().T
        b *= 0.5
        out.blocks[tj] = b
    return out


# ---------------------------------------------------------------------------
# states, observables


def coherent_top(N: int) -> CollectiveDensity:
    """|N/2, +N/2> in the top block."""
    top = np.zeros((N + 1, N + 1))
    top[0, 0] = 1.0
    return CollectiveDensity(N=N, blocks={N: top})


def cat_state(N: int) -> CollectiveDensity:
    """(|N/2, +N/2> + |N/2, -N/2>)/sqrt(2), entirely in the top block."""
    psi = np.zeros(N + 1)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return CollectiveDensity(N=N, blocks={N: np.outer(psi, psi)})


def expectation(rho: CollectiveDensity, word_coeffs) -> complex:
    """<C> = sum_J d_J tr(C_J rho_J) for a collective operator polynomial,
    read off C's cached bands: tr(C rho) = sum_k sum_i C[i, i + k] rho[i + k, i],
    one dot product per band, with no dense C."""
    key = _words_key(word_coeffs)
    total = 0.0 + 0.0j
    for two_j, block in rho.blocks.items():
        d = irrep_degeneracy(two_j / 2.0, rho.N)
        total += d * sum(v[max(0, -k):][:two_j + 1 - abs(k)] @ np.diagonal(block, -k)
                         for k, v in _operator_bands(key, two_j).items())
    return total


def squeezing_xi2(rho: CollectiveDensity) -> float:
    """xi^2 = N <Delta Jy^2> / <Jz>^2; raises if <Jz> = 0."""
    jz = expectation(rho, [(1.0, "z")]).real
    if abs(jz) < 1e-12:
        raise ZeroDivisionError("squeezing parameter undefined: <Jz> = 0")
    jy2 = expectation(rho, [(1.0, "yy")]).real
    jy = expectation(rho, [(1.0, "y")]).real
    return rho.N * (jy2 - jy * jy) / jz ** 2


def irrep_population(rho: CollectiveDensity, J: float) -> float:
    """N_J = tr[P_J rho] = d_J sum_M rho_{J,M,M}; 0.0 for a valid J with no
    stored block."""
    two_j = int(round(2 * J))
    if two_j not in range(rho.N % 2, rho.N + 1, 2):
        raise ValueError(f"no block with J={J} for N={rho.N}")
    if two_j not in rho.blocks:
        return 0.0
    return irrep_degeneracy(J, rho.N) * float(np.trace(rho.blocks[two_j]).real)


def fidelity_with(rho: CollectiveDensity, ref: CollectiveDensity) -> float:
    """tr[rho_ref rho] in the physical trace; blocks missing from either
    state add nothing."""
    total = 0.0
    for two_j, block in rho.blocks.items():
        if two_j not in ref.blocks:
            continue
        d = irrep_degeneracy(two_j / 2.0, rho.N)
        total += d * np.sum(ref.blocks[two_j] * block.T).real
    return float(total)
