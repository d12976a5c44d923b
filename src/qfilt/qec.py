"""Continuous-time quantum error correction with feedback.

Stabilizer generators are measured continuously at strength kappa while a
symmetric depolarizing channel acts at rate gamma and a feedback Hamiltonian
H_t = sum lambda_c sigma_c (single-qubit Paulis, bang-bang strengths) steers
the state back toward the codespace.  The conditional state follows

    d rho = gamma sum_c D[sigma_c] rho dt + kappa sum_l D[g_l] rho dt
          + sqrt(kappa) sum_l H[g_l] rho (dQ_l - 2 sqrt(kappa) Tr[g_l rho] dt)
          - i [H_t, rho] dt

with D[P] rho = P rho P - rho and H[g] rho = g rho + rho g - 2 Tr[g rho] rho.
Every operator in it is a Pauli string, so the full 2^n filter holds the
state as its 4^n real Pauli coefficients r_P = Tr[P rho] (``_PauliFrame``,
built once per code): both dissipators are one diagonal decay
-2 (kappa #{l: g_l anticommutes with P} + gamma #{c: sigma_c does}) r_P dt,
each back-action g rho + rho g and each feedback commutator -i[sigma_c, rho]
moves r_{P g} onto r_P with a fixed sign, the trace is r_I and every
expectation is a fixed real row.  The Euler step taken is the first-order
part of the Kraus form of Rouchon & Ralph, PRA 91, 012118 (2015).

The closed loop's feedback is bang-bang on the policy signal
s_c = Tr[-i [Pi_0, sigma_c] rho], whose sign says which way sigma_c pushes
the codespace fidelity: lambda_c = lambda_max * sgn(s_c), where an exact
zero signal gets +lambda_max; the truncated controller reads s_c off its
state and gives 0 to channels whose commutator vanishes identically.

A code is held as the Pauli masks of its 2^l-element stabilizer group and
a +-1 sign table, never as dense 2^n x 2^n matrices: each syndrome
projector has +-d / 2^l Pauli coefficients on the group and none elsewhere.
The filters read only the codespace projector's row
(``StabilizerCode.codespace_row``); every projector's row, and single-state
adapters of both filters' steps, live beside the tests in
``tests/reference.py``.

Closing the syndrome projectors under the feedback commutators to first level
and merging the pairs that act identically yields the truncated filter, whose
basis elements are Pauli-sandwiched syndrome projectors.  Construction is
automated on the elements' Pauli coefficients, held only on the columns some
element occupies (136 of the 4^5 = 1,024 for the five-qubit code, 736 of the
4^7 = 16,384 for Steane's), where every action is a diagonal or a signed
gather of ``_PauliFrame`` taken only on the rows it reaches, and every
generator matrix is verified against that exact superoperator action.  So
the build's memory and time follow the basis size, not 4^n.

The closed loop compiles both filters' steps once per call of
``run_feedback_batch``, for its (gamma, kappa, dt): the full filter keeps its
state in a signed buffer [r, -r, 0] that each step overwrites
(``_FullStep``), and the truncated filter applies the diagonal of its
constant part I + (gamma N + kappa M) dt elementwise and gathers only the
nonzero entries of the rest: the off-diagonal drift entries and the feedback
and back-action generators, whose coefficients change every step
(``_TruncatedStep``); the basis keeps those generators only as these entries.
The loop reads its policy signals, Tr[g_l rho] and fidelities off the rows
of their tables that hold a nonzero (124 of the 4^5 = 1,024 for the
five-qubit code's signals), and refuses a feedback strength that would turn
the state by a radian or more per step (2 |lambda_max| dt >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .operators import pauli_string
from .sde import rng_stream

__all__ = [
    "StabilizerCode",
    "TruncatedBasis",
    "build_code",
    "logical_zero",
    "build_truncated_basis",
    "untruncated_closure_dim",
    "run_feedback_batch",
    "codeword_fidelity_discrete",
]

_CODES = {
    "bitflip3": {
        "generators": ["ZZI", "IZZ"],
        "logical_z": "ZZZ",
    },
    "fivequbit": {
        "generators": ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"],
        "logical_z": "ZZZZZ",
    },
    # Steane's [[7,1,3]] CSS code (Steane, PRL 77, 793 (1996)): 64 syndrome
    # spaces, of which single-qubit errors reach 22
    "steane7": {
        "generators": ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"],
        "logical_z": "ZZZZZZZ",
    },
}

_PAULI_AXES = "XYZ"
# the closed loop records its fidelities after every RECORD_EVERY-th step
RECORD_EVERY = 10
# largest residual a truncated-basis generator may leave against the exact
# superoperator action: room for rounding, where the bundled codes leave 0
_VERIFY_TOL = 1e-10


def _pauli_mask(label: str) -> int:
    """A Pauli string with its phase dropped, as one int: bit q is set where
    qubit q has an X part (X or Y), bit n + q where it has a Z part (Z or
    Y), so the product of two strings is the XOR of their masks."""
    n = len(label)
    return sum((p in "XY") << q | (p in "ZY") << (n + q) for q, p in enumerate(label))


def _phase(a, b, n: int, pop=int.bit_count):
    """w in 0..3 with P_a P_b = i^w P_{a ^ b}, where P_m = prod_q i^{x_q z_q}
    X_q^{x_q} Z_q^{z_q} is the Hermitian string of mask m:
    w = |x_a & z_a| + |x_b & z_b| + 2 |z_a & x_b| - |x_{a^b} & z_{a^b}|.
    w is odd exactly where the strings anticommute.  Takes ints, or int
    arrays with ``pop`` a popcount lookup."""
    low = (1 << n) - 1
    xa, za, xb, zb = a & low, a >> n, b & low, b >> n
    return (pop(xa & za) + pop(xb & zb) + 2 * pop(za & xb) - pop((xa ^ xb) & (za ^ zb))) % 4


@dataclass(frozen=True)
class StabilizerCode:
    """Code data: generators, stabilizer group and syndrome hops, as Pauli
    masks and sign tables, with no dense operator.

    ``group[a]`` is the ``_pauli_mask`` of the product of the generators j
    with bit j of a set, 2^l elements in all.  There is one syndrome space
    per sign pattern of the l generators, also 2^l; ``outcomes[j, s]`` is the
    +-1 outcome of generator j on space s, and space 0 is the codespace.
    Its projector Pi_s = prod_j (I +- g_j) / 2 = 2^-l sum_a signs[a, s] P_a,
    with P_a the Hermitian string of mask ``group[a]``, so ``signs`` holds
    the group element's own sign times its generators' outcomes.
    ``syndrome_hop[c, s]`` is the index of the syndrome space a sigma_c
    error (channels ordered qubit-major, axes X,Y,Z) moves syndrome space s
    into.
    """

    name: str
    n: int
    generators: list
    channel_labels: list  # strings like "IXIII"
    group: np.ndarray  # (2^l,) stabilizer-group masks
    signs: np.ndarray  # (2^l, 2^l) +-1, group element x syndrome space
    syndrome_hop: np.ndarray  # (3n, 2^l) -> syndrome space index
    outcomes: np.ndarray  # (l, 2^l) +-1 outcome of generator l per syndrome space
    logical_z: str

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @property
    def n_syndromes(self) -> int:
        return self.signs.shape[1]

    @cached_property
    def pauli(self) -> _PauliFrame:
        """The Pauli-coefficient tables of the full filter and the truncated
        basis, built on first use."""
        return _PauliFrame(self)

    def codespace_row(self) -> np.ndarray:
        """Pauli coefficients Tr[P_m Pi_0] (4^n,) of the codespace
        projector: d / 2^l times the group's signs on syndrome space 0,
        placed on the group masks."""
        row = np.zeros(self.dim ** 2)
        row[self.group] = self.dim / len(self.group) * self.signs[:, 0]
        return row


def build_code(name: str) -> StabilizerCode:
    """Construct one of the codes in ``_CODES`` from its generators.

    A syndrome is the bit set of the generators an error anticommutes with,
    and an error moves syndrome s to s ^ e.  The 2^l syndromes are ordered
    trivial first, then those of single-qubit errors in channel order, then
    the rest ascending.  The group doubles over the generators, its masks
    on plain ints: the commuting product (+-P_a) g_j is +-i^w P_{a ^ g_j}
    with w = 0 or 2, and its sign row takes g_j's outcomes.
    """
    try:
        spec = _CODES[name]
    except KeyError:
        raise ValueError(f"unknown code {name!r}; choose from {sorted(_CODES)}") from None
    generators = spec["generators"]
    n = len(generators[0])
    labels = ["I" * q + ax + "I" * (n - q - 1) for q in range(n) for ax in _PAULI_AXES]
    l, gen_masks = len(generators), [_pauli_mask(g) for g in generators]
    errors = [sum((_phase(_pauli_mask(lab), g, n) & 1) << j for j, g in enumerate(gen_masks))
              for lab in labels]
    seen = list(dict.fromkeys([0, *errors]))
    order = seen + sorted(set(range(2 ** l)) - set(seen))
    index = {syndrome: k for k, syndrome in enumerate(order)}
    hop = np.array([[index[s ^ e] for s in order] for e in errors])
    outcomes = np.array([[1.0 - 2.0 * (s >> j & 1) for s in order] for j in range(l)])
    group, signs = [0], np.ones((1, 2 ** l))
    for g, h in zip(gen_masks, outcomes):
        flips = np.array([1.0 - _phase(m, g, n) for m in group])
        signs = np.concatenate([signs, flips[:, None] * signs * h])
        group += [m ^ g for m in group]
    return StabilizerCode(
        name=name, n=n, generators=list(generators), channel_labels=labels,
        group=np.array(group), signs=signs, syndrome_hop=hop,
        outcomes=outcomes, logical_z=spec["logical_z"])


def logical_zero(code: StabilizerCode) -> np.ndarray:
    """Encoded |0>: the +1 eigenvector of the logical Z inside the codespace."""
    pi0 = code.pauli.to_density(code.codespace_row()[None])[0]
    proj = pi0 @ (np.eye(code.dim) + pauli_string(code.logical_z)) / 2.0
    psi = np.linalg.eigh(proj)[1][:, -1]
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# truncated filter


@dataclass
class TruncatedBasis:
    """Basis elements and precomputed generators of the truncated filter.

    Elements 0..S-1 are the syndrome projectors; the rest are the merged
    first-level feedback coefficients i[sigma_c, Pi_s].  Each element X_a is
    held as its real Pauli coefficients on the columns the basis occupies:
    R_aj = ``coefficients[a, j]`` = Tr[P_m X_a] for the ``_PauliFrame`` mask
    m = ``columns[j]`` (ascending), every other coefficient being zero, so that
    X_a = sum_j R_aj P_{columns[j]} / d.
    ``policy_index`` and ``policy_sign`` locate, per feedback channel, the
    element whose coefficient is Tr[-i [Pi_0, sigma_c] rho] (index -1 when
    the commutator vanishes identically).  Generator matrices act on the
    coefficient vector: drift_noise (unit gamma) and drift_meas (unit kappa)
    are dense; the feedback (per channel, unit lambda) and back-action (per
    generator) generators are held only as their nonzero ``terms``, the
    entries the step reads.
    """

    code: StabilizerCode
    columns: np.ndarray  # (C,) occupied Pauli masks, ascending
    coefficients: np.ndarray  # (E, C)
    element_descr: list  # human-readable descriptors
    drift_noise: np.ndarray  # (E, E)
    drift_meas: np.ndarray  # (E, E)
    # (k, a', value, starts): entry j adds c_k value_j p_a' to element a, the
    # entries of each a contiguous from ``starts[a]``, with k over [feedback
    # channels, generators].  Every element has entries: {g_l, Pi_s} = +-2 Pi_s,
    # and the channel whose commutator i[sigma_c, Pi_s] a first-level element is
    # moves Pi_s onto it with coefficient +-1.
    terms: tuple
    policy_index: np.ndarray
    policy_sign: np.ndarray
    verification_residual: float

    @property
    def size(self) -> int:
        return len(self.coefficients)

    def initial_state(self, rho: np.ndarray) -> np.ndarray:
        """Coefficient vector Tr[X_a rho] = sum_j R_aj Tr[P_{columns[j]} rho] / d
        of a full-space density matrix."""
        return self.coefficients @ self.code.pauli.to_pauli(rho)[..., self.columns] / self.code.dim


def _index_signs(index: np.ndarray, D: int) -> np.ndarray:
    """The signs s_k(m) that entries of ``_PauliFrame.index`` (over D = 4^n
    coefficients) encode: -1 where they point into -r, 0 at the zero slot
    2D and +1 otherwise."""
    return np.where(index == 2 * D, 0.0, np.where(index >= D, -1.0, 1.0))


def build_truncated_basis(code: StabilizerCode) -> TruncatedBasis:
    """Automated first-level truncation, on real Pauli coefficients.

    1. Start from the syndrome projectors' Pauli rows.
    2. Feedback commutators i[sigma_c, Pi_s] introduce first-level terms;
       second-level terms (feedback acting on first-level elements) are
       discarded by Hilbert-Schmidt projection onto the retained span.
    3. Pairs acting identically are merged: a sigma_c error maps syndrome s
       to s', and i[sigma_c, Pi_s] = -i[sigma_c, Pi_s'], so only one of each
       pair is kept.

    Every action expanded on the elements is a diagonal or a signed XOR map
    of the code's ``_PauliFrame``: both dissipators decay r_m by -2 ``counts``,
    and {g_l, X} and i[sigma_c, X] move coefficient m ^ e_k onto m with the
    sign its ``index`` encodes.  Nothing is held on all 4^n coefficients:
    Pi_s occupies the 2^l group masks and i[sigma_c, Pi_s] their coset by
    sigma_c, and each action is gathered on the occupied columns and the
    rows it reaches from them, outside which it vanishes.  The
    Hilbert-Schmidt product of two elements is the dot product of their
    coefficients over d, and ||dr||_1 / d bounds every matrix entry of an
    operator dr, so the residual is a bound on the entrywise error of the
    exact superoperator action in the full space.  Closure is verified
    (residual <= _VERIFY_TOL) for the noise and measurement channels and for
    feedback acting on the syndrome projectors.  A code whose merged
    elements are linearly dependent, as in some degenerate codes, raises
    ValueError naming the code.
    """
    d, S, l = code.dim, code.n_syndromes, code.n_generators
    frame, n_chan, D = code.pauli, len(code.channel_labels), code.dim ** 2
    group = code.group
    # Pi_s on the group masks, the only coefficients it has
    proj = d / len(group) * code.signs.T
    cols, vals, descr = [group] * S, list(proj), [f"P[{s}]" for s in range(S)]
    pair = {}  # (syndrome, channel) -> (element index, sign)
    for c in range(n_chan):
        # i[sigma_c, Pi_s] = -X_c(Pi_s), for every s, on the coset group ^ e_c
        at = group ^ frame.masks[c]
        comm = proj * (-2.0 * _index_signs(frame.index[c, at], D))
        for s in range(S):
            if (s, c) in pair:
                continue
            if np.abs(comm[s]).sum() < 1e-12 * d:
                pair[(s, c)] = (-1, 0.0)
                continue
            s2 = code.syndrome_hop[c, s]
            pair[(s, c)] = (len(vals), 1.0)
            cols.append(at)
            vals.append(comm[s].copy())
            descr.append(f"i[{code.channel_labels[c]}, P[{s}]]")
            if s2 != s:
                pair[(s2, c)] = (len(vals) - 1, -1.0)
                # merged-pair relation: i[sigma, Pi_s] = -i[sigma, Pi_s']
                if np.abs(comm[s] + comm[s2]).sum() > 1e-10 * d:
                    raise RuntimeError(
                        f"pair-merge relation violated for channel {code.channel_labels[c]},"
                        f" syndromes {s},{s2}")

    # every element has len(group) coefficient slots; the columns some
    # element occupies are the only ones the projections need
    E = len(vals)
    element = np.repeat(np.arange(E), len(group))
    cols, vals = np.concatenate(cols), np.concatenate(vals)
    nonzero = vals != 0.0
    slot = np.full(D, -1)  # position of an occupied mask in ``columns``, else -1
    slot[cols[nonzero]] = 0
    columns = np.flatnonzero(slot == 0)
    C = len(columns)
    slot[columns] = np.arange(C)
    R = np.zeros((E, C))
    R[element[nonzero], slot[cols[nonzero]]] = vals[nonzero]
    RT = R.T.copy()  # C order, as each action's rows are gathered from it
    try:
        gram_inv = np.linalg.inv(R @ R.T)
    except np.linalg.LinAlgError as err:
        # a degenerate code's channels can give dependent commutators
        raise ValueError(
            f"code {code.name!r}: its merged first-level elements are linearly dependent"
            " (singular Gram matrix), so the first-level truncated basis is not defined;"
            " a degenerate code needs a rank-reduced basis") from err

    def project(AT: np.ndarray) -> np.ndarray:
        """Basis coefficients (m, E) of m operators, given their Pauli
        coefficients on ``columns``, transposed (C, m)."""
        return (gram_inv @ (R @ AT)).T

    def gather(k: int) -> np.ndarray:
        """Action k on every element, transposed: its coefficients on
        ``columns``, then on the other rows it reaches (m ^ e_k for m in
        ``columns``), 2 s_k(m) R_a,(m ^ e_k), negated for a channel."""
        e = frame.masks[k]
        reach = columns ^ e
        rows = np.concatenate([columns, reach[slot[reach] < 0]])
        pos = slot[rows ^ e]
        scale = np.where(pos >= 0, 2.0 if k >= n_chan else -2.0, 0.0)
        AT = RT[pos]
        AT *= (scale * _index_signs(frame.index[k, rows], D))[:, None]
        return AT

    decay = -2.0 * frame.counts[:, columns, None]
    # each action on every element, one at a time: noise sum_c sigma_c X sigma_c
    # - 3n X, measurement drift sum_l g_l X g_l - l X, {g_l, X} per generator
    # and i[sigma_c, X] = -X_c(X) per channel
    order = [*range(n_chan, n_chan + l), *range(n_chan)]
    actions = chain((decay[j] * RT for j in (1, 0)), map(gather, order))
    drift, entries, worst = np.empty((2, E, E)), [None] * (n_chan + l), 0.0
    for j, AT in enumerate(actions):
        coeff = project(AT[:C])
        recon = coeff @ R
        AT[:C] -= recon.T
        resid = np.abs(AT, out=AT).sum(axis=0) / d
        if j < 2:
            drift[j] = coeff
        else:
            k = order[j - 2]
            entries[k] = (np.full(np.count_nonzero(coeff), k), *np.nonzero(coeff),
                          coeff[coeff != 0])
            if k < n_chan:
                # second-level truncation: keep the projection of the feedback
                # actions on first-level elements, but it must be idempotent
                resid = resid[:S]
                if np.max(np.abs(coeff[S:] - project(recon[S:].T))) > _VERIFY_TOL:
                    raise RuntimeError("projection not idempotent in basis construction")
        worst = max(worst, resid.max())
    if worst > _VERIFY_TOL:
        raise RuntimeError(
            f"truncated-basis closure verification failed: residual {worst:.3e}")

    k, a, a2, value = map(np.concatenate, zip(*entries))
    by_element = np.argsort(a, kind="stable")
    terms = (k[by_element], a2[by_element], value[by_element],
             np.unique(a[by_element], return_index=True)[1])
    policy_index, policy_sign = map(np.array, zip(*[pair[(0, c)] for c in range(n_chan)]))
    return TruncatedBasis(
        code=code, columns=columns, coefficients=R, element_descr=descr,
        drift_noise=drift[0], drift_meas=drift[1], terms=terms,
        policy_index=policy_index, policy_sign=policy_sign, verification_residual=worst)


def untruncated_closure_dim(code: StabilizerCode) -> int:
    """Number of distinct feedback-coefficient terms needed to close the
    filter dynamics without truncation.

    Every term is a Pauli-sandwiched syndrome projector, which normalizes to
    Pi_s * w for a Pauli string w defined modulo the stabilizer group, so
    terms are counted as (syndrome, coset) pairs reached by iterating the
    feedback commutators.  For the five-qubit code this reaches
    16 + 1008 = 1024 terms, no smaller than the full density matrix.
    """
    stabilizers = code.group.tolist()
    errors = [_pauli_mask(lab) for lab in code.channel_labels]
    seen = {(s, 0) for s in range(code.n_syndromes)}
    frontier = list(seen)
    while frontier:
        new_frontier = []
        for s, w in frontier:
            for c, e in enumerate(errors):
                trivial = code.syndrome_hop[c, 0] == 0
                if trivial and not _phase(e, w, code.n) & 1:
                    continue  # commutator vanishes identically
                w2 = min(e ^ w ^ st for st in stabilizers)  # coset representative
                targets = [(s, w2)] if trivial else [(s, w2), (int(code.syndrome_hop[c, s]), w2)]
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        new_frontier.append(t)
        frontier = new_frontier
    return len(seen)


def codeword_fidelity_discrete(t, gamma: float):
    """Codeword fidelity of discrete-time correction of the five-qubit code
    after depolarizing for a time t:
    (1/256) e^{-20 t g} (3 + e^{4 t g})^4 (-3 + 4 e^{4 t g}); equals 1 at
    t = 0 and decays monotonically to 1/64."""
    x = np.asarray(t, dtype=float) * gamma
    return np.exp(-20.0 * x) * (3.0 + np.exp(4.0 * x)) ** 4 * (4.0 * np.exp(4.0 * x) - 3.0) / 256.0


class _PauliFrame:
    """Index and sign tables of a code's full filter on the 4^n real Pauli
    coefficients r_m = Tr[P_m rho], with m a ``_pauli_mask`` (bit q the X
    part of qubit q, bit n + q its Z part) and P_m = prod_q i^{x_q z_q}
    X_q^{x_q} Z_q^{z_q}, so that P_m P_e = i^w(m, e) P_{m ^ e} (``_phase``).
    No rate enters a table.

    The channels k are the single-qubit Paulis sigma_c, then the generators
    g_l, with masks e_k (``masks``).  Tr[P_m X_k rho] = 2 s_k(m) r_{m ^ e_k},
    with the sign s_k(m) the real part of -i i^w(m, e_k) for
    X_c = -i[sigma_c, .] and of i^w(m, e_k) for X_l = g_l . + . g_l (so 0
    where P_m and sigma_c commute, or P_m and g_l anticommute).  ``index[k]``
    holds the position of s_k(m) r_{m ^ e_k} in the concatenation
    [r, -r, 0], so that one gather applies the signs.  ``counts`` holds, per
    m, the number of generators and of single-qubit Paulis anticommuting
    with P_m (odd w).  ``rows`` (4^n, 3n + l) gives the policy signals then
    Tr[g_l rho] as r @ rows: the coefficients of -i[Pi_0, sigma_c] =
    -X_c(Pi_0), gathered from Pi_0's row, and one-hot columns at the
    generators' masks, each over d.

    rho and r convert through the X-shift gather M[x, j] = rho[j, j ^ x~],
    x~ the bit-reversed x (``pauli_string`` puts qubit 0 in the most
    significant factor): r_(x, z) = i^{|x & z|} sum_j (-1)^{|z~ & j|} M[x, j].
    """

    def __init__(self, code: StabilizerCode):
        n, d, j = code.n, code.dim, np.arange(code.dim)
        pop = np.array([v.bit_count() for v in range(d)])  # every argument below is < d
        rev = sum((j >> q & 1) << (n - 1 - q) for q in range(n))
        self.gather = (j * d + (j ^ rev[:, None])).ravel()
        self.scatter = np.empty_like(self.gather)
        self.scatter[self.gather] = np.arange(d * d)
        self.hadamard = 1.0 - 2.0 * (pop[rev[:, None] & j] & 1)
        self.phase = 1j ** pop[j[:, None] & j]
        n_chan, m = len(code.channel_labels), np.arange(d * d)
        e = np.array([_pauli_mask(lab) for lab in code.channel_labels + code.generators])[:, None]
        w = _phase(m, e, n, pop.__getitem__)
        sign = (np.where(np.arange(len(e)) < n_chan, -1j, 1.0)[:, None] * 1j ** w).real
        self.masks = e[:, 0]
        self.index = np.where(sign == 0.0, 2 * d * d, (m ^ e) + (sign < 0.0) * d * d)
        self.counts = np.stack([(w[n_chan:] & 1).sum(axis=0), (w[:n_chan] & 1).sum(axis=0)])
        # policy columns i[sigma_c, Pi_0] = -X_c(Pi_0) from Pi_0's row, then
        # the generators' one-hot columns
        cols = np.zeros((len(e), d * d))
        cols[:n_chan] = -2.0 * sign[:n_chan] * code.codespace_row()[m ^ e[:n_chan]]
        cols[np.arange(n_chan, len(e)), e[n_chan:, 0]] = d
        self.rows = cols.T / d

    def to_pauli(self, rho: np.ndarray) -> np.ndarray:
        """Coefficients (..., 4^n) of Hermitian operators (..., d, d)."""
        lead, d = rho.shape[:-2], rho.shape[-1]
        M = rho.reshape(*lead, d * d)[..., self.gather].reshape(rho.shape)
        return np.swapaxes(((M @ self.hadamard.T) * self.phase).real, -1, -2).reshape(*lead, -1)

    def to_density(self, r: np.ndarray) -> np.ndarray:
        """Operators (..., d, d) of coefficients (..., 4^n): sum_m r_m P_m / d."""
        lead, d = r.shape[:-1], len(self.phase)
        M = (np.swapaxes(r.reshape(*lead, d, d), -1, -2) * self.phase.conj()) @ self.hadamard
        return (M.reshape(*lead, d * d) / d)[..., self.scatter].reshape(*lead, d, d)


class _FullStep:
    """The full filter's batch of Pauli coefficients r (B, 4^n), compiled
    for one (gamma, kappa, dt): r is a view into a signed buffer
    [r, -r, 0] (B, 2 * 4^n + 1) that every step overwrites, so each
    channel's signed XOR map is one gather by ``_PauliFrame.index``.

    The Euler step keeps 1 - 2 dt (kappa c_0 + gamma c_1) of each
    coefficient, with c the frame's ``counts``; where that is not positive
    the step flips or zeroes the decaying coefficients instead of damping
    them, so such a (gamma, kappa, dt) raises ValueError before any step."""

    def __init__(self, frame: _PauliFrame, r: np.ndarray, gamma: float, kappa: float,
                 dt: float):
        B, D = r.shape
        self.index, self.dt, self.root = frame.index, dt, 2.0 * np.sqrt(kappa)
        decay = 2.0 * dt * (kappa * frame.counts[0] + gamma * frame.counts[1])
        if np.any(decay >= 1.0):
            raise ValueError(
                f"2 dt (kappa c0 + gamma c1) = {decay.max():.6g} is outside the Euler"
                f" stability range < 1 of the full QEC filter (dt = {dt:g}, kappa = {kappa:g},"
                f" gamma = {gamma:g})")
        self.keep = 1.0 - decay
        self.signed = np.zeros((B, 2 * D + 1))
        self.r, self.minus = self.signed[:, :D], self.signed[:, D:2 * D]
        self.coef = np.empty((B, len(self.index)))
        self.r[:] = r
        np.negative(self.r, out=self.minus)

    def step(self, dQ: np.ndarray, lambdas: np.ndarray, signal: np.ndarray) -> None:
        """One Euler step in place, given the signals s_l = 2 sqrt(kappa)
        Tr[g_l rho]: with dW_l = dQ_l - s_l dt,

            r' = (keep - sum_l s_l dW_l) r + sum_k c_k [r, -r, 0][index_k],
            c = [2 lambda_c dt, 2 sqrt(kappa) dW_l],

        divided by its trace r'_I; a non-finite trace raises
        FloatingPointError naming the batch slots."""
        n_chan = lambdas.shape[1]
        dW = dQ - signal * self.dt
        np.multiply(lambdas, 2.0 * self.dt, out=self.coef[:, :n_chan])
        np.multiply(dW, self.root, out=self.coef[:, n_chan:])
        out = self.r * (self.keep - np.vecdot(signal, dW)[:, None])
        # slot by slot, so that the gathered (3n + l, 4^n) temporary reuses freed
        # heap: a (B, 3n + l, 4^n) one costs fresh pages and raises peak memory;
        # every index is in range, and clip mode skips the bounds check
        for row, c, dest in zip(self.signed, self.coef, out):
            dest += c @ row.take(self.index, mode="clip")
        finite = np.isfinite(out[:, 0])
        if not finite.all():
            raise FloatingPointError(
                f"non-finite full filter state at slots {np.flatnonzero(~finite).tolist()}")
        np.divide(out, out[:, :1], out=self.r)
        np.negative(self.r, out=self.minus)


class _TruncatedStep:
    """The truncated filter's Euler step and feedback policy, compiled for
    one (gamma, kappa, dt).  The constant part I + (gamma N + kappa M) dt
    splits into its diagonal, applied elementwise, and its off-diagonal
    entries, which join the ``terms`` of the feedback and back-action
    generators under a coefficient column fixed at 1: one gather and one
    ``reduceat`` per step form every product but the diagonal, the values
    scaled by dt, sqrt(kappa) or 1.  The off-diagonal entries kept are
    those ``drift_noise`` or ``drift_meas`` hold, whatever the rates."""

    def __init__(self, basis: TruncatedBasis, gamma: float, kappa: float, dt: float):
        k, a2, value, starts = basis.terms
        E, n_chan = basis.size, len(basis.code.channel_labels)
        fixed = np.multiply(basis.drift_noise, gamma * dt)
        fixed += np.multiply(basis.drift_meas, kappa * dt)
        self.diag = fixed.diagonal() + 1.0
        off = (basis.drift_noise != 0.0) | (basis.drift_meas != 0.0)
        off.flat[::E + 1] = False
        a_off, a2_off = np.nonzero(off)
        a = np.concatenate([np.repeat(np.arange(E), np.diff(starts, append=len(k))), a_off])
        by_element = np.argsort(a, kind="stable")
        one = n_chan + basis.code.n_generators  # the coefficient column fixed at 1
        self.k = np.concatenate([k, np.full(len(a_off), one)])[by_element]
        self.a2 = np.concatenate([a2, a2_off])[by_element]
        self.value = np.concatenate([value * np.where(k < n_chan, dt, np.sqrt(kappa)),
                                     fixed[a_off, a2_off]])[by_element]
        self.starts = np.unique(a[by_element], return_index=True)[1]
        self.n_chan, self.width = n_chan, one + 1
        self.policy_index, self.policy_sign = basis.policy_index, basis.policy_sign
        self.vanishing = np.flatnonzero(basis.policy_index < 0)
        self.outcomes, self.dt, self.root = basis.code.outcomes, dt, 2.0 * np.sqrt(kappa)

    def policy(self, p: np.ndarray, lambda_max: float,
               out: np.ndarray | None = None) -> np.ndarray:
        """The loop's feedback strengths from a stack of truncated states:
        ``_bang_bang`` of the policy signal read off each state, and 0 for
        channels whose commutator vanishes identically; written into
        ``out`` if given."""
        # clip mode reads index -1 as 0: those channels are set to 0 below
        signal = self.policy_sign * p.take(self.policy_index, axis=1, mode="clip")
        out = _bang_bang(signal, lambda_max, out)
        out[:, self.vanishing] = 0.0
        return out

    def __call__(self, p: np.ndarray, dQ: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
        """dp = (gamma N + kappa M + sum_c lambda_c F_c) p dt
                + sqrt(kappa) sum_l (H_l - 2 m_l) p dW_l,
        with m_l = h_l^T p and dW_l = dQ_l - 2 sqrt(kappa) m_l dt; the
        syndrome block is clipped at zero and the state renormalized by its
        sum."""
        S = self.outcomes.shape[1]
        means = p[:, :S] @ self.outcomes.T
        # the coefficients [lambda_c, dW_l, 1] of the gathered terms
        coef = np.empty((len(p), self.width))
        coef[:, :self.n_chan] = lambdas
        dW = np.subtract(dQ, self.root * means * self.dt, out=coef[:, self.n_chan:-1])
        coef[:, -1] = 1.0
        prod = coef.take(self.k, axis=1)
        prod *= self.value
        prod *= p.take(self.a2, axis=1)
        out = np.add.reduceat(prod, self.starts, axis=1)
        out += p * (self.diag - self.root * np.vecdot(dW, means)[:, None])
        head = out[:, :S]
        np.maximum(head, 0.0, out=head)
        total = head.sum(axis=1)
        if not (total.min() > 0.0 and total.max() < np.inf):  # NaN fails too
            bad = ~((total > 0) & np.isfinite(total))
            raise FloatingPointError(
                f"truncated filter state degenerated at slots {np.flatnonzero(bad).tolist()}")
        out /= total[:, None]
        return out


def _bang_bang(vals: np.ndarray, lambda_max: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """Raw-sign bang-bang strengths, written into ``out`` if given; an exact
    float zero gets +lambda_max so the loop never stalls on an exactly
    block-diagonal state."""
    out = np.sign(vals, out=out)
    np.copyto(out, 1.0, where=vals == 0.0)
    out *= lambda_max
    return out


def _nonzero_read(table: np.ndarray, buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, table[live]) for the rows ``live`` of a (4^n, m) read table that
    hold a nonzero: with r the first 4^n columns of each row of the
    C-contiguous (B, *) ``buffer``, buffer.take(at, mode="clip") is
    r[:, live], so that its product with table[live] reads r @ table off
    those rows alone, in one gather."""
    live = np.flatnonzero(table.any(axis=1))
    return np.arange(len(buffer))[:, None] * buffer.shape[1] + live, table[live]


def run_feedback_batch(code: StabilizerCode, gamma: float, kappa: float,
                       lambda_max: float, T: float, dt: float, seed, n_traj: int,
                       controller: str = "truncated",
                       basis: TruncatedBasis | None = None) -> dict:
    """Closed-loop trajectories in lockstep: the full filter is the physical
    system, the chosen controller computes the feedback strengths from the
    measurement current, and those strengths drive the system.

    controller is one of "full" (feedback from the system state itself),
    "truncated" (co-integrate the given truncated basis) or "none".
    Trajectory k draws its measurement noise from the stream (seed, k)
    regardless of the controller, so paired comparisons share their noise
    realizations.  With a truncated controller the per-step policy signs of
    the full state are also recorded for agreement statistics.

    Returns time grid, per-trajectory codespace/codeword fidelity traces of
    shape (n_traj, n_records), recorded after every ``RECORD_EVERY``-th
    step, per-trajectory policy agreement and the final full states.  The
    full filter steps on Pauli coefficients (``_PauliFrame``) and converts
    from and to density matrices only at the run's ends; a
    FloatingPointError from either filter is raised again naming the step,
    counted from 1, the time it reaches and the batch slots.
    """
    if controller not in ("truncated", "full", "none"):
        raise ValueError(f"unknown controller {controller!r}; choose truncated, full or none")
    if controller == "truncated" and basis is None:
        raise ValueError("truncated controller requires a basis")
    # the Euler feedback rotation grows the rotated pair's norm by
    # sqrt(1 + (2 lambda dt)^2) per step, so a radian or more per step is
    # refused before any step, as the full filter's decay is
    if controller != "none" and not 2.0 * abs(lambda_max) * dt < 1.0:  # NaN fails too
        raise ValueError(f"2 |lambda_max| * dt = {2.0 * abs(lambda_max) * dt:g} is outside the"
                         " range 2 |lambda_max| * dt < 1 of the feedback rotation")
    psi0 = logical_zero(code)
    rho0 = np.outer(psi0, psi0.conj())
    frame, n_chan = code.pauli, len(code.channel_labels)
    # both filters are compiled once per call and step in lockstep
    full = _FullStep(frame, np.broadcast_to(frame.to_pauli(rho0), (n_traj, code.dim ** 2)),
                     gamma, kappa, dt)
    # each read takes only the nonzero rows of its table: the policy signals
    # and Tr[g_l rho] those of ``frame.rows``, the fidelities with Pi_0 and
    # rho0 those of their own rows
    read_at, read = _nonzero_read(frame.rows, full.signed)
    record_at, record = _nonzero_read(
        np.stack([code.codespace_row(), frame.to_pauli(rho0)]).T / code.dim, full.signed)
    if controller == "truncated":
        truncated = _TruncatedStep(basis, gamma, kappa, dt)
        p = np.broadcast_to(basis.initial_state(rho0), (n_traj, basis.size)).copy()
    lambdas, signs = np.zeros((n_traj, n_chan)), np.empty((n_traj, n_chan))
    same = np.empty((n_traj, n_chan), dtype=bool)
    steps, chunk = int(round(T / dt)), 20_000
    rngs = [rng_stream(seed, k) for k in range(n_traj)]
    fidelities, agree, agree_steps = [], np.zeros(n_traj), 0
    for done in range(0, steps, chunk):
        noise = np.stack([rng.standard_normal((min(chunk, steps - done), code.n_generators))
                          for rng in rngs]) * np.sqrt(dt)
        for k, dV in enumerate(np.swapaxes(noise, 0, 1), done):
            # policy signals and generator expectations Tr[g_l rho], one product
            vals = full.signed.take(read_at, mode="clip") @ read
            if controller == "full":
                _bang_bang(vals[:, :n_chan], lambda_max, lambdas)
            elif controller == "truncated":
                truncated.policy(p, lambda_max, lambdas)
                _bang_bang(vals[:, :n_chan], lambda_max, signs)
                agree += np.equal(signs, lambdas, out=same).sum(axis=1) / n_chan
                agree_steps += 1
            signal = full.root * vals[:, n_chan:]
            dQ = signal * dt + dV
            try:
                full.step(dQ, lambdas, signal)
                if controller == "truncated":
                    p = truncated(p, dQ, lambdas)
            except FloatingPointError as err:
                raise FloatingPointError(f"{err}, at step {k + 1} (t = {(k + 1) * dt:.6g})") from err
            if (k + 1) % RECORD_EVERY == 0:
                fidelities.append(full.signed.take(record_at, mode="clip") @ record)
    fidelities = np.array(fidelities).reshape(-1, n_traj, 2)
    out = {
        "times": np.arange(1, len(fidelities) + 1) * RECORD_EVERY * dt,
        "codespace": fidelities[..., 0].T,
        "codeword": fidelities[..., 1].T,
        "final_rho": frame.to_density(full.r),
    }
    if agree_steps:
        out["policy_agreement"] = agree / agree_steps
    return out
