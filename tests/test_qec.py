import dataclasses
import tracemalloc
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qfilt import operators as op
from qfilt import qec
from qfilt.sde import rng_stream
from reference import (commutator, full_filter_step, projector_rows, random_states,
                       sme_euler_step, truncated_filter_step)


@pytest.fixture(scope="module")
def five():
    return qec.build_code("fivequbit")


@pytest.fixture(scope="module")
def five_basis(five):
    return qec.build_truncated_basis(five)


@pytest.fixture(scope="module")
def bitflip():
    return qec.build_code("bitflip3")


@pytest.fixture(scope="module")
def steane_build():
    """Steane's truncated basis, built once for the module, with the
    tracemalloc peak of the build (its code's Pauli frame included)."""
    code = qec.build_code("steane7")
    tracemalloc.start()
    try:
        basis = qec.build_truncated_basis(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return basis, peak


def code_by_name(name, request):
    """The named code, Steane's from the module's one basis build."""
    if name == "steane7":
        return request.getfixturevalue("steane_build")[0].code
    return qec.build_code(name)


def dense_reference(code):
    """The code's dense operators from pauli_string products, independent of
    its masks and sign table: the syndrome projectors prod_j (I +- g_j) / 2,
    the single-qubit Paulis sigma_c, the generators g_l and the policy
    operators -i[Pi_0, sigma_c]."""
    G = np.stack([op.pauli_string(g) for g in code.generators])
    P = np.stack([op.pauli_string(lab) for lab in code.channel_labels])
    eye = np.eye(code.dim)
    proj = np.stack([reduce(np.matmul, [(eye + h * g) / 2.0 for g, h in zip(G, hs)])
                     for hs in code.outcomes.T])
    return SimpleNamespace(gen_ops=G, single_paulis=P, projectors=proj,
                           policy_ops=-1j * (proj[0] @ P - P @ proj[0]))


@pytest.fixture(scope="module")
def five_dense(five):
    return dense_reference(five)


def dense_projectors(code):
    """The syndrome projectors expanded from the code's Pauli rows."""
    return code.pauli.to_density(projector_rows(code))


def dense_generators(basis):
    """The feedback (3n, E, E) and back-action (l, E, E) generators that the
    basis holds as sparse ``terms``, expanded into dense matrices."""
    k, a2, value, starts = basis.terms
    a = np.repeat(np.arange(basis.size), np.diff(starts, append=len(k)))
    n_chan = len(basis.code.channel_labels)
    gens = np.zeros((n_chan + basis.code.n_generators, basis.size, basis.size))
    gens[k, a, a2] = value
    return gens[:n_chan], gens[n_chan:]


def dense_truncated_step(basis, p, dQ, gamma, kappa, lambdas, dt, generators=None):
    """The truncated filter step from dense generator products, those of
    ``dense_generators`` unless given."""
    S = basis.code.n_syndromes
    feedback, meas_H = generators or dense_generators(basis)
    drift = p @ (gamma * basis.drift_noise + kappa * basis.drift_meas).T
    drift += np.einsum("bc,cae,be->ba", lambdas, feedback, p)
    means = p[:, :S] @ basis.code.outcomes.T
    dW = dQ - 2.0 * np.sqrt(kappa) * means * dt
    hp = np.einsum("lae,be->bla", meas_H, p)
    stoch = np.einsum("bl,bla->ba", dW, hp - 2.0 * means[:, :, None] * p[:, None, :])
    out = p + drift * dt + np.sqrt(kappa) * stoch
    out[:, :S] = np.clip(out[:, :S], 0.0, None)
    return out / out[:, :S].sum(axis=1)[:, None]


def dense_truncated_basis(code):
    """The truncated basis built on dense 2^n x 2^n matrices, independent of
    the Pauli tables: the elements, then every action on each (the sums
    P X P and G X G, {g_l, X} and i[sigma_c, X]) projected with the
    Hilbert-Schmidt Gram of the dense elements.  Returns (elements,
    descriptors, policy_index, policy_sign, [noise, measurement drift,
    meas_H..., feedback...])."""
    S, n_chan = code.n_syndromes, len(code.channel_labels)
    ref = dense_reference(code)
    P, G = ref.single_paulis, ref.gen_ops
    mats, descr, pair = list(ref.projectors.astype(complex)), [f"P[{s}]" for s in range(S)], {}
    for c in range(n_chan):
        for s in range(S):
            if (s, c) in pair:
                continue
            C = 1j * commutator(P[c], ref.projectors[s])
            if np.max(np.abs(C)) < 1e-12:
                pair[(s, c)] = (-1, 0.0)
                continue
            pair[(s, c)] = (len(mats), 1.0)
            pair[(code.syndrome_hop[c, s], c)] = (len(mats), -1.0)
            mats.append(C)
            descr.append(f"i[{code.channel_labels[c]}, P[{s}]]")
    X = np.stack(mats)

    def vec(A):
        v = A.reshape(len(A), -1)
        return np.concatenate([v.real, v.imag], axis=1)

    B = vec(X)
    gram_inv = np.linalg.inv(B @ B.T)
    gens = np.zeros((2 + len(G) + n_chan, len(X), len(X)))
    for a, Xa in enumerate(X):
        acts = np.concatenate([
            [(P @ Xa @ P).sum(axis=0) - n_chan * Xa, (G @ Xa @ G).sum(axis=0) - len(G) * Xa],
            G @ Xa + Xa @ G,
            1j * commutator(P, Xa)])
        gens[:, a] = (gram_inv @ (B @ vec(acts).T)).T
    policy_index, policy_sign = map(np.array, zip(*[pair[(0, c)] for c in range(n_chan)]))
    return X, descr, policy_index, policy_sign, gens


def full_table_basis(code):
    """The truncated basis as the former build made it, every element and
    every action held on all 4^n Pauli coefficients: the elements R
    (E, 4^n), from commutators gathered out of the projectors' full signed
    table, and the generator stack [noise, measurement drift, {g_l, .}...,
    feedback...] projected from each action's (4^n, E) gather."""
    d, S, l = code.dim, code.n_syndromes, code.n_generators
    frame, n_chan = code.pauli, len(code.channel_labels)

    def signed_table(X):
        # row index[k, m'] of 2 [X^T, -X^T, 0] is coefficient m' of action k
        return 2.0 * np.concatenate([X.T, -X.T, np.zeros((1, len(X)))])

    table = signed_table(projector_rows(code))
    rows, pair = list(projector_rows(code)), set()
    for c in range(n_chan):
        comm = -table[frame.index[c]].T
        for s in range(S):
            if (s, c) in pair:
                continue
            pair |= {(s, c), (code.syndrome_hop[c, s], c)}
            if np.abs(comm[s]).sum() >= 1e-12 * d:
                rows.append(comm[s])
    R = np.array(rows)
    inside = R.any(axis=0)
    R_in = R[:, inside]
    gram_inv = np.linalg.inv(R_in @ R_in.T)
    table = signed_table(R)
    decay = -2.0 * frame.counts[:, :, None]
    actions = [decay[1] * R.T, decay[0] * R.T,
               *(table[frame.index[k]] for k in range(n_chan, n_chan + l)),
               *(-table[frame.index[c]] for c in range(n_chan))]
    return R, np.stack([(gram_inv @ (R_in @ AT[inside])).T for AT in actions])


class TestBuildCode:
    def test_fivequbit_structure(self, five):
        assert five.n == 5
        assert five.n_syndromes == 16
        # the identity coefficient of Pi_s is its trace
        ranks = [int(round(t)) for t in projector_rows(five)[:, 0]]
        assert ranks == [2] * 16

    @pytest.mark.parametrize("name", ["fivequbit", "bitflip3"])
    def test_projector_rows_match_dense_products(self, name):
        code = qec.build_code(name)
        ref = dense_reference(code)
        assert np.max(np.abs(dense_projectors(code) - ref.projectors)) < 1e-12
        assert np.array_equal(code.codespace_row(), projector_rows(code)[0])
        # the frame's rows: policy signals, then Tr[g_l rho]
        expect = code.pauli.to_pauli(np.concatenate([ref.policy_ops, ref.gen_ops])).T / code.dim
        assert np.max(np.abs(code.pauli.rows - expect)) < 1e-12

    def test_projector_completeness(self, five, bitflip):
        for code in (five, bitflip):
            assert np.max(np.abs(dense_projectors(code).sum(axis=0) - np.eye(code.dim))) < 1e-12

    def test_projectors_idempotent_orthogonal(self, five):
        P = dense_projectors(five)
        for i in range(16):
            assert np.max(np.abs(P[i] @ P[i] - P[i])) < 1e-12
        assert np.max(np.abs(P[0] @ P[3])) < 1e-12

    def test_steane_code_builds_every_syndrome_space(self):
        # a non-perfect code: 21 single-qubit errors reach only some of the 64
        # syndromes, so the projectors come from the full group of sign patterns
        code = qec.build_code("steane7")
        ref = dense_reference(code)
        P = dense_projectors(code)
        assert P.shape == (64, 128, 128)
        assert np.max(np.abs(P - ref.projectors)) < 1e-12
        assert np.max(np.abs(P.sum(axis=0) - np.eye(128))) < 1e-12
        assert np.max(np.abs(P @ P - P)) < 1e-12
        assert np.max(np.abs(P - np.swapaxes(P, -1, -2).conj())) < 1e-12
        # Tr[P_s P_t] = 0 for s != t makes Hermitian projectors orthogonal
        flat = P.reshape(64, -1)
        assert np.max(np.abs(flat.conj() @ flat.T - 2.0 * np.eye(64))) < 1e-12
        # sigma_c P_s sigma_c, from each Pauli's permutation and phases
        perm = np.abs(ref.single_paulis).argmax(axis=-1)
        phase = np.take_along_axis(ref.single_paulis, perm[..., None], axis=-1)[..., 0]
        for c in range(21):
            moved = phase[c][:, None] * P[:, perm[c]][:, :, perm[c]] * phase[c].conj()
            assert np.max(np.abs(moved - P[code.syndrome_hop[c]])) < 1e-12

    def test_shor_code_builds_without_its_pauli_frame(self, monkeypatch):
        # a degenerate [[9,1,3]] code: 256 syndrome spaces, of which the
        # codespace and the 27 single-qubit errors reach 22; nothing in the
        # build may touch the 4^9-coefficient frame
        monkeypatch.setitem(qec._CODES, "shor9", {
            "generators": ["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
                           "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"],
            "logical_z": "XXXXXXXXX"})
        code = qec.build_code("shor9")
        assert code.n_syndromes == 256
        assert len({0, *code.syndrome_hop[:, 0].tolist()}) == 22
        for row in code.syndrome_hop:
            assert np.array_equal(np.sort(row), np.arange(256))
        assert "pauli" not in vars(code)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            qec.build_code("steane")

    def test_logical_zero(self, five, five_dense):
        psi = qec.logical_zero(five)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert abs(np.real(psi.conj() @ five_dense.projectors[0] @ psi) - 1.0) < 1e-12
        zbar = op.pauli_string(five.logical_z)
        assert np.linalg.norm(zbar @ psi - psi) < 1e-12


class TestFullFilter:
    def test_frozen_without_rates(self, five):
        rho = np.outer(qec.logical_zero(five), qec.logical_zero(five).conj())
        out = full_filter_step(five, rho, np.zeros(4), 0.0, 0.0, np.zeros(15), 1e-4)
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_syndrome_eigenstate_fixed_under_measurement(self, five):
        rho = np.outer(qec.logical_zero(five), qec.logical_zero(five).conj())
        h = five.outcomes[:, 0]
        kappa = 50.0
        # zero innovation: dQ equals the expected signal
        dQ = 2.0 * np.sqrt(kappa) * h * 1e-5
        out = full_filter_step(five, rho, dQ, 0.0, kappa, np.zeros(15), 1e-5)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_depolarizing_matches_master_equation(self, five, five_dense):
        # kappa = lambda = 0: deterministic depolarizing decay; compare the
        # codespace fidelity against a scipy master-equation oracle
        gamma = 1.0
        psi = qec.logical_zero(five)
        rho0 = np.outer(psi, psi.conj())
        P = five_dense.single_paulis

        def rhs(_, y):
            rho = y.reshape(32, 32)
            out = gamma * (np.einsum("kij,kjl->il", P, np.matmul(rho[None], P))
                           - 15 * rho)
            return out.ravel()

        sol = solve_ivp(rhs, (0.0, 0.05), rho0.ravel().astype(complex),
                        rtol=1e-9, atol=1e-11)
        oracle = sol.y[:, -1].reshape(32, 32)
        rho = rho0.copy()
        for _ in range(5000):
            rho = full_filter_step(five, rho, np.zeros(4), gamma, 0.0, np.zeros(15), 1e-5)
        assert np.max(np.abs(rho - oracle)) < 1e-4
        # initial slope of the codespace fidelity is -3 n gamma
        drho = full_filter_step(five, rho0, np.zeros(4), gamma, 0.0, np.zeros(15), 1e-6) - rho0
        slope = np.trace(five_dense.projectors[0] @ drho).real / 1e-6
        assert abs(slope + 3 * 5 * gamma) < 1e-6 * abs(3 * 5 * gamma) + 1e-3

    def test_all_terms_match_superoperator_reference(self, five, five_dense):
        # depolarizing, measurement and feedback at once against a per-term
        # reference: D/M per generator, D per single-qubit Pauli, and
        # -i[sum lambda sigma, rho]
        gamma, kappa, dt = 1.3, 40.0, 1e-5
        rng = np.random.default_rng(8)
        rho = random_states(32, 1, rng)[0]
        lambdas = rng.choice([-150.0, 150.0], size=15)
        dQ = rng.standard_normal(4) * np.sqrt(dt)
        out = full_filter_step(five, rho, dQ, gamma, kappa, lambdas, dt)
        P = five_dense.single_paulis
        H = np.einsum("c,cij->ij", lambdas, P)
        expect = sme_euler_step(H, np.sqrt(kappa) * five_dense.gen_ops, rho, dQ, dt,
                                unmonitored=np.sqrt(gamma) * P)
        assert np.max(np.abs(out - expect)) <= 1e-12


class TestPauliForm:
    @staticmethod
    def label(mask, n):
        # bit q of the mask is the X part of qubit q, bit n + q its Z part
        return "".join("IXZY"[(mask >> q & 1) | (mask >> (n + q) & 1) << 1] for q in range(n))

    def test_round_trip_and_every_coefficient(self, bitflip):
        frame = bitflip.pauli
        rho = random_states(8, 3, np.random.default_rng(21))
        r = frame.to_pauli(rho)
        assert r.shape == (3, 64)
        assert np.max(np.abs(frame.to_density(r) - rho)) <= 1e-13
        for m in range(64):
            P = op.pauli_string(self.label(m, 3))
            expect = np.einsum("ij,bji->b", P, rho).real
            assert np.max(np.abs(r[:, m] - expect)) <= 1e-13, self.label(m, 3)

    @pytest.mark.parametrize("B", [1, 8])
    @pytest.mark.parametrize("name", ["fivequbit", "bitflip3"])
    def test_step_matches_dense_kernel(self, name, B):
        # depolarizing, measurement and feedback at once against the dense
        # Euler step on the generators, with the depolarizing Paulis as
        # unmonitored channels
        code = qec.build_code(name)
        n_chan, gamma, kappa, dt = len(code.channel_labels), 1.3, 40.0, 1e-5
        rng = np.random.default_rng(30 + B)
        rho = random_states(code.dim, B, rng)
        lambdas = rng.choice([-150.0, 150.0], size=(B, n_chan))
        dQ = rng.standard_normal((B, code.n_generators)) * np.sqrt(dt)
        ref = dense_reference(code)
        P = ref.single_paulis
        H = np.einsum("bc,cij->bij", lambdas, P)
        expect = np.stack([sme_euler_step(H[b], np.sqrt(kappa) * ref.gen_ops, rho[b], dQ[b], dt,
                                          unmonitored=np.sqrt(gamma) * P) for b in range(B)])
        frame = code.pauli
        signal = 2.0 * np.sqrt(kappa) * np.einsum("lij,bji->bl", ref.gen_ops, rho).real
        full = qec._FullStep(frame, frame.to_pauli(rho), gamma, kappa, dt)
        full.step(dQ, lambdas, signal)
        assert np.max(np.abs(frame.to_density(full.r) - expect)) <= 1e-13

    @pytest.mark.parametrize("name", ["bitflip3", "fivequbit", "steane7"])
    def test_logical_zero_policy_signals_are_exact_zeros(self, name, request):
        # the closed loop's first bang-bang step reads these as exact zeros,
        # from the dense product and from the loop's read on the nonzero rows
        code = code_by_name(name, request)
        n_chan = len(code.channel_labels)
        psi = qec.logical_zero(code)
        r = np.broadcast_to(code.pauli.to_pauli(np.outer(psi, psi.conj())), (2, code.dim ** 2))
        full = qec._FullStep(code.pauli, r, 1.0, 100.0, 1e-5)
        at, rows = qec._nonzero_read(code.pauli.rows, full.signed)
        assert len(rows) < len(code.pauli.rows)
        for vals in (r @ code.pauli.rows, full.signed.take(at, mode="clip") @ rows):
            assert np.array_equal(vals[:, :n_chan], np.zeros((2, n_chan)))

    @pytest.mark.parametrize("name", ["bitflip3", "fivequbit", "steane7"])
    def test_nonzero_row_read_matches_dense_product(self, name, request):
        # on a state stepped off the logical zero by noise, feedback and
        # measurement, the loop's read leaves out only zero terms
        code = code_by_name(name, request)
        frame, n_chan, dt = code.pauli, len(code.channel_labels), 1e-5
        psi = qec.logical_zero(code)
        r0 = np.broadcast_to(frame.to_pauli(np.outer(psi, psi.conj())), (3, code.dim ** 2))
        full = qec._FullStep(frame, r0, 1.0, 100.0, dt)
        rng = np.random.default_rng(4)
        at, rows = qec._nonzero_read(frame.rows, full.signed)
        for _ in range(5):
            lambdas = rng.choice([-200.0, 200.0], size=(3, n_chan))
            signal = 20.0 * (full.r @ frame.rows)[:, n_chan:]
            dQ = signal * dt + rng.standard_normal((3, code.n_generators)) * np.sqrt(dt)
            full.step(dQ, lambdas, signal)
        expect = full.r @ frame.rows
        got = full.signed.take(at, mode="clip") @ rows
        assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect))

    def test_nonfinite_rate_names_slots_with_truncated_controller(self, five, five_basis):
        with pytest.raises(FloatingPointError,
                           match=r"full filter state at slots \[0, 1\], at step 1 \(t = 1e-05\)"):
            qec.run_feedback_batch(five, np.nan, 100.0, 200.0, T=1e-4, dt=1e-5, seed=0,
                                   n_traj=2, controller="truncated", basis=five_basis)


class TestFeedbackPolicy:
    def test_matches_trace_formula(self, five, five_dense):
        # the full controller's rule: bang-bang of the signals r @ rows
        rng = np.random.default_rng(0)
        rho = random_states(32, 1, rng)[0]
        vals = five.pauli.to_pauli(rho) @ five.pauli.rows
        lam = qec._bang_bang(vals[:15], 7.0)
        pi0 = five_dense.projectors[0]
        for c in range(15):
            sig = five_dense.single_paulis[c]
            val = np.trace(-1j * (pi0 @ sig - sig @ pi0) @ rho).real
            assert lam[c] == 7.0 * np.sign(val)

    def test_truncated_policy_reads_coefficients(self, five_basis):
        # the truncated controller's strengths, read off the truncated state,
        # against the full controller's from the same state; a channel whose
        # policy row is identically zero (bitflip3's Z channels) gets 0
        bitflip = qec.build_code("bitflip3")
        for basis in (five_basis, qec.build_truncated_basis(bitflip)):
            code = basis.code
            n_chan, d = len(code.channel_labels), code.dim
            rng = np.random.default_rng(1)
            rho = random_states(d, 1, rng)[0]
            p = basis.initial_state(rho)
            _, lam = truncated_filter_step(basis, p, np.zeros(code.n_generators),
                                           0.0, 0.0, 3.0, 1e-5)
            vals = code.pauli.to_pauli(rho) @ code.pauli.rows
            expect = qec._bang_bang(vals[:n_chan], 3.0)
            expect[~code.pauli.rows[:, :n_chan].any(axis=0)] = 0.0
            assert np.array_equal(lam, expect), code.name


class TestWonham:
    def test_outcome_signs(self, five, five_dense):
        h = five.outcomes
        assert h.shape == (4, 16)
        assert np.all(np.isin(h, [-1.0, 1.0]))
        assert np.all(h[:, 0] == 1.0)
        # syndrome of channel c flips exactly the generators the error
        # anticommutes with, g sigma = -sigma g
        for c, sig in enumerate(five_dense.single_paulis):
            s = five.syndrome_hop[c, 0]
            expect = [-1.0 if np.allclose(g @ sig, -sig @ g) else 1.0 for g in five_dense.gen_ops]
            assert np.array_equal(h[:, s], expect)

    def test_collapse_under_pure_measurement(self, five):
        # gamma = 0, truth in a fixed syndrome: the syndrome-probability
        # (Wonham) filter localizes there almost surely.  With the syndrome
        # fixed its posterior has the closed form p_s(t) prop
        # exp(2 sqrt(kappa) h_s . Q_t), whose statistics are cheap: at
        # t = 3/kappa the fraction of records with p_truth > 0.99 exceeds
        # 95%; at t = 1/kappa localization is still incomplete (fraction
        # near 40%).
        kappa = 100.0
        h = five.outcomes
        rng = rng_stream(99)
        n = 4000
        for T, lo, hi in ((0.03, 0.95, 1.0), (0.01, 0.25, 0.55)):
            hits = 0
            for seed in range(n):
                truth = seed % 16
                Q = 2.0 * np.sqrt(kappa) * h[:, truth] * T \
                    + rng.standard_normal(4) * np.sqrt(T)
                logp = 2.0 * np.sqrt(kappa) * (h.T @ Q)
                logp -= logp.max()
                p = np.exp(logp)
                p /= p.sum()
                hits += p[truth] > 0.99
            assert lo <= hits / n <= hi


class TestTruncatedBasis:
    def test_element_count_fivequbit(self, five_basis):
        assert five_basis.size == 136

    def test_construction_verified(self, five_basis):
        assert five_basis.verification_residual <= 1e-10

    def test_untruncated_closure_count(self, five):
        assert qec.untruncated_closure_dim(five) == 1024

    def test_bitflip_basis(self, bitflip):
        # the bit-flip code is degenerate under depolarizing noise (X and Y
        # errors share syndromes, Z errors are invisible): the automated
        # closure gives 4 syndrome projectors + 12 merged commutators, not
        # the perfect-code count
        basis = qec.build_truncated_basis(bitflip)
        assert basis.code.n_syndromes == 4
        assert basis.size == 16
        assert basis.verification_residual <= 1e-10
        # Z channels have identically vanishing policy coefficients
        z_channels = [c for c, lab in enumerate(bitflip.channel_labels)
                      if lab.strip("I") == "Z"]
        assert all(basis.policy_index[c] == -1 for c in z_channels)

    def test_degenerate_code_names_its_dependent_elements(self, monkeypatch):
        # ZZI and XXI stabilize a Bell pair on qubits 0 and 1, a degenerate
        # code whose merged commutators are linearly dependent: the Gram
        # matrix is singular, which numpy reported as a bare LinAlgError
        monkeypatch.setitem(qec._CODES, "degenerate3",
                            {"generators": ["ZZI", "XXI"], "logical_z": "IIZ"})
        with pytest.raises(ValueError, match=r"^code 'degenerate3': its merged first-level"
                                             r" elements are linearly dependent"):
            qec.build_truncated_basis(qec.build_code("degenerate3"))

    @pytest.mark.parametrize("name", ["bitflip3", "fivequbit"])
    def test_matches_dense_reference(self, name, five_basis):
        code = qec.build_code(name)
        basis = five_basis if name == "fivequbit" else qec.build_truncated_basis(code)
        X, descr, policy_index, policy_sign, gens = dense_truncated_basis(code)
        feedback, meas_H = dense_generators(basis)
        got = [basis.drift_noise, basis.drift_meas, *meas_H, *feedback]
        assert len(got) == len(gens)
        for M, expect in zip(got, gens):
            assert np.max(np.abs(M - expect)) <= 1e-12
        assert basis.element_descr == descr
        assert np.array_equal(basis.policy_index, policy_index)
        assert np.array_equal(basis.policy_sign, policy_sign)
        for rho in random_states(code.dim, 4, np.random.default_rng(5)):
            expect = np.einsum("aij,ji->a", X, rho).real
            assert np.max(np.abs(basis.initial_state(rho) - expect)) <= 1e-14

    @pytest.mark.parametrize("name", ["bitflip3", "fivequbit"])
    def test_terms_expand_to_the_full_table_build(self, name, five_basis):
        # the drifts and the sparse feedback and back-action terms are the
        # former full-table build's generators exactly, and the elements its
        # rows on the occupied columns, with zeros everywhere else
        code = qec.build_code(name)
        basis = five_basis if name == "fivequbit" else qec.build_truncated_basis(code)
        R, gens = full_table_basis(code)
        n_chan, l = len(code.channel_labels), code.n_generators
        assert np.array_equal(basis.drift_noise, gens[0])
        assert np.array_equal(basis.drift_meas, gens[1])
        feedback, meas_H = dense_generators(basis)
        assert np.array_equal(meas_H, gens[2:2 + l])
        assert np.array_equal(feedback, gens[2 + l:])
        assert np.array_equal(basis.columns, np.flatnonzero(R.any(axis=0)))
        assert np.array_equal(basis.coefficients, R[:, basis.columns])
        k, a2, value, starts = basis.terms
        assert np.count_nonzero(value) == len(value) == np.count_nonzero(gens[2:])
        # every element has entries, contiguous from its start
        assert starts[0] == 0 and len(starts) == basis.size and np.all(np.diff(starts) > 0)
        assert np.all(k < n_chan + l) and np.all(a2 < basis.size)

    def test_build_memory_follows_the_basis(self):
        # every array of the fivequbit build lives on its 136 occupied Pauli
        # columns; holding the elements and actions on all 4^5 coefficients
        # peaked at 11.0 MB
        code = qec.build_code("fivequbit")
        tracemalloc.start()
        try:
            basis = qec.build_truncated_basis(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.columns.shape == (136,)
        assert peak < 4 << 20, peak

    def test_steane_basis(self, steane_build):
        # 64 syndrome spaces and 672 merged commutators on 736 of the 4^7 =
        # 16,384 Pauli columns; on all of them the build peaked near 0.8 GB
        basis, peak = steane_build
        assert basis.size == 736
        assert basis.columns.shape == (736,)
        assert basis.verification_residual <= qec._VERIFY_TOL
        assert peak < 100 << 20, peak

    def test_pair_merge_check_raises(self, five):
        # channel 0 hops the codespace into the syndrome of channel 1's error
        hop = five.syndrome_hop.copy()
        hop[0, 0] = hop[1, 0]
        with pytest.raises(RuntimeError, match="pair-merge relation violated for channel XIIII"):
            qec.build_truncated_basis(dataclasses.replace(five, syndrome_hop=hop))

    def test_closure_check_raises(self, five):
        # a measured Pauli outside the stabilizer group takes the syndrome
        # projectors off the span of the basis
        code = dataclasses.replace(five, generators=["XIIII", *five.generators[1:]])
        with pytest.raises(RuntimeError, match="closure verification failed"):
            qec.build_truncated_basis(code)

    def test_idempotency_check_raises(self, five, monkeypatch):
        # an inverse Gram matrix off by a factor 1 + 1e-6 projects the
        # feedback actions on first-level elements non-idempotently
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda gram: inv(gram) * (1.0 + 1e-6))
        with pytest.raises(RuntimeError, match="projection not idempotent"):
            qec.build_truncated_basis(five)

    def test_passive_tracking_without_feedback_is_exact(self, five, five_basis, five_dense):
        # noise + measurement close exactly on the basis: coefficients track
        # the full filter to machine precision
        rng = rng_stream(3)
        rho = np.outer(qec.logical_zero(five), qec.logical_zero(five).conj())
        p = five_basis.initial_state(rho)
        gamma, kappa, dt = 1.0, 100.0, 1e-5
        worst = 0.0
        for _ in range(500):
            dV = rng.standard_normal(4) * np.sqrt(dt)
            sig = np.einsum("lij,ji->l", five_dense.gen_ops, rho).real
            dQ = 2.0 * np.sqrt(kappa) * sig * dt + dV
            rho = full_filter_step(five, rho, dQ, gamma, kappa, np.zeros(15), dt)
            p, _ = truncated_filter_step(five_basis, p, dQ, gamma, kappa, 0.0, dt)
            worst = max(worst, np.max(np.abs(p - five_basis.initial_state(rho))))
        assert worst < 1e-12



class TestTruncatedFilterStep:
    def test_frozen_without_rates(self, five_basis):
        p = np.zeros(136)
        p[0] = 1.0
        out, lam = truncated_filter_step(five_basis, p, np.zeros(4), 0.0, 0.0, 0.0, 1e-4)
        assert np.max(np.abs(out - p)) < 1e-14
        assert np.array_equal(lam, np.zeros(15))


    @pytest.mark.parametrize("name", ["fivequbit", "bitflip3"])
    def test_sparse_step_matches_dense_generators(self, name, five_basis):
        code = qec.build_code(name)
        basis = five_basis if name == "fivequbit" else qec.build_truncated_basis(code)
        gamma, kappa, dt, B = 1.3, 40.0, 1e-5, 5
        rng = np.random.default_rng(12)
        p = np.stack([basis.initial_state(r) for r in random_states(code.dim, B, rng)])
        lambdas = rng.choice([-150.0, 150.0], size=(B, len(code.channel_labels)))
        # lambda = 0 columns: the vanishing channels, as _TruncatedStep.policy
        # gives them (bitflip3's Z channels), and two more
        lambdas[:, basis.policy_index < 0] = 0.0
        lambdas[:, [1, -1]] = 0.0
        dQ = rng.standard_normal((B, code.n_generators)) * np.sqrt(dt)
        out = qec._TruncatedStep(basis, gamma, kappa, dt)(p, dQ, lambdas)
        expect = dense_truncated_step(basis, p, dQ, gamma, kappa, lambdas, dt)
        assert np.max(np.abs(out - expect)) <= 1e-14

    @pytest.mark.parametrize("name", ["fivequbit", "steane7"])
    def test_compiled_step_follows_dense_generators_over_steps(self, name, five_basis,
                                                                request):
        # the diagonal applied elementwise and the off-diagonal drift entries
        # gathered with the feedback and back-action terms, step after step
        basis = five_basis if name == "fivequbit" else request.getfixturevalue("steane_build")[0]
        code = basis.code
        gamma, kappa, dt, B = 1.3, 40.0, 1e-5, 2
        rng = np.random.default_rng(21)
        p = np.stack([basis.initial_state(r) for r in random_states(code.dim, B, rng)])
        expect = p
        step, generators = qec._TruncatedStep(basis, gamma, kappa, dt), dense_generators(basis)
        for _ in range(4):
            lambdas = step.policy(p, 150.0)
            dQ = rng.standard_normal((B, code.n_generators)) * np.sqrt(dt)
            p = step(p, dQ, lambdas)
            expect = dense_truncated_step(basis, expect, dQ, gamma, kappa, lambdas, dt,
                                          generators)
        assert np.max(np.abs(p - expect)) <= 1e-12

    def test_degenerate_state_names_its_slots(self, five_basis):
        p = np.zeros((3, 136))
        p[:, 0] = 1.0
        dQ = np.zeros((3, 4))
        dQ[2, 0] = np.nan
        with pytest.raises(FloatingPointError, match=r"slots \[2\]"):
            qec._TruncatedStep(five_basis, 1.0, 100.0, 1e-5)(p, dQ, np.zeros((3, 15)))


class TestDiscreteFidelity:
    def test_at_zero(self):
        assert qec.codeword_fidelity_discrete(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_asymptote(self):
        assert abs(qec.codeword_fidelity_discrete(10.0, 1.0) - 1.0 / 64.0) < 1e-6

    def test_zero_slope_at_origin(self):
        # single-error protection: the first-order term vanishes
        eps = 1e-6
        slope = (qec.codeword_fidelity_discrete(eps, 1.0)
                 - qec.codeword_fidelity_discrete(0.0, 1.0)) / eps
        assert abs(slope) < 1e-4

    def test_monotone_decreasing(self):
        t = np.linspace(0.0, 3.0, 300)
        f = qec.codeword_fidelity_discrete(t, 1.0)
        assert np.all(np.diff(f) <= 1e-12)
        assert np.all((f > 0) & (f <= 1.0))


class TestClosedLoop:
    def test_short_run_smoke(self, five, five_basis):
        out = qec.run_feedback_batch(five, 1.0, 100.0, 200.0, T=0.01, dt=1e-5, seed=2,
                                     n_traj=1, controller="truncated", basis=five_basis)
        assert out["codespace"][0, -1] > 0.5
        assert out["policy_agreement"][0] > 0.9

    def test_unknown_controller_rejected(self, bitflip):
        basis = qec.build_truncated_basis(bitflip)
        for b in (None, basis):
            with pytest.raises(ValueError, match="controller"):
                qec.run_feedback_batch(bitflip, 1.0, 100.0, 200.0, T=1e-4, dt=1e-5,
                                       seed=0, n_traj=1, controller="bogus", basis=b)

    @pytest.mark.parametrize("name,controller,n_traj", [("fivequbit", "truncated", 8),
                                                        ("bitflip3", "full", 1)])
    def test_short_loop_matches_dense_kernel(self, name, controller, n_traj, five_basis):
        # the closed loop against the same loop written with dense Euler
        # steps on the generators, the depolarizing Paulis as unmonitored
        # channels, einsum signals and the dense truncated step, at the shapes of the
        # benchmark's qec-loop and bitflip3-loop; the loop records every
        # qec.RECORD_EVERY = 10 steps, three times in 30
        code = qec.build_code(name)
        basis = five_basis if controller == "truncated" else None
        ref = dense_reference(code)
        gamma, kappa, lam, dt, steps, seed = 1.0, 100.0, 200.0, 1e-5, 30, 9
        out = qec.run_feedback_batch(code, gamma, kappa, lam, steps * dt, dt, seed, n_traj,
                                     controller=controller, basis=basis)
        psi0 = qec.logical_zero(code)
        rho0 = np.outer(psi0, psi0.conj())
        rho = np.broadcast_to(rho0, (n_traj, code.dim, code.dim)).copy()
        noise = np.stack([rng_stream(seed, k).standard_normal((steps, code.n_generators))
                          for k in range(n_traj)]) * np.sqrt(dt)
        P = ref.single_paulis
        Ls, Us = np.sqrt(kappa) * ref.gen_ops, np.sqrt(gamma) * P

        def bang(v):
            return lam * np.where(v == 0.0, 1.0, np.sign(v))

        if basis is not None:
            p = np.broadcast_to(basis.initial_state(rho0), (n_traj, basis.size)).copy()
            idx, sign = basis.policy_index, basis.policy_sign
        agree = np.zeros(n_traj)
        codespace, codeword = [], []
        for i in range(steps):
            full = np.einsum("cij,bji->bc", ref.policy_ops, rho).real
            if basis is None:
                lambdas = bang(full)
            else:
                lambdas = np.where(idx >= 0, bang(np.where(idx >= 0, sign * p[:, idx], 0.0)), 0.0)
                agree += np.mean(bang(full) == lambdas, axis=1)
            signal = np.einsum("lij,bji->bl", ref.gen_ops, rho).real
            dQ = 2.0 * np.sqrt(kappa) * signal * dt + noise[:, i]
            H = np.einsum("bc,cij->bij", lambdas, P)
            if basis is not None:
                p = dense_truncated_step(basis, p, dQ, gamma, kappa, lambdas, dt)
            rho = np.stack([sme_euler_step(H[b], Ls, rho[b], dQ[b], dt, unmonitored=Us)
                            for b in range(n_traj)])
            if (i + 1) % 10 == 0:
                codespace.append(np.einsum("ij,bji->b", ref.projectors[0], rho).real)
                codeword.append(np.einsum("ij,bji->b", rho0, rho).real)
        assert out["codespace"].shape == (n_traj, 3)
        assert np.array_equal(out["times"], np.array([10, 20, 30]) * dt)
        for got, expect in ((out["codespace"], np.array(codespace).T),
                            (out["codeword"], np.array(codeword).T),
                            (out["final_rho"], rho)):
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
        if basis is None:
            assert "policy_agreement" not in out
        else:
            assert np.array_equal(out["policy_agreement"], agree / steps)

    def test_feedback_rotation_preflight(self, bitflip):
        # 2 |lambda_max| dt < 1 whenever a controller applies feedback;
        # without one lambda_max is never used
        basis = qec.build_truncated_basis(bitflip)
        for controller, lam in (("full", 5e4), ("truncated", 1e8), ("full", -5e4)):
            with pytest.raises(ValueError, match=r"2 \|lambda_max\| \* dt = .* is outside"
                                                 r" the range 2 \|lambda_max\| \* dt < 1"):
                qec.run_feedback_batch(bitflip, 1.0, 100.0, lam, T=1e-4, dt=1e-5, seed=0,
                                       n_traj=1, controller=controller, basis=basis)
        out = qec.run_feedback_batch(bitflip, 1.0, 100.0, 1e8, T=1e-4, dt=1e-5, seed=0,
                                     n_traj=1, controller="none")
        assert np.all(out["codespace"] <= 1.0)

    def test_failure_names_step_time_and_slots(self, bitflip):
        with pytest.raises(FloatingPointError, match=r"slots \[0, 1\], at step 1 \(t = 1e-05\)"):
            qec.run_feedback_batch(bitflip, np.nan, 100.0, 200.0, T=1e-4, dt=1e-5, seed=0,
                                   n_traj=2, controller="full")

    def test_shared_noise_across_controllers(self, five, five_basis):
        # identical streams: a no-feedback run and a truncated-controller run
        # share their measurement noise realization by seed
        a = qec.run_feedback_batch(five, 1.0, 0.0, 0.0, T=0.002, dt=1e-5,
                                   seed=3, n_traj=2, controller="none")
        b = qec.run_feedback_batch(five, 1.0, 0.0, 0.0, T=0.002, dt=1e-5,
                                   seed=3, n_traj=2, controller="none")
        assert np.array_equal(a["codespace"], b["codespace"])
