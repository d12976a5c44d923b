import dataclasses

import numpy as np
import pytest

from qfilt import collective as col
from qfilt.operators import SIGMA_Z, spin_operators
from reference import (SIGMA_MINUS, SIGMA_PLUS, embed_collective, g_tensor_apply,
                       irrep_embeddings, project_collective)

PAULI_HALF = {"+": SIGMA_PLUS, "-": SIGMA_MINUS, "z": SIGMA_Z / 2.0}


def embed_single(op2, qubit, N):
    return np.kron(np.kron(np.eye(2 ** qubit), op2), np.eye(2 ** (N - qubit - 1)))


def random_collective(N, seed):
    rng = np.random.default_rng(seed)
    rho = col.CollectiveDensity(N=N, blocks=dict.fromkeys(range(N % 2, N + 1, 2)))
    total = 0.0
    for tj in rho.blocks:
        d = tj + 1
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = a @ a.conj().T
        rho.blocks[tj] = b
        total += col.irrep_degeneracy(tj / 2.0, N) * np.trace(b).real
    for tj in rho.blocks:
        rho.blocks[tj] = rho.blocks[tj] / total
    return rho


def full_space_channel_rhs(channel, full, N):
    s1 = (channel.s_I * np.eye(2) + channel.s_plus * SIGMA_PLUS
          + channel.s_minus * SIGMA_MINUS + channel.s_z * SIGMA_Z)
    out = np.zeros_like(full)
    for n in range(N):
        s = embed_single(s1, n, N)
        sd = s.conj().T
        out += s @ full @ sd - 0.5 * (sd @ s @ full + full @ sd @ s)
    return out


class TestCounting:
    @pytest.mark.parametrize("N", range(1, 21))
    def test_dimension_sum(self, N):
        total = sum(col.irrep_degeneracy(tj / 2.0, N) * (tj + 1)
                    for tj in range(N + 1))
        assert total == 2 ** N

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 13])
    def test_alpha_is_cumulative_multiplicity(self, N):
        for tj in range(N % 2, N + 1, 2):
            expect = sum(col.irrep_degeneracy(t / 2.0, N)
                         for t in range(tj, N + 1, 2))
            assert col.alpha_cumulative(tj / 2.0, N) == expect

    def test_small_n_values(self):
        assert col.irrep_degeneracy(1.0, 2) == 1
        assert col.irrep_degeneracy(0.0, 2) == 1
        assert col.irrep_degeneracy(0.5, 3) == 2
        assert col.irrep_degeneracy(1.5, 3) == 1

    def test_top_alpha_is_one(self):
        for N in (1, 2, 5, 10, 17):
            assert col.alpha_cumulative(N / 2.0, N) == 1

    def test_out_of_range_is_zero(self):
        assert col.irrep_degeneracy(-0.5, 4) == 0
        assert col.irrep_degeneracy(3.0, 4) == 0
        assert col.irrep_degeneracy(0.5, 4) == 0  # parity mismatch
        assert col.alpha_cumulative(6.0, 10) == 0


class TestGTensor:
    def test_single_spin_reduction(self):
        # N = 1: only the same-J term survives and reproduces the single-spin
        # matrix elements
        for q, r in (("+", "-"), ("z", "z"), ("-", "+"), ("+", "z")):
            for M in (0.5, -0.5):
                for Mp in (0.5, -0.5):
                    terms = g_tensor_apply(q, r, 0.5, M, Mp, 1)
                    got = np.zeros((2, 2), dtype=complex)
                    for (Jo, Mo, Mpo, cf) in terms:
                        assert Jo == 0.5
                        got[int(round(0.5 - Mo)), int(round(0.5 - Mpo))] += cf
                    E = np.zeros((2, 2), dtype=complex)
                    E[int(round(0.5 - M)), int(round(0.5 - Mp))] = 1.0
                    expect = PAULI_HALF[q] @ E @ PAULI_HALF[r].conj().T
                    assert np.max(np.abs(got - expect)) < 1e-12

    def test_stretched_z_element_has_no_lower_block(self):
        # B_z vanishes at M = J, so q = r = z on the stretched element stays
        # in the same block (plus a possible J+1 term)
        terms = g_tensor_apply("z", "z", 1.0, 1.0, 1.0, 4)
        assert all(round(2 * t[0]) != 0 for t in terms if t[0] < 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            g_tensor_apply("x", "z", 1.0, 0.0, 0.0, 4)
        with pytest.raises(ValueError):
            g_tensor_apply("z", "z", 1.0, 2.0, 0.0, 4)
        with pytest.raises(ValueError):
            g_tensor_apply("z", "z", 0.5, 0.5, 0.5, 4)  # parity mismatch
        # a negative rate is rejected by either kind of channel
        for channel, kwargs in ((col.SpinChannel, {"s_minus": 1.0}),
                                (col.CollectiveChannel, {"word_coeffs": ((1.0, "-"),)})):
            with pytest.raises(ValueError, match="rate must be non-negative"):
                channel(rate=-1.0, **kwargs)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_against_full_space_oracle(self, N):
        # brute force: apply sum_n sigma_q . sigma_r^dag to the embedded
        # element (normalized as 1/d sum over degenerate copies) and
        # re-project; the coefficients follow the identity's normalization
        rng = np.random.default_rng(N)
        sectors = irrep_embeddings(N)
        for _ in range(12):
            tjs = [tj for tj in sectors if col.irrep_degeneracy(tj / 2.0, N) > 0]
            tj = int(rng.choice(tjs))
            J = tj / 2.0
            M = J - rng.integers(0, tj + 1)
            Mp = J - rng.integers(0, tj + 1)
            q, r = rng.choice(["+", "-", "z"], 2)
            E = np.zeros((tj + 1, tj + 1), dtype=complex)
            E[int(round(J - M)), int(round(J - Mp))] = 1.0
            d = col.irrep_degeneracy(J, N)
            full = sum(V @ E @ V.conj().T for V in sectors[tj]) / d
            out = np.zeros_like(full)
            for n in range(N):
                sq = embed_single(PAULI_HALF[q], n, N)
                sr = embed_single(PAULI_HALF[r], n, N)
                out += sq @ full @ sr.conj().T
            got = {tj: np.zeros((tj + 1, tj + 1), dtype=complex) for tj in sectors}
            for (Jo, Mo, Mpo, cf) in g_tensor_apply(q, r, J, M, Mp, N):
                tjo = int(round(2 * Jo))
                got[tjo][int(round(Jo - Mo)), int(round(Jo - Mpo))] += cf
            # re-project the oracle output in the 1/d-normalized convention
            for tjo, vlist in sectors.items():
                proj = sum(V.conj().T @ out @ V for V in vlist)
                assert np.max(np.abs(proj - got[tjo])) < 1e-12


class TestSymmetricLindblad:
    def test_identity_channel_is_null(self):
        rho = random_collective(4, 0)
        out = col.symmetric_lindblad_apply(col.SpinChannel(s_I=1.0), rho)
        worst = max(np.max(np.abs(b)) for b in out.blocks.values())
        assert worst < 1e-13

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_matches_full_space_oracle(self, N):
        rng = np.random.default_rng(N + 10)
        for trial in range(6):
            ch = col.SpinChannel(
                s_I=complex(rng.normal(), rng.normal()),
                s_plus=complex(rng.normal(), rng.normal()),
                s_minus=complex(rng.normal(), rng.normal()),
                s_z=complex(rng.normal(), rng.normal()))
            rho = random_collective(N, 100 * N + trial)
            got = col.symmetric_lindblad_apply(ch, rho)
            full = embed_collective(rho)
            oracle = project_collective(full_space_channel_rhs(ch, full, N), N)
            for tj in got.blocks:
                assert np.max(np.abs(got.blocks[tj] - oracle.blocks[tj])) < 1e-12

    def test_triplet_sigma_z_against_brute_force(self):
        # N = 2 coherent state in the triplet block under a sigma_z channel
        rho = col.coherent_top(2)
        ch = col.SpinChannel(s_z=1.0)
        got = col.symmetric_lindblad_apply(ch, rho)
        full = embed_collective(rho)
        oracle = project_collective(full_space_channel_rhs(ch, full, 2), 2)
        for tj in got.blocks:
            assert np.max(np.abs(got.blocks[tj] - oracle.blocks[tj])) < 1e-12

    def test_traceless_and_hermitian(self):
        rho = random_collective(5, 3)
        ch = col.SpinChannel(s_plus=0.3 + 0.1j, s_minus=1.0, s_z=0.2j)
        out = col.symmetric_lindblad_apply(ch, rho)
        assert abs(sum(col.irrep_population(out, tj / 2.0) for tj in out.blocks)) < 1e-10
        for b in out.blocks.values():
            assert np.max(np.abs(b - b.conj().T)) < 1e-10

    def test_decay_leaks_from_top_block(self):
        for N in (2, 4, 6):
            rho = col.coherent_top(N)
            out = col.symmetric_lindblad_apply(col.SpinChannel(s_minus=1.0), rho)
            leak = col.irrep_degeneracy(N / 2.0 - 1.0, N) * np.trace(
                out.blocks[N - 2]).real
            assert leak > 0.0

    def test_collective_decay_confined_to_top(self):
        rho = col.coherent_top(4)
        ch = col.CollectiveChannel(word_coeffs=((1.0, "-"),))
        out = col.collective_lindblad_apply(ch, rho)
        for tj, b in out.blocks.items():
            if tj != 4:
                assert np.max(np.abs(b)) < 1e-14


class TestMasterStep:
    def test_collective_hamiltonian_keeps_populations(self):
        rho = random_collective(4, 7)
        pops = {tj: np.diag(b).real.copy() for tj, b in rho.blocks.items()}
        out = rho
        for _ in range(50):
            out = col.collective_master_step([(1.0, "z")], [], out, 1e-2)
        for tj, b in out.blocks.items():
            assert np.max(np.abs(np.diag(b).real - pops[tj])) < 1e-12

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_evolution_matches_full_space(self, N):
        # the module's central check: block evolution equals the projected
        # full-space master equation over t = 1/Gamma
        from scipy.integrate import solve_ivp
        ch = col.SpinChannel(s_minus=1.0, s_z=0.3, rate=1.0)
        rho = random_collective(N, 20 + N)
        full0 = embed_collective(rho)

        def rhs(_, y):
            full = y.reshape(full0.shape)
            return full_space_channel_rhs(ch, full, N).ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), full0.ravel(), rtol=1e-10, atol=1e-12)
        oracle = project_collective(sol.y[:, -1].reshape(full0.shape), N)
        state = rho
        dt = 1e-3
        for _ in range(1000):
            state = col.collective_master_step(None, [ch], state, dt)
        for tj in state.blocks:
            assert np.max(np.abs(state.blocks[tj] - oracle.blocks[tj])) < 1e-8

    def test_no_cross_block_coherence_in_full_space(self):
        # the oracle's own projected coherences between different J vanish:
        # symmetric channels never couple irrep blocks coherently
        N = 3
        ch = col.SpinChannel(s_minus=1.0)
        rho = random_collective(N, 31)
        full = embed_collective(rho)
        sectors = irrep_embeddings(N)
        out = full_space_channel_rhs(ch, full, N)
        v_top = sectors[3][0]
        for v_low in sectors[1]:
            cross = v_top.conj().T @ out @ v_low
            assert np.max(np.abs(cross)) < 1e-12

    def test_trace_conserved(self):
        rho = random_collective(5, 8)
        ch = col.SpinChannel(s_plus=0.4, s_minus=1.0, s_z=0.1)
        state = rho
        for _ in range(100):
            state = col.collective_master_step([(0.3, "+-")], [ch], state, 1e-3)
        assert abs(sum(col.irrep_population(state, tj / 2.0) for tj in state.blocks) - 1.0) < 1e-9

    def test_collective_decay_keeps_top_population(self):
        rho = col.coherent_top(4)
        ch = col.CollectiveChannel(word_coeffs=((1.0, "-"),), rate=1.0)
        state = rho
        for _ in range(200):
            state = col.collective_master_step(None, [ch], state, 1e-3)
        assert abs(col.irrep_population(state, 2.0) - 1.0) < 1e-9


def random_hermitian_blocks(N, seed):
    rng = np.random.default_rng(seed)
    rho = col.CollectiveDensity(N=N, blocks=dict.fromkeys(range(N % 2, N + 1, 2)))
    for tj in rho.blocks:
        a = rng.standard_normal((tj + 1, tj + 1)) + 1j * rng.standard_normal((tj + 1, tj + 1))
        rho.blocks[tj] = a + a.conj().T
    return rho


def collective_sum(X, two_j, N):
    """sum_n X^(n) on block 2J for a single-qubit operator X, from its
    Hilbert-Schmidt components on I, sigma_+, sigma_-, sigma_z."""
    def hs(B):
        return np.trace(B.conj().T @ X) / np.trace(B.conj().T @ B)
    return col.collective_operator([(N * hs(np.eye(2)), ""), (hs(SIGMA_PLUS), "+"),
                                    (hs(SIGMA_MINUS), "-"), (2.0 * hs(SIGMA_Z), "z")], two_j)


def dense_reference_rhs(H, channels, rho):
    """The generator from dense collective_operator matmuls and the scalar
    g-tensor identity, element by element."""
    N = rho.N
    out = {tj: np.zeros_like(b) for tj, b in rho.blocks.items()}
    for tj, b in rho.blocks.items():
        Hj = col.collective_operator(H, tj)
        out[tj] += -1j * (Hj @ b - b @ Hj)
    for ch in channels:
        if isinstance(ch, col.CollectiveChannel):
            for tj, b in rho.blocks.items():
                C = col.collective_operator(ch.word_coeffs, tj)
                CdC = C.conj().T @ C
                out[tj] += ch.rate * (C @ b @ C.conj().T - 0.5 * (CdC @ b + b @ CdC))
            continue
        sI = ch.s_I
        s = (sI * np.eye(2) + ch.s_plus * SIGMA_PLUS + ch.s_minus * SIGMA_MINUS
             + ch.s_z * SIGMA_Z)
        # sum_n s rho s^dag = N |s_I|^2 rho + s_I^* K rho + s_I rho K^dag
        # + sum_n s' rho s'^dag, with s' = s - s_I and K = sum_n s'^(n)
        for tj, b in rho.blocks.items():
            S = collective_sum(s.conj().T @ s, tj, N)
            K = collective_sum(s - sI * np.eye(2), tj, N)
            out[tj] += ch.rate * (-0.5 * (S @ b + b @ S) + abs(sI) ** 2 * N * b
                                  + np.conj(sI) * K @ b + sI * b @ K.conj().T)
        svec = {"+": ch.s_plus, "-": ch.s_minus, "z": 2.0 * ch.s_z}  # sigma_z = 2 Jz
        for tj, b in rho.blocks.items():
            J = tj / 2.0
            for i in range(tj + 1):
                for j in range(tj + 1):
                    for q, sq in svec.items():
                        for r, sr in svec.items():
                            for Jo, Mo, Mpo, cf in g_tensor_apply(q, r, J, J - i, J - j, N):
                                # d_J-weighted blocks: block changes carry d_in / d_out
                                ratio = col.irrep_degeneracy(J, N) / col.irrep_degeneracy(Jo, N)
                                out[int(round(2 * Jo))][int(round(Jo - Mo)), int(round(Jo - Mpo))] \
                                    += ch.rate * sq * np.conj(sr) * cf * ratio * b[i, j]
    return out


class TestCompiledGenerator:
    @pytest.mark.parametrize("two_j", range(9))
    def test_collective_operator_matches_matmul_chain(self, two_j):
        spin = spin_operators(two_j / 2.0)
        ops = {"+": spin["Jplus"], "-": spin["Jminus"], "z": spin["Jz"],
               "x": spin["Jx"], "y": spin["Jy"]}
        for word in ("", "+", "-", "z", "x", "y", "yy", "++", "+-z", "xyz+", "zz-y"):
            expect = np.eye(two_j + 1, dtype=complex)
            for ch in word:
                expect = expect @ ops[ch]
            got = col.collective_operator([(0.5 - 0.25j, word)], two_j)
            assert np.max(np.abs(got - (0.5 - 0.25j) * expect), initial=0.0) \
                <= 1e-12 * max(1.0, np.max(np.abs(expect)))

    @pytest.mark.parametrize("N", [11, 12])
    def test_master_rhs_matches_dense_reference(self, N):
        H = ((0.7, "++"), (0.7, "--"), (0.2, "z"), (0.1 - 0.3j, "xy"))
        channels = [
            col.SpinChannel(s_I=0.4 - 0.2j, s_plus=0.3 + 0.1j, s_minus=1.0, s_z=0.5j, rate=0.7),
            col.SpinChannel(s_I=0.8, s_z=-0.6, rate=1.3),  # identity and z branches only
            col.CollectiveChannel(word_coeffs=((1.0, "-"), (0.3j, "zx")), rate=0.5),
        ]
        rho = random_hermitian_blocks(N, N)
        got = col.master_rhs(H, channels, rho)
        expect = dense_reference_rhs(H, channels, rho)
        scale = max(np.max(np.abs(b)) for b in expect.values())
        for tj in rho.blocks:
            assert np.max(np.abs(got.blocks[tj] - expect[tj])) <= 1e-12 * scale

    def test_block_diagonal_generator_stays_in_top_block(self):
        N = 10
        H = ((-1j, "++"), (1j, "--"), (0.3, "z"))
        ch = col.CollectiveChannel(word_coeffs=((1.0, "-"),), rate=0.5)
        state = col.coherent_top(N)
        for _ in range(10):
            state = col.collective_master_step(H, [ch], state, 1e-2)
        assert state.blocks[N].any()
        for tj, b in state.blocks.items():
            if tj != N:
                assert not b.any()

    def test_one_step_moves_at_most_four_blocks_down(self):
        # each RK4 stage moves population one block further down
        N = 12
        state = col.collective_master_step(None, [col.SpinChannel(s_minus=1.0)],
                                           col.coherent_top(N), 1e-2)
        assert state.blocks[N - 8].any()
        for tj, b in state.blocks.items():
            if tj < N - 8:
                assert not b.any()

    def test_word_coeffs_given_as_lists(self):
        rho = random_collective(5, 11)
        as_list = col.CollectiveChannel(word_coeffs=[(1.0, "-")])
        as_tuple = col.CollectiveChannel(word_coeffs=((1.0, "-"),))
        a = col.master_rhs([[0.5, "z"]], [as_list], rho)
        b = col.master_rhs(((0.5, "z"),), [as_tuple], rho)
        for tj in rho.blocks:
            assert np.array_equal(a.blocks[tj], b.blocks[tj])


class TestStatesAndObservables:
    def test_cat_state_normalized(self):
        rho = col.cat_state(6)
        assert abs(sum(col.irrep_population(rho, tj / 2.0) for tj in rho.blocks) - 1.0) < 1e-12
        assert abs(col.fidelity_with(rho, col.cat_state(6)) - 1.0) < 1e-12

    def test_coherent_squeezing_reference(self):
        for N in (2, 8, 20):
            assert abs(col.squeezing_xi2(col.coherent_top(N)) - 1.0) < 1e-10

    def test_xi2_undefined_at_zero_polarization(self):
        rho = col.cat_state(4)  # <Jz> = 0
        with pytest.raises(ZeroDivisionError):
            col.squeezing_xi2(rho)

    def test_irrep_population_conservation(self):
        rho = random_collective(5, 9)
        ch = col.SpinChannel(s_minus=1.0)
        state = rho
        js = [tj / 2.0 for tj in state.blocks]
        for _ in range(100):
            state = col.collective_master_step(None, [ch], state, 1e-3)
        pops = [col.irrep_population(state, J) for J in js]
        assert abs(sum(pops) - 1.0) < 1e-8
        assert all(p > -1e-9 for p in pops)

    def test_top_population_decreases_under_local_decay(self):
        N = 4
        state = col.coherent_top(N)
        p0 = col.irrep_population(state, N / 2.0)
        state = col.collective_master_step(None, [col.SpinChannel(s_minus=1.0)],
                                           state, 1e-3)
        assert col.irrep_population(state, N / 2.0) < p0

    def test_cat_dephasing_direction(self):
        # superposition-state dephasing: the collective J_z channel is the
        # faster one for N > 4 (coherence rate N^2/2 versus 2N per unit
        # rate; they cross exactly at N = 4), so the symmetric-local channel
        # preserves cat fidelity longer.  Verified against the full-space
        # oracle at small N by TestMasterStep.
        N, gamma = 10, 1.0
        ref = col.cat_state(N)
        local = col.cat_state(N)
        coll = col.cat_state(N)
        ch_local = col.SpinChannel(s_z=1.0, rate=gamma)
        # collective analog of sum_n sigma_z^(n) is 2 Jz
        ch_coll = col.CollectiveChannel(word_coeffs=((2.0, "z"),), rate=gamma)
        dt = 1e-3
        fids = []
        for i in range(200):
            local = col.collective_master_step(None, [ch_local], local, dt)
            coll = col.collective_master_step(None, [ch_coll], coll, dt)
            fids.append((col.fidelity_with(local, ref), col.fidelity_with(coll, ref)))
        fids = np.array(fids)
        assert np.all(fids[:, 0] > fids[:, 1] - 1e-12)
        assert fids[-1, 0] > fids[-1, 1]
        # analytic coherence rates: local 2N, collective (2 Jz) -> 2 N^2
        t = dt * len(fids)
        f_local_exact = 0.5 + 0.5 * np.exp(-2.0 * N * gamma * t)
        f_coll_exact = 0.5 + 0.5 * np.exp(-2.0 * N * N * gamma * t)
        assert abs(fids[-1, 0] - f_local_exact) < 1e-3
        assert abs(fids[-1, 1] - f_coll_exact) < 1e-3


class TestEmbeddings:
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_isometries(self, N):
        sectors = irrep_embeddings(N)
        for tj, vlist in sectors.items():
            assert len(vlist) == col.irrep_degeneracy(tj / 2.0, N)
            for V in vlist:
                assert np.max(np.abs(V.conj().T @ V - np.eye(tj + 1))) < 1e-12

    def test_embed_project_roundtrip(self):
        rho = random_collective(4, 40)
        back = project_collective(embed_collective(rho), 4)
        for tj in rho.blocks:
            assert np.max(np.abs(back.blocks[tj] - rho.blocks[tj])) < 1e-12

    def test_embedding_trace(self):
        rho = random_collective(3, 41)
        full = embed_collective(rho)
        assert abs(np.trace(full).real - 1.0) < 1e-12


def zero_filled(rho):
    """rho with every block stored, the missing ones as complex zeros."""
    blocks = {tj: np.zeros((tj + 1, tj + 1), dtype=complex)
              for tj in range(rho.N % 2, rho.N + 1, 2)}
    blocks.update((tj, b.copy()) for tj, b in rho.blocks.items())
    return col.CollectiveDensity(N=rho.N, blocks=blocks)


class TestSparseBlocks:
    N = 12
    GENERATORS = {
        "hamiltonian": (((-1j, "++"), (1j, "--"), (0.3, "z")), []),
        "spin": (None, [col.SpinChannel(s_plus=0.2, s_minus=1.0, s_z=0.3j, rate=0.7)]),
        "collective": (None, [col.CollectiveChannel(word_coeffs=((1.0, "-"), (0.2j, "zx")))]),
    }

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_sparse_and_zero_filled_steps_agree(self, kind):
        H, channels = self.GENERATORS[kind]
        sparse = col.coherent_top(self.N)
        dense = zero_filled(sparse)
        assert list(sparse.blocks) == [self.N]
        for _ in range(20):
            sparse = col.collective_master_step(H, channels, sparse, 1e-2)
            dense = col.collective_master_step(H, channels, dense, 1e-2)
            assert list(sparse.blocks) == list(dense.blocks)
            for tj, b in sparse.blocks.items():
                assert np.array_equal(b, dense.blocks[tj])

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_result_holds_exactly_the_reached_blocks(self, kind):
        H, channels = self.GENERATORS[kind]
        # block-diagonal generators stay in the top block; the symmetric
        # channel reaches one block further down per RK4 stage
        reach = 4 if kind == "spin" else 0
        state = col.coherent_top(self.N)
        for step in range(1, 4):
            state = col.collective_master_step(H, channels, state, 1e-2)
            lowest = max(self.N % 2, self.N - 2 * reach * step)
            assert list(state.blocks) == list(range(lowest, self.N + 1, 2))
            assert all(b.any() for b in state.blocks.values())

    def test_master_rhs_writes_only_reached_blocks(self):
        rho = col.coherent_top(self.N)
        out = col.master_rhs(None, [col.SpinChannel(s_minus=1.0)], rho)
        assert sorted(out.blocks) == [self.N - 2, self.N]
        ch = col.CollectiveChannel(word_coeffs=((1.0, "-"),))
        assert list(col.collective_lindblad_apply(ch, rho).blocks) == [self.N]

    def test_observables_treat_missing_blocks_as_zero(self):
        # N = 5 stays in the top block; one N = 12 step reaches 2J = 4..12
        for N, ch in ((5, col.CollectiveChannel(word_coeffs=((1.0, "-"),))),
                      (self.N, col.SpinChannel(s_minus=1.0, s_z=0.5))):
            state = col.collective_master_step(((0.4, "++"), (0.4, "--")), [ch],
                                               col.cat_state(N), 1e-2)
            assert len(state.blocks) < N // 2 + 1
            dense = zero_filled(state)
            ref, ref_dense = col.cat_state(N), zero_filled(col.cat_state(N))
            fids = {col.fidelity_with(a, b) for a in (state, dense) for b in (ref, ref_dense)}
            assert len(fids) == 1
            for tj in range(N % 2, N + 1, 2):
                assert col.irrep_population(state, tj / 2.0) \
                    == col.irrep_population(dense, tj / 2.0)
            for word in ([(1.0, "z")], [(1.0, "yy")], [(0.5j, "+-"), (1.0, "x")]):
                assert col.expectation(state, word) == col.expectation(dense, word)
            if N <= 6:
                assert np.array_equal(embed_collective(state), embed_collective(dense))

    def test_irrep_population_of_missing_and_invalid_blocks(self):
        rho = col.coherent_top(6)
        assert col.irrep_population(rho, 2.0) == 0.0
        assert col.irrep_population(rho, 3.0) == 1.0
        for J in (0.5, 3.5, -1.0):
            with pytest.raises(ValueError):
                col.irrep_population(rho, J)

    @pytest.mark.parametrize("two_j", list(range(13)) + [100])
    def test_letter_bands_match_a_scan_of_every_diagonal(self, two_j):
        ops = spin_operators(two_j / 2.0)
        names = {"+": "Jplus", "-": "Jminus", "z": "Jz", "x": "Jx", "y": "Jy"}
        got = col._letter_bands(two_j)
        assert list(got) == list(names)
        d = two_j + 1
        for ch, name in names.items():
            expect = {}
            for k in range(1 - d, d):
                diag = np.diagonal(ops[name], k)
                if diag.any():
                    expect[k] = np.zeros(d, dtype=complex)
                    expect[k][max(0, -k):max(0, -k) + len(diag)] = diag
            assert list(got[ch]) == list(expect)
            for k, v in expect.items():
                assert np.array_equal(got[ch][k], v)


def as_complex(rho):
    return col.CollectiveDensity(N=rho.N, blocks={tj: b.astype(complex)
                                                  for tj, b in rho.blocks.items()})


class TestRealArithmetic:
    """A real state under generators with real factors steps in real
    arithmetic, bit for bit as its complex copy; anything complex promotes."""

    N = 12
    SQUEEZE_H = ((-1j, "++"), (1j, "--"))
    REAL = {
        "squeeze-free": (SQUEEZE_H, [], col.coherent_top),
        "squeeze-sym": (SQUEEZE_H, [col.SpinChannel(s_minus=1.0, rate=0.2)], col.coherent_top),
        "squeeze-coll": (SQUEEZE_H, [col.CollectiveChannel(((1.0, "-"),), rate=0.2)],
                         col.coherent_top),
        "cat-sym-sigma_z": (None, [col.SpinChannel(s_z=1.0)], col.cat_state),
        "cat-coll-sigma_z": (None, [col.CollectiveChannel(((2.0, "z"),))], col.cat_state),
        "cat-sym-sigma_minus": (None, [col.SpinChannel(s_minus=1.0)], col.cat_state),
        "cat-coll-sigma_minus": (None, [col.CollectiveChannel(((1.0, "-"),))], col.cat_state),
    }
    # each generator has complex factors; the real squeezing H next to a
    # complex channel checks that the output dtype is chosen for the whole call
    MIXED = {
        "H-x": (((0.7, "x"),), []),
        "H-x-real-channel": (((0.7, "x"),), [col.SpinChannel(s_minus=1.0, rate=0.2)]),
        "spin-i-minus": (SQUEEZE_H, [col.SpinChannel(s_minus=1j, s_z=0.3)]),
        "spin-complex-identity": (SQUEEZE_H, [col.SpinChannel(s_I=0.2 + 0.1j, s_minus=1.0)]),
        "collective-i-minus": (SQUEEZE_H, [col.CollectiveChannel(((1j, "-"),))]),
    }

    @staticmethod
    def assert_same(real, cplx):
        assert list(real.blocks) == list(cplx.blocks)
        for tj, b in real.blocks.items():
            assert np.array_equal(b, cplx.blocks[tj])

    @pytest.mark.parametrize("kind", sorted(REAL))
    def test_real_state_matches_its_complex_copy(self, kind):
        H, channels, make = self.REAL[kind]
        real = make(self.N)
        cplx = as_complex(real)
        for _ in range(5):
            real = col.collective_master_step(H, channels, real, 1e-2)
            cplx = col.collective_master_step(H, channels, cplx, 1e-2)
            assert all(b.dtype == np.float64 for b in real.blocks.values())
            assert all(b.dtype == np.complex128 and not b.imag.any()
                       for b in cplx.blocks.values())
            self.assert_same(real, cplx)

    @pytest.mark.parametrize("kind", sorted(MIXED))
    def test_complex_factors_promote_a_real_state(self, kind):
        H, channels = self.MIXED[kind]
        real = col.coherent_top(self.N)
        cplx = as_complex(real)
        for _ in range(5):
            real = col.collective_master_step(H, channels, real, 1e-2)
            cplx = col.collective_master_step(H, channels, cplx, 1e-2)
            assert all(b.dtype == np.complex128 for b in real.blocks.values())
            self.assert_same(real, cplx)

    def test_apply_promotes_a_real_out(self):
        rho = col.cat_state(self.N)
        real_out = col.symmetric_lindblad_apply(col.SpinChannel(s_minus=1.0), rho)
        assert all(b.dtype == np.float64 for b in real_out.blocks.values())
        cplx_out = col.symmetric_lindblad_apply(col.SpinChannel(s_minus=1.0), as_complex(rho))
        ch = col.CollectiveChannel(((1j, "-"), (0.5, "z")))
        col.collective_lindblad_apply(ch, rho, real_out, 0.3)
        col.collective_lindblad_apply(ch, as_complex(rho), cplx_out, 0.3)
        assert all(b.dtype == np.complex128 for b in real_out.blocks.values())
        self.assert_same(real_out, cplx_out)


def dense_expectation(rho, word_coeffs, absolute=False):
    """sum_J d_J sum_ij C_ij rho_ji with C the dense collective_operator
    block; with ``absolute``, the same sum of |C_ij rho_ji|."""
    return sum(col.irrep_degeneracy(tj / 2.0, rho.N)
               * np.sum((np.abs if absolute else np.asarray)(
                   col.collective_operator(word_coeffs, tj) * b.T))
               for tj, b in rho.blocks.items())


def full_space_xi2(rho):
    """xi^2 of embed_collective's 2^N state from the total spin operators."""
    N = rho.N
    full = embed_collective(rho)
    Jy = sum(embed_single((SIGMA_PLUS - SIGMA_MINUS) / 2j, n, N) for n in range(N))
    Jz = sum(embed_single(SIGMA_Z / 2.0, n, N) for n in range(N))

    def mean(op):
        return np.trace(op @ full).real

    return N * (mean(Jy @ Jy) - mean(Jy) ** 2) / mean(Jz) ** 2


class TestBandExpectation:
    """expectation reads <C> off C's cached bands, with no dense block."""

    WORDS = ([(1.0, "z")], [(1.0, "yy")], [(1.0, "y")], [(0.5j, "+-"), (1.0, "x")])
    SQUEEZE_H = ((-1j, "++"), (1j, "--"))

    @pytest.mark.parametrize("N", [12, 100])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_the_dense_contraction(self, N, kind):
        rho = random_collective(N, N + 3)
        if kind == "real":
            rho = col.CollectiveDensity(N=N, blocks={tj: np.ascontiguousarray(b.real)
                                                     for tj, b in rho.blocks.items()})
        assert len(rho.blocks) == N // 2 + 1
        for word in self.WORDS:
            got, expect = col.expectation(rho, word), dense_expectation(rho, word)
            scale = abs(expect)
            if kind == "real" and word == [(1.0, "y")]:
                # <Jy> of a real symmetric state is zero; both sums are
                # rounding, so compare them with the size of their terms
                scale = dense_expectation(rho, word, absolute=True)
                assert abs(expect) <= 1e-15 * scale
            assert abs(got - expect) <= 1e-13 * scale, word

    @pytest.mark.parametrize("channels", [
        [], [col.SpinChannel(s_minus=1.0, rate=0.2)],
        [col.CollectiveChannel(((1.0, "-"),), rate=0.2)]], ids=["free", "sym", "coll"])
    def test_xi2_matches_the_full_space_state(self, channels):
        state = col.coherent_top(6)
        for _ in range(3):
            state = col.collective_master_step(self.SQUEEZE_H, channels, state, 0.01)
        xi2 = col.squeezing_xi2(state)
        assert xi2 < 0.9
        assert abs(xi2 - full_space_xi2(state)) <= 1e-10


class TestFoldedAndMergedTerms:
    """A channel's rate is folded into its compiled factors, a left and a
    right diagonal band share one term, and block-preserving terms with a
    column factor run on the flattened block."""

    N = 12
    UNIT = {
        "spin": col.SpinChannel(s_minus=1.0, s_z=0.5),
        "spin-complex": col.SpinChannel(s_I=0.3, s_plus=0.2j, s_minus=1.0),
        "collective": col.CollectiveChannel(((1.0, "-"), (0.3, "z"))),
        "collective-complex": col.CollectiveChannel(((1.0, "-"), (0.2j, "zx"))),
    }

    @staticmethod
    def apply(channel, rho, out=None):
        if isinstance(channel, col.SpinChannel):
            return col.symmetric_lindblad_apply(channel, rho, out)
        return col.collective_lindblad_apply(channel, rho, out)

    @pytest.mark.parametrize("kind", sorted(UNIT))
    def test_rate_scales_the_unit_rate_derivative(self, kind):
        unit = self.UNIT[kind]
        rho = random_collective(self.N, 5)
        got = col.master_rhs(None, [dataclasses.replace(unit, rate=0.2)], rho)
        ref = self.apply(unit, rho)
        assert sorted(got.blocks) == sorted(ref.blocks)
        for tj, b in ref.blocks.items():
            assert np.max(np.abs(got.blocks[tj] - 0.2 * b)) <= 1e-14 * np.max(np.abs(b))

    def test_diagonal_pair_is_one_dense_term(self):
        whole = (slice(None), slice(None))
        for kind, channel in self.UNIT.items():
            if isinstance(channel, col.SpinChannel):
                _, terms = col._spin_channel_terms(channel._key, self.N, self.N, 1.0)
            else:
                _, terms = col._collective_channel_terms(channel._key, self.N, 1.0)
            merged = [t for t in terms if t[1] == whole]
            assert len(merged) == 1, kind
            assert merged[0][3].shape == (self.N + 1, self.N + 1) and merged[0][4] is None

    @pytest.mark.parametrize("kind", sorted(UNIT))
    def test_fortran_ordered_blocks_in_and_out(self, kind):
        # flat terms read and write through flat views, which a
        # non-C-contiguous block does not have
        unit = self.UNIT[kind]
        rho = random_collective(self.N, 6)
        ref = self.apply(unit, rho)
        f_rho = col.CollectiveDensity(N=self.N, blocks={tj: np.asfortranarray(b)
                                                        for tj, b in rho.blocks.items()})
        out = col.CollectiveDensity(N=self.N, blocks={
            tj: np.zeros((tj + 1, tj + 1), dtype=complex, order="F") for tj in ref.blocks})
        self.apply(unit, f_rho, out)
        for tj, b in ref.blocks.items():
            assert np.array_equal(out.blocks[tj], b)
