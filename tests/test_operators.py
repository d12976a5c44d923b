import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfilt import operators as op
from reference import SIGMA_MINUS, commutator, lindblad_D, measurement_M, random_states


def random_density(dim, seed):
    return random_states(dim, 1, np.random.default_rng(seed))[0]


def random_operator(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestSpinOperators:
    def test_jz_half(self):
        ops = op.spin_operators(0.5)
        assert np.allclose(ops["Jz"], np.diag([0.5, -0.5]))

    def test_jz_one(self):
        ops = op.spin_operators(1.0)
        assert np.allclose(ops["Jz"], np.diag([1.0, 0.0, -1.0]))

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 7.5])
    def test_su2_commutator(self, j):
        ops = op.spin_operators(j)
        resid = commutator(ops["Jx"], ops["Jy"]) - 1j * ops["Jz"]
        assert np.max(np.abs(resid)) < 1e-12

    def test_ladder_action(self):
        # Jplus |j,m> = sqrt((j-m)(j+m+1)) |j,m+1>
        j = 2.0
        ops = op.spin_operators(j)
        for k, m in enumerate(np.arange(j, -j - 1, -1)):
            e = np.zeros(int(2 * j + 1), dtype=complex)
            e[k] = 1.0
            raised = ops["Jplus"] @ e
            if m < j:
                expect = np.sqrt((j - m) * (j + m + 1))
                assert abs(raised[k - 1] - expect) < 1e-12
            else:
                assert np.linalg.norm(raised) < 1e-12

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            op.spin_operators(0.7)
        with pytest.raises(ValueError):
            op.spin_operators(-0.5)


class TestPauliString:
    def test_zzi_eigenvalue(self):
        zz = op.pauli_string("ZZI")
        e000 = np.zeros(8)
        e000[0] = 1.0
        assert np.allclose(zz @ e000, e000)

    def test_squares_to_identity(self):
        s = op.pauli_string("XZZXI")
        assert np.allclose(s @ s, np.eye(32))

    def test_bitflip_generators_commute(self):
        a = op.pauli_string("ZZI")
        b = op.pauli_string("IZZ")
        assert np.allclose(a @ b, b @ a)

    def test_hermitian_unitary(self):
        s = op.pauli_string("XYZI")
        assert np.max(np.abs(s - op.dag(s))) < 1e-12
        assert np.allclose(s @ op.dag(s), np.eye(16))

    @pytest.mark.parametrize("spec,trace", [("II", 4), ("XI", 0), ("ZZ", 0), ("III", 8)])
    def test_trace(self, spec, trace):
        assert abs(np.trace(op.pauli_string(spec)) - trace) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            op.pauli_string("")
        with pytest.raises(ValueError):
            op.pauli_string("XQ")


class TestSuperoperators:
    def test_identity_dissipator_vanishes(self):
        rho = random_density(3, 1)
        out = lindblad_D(np.eye(3, dtype=complex), rho)
        assert np.max(np.abs(out)) < 1e-14

    def test_dissipator_traceless(self):
        for seed in range(5):
            rho = random_density(4, seed)
            L = random_operator(4, seed + 100)
            assert abs(np.trace(lindblad_D(L, rho))) < 1e-12

    def test_decay_from_excited(self):
        # direct 2x2 arithmetic: D[sigma_-] |e><e| = |g><g| - |e><e|
        excited = np.diag([1.0, 0.0]).astype(complex)
        ground = np.diag([0.0, 1.0]).astype(complex)
        out = lindblad_D(SIGMA_MINUS, excited)
        assert np.allclose(out, ground - excited, atol=1e-14)

    def test_measurement_identity_vanishes(self):
        rho = random_density(3, 2)
        assert np.max(np.abs(measurement_M(np.eye(3, dtype=complex), rho))) < 1e-14

    def test_measurement_fixed_point(self):
        # an eigenprojector of a Hermitian L is a fixed point of conditioning
        L = np.diag([1.0, -1.0, 2.0]).astype(complex)
        proj = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert np.max(np.abs(measurement_M(L, proj))) < 1e-14

    def test_measurement_sigma_z_plus_x(self):
        plus_x = 0.5 * (np.eye(2) + op.SIGMA_X)
        out = measurement_M(op.SIGMA_Z, plus_x)
        # <sigma_z> = 0 in |+x>, so only the anticommutator part survives
        assert np.allclose(out, op.SIGMA_Z @ plus_x + plus_x @ op.SIGMA_Z, atol=1e-14)

    def test_measurement_traceless(self):
        for seed in range(5):
            rho = random_density(5, seed)
            L = random_operator(5, seed + 50)
            assert abs(np.trace(measurement_M(L, rho))) < 1e-12

    def test_hermiticity_preserved(self):
        rho = random_density(4, 3)
        L = random_operator(4, 7)
        for out in (lindblad_D(L, rho), measurement_M(L, rho)):
            assert np.max(np.abs(out - op.dag(out))) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            lindblad_D(np.eye(2, dtype=complex), random_density(3, 0))
        with pytest.raises(ValueError):
            measurement_M(np.eye(3, dtype=complex), random_density(2, 0))

    @given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_dissipator_linearity(self, alpha, beta):
        L = random_operator(3, 11)
        r1, r2 = random_density(3, 12), random_density(3, 13)
        out = lindblad_D(L, alpha * r1 + beta * r2)
        expect = alpha * lindblad_D(L, r1) + beta * lindblad_D(L, r2)
        assert np.max(np.abs(out - expect)) < 1e-12

    @given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_measurement_deviation_from_linearity_is_signal_term(self, alpha, beta):
        # the sandwich part of M is linear; the conditioning term is
        # quadratic in rho, so the deviation must equal it exactly
        L = random_operator(3, 14)
        r1, r2 = random_density(3, 15), random_density(3, 16)
        mix = alpha * r1 + beta * r2
        out = measurement_M(L, mix)
        lin = alpha * measurement_M(L, r1) + beta * measurement_M(L, r2)
        sig = lambda r: np.trace((L + op.dag(L)) @ r)
        corr = sig(mix) * mix - alpha * sig(r1) * r1 - beta * sig(r2) * r2
        assert np.max(np.abs(out - (lin - corr))) < 1e-10


class TestSpinCoherent:
    def test_north_pole(self):
        psi = op.spin_coherent(1.5, 0.0, 0.0)
        expect = np.zeros(4)
        expect[0] = 1.0
        assert np.allclose(np.abs(psi), expect, atol=1e-12)

    def test_plus_x_qubit(self):
        psi = op.spin_coherent(0.5, np.pi / 2, 0.0)
        phase = psi[0] / abs(psi[0])
        assert np.allclose(psi / phase, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_direction_eigenstate(self, seed):
        # eigensolver oracle: the state is the top eigenvector of n.J
        rng = np.random.default_rng(seed)
        j = rng.choice([0.5, 1.0, 2.5, 5.0])
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        ops = op.spin_operators(j)
        n_dot_j = (np.sin(theta) * np.cos(phi) * ops["Jx"]
                   + np.sin(theta) * np.sin(phi) * ops["Jy"]
                   + np.cos(theta) * ops["Jz"])
        psi = op.spin_coherent(j, theta, phi)
        assert np.linalg.norm(n_dot_j @ psi - j * psi) < 1e-10
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_bad_angles(self):
        with pytest.raises(ValueError):
            op.spin_coherent(0.5, np.nan, 0.0)


class TestInvariants:
    def test_double_adjoint(self):
        a = random_operator(5, 21)
        assert np.allclose(op.dag(op.dag(a)), a)

    def test_trace_cyclic(self):
        a, b = random_operator(6, 22), random_operator(6, 23)
        ta, tb = np.trace(a @ b), np.trace(b @ a)
        assert abs(ta - tb) / abs(ta) < 1e-12

    def test_expm_hermitian_unitary(self):
        h = random_operator(4, 31)
        h = h + op.dag(h)
        u = op.expm_hermitian(h, scale=-1j * 0.37)
        assert np.allclose(u @ op.dag(u), np.eye(4), atol=1e-12)
