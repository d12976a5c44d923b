import tracemalloc

import numpy as np
import pytest

from qfilt import estimation as est
from qfilt import magnetometry as mag
from qfilt import operators as op
from qfilt import trajectory as traj
from qfilt.sde import rng_stream
from reference import commutator, lindblad_D, measurement_M


def spin_ops(F):
    return op.spin_operators(F)


def paper_variance_rhs(params, V, t):
    """The thesis's explicit flow of the small-angle variances
    (Delta theta^2, Delta B^2, Delta thetaB), independent of K, with the
    field in units of the gyromagnetic coupling (gamma = 1):

        d(Dth2)/dt  = -M Dth2 [ (1 + 4F + 8F^2 M t)/(1 + 2FMt)^2 + 4F^2 Dth2 ]
                      + 2 DthB
        d(DB2)/dt   = -4 F^2 M DthB^2
        d(DthB)/dt  = DB2 - M/(2 (1+2FMt)^2)
                      [ 1 + 4F + 8F^2 M t + 8F^2 (1+2FMt)^2 Dth2 ] DthB
    """
    F, M = params.F, params.M
    u = 1.0 + 2.0 * F * M * t
    poly = 1.0 + 4.0 * F + 8.0 * F * F * M * t
    dth2, dthb, db2 = V[0, 0], V[0, 1], V[1, 1]
    d_dth2 = -M * dth2 * (poly / u**2 + 4.0 * F * F * dth2) + 2.0 * dthb
    d_db2 = -4.0 * F * F * M * dthb * dthb
    d_dthb = db2 - M / (2.0 * u**2) * (poly + 8.0 * F * F * u**2 * dth2) * dthb
    return np.array([[d_dth2, d_dthb], [d_dthb, d_db2]])


class TestDoublePassModel:
    def test_hermitian_hamiltonian(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = mag.DoublePassParams(F=2.0, M=rng.uniform(0, 3), K=rng.uniform(0, 3),
                                     B=rng.normal())
            model = mag.double_pass_model(p)
            assert np.max(np.abs(model.H - op.dag(model.H))) < 1e-14

    def test_single_pass_reduction(self):
        p = mag.DoublePassParams(F=0.5, M=1.7, K=0.0, B=0.4)
        model = mag.double_pass_model(p)
        ops = spin_ops(0.5)
        assert np.allclose(model.L, np.sqrt(1.7) * ops["Jz"])
        assert np.allclose(model.H, -0.4 * ops["Jy"])

    def test_measured_quadrature_traceless(self):
        p = mag.DoublePassParams(F=1.5, M=0.8, K=0.3)
        model = mag.double_pass_model(p)
        assert abs(np.trace(model.L + op.dag(model.L))) < 1e-13


class TestDoublePassFilters:
    def test_explicit_form_equals_generic(self):
        # the thesis's explicit double-pass filter
        #   d rho = i B [Fy, rho] dt + i sqrt(KM) [Fy, {Fz, rho}] dt
        #         + M D[Fz] rho dt + K D[Fy] rho dt
        #         + (sqrt(M) M[Fz] rho + i sqrt(K) [Fy, rho]) dW,
        #   dW = dZ - 2 sqrt(M) Tr[Fz rho] dt,
        # against the generic filter on double_pass_model's channels
        p = mag.DoublePassParams(F=2.0, M=1.3, K=0.4, B=0.7)
        model = mag.double_pass_model(p)
        Fy, Fz = spin_ops(p.F)["Jy"], spin_ops(p.F)["Jz"]
        rho = op.pure_to_density(mag.coherent_x(p.F))
        rng = np.random.default_rng(1)
        dt = 1e-5
        for _ in range(100):
            dZ = rng.normal() * np.sqrt(dt)
            dW = dZ - 2.0 * np.sqrt(p.M) * np.trace(Fz @ rho).real * dt
            drift = 1j * p.B * commutator(Fy, rho) \
                + 1j * np.sqrt(p.K * p.M) * commutator(Fy, op.anticommutator(Fz, rho)) \
                + p.M * lindblad_D(Fz, rho) + p.K * lindblad_D(Fy, rho)
            kick = np.sqrt(p.M) * measurement_M(Fz, rho) \
                + 1j * np.sqrt(p.K) * commutator(Fy, rho)
            b = rho + drift * dt + kick * dW
            b = 0.5 * (b + op.dag(b))
            b /= np.trace(b).real
            a = traj.sme_step_batch(model.G, model.channels, rho, dZ, dt)
            assert np.max(np.abs(a - b)) < 1e-12
            rho = a

    def test_pure_larmor_when_uncoupled(self):
        # M = K = 0: coherent precession about y at rate B
        p = mag.DoublePassParams(F=3.0, M=0.0, K=0.0, B=0.9)
        ops = spin_ops(p.F)
        psi = mag.coherent_x(p.F)
        dt, steps = 1e-4, 2000
        for _ in range(steps):
            psi = mag.double_pass_sse_step(p, psi, 0.0, dt)
        t = dt * steps
        # the filter drift is +i B Fy, i.e. evolution under H = -B Fy
        u = op.expm_hermitian(-p.B * ops["Jy"], scale=-1j * t)
        expect = u @ mag.coherent_x(p.F)
        fz = np.real(psi.conj() @ ops["Jz"] @ psi)
        fz_expect = np.real(expect.conj() @ ops["Jz"] @ expect)
        assert abs(fz - fz_expect) < 1e-3

    def test_qubit_collapse_reduction(self):
        # F = 1/2, B = 0, K = 0 reduces to the monitored qubit; the state
        # collapses onto a Jz eigenstate
        p = mag.DoublePassParams(F=0.5, M=4.0, K=0.0, B=0.0)
        final = []
        for seed in range(20):
            rec = mag.simulate_double_pass_truth(p, T=3.0, dt=1e-3, seed=seed)
            final.append(rec.expectations["Fz"][-1])
        final = np.array(final)
        assert np.all(np.abs(np.abs(final) - 0.5) < 0.05)
        assert 1 <= np.sum(final > 0) <= 19  # both signs occur

    def test_sse_sme_consistency(self):
        p = mag.DoublePassParams(F=5.0, M=1.0, K=0.2, B=0.5)
        model = mag.double_pass_model(p)
        psi = mag.coherent_x(p.F)
        rho = op.pure_to_density(psi)
        ops = spin_ops(p.F)
        rng = np.random.default_rng(3)
        dt = 1e-5
        for _ in range(5000):
            dW = rng.choice([-1.0, 1.0]) * np.sqrt(dt)
            dZ = 2.0 * np.sqrt(p.M) * np.trace(ops["Jz"] @ rho).real * dt + dW
            rho = traj.sme_step_batch(model.G, model.channels, rho, dZ, dt)
            psi = mag.double_pass_sse_step(p, psi, dW, dt)
        assert np.max(np.abs(op.pure_to_density(psi) - rho)) < 1e-4

    def test_real_amplitudes_invariant(self):
        p = mag.DoublePassParams(F=2.0, M=1.0, K=0.3, B=0.7)
        psi = mag.coherent_x(p.F)  # real amplitudes
        assert np.max(np.abs(psi.imag)) < 1e-12
        rng = np.random.default_rng(4)
        for _ in range(1000):
            psi = mag.double_pass_sse_step(p, psi, rng.normal() * 1e-2, 1e-4)
        assert np.max(np.abs(psi.imag)) < 1e-10

    def test_complex_amplitude_sse_matches_sme(self):
        # a coherent state off the x-z plane has <Fy> != 0; the pure-state
        # filter must still track the density filter of double_pass_model
        p = mag.DoublePassParams(F=2.0, M=1.0, K=0.5, B=0.3)
        model = mag.double_pass_model(p)
        psi = op.spin_coherent(p.F, 1.1, 0.8)
        assert abs(np.real(psi.conj() @ spin_ops(p.F)["Jy"] @ psi)) > 0.5
        rho = op.pure_to_density(psi)
        Lsig = model.L + op.dag(model.L)
        rng = np.random.default_rng(6)
        dt = 1e-5
        for _ in range(2000):
            dW = rng.choice([-1.0, 1.0]) * np.sqrt(dt)
            dZ = np.trace(Lsig @ rho).real * dt + dW
            rho = traj.sme_step_batch(model.G, model.channels, rho, dZ, dt)
            psi = mag.double_pass_sse_step(p, psi, dW, dt)
        assert np.max(np.abs(op.pure_to_density(psi) - rho)) < 1e-5


class TestFisherInformation:
    def test_unitary_case_matches_state_derivative_oracle(self):
        # M = K = 0: conditioned dynamics are the deterministic rotation
        # exp(+i B t Fy); compare against a dense derivative oracle on
        # that state family
        F, T = 0.5, 1.0
        p = mag.DoublePassParams(F=F, M=0.0, K=0.0, B=0.0)
        info, = mag.fisher_information_fd(p, deltaB=1e-3, T=T, dt=1e-3, seeds=[0])
        ops = spin_ops(F)
        psi0 = mag.coherent_x(F)
        eps = 1e-5

        def family(B):
            u = op.expm_hermitian(ops["Jy"], scale=1j * B * T)
            return op.pure_to_density(u @ psi0)

        drho = (family(eps) - family(-eps)) / (2 * eps)
        oracle = np.trace(drho @ drho @ family(0.0)).real
        assert abs(info - oracle) / oracle < 0.05

    def test_finite_difference_converged(self):
        p = mag.DoublePassParams(F=2.0, M=1.0, K=0.01, B=0.0)
        a, = mag.fisher_information_fd(p, 1e-3, T=0.5, dt=1e-4, seeds=[3])
        b, = mag.fisher_information_fd(p, 1e-4, T=0.5, dt=1e-4, seeds=[3])
        assert abs(a - b) / b < 0.01

    def test_symmetric_at_zero_field(self):
        # swapping the +deltaB / -deltaB labels leaves the estimate unchanged
        p = mag.DoublePassParams(F=1.0, M=0.5, K=0.05, B=0.0)
        dB, T, dt = 1e-3, 0.3, 1e-4
        base, = mag.fisher_information_fd(p, dB, T, dt, seeds=[4])
        psi = mag.coherent_x(p.F)
        states = {off: psi.copy() for off in (0.0, dB, -dB)}
        rng = rng_stream((4,))
        from dataclasses import replace
        dWs = rng.standard_normal(int(round(T / dt))) * np.sqrt(dt)
        for dW in dWs:
            for off in states:
                states[off] = mag.double_pass_sse_step(replace(p, B=off), states[off], dW, dt)
        drho = (op.pure_to_density(states[-dB]) - op.pure_to_density(states[dB])) / (-2 * dB)
        swapped = np.trace(drho @ drho @ op.pure_to_density(states[0.0])).real
        assert abs(base - swapped) < 1e-12

    def test_batched_shifts_match_three_filters(self):
        # the three co-evolved fields of every seed, for one seed and for a
        # lockstep batch of three, against three separate filters on that
        # seed's stream
        p = mag.DoublePassParams(F=1.5, M=0.8, K=0.3, B=0.2)
        dB, T, dt = 1e-3, 0.01, 1e-4
        shifted = [mag.DoublePassParams(F=1.5, M=0.8, K=0.3, B=0.2 + off)
                   for off in (0.0, dB, -dB)]
        for seeds in ([5], [5, (2, 0), (2, 1)]):
            infos = mag.fisher_information_fd(p, dB, T, dt, seeds)
            assert infos.shape == (len(seeds),)
            for seed, info in zip(seeds, infos):
                states = [mag.coherent_x(p.F)] * 3
                for dW in rng_stream(seed).standard_normal(int(round(T / dt))) * np.sqrt(dt):
                    states = [mag.double_pass_sse_step(q, s, dW, dt)
                              for q, s in zip(shifted, states)]
                rho0, rho_p, rho_m = map(op.pure_to_density, states)
                drho = (rho_p - rho_m) / (2 * dB)
                expect = np.trace(drho @ drho @ rho0).real
                assert expect > 0 and abs(info - expect) <= 1e-9 * expect

    def test_failure_names_step_and_seeds(self):
        # the kernel's check names the seeds of its slots; an error numpy
        # raises itself under errstate(all="raise") names no slot
        p = mag.DoublePassParams(F=2.0, M=1e200, K=0.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                FloatingPointError, match=r"slots \[0, 1, 2, 3, 4, 5\] at step 1 \(t = 0.0001\),"
                                          r" seed indices \[0, 1\]$"):
            mag.fisher_information_fd(p, 1e-3, 1e-3, 1e-4, [0, 1])
        with np.errstate(all="raise"), pytest.raises(
                FloatingPointError, match=r"overflow.* at step 1 \(t = 0.0001\)$"):
            mag.fisher_information_fd(p, 1e-3, 1e-3, 1e-4, [0, 1])

    def test_point_allocates_no_per_seed_hamiltonian(self):
        # the three shifted Hamiltonians broadcast over the seeds: a point's
        # peak allocation stays below half of one (3, d, d) stack per seed
        p = mag.DoublePassParams(F=50.0, M=1.0, K=1e-4)
        seeds, dt = list(range(16)), 1e-4
        mag.fisher_information_fd(p, 1e-3, dt, dt, seeds[:1])  # build the cached models
        H_bytes = 3 * mag.double_pass_model(p).H.nbytes
        tracemalloc.start()
        try:
            infos = mag.fisher_information_fd(p, 1e-3, 3 * dt, dt, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert infos.shape == (16,)
        assert peak < len(seeds) * H_bytes / 2


class TestSmallAngleKalman:
    def test_model_matrices(self):
        p = mag.DoublePassParams(F=4.0, M=1.5, K=0.09, B=0.0)
        model = mag.smallangle_kalman_model(p)
        A, B, C, D = model.at(0.7)[:4]
        F, M, K = p.F, p.M, p.K
        u = 1.0 + 2.0 * F * M * 0.7
        assert np.allclose(A, [[2 * F * np.sqrt(K * M) - M / (2 * u * u), 1.0],
                               [0.0, 0.0]])
        assert np.allclose(B, [[-np.sqrt(M) / u - np.sqrt(K)], [0.0]])
        assert np.allclose(C, [[-2.0 * np.sqrt(M) * F, 0.0]])
        assert np.allclose(D, [[1.0]])

    def test_matrices_over_a_time_grid(self):
        # A and B over an array of times are the stack of their values at each t
        model = mag.smallangle_kalman_model(mag.DoublePassParams(F=4.0, M=1.5, K=0.09))
        t = np.array([0.0, 0.3, 0.7])
        A, B, C, D = model.at(t)[:4]
        assert A.shape == (3, 2, 2) and B.shape == (3, 2, 1)
        for i, ti in enumerate(t):
            Ai, Bi, Ci, Di = model.at(ti)[:4]
            assert np.array_equal(A[i], Ai) and np.array_equal(B[i], Bi)
            assert Ci is C and Di is D

    def test_variance_flow_matches_correlated_riccati(self):
        p = mag.DoublePassParams(F=5.0, M=1.0, K=0.1)
        model = mag.smallangle_kalman_model(p)
        V = np.array([[0.3, 0.1], [0.1, 2.0]])
        A, B, C, D = model.at(0.7)[:4]
        G = B + V @ C.T
        riccati = A @ V + V @ A.T + B @ B.T - G @ G.T
        assert np.max(np.abs(riccati - paper_variance_rhs(p, V, 0.7))) < 1e-12


class TestMagnetometryParticleFilter:
    def test_single_particle_at_truth(self):
        p = mag.DoublePassParams(F=1.0, M=1.0, K=0.0, B=0.8)
        record = mag.simulate_double_pass_truth(p, T=0.2, dt=1e-3, seed=9)
        model = mag.magnetometry_estimation_model(p, ("finite", [0.8]))
        out = est.particle_filter_run(model, record, N=1, a=0.98, h=1e-3,
                                      threshold=0.5, seed=10)
        assert np.max(np.abs(out["mean_trace"] - 0.8)) < 1e-12

    def test_paired_single_vs_double_pass_runs(self):
        # one truth record configuration, two passes over it: K = 0 and
        # K > 0 filters produce distinct posterior traces
        p0 = mag.DoublePassParams(F=2.0, M=1.0, K=0.0, B=0.0)
        p1 = mag.DoublePassParams(F=2.0, M=1.0, K=0.1, B=0.0)
        rec0 = mag.simulate_double_pass_truth(p0, T=0.2, dt=1e-3, seed=11)
        rec1 = mag.simulate_double_pass_truth(p1, T=0.2, dt=1e-3, seed=11)
        assert np.array_equal(rec0.dW, rec1.dW)  # shared noise realization
        prior = ("gaussian", 0.0, 4.0)
        out0, out1 = (est.particle_filter_run(mag.magnetometry_estimation_model(q, prior), rec,
                                              N=40, a=0.98, h=1e-3, threshold=0.5, seed=12)
                      for q, rec in ((p0, rec0), (p1, rec1)))
        assert not np.allclose(out0["sd_trace"], out1["sd_trace"])

    def test_density_ensemble_matches_dense_kernel(self):
        # three particles on the double-pass base (K > 0, so base.H != 0)
        # against an Euler step of the joint filter on
        # sum_i p_i |i><i| (x) rho_i: weights are its block traces, states
        # its normalized blocks
        p = mag.DoublePassParams(F=1.0, M=1.2, K=0.4, B=0.0)
        model = mag.magnetometry_estimation_model(p, ("finite", [0.3, -0.5, 1.1]))
        assert np.max(np.abs(model.base.H)) > 0
        ens = est.ParticleEnsemble(weights=np.array([0.2, 0.5, 0.3]),
                                   params=np.array([0.3, -0.5, 1.1]),
                                   states=np.stack([model.rho0] * 3))
        Hext, Lext = est.extended_estimation_operators(model.H0, model.base.L, ens.params)
        Hext = Hext + np.kron(np.eye(3), model.base.H)
        Lext = traj.compile_channels(Lext)
        d = len(model.rho0)
        w, states = ens.weights, ens.states
        rng = np.random.default_rng(15)
        dt = 1e-4
        for _ in range(40):
            dM = rng.normal() * np.sqrt(dt)
            ens = est.ensemble_step(model, ens, dM, dt)
            joint = np.zeros((3, d, 3, d), dtype=complex)
            joint[np.arange(3), :, np.arange(3), :] = w[:, None, None] * states
            joint = traj.sme_step_batch(Lext.generator(Hext), Lext, joint.reshape(3 * d, 3 * d),
                                        dM, dt)
            blocks = joint.reshape(3, d, 3, d)[np.arange(3), :, np.arange(3), :]
            w = np.einsum("bii->b", blocks).real
            states = blocks / w[:, None, None]
            assert np.max(np.abs(ens.states - states)) <= 1e-13
            assert np.max(np.abs(ens.weights - w)) <= 1e-13

    def test_posterior_sd_shrinks_on_average(self):
        # average over seeds of the posterior sd decreases with time, with
        # one violation allowed across the checkpoints
        p = mag.DoublePassParams(F=10.0, M=1.0, K=0.0, B=0.0)
        sds = []
        for seed in range(20):
            rec = mag.simulate_double_pass_truth(p, T=0.3, dt=2e-3, seed=(13, seed))
            out = est.particle_filter_run(
                mag.magnetometry_estimation_model(p, ("gaussian", 0.0, 4.0)), rec,
                N=60, a=0.98, h=1e-3, threshold=2.0 / 3.0, seed=(14, seed))
            sds.append(out["sd_trace"][::30])
        mean_sd = np.mean(sds, axis=0)
        violations = int(np.sum(np.diff(mean_sd) > 0))
        assert violations <= 1
