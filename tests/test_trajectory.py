import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qfilt import operators as op
from qfilt import trajectory as traj
from qfilt.sde import rng_stream
from reference import SIGMA_MINUS, lindblad_D, measurement_M, random_states, sme_euler_step


def random_model(dim, seed, norm=3.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = 0.5 * (a + a.conj().T)
    H *= norm / np.linalg.norm(H, 2)
    L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    L *= norm / np.linalg.norm(L, 2)
    return traj.DiffusiveModel(H=H, L=L)


def random_pure(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def master_equation_oracle(H, L, rho0, t):
    """Deterministic Lindblad solution via scipy, independent of the
    trajectory stepper."""
    d = rho0.shape[0]

    def rhs(_, y):
        rho = y.reshape(d, d)
        drho = -1j * (H @ rho - rho @ H) + lindblad_D(L, rho)
        return drho.ravel()

    sol = solve_ivp(rhs, (0.0, t), rho0.ravel().astype(complex),
                    rtol=1e-10, atol=1e-12)
    return sol.y[:, -1].reshape(d, d)


class TestSmeStep:
    def test_pure_hamiltonian_step(self):
        model = traj.DiffusiveModel(H=op.SIGMA_Y, L=np.zeros((2, 2), dtype=complex))
        rho = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
        out = traj.sme_step_batch(model.G, model.channels, rho, dY=0.123, dt=1e-4)
        expect = rho + -1j * 1e-4 * (op.SIGMA_Y @ rho - rho @ op.SIGMA_Y)
        expect = 0.5 * (expect + op.dag(expect))
        expect = expect / np.trace(expect).real
        assert np.max(np.abs(out - expect)) < 1e-15
        assert abs(np.trace(out) - 1.0) < 1e-14

    def test_measurement_eigenstate_fixed_point(self):
        kappa = 2.0
        model = traj.DiffusiveModel(H=np.zeros((2, 2), dtype=complex),
                                    L=np.sqrt(kappa) * op.SIGMA_Z)
        plus_z = np.diag([1.0, 0.0]).astype(complex)
        for dY in (-0.3, 0.0, 0.7):
            out = traj.sme_step_batch(model.G, model.channels, plus_z, dY, 1e-4)
            assert np.max(np.abs(out - plus_z)) < 1e-14

    def test_trace_drift_before_normalization(self):
        # the Euler increment is exactly traceless for unit-trace input
        model = random_model(4, 0)
        rho = op.pure_to_density(random_pure(4, 1))
        Ld = op.dag(model.L)
        signal = np.trace((model.L + Ld) @ rho).real
        dY = signal * 1e-5 + 3e-3
        drho = (-1j * (model.H @ rho - rho @ model.H) + lindblad_D(model.L, rho)) * 1e-5 \
            + measurement_M(model.L, rho) * (dY - signal * 1e-5)
        assert abs(np.trace(rho + drho) - 1.0) < 5 * (1e-5) ** 2

    def test_batch_matches_superoperator_sum(self):
        # per-slot H against D[L] dt + M[L] dW, written term by term, slot
        # by slot
        d, B, dt = 4, 6, 1e-4
        rng = np.random.default_rng(11)
        Hs = np.stack([random_model(d, 20 + k).H for k in range(B)])
        L = random_model(d, 30).L
        rhos = np.stack([op.pure_to_density(random_pure(d, 40 + k)) for k in range(B)])
        dY = rng.standard_normal(B) * np.sqrt(dt)
        channels = traj.compile_channels(L)
        Gs = channels.generator(Hs)
        out = traj.sme_step_batch(Gs, channels, rhos, dY, dt)
        for b in range(B):
            expect = sme_euler_step(Hs[b], [L], rhos[b], [dY[b]], dt)
            assert np.max(np.abs(out[b] - expect)) <= 1e-13
        # a (2, 3) stack steps as its (6,) flattening, and one G per column
        # broadcasts over the rows as its tiling does
        rows = traj.sme_step_batch(Gs.reshape(2, 3, d, d), channels, rhos.reshape(2, 3, d, d),
                                   dY.reshape(2, 3), dt)
        assert np.array_equal(rows.reshape(out.shape), out)
        shared = traj.sme_step_batch(Gs[:3], channels, rhos.reshape(2, 3, d, d),
                                     dY.reshape(2, 3), dt)
        tiled = traj.sme_step_batch(np.concatenate([Gs[:3]] * 2), channels, rhos, dY, dt)
        assert np.array_equal(shared.reshape(tiled.shape), tiled)

    def test_ensemble_average_matches_master_equation(self):
        # 500 trajectories of the conditional state average to the
        # deterministic Lindblad solution
        kappa = 1.0
        model = traj.qubit_model(kappa, 0.7)
        rho0 = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
        t_final = 1.0 / kappa
        dt = 1e-3
        n_traj = 500
        rho = np.broadcast_to(rho0, (n_traj, 2, 2)).copy()
        rng = rng_stream(123)
        Lsig = model.L + op.dag(model.L)
        for _ in range(int(t_final / dt)):
            signal = np.einsum("ij,bji->b", Lsig, rho).real
            dY = signal * dt + rng.standard_normal(n_traj) * np.sqrt(dt)
            rho = traj.sme_step_batch(model.G, model.channels, rho, dY, dt)
        mean = rho.mean(axis=0)
        oracle = master_equation_oracle(model.H, model.L, rho0, t_final)
        assert np.max(np.abs(mean - oracle)) < 0.02

    @pytest.mark.parametrize("dt,floor", [
        # the Euler positivity floor scales like kappa * dt (two-point
        # increments; Gaussian draws add a larger dW^2 - dt contribution)
        (1e-5, 2e-5),
        (2e-7, 1e-6),
    ])
    def test_positivity_and_purity(self, dt, floor):
        model = traj.qubit_model(1.0, 0.0)
        rho = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
        rng = rng_stream(5)
        Lsig = model.L + op.dag(model.L)
        min_eig, min_purity = 1.0, 1.0
        steps = int(round(2.0 / dt)) if dt >= 1e-5 else 100_000
        noise = rng.choice([-1.0, 1.0], size=steps) * np.sqrt(dt)
        for i in range(steps):
            signal = np.trace(Lsig @ rho).real
            rho = traj.sme_step_batch(model.G, model.channels, rho, signal * dt + noise[i], dt)
            if (i + 1) % 100 == 0:
                min_eig = min(min_eig, np.linalg.eigvalsh(rho).min())
                min_purity = min(min_purity, np.trace(rho @ rho).real)
        assert min_eig > -floor
        assert min_purity > 1.0 - 1e-4


class TestCompiledChannels:
    def test_non_monomial_channel_stays_dense(self):
        L = SIGMA_MINUS + 0.3 * op.SIGMA_Z
        channels = traj.compile_channels(L)
        assert np.array_equal(channels.S, L + op.dag(L))
        rng = np.random.default_rng(3)
        rho = random_states(2, 3, rng)
        dY = rng.standard_normal(3) * 1e-2
        out = traj.sme_step_batch(channels.generator(op.SIGMA_Y), channels, rho, dY, 1e-4)
        for b in range(3):
            expect = sme_euler_step(op.SIGMA_Y, [L], rho[b], [dY[b]], 1e-4)
            assert np.max(np.abs(out[b] - expect)) <= 1e-13

    def test_nonfinite_step_names_its_slots(self):
        rng = np.random.default_rng(4)
        rho = random_states(2, 3, rng)
        dY = np.array([0.01, np.nan, -0.02])
        channels = traj.compile_channels(op.SIGMA_Z)
        G = channels.generator(op.SIGMA_Y)
        with pytest.raises(FloatingPointError, match=r"slots \[1\]"):
            traj.sme_step_batch(G, channels, rho, dY, 1e-4)
        # with two leading axes the slot is the row-major index
        rho = random_states(2, 6, rng).reshape(2, 3, 2, 2)
        dY = np.zeros((2, 3))
        dY[1, 1] = np.nan
        with pytest.raises(FloatingPointError, match=r"slots \[4\]$"):
            traj.sme_step_batch(G, channels, rho, dY, 1e-4)

    def test_overflowed_entry_under_finite_trace_names_its_slot(self):
        # slot 1's off-diagonal entries overflow while its trace stays
        # finite: the step that overflowed raises, where a trace check alone
        # would divide and hand on a non-finite state
        rho = random_states(2, 3, np.random.default_rng(5))
        rho[1] = [[0.5, 1e308], [1e308, 0.5]]
        G = np.zeros((3, 2, 2), dtype=complex)
        G[1] = np.eye(2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match=r"in sme_step_batch at slots \[1\]$"):
            traj.sme_step_batch(G, traj.compile_channels(np.zeros((2, 2))), rho, np.zeros(3), 1.0)


class TestSseStep:
    def test_nonfinite_step_names_its_slots(self):
        model = traj.qubit_model(1.0, 0.3)
        psi = np.stack([random_pure(2, k) for k in range(3)])
        dW = np.array([0.01, -0.02, np.nan])
        with pytest.raises(FloatingPointError, match=r"in sse_step_batch at slots \[2\]"):
            traj.sse_step_batch(model.G, model.channels, psi, dW, 1e-4)
        # with two leading axes the slot is the row-major index
        psi = np.stack([random_pure(2, k) for k in range(6)]).reshape(2, 3, 2)
        dW = np.zeros((2, 3))
        dW[1, 0] = np.nan
        with pytest.raises(FloatingPointError, match=r"in sse_step_batch at slots \[3\]$"):
            traj.sse_step_batch(model.G, model.channels, psi, dW, 1e-4)

    def test_free_state_unchanged(self):
        model = traj.DiffusiveModel(H=np.zeros((3, 3), dtype=complex),
                                    L=np.zeros((3, 3), dtype=complex))
        psi = random_pure(3, 2)
        out = traj.sse_step_batch(model.G, model.channels, psi, dW=0.01, dt=1e-4)
        assert np.max(np.abs(out - psi)) < 1e-14

    def test_matches_sme_per_step(self):
        # one step from the same state, binomial increment: the induced
        # density update agrees with the density filter to better than 1e-6
        model = random_model(6, 3, norm=5.0)
        psi = random_pure(6, 4)
        rng = np.random.default_rng(9)
        dt = 1e-5
        Lsig = model.L + op.dag(model.L)
        worst = 0.0
        for _ in range(2000):
            dW = rng.choice([-1.0, 1.0]) * np.sqrt(dt)
            rho = op.pure_to_density(psi)
            signal = np.trace(Lsig @ rho).real
            rho_next = traj.sme_step_batch(model.G, model.channels, rho, signal * dt + dW, dt)
            psi = traj.sse_step_batch(model.G, model.channels, psi, dW, dt)
            worst = max(worst, np.max(np.abs(op.pure_to_density(psi) - rho_next)))
        assert worst < 1e-6

    def test_real_amplitudes_invariant(self):
        # L = sigma_z, H = 0: states with real amplitudes stay real
        model = traj.DiffusiveModel(H=np.zeros((2, 2), dtype=complex), L=op.SIGMA_Z)
        psi = np.array([0.8, 0.6], dtype=complex)
        rng = np.random.default_rng(11)
        for _ in range(500):
            psi = traj.sse_step_batch(model.G, model.channels, psi, rng.normal() * 1e-2, 1e-4)
        assert np.max(np.abs(psi.imag)) < 1e-13


class TestSimulateTruth:
    def test_exact_filter_at_zero_field(self):
        # at B = 0 the qubit's filter is solved by its record alone:
        # <sigma_z> = tanh(2 sqrt(kappa) Y_t) and <sigma_x> = sech(2 sqrt(kappa) Y_t),
        # with Y_t the integrated record.  The Euler step's largest deviations
        # from it, measured at kappa = 1, dt = 1e-4, T = 0.5 for seeds 1-3, are
        # 1.07e-2, 3.77e-3, 6.47e-3 (sigma_z) and 1.13e-2, 4.09e-3, 4.67e-3
        # (sigma_x); the bound pins that accuracy and is not to be loosened
        kappa, dt = 1.0, 1e-4
        rho0 = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
        for seed in (1, 2, 3):
            rec = traj.simulate_truth(traj.qubit_model(kappa, 0.0), rho0, 0.5, dt, seed,
                                      observables={"sx": op.SIGMA_X, "sz": op.SIGMA_Z})
            x = 2.0 * np.sqrt(kappa) * np.concatenate([[0.0], np.cumsum(rec.dY)])
            assert np.max(np.abs(rec.expectations["sz"] - np.tanh(x))) <= 1.2e-2, seed
            assert np.max(np.abs(rec.expectations["sx"] - 1.0 / np.cosh(x))) <= 1.2e-2, seed

    def test_no_coupling_record_is_noise(self):
        model = traj.DiffusiveModel(H=op.SIGMA_Z, L=np.zeros((2, 2), dtype=complex))
        rho0 = np.eye(2, dtype=complex) / 2
        rec = traj.simulate_truth(model, rho0, 0.01, 1e-4, seed=4)
        assert np.array_equal(rec.dY, rec.dW)

    def test_record_invariant(self):
        kappa = 1.0
        model = traj.qubit_model(kappa, 0.0)
        rho0 = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
        rec = traj.simulate_truth(model, rho0, 0.05, 1e-4, seed=6,
                                  observables={"sz": op.SIGMA_Z})
        signal = 2.0 * np.sqrt(kappa) * rec.expectations["sz"][:-1]
        assert np.max(np.abs(rec.dY - signal * 1e-4 - rec.dW)) < 1e-14

    def test_replay_reproduces_expectations(self):
        model = traj.qubit_model(1.0, 0.2)
        rho0 = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
        rec = traj.simulate_truth(model, rho0, 0.02, 1e-4, seed=7,
                                  observables={"sz": op.SIGMA_Z})
        rho = rho0.copy()
        replay = [np.trace(op.SIGMA_Z @ rho).real]
        for dy in rec.dY:
            rho = traj.sme_step_batch(model.G, model.channels, rho, dy, 1e-4)
            replay.append(np.trace(op.SIGMA_Z @ rho).real)
        assert np.array_equal(np.array(replay), rec.expectations["sz"])

    def test_store_every_evaluates_stored_and_final_rows(self):
        model = traj.qubit_model(1.0, 0.2)
        rho0 = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
        obs = {"sx": op.SIGMA_X, "sz": op.SIGMA_Z}
        full = traj.simulate_truth(model, rho0, 0.0205, 1e-4, seed=8, observables=obs)
        part = traj.simulate_truth(model, rho0, 0.0205, 1e-4, seed=8, observables=obs,
                                   store_every=7)
        rows = np.append(np.arange(0, 206, 7), 205)  # 205 steps, not a multiple of 7
        assert np.array_equal(part.dY, full.dY) and np.array_equal(part.times, full.times)
        for k in obs:
            assert np.array_equal(part.expectations[k][rows], full.expectations[k][rows])
            assert np.all(np.isnan(np.delete(part.expectations[k], rows)))

    def test_store_every_must_be_positive(self):
        model = traj.qubit_model(1.0, 0.2)
        with pytest.raises(ValueError, match="store_every"):
            traj.simulate_truth(model, np.eye(2) / 2, 0.01, 1e-4, seed=8, store_every=0)


class TestCompiledModel:
    def test_model_compiles_once(self, monkeypatch):
        calls = []
        compile_channels = traj.compile_channels

        def spy(*args):
            calls.append(args)
            return compile_channels(*args)

        monkeypatch.setattr(traj, "compile_channels", spy)
        model = random_model(3, 41)
        rho0 = op.pure_to_density(random_pure(3, 42))
        traj.simulate_truth(model, rho0, 50 * 1e-4, 1e-4, seed=43)
        rho, psi = rho0, random_pure(3, 44)
        for dY in (0.01, -0.02, 0.005):
            rho = traj.sme_step_batch(model.G, model.channels, rho, dY, 1e-4)
            psi = traj.sse_step_batch(model.G, model.channels, psi, dY, 1e-4)
        assert len(calls) == 1
        # the generator is the drift -iH - L^dag L / 2, formed once
        assert model.G is model.G
        drift = -1j * model.H - 0.5 * op.dag(model.L) @ model.L
        assert np.max(np.abs(model.G - drift)) <= 1e-14

    @pytest.mark.parametrize("model", [traj.qubit_model(2.3, 0.7), random_model(4, 45)],
                             ids=["qubit", "dense4"])
    def test_simulate_truth_matches_dense_kernel(self, model):
        # a loop of steps on channels compiled apart from the model, each with
        # its own signal Tr[(L+L^dag) rho]
        dt, steps, seed = 1e-4, 60, 46
        rho0 = op.pure_to_density(random_pure(model.H.shape[0], 47))
        rec = traj.simulate_truth(model, rho0, steps * dt, dt, seed,
                                  observables={"x": model.H})
        dW = rng_stream(seed).standard_normal(steps) * np.sqrt(dt)
        Lsig = model.L + op.dag(model.L)
        channels = traj.compile_channels(model.L)
        rho, dY, x = rho0, [], [np.trace(model.H @ rho0).real]
        for i in range(steps):
            dY.append(np.trace(Lsig @ rho).real * dt + dW[i])
            rho = traj.sme_step_batch(model.G, channels, rho, dY[-1], dt)
            x.append(np.trace(model.H @ rho).real)
        assert np.max(np.abs(rec.dY - dY)) <= 1e-13
        assert np.max(np.abs(rec.expectations["x"] - x)) <= 1e-13

    def test_sse_step_matches_written_out_step(self):
        # a (2, 3) stack: one G per column and one dW per row, each broadcast
        # over the other axis, the drift written with L^dag L formed in the test
        model, dt = random_model(4, 48), 1e-4
        H = np.stack([model.H, 0.5 * model.H, -model.H])
        G = model.channels.generator(H)
        psi = np.stack([random_pure(4, 49 + k) for k in range(6)]).reshape(2, 3, 4)
        dW = np.array([[0.01], [-0.007]])
        out = traj.sse_step_batch(G, model.channels, psi, dW, dt)
        L, LdL = model.L, op.dag(model.L) @ model.L
        for r in range(2):
            for c in range(3):
                v = psi[r, c]
                eL = v.conj() @ L @ v
                step = v + (-1j * H[c] @ v - 0.5 * (LdL @ v - 2 * eL.conj() * (L @ v)
                                                     + abs(eL) ** 2 * v)) * dt \
                    + (L @ v - eL * v) * dW[r, 0]
                assert np.max(np.abs(out[r, c] - step / np.linalg.norm(step))) <= 1e-13
        # the same bits as the (6,) flattening with G and dW tiled per slot
        flat = traj.sse_step_batch(np.concatenate([G] * 2), model.channels, psi.reshape(6, 4),
                                   np.repeat(dW[:, 0], 3), dt)
        assert np.array_equal(out.reshape(flat.shape), flat)


class TestBlochAngle:
    def test_collapse_fixed_point(self):
        theta = np.pi / 2
        out = traj.bloch_angle_step(theta, dM=2.0 * np.sin(theta) * 1e-4, B=0.0,
                                    kappa=1.0, dt=1e-4)
        assert abs(out - theta) < 1e-12

    def test_larmor_rate(self):
        # strong field: theta advances at about -2B between corrections
        kappa, B = 1e-4, 1.0
        dt = 1e-5
        theta = 0.1
        out = traj.bloch_angle_step(theta, dM=2.0 * np.sqrt(kappa) * np.sin(theta) * dt,
                                    B=B, kappa=kappa, dt=dt)
        assert abs((out - theta) / dt + 2.0 * B) < 1e-2

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            traj.bloch_angle_step(0.1, 0.0, 0.0, kappa=0.0, dt=1e-4)

    def test_nan_kappa_rejected(self):
        # "kappa <= 0" let NaN through, on floats and on arrays alike
        for theta in (0.1, np.array([0.1, 0.2])):
            with pytest.raises(ValueError, match="kappa must be positive"):
                traj.bloch_angle_step(theta, 0.0, 0.0, kappa=np.nan, dt=1e-4)

    def test_matches_full_filter(self):
        # scalar filter vs the 2x2 density filter on one shared record of
        # two-point weak increments (see test_positivity_and_purity)
        kappa, B = 1.0, 0.3
        dt = 1e-5
        steps = int(round(5.0 / dt))
        model = traj.qubit_model(kappa, B)
        rho = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
        theta = 0.0
        rng = rng_stream(12)
        worst = 0.0
        chunk = 50_000
        done = 0
        while done < steps:
            m = min(chunk, steps - done)
            noise = rng.choice([-1.0, 1.0], size=m) * np.sqrt(dt)
            for i in range(m):
                signal = 2.0 * np.sqrt(kappa) * np.trace(op.SIGMA_Z @ rho).real
                dM = signal * dt + noise[i]
                rho = traj.sme_step_batch(model.G, model.channels, rho, dM, dt)
                theta = traj.bloch_angle_step(theta, dM, B, kappa, dt)
            done += m
            worst = max(worst, abs(np.sin(theta) - np.trace(op.SIGMA_Z @ rho).real))
        assert worst < 1e-4
