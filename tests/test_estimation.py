import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfilt import estimation as est
from qfilt import operators as op
from qfilt import trajectory as traj
from qfilt.sde import rng_stream


def bloch_model(prior):
    return est.QubitMagnetometerModel(kappa=1.0, prior=prior)


def joint_filter_weights(kappa, B_values, dt):
    """A truth record at B = 2 and, per step, the block traces of the exact
    Bayesian filter that embeds the field in the state,
    rho = sum_i p_i |B_i><B_i| (x) rho_i, an ordinary SME, on it."""
    n = len(B_values)
    rho0 = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
    record = traj.simulate_truth(traj.qubit_model(kappa, 2.0), rho0, 0.3, dt, seed=3)
    Hext, Lext = est.extended_estimation_operators(op.SIGMA_Y, np.sqrt(kappa) * op.SIGMA_Z,
                                                   B_values)
    joint = traj.DiffusiveModel(H=Hext, L=Lext)
    rho = np.kron(np.eye(n) / n, rho0)
    blocks = []
    for dM in record.dY:
        rho = traj.sme_step_batch(joint.G, joint.channels, rho, dM, dt)
        blocks.append(np.einsum("iaia->i", rho.reshape(n, 2, n, 2)).real)
    return record, np.array(blocks)


class TestEnsembleStep:
    def test_single_particle_reduces_to_filter(self):
        # a lone particle keeps weight 1, and its angle is the scalar filter's
        model = bloch_model(("finite", [0.8]))
        ens = est.ParticleEnsemble(weights=np.array([1.0]), params=np.array([0.8]),
                                   states=np.zeros(1))
        theta = np.zeros(1)
        rng = rng_stream(0)
        for _ in range(200):
            dM = rng.normal() * 1e-2
            ens = est.ensemble_step(model, ens, dM, 1e-4)
            theta = traj.bloch_angle_step(theta, dM, 0.8, model.kappa, 1e-4)
            assert ens.weights[0] == 1.0
        assert np.array_equal(ens.states, theta)

    def test_weights_track_joint_filter(self):
        # the ensemble's weights must follow the exact joint filter's block
        # traces on one record
        B_values, dt = np.array([2.0, 5.0, 8.0, 12.0]), 2e-5
        record, blocks = joint_filter_weights(1.0, B_values, dt)
        model = bloch_model(("finite", B_values))
        ens = est.ParticleEnsemble(weights=np.full(4, 0.25), params=B_values.copy(),
                                   states=np.zeros(4))
        worst = 0.0
        for dM, w in zip(record.dY, blocks):
            ens = est.ensemble_step(model, ens, dM, dt)
            worst = max(worst, np.max(np.abs(ens.weights - w)))
        assert worst < 2e-3

    def test_weights_clip_and_renormalize(self):
        # the second particle's update factor 1 + (c_2 - cbar) dM is negative
        model = bloch_model(("finite", [0.0, 5.0]))
        ens = est.ParticleEnsemble(weights=np.array([0.999, 0.001]),
                                   params=np.array([0.0, 5.0]), states=np.array([0.0, 1.2]))
        out = est.ensemble_step(model, ens, dM=-1.0, dt=1e-3)
        assert abs(out.weights.sum() - 1.0) < 1e-12
        assert np.all(out.weights >= 0.0) and out.weights[1] == 0.0
        # the step skips the constructor's check of weights it has just
        # normalized; an ensemble built from its arrays passes that check
        assert isinstance(out, est.ParticleEnsemble) and out.params is ens.params
        est.ParticleEnsemble(weights=out.weights, params=out.params, states=out.states)

    def test_exchangeability(self):
        # permuting particle order permutes the outputs and leaves the
        # ensemble mean signal unchanged (up to float summation order)
        model = bloch_model(("finite", [0.5, 1.0, 2.0]))
        w = np.array([0.2, 0.3, 0.5])
        B = np.array([0.5, 1.0, 2.0])
        states = np.array([0.1, -0.4, 0.7])
        ens = est.ParticleEnsemble(weights=w.copy(), params=B.copy(), states=states.copy())
        perm = np.array([2, 0, 1])
        ens_p = est.ParticleEnsemble(weights=w[perm].copy(), params=B[perm].copy(),
                                     states=states[perm].copy())
        out = est.ensemble_step(model, ens, 0.01, 1e-3)
        out_p = est.ensemble_step(model, ens_p, 0.01, 1e-3)
        assert np.max(np.abs(out.weights[perm] - out_p.weights)) < 1e-13
        assert np.max(np.abs(out.states[perm] - out_p.states)) < 1e-13

    def test_degenerate_ensemble_detected(self):
        # the sign structure of the weight update keeps at least one weight
        # positive for any finite increment, so degeneracy is a numeric
        # failure mode (non-finite record values)
        model = bloch_model(("finite", [1.0]))
        ens = est.ParticleEnsemble(weights=np.array([1.0]), params=np.array([1.0]),
                                   states=np.zeros(1))
        with pytest.raises(est.DegenerateEnsembleError):
            est.ensemble_step(model, ens, dM=np.nan, dt=1e-3)


class TestEffectiveSampleSize:
    def test_uniform(self):
        assert abs(est.effective_sample_size(np.full(8, 0.125)) - 8.0) < 1e-12

    def test_degenerate(self):
        w = np.zeros(5)
        w[2] = 1.0
        assert abs(est.effective_sample_size(w) - 1.0) < 1e-12

    def test_half_half(self):
        assert abs(est.effective_sample_size(np.array([0.5, 0.5, 0.0, 0.0])) - 2.0) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            est.effective_sample_size(np.array([0.5, 0.2]))

    def test_nonfinite_weights_rejected(self):
        # NaN makes both "sum off 1 > tol" and "some weight < 0" false, so
        # the checks are written to fail on it
        for w in ([np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.0], [0.5, 0.5, np.nan]):
            with pytest.raises(ValueError, match="weights must be normalized"):
                est.effective_sample_size(np.array(w))
            with pytest.raises(ValueError, match="weights must be a normalized"):
                est.ParticleEnsemble(weights=np.array(w), params=np.zeros(len(w)),
                                     states=np.zeros(len(w)))

    @given(st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        neff = est.effective_sample_size(w)
        assert 1.0 - 1e-9 <= neff <= n + 1e-9


class TestLiuWestResample:
    def _ensemble(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        params = rng.normal(5.0, 2.0, size=n)
        states = rng.normal(0.0, 0.3, size=n)
        return est.ParticleEnsemble(weights=w, params=params, states=states)

    def test_point_mass_limit(self):
        # a = 1, h = 0: pure multinomial resampling, support within parents
        ens = self._ensemble(50, 0)
        out = est.liu_west_resample(ens, a=1.0, h=0.0, rng=np.random.default_rng(1))
        assert np.all(np.isin(out.params, ens.params))
        assert np.allclose(out.weights, 1.0 / 50)

    def test_variance_preserved_with_matched_bandwidth(self):
        # h^2 = 1 - a^2 keeps the ensemble variance at V_t on average
        a = 0.9
        h = np.sqrt(1.0 - a * a)
        ens = self._ensemble(1000, 2)
        v_parent = ens.variance()
        rng = np.random.default_rng(3)
        vs = [est.liu_west_resample(ens, a, h, rng).variance() for _ in range(100)]
        assert abs(np.mean(vs) / v_parent - 1.0) < 0.15

    def test_mean_preserved(self):
        ens = self._ensemble(1000, 4)
        rng = np.random.default_rng(5)
        out = est.liu_west_resample(ens, a=0.98, h=1e-3, rng=rng)
        tol = 3.0 * np.sqrt(ens.variance() / ens.count)
        assert abs(out.mean() - ens.mean()) < tol

    def test_bloch_joint_resampling(self):
        ens = self._ensemble(400, 6)
        rng = np.random.default_rng(7)
        out = est.liu_west_resample(ens, a=0.9, h=np.sqrt(1 - 0.81), rng=rng)
        # thetas move with their parameters: children stay near the joint cloud
        assert out.states.ndim == 1
        assert out.states.shape == ens.states.shape
        assert abs(np.mean(out.states) - np.average(ens.states, weights=ens.weights)) < 0.2

    def test_parameter_validation(self):
        ens = self._ensemble(10, 8)
        with pytest.raises(ValueError):
            est.liu_west_resample(ens, a=1.5, h=0.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            est.liu_west_resample(ens, a=0.5, h=-1.0, rng=np.random.default_rng(0))


class TestParticleFilterRun:
    def test_prior_on_truth_stays_there(self):
        record = est.simulate_qubit_record(1.0, 2.0, 0.05, 1e-4, seed=10)
        model = est.QubitMagnetometerModel(kappa=1.0, prior=("finite", [2.0]))
        out = est.particle_filter_run(model, record, N=1, a=0.98, h=1e-3,
                                      threshold=0.5, seed=11)
        assert np.max(np.abs(out["mean_trace"] - 2.0)) < 1e-12
        assert out["uncertainty"] == 0.0

    def test_zero_threshold_never_resamples(self):
        record = est.simulate_qubit_record(1.0, 2.0, 0.02, 1e-4, seed=12)
        model = est.QubitMagnetometerModel(kappa=1.0, prior=("gaussian", 0.0, 4.0))
        out = est.particle_filter_run(model, record, N=30, a=0.98, h=1e-3,
                                      threshold=0.0, seed=13)
        assert out["n_resamples"] == 0

    def test_deterministic_per_seed(self):
        record = est.simulate_qubit_record(1.0, 3.0, 0.02, 1e-4, seed=14)
        model = est.QubitMagnetometerModel(kappa=1.0, prior=("gaussian", 0.0, 9.0))
        a = est.particle_filter_run(model, record, N=25, a=0.98, h=1e-3,
                                    threshold=0.9, seed=15)
        b = est.particle_filter_run(model, record, N=25, a=0.98, h=1e-3,
                                    threshold=0.9, seed=15)
        assert np.array_equal(a["mean_trace"], b["mean_trace"])
        assert a["n_resamples"] == b["n_resamples"]

    @pytest.mark.parametrize("kappa,ok", [(9999.0, True), (1e4, False), (1e300, False),
                                          (np.nan, False)])
    def test_bloch_angle_runs_need_kappa_dt_below_one(self, kappa, ok):
        # the Euler drift kappa sin(2 theta) contracts at theta = +-pi/2 only
        # while |1 - 2 kappa dt| < 1; the check runs once per call, on the
        # truth record and on the filter's own kappa.  A NaN kappa is refused
        # the same way: it gave an all-NaN record and, in the filter, a
        # DegenerateEnsembleError
        record = est.simulate_qubit_record(1.0, 2.0, 0.002, 1e-4, seed=16)
        model = est.QubitMagnetometerModel(kappa=kappa, prior=("gaussian", 0.0, 1.0))
        runs = (lambda: est.simulate_qubit_record(kappa, 2.0, 0.002, 1e-4, seed=16),
                lambda: est.particle_filter_run(model, record, N=5, a=0.98, h=1e-3,
                                                threshold=0.5, seed=17))
        for run in runs:
            if ok:
                run()
            else:
                with pytest.raises(ValueError, match=r"kappa \* dt = .* kappa \* dt < 1"):
                    run()


    @pytest.mark.parametrize("B_true,ok", [(4999.0, True), (-4999.0, True), (5000.0, False),
                                           (-1e300, False), (np.nan, False)])
    def test_truth_record_needs_field_dt_below_a_radian(self, B_true, ok):
        # the truth turns by -2 B_true dt per step; at B_true = 1e300 it turned
        # by 2e295 rad and the finite-set run ended on near-uniform weights
        if ok:
            record = est.simulate_qubit_record(1.0, B_true, 0.002, 1e-4, seed=16)
            assert np.all(np.isfinite(record.dY))
        else:
            with pytest.raises(ValueError, match=r"2 \|B_true\| \* dt = .* 2 \|B_true\| \* dt < 1"):
                est.simulate_qubit_record(1.0, B_true, 0.002, 1e-4, seed=16)

    @pytest.mark.parametrize("prior,ok", [
        (("finite", [4999.0, -4999.0]), True), (("finite", [1.0, 5000.0]), False),
        (("finite", [-1e300, 1.0]), False), (("finite", [np.nan, 1.0]), False),
        (("gaussian", 1e300, 1.0), False), (("gaussian", 0.0, 1e300), False)])
    def test_particles_need_field_dt_below_a_radian(self, prior, ok):
        # the drawn particles keep the truth record's rule 2 |B| dt < 1: a
        # prior mean of 1e300 ran to an infinite uncertainty, and a prior
        # variance of 1e300 to an estimate of -1.42e149
        record = est.simulate_qubit_record(1.0, 2.0, 0.002, 1e-4, seed=16)
        model = est.QubitMagnetometerModel(kappa=1.0, prior=prior)

        def run():
            return est.particle_filter_run(model, record, N=2, a=0.98, h=1e-3,
                                           threshold=0.5, seed=17)
        if ok:
            assert np.isfinite(run()["estimate"])
        else:
            with pytest.raises(ValueError, match=r"2 max \|B_i\| \* dt = .* is outside the"
                                                 r" range 2 \|B\| \* dt < 1"):
                run()

    def test_finite_prior_is_uniform_over_its_values(self):
        values, weights = est.sample_prior(("finite", [0.5, 1.5, 2.5]), 3, None)
        assert np.array_equal(values, [0.5, 1.5, 2.5])
        assert np.array_equal(weights, np.full(3, 1.0 / 3.0))
        # a weights entry is refused, not ignored
        with pytest.raises(ValueError, match=r"a prior is \('finite', values\)"):
            est.sample_prior(("finite", [0.5, 1.5], [0.9, 0.1]), 2, None)
        with pytest.raises(ValueError, match="one particle per support point"):
            est.sample_prior(("finite", [0.5, 1.5]), 3, None)


class TestObservability:
    def test_trivial_space(self):
        dim, basis = est.observable_space_dim(np.zeros((2, 2), dtype=complex),
                                              np.zeros((2, 2), dtype=complex))
        assert dim == 1

    def test_qubit_known_field(self):
        # continuous z measurement with a y-axis field spans {I, sz, sx}
        dim, basis = est.observable_space_dim(0.5 * op.SIGMA_Y, op.SIGMA_Z)
        assert dim == 3

    def test_plus_minus_pair_not_observable(self):
        kappa = 1.0
        H, L = est.extended_estimation_operators(
            op.SIGMA_Y, np.sqrt(kappa) * op.SIGMA_Z, [kappa, -kappa])
        dim, _ = est.observable_space_dim(H, L)
        assert dim == 3  # 3 of the 6 candidate operators are independent

    def test_distinct_positive_pair_observable(self):
        kappa = 1.0
        H, L = est.extended_estimation_operators(
            op.SIGMA_Y, np.sqrt(kappa) * op.SIGMA_Z, [2.0 * kappa, 5.0 * kappa])
        dim, _ = est.observable_space_dim(H, L)
        # N values x r operators of the known-field filter = 2 x 3
        assert dim == 6

    def test_monotone_in_set_size(self):
        kappa = 1.0
        dims = []
        for values in ([2.0], [2.0, 5.0], [2.0, 5.0, 8.0]):
            H, L = est.extended_estimation_operators(
                op.SIGMA_Y, np.sqrt(kappa) * op.SIGMA_Z, values)
            dims.append(est.observable_space_dim(H, L)[0])
        assert dims == sorted(dims)
        assert dims[1] == 2 * 3 and dims[2] == 3 * 3

    def test_zero_value_degeneracy(self):
        # a zero parameter value knocks one power out of the Vandermonde set
        kappa = 1.0
        H0, L = op.SIGMA_Y, np.sqrt(kappa) * op.SIGMA_Z
        Hz, Lz = est.extended_estimation_operators(H0, L, [0.0, 2.0])
        Hp, Lp = est.extended_estimation_operators(H0, L, [1.0, 2.0])
        dim_zero = est.observable_space_dim(Hz, Lz)[0]
        dim_pos = est.observable_space_dim(Hp, Lp)[0]
        assert dim_zero < dim_pos


def sequential_weights(kappa, B_values, dY, dt):
    """Reference finite-set weights: the 2x2 maps I + G_B dt + sqrt(kappa)
    sigma_z dY applied one step at a time, with the norm taken out each step."""
    B = np.asarray(B_values, dtype=float)
    G = -0.5 * kappa * np.eye(2) + B[:, None, None] * np.array([[0.0, -1.0], [1.0, 0.0]])
    psi = np.full((len(B), 2), np.sqrt(0.5))
    lognorm = np.zeros(len(B))
    for y in dY:
        psi = np.einsum("cij,cj->ci", np.eye(2) + G * dt + np.sqrt(kappa) * y * op.SIGMA_Z.real, psi)
        norm = np.linalg.norm(psi, axis=1)
        psi /= norm[:, None]
        lognorm += np.log(norm)
    w = np.exp(2.0 * (lognorm - lognorm.max()))
    return w / w.sum()


class TestBatchHarnesses:
    def test_finite_set_batch_matches_ensemble_step(self):
        # the estimator is the product of 2x2 maps; the tree-and-scan form
        # must agree with the maps applied one step at a time
        kappa, B_true = 1.0, 2.0
        B_values = [2.0, 5.0]
        T, dt = 0.02, 1e-4
        out = est.qubit_finite_set_batch(kappa, B_values, B_true, T, dt,
                                         seed=21)
        # replay: the same truth noise stream drives the public API path
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(21, 0)).spawn(1)[0])
        steps = int(round(T / dt))
        noise = rng.standard_normal(steps) * np.sqrt(dt)
        theta_true = 0.0
        record = []
        for i in range(steps):
            dM = 2.0 * np.sqrt(kappa) * np.sin(theta_true) * dt + noise[i]
            theta_true = traj.bloch_angle_step(theta_true, dM, B_true, kappa, dt)
            record.append(dM)
        ref = sequential_weights(kappa, B_values, record, dt)
        assert np.max(np.abs(out["final_weights"] - ref)) < 1e-12


class TestFiniteSetFilter:
    B_values = [2.0, 5.0, 8.0, 12.0]

    def test_weights_track_joint_filter(self):
        # the record and bound of TestEnsembleStep::test_weights_track_joint_filter
        record, blocks = joint_filter_weights(1.0, self.B_values, 2e-5)
        snaps = est.finite_set_filter(1.0, self.B_values, record, store_every=1)["weights"]
        assert np.max(np.abs(snaps - blocks)) < 2e-3

    @pytest.mark.parametrize("cap", [None, 64])
    def test_chunking_does_not_change_weights(self, cap, monkeypatch):
        # 2,503 steps: no chunk length divides them; with 64 candidate-steps
        # per call (16 steps), chunks of 100 steps and the whole run span calls
        if cap:
            monkeypatch.setattr(est, "_SCAN_MAPS", cap)
        record = est.simulate_qubit_record(1.0, 2.0, 0.02503, 1e-5, seed=(21, 0))
        assert len(record.dY) == 2503
        ref = sequential_weights(1.0, self.B_values, record.dY, 1e-5)
        every_step = est.finite_set_filter(1.0, self.B_values, record, 1)["weights"]
        for every in (1, 7, 100, 0):
            out = est.finite_set_filter(1.0, self.B_values, record, every)
            assert np.max(np.abs(out["final_weights"] - ref)) < 1e-12, every
            if every:
                assert np.array_equal(out["times"], record.times[every::every])
                assert out["weights"].shape == (len(out["times"]), 4)
                assert np.max(np.abs(out["weights"] - every_step[every - 1::every])) < 1e-12
            else:
                assert "weights" not in out

    @pytest.mark.parametrize("every", [0, 1000])
    def test_memory_stays_below_the_full_map_stack(self, every):
        steps, dt = 100_000, 1e-5
        dY = rng_stream(4).standard_normal(steps) * np.sqrt(dt)
        record = traj.TrajectoryRecord(times=np.arange(steps + 1) * dt, dY=dY, dW=dY)
        tracemalloc.start()
        try:
            est.finite_set_filter(1.0, self.B_values, record, every)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (steps, 4, 2, 2) float64 stack of every map
        assert peak < steps * 4 * 4 * 8

    def test_memory_bounded_at_every_step(self, monkeypatch):
        # store_every = 1 makes every step a chunk; the cap on chunks per call
        # keeps the prefix scan's arrays small without changing the weights
        steps, dt = 100_000, 1e-5
        dY = rng_stream(4).standard_normal(steps) * np.sqrt(dt)
        record = traj.TrajectoryRecord(times=np.arange(steps + 1) * dt, dY=dY, dW=dY)

        def run(every):
            tracemalloc.start()
            try:
                out = est.finite_set_filter(1.0, self.B_values, record, every)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        out, peak = run(1)
        assert peak < 2 * run(1000)[1]
        monkeypatch.setattr(est, "_SCAN_CHUNKS", steps)
        uncapped = est.finite_set_filter(1.0, self.B_values, record, 1)
        for key in ("final_weights", "weights"):
            assert np.max(np.abs(out[key] - uncapped[key])) < 1e-12, key

    @pytest.mark.parametrize("every,step", [(0, 0), (1, 150), (7, 147)])
    def test_nonfinite_increment_names_its_chunk(self, every, step):
        record = est.simulate_qubit_record(1.0, 2.0, 0.02, 1e-4, seed=(21, 0))
        record.dY[150] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as info:
            est.finite_set_filter(1.0, self.B_values, record, every)
        # steps count from 1; t is the time the chunk's first step reaches
        assert f"from step {step + 1} (t = {record.times[step + 1]:g})" in str(info.value)
