import numpy as np
import pytest

from qfilt import sde


def make_system(drift, diffusion, n=1, m=1, interpretation=sde.ITO):
    return sde.SdeSystem(state_dim=n, noise_dim=m, drift=drift,
                         diffusion=diffusion, interpretation=interpretation)


class TestWienerIncrements:
    def test_deterministic(self):
        a = sde.wiener_increments(2, 100, 1e-3, seed=42)
        b = sde.wiener_increments(2, 100, 1e-3, seed=42)
        assert np.array_equal(a.increments, b.increments)

    def test_streams_differ(self):
        a = sde.wiener_increments(1, 100, 1e-3, seed=42, k=0)
        b = sde.wiener_increments(1, 100, 1e-3, seed=42, k=1)
        assert not np.allclose(a.increments, b.increments)

    def test_path_records_its_stream_seed(self):
        a = sde.wiener_increments(1, 50, 1e-3, seed=42, k=3)
        draws = sde.rng_stream(a.seed).standard_normal(50) * np.sqrt(1e-3)
        assert np.array_equal(a.increments[0], draws)

    def test_variance(self):
        # chi-square bound: sample variance of n iid N(0, dt) draws is within
        # 1% of dt for n = 1e6 (sd of the ratio is sqrt(2/n) ~ 0.14%)
        path = sde.wiener_increments(1, 1_000_000, 1e-3, seed=7)
        v = path.increments.var()
        assert abs(v / 1e-3 - 1.0) < 0.01
        assert abs(path.increments.mean()) < 5 * np.sqrt(1e-3 / 1e6)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            sde.wiener_increments(1, 10, 0.0, seed=0)
        with pytest.raises(ValueError):
            sde.wiener_increments(1, 0, 1e-3, seed=0)


class TestRngStream:
    def test_root_stream_is_default_rng(self):
        assert np.array_equal(sde.rng_stream(7).standard_normal(8),
                              np.random.default_rng(7).standard_normal(8))

    def test_tag_zero_is_not_the_root(self):
        # an entropy tuple (7, 0) would replay default_rng(7)
        assert not np.allclose(sde.rng_stream(7, 0).standard_normal(8),
                               sde.rng_stream(7).standard_normal(8))

    def test_distinct_tags_give_distinct_streams(self):
        tags = [(), (0,), (1,), (2,), (0, 0), (0, 1), (1, 0), (1, 1)]
        draws = [sde.rng_stream(7, *t).standard_normal(8) for t in tags]
        for i in range(len(draws)):
            for j in range(i):
                assert not np.allclose(draws[i], draws[j]), (tags[i], tags[j])
        other = sde.rng_stream(8, 0).standard_normal(8)
        assert not np.allclose(other, draws[1])

    def test_tags_are_spawned_children(self):
        children = np.random.SeedSequence(7).spawn(2)
        grandchild = children[1].spawn(1)[0]
        assert np.array_equal(sde.rng_stream(7, 1).standard_normal(8),
                              np.random.default_rng(children[1]).standard_normal(8))
        assert np.array_equal(sde.rng_stream(7, 1, 0).standard_normal(8),
                              np.random.default_rng(grandchild).standard_normal(8))
        # a stream seed handed to a function extends its tags there
        assert np.array_equal(sde.rng_stream(sde.stream_seed(7, 1), 0).standard_normal(8),
                              sde.rng_stream(7, 1, 0).standard_normal(8))


class TestEulerStep:
    def test_zero_system(self):
        sys = make_system(lambda t, x: np.zeros(1), lambda t, x, j: np.zeros(1))
        x = np.array([1.3])
        out = sde.euler_step(sys, x, 0.0, 0.1, np.array([0.5]))
        assert np.array_equal(out, x)

    def test_constant_drift(self):
        sys = make_system(lambda t, x: np.ones(1), lambda t, x, j: np.zeros(1))
        out = sde.euler_step(sys, np.array([2.0]), 0.0, 0.1, np.array([0.3]))
        assert np.allclose(out, [2.1])

    def test_rejects_stratonovich(self):
        sys = make_system(lambda t, x: np.zeros(1), lambda t, x, j: np.zeros(1),
                          interpretation=sde.STRATONOVICH)
        with pytest.raises(ValueError):
            sde.euler_step(sys, np.zeros(1), 0.0, 0.1, np.zeros(1))

    def test_gbm_strong_order_half(self):
        # dX = X dW has the exact solution X0 exp(W_T - T/2); the strong
        # error at T = 1 scales like dt^0.5 over seeds
        sys = make_system(lambda t, x: np.zeros(1), lambda t, x, j: x)

        def strong_error(dt, n_seeds=40):
            errs = []
            steps = int(round(1.0 / dt))
            for s in range(n_seeds):
                path = sde.wiener_increments(1, steps, dt, seed=(999, s))
                xs = sde.euler_path(sys, np.array([1.0]), 0.0, path)
                w_t = path.increments.sum()
                errs.append(abs(xs[-1, 0] - np.exp(w_t - 0.5)))
            return np.mean(errs)

        e_coarse = strong_error(1e-2)
        e_fine = strong_error(1e-2 / 4)
        ratio = e_fine / e_coarse
        # order 0.5: expected ratio 1/2; allow statistical slack
        assert 0.3 < ratio < 0.75

    def test_determinism_bitwise(self):
        sys = make_system(lambda t, x: -x, lambda t, x, j: 0.5 * x)
        path = sde.wiener_increments(1, 200, 1e-3, seed=5)
        a = sde.euler_path(sys, np.array([1.0]), 0.0, path)
        b = sde.euler_path(sys, np.array([1.0]), 0.0, path)
        assert np.array_equal(a, b)

    def test_affine_superposition(self):
        # for a linear system the one-step map is affine in x
        A = np.array([[0.3, -0.2], [0.1, 0.4]])
        Bv = np.array([[0.5], [0.7]])
        sys = make_system(lambda t, x: A @ x, lambda t, x, j: Bv[:, 0] * x[0],
                          n=2)
        dW = np.array([0.013])
        x1, x2 = np.array([1.0, -1.0]), np.array([0.2, 0.5])
        lam = 0.37
        step = lambda x: sde.euler_step(sys, x, 0.0, 0.01, dW)
        combined = step(lam * x1 + (1 - lam) * x2)
        split = lam * step(x1) + (1 - lam) * step(x2)
        assert np.max(np.abs(combined - split)) < 1e-12

    def test_nan_detected(self):
        sys = make_system(lambda t, x: np.array([np.nan]), lambda t, x, j: np.zeros(1))
        with pytest.raises(FloatingPointError):
            sde.euler_step(sys, np.zeros(1), 0.0, 0.1, np.zeros(1))


class TestPredictorCorrector:
    def test_zero_system(self):
        sys = make_system(lambda t, x: np.zeros(1), lambda t, x, j: np.zeros(1))
        out = sde.predictor_corrector_step(sys, np.array([0.7]), 0.1, 0.2)
        assert np.allclose(out, [0.7])

    def test_reduces_to_trapezoidal_chain(self):
        # with b = 0 the step is the trapezoidal corrector evaluated at the
        # Heun predictor
        a = lambda y: -y
        sys = make_system(lambda t, x: a(x), lambda t, x, j: np.zeros(1))
        x = np.array([1.7])
        dt = 0.05
        heun = x + 0.5 * (a(x + a(x) * dt) + a(x)) * dt
        expect = x + 0.5 * (a(heun) + a(x)) * dt
        out = sde.predictor_corrector_step(sys, x, dt, 0.0)
        assert np.max(np.abs(out - expect)) < 1e-14

    def test_weak_order_two_on_ou(self):
        # dX = -X dt + dW: the scheme is affine in (x, dW) and the noise has
        # constant coefficient, so E[X_T] equals the zero-noise iteration;
        # compare against the exact mean exp(-T) x0 under dt halving
        sys = make_system(lambda t, x: -x, lambda t, x, j: np.ones(1))

        def mean_error(dt):
            x = np.array([1.0])
            for _ in range(int(round(1.0 / dt))):
                x = sde.predictor_corrector_step(sys, x, dt, 0.0)
            return abs(x[0] - np.exp(-1.0))

        e1, e2 = mean_error(0.02), mean_error(0.01)
        assert 3.0 < e1 / e2 < 5.0  # weak order 2: ratio ~ 4

    def test_multichannel_unsupported(self):
        sys = make_system(lambda t, x: np.zeros(1), lambda t, x, j: np.zeros(1), m=2)
        with pytest.raises(ValueError):
            sde.predictor_corrector_step(sys, np.zeros(1), 0.1, 0.0)


class TestConversion:
    def test_constant_diffusion_unchanged(self):
        sys = make_system(lambda t, x: 2.0 * x, lambda t, x, j: np.array([3.0]))
        strat = sde.ito_to_stratonovich(sys)
        x = np.array([0.8])
        assert np.max(np.abs(strat.drift(0.0, x) - sys.drift(0.0, x))) < 1e-9

    def test_linear_diffusion_correction(self):
        # b(x) = x, a = 0 in Ito: the Stratonovich drift is -x/2
        sys = make_system(lambda t, x: np.zeros(1), lambda t, x, j: x)
        strat = sde.ito_to_stratonovich(sys)
        for x0 in (0.5, -1.2, 3.0):
            got = strat.drift(0.0, np.array([x0]))
            assert abs(got[0] + 0.5 * x0) < 1e-6

    def test_round_trip(self):
        sys = make_system(lambda t, x: np.sin(x), lambda t, x, j: np.cos(x) + 2.0,
                          n=1)
        back = sde.stratonovich_to_ito(sde.ito_to_stratonovich(sys))
        x = np.array([0.37])
        h = 1e-6 * (1 + abs(x[0]))
        assert np.max(np.abs(back.drift(0.0, x) - sys.drift(0.0, x))) < 10 * h * h

    def test_conversion_expectation_consistency(self):
        # integrating the Ito form directly and the re-converted form give
        # the same mean to 1e-6 + O(dt)
        sys = make_system(lambda t, x: -0.5 * x, lambda t, x, j: 0.3 * np.cos(x))
        back = sde.stratonovich_to_ito(sde.ito_to_stratonovich(sys))
        dt, steps = 1e-3, 500
        tot_a = tot_b = 0.0
        for s in range(30):
            path = sde.wiener_increments(1, steps, dt, seed=(31, s))
            xa = sde.euler_path(sys, np.array([1.0]), 0.0, path)[-1, 0]
            xb = sde.euler_path(back, np.array([1.0]), 0.0, path)[-1, 0]
            tot_a += xa
            tot_b += xb
        assert abs(tot_a - tot_b) / 30 < 1e-6 + 10 * dt
