import numpy as np
import pytest

from qfilt import sde


def make_system(drift, diffusion, n=1, m=1):
    return sde.SdeSystem(state_dim=n, noise_dim=m, drift=drift, diffusion=diffusion)


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
