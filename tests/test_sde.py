import numpy as np
import pytest

from qfilt import sde


def make_system(drift, diffusion, n=1, m=1):
    return sde.SdeSystem(state_dim=n, noise_dim=m, drift=drift, diffusion=diffusion)


def euler_states(system, x0, dt, dW):
    """States after each euler_step from x0 at t = 0 on the increments dW
    (steps, noise_dim), as (steps, n)."""
    xs, x = [], x0
    for i, dw in enumerate(dW):
        x = sde.euler_step(system, x, i * dt, dt, dw)
        xs.append(x)
    return np.array(xs)


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
                dW = sde.rng_stream((999, s)).standard_normal((steps, 1)) * np.sqrt(dt)
                x = euler_states(sys, np.array([1.0]), dt, dW)[-1]
                errs.append(abs(x[0] - np.exp(dW.sum() - 0.5)))
            return np.mean(errs)

        e_coarse = strong_error(1e-2)
        e_fine = strong_error(1e-2 / 4)
        ratio = e_fine / e_coarse
        # order 0.5: expected ratio 1/2; allow statistical slack
        assert 0.3 < ratio < 0.75

    def test_determinism_bitwise(self):
        sys = make_system(lambda t, x: -x, lambda t, x, j: 0.5 * x)
        dW = sde.rng_stream(5).standard_normal((200, 1)) * np.sqrt(1e-3)
        a = euler_states(sys, np.array([1.0]), 1e-3, dW)
        b = euler_states(sys, np.array([1.0]), 1e-3, dW)
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
