import numpy as np
import pytest

from qfilt import kalman
from qfilt import magnetometry as mag
from qfilt.sde import SdeSystem, euler_step, rng_stream
from reference import paper_covariance


class TestRiccatiSolve:
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_matches_paper_closed_form(self, t):
        # the covariance pass of the demo solves the Riccati flow of
        # PARAMETER_MODEL from P0 = diag(0, v)
        v = 1e5
        P = kalman.brownian_parameter_demo(0.0, t, 1e-3, seed=0, prior_var=v)["P"][-1]
        expect = paper_covariance(t, v)
        assert np.max(np.abs(P - expect) / np.abs(expect)) < 1e-6


class TestKalmanStep:
    def test_correlated_pass_rejects_constant_singular_D(self):
        model = kalman.LinearModel(A=np.zeros((2, 2)), B=np.ones((2, 1)),
                                   C=np.ones((1, 2)), D=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="singular observation matrix D"):
            kalman.covariance_pass(model, np.eye(2), 3, 1e-3)

    def test_correlated_step_is_the_estimate_update(self):
        # the estimate pass over three increments, each with its own A and
        # gain, against x' = x + A x dt + G (dy - C x dt) step by step
        rng = np.random.default_rng(12)
        As, G = rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 2))
        dY, c, dt = [0.01, -0.02, 0.005], np.array([2.0, 0.5]), 1e-3
        rows = kalman.kalman_correlated_step((0.3, -1.0), dY, As.reshape(3, 4).tolist(),
                                             G.tolist(), c.tolist(), dt)
        x = np.array([0.3, -1.0])
        assert rows[0] == (0.3, -1.0) and len(rows) == 4
        for k in range(3):
            x = x + As[k] @ x * dt + G[k] * (dY[k] - c @ x * dt)
            assert np.allclose(rows[k + 1], x, rtol=0, atol=1e-15)

    def test_constant_entries_compiled_once(self):
        model = kalman.LinearModel(A=np.zeros((2, 2)), B=np.ones((2, 1)),
                                   C=np.ones((1, 2)), D=2.0 * np.eye(1))
        A, B, C, D, Rinv = model.at(0.0)
        again = model.at(1.0)
        assert all(x is y for x, y in zip((A, B, C, D, Rinv), again))
        assert np.array_equal(Rinv, [[0.25]]) and not Rinv.flags.writeable


class TestBrownianParameterDemo:
    def test_model_matrices(self):
        # one noise W = (dW, dV): its first component forces x, its second
        # is the observation noise
        A, B, C, D = kalman.PARAMETER_MODEL.at(0.0)[:4]
        assert np.array_equal(A, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(B, [[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(C, [[1.0, 0.0]])
        assert np.array_equal(D, [[0.0, 1.0]])

    def test_zero_noise_zero_parameter(self):
        # the record of xi = 0 with no noise is dY = 0
        X, _ = kalman.kalman_filter(kalman.PARAMETER_MODEL, np.diag([0.0, 1e5]),
                                    np.zeros(1000), 1e-3)
        assert np.max(np.abs(X[:, 1])) == 0.0
        assert np.max(np.abs(X[:, 0])) == 0.0

    def test_covariance_record_independent(self):
        a = kalman.brownian_parameter_demo(1.0, 1.0, 1e-3, seed=1)
        b = kalman.brownian_parameter_demo(1.0, 1.0, 1e-3, seed=2)
        assert np.array_equal(a["P"], b["P"])
        assert not np.array_equal(a["dY"], b["dY"])

    def test_dt_at_the_rk4_stability_edge(self):
        # RK4's factor on the decaying mode of K (eigenvalue -1), |R(-dt)|,
        # reaches 1 at dt = 2.785
        rec = kalman.brownian_parameter_demo(1.0, 27.8, 2.78, seed=0)
        assert np.all(np.isfinite(rec["P"]))
        with pytest.raises(ValueError, match=r"dt = 2\.8 is outside the RK4 stability range"):
            kalman.brownian_parameter_demo(1.0, 28.0, 2.8, seed=0)

    def test_innovation_whiteness(self):
        # lag-1 autocorrelation of the innovations within 5 sigma of zero
        rec = kalman.brownian_parameter_demo(1.0, 100.0, 1e-3, seed=11)
        innov = rec["dY"][1:] - rec["x_est"][:-1] * 1e-3
        innov = innov - innov.mean()
        corr = np.dot(innov[1:], innov[:-1]) / np.dot(innov, innov)
        assert abs(corr) < 5.0 / np.sqrt(len(innov))


def _doubled_rk4(A, Q, S):
    """The former per-step RK4 of the doubled system K = [[A, Q], [S, -A^T]],
    as a closure over its stage evaluations."""
    block = np.block([[A, Q], [S, -A.T]])

    def step(Z, h):
        k1 = block @ Z
        k2 = block @ (Z + 0.5 * h * k1)
        k3 = block @ (Z + 0.5 * h * k2)
        k4 = block @ (Z + h * k3)
        return Z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    return step


def _parameter_doubled_rk4():
    """A, C and the doubled-system RK4 of PARAMETER_MODEL, whose state and
    observation noises are independent (B D^T = 0): K = [[A, B B^T],
    [C^T (D D^T)^{-1} C, -A^T]]."""
    A, B, C, D = kalman.PARAMETER_MODEL.at(0.0)[:4]
    Q, S = B @ B.T, C.T @ np.linalg.inv(D @ D.T) @ C
    return A, C, Q, S, _doubled_rk4(A, Q, S)


def reference_demo(xi_true, T, dt, seed, prior_var=1e5):
    """The former demo: one RK4 step of the doubled system, renormalized to
    [P; I], and a vector estimate update inside the record loop, with the
    noise drawn one pair at a time."""
    truth_sys = SdeSystem(state_dim=1, noise_dim=1, drift=lambda t, x: np.array([xi_true]),
                          diffusion=lambda t, x, j: np.array([1.0]))
    A, C, _, _, rk4 = _parameter_doubled_rk4()
    rng = rng_stream(seed)
    steps = int(round(T / dt))
    rec = {key: np.zeros(steps + 1) for key in ("dY", "x_true", "x_est", "xi_est")}
    rec["P"] = np.zeros((steps + 1, 2, 2))
    Z = np.vstack([np.diag([0.0, prior_var]), np.eye(2)])
    rec["P"][0] = Z[:2]
    pi, x, sqdt = np.zeros(2), np.zeros(1), np.sqrt(dt)
    for i in range(steps):
        P = rec["P"][i]
        dW = rng.standard_normal() * sqdt
        dV = rng.standard_normal() * sqdt
        dy = x[0] * dt + dV
        x = euler_step(truth_sys, x, i * dt, dt, np.array([dW]))
        innovation = dy - (C @ pi)[0] * dt
        pi = pi + A @ pi * dt + P @ C.T[:, 0] * innovation
        Z = rk4(Z, dt)
        P_next = Z[:2] @ np.linalg.inv(Z[2:])
        Z = np.vstack([P_next, np.eye(2)])
        rec["dY"][i + 1], rec["x_true"][i + 1] = dy, x[0]
        rec["x_est"][i + 1], rec["xi_est"][i + 1] = pi
        rec["P"][i + 1] = 0.5 * (P_next + P_next.T)
    return rec


class TestCovariancePass:
    def test_matches_per_step_rk4_loop(self):
        new = kalman.brownian_parameter_demo(1.0, 10.0, 1e-3, seed=9)
        ref = reference_demo(1.0, 10.0, 1e-3, seed=9)
        assert np.all(np.abs(new["P"] - ref["P"]) <= 1e-12 * np.abs(ref["P"]))
        assert new["dY"].tobytes() == ref["dY"].tobytes()
        assert new["x_true"].tobytes() == ref["x_true"].tobytes()
        for key in ("x_est", "xi_est"):
            assert np.max(np.abs(new[key] - ref[key])) < 1e-10, key

    def test_propagator_is_one_rk4_step(self):
        A, _, Q, S, rk4 = _parameter_doubled_rk4()
        Z = np.vstack([np.array([[0.3, 0.1], [0.1, 2.0]]), np.eye(2)])
        for h in (1e-3, 0.1):
            M = kalman._doubled_propagator(A, Q, S, h)
            assert np.max(np.abs(M @ Z - rk4(Z, h))) < 1e-14


def _batch_estimates(xi_true, T, dt, n_seeds, prior_var=1e5):
    """Vectorized replica of the demo's estimate recursion across seeds,
    sharing the record-independent covariance trace."""
    steps = int(round(T / dt))
    _, _, P_trace = kalman.covariance_pass(kalman.PARAMETER_MODEL, np.diag([0.0, prior_var]),
                                           steps, dt)
    A, _, C = kalman.PARAMETER_MODEL.at(0.0)[:3]
    rngs = rng_stream(77)
    dWs = rngs.standard_normal((n_seeds, steps)) * np.sqrt(dt)
    dVs = rngs.standard_normal((n_seeds, steps)) * np.sqrt(dt)
    x = np.zeros(n_seeds)
    pi = np.zeros((n_seeds, 2))
    for i in range(steps):
        dy = x * dt + dVs[:, i]
        x = x + xi_true * dt + dWs[:, i]
        innov = dy - pi[:, 0] * dt
        gain = P_trace[i] @ C.T[:, 0]
        pi = pi + pi @ A.T * dt + np.outer(innov, gain)
    return pi[:, 1], P_trace[-1][1, 1]


class TestPosteriorConsistency:
    def test_batch_matches_demo_single_seed(self):
        # the vectorized harness reproduces the module path step for step
        rec = kalman.brownian_parameter_demo(1.0, 0.5, 1e-3, seed=123)
        A, _, C = kalman.PARAMETER_MODEL.at(0.0)[:3]
        steps = int(round(0.5 / 1e-3))
        pi = np.zeros(2)
        for i in range(steps):
            dy = rec["dY"][i + 1]
            innov = dy - pi[0] * 1e-3
            pi = pi + A @ pi * 1e-3 + rec["P"][i] @ C.T[:, 0] * innov
        assert np.max(np.abs(pi - [rec["x_est"][-1], rec["xi_est"][-1]])) < 1e-10

    def test_three_sigma_coverage(self):
        # Gaussian posterior consistency: |estimate - truth| < 3 sd in at
        # least 99% of 200 independent records
        est, var = _batch_estimates(1.0, 10.0, 1e-3, 200)
        hits = np.abs(est - 1.0) < 3.0 * np.sqrt(var)
        assert hits.mean() >= 0.99


def _riccati_rk4(model, V0, T, h):
    """Staged classical RK4 of the joint-noise flow
    Vdot = A V + V A^T + B B^T - G R G^T, G = (V C^T + B D^T) R^{-1}, with A
    and B evaluated at each stage's time; V_0 .. V_steps."""
    def rhs(t, V):
        A, B, C, D, Rinv = model.at(t)
        G = V @ C.T + B @ D.T
        return A @ V + V @ A.T + B @ B.T - G @ Rinv @ G.T

    V, out = V0, [V0]
    for k in range(int(round(T / h))):
        t = k * h
        k1 = rhs(t, V)
        k2 = rhs(t + h / 2, V + h / 2 * k1)
        k3 = rhs(t + h / 2, V + h / 2 * k2)
        k4 = rhs(t + h, V + h * k3)
        V = V + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(V)
    return np.array(out)


class TestCorrelatedNoiseKalman:
    def test_small_angle_pass_matches_fine_rk4_reference(self):
        # magnetometer-kalman's default model; the reference steps at dt / 10
        p = mag.DoublePassParams(F=10.0, M=1.0, K=0.0)
        model = mag.smallangle_kalman_model(p)
        V0 = np.diag([0.0, 10.0])
        A, G, V = kalman.covariance_pass(model, V0, 1000, 1e-4)
        ref = _riccati_rk4(model, V0, 0.1, 1e-5)[::10]
        assert np.all(np.abs(V[1:, 1, 1] - ref[1:, 1, 1]) <= 1e-5 * ref[1:, 1, 1])
        assert np.max(np.abs(V - ref)) <= 1e-5 * np.max(np.abs(ref))
        # A and the gain B + V C^T are those at each step's start
        t = np.arange(1000) * 1e-4
        At, Bt, C = model.at(t)[:3]
        assert np.array_equal(A, At)
        assert np.allclose(G, Bt + V[:-1] @ C.T, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("prior_var", [1e8, 1e300])
    def test_large_prior_keeps_the_variance_positive(self, prior_var):
        # the former Euler step drove V negative at prior_var = 1e8
        model = mag.smallangle_kalman_model(mag.DoublePassParams(F=10.0, M=1.0, K=0.0))
        _, G, V = kalman.covariance_pass(model, np.diag([0.0, prior_var]), 100, 1e-4)
        assert np.all(np.isfinite(G)) and np.all(np.isfinite(V))
        assert np.all(V[1:, 1, 1] > 0) and np.all(np.linalg.eigvalsh(V[1:]) > -1e-9 * V[1:, 1, 1, None])

    def test_dt_outside_the_rk4_range_is_named(self):
        # A' = A - B C decays at rate 1e5, so h lambda = -10
        model = kalman.LinearModel(A=np.diag([-1e5 + 2.0, 0.0]), B=np.array([[1.0], [0.0]]),
                                   C=np.array([[2.0, 0.0]]), D=np.eye(1))
        with pytest.raises(ValueError, match=r"dt = 0\.0001 is outside the RK4 stability range"):
            kalman.covariance_pass(model, np.diag([0.0, 10.0]), 10, 1e-4)

    def test_joint_noise_pass_matches_fine_rk4_reference(self):
        # a constant model whose noise drives both rows (B D^T != 0), with R != 1
        model = kalman.LinearModel(A=np.array([[-0.5, 1.0], [0.0, -0.2]]),
                                   B=np.array([[1.0, 0.3], [0.2, 0.5]]),
                                   C=np.array([[1.0, 0.4]]), D=np.array([[0.5, 2.0]]))
        V0 = np.diag([0.1, 2.0])
        A, G, V = kalman.covariance_pass(model, V0, 1000, 1e-3)
        ref = _riccati_rk4(model, V0, 1.0, 1e-4)[::10]
        assert np.max(np.abs(V - ref)) <= 1e-9 * np.max(np.abs(ref))
        # one propagator and one A for every step, and the gain at each start
        _, B, C, D, Rinv = model.at(0.0)
        assert A is model.at(0.0)[0]
        assert np.allclose(G, (V[:-1] @ C.T + B @ D.T) @ Rinv, rtol=1e-14, atol=0)

    def test_filter_matches_the_former_numpy_recursion(self):
        # the float estimate loop against the former vector recursion
        # x + A x dt + G D^{-1} (dz - C x dt), A and G read off the pass
        p = mag.DoublePassParams(F=10.0, M=1.0, K=0.1, B=0.5)
        model = mag.smallangle_kalman_model(p)
        dY = mag.simulate_double_pass_truth(p, 0.1, 1e-4, seed=5).dY
        V0 = np.diag([0.0, 10.0])
        X, _ = kalman.kalman_filter(model, V0, dY, 1e-4)
        A, G, _ = kalman.covariance_pass(model, V0, len(dY), 1e-4)
        _, _, C, D, _ = model.at(0.0)
        x, ref = np.zeros(2), [np.zeros(2)]
        for i, dz in enumerate(dY):
            x = x + A[i] @ x * 1e-4 + G[i] @ (np.linalg.inv(D) @ (dz - C @ x * 1e-4))
            ref.append(x)
        ref = np.array(ref)
        assert len(dY) == 1000 and X.shape == ref.shape
        assert np.all(np.abs(X - ref) <= 1e-12 * np.abs(ref).max(axis=0))
