"""Claims of the thesis (PAPER.md), each checked on the code `qfilt run`
executes, at configurations small enough for the whole file to run in well
under a minute.

Every test quotes the statement it pins.  Stochastic margins were set from
runs over more seeds than the tests use; the seeds and the values observed
are recorded in CHANGES.md.

Claims stated elsewhere in the suite, left where they are:

- the particles and the finite-set estimator follow the exact joint
  parameter-and-state filter: ``test_estimation.py::TestEnsembleStep::
  test_weights_track_joint_filter`` and ``TestFiniteSetFilter::
  test_weights_track_joint_filter``;
- the five-qubit truncated basis has 136 elements where the untruncated
  closure has 1024 = 4^5: ``test_qec.py::TestTruncatedBasis::
  test_element_count_fivequbit`` and ``test_untruncated_closure_count``;
- the collective model equals the full 2^N-dimensional master equation:
  ``test_collective.py::TestMasterStep::test_evolution_matches_full_space``
  and ``TestSymmetricLindblad::test_matches_full_space_oracle``.

No other test runs the collective model at N = 100; that claim is here.
"""

import os

import numpy as np
import pytest

from qfilt import cli
from qfilt import estimation as est
from qfilt import operators as op
from reference import paper_covariance


def run(tmp_path, experiment, seed=0, **sets):
    """``qfilt run`` one experiment; returns the path of its CSV."""
    out = os.path.join(tmp_path, f"{experiment}-{seed}-{len(os.listdir(tmp_path))}")
    args = ["run", experiment, "--seed", str(seed), "--out", out]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    assert cli.main(args) == 0
    (name,) = [f for f in os.listdir(out) if f.endswith(".csv")]
    return os.path.join(out, name)


def read(path):
    return np.genfromtxt(path, delimiter=",", names=True, comments="#")


def infinite_prior_covariance(t):
    c = 1.0 / np.tanh(t)
    return np.array([
        [t / (t * c - 1.0), 1.0 / (t * c - 1.0)],
        [1.0 / (t * c - 1.0), 1.0 / (t - np.tanh(t))],
    ])


def test_finite_set_estimator_converges_when_observable(tmp_path, capsys):
    """"For cases when the probe takes on a finite number of values, I review
    a set of sufficient conditions for asymptotic convergence of the
    estimator."

    The default candidates 2, 5, 8, 12 are observable: their extended filter
    spans 4 x 3 operators.  Over five records every run's weight on the true
    value passes 0.95, so ``qfilt rate`` reads 1 at the end (10 of 10 seeds
    probed did so from t = 5.5 on)."""
    H, L = est.extended_estimation_operators(op.SIGMA_Y, op.SIGMA_Z, [2.0, 5.0, 8.0, 12.0])
    assert est.observable_space_dim(H, L)[0] == 4 * 3
    paths = [run(tmp_path, "param-ensemble", seed, T=10, dt=1e-4, store_every=5000)
             for seed in range(5)]
    for path in paths:
        assert read(path)["w_B2"][-1] > 0.95
    capsys.readouterr()
    assert cli.main(["rate", *paths]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    rate = np.array([float(r) for _, r in rows])
    assert len(rate) == 20 and rate[0] < 1.0 and rate[-1] == 1.0


def test_particle_filter_narrows_and_covers_the_field(tmp_path):
    """"For a continuous-valued parameter, I present a computational method
    called quantum particle filtering for practical estimation of the
    parameter."

    The prior N(3, 4) sits on the true field's side of zero, since B and -B
    are not observable apart (``TestObservability``).  Over seeds 0-9 the
    final posterior sd was 0.14-0.67 of the initial one (0.41 on average)
    and the truth lay within 2.7 sd of the mean."""
    ratios = []
    for seed in range(5):
        rec = read(run(tmp_path, "particle-filter", seed, T=5, dt=1e-3, N=100,
                       prior_mean=3, prior_var=4, store_every=10))
        ratios.append(rec["B_sd"][-1] / rec["B_sd"][0])
        assert abs(rec["B_mean"][-1] - 5.0) < 4.0 * rec["B_sd"][-1]
    assert max(ratios) < 1.0 and np.mean(ratios) < 0.5


@pytest.mark.parametrize("seed", [0, 15])
def test_particle_filter_covers_the_field_at_t_10(tmp_path, seed):
    """The same estimator over twice the horizon, where a Liu-West kernel
    that shrinks the cloud at every resample (a = 0.98, h = 1e-3) had left
    seeds 0 and 15 ending 4.4 and 30 sd from the truth.  The kernel keeps
    the cloud's variance (h^2 = 1 - a^2, default a = 0.97): over seeds 0-19
    the truth lay within 3.0 sd of the final mean (0.9 and 0.1 sd at seeds
    0 and 15), and the final sd was 0.09-0.76 of the initial one."""
    rec = read(run(tmp_path, "particle-filter", seed, T=10, dt=1e-3, N=100,
                   prior_mean=3, prior_var=4, store_every=10))
    assert rec["B_sd"][-1] < rec["B_sd"][0]
    assert abs(rec["B_mean"][-1] - 5.0) < 4.0 * rec["B_sd"][-1]


def test_double_pass_beats_single_pass(tmp_path):
    """"The technique involves double-passing a probe laser field through the
    atomic system, giving rise to effective non-linearities which enhance the
    effect of Larmor precession allowing for improved magnetic field
    estimation."

    At F = 10, T = 0.5, five noise realizations per point: over seeds 0-5
    the Fisher information was 10.3-11.1 at K = 0 and 22.8-27.6 at
    K = 0.01, at least 2.1 times as much."""
    for seed in range(3):
        rec = read(run(tmp_path, "magnetometer-fisher", seed, F_values=10, K_values="0,0.01",
                       T=0.5, dt=1e-3, n_seeds=5))
        single, double = rec["info_mean"]
        assert double > 1.5 * single


def test_small_angle_field_variance_independent_of_K(tmp_path):
    """"... giving rise to effective non-linearities which enhance the effect
    of Larmor precession ..."

    The linearized (small-angle Kalman) filter gains nothing from the second
    pass: its field variance is the same at K = 0 and K = 0.1 (1.4e-16
    relative), while its estimate moves.  So the gain of the double pass
    measured above is a non-linear effect."""
    single = read(run(tmp_path, "magnetometer-kalman", 0, K=0, T=0.2))
    double = read(run(tmp_path, "magnetometer-kalman", 0, K=0.1, T=0.2))
    assert np.max(np.abs(double["B_var"] - single["B_var"]) / single["B_var"]) < 1e-12
    assert not np.allclose(double["B_est"], single["B_est"])


def test_truncated_controller_matches_full_controller(tmp_path):
    """"Although inexact, a feedback controller using this model performs
    almost indistinguishably from one using the full model."

    On paired noise, the final codeword fidelity of the truncated
    controller differs from the full controller's by a small share of what
    feedback gains over no feedback: over seeds 0-5 (fivequbit, T = 0.02,
    four trajectories) that share was 0.001-0.031."""
    for seed in (0, 3):
        final = {}
        for controller in ("full", "truncated", "none"):
            rec = read(run(tmp_path, "qec-run", seed, code="fivequbit", controller=controller,
                           T=0.02, n_traj=4))
            final[controller] = rec["codeword_mean"][-1]
        gain = final["full"] - final["none"]
        assert gain > 0
        assert abs(final["truncated"] - final["full"]) < 0.1 * gain


@pytest.mark.parametrize("prior_var,times,expect,rtol,atol", [
    (1e5, (0.5, 1.0, 3.0), paper_covariance, 1e-6, 0.0),
    (1e8, (1.0,), lambda t, v: infinite_prior_covariance(t), 0.0, 1e-4),
], ids=["finite-prior", "infinite-prior"])
def test_kalman_demo_covariance_matches_closed_form(tmp_path, prior_var, times, expect,
                                                    rtol, atol):
    """"This is analogous to the classical filtering problem in which
    techniques of inference are used to process noisy observations of a
    system in order to estimate its state."

    The thesis's Kalman-Bucy example, a Brownian particle under an unknown
    constant force, has a closed-form covariance; ``kalman-demo`` matches it
    (1e-13 relative at t = 0.5, 1 and 3), and with a large prior variance it
    is close to the infinite-prior limit."""
    rec = read(run(tmp_path, "kalman-demo", 0, T=times[-1], prior_var=prior_var))
    P = np.stack([rec["P00"], rec["P01"], rec["P01"], rec["P11"]], axis=1).reshape(-1, 2, 2)
    for t in times:
        i = int(np.argmin(np.abs(rec["time"] - t)))
        want = expect(t, prior_var)
        assert np.all(np.abs(P[i] - want) <= rtol * np.abs(want) + atol), t


def test_collective_squeezing_at_n_100(tmp_path):
    """"I finally review an exact but polynomial model of collective qubit
    systems undergoing arbitrary symmetric dynamics which allows for the
    efficient simulation of spontaneous-emission and related open quantum
    system phenomenon."

    At N = 100 the full space has 2^100 dimensions; the collective model runs
    counter-twisting with symmetric and collective decay through
    ``collective-squeeze``.  The run is deterministic: the squeezing
    parameter of each state falls below 1 at every row, and collective decay
    squeezes least."""
    rec = read(run(tmp_path, "collective-squeeze", 0, T=0.003))
    free, sym, coll = rec["xi2_free"], rec["xi2_symmetric"], rec["xi2_collective"]
    for xi2 in (free, sym, coll):
        assert np.all(np.diff(xi2) < 0) and xi2[0] < 1.0
    assert np.all(free <= sym) and np.all(sym <= coll)
