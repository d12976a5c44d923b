"""The benchmark's workloads: their jobs, sizes, filter-step counts, output
checks, and the qfilt functions the traced run wraps.

One filter-step is one measurement increment advanced through one filter or
truth model for one trajectory; a particle ensemble or a bank of candidate
filters advanced by one shared increment counts as one filter.  For the
collective master equation it is one RK4 step of one evolved state.  Each
job's count is fixed by its configuration, so steps/s is work per second at a
stated size.

Deterministic outputs are compared with ``reference.json`` (recorded by
``record_reference.py``); stochastic outputs are checked against physical
invariants only, because a later kernel may legitimately change their bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAYERS = ["operators", "sde", "kalman", "trajectory", "estimation", "magnetometry",
          "qec", "collective", "cli"]

TRACED = [
    "operators.pauli_string", "operators.spin_operators", "operators.dag",
    "sde.euler_step", "sde.rng_stream",
    "kalman.brownian_parameter_demo", "kalman.kalman_correlated_step",
    "trajectory.simulate_truth", "trajectory.sme_step_batch", "trajectory.bloch_angle_step",
    "estimation.qubit_finite_set_batch", "estimation.simulate_qubit_record",
    "estimation.particle_filter_run", "estimation.ensemble_step",
    "estimation.effective_sample_size", "estimation.liu_west_resample",
    "magnetometry.double_pass_sse_step", "magnetometry.simulate_double_pass_truth",
    "magnetometry.fisher_information_fd",
    "qec.build_truncated_basis", "qec.build_code", "qec.run_feedback_batch",
    "collective.collective_master_step", "collective.master_rhs",
    "collective.symmetric_lindblad_apply", "collective.collective_lindblad_apply",
    "collective.collective_operator", "collective.squeezing_xi2", "collective.fidelity_with",
    "cli.run_experiment", "cli.write_csv",
]

# slack on physical bounds such as fidelity <= 1 and unit weight sums
INVARIANT_TOL = 1e-9
# deterministic outputs must match reference.json to this relative tolerance
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-12
# mean truncated-vs-full feedback-policy agreement of a qec-loop batch; the
# recorded repetition means sit at 0.9997-0.9999
POLICY_AGREEMENT_FLOOR = 0.95

# experiment -> (reference columns, row stride)
REFERENCE_COLUMNS = {
    "kalman-demo": (["P00", "P01", "P11"], 300),
    "collective-cat": (["fidelity_symmetric", "fidelity_collective",
                        "topJ_population_symmetric"], 1),
    "collective-squeeze": (["xi2_free", "xi2_symmetric", "xi2_collective"], 1),
}

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(_HERE, "reference.json")


@dataclass
class Job:
    name: str
    steps: int  # filter-steps this job advances
    run: Callable[[], object]
    check: Callable[[object], list]  # output -> list of problems
    experiment: str | None = None  # `qfilt run` experiment, for CLI jobs


def read_csv(path: str) -> tuple[list, np.ndarray]:
    with open(path) as f:
        header = f.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)


def reference_columns(experiment: str, path: str) -> dict:
    header, data = read_csv(path)
    cols, stride = REFERENCE_COLUMNS[experiment]
    return {c: data[::stride, header.index(c)].tolist() for c in cols}


def _column(path: str, name: str) -> np.ndarray:
    header, data = read_csv(path)
    return data[:, header.index(name)]


def _in_unit_interval(name: str, x: np.ndarray) -> list:
    x = np.asarray(x)
    if not np.all(np.isfinite(x)) or x.min() < -INVARIANT_TOL or x.max() > 1 + INVARIANT_TOL:
        return [f"{name} outside [0, 1]: [{x.min()}, {x.max()}]"]
    return []


def _finite_positive(name: str, x) -> list:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        return [f"{name} not finite and positive"]
    return []


def _finite(name: str, x) -> list:
    return [] if np.all(np.isfinite(np.asarray(x, dtype=float))) else [f"{name} not finite"]


def _normalized_weights(name: str, w: np.ndarray) -> list:
    w = np.atleast_2d(w)
    if np.any(w < 0) or np.max(np.abs(w.sum(axis=1) - 1.0)) > INVARIANT_TOL:
        return [f"{name} not non-negative and normalized"]
    return []


def _matches_reference(experiment: str, path: str) -> list:
    with open(REFERENCE_PATH) as f:
        ref = json.load(f)[experiment]
    got = reference_columns(experiment, path)
    return [f"{experiment} {c} differs from reference" for c in ref
            if len(got[c]) != len(ref[c])
            or not np.allclose(got[c], ref[c], rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL)]


# ---------------------------------------------------------------------------
# output checks


def _check_kalman_demo(path):
    return (_matches_reference("kalman-demo", path)
            + _finite("x_est", _column(path, "x_est")) + _finite("xi_est", _column(path, "xi_est"))
            + _finite_positive("P11", _column(path, "P11")))


def _check_qubit_filter(path, kappa_T):
    # The Euler SME step keeps the trace but not positivity: a pure qubit's
    # |r|^2 drifts above 1 by an amount that grows with kappa*T (measured on
    # the stored rows at kappa*T = 0.015: at most 6.5e-3 over 200 seeds), so
    # the unit ball gets kappa*T slack.
    sx, sz = _column(path, "sx"), _column(path, "sz")
    excess = np.max(sx * sx + sz * sz) - 1.0
    if not np.all(np.isfinite(sx * sz)) or excess > kappa_T:
        return [f"qubit-filter Bloch vector outside the unit ball by {excess}"]
    return []


def _check_param_ensemble(path):
    header, data = read_csv(path)
    w = data[:, [i for i, h in enumerate(header) if h.startswith("w_")]]
    return _normalized_weights("param-ensemble weights", w)


def _check_magnetometer_kalman(path):
    return (_finite("B_est", _column(path, "B_est"))
            + _finite("theta_est", _column(path, "theta_est"))
            + _finite_positive("B_var", _column(path, "B_var")))


def _check_magnetometer_fisher(path):
    info = _column(path, "info_mean")
    if not np.all(np.isfinite(info)) or np.any(info < 0):
        return ["Fisher information negative or not finite"]
    return []


def _check_collective_cat(path):
    return (_matches_reference("collective-cat", path)
            + _in_unit_interval("fidelity_symmetric", _column(path, "fidelity_symmetric"))
            + _in_unit_interval("fidelity_collective", _column(path, "fidelity_collective")))


def _check_collective_squeeze(path):
    return _matches_reference("collective-squeeze", path)


def _check_particle_filter(res):
    ens = res["ensemble"]
    return (_finite("particle-filter estimate", [res["estimate"]])
            + _finite_positive("particle-filter sd", [res["uncertainty"]])
            + _finite("particle-filter mean trace", res["mean_trace"])
            + _normalized_weights("particle weights", ens.weights))


def _check_feedback(res):
    return (_in_unit_interval("codespace fidelity", res["codespace"])
            + _in_unit_interval("codeword fidelity", res["codeword"]))


def _check_qec_loop(res):
    problems = _check_feedback(res)
    agreement = float(np.mean(res["policy_agreement"]))
    if not agreement >= POLICY_AGREEMENT_FLOOR:
        problems.append(f"policy agreement {agreement} below {POLICY_AGREEMENT_FLOOR}")
    return problems


# ---------------------------------------------------------------------------
# workloads


def _cli_job(outdir, name, experiment, overrides, steps, seed, check):
    from qfilt import cli

    jobdir = os.path.join(outdir, name)

    def run():
        params = cli.resolve_params(experiment, {k: str(v) for k, v in overrides.items()})
        manifest = cli.run_experiment(experiment, params, seed, 1, jobdir)
        return os.path.join(jobdir, manifest["outputs"][0])

    return Job(name, steps, run, check, experiment)


# Jobs are short (0.1-0.5 s here) and a run makes many repetitions, because
# the timing estimate is each job's fastest repetition: contention from other
# tenants comes in stretches of seconds, and short samples fit between them.


def small_state_jobs(seed: int, outdir: str) -> list:
    """Single-trajectory filters on tiny state spaces, each sized to about
    0.1 s here so that none dominates."""
    from qfilt import estimation as est
    from qfilt import qec

    bitflip = qec.build_code("bitflip3")
    pf_model = est.QubitMagnetometerModel(kappa=1.0, prior=("gaussian", 0.0, 10.0))
    s = [seed * 16 + i for i in range(9)]

    def particle_filter():
        # the library route: `qfilt run particle-filter` crashes at this commit
        record = est.simulate_qubit_record(1.0, 5.0, 3.0, 2e-3, s[6])
        return est.particle_filter_run(pf_model, record, 200, 0.98, 1e-3, 2.0 / 3.0, s[8])

    def bitflip_loop():
        # the library route: `qfilt run qec-run` crashes at this commit
        return qec.run_feedback_batch(bitflip, 1.0, 100.0, 200.0, 0.0075, 1e-5, s[7], 1,
                                      controller="full")

    return [
        # truth (euler_step) + Kalman filter, 1500 increments
        _cli_job(outdir, "kalman-demo", "kalman-demo", {"T": 1.5}, 2 * 1500, s[0],
                 _check_kalman_demo),
        # one 2x2 SME, 1500 increments
        _cli_job(outdir, "qubit-filter", "qubit-filter", {"T": 0.015}, 1500, s[1],
                 lambda path: _check_qubit_filter(path, kappa_T=0.015)),
        # Bloch-angle truth + four-candidate bank, 2500 increments
        _cli_job(outdir, "param-ensemble", "param-ensemble", {"T": 0.025, "store_every": 100},
                 2 * 2500, s[2], _check_param_ensemble),
        # 21-dim SSE truth + small-angle Kalman, 1000 increments
        _cli_job(outdir, "magnetometer-kalman", "magnetometer-kalman", {"T": 0.1}, 2 * 1000,
                 s[3], _check_magnetometer_kalman),
        # 2 F x 2 K x 2 seeds, three co-evolved SSE states each, 80 increments
        _cli_job(outdir, "magnetometer-fisher", "magnetometer-fisher",
                 {"T": 0.008, "n_seeds": 2}, 8 * 3 * 80, s[4], _check_magnetometer_fisher),
        # N=10, symmetric and collective states, 50 RK4 steps
        _cli_job(outdir, "collective-cat", "collective-cat", {"T": 0.05}, 2 * 50, s[5],
                 _check_collective_cat),
        # Bloch-angle truth + 200-particle filter, 1500 increments
        Job("particle-filter", 2 * 1500, particle_filter, _check_particle_filter),
        # bitflip3 closed loop, full controller, one trajectory, 750 increments
        Job("bitflip3-loop", 750, bitflip_loop, _check_feedback),
    ]


def qec_loop_jobs(seed: int, outdir: str) -> list:
    """Five-qubit code, truncated controller: the call sequence
    `qfilt run qec-benchmark` should make once it runs, as four consecutive
    125-increment batches of 8 trajectories."""
    from qfilt import qec

    code = qec.build_code("fivequbit")
    basis = qec.build_truncated_basis(code)

    def batch(k):
        return lambda: qec.run_feedback_batch(code, 1.0, 100.0, 200.0, 0.00125, 1e-5,
                                              seed * 16 + k, 8, controller="truncated",
                                              basis=basis)

    # 8 trajectories x (full filter + truncated filter) x 125 increments each
    return [Job(f"qec-batch-{k}", 8 * 2 * 125, batch(k), _check_qec_loop) for k in range(4)]


def collective_large_jobs(seed: int, outdir: str) -> list:
    """`qfilt run collective-squeeze` at N=100 (free, symmetric-local and
    collective states), five runs of one RK4 step each."""
    return [_cli_job(outdir, f"collective-squeeze-{k}", "collective-squeeze",
                     {"T": 1e-4, "store_every": 1}, 3 * 1, seed, _check_collective_squeeze)
            for k in range(5)]


@dataclass
class Workload:
    modules: list  # qfilt modules imported during set-up
    jobs: Callable[[int, str], list]  # (seed, outdir) -> jobs; runs the constructors
    expected: list  # traced functions that must record calls


WORKLOADS = {
    "small-state": Workload(
        modules=["cli", "estimation", "qec"], jobs=small_state_jobs,
        expected=[n for n in TRACED
                  if n not in ("qec.build_truncated_basis", "collective.squeezing_xi2")]),
    "qec-loop": Workload(
        modules=["qec"], jobs=qec_loop_jobs,
        expected=["qec.build_code", "qec.build_truncated_basis", "qec.run_feedback_batch",
                  "operators.pauli_string", "sde.rng_stream"]),
    "collective-large": Workload(
        modules=["cli"], jobs=collective_large_jobs,
        expected=["cli.run_experiment", "cli.write_csv", "operators.spin_operators",
                  "collective.collective_master_step", "collective.master_rhs",
                  "collective.symmetric_lindblad_apply", "collective.collective_lindblad_apply",
                  "collective.collective_operator", "collective.squeezing_xi2"]),
}
