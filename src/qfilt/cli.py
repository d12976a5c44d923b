"""Batch experiment runner: every chapter-level simulation as a reproducible,
config-driven command emitting CSV plus a JSON manifest.

Usage:
    qfilt run <experiment> [--config FILE] [--seed S] [--workers W] [--out DIR]
    qfilt list
    qfilt rate [--alpha A] CSV [CSV ...]

Config files are line-oriented ``key = value`` text; ``[section]`` headers
group keys and are flattened.  ``#`` starts a comment.  Command-line
``--set key=value`` flags override file values.  Unknown keys are rejected.
Outputs are byte-identical for identical (config, seed, version): every CSV
carries a header row and a trailing manifest reference, and the manifest
records the resolved config, its hash, the seed and package versions.

Exit codes: 0 ok, 1 config error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import collective as col
from . import estimation as est
from . import kalman
from . import magnetometry as mag
from . import qec
from . import trajectory as traj
from .operators import SIGMA_X, SIGMA_Z, doubled_spin, pure_to_density, spin_coherent
from .sde import stream_seed


class ConfigError(Exception):
    pass


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _column(column) -> tuple[str, list]:
    """(format field, values) of one CSV column, formatted as ``_fmt``
    formats each entry: a float64 array is written by one ".17g" field over
    its ``tolist()``, any other column as its ``_fmt`` strings."""
    if isinstance(column, np.ndarray) and issubclass(column.dtype.type, float):
        return "{:.17g}", column.tolist()
    return "{}", [_fmt(v) for v in column]


def write_csv(path: str, header: list, columns: list, manifest_name: str) -> None:
    fields, values = zip(*map(_column, columns))
    line = ",".join(fields) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(line.format(*row) for row in zip(*values))
        f.write(f"# manifest: {manifest_name}\n")


# ---------------------------------------------------------------------------
# experiment runners; each returns its one CSV as (file name, header,
# columns) and the manifest summary, and is deterministic given (params, seed)


def _run_kalman_demo(p, seed, workers):
    rec = kalman.brownian_parameter_demo(p["xi_true"], p["T"], p["dt"], seed,
                                         prior_var=p["prior_var"])
    cols = [rec["t"], rec["dY"], rec["x_true"], rec["x_est"], rec["xi_est"],
            rec["P"][:, 0, 0], rec["P"][:, 0, 1], rec["P"][:, 1, 1]]
    return ("kalman_demo.csv", ["time", "dY", "x_true", "x_est", "xi_est", "P00", "P01", "P11"],
            cols, {"final_xi_est": rec["xi_est"][-1],
                   "final_xi_sd": float(np.sqrt(rec["P"][-1, 1, 1]))})


def _run_qubit_filter(p, seed, workers):
    model = traj.qubit_model(p["kappa"], p["B"])
    rho0 = pure_to_density(spin_coherent(0.5, np.pi / 2, 0.0))
    every = p["store_every"]
    rec = traj.simulate_truth(model, rho0, p["T"], p["dt"], seed,
                              observables={"sx": SIGMA_X, "sz": SIGMA_Z}, store_every=every)
    n = len(rec.dY)
    idx = np.arange(0, n, every)
    cols = [rec.times[idx], rec.dY[idx], rec.dW[idx],
            rec.expectations["sx"][idx], rec.expectations["sz"][idx]]
    return ("qubit_filter.csv", ["time", "dY", "dW", "sx", "sz"], cols,
            {"final_sz": rec.expectations["sz"][-1]})


def _run_param_ensemble(p, seed, workers):
    values = p["B_values"]
    out = est.qubit_finite_set_batch(p["kappa"], values, p["B_true"], p["T"], p["dt"],
                                     seed, store_every=p["store_every"])
    w = out["weights"]
    header = ["time"] + [f"w_B={_fmt(v)}" for v in values]
    cols = [out["times"]] + [w[:, i] for i in range(len(values))]
    return ("param_ensemble.csv", header, cols,
            {"final_weights": {str(v): float(x) for v, x in zip(values, out["final_weights"])}})


def _run_particle_filter(p, seed, workers):
    # the truth record draws from stream (seed, 0), the filter from the root
    record = est.simulate_qubit_record(p["kappa"], p["B_true"], p["T"], p["dt"],
                                       stream_seed(seed, 0))
    model = est.QubitMagnetometerModel(
        kappa=p["kappa"], prior=("gaussian", p["prior_mean"], p["prior_var"]))
    # the Liu-West bandwidth h^2 = 1 - a^2 keeps the cloud's variance
    res = est.particle_filter_run(model, record, p["N"], p["a"], math.sqrt(1.0 - p["a"] ** 2),
                                  p["threshold"], seed)
    idx = np.arange(0, len(res["mean_trace"]), p["store_every"])
    cols = [record.times[idx], res["mean_trace"][idx], res["sd_trace"][idx]]
    return ("particle_filter.csv", ["time", "B_mean", "B_sd"], cols,
            {"estimate": res["estimate"], "uncertainty": res["uncertainty"],
             "n_resamples": res["n_resamples"]})


def _fisher_point(args):
    """The informations of all seeds of one (F, K) point of the sweep; a
    FloatingPointError is raised again naming the point."""
    F, K, M, B, deltaB, T, dt, seed, n_seeds = args
    params = mag.DoublePassParams(F=F, M=M, K=K, B=B)
    seeds = [stream_seed(seed, k) for k in range(n_seeds)]
    try:
        return mag.fisher_information_fd(params, deltaB, T, dt, seeds)
    except FloatingPointError as err:
        raise FloatingPointError(f"{err}, in point F = {F:g}, K = {K:g}") from err


def _run_magnetometer_fisher(p, seed, workers):
    points = [(F, K, p["M"], p["B"], p["deltaB"], p["T"], p["dt"], seed, p["n_seeds"])
              for F in p["F_values"] for K in p["K_values"]]
    rows = []
    for (F, K, *_), infos in zip(points, _parallel_map(_fisher_point, points, workers)):
        mean, std = infos.mean(), (infos.std(ddof=1) if len(infos) > 1 else 0.0)
        # bound = I^{-1/2} / 2 spreads to first order by I^{-3/2} std / 4
        rows.append((F, K, mean, std, mag.cramer_rao_bound(mean),
                     mean ** -1.5 * std / 4.0))
    cols = list(map(np.array, zip(*rows)))
    return ("fisher_sweep.csv", ["F", "K", "info_mean", "info_std", "bound", "bound_sigma"],
            cols, {"rows": len(rows)})


def _run_magnetometer_kalman(p, seed, workers):
    params = mag.DoublePassParams(F=p["F"], M=p["M"], K=p["K"], B=p["B_true"])
    record = mag.simulate_double_pass_truth(params, p["T"], p["dt"], seed)
    dt, every = p["dt"], p["store_every"]
    x, V = kalman.kalman_filter(mag.smallangle_kalman_model(params),
                                np.diag([0.0, p["prior_var"]]), record.dY, dt)
    cols = [np.arange(every, len(x), every) * dt, x[every::every, 0], x[every::every, 1],
            V[every::every, 1, 1]]
    return ("magnetometer_kalman.csv", ["time", "theta_est", "B_est", "B_var"], cols,
            {"final_B_est": cols[2][-1], "final_B_sd": float(np.sqrt(cols[3][-1]))})


def _qec_batch(name, p, seed, controller):
    """All n_traj closed-loop trajectories of the code ``name`` in one
    lockstep batch; trajectory k draws from the stream (seed, k)."""
    code = qec.build_code(name)
    basis = qec.build_truncated_basis(code) if controller == "truncated" else None
    return qec.run_feedback_batch(code, p["gamma"], p["kappa"], p["lambda_max"], p["T"],
                                  p["dt"], seed, p["n_traj"], controller=controller,
                                  basis=basis)


def _run_qec(p, seed, workers):
    n_traj = p["n_traj"]
    out = _qec_batch(p["code"], p, seed, p["controller"])
    cs, cw = out["codespace"], out["codeword"]
    header = ["time", "codespace_mean", "codeword_mean"] \
        + [f"codespace_{k}" for k in range(n_traj)]
    cols = [out["times"], cs.mean(axis=0), cw.mean(axis=0)] + [cs[k] for k in range(n_traj)]
    summary = {"mean_final_codespace": float(cs[:, -1].mean()),
               "mean_final_codeword": float(cw[:, -1].mean())}
    if "policy_agreement" in out:
        summary["mean_policy_agreement"] = float(out["policy_agreement"].mean())
    return "qec_run.csv", header, cols, summary


def _run_qec_benchmark(p, seed, workers):
    # the discrete-correction curve is the five-qubit code's closed form
    out = _qec_batch("fivequbit", p, seed, "truncated")
    times = out["times"]
    cw = out["codeword"].mean(axis=0)
    cs = out["codespace"].mean(axis=0)
    discrete = qec.codeword_fidelity_discrete(times, p["gamma"])
    cols = [times, cs, cw, discrete]
    return ("qec_benchmark.csv",
            ["time", "codespace_feedback", "codeword_feedback", "codeword_discrete"], cols,
            {"final_codeword_feedback": float(cw[-1]),
             "final_codeword_discrete": float(discrete[-1]),
             "mean_policy_agreement": float(out["policy_agreement"].mean())})


def _collective_run(H, channels, states, p, observe):
    """Advance each state of ``states`` under its channel list in
    ``channels`` (both keyed by state name) for T / dt steps, and after
    every ``store_every``-th step record the row (t, *observe(states)).
    Returns the rows' columns as arrays; a FloatingPointError is raised
    again naming the state, the step and the time it reaches."""
    dt, every = p["dt"], p["store_every"]
    rows = []
    for i in range(int(round(p["T"] / dt))):
        for k, ch in channels.items():
            try:
                states[k] = col.collective_master_step(H, ch, states[k], dt)
            except FloatingPointError as err:
                raise FloatingPointError(f"{err}, in state {k} at step {i + 1}"
                                         f" (t = {(i + 1) * dt:.6g})") from err
        if (i + 1) % every == 0:
            rows.append(((i + 1) * dt, *observe(states)))
    return list(map(np.array, zip(*rows)))


def _run_collective_cat(p, seed, workers):
    N = p["N"]
    if p["channel"] == "sigma_z":
        sym = col.SpinChannel(s_z=1.0, rate=p["Gamma"])
        coll = col.CollectiveChannel(word_coeffs=((2.0, "z"),), rate=p["Gamma"])
    else:
        sym = col.SpinChannel(s_minus=1.0, rate=p["Gamma"])
        coll = col.CollectiveChannel(word_coeffs=((1.0, "-"),), rate=p["Gamma"])
    ref = col.cat_state(N)
    cols = _collective_run(
        None, {"sym": [sym], "coll": [coll]}, {"sym": col.cat_state(N), "coll": col.cat_state(N)},
        p, lambda states: (col.fidelity_with(states["sym"], ref),
                           col.fidelity_with(states["coll"], ref),
                           col.irrep_population(states["sym"], N / 2.0)))
    return ("collective_cat.csv",
            ["time", "fidelity_symmetric", "fidelity_collective", "topJ_population_symmetric"],
            cols, {"final_fidelity_symmetric": float(cols[1][-1]),
                   "final_fidelity_collective": float(cols[2][-1])})


def _run_collective_squeeze(p, seed, workers):
    N = p["N"]
    lam = p["Lambda"]
    H = ((-1j * lam, "++"), (1j * lam, "--"))
    channels = {
        "free": [],
        "sym": [col.SpinChannel(s_minus=1.0, rate=p["Gamma"])],
        "coll": [col.CollectiveChannel(word_coeffs=((1.0, "-"),), rate=p["Gamma"])],
    }
    cols = _collective_run(H, channels, {k: col.coherent_top(N) for k in channels}, p,
                           lambda states: [col.squeezing_xi2(states[k]) for k in channels])
    return ("collective_squeeze.csv", ["time", "xi2_free", "xi2_symmetric", "xi2_collective"],
            cols, {"min_xi2_free": float(np.min(cols[1])),
                   "min_xi2_symmetric": float(np.min(cols[2]))})


def _finite(text) -> float:
    """A finite float: inf and nan are config errors, not numeric failures
    at the first step."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _floats(each=_finite):
    """Converter accepting a non-empty comma-separated list of distinct
    values, each read by ``each``: a repeated candidate would be stepped and
    written twice."""
    def conv(text) -> list:
        values = [each(x) for x in str(text).split(",") if x.strip() != ""]
        if not values or len(set(values)) < len(values):
            raise ValueError(f"{values} is empty or repeats an entry")
        return values
    return conv


def _positive(text) -> float:
    """A finite float > 0: time steps, horizons, the Bloch-angle filters'
    measurement strength and the Fisher finite-difference offset."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise ValueError(f"{value} is not a positive finite number")
    return value


def _positive_int(text) -> int:
    """An integer >= 1: counts and record strides."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is not a positive integer")
    return value


def _between(lo, hi=float("inf")):
    """Converter accepting a finite float in [lo, hi]."""
    def conv(text) -> float:
        value = _finite(text)
        if not lo <= value <= hi:
            raise ValueError(f"{value} is not in [{lo}, {hi}]")
        return value
    return conv


# rates, strengths and variances
_nonnegative = _between(0.0)


def _spin(text) -> float:
    """A collective spin size: a finite float >= 1/2 whose double is an
    integer to within 1e-9 (``doubled_spin``), read as that half-integer."""
    return doubled_spin(_between(0.5)(text)) / 2.0


def _choice(*options):
    """Converter accepting exactly one of the given names."""
    def conv(text) -> str:
        if text not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(options)}")
        return text
    return conv


# every run takes at least one step; "stride" gives the record stride of
# runners that write rows only at multiples of it, so that a horizon shorter
# than one stride, which would record nothing, is rejected too
EXPERIMENTS = {
    "kalman-demo": {
        "doc": "Brownian-forcing parameter estimation with the Kalman-Bucy filter",
        "runner": _run_kalman_demo,
        "schema": {
            "xi_true": (_finite, 1.0, "true forcing parameter"),
            "T": (_positive, 10.0, "integration horizon"),
            "dt": (_positive, 1e-3, "time step"),
            "prior_var": (_nonnegative, 1e5, "initial parameter variance"),
        },
    },
    "qubit-filter": {
        "doc": "continuously monitored qubit trajectory (collapse from +x)",
        "runner": _run_qubit_filter,
        "schema": {
            "kappa": (_nonnegative, 1.0, "measurement strength"),
            "B": (_finite, 0.0, "magnetic field"),
            "T": (_positive, 10.0, "integration horizon (units 1/kappa)"),
            "dt": (_positive, 1e-5, "time step"),
            "store_every": (_positive_int, 100, "record every k-th step"),
        },
    },
    "param-ensemble": {
        "stride": lambda p: p["store_every"],
        "doc": "finite-set magnetic field estimation on a monitored qubit",
        "runner": _run_param_ensemble,
        "schema": {
            "kappa": (_positive, 1.0, "measurement strength"),
            "B_values": (_floats(), "2,5,8,12", "candidate field values (units kappa)"),
            "B_true": (_finite, 2.0, "true field value"),
            "T": (_positive, 10.0, "integration horizon"),
            "dt": (_positive, 1e-5, "time step"),
            "store_every": (_positive_int, 1000, "record every k-th step"),
        },
    },
    "particle-filter": {
        "doc": "resampling quantum particle filter for the qubit magnetometer",
        "runner": _run_particle_filter,
        "retired": {"h": "the kernel bandwidth now follows from a as sqrt(1 - a^2)"},
        "schema": {
            "kappa": (_positive, 1.0, "measurement strength"),
            "B_true": (_finite, 5.0, "true field value"),
            "N": (_positive_int, 200, "particle count"),
            "T": (_positive, 2.0, "integration horizon"),
            "dt": (_positive, 1e-4, "time step"),
            "a": (_between(0.0, 1.0), 0.97,
                  "kernel mean-reversion factor in [0, 1]; the bandwidth is sqrt(1 - a^2)"),
            "threshold": (_between(0.0, 1.0), 2.0 / 3.0, "resample when N_eff/N drops below"),
            "prior_mean": (_finite, 0.0, "Gaussian prior mean"),
            "prior_var": (_nonnegative, 10.0, "Gaussian prior variance"),
            "store_every": (_positive_int, 100, "record every k-th step"),
        },
    },
    "magnetometer-fisher": {
        "doc": "finite-difference Fisher information of the double-pass magnetometer",
        "runner": _run_magnetometer_fisher,
        "schema": {
            "F_values": (_floats(_spin), "10,20", "collective spin sizes, half-integers >= 1/2"),
            "K_values": (_floats(_nonnegative), "0,0.0001", "second-pass strengths"),
            "M": (_nonnegative, 1.0, "first-pass strength"),
            "B": (_finite, 0.0, "operating field"),
            "deltaB": (_positive, 1e-3, "finite-difference offset"),
            "T": (_positive, 1.0, "integration horizon"),
            "dt": (_positive, 1e-4, "time step"),
            "n_seeds": (_positive_int, 4, "noise realizations per point"),
        },
    },
    "magnetometer-kalman": {
        "stride": lambda p: p["store_every"],
        "doc": "small-angle Kalman field estimate on a double-pass record",
        "runner": _run_magnetometer_kalman,
        "schema": {
            "F": (_spin, 10.0, "collective spin size, a half-integer >= 1/2"),
            "M": (_nonnegative, 1.0, "first-pass strength"),
            "K": (_nonnegative, 0.0, "second-pass strength"),
            "B_true": (_finite, 0.0, "true field value"),
            "prior_var": (_nonnegative, 10.0, "initial field variance"),
            "T": (_positive, 1.0, "integration horizon"),
            "dt": (_positive, 1e-4, "time step"),
            "store_every": (_positive_int, 10, "record every k-th step"),
        },
    },
    "qec-run": {
        "stride": lambda p: qec.RECORD_EVERY,
        "doc": "continuous error correction trajectories with feedback",
        "runner": _run_qec,
        "schema": {
            "code": (_choice(*qec._CODES), "fivequbit",
                     f"code name ({', '.join(qec._CODES)})"),
            "controller": (_choice("truncated", "full", "none"), "truncated", "truncated, full or none"),
            "gamma": (_nonnegative, 1.0, "depolarizing rate"),
            "kappa": (_nonnegative, 100.0, "measurement strength"),
            "lambda_max": (_nonnegative, 200.0, "maximum feedback strength"),
            "T": (_positive, 0.05, "integration horizon (units 1/gamma)"),
            "dt": (_positive, 1e-5, "time step"),
            "n_traj": (_positive_int, 2, "trajectory count"),
        },
    },
    "qec-benchmark": {
        "stride": lambda p: qec.RECORD_EVERY,
        "doc": "feedback vs discrete-time codeword fidelity for the five-qubit code",
        "runner": _run_qec_benchmark,
        "retired": {"code": "its discrete-correction curve is the five-qubit code's closed"
                            " form; qec-run takes any code"},
        "schema": {
            "gamma": (_nonnegative, 1.0, "depolarizing rate"),
            "kappa": (_nonnegative, 100.0, "measurement strength"),
            "lambda_max": (_nonnegative, 200.0, "maximum feedback strength"),
            "T": (_positive, 0.1, "integration horizon (units 1/gamma)"),
            "dt": (_positive, 1e-5, "time step"),
            "n_traj": (_positive_int, 4, "trajectory count"),
        },
    },
    "collective-cat": {
        "stride": lambda p: p["store_every"],
        "doc": "cat-state fidelity decay: symmetric-local vs collective channel",
        "runner": _run_collective_cat,
        "schema": {
            "N": (_positive_int, 10, "qubit count"),
            "channel": (_choice("sigma_z", "sigma_minus"), "sigma_z", "sigma_z or sigma_minus"),
            "Gamma": (_nonnegative, 1.0, "decoherence rate"),
            "T": (_positive, 0.2, "integration horizon (units 1/Gamma)"),
            "dt": (_positive, 1e-3, "time step"),
            "store_every": (_positive_int, 10, "record every k-th step"),
        },
    },
    "collective-squeeze": {
        "stride": lambda p: p["store_every"],
        "doc": "counter-twisting squeezing under symmetric vs collective decay",
        "runner": _run_collective_squeeze,
        "schema": {
            "N": (_positive_int, 100, "qubit count"),
            "Lambda": (_finite, 1.0, "twisting strength"),
            "Gamma": (_nonnegative, 0.2, "decoherence rate"),
            "T": (_positive, 0.03, "integration horizon"),
            "dt": (_positive, 1e-4, "time step"),
            "store_every": (_positive_int, 10, "record every k-th step"),
        },
    },
}


def _parallel_map(fn, tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here, since only a pool needs it and it costs every run's import
    import concurrent.futures
    # the pool may start all its processes at once, so ask for no more than
    # there are tasks
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as ex:
        return list(ex.map(fn, tasks))


def parse_config_text(text: str) -> dict:
    """Line-oriented key = value parser; [section] headers are flattened."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_params(experiment: str, raw: dict) -> dict:
    try:
        schema = EXPERIMENTS[experiment]["schema"]
    except KeyError:
        raise ConfigError(f"unknown experiment {experiment!r}") from None
    for key, why in EXPERIMENTS[experiment].get("retired", {}).items():
        if key in raw:
            raise ConfigError(f"config key {key!r} is no longer accepted: {why}")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    params = {}
    for key, (conv, default, _doc) in schema.items():
        if key in raw:
            try:
                params[key] = conv(raw[key])
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for key {key!r}: {raw[key]!r}") from None
        else:
            params[key] = conv(default)
    stride = EXPERIMENTS[experiment].get("stride", lambda p: 1)(params)
    steps = int(round(params["T"] / params["dt"]))
    if steps < stride:
        raise ConfigError(f"key 'T': {steps} steps of dt={params['dt']:g} are fewer than"
                          f" {stride}, the fewest this experiment accepts")
    return params


def _canonical(params: dict) -> str:
    return json.dumps(params, sort_keys=True, default=str)


def run_experiment(experiment: str, params: dict, seed: int, workers: int,
                   outdir: str) -> dict:
    os.makedirs(outdir, exist_ok=True)
    name, header, columns, summary = EXPERIMENTS[experiment]["runner"](params, seed, workers)
    manifest_name = f"{experiment}.manifest.json"
    write_csv(os.path.join(outdir, name), header, columns, manifest_name)
    manifest = {
        "experiment": experiment,
        "config": {k: _fmt(v) if isinstance(v, float) else v for k, v in params.items()},
        "config_hash": hashlib.sha256(_canonical(params).encode()).hexdigest(),
        "seed": seed,
        "versions": {"qfilt": __version__, "numpy": np.__version__},
        "outputs": [name],
        "summary": summary,
    }
    with open(os.path.join(outdir, manifest_name), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def list_experiments() -> None:
    """Print every experiment with its keys, defaults and descriptions; each
    block doubles as a config template."""
    for name, info in EXPERIMENTS.items():
        sys.stdout.write(f"## experiment: {name}\n")
        sys.stdout.write(f"# {info['doc']}\n")
        for key, (_conv, default, doc) in info["schema"].items():
            sys.stdout.write(f"{key} = {default}  # {doc}\n")
        sys.stdout.write("\n")


def _lines(path: str):
    """The lines of a UTF-8 text file, read as they are used; any other
    bytes are a ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            yield from f
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: {e}") from None


def convergence_rate(csv_paths: list, alpha: float = 0.95):
    """Post-processing: fraction of runs in which some weight column exceeds
    alpha, per time row, averaged over the given ensemble CSVs."""
    traces = []
    times = None
    for path in csv_paths:
        rows = []
        lines = _lines(path)
        header = next(lines, "").strip().split(",")
        wcols = [i for i, h in enumerate(header) if h.startswith("w_")]
        if not wcols:
            raise ConfigError(f"{path}: no weight columns (w_*) found")
        for lineno, line in enumerate(lines, 2):
            if line.startswith("#"):
                continue
            try:
                vals = [float(x) for x in line.strip().split(",")]
                rows.append((vals[0], max(vals[i] for i in wcols)))
            except (ValueError, IndexError):
                raise ConfigError(f"{path}: line {lineno} is not a row of"
                                  f" {len(header)} numbers") from None
        t = np.array([r[0] for r in rows])
        if times is None:
            times = t
        elif not np.array_equal(t, times):
            raise ConfigError(f"{path}: its {len(t)} rows do not have the times of the"
                              f" {len(times)} rows of {csv_paths[0]}")
        traces.append(np.array([1.0 if r[1] > alpha else 0.0 for r in rows]))
    return times, np.mean(traces, axis=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qfilt",
                                     description="continuous-time filtering experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_run.add_argument("--config", help="key = value config file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out", default=".")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value (repeatable)")
    sub.add_parser("list", help="list experiments and their config schemas")
    p_rate = sub.add_parser("rate", help="convergence-rate metric over ensemble CSVs")
    p_rate.add_argument("csv", nargs="+")
    p_rate.add_argument("--alpha", type=float, default=0.95)
    args = parser.parse_args(argv)

    if args.command == "list":
        list_experiments()
        return 0
    try:
        if args.command == "rate":
            try:
                alpha = _between(0.0, 1.0)(args.alpha)
            except ValueError as e:
                raise ConfigError(f"--alpha: {e}") from None
            times, rate = convergence_rate(args.csv, alpha)
            sys.stdout.write("time,rate\n")
            for t, r in zip(times, rate):
                sys.stdout.write(f"{_fmt(t)},{_fmt(r)}\n")
            return 0
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.workers < 1:
            raise ConfigError(f"--workers must be a positive integer, got {args.workers}")
        raw = parse_config_text("".join(_lines(args.config))) if args.config else {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            raw[key.strip()] = value.strip()
        params = resolve_params(args.experiment, raw)
        # an unusable output path is refused before any step, as a bad key is
        os.makedirs(args.out, exist_ok=True)
    except (ConfigError, OSError) as e:
        sys.stderr.write(f"config error: {e}\n")
        return 1
    try:
        # overflow and invalid values surface as one exit-2 line from the
        # kernels' finite checks, not as numpy warnings printed before it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            manifest = run_experiment(args.experiment, params, args.seed, args.workers,
                                      args.out)
    except (ValueError, ArithmeticError, MemoryError, np.linalg.LinAlgError,
            est.DegenerateEnsembleError) as e:
        # numpy's allocation failure is a private subclass of MemoryError
        kind = "MemoryError" if isinstance(e, MemoryError) else type(e).__name__
        sys.stderr.write(f"numeric failure in {args.experiment}: {kind}: {e}\n")
        return 2
    sys.stdout.write(json.dumps(manifest["summary"], sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
