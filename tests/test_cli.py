import concurrent.futures
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qfilt import cli
from qfilt.sde import rng_stream, stream_seed


ALL_EXPERIMENTS = [
    "kalman-demo", "qubit-filter", "param-ensemble", "particle-filter",
    "magnetometer-fisher", "magnetometer-kalman", "qec-run", "qec-benchmark",
    "collective-cat", "collective-squeeze",
]


class TestListAndSchemas:
    def test_all_experiments_registered(self):
        assert sorted(cli.EXPERIMENTS) == sorted(ALL_EXPERIMENTS)

    def test_listing_mentions_every_experiment_and_dt(self):
        buf = io.StringIO()
        cli.list_experiments(buf)
        text = buf.getvalue()
        for name in ALL_EXPERIMENTS:
            assert f"## experiment: {name}" in text
        for name, info in cli.EXPERIMENTS.items():
            assert "dt" in info["schema"], name

    def test_schema_round_trip(self):
        # each emitted block re-parses as a valid config for its experiment
        buf = io.StringIO()
        cli.list_experiments(buf)
        blocks = buf.getvalue().split("## experiment: ")[1:]
        for block in blocks:
            name, _, body = block.partition("\n")
            raw = cli.parse_config_text(body)
            params = cli.resolve_params(name.strip(), raw)
            assert set(params) == set(cli.EXPERIMENTS[name.strip()]["schema"])

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.resolve_params("kalman-demo", {"bogus": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(cli.ConfigError, match="dt"):
            cli.resolve_params("kalman-demo", {"dt": "fast"})

    def test_config_text_parsing(self):
        raw = cli.parse_config_text("""
        [run]
        kappa = 2.0   # comment
        B = 0.5
        """)
        assert raw == {"kappa": "2.0", "B": "0.5"}
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("just words\n")


def _assert_same_bytes(d1, d2, experiment):
    names = sorted(os.listdir(d1))
    assert f"{experiment}.manifest.json" in names and len(names) == 2
    assert sorted(os.listdir(d2)) == names
    for name in names:
        with open(os.path.join(d1, name), "rb") as f:
            a = f.read()
        with open(os.path.join(d2, name), "rb") as f:
            b = f.read()
        assert a == b, name


class TestRun:
    # every experiment at a tiny horizon
    BYTE_CASES = {
        "kalman-demo": ["T=0.05"],
        "qubit-filter": ["T=0.02"],
        "param-ensemble": ["T=0.002", "store_every=10"],
        "particle-filter": ["T=0.02", "N=20", "store_every=10"],
        "magnetometer-fisher": ["T=0.0005", "F_values=2,3", "n_seeds=2"],
        "magnetometer-kalman": ["T=0.001", "store_every=1"],
        "qec-run": ["code=bitflip3", "T=0.0002"],
        "qec-benchmark": ["T=0.0002", "n_traj=2"],
        "collective-cat": ["N=4", "T=0.005", "store_every=1"],
        "collective-squeeze": ["N=6", "T=0.0005", "dt=0.0001", "store_every=1"],
    }

    @staticmethod
    def _args(experiment):
        args = ["run", experiment, "--seed", "7"]
        for item in TestRun.BYTE_CASES[experiment]:
            args += ["--set", item]
        return args

    def test_byte_identical_outputs(self, tmp_path):
        assert sorted(self.BYTE_CASES) == sorted(ALL_EXPERIMENTS)
        for experiment in self.BYTE_CASES:
            args = self._args(experiment)
            d1 = os.path.join(tmp_path, experiment, "a")
            d2 = os.path.join(tmp_path, experiment, "b")
            assert cli.main(args + ["--out", d1]) == 0, experiment
            assert cli.main(args + ["--out", d2]) == 0, experiment
            _assert_same_bytes(d1, d2, experiment)

    def test_fisher_bytes_independent_of_workers(self, tmp_path):
        args = self._args("magnetometer-fisher")
        d1 = os.path.join(tmp_path, "w1")
        d2 = os.path.join(tmp_path, "w2")
        assert cli.main(args + ["--workers", "1", "--out", d1]) == 0
        assert cli.main(args + ["--workers", "2", "--out", d2]) == 0
        _assert_same_bytes(d1, d2, "magnetometer-fisher")

    def test_fisher_bound_sigma_is_the_first_order_spread(self, tmp_path, capsys):
        # bound = I^{-1/2} / 2 spreads to first order by I^{-3/2} std / 4,
        # which is bound * info_std / (2 info_mean), on every row
        out = os.path.join(tmp_path, "fisher")
        assert cli.main(self._args("magnetometer-fisher") + ["--out", out]) == 0
        capsys.readouterr()
        data = np.genfromtxt(os.path.join(out, "fisher_sweep.csv"), delimiter=",",
                             names=True, comments="#")
        assert len(data) == 4 and np.all(data["info_std"] > 0)
        assert np.allclose(data["bound"], 0.5 / np.sqrt(data["info_mean"]), rtol=1e-15, atol=0)
        expect = data["bound"] * data["info_std"] / (2.0 * data["info_mean"])
        assert np.allclose(data["bound_sigma"], expect, rtol=1e-14, atol=0)

    def test_particle_filter_truth_stream_is_not_the_filter_stream(self, monkeypatch):
        seeds = []
        simulate = cli.est.simulate_qubit_record

        def spy(kappa, B_true, T, dt, seed):
            seeds.append(seed)
            return simulate(kappa, B_true, T, dt, seed)

        monkeypatch.setattr(cli.est, "simulate_qubit_record", spy)
        params = cli.resolve_params("particle-filter", {"T": "0.001", "N": "5"})
        cli.EXPERIMENTS["particle-filter"]["runner"](params, 7, 1)
        # the truth record draws from stream (7, 0); the filter from the root
        truth = rng_stream(seeds[0]).standard_normal(8)
        assert np.array_equal(truth, rng_stream(7, 0).standard_normal(8))
        assert not np.allclose(truth, rng_stream(7).standard_normal(8))

    def test_runner_failure_exit_code(self, tmp_path, capsys, recwarn):
        # numpy's overflow warnings must not print ahead of the one line
        cases = (("collective-cat", ["Gamma=1e300"], "FloatingPointError"),
                 # the collective runs name the block, the state, the step and t
                 ("collective-cat", ["Gamma=1e300", "channel=sigma_minus"],
                  "FloatingPointError: non-finite block 2J = 2 in collective_master_step,"
                  " in state sym at step 1 (t = 0.001)"),
                 ("collective-squeeze", ["Gamma=1e308", "store_every=1"],
                  "FloatingPointError: non-finite block 2J = 92 in collective_master_step,"
                  " in state sym at step 1 (t = 0.0001)"),
                 # simulate_truth names the slots, the step and t; the kernel checks
                 # every entry, so step 2, whose off-diagonal parts overflow under
                 # a finite trace, raises
                 ("qubit-filter", ["kappa=1e300", "T=0.001"],
                  "FloatingPointError: non-finite density matrix in sme_step_batch at slots [0]"
                  " at step 2 (t = 2e-05)"),
                 # the finite-set estimator names the first step of the failed chunk
                 ("param-ensemble", ["B_values=1e300,2", "T=0.001", "store_every=10"],
                  "FloatingPointError: finite-set filter: non-finite map product in the"
                  " chunk from step 1 (t = 1e-05)\n"),
                 # past kappa dt = 1 the Bloch angle only wraps around under sin,
                 # so the truth record is refused before it is stepped
                 ("particle-filter", ["kappa=1e300", "T=0.001"],
                  "ValueError: kappa * dt = 1e+296 is outside the Euler stability range"
                  " kappa * dt < 1 of the Bloch-angle filter\n"),
                 # and so is a truth that precesses by a radian or more per step
                 ("param-ensemble", ["B_true=1e300", "T=0.002", "store_every=10"],
                  "ValueError: 2 |B_true| * dt = 2e+295 is outside the range"
                  " 2 |B_true| * dt < 1 of the Bloch-angle truth\n"),
                 # and a particle cloud drawn past that rule: prior_mean = 1e300
                 # ran to an infinite uncertainty, prior_var = 1e300 to an
                 # estimate of -1.42e149
                 ("particle-filter", ["prior_mean=1e300", "T=0.01"],
                  "ValueError: 2 max |B_i| * dt = 2e+296 is outside the range"
                  " 2 |B| * dt < 1 of the Bloch-angle particles\n"),
                 ("particle-filter", ["prior_var=1e300", "T=0.01"],
                  "ValueError: 2 max |B_i| * dt = 4.79647e+146 is outside the range"
                  " 2 |B| * dt < 1 of the Bloch-angle particles\n"),
                 # the double-pass truth and Fisher runs name the slots, the step and t,
                 # and a Fisher run the seed indices of its slots (three per seed) and
                 # its (F, K) point
                 ("magnetometer-kalman", ["M=1e200", "T=0.001"],
                  "FloatingPointError: non-finite state vector in sse_step_batch at slots [0]"
                  " at step 1 (t = 0.0001)\n"),
                 ("magnetometer-fisher", ["M=1e200", "T=0.001"],
                  "FloatingPointError: non-finite state vector in sse_step_batch at slots"
                  " [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11] at step 1 (t = 0.0001),"
                  " seed indices [0, 1, 2, 3], in point F = 10, K = 0\n"),
                 # F = 1 runs all ten steps at this M, so the failure is a later point's
                 ("magnetometer-fisher", ["F_values=1,20", "M=1e158", "T=0.001"],
                  "FloatingPointError: non-finite state vector in sse_step_batch at slots"
                  " [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11] at step 1 (t = 0.0001),"
                  " seed indices [0, 1, 2, 3], in point F = 20, K = 0\n"),
                 # past 2 lambda_max dt = 1 the Euler feedback rotation turns a radian
                 # or more per step, so the closed QEC loop is refused before any
                 # step: lambda_max = 1e8 ran to a codespace fidelity of 2.2e85, and
                 # 1e300 to a non-finite state at step 2 or 3
                 ("qec-run", ["code=bitflip3", "T=0.0002", "lambda_max=1e8"],
                  "ValueError: 2 |lambda_max| * dt = 2000 is outside the range"
                  " 2 |lambda_max| * dt < 1 of the feedback rotation\n"),
                 ("qec-run", ["code=bitflip3", "controller=full", "lambda_max=1e300",
                              "T=0.001"],
                  "ValueError: 2 |lambda_max| * dt = 2e+295 is outside the range"
                  " 2 |lambda_max| * dt < 1 of the feedback rotation\n"),
                 ("qec-benchmark", ["lambda_max=1e300", "T=0.001"],
                  "ValueError: 2 |lambda_max| * dt = 2e+295 is outside the range"
                  " 2 |lambda_max| * dt < 1 of the feedback rotation\n"),
                 # past 2 dt (kappa c0 + gamma c1) = 1 the full filter's Euler step
                 # flips the decaying coefficients, so it is refused before any step:
                 # gamma = 1e8 ran to a codespace fidelity of 2.25e90
                 ("qec-run", ["code=bitflip3", "T=0.0002", "gamma=1e8"],
                  "ValueError: 2 dt (kappa c0 + gamma c1) = 12000 is outside the Euler"
                  " stability range < 1 of the full QEC filter (dt = 1e-05, kappa = 100,"
                  " gamma = 1e+08)\n"),
                 ("qec-run", ["code=bitflip3", "kappa=1e300", "T=0.001"],
                  "ValueError: 2 dt (kappa c0 + gamma c1) = 4e+295 is outside the Euler"
                  " stability range < 1 of the full QEC filter"),
                 # fivequbit has Pauli strings that anticommute with all four
                 # generators, where bitflip3's reach two
                 ("qec-benchmark", ["kappa=1e300", "T=0.001"],
                  "ValueError: 2 dt (kappa c0 + gamma c1) = 8e+295 is outside the Euler"
                  " stability range < 1 of the full QEC filter"),
                 # the Kalman runs name the first bad step and its time
                 ("kalman-demo", ["xi_true=1e308", "T=2"],
                  "FloatingPointError: non-finite state produced by euler_step at step 1798"
                  " (t = 1.798)"),
                 # RK4 grows the decaying mode of the covariance propagator from
                 # dt = 2.785 on: dt = 5 ran to a wrong covariance, dt = 50 to a
                 # singular Y
                 ("kalman-demo", ["dt=5", "T=100"], "ValueError: dt = 5 is outside the RK4"
                  " stability range of the covariance propagator"),
                 ("kalman-demo", ["dt=50", "T=500"], "ValueError: dt = 50 is outside the RK4"
                  " stability range of the covariance propagator"))
        for experiment, items, exc in cases:
            sets = [arg for item in items for arg in ("--set", item)]
            out = os.path.join(tmp_path, experiment)
            code = cli.main(["run", experiment, *sets, "--out", out])
            assert code == 2, experiment
            # the runner fails before anything is written
            assert not os.listdir(out), (experiment, items)
            err = capsys.readouterr().err
            assert err.startswith(f"numeric failure in {experiment}: {exc}")
            assert err.count("\n") == 1
            # pytest records warnings instead of printing them
            assert not recwarn.list, (experiment, [str(w.message) for w in recwarn])

    @pytest.mark.parametrize("items", [["T=0.001", "store_every=1", "prior_var=1e8"],
                                       ["T=0.01", "prior_var=1e300"]])
    def test_large_prior_runs_as_the_flat_prior_limit(self, tmp_path, capsys, items):
        # an Euler covariance step drove B_var negative at prior_var = 1e8 and
        # overflowed at 1e300; the covariance pass reaches the flat-prior limit
        out = os.path.join(tmp_path, "mk")
        args = ["run", "magnetometer-kalman", "--seed", "7", "--out", out]
        assert cli.main(args + [a for item in items for a in ("--set", item)]) == 0
        capsys.readouterr()
        data = np.genfromtxt(os.path.join(out, "magnetometer_kalman.csv"), delimiter=",",
                             names=True, comments="#")
        assert len(data) == 10
        assert np.all(data["B_var"] > 0) and np.all(np.isfinite(data["B_var"]))
        assert np.all(np.isfinite(data["B_est"]))

    class _ArrayMemoryError(MemoryError):
        """Stands in for numpy's private MemoryError subclass."""

    @pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError])
    def test_memory_error_is_a_numeric_failure(self, tmp_path, monkeypatch, capsys, error):
        # a double-pass truth at F = 1e6 asks for a (2F+1)^2 array of 29.1 TiB;
        # the allocation is stubbed, not attempted
        def allocate(*args):
            raise error("Unable to allocate 29.1 TiB for an array with shape (2000001, 2000001)")

        monkeypatch.setattr(cli.mag, "simulate_double_pass_truth", allocate)
        out = os.path.join(tmp_path, "mk")
        assert cli.main(["run", "magnetometer-kalman", "--set", "F=1e6", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "numeric failure in magnetometer-kalman: MemoryError: Unable to allocate 29.1 TiB"
            " for an array with shape (2000001, 2000001)\n")

    @pytest.mark.parametrize("experiment,key", [
        # _between, _floats and plain-float keys
        ("collective-squeeze", "Gamma"), ("particle-filter", "a"),
        ("param-ensemble", "B_values"), ("magnetometer-fisher", "K_values"),
        ("collective-squeeze", "Lambda"), ("qubit-filter", "B"),
        ("param-ensemble", "B_true"), ("kalman-demo", "xi_true"),
        ("qec-run", "lambda_max"), ("particle-filter", "prior_mean"),
    ])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_value_is_config_error(self, tmp_path, capsys, experiment, key, value):
        if key.endswith("_values"):
            value = f"1,{value}"
        out = os.path.join(tmp_path, experiment)
        assert cli.main(["run", experiment, "--set", f"{key}={value}", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: bad value for key '{key}': '{value}'\n"
        assert not os.path.exists(out)

    # keys that size a run (its steps, states or slots) stay at the BYTE_CASES
    # config, so that no fuzz case can ask for a long run or a large state
    FUZZ_SIZE_KEYS = {"N", "n_traj", "n_seeds", "store_every", "T", "dt", "F", "F_values"}

    @pytest.mark.parametrize("experiment", ALL_EXPERIMENTS)
    def test_fuzzed_numeric_key_keeps_the_exit_code_contract(self, tmp_path, capsys, experiment):
        """Each numeric key but the size keys, one at a time, at 0, -1 and
        1e300 on the experiment's BYTE_CASES config: ``main`` returns 0, 1 or
        2 and lets no exception escape.  An exit-0 run may still write
        unphysical numbers (collective-squeeze at Gamma=1e8 reports a
        squeezing of 7.5e-74, for one); asserting that exit 0 means the
        outputs hold their invariants waits for an output gate that checks
        each runner's columns before its CSV is written (ROADMAP, "Exit 0
        only with physical outputs")."""
        schema = cli.EXPERIMENTS[experiment]["schema"]
        # a numeric default ends in a digit; a choice's default is a name
        keys = [key for key, (_conv, default, _doc) in schema.items()
                if key not in self.FUZZ_SIZE_KEYS and str(default)[-1].isdigit()]
        assert keys
        for key in keys:
            for value in ("0", "-1", "1e300"):
                args = self._args(experiment) + ["--set", f"{key}={value}",
                                                 "--out", os.path.join(tmp_path, key + value)]
                assert cli.main(args) in (0, 1, 2), (key, value)
                capsys.readouterr()

    def test_nonpositive_step_or_horizon_is_config_error(self, tmp_path, capsys):
        cases = (("qubit-filter", "dt=0"), ("kalman-demo", "dt=-0.001"),
                 ("collective-cat", "T=0"), ("qubit-filter", "dt=nan"),
                 # counts, lists and the resampling kernel's ranges
                 ("particle-filter", "N=0"), ("collective-cat", "N=0"),
                 ("collective-squeeze", "N=-2"), ("qec-run", "n_traj=0"),
                 ("qec-benchmark", "n_traj=0"), ("magnetometer-fisher", "n_seeds=0"),
                 ("param-ensemble", "B_values="), ("magnetometer-fisher", "F_values="),
                 ("particle-filter", "a=1.5"), ("particle-filter", "h=-0.001"),
                 # rates, strengths, variances, spin sizes and the resampling threshold
                 ("collective-cat", "Gamma=-1"), ("collective-squeeze", "Gamma=-1"),
                 ("qubit-filter", "kappa=-1"), ("particle-filter", "kappa=0"),
                 ("param-ensemble", "kappa=-1"), ("qec-run", "kappa=-1"),
                 ("qec-benchmark", "gamma=-1"), ("magnetometer-fisher", "M=-1"),
                 ("magnetometer-kalman", "K=-1"), ("magnetometer-fisher", "K_values=0,-1"),
                 ("kalman-demo", "prior_var=-1"), ("particle-filter", "prior_var=-1"),
                 # a negative bound would reverse the bang-bang rule
                 ("qec-run", "lambda_max=-1"), ("qec-benchmark", "lambda_max=-1"),
                 ("magnetometer-kalman", "prior_var=-1"), ("magnetometer-fisher", "F_values=0.2"),
                 ("magnetometer-fisher", "F_values=10,0.4"), ("magnetometer-kalman", "F=0.2"),
                 ("particle-filter", "threshold=-1"), ("particle-filter", "threshold=1.5"),
                 # the Fisher finite-difference offset
                 ("magnetometer-fisher", "deltaB=0"))
        for experiment, item in cases:
            out = os.path.join(tmp_path, experiment)
            code = cli.main(["run", experiment, "--set", item, "--out", out])
            assert code == 1, (experiment, item)
            err = capsys.readouterr().err
            assert err.startswith("config error") and f"'{item.split('=')[0]}'" in err
            assert err.count("\n") == 1
            assert not os.path.exists(out)

    def test_retired_kernel_bandwidth_is_config_error(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "pf")
        code = cli.main(["run", "particle-filter", "--set", "h=0.199", "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("config error: config key 'h' is no longer accepted: the kernel"
                       " bandwidth now follows from a as sqrt(1 - a^2)\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("experiment,items,key", [
        ("collective-cat", ["T=0.0001"], "T"),
        ("magnetometer-kalman", ["T=0.0001"], "T"),
        ("qec-run", ["code=bitflip3", "T=0.00005", "n_traj=1"], "T"),
        ("collective-squeeze", ["N=10", "T=0.0001"], "T"),
        ("param-ensemble", ["T=0.00001", "store_every=5"], "T"),
        ("qubit-filter", ["store_every=0"], "store_every"),
        ("particle-filter", ["store_every=-3"], "store_every"),
        # every experiment takes at least one step
        ("particle-filter", ["T=0.00001", "dt=0.0001"], "T"),
        ("magnetometer-fisher", ["T=0.00001", "dt=0.0001"], "T"),
    ])
    def test_horizon_shorter_than_stride_is_config_error(self, tmp_path, capsys,
                                                         experiment, items, key):
        out = os.path.join(tmp_path, experiment)
        args = ["run", experiment, "--out", out]
        for item in items:
            args += ["--set", item]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"'{key}'" in err
        assert err.count("\n") == 1
        assert not os.path.exists(out)

    def test_worker_pool_no_larger_than_the_task_list(self, monkeypatch):
        # a process pool may start all its workers at the first submit
        asked = []

        class StubPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        assert cli._parallel_map(abs, [-1, -2, -3], 5000) == [1, 2, 3]
        assert cli._parallel_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert asked == [3, 2]

    def test_import_leaves_the_process_pool_out(self):
        # only --workers > 1 needs concurrent.futures, and importing it (with
        # logging) would cost every run's set-up several milliseconds
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        probe = "import sys, qfilt.cli; print(sorted(m for m in sys.modules if 'concurrent' in m))"
        out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_qec_code_help_lists_every_code(self):
        _conv, default, doc = cli.EXPERIMENTS["qec-run"]["schema"]["code"]
        assert doc == "code name (bitflip3, fivequbit, steane7)"
        assert default in cli.qec._CODES

    def test_retired_qec_benchmark_code_is_config_error(self, tmp_path, capsys):
        # the discrete-correction curve is the five-qubit code's closed form:
        # code=bitflip3 wrote that curve next to bitflip3's feedback run
        assert "code" not in cli.EXPERIMENTS["qec-benchmark"]["schema"]
        out = os.path.join(tmp_path, "qb")
        code = cli.main(["run", "qec-benchmark", "--set", "code=bitflip3", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: config key 'code' is no longer accepted: its discrete-correction"
            " curve is the five-qubit code's closed form; qec-run takes any code\n")
        assert not os.path.exists(out)

    def test_qec_record_stride_is_the_loop_constant(self):
        for experiment in ("qec-run", "qec-benchmark"):
            assert cli.EXPERIMENTS[experiment]["stride"]({}) == cli.qec.RECORD_EVERY == 10

    def test_integer_keys(self, tmp_path, capsys):
        params = cli.resolve_params("particle-filter", {"N": "30"})
        assert params["N"] == 30 and isinstance(params["N"], int)
        for experiment, key in (("particle-filter", "N"), ("qec-run", "n_traj"),
                                ("magnetometer-fisher", "n_seeds"),
                                ("qubit-filter", "store_every")):
            with pytest.raises(cli.ConfigError, match=key):
                cli.resolve_params(experiment, {key: "2.7"})
        code = cli.main(["run", "collective-cat", "--set", "N=2.7",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_manifest_contents(self, tmp_path):
        out = str(tmp_path)
        assert cli.main(["run", "kalman-demo", "--seed", "3", "--set", "T=0.5",
                         "--out", out]) == 0
        with open(os.path.join(out, "kalman-demo.manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["seed"] == 3
        assert manifest["outputs"] == ["kalman_demo.csv"]
        assert "config_hash" in manifest and len(manifest["config_hash"]) == 64
        assert manifest["versions"]["qfilt"]

    def test_csv_has_header_and_manifest_reference(self, tmp_path):
        out = str(tmp_path)
        cli.main(["run", "kalman-demo", "--set", "T=0.2", "--out", out])
        with open(os.path.join(out, "kalman_demo.csv")) as f:
            lines = f.read().strip().splitlines()
        assert lines[0].startswith("time,")
        assert lines[-1] == "# manifest: kalman-demo.manifest.json"

    def test_param_ensemble_weights_sum_to_one(self, tmp_path):
        out = str(tmp_path)
        assert cli.main(["run", "param-ensemble", "--set", "T=0.05",
                         "--set", "store_every=100", "--out", out]) == 0
        with open(os.path.join(out, "param_ensemble.csv")) as f:
            header = f.readline().strip().split(",")
            assert header[0] == "time" and all(h.startswith("w_") for h in header[1:])
            for line in f:
                if line.startswith("#"):
                    continue
                vals = [float(x) for x in line.strip().split(",")]
                assert abs(sum(vals[1:]) - 1.0) < 1e-9

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = os.path.join(tmp_path, "job.cfg")
        with open(cfg, "w") as f:
            f.write("xi_true = 2.0\nT = 0.5\n")
        out = str(tmp_path)
        assert cli.main(["run", "kalman-demo", "--config", cfg,
                         "--set", "xi_true=0.0", "--out", out]) == 0
        with open(os.path.join(out, "kalman-demo.manifest.json")) as f:
            manifest = json.load(f)
        assert float(manifest["config"]["xi_true"]) == 0.0
        assert float(manifest["config"]["T"]) == 0.5

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["run", "kalman-demo", "--set", "nope=1",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "nope" in capsys.readouterr().err
        # a bad value for a choice key
        code = cli.main(["run", "qec-run", "--set", "controller=bogus",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "controller" in capsys.readouterr().err
        out = os.path.join(tmp_path, "bogus-code")
        code = cli.main(["run", "qec-run", "--set", "code=bogus", "--out", out])
        assert code == 1
        assert "code" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("case", ["negative-seed", "config-dir", "config-bytes", "rate-dir",
                                      "out-file"])
    def test_bad_seed_or_path_is_one_config_error_line(self, tmp_path, case):
        # a negative seed exited 2 as a numeric failure, and each path raised
        # an OSError or UnicodeDecodeError traceback
        (tmp_path / "bad.cfg").write_bytes(b"T = 0.01\n\xff\n")
        run = ["run", "kalman-demo", "--set", "T=0.01", "--out", str(tmp_path / "out")]
        argv = {"negative-seed": run + ["--seed", "-1"],
                "config-dir": run + ["--config", str(tmp_path)],
                "config-bytes": run + ["--config", str(tmp_path / "bad.cfg")],
                "rate-dir": ["rate", str(tmp_path)],
                "out-file": run + ["--out", str(tmp_path / "bad.cfg")]}[case]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run([sys.executable, "-m", "qfilt.cli", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not os.path.exists(tmp_path / "out")

    def test_qec_benchmark_defaults_mirror_operating_point(self):
        schema = cli.EXPERIMENTS["qec-benchmark"]["schema"]
        assert schema["kappa"][1] == 100.0
        assert schema["lambda_max"][1] == 200.0
        assert schema["dt"][1] == 1e-5

    def test_collective_squeeze_runs(self, tmp_path):
        out = str(tmp_path)
        assert cli.main(["run", "collective-squeeze", "--set", "N=20",
                         "--set", "T=0.01", "--set", "dt=0.0005",
                         "--set", "store_every=5", "--out", out]) == 0
        data = np.genfromtxt(os.path.join(out, "collective_squeeze.csv"),
                             delimiter=",", skip_header=1, comments="#")
        assert data.shape[1] == 4
        assert np.all(data[:, 1] > 0)


class TestWriteCsv:
    def test_rows_match_per_entry_format(self, tmp_path):
        # every entry as _fmt writes it, one line per row
        special = [np.nan, np.inf, -np.inf, -0.0, 0.1, 1e-300, 2.5e17]
        columns = [
            np.array(special),  # float64 array
            [float(v) for v in special],  # Python floats
            [np.float64(v) for v in special],  # numpy scalars in a list
            np.array(special, dtype=np.float32),
            np.arange(-3, 4),  # int64 array
            [7, -1, 0, 2 ** 70, 3, 4, 5],  # Python ints
            np.array(["a", "b", "nan", "-0.0", "e", "f", "g"]),  # numpy str array
            ["x", "y", "z", "", "1.5", "w", "v"],
        ]
        header = [f"c{k}" for k in range(len(columns))]
        path = tmp_path / "t.csv"
        cli.write_csv(str(path), header, columns, "m.json")
        expect = [",".join(header)]
        expect += [",".join(cli._fmt(v) for v in row) for row in zip(*columns)]
        expect += ["# manifest: m.json"]
        assert path.read_text() == "\n".join(expect) + "\n"
        assert path.read_text().splitlines()[1].startswith("nan,nan,nan,nan,-3,7,a,x")
        # float32 entries are not floats, so _fmt writes their str
        assert path.read_text().splitlines()[4].startswith("-0,-0,-0,-0.0,0,")


class TestRate:
    def test_rate_postprocessing(self, tmp_path, capsys):
        out = str(tmp_path)
        cli.main(["run", "param-ensemble", "--set", "T=0.4",
                  "--set", "store_every=200", "--seed", "5", "--out", out])
        capsys.readouterr()  # drop the run summary
        code = cli.main(["rate", os.path.join(out, "param_ensemble.csv"),
                         "--alpha", "0.3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "time,rate"
        rates = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(r in (0.0, 1.0) for r in rates)

    def test_bad_input_is_one_config_error_line(self, tmp_path, capsys):
        header = "time,w_B=2,w_B=5\n"
        files = {"short.csv": header + "0.1,0.5,0.5\n0.2,0.6,0.4\n",
                 "long.csv": header + "0.1,0.5,0.5\n0.2,0.6,0.4\n0.3,0.7,0.3\n",
                 "text.csv": header + "0.1,0.5,0.5\n0.2,high,0.4\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text + "# manifest: m.json\n")
        cases = ((["short.csv", "long.csv"], "long.csv: its 3 rows do not have the times"),
                 (["text.csv"], "text.csv: line 3 is not a row of 3 numbers"))
        for names, message in cases:
            assert cli.main(["rate", *(str(tmp_path / n) for n in names)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and message in err
            assert err.count("\n") == 1
        assert cli.main(["rate", str(tmp_path / "short.csv"), str(tmp_path / "short.csv")]) == 0
        assert capsys.readouterr().out == "time,rate\n0.10000000000000001,0\n0.20000000000000001,0\n"
