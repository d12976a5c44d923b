import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

from qfilt import cli
from qfilt import estimation as est
from qfilt import qec

_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", "tools", "bench_pairs.py")
byte_compare = _load("byte_compare", "tools", "byte_compare.py")
workloads = _load("perfbench_workloads", "perfbench", "workloads.py")


class TestBenchmarkPins:
    """The benchmark wraps the functions it traces by name and calls some
    library functions positionally; both must keep resolving."""

    def test_traced_names_are_distinct_functions(self):
        fns = [getattr(importlib.import_module("qfilt." + name.rpartition(".")[0]),
                       name.rpartition(".")[2], None) for name in workloads.TRACED]
        assert all(inspect.isfunction(fn) for fn in fns), \
            [n for n, fn in zip(workloads.TRACED, fns) if not inspect.isfunction(fn)]
        assert len({id(fn) for fn in fns}) == len(fns)

    @pytest.mark.parametrize("fn,args,kwargs", [
        (cli.run_experiment, ("qubit-filter", {}, 0, 1, "out"), {}),
        (est.particle_filter_run, (None, None, 200, 0.98, 1e-3, 2.0 / 3.0, 0), {}),
        (est.simulate_qubit_record, (1.0, 5.0, 3.0, 2e-3, 0), {}),
        (qec.run_feedback_batch, (None, 1.0, 100.0, 200.0, 0.0075, 1e-5, 0, 1),
         {"controller": "truncated", "basis": None}),
    ], ids=["run_experiment", "particle_filter_run", "simulate_qubit_record",
            "run_feedback_batch"])
    def test_positional_calls_bind(self, fn, args, kwargs):
        inspect.signature(fn).bind(*args, **kwargs)

    def test_small_state_reaches_every_pinned_function(self, tmp_path):
        # one traced small-state repetition, run the way the benchmark runs it
        env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, os.path.join(_ROOT, "perfbench", "worker.py"), "rep",
             "--workload", "small-state", "--seed", "1", "--out", str(tmp_path), "--trace"],
            env=env, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        calls = dict(zip(workloads.TRACED, result["trace"]["calls"]))
        assert [n for n in workloads.WORKLOADS["small-state"].expected if not calls[n]] == []
        assert result["problems"] == {}


def run(steps_per_s, correct=True, failed=0, job_best_s=None, job_median_s=None):
    return {"steps_per_s": steps_per_s, "setup_s": 0.2, "peak_rss_mb": 36.0,
            "correct": correct, "failed": failed, "attempted": 10,
            "job_best_s": job_best_s or {}, "job_median_s": job_median_s or job_best_s or {}}


def pair(seed, parent, change):
    return {"seed": seed, "first": "parent", "parent": parent, "change": change}


class TestSummarize:
    def test_all_correct_pairs(self):
        pairs = [pair(1, run(100.0), run(120.0)), pair(2, run(110.0), run(121.0)),
                 pair(3, run(90.0), run(80.0))]
        summary = bench_pairs.summarize(pairs)
        assert summary["incorrect_runs"] == {"parent": 0, "change": 0}
        s = summary["steps_per_s"]
        assert s["pairs"] == 3 and s["change_better_pairs"] == 2
        assert s["parent"]["median"] == 100.0 and s["change"]["median"] == 120.0
        assert s["ratio_of_medians"] == pytest.approx(1.2)

    def test_incorrect_runs_are_counted_and_left_out(self):
        # a fast run whose outputs failed their checks must not count as a win
        pairs = [pair(1, run(100.0), run(120.0)), pair(2, run(100.0), run(900.0, correct=False)),
                 pair(3, run(100.0, failed=2), run(110.0)), pair(4, run(100.0), run(130.0))]
        summary = bench_pairs.summarize(pairs)
        assert summary["incorrect_runs"] == {"parent": 1, "change": 1}
        s = summary["steps_per_s"]
        assert s["pairs"] == 2 and s["change_better_pairs"] == 2
        assert s["change"]["median"] == 125.0

    def test_jobs_show_which_job_moved(self):
        # per job, over the correct pairs only: each side's median best time,
        # their ratio and the pairs in which the change ran faster, and the
        # same over each run's median repetition
        pairs = [pair(k, run(100.0, job_best_s={"a": 0.10, "b": b},
                             job_median_s={"a": 0.12, "b": 0.30}),
                      run(120.0, job_best_s={"a": a, "b": 0.20},
                          job_median_s={"a": 0.12 + k, "b": 0.15}))
                 for k, (a, b) in enumerate([(0.05, 0.20), (0.06, 0.21), (0.11, 0.19)])]
        pairs.append(pair(9, run(100.0, job_best_s={"a": 9.0, "b": 9.0}),
                          run(900.0, correct=False, job_best_s={"a": 0.0, "b": 0.0})))
        jobs = bench_pairs.summarize(pairs)["jobs"]
        assert jobs["a"] == {"parent_median_s": 0.10, "change_median_s": 0.06,
                             "ratio_of_medians": pytest.approx(0.6), "change_better_pairs": 2,
                             "median_rep": {"parent_median_s": 0.12, "change_median_s": 1.12,
                                            "ratio_of_medians": pytest.approx(1.12 / 0.12),
                                            "change_better_pairs": 0}}
        assert jobs["b"]["ratio_of_medians"] == pytest.approx(1.0)
        assert jobs["b"]["change_better_pairs"] == 1
        assert jobs["b"]["median_rep"]["ratio_of_medians"] == pytest.approx(0.5)
        assert jobs["b"]["median_rep"]["change_better_pairs"] == 3

    def test_end_to_end_records_best_and_median_repetition(self):
        result = {"correct": True, "failed": 0, "attempted": 3,
                  "metrics": {name: {"value": 1.0} for name in bench_pairs.METRICS}}
        record = bench_pairs.end_to_end(result, {"a": [0.3, 0.1, 0.2, 0.5]})
        assert record["job_best_s"] == {"a": 0.1}
        assert record["job_median_s"] == {"a": pytest.approx(0.25)}

    def test_no_correct_pair_leaves_only_the_counts(self):
        summary = bench_pairs.summarize([pair(1, run(100.0), run(120.0, correct=False))])
        assert summary == {"incorrect_runs": {"parent": 0, "change": 1}}

    def test_trace_records_have_no_failed_count(self):
        assert bench_pairs.incorrect({"seed": 1, "correct": False, "metrics": {}})
        assert not bench_pairs.incorrect({"seed": 1, "correct": True, "metrics": {}})


class TestMain:
    @staticmethod
    def fake_run(monkeypatch, bad_side):
        def run_once(checkout, workload, seed, seconds, trace):
            side = os.path.basename(checkout)
            result = {"correct": side != bad_side, "failed": 0, "attempted": 5,
                      "metrics": {name: {"value": 1.0} for name in bench_pairs.METRICS}}
            return {"cpus": "2"}, result, {"job": [0.01, 0.02]}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        monkeypatch.setattr(bench_pairs, "package_version",
                            lambda checkout: "v-" + os.path.basename(checkout))
        monkeypatch.setattr(bench_pairs, "git_head", lambda checkout: None)

    @pytest.mark.parametrize("bad_side,code", [(None, 0), ("parent", 0), ("change", 1)])
    def test_exit_code_and_record(self, tmp_path, monkeypatch, capsys, bad_side, code):
        self.fake_run(monkeypatch, bad_side)
        out = str(tmp_path / "bench.json")
        argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                "--seeds", "1-2", "--seconds", "1", "--out", out]
        assert bench_pairs.main(argv) == code
        with open(out) as f:
            bench = bench_pairs.json.load(f)
        assert bench["version"] == "v-change" and bench["parent_version"] == "v-parent"
        expect = {"parent": 0, "change": 0}
        if bad_side:
            expect[bad_side] = 2
        assert bench["summary"]["w"]["incorrect_runs"] == expect
        assert f"w incorrect runs (in no statistic): parent {expect['parent']}, " \
               f"change {expect['change']}" in capsys.readouterr().out

    def test_trace_records_every_seed_and_the_median(self, tmp_path, monkeypatch):
        # one layer that both sides record, one only the change records on
        # one seed, and one no run records
        def run_once(checkout, workload, seed, seconds, trace):
            change = os.path.basename(checkout) == "change"
            metrics = {"a.self_s": 10.0 * seed + change, "b.calls": float(change and seed == 2),
                       "c.calls": 0.0}
            result = {"correct": not (change and seed == 3),
                      "metrics": {k: {"value": v} for k, v in metrics.items()}}
            return {"cpus": "2"}, result, {"job": [0.01]}

        self.fake_run(monkeypatch, None)
        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        out = str(tmp_path / "bench.json")
        argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w-x",
                "--seeds", "1-3", "--trace", "1", "--out", out]
        assert bench_pairs.main(argv) == 1
        with open(out) as f:
            trace = bench_pairs.json.load(f)["trace_w_x"]
        assert trace["seeds"] == [1, 2, 3]
        assert trace["parent"] == {"correct": [True] * 3, "metrics": {
            "a.self_s": {"values": [10.0, 20.0, 30.0], "median": 20.0}}}
        assert trace["change"] == {"correct": [True, True, False], "metrics": {
            "a.self_s": {"values": [11.0, 21.0, 31.0], "median": 21.0},
            "b.calls": {"values": [0.0, 1.0, 0.0], "median": 0.0}}}


class TestReach:
    def test_kalman_demo_reach(self):
        # one tiny experiment in a fresh interpreter, so that the package's
        # module-level statements are traced too
        proc = subprocess.run([sys.executable, os.path.join(_ROOT, "tools", "reach.py"),
                               "--experiments", "kalman-demo"],
                              capture_output=True, text=True, check=True)
        out = proc.stdout.splitlines()
        assert out[0] == "# ran kalman-demo at their BYTE_CASES configs"
        counts = {line.split(":")[0]: line for line in out if not line.startswith(("#", " "))}
        assert set(counts) == {name for name in os.listdir(os.path.join(_ROOT, "src", "qfilt"))
                               if name.endswith(".py")} | {"total"}
        assert counts["__init__.py"] == "__init__.py: 1 statements, 0 not executed"
        kalman = out[out.index(counts["kalman.py"]) + 1:out.index(counts["magnetometry.py"])]
        # the demo's model is constant, so the per-step propagator branch never runs
        assert any("np.broadcast_to(e, (2 * steps,)" in line for line in kalman)
        # and the filter itself does run
        assert not any("kalman_correlated_step" in line or "def kalman_filter" in line
                       for line in kalman)
        qec = out[out.index(counts["qec.py"]) + 1:out.index(counts["sde.py"])]
        assert any("def run_feedback_batch(" in line and "[never called]" in line
                   for line in qec)
        # the overrides go through a config file, and `qfilt list` runs once
        cli = out[out.index(counts["cli.py"]) + 1:out.index(counts["collective.py"])]
        assert not any(f"def {name}(" in line for line in cli
                       for name in ("parse_config_text", "list_experiments", "_lines"))

    def test_rate_runs_after_param_ensemble(self):
        # `qfilt rate` is a command too: its code is not reported unreached
        proc = subprocess.run([sys.executable, os.path.join(_ROOT, "tools", "reach.py"),
                               "--experiments", "param-ensemble"],
                              capture_output=True, text=True, check=True)
        out = proc.stdout.splitlines()
        counts = {line.split(":")[0]: line for line in out if not line.startswith(("#", " "))}
        cli = out[out.index(counts["cli.py"]) + 1:out.index(counts["collective.py"])]
        assert any("def _run_kalman_demo(" in line for line in cli)
        assert not any("convergence_rate" in line for line in cli)

    def test_statement_count_leaves_docstrings_out(self):
        reach = _load("reach", "tools", "reach.py")
        source = ('"""Module."""\n\n\ndef f(x):\n    """Doc."""\n    if x:\n'
                  '        return 1\n    return 2\n\n\ndef g():\n    return 3\n')
        count, entries = reach.unexecuted(source, {4, 6, 8, 11})
        assert count == 6
        # the if body never ran; g was defined, never called
        assert entries == [(7, 7, 7, 1, False), (11, 12, 11, 2, True)]


class TestByteCompare:
    def test_reads_the_cli_tests_case_table(self):
        test_cli = _load("test_cli_cases", "tests", "test_cli.py")
        assert byte_compare.byte_cases() == test_cli.TestRun.BYTE_CASES

    @staticmethod
    def fake_run(monkeypatch, change_csv, change_version):
        """A run that writes one CSV and its manifest; the change side's CSV
        bytes and qfilt version are given."""
        def run_case(checkout, experiment, items, outdir):
            change = os.path.basename(checkout) == "change"
            os.makedirs(outdir)
            with open(os.path.join(outdir, f"{experiment}.csv"), "wb") as f:
                f.write(change_csv if change else b"t,x\n0,1\n")
            manifest = {"experiment": experiment, "seed": 7,
                        "versions": {"numpy": "2", "qfilt": change_version if change else "1"}}
            with open(os.path.join(outdir, f"{experiment}.manifest.json"), "w") as f:
                byte_compare.json.dump(manifest, f)
            return 0

        monkeypatch.setattr(byte_compare, "run_case", run_case)

    @pytest.mark.parametrize("change_csv,change_version,code,line", [
        (b"t,x\n0,1\n", "1", 0, "identical (2 files, versions.qfilt aside)"),
        (b"t,x\n0,2\n", "1", 1, "differs: demo.csv"),
        (b"t,x\n0,1\n", "2", 0, "identical (2 files, versions.qfilt aside)"),
    ], ids=["identical", "one-byte-csv-change", "version-only"])
    def test_exit_code(self, tmp_path, monkeypatch, capsys, change_csv, change_version, code,
                       line):
        self.fake_run(monkeypatch, change_csv, change_version)
        argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--defaults", "demo"]
        assert byte_compare.main(argv) == code
        assert capsys.readouterr().out == f"demo (defaults): {line}\n"
