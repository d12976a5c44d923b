"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py rep --workload W --seed S --t0 NS --out DIR [--trace]
    python3 perfbench/worker.py cli-contract --seed S --out DIR

``run.py`` starts it with PYTHONPATH at the checkout's ``src`` and the BLAS
thread count capped.  ``--t0`` is ``time.monotonic_ns()`` taken by the parent
just before starting this process, so set-up time counts interpreter start.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import resource
import sys
import time


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this process, if it is loaded."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_rep(args) -> dict:
    from workloads import LAYERS, TRACED, WORKLOADS

    workload = WORKLOADS[args.workload]
    for module in (LAYERS if args.trace else workload.modules):
        importlib.import_module("qfilt." + module)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(TRACED)
        tracer.install()
    os.makedirs(args.out, exist_ok=True)
    jobs = workload.jobs(args.seed, args.out)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9

    outputs, errors, times = [], [], []
    for i, job in enumerate(jobs, 1):
        if tracer:
            tracer.job = i
        start = time.perf_counter()
        try:
            outputs.append(job.run())
            errors.append(None)
        except Exception as e:  # a failed job is counted, not fatal
            outputs.append(None)
            errors.append(f"{type(e).__name__}: {e}")
        times.append(time.perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = {}
    agreement = []
    for job, out, err in zip(jobs, outputs, errors):
        if err is None:
            try:
                found = job.check(out)
            except Exception as e:
                found = [f"check raised {type(e).__name__}: {e}"]
            if isinstance(out, dict) and "policy_agreement" in out:
                agreement.append(float(out["policy_agreement"].mean()))
        else:
            found = [err]
        if found:
            problems[job.name] = found

    result = {
        "setup_s": setup_s,
        "timed_s": sum(times),
        "steps": sum(job.steps for job in jobs),
        "peak_rss_mb": peak_rss_mb,
        "jobs": {job.name: t for job, t in zip(jobs, times)},
        "problems": problems,
        "policy_agreement": sum(agreement) / len(agreement) if agreement else None,
        "blas_threads": blas_threads(),
    }
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write(os.path.join(args.out, "spans.npz"))
    return result


def cli_contract(args) -> dict:
    """Run every `qfilt run` experiment through `qfilt.cli.main` at its
    smallest horizon with one trajectory/seed, recording exit status and
    exception.  The horizon is one step, except ten for qec-* experiments,
    whose runner records every tenth step and would otherwise return an empty
    record."""
    from qfilt import cli

    results = []
    for name, info in cli.EXPERIMENTS.items():
        schema = info["schema"]
        sets = {"T": repr(schema["dt"][1] * (10 if name.startswith("qec-") else 1))}
        sets.update({k: "1" for k in ("store_every", "n_traj", "n_seeds") if k in schema})
        argv = ["run", name, "--seed", str(args.seed), "--workers", "1",
                "--out", os.path.join(args.out, name)]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        err = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except SystemExit as e:
            status = e.code
        except Exception as e:  # an uncaught exception exits `qfilt` with status 1
            status = 1
            error = f"{type(e).__name__}: {e}"
        if status != 0 and error is None:
            lines = err.getvalue().strip().splitlines()
            error = lines[-1] if lines else f"exit status {status}"
        results.append({"experiment": name, "status": status, "error": error})
    return {"experiments": results}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["rep", "cli-contract"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = run_rep(args) if args.mode == "rep" else cli_contract(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
