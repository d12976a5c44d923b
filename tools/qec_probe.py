"""Measure the set-up and closed-loop step cost of stabilizer codes, one
fresh interpreter each.

For each code a child interpreter imports ``qfilt.qec``, runs
``build_code`` and, with ``--basis``, ``build_truncated_basis``, and prints
one JSON line:

    code, n, syndromes    the code and its number of syndrome spaces
    build_s               wall time of build_code
    rss_import_mb         ru_maxrss after the import
    rss_build_mb          ru_maxrss after build_code
    basis_s, basis_size, residual, rss_basis_mb
                          with --basis: the basis build's wall time, element
                          count, verification residual and ru_maxrss after it

With ``--loop`` a child instead builds the code and its truncated basis and
times ``run_feedback_batch`` at B = 8 trajectories, one BLAS thread, with
the full and then the truncated controller.  Each controller first runs
ten warm-up increments (the first call builds the lazy tables and imports
``numpy.random``), then seven runs of 200 increments each; the line holds

    code, n, basis_size   the code and its truncated-basis element count
    full_ms, truncated_ms the fastest of those runs' wall time per increment
    policy_agreement      the truncated run's mean policy agreement
    full_step_ms, truncated_step_ms
                          each filter's step alone, compiled once and timed
                          the same way over 200 increments at B = 8 from the
                          logical zero, with fixed feedback strengths and
                          signals and drawn record increments

The fastest run is reported because load from other processes only ever
adds time to a run.

Shor's [[9,1,3]] code (``shor9``), and Steane's [[7,1,3]] code
(``steane7``) where the checkout measured does not ship it, are added to
``qec._CODES`` inside the child only.  Each child's address space is capped
at ``LIMIT_MB``; a child that fails, for instance by running into the cap,
prints its error in place of the numbers.

Usage:
    python tools/qec_probe.py [CODE ...] [--basis | --loop] [--src DIR]

CODE defaults to bitflip3 fivequbit steane7 shor9, and to bitflip3
fivequbit steane7 with ``--loop`` (shor9's basis build stops on a singular
Gram matrix); ``--src`` is the directory holding the ``qfilt`` package
(default: this checkout's src), so that another checkout can be measured
with the same probe.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

LIMIT_MB = 4096
EXTRA_CODES = {
    "steane7": {"generators": ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"],
                "logical_z": "ZZZZZZZ"},
    "shor9": {"generators": ["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
                             "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"],
              "logical_z": "XXXXXXXXX"},
}

CHILD = """
import json, resource, sys, time
name, basis, limit_mb, extra = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3]), sys.argv[4]
resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))
rss = lambda: round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
from qfilt import qec
out = {"code": name, "rss_import_mb": rss()}
for key, spec in json.loads(extra).items():
    qec._CODES.setdefault(key, spec)
try:
    t = time.perf_counter()
    code = qec.build_code(name)
    out.update(n=code.n, syndromes=code.n_syndromes, build_s=round(time.perf_counter() - t, 4),
               rss_build_mb=rss())
    if basis:
        t = time.perf_counter()
        b = qec.build_truncated_basis(code)
        out.update(basis_s=round(time.perf_counter() - t, 4), basis_size=b.size,
                   residual=b.verification_residual, rss_basis_mb=rss())
except Exception as e:
    out["error"] = f"{type(e).__name__}: {e}"
print(json.dumps(out))
"""

LOOP_CHILD = """
import json, resource, sys, time
import numpy as np
name, limit_mb, extra = sys.argv[1], int(sys.argv[2]), sys.argv[3]
steps, repeats, batch, dt = 200, 7, 8, 1e-5
resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))
from qfilt import qec
for key, spec in json.loads(extra).items():
    qec._CODES.setdefault(key, spec)
code = qec.build_code(name)
basis = qec.build_truncated_basis(code)
out = {"code": name, "n": code.n, "basis_size": basis.size}
for controller in ("full", "truncated"):
    def run(n_steps, seed):
        return qec.run_feedback_batch(code, 1.0, 100.0, 200.0, n_steps * dt, dt, seed, batch,
                                      controller=controller, basis=basis)
    run(10, 0)
    times = []
    for seed in range(1, repeats + 1):
        t = time.perf_counter()
        res = run(steps, seed)
        times.append((time.perf_counter() - t) / steps)
    out[f"{controller}_ms"] = round(1e3 * min(times), 4)
out["policy_agreement"] = round(float(res["policy_agreement"].mean()), 4)
psi = qec.logical_zero(code)
rho0 = np.outer(psi, psi.conj())
r0 = np.broadcast_to(code.pauli.to_pauli(rho0), (batch, code.dim ** 2))
p0 = np.broadcast_to(basis.initial_state(rho0), (batch, basis.size))
lambdas = np.full((batch, len(code.channel_labels)), 200.0)
signal = np.zeros((batch, code.n_generators))
dQ = np.random.default_rng(0).standard_normal((steps, batch, code.n_generators)) * np.sqrt(dt)
def full_steps():
    full = qec._FullStep(code.pauli, r0, 1.0, 100.0, dt)
    t = time.perf_counter()
    for dq in dQ:
        full.step(dq, lambdas, signal)
    return time.perf_counter() - t
def truncated_steps():
    step, p = qec._TruncatedStep(basis, 1.0, 100.0, dt), p0.copy()
    t = time.perf_counter()
    for dq in dQ:
        p = step(p, dq, lambdas)
    return time.perf_counter() - t
for key, timed in (("full_step_ms", full_steps), ("truncated_step_ms", truncated_steps)):
    out[key] = round(1e3 * min(timed() for _ in range(repeats)) / steps, 4)
print(json.dumps(out))
"""
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("codes", nargs="*")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--basis", action="store_true", help="also build the truncated basis")
    mode.add_argument("--loop", action="store_true",
                      help="time the closed loop per increment instead")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    if args.loop:
        env.update(dict.fromkeys(THREADS, "1"))
    codes = args.codes or ["bitflip3", "fivequbit", "steane7"] + ["shor9"] * (not args.loop)
    for name in codes:
        child = [LOOP_CHILD, name] if args.loop else [CHILD, name, str(int(args.basis))]
        proc = subprocess.run([sys.executable, "-c", *child, str(LIMIT_MB),
                               json.dumps(EXTRA_CODES)],
                              env=env, capture_output=True, text=True)
        print(proc.stdout.strip() or json.dumps({"code": name, "error": proc.stderr.strip()}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
