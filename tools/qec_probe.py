"""Measure the set-up cost of stabilizer codes, one fresh interpreter each.

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

Steane's [[7,1,3]] code (``steane7``) and Shor's [[9,1,3]] code (``shor9``)
are patched into ``qec._CODES`` inside the child only.  Each child's
address space is capped at ``LIMIT_MB``; a child that fails, for instance by
running into the cap, prints its error in place of the numbers.

Usage:
    python tools/qec_probe.py [CODE ...] [--basis] [--src DIR]

CODE defaults to bitflip3 fivequbit steane7 shor9; ``--src`` is the
directory holding the ``qfilt`` package (default: this checkout's src), so
that another checkout can be measured with the same probe.
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
qec._CODES.update(json.loads(extra))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("codes", nargs="*", default=["bitflip3", "fivequbit", "steane7", "shor9"])
    parser.add_argument("--basis", action="store_true", help="also build the truncated basis")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    for name in args.codes:
        proc = subprocess.run([sys.executable, "-c", CHILD, name, str(int(args.basis)),
                               str(LIMIT_MB), json.dumps(EXTRA_CODES)],
                              env=env, capture_output=True, text=True)
        print(proc.stdout.strip() or json.dumps({"code": name, "error": proc.stderr.strip()}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
