"""Compare the outputs of every `qfilt run` experiment in two checkouts.

Each experiment runs with seed 7 at its ``TestRun.BYTE_CASES`` overrides, the
table in this repository's tests/test_cli.py (read as text, not imported),
once in PARENT and once in CHANGE, each with its own checkout's ``src`` on
PYTHONPATH.  Every CSV must be byte-identical, and each manifest equal once
``versions.qfilt`` is set aside.  ``--defaults EXP ...`` runs the named
experiments at their default configs instead.  One line per experiment is
printed; the tool exits 1 if any output differs, a file is missing on one
side or a run fails, and 0 otherwise.

Usage:
    python tools/byte_compare.py PARENT CHANGE [--defaults EXP ...]
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile

SEED = 7
_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def byte_cases() -> dict:
    """TestRun.BYTE_CASES of tests/test_cli.py: experiment -> --set items."""
    with open(os.path.join(_ROOT, "tests", "test_cli.py")) as f:
        tree = ast.parse(f.read())
    run = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "TestRun")
    table = next(node for node in run.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["BYTE_CASES"])
    return ast.literal_eval(table.value)


def run_case(checkout: str, experiment: str, items: list, outdir: str) -> int:
    """Exit code of ``qfilt run experiment`` in checkout, writing to outdir."""
    sets = [arg for item in items for arg in ("--set", item)]
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-m", "qfilt.cli", "run", experiment, *sets,
                           "--seed", str(SEED), "--out", outdir],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.returncode


def _manifest(path: str) -> dict:
    with open(path) as f:
        manifest = json.load(f)
    manifest.get("versions", {}).pop("qfilt", None)
    return manifest


def compare(parent_dir: str, change_dir: str) -> list:
    """Names of the files that differ or exist on one side only."""
    names = sorted(set(os.listdir(parent_dir)) | set(os.listdir(change_dir)))
    bad = []
    for name in names:
        a, b = os.path.join(parent_dir, name), os.path.join(change_dir, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            bad.append(name)
        elif name.endswith(".manifest.json"):
            if _manifest(a) != _manifest(b):
                bad.append(name)
        else:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    bad.append(name)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--defaults", nargs="+", metavar="EXP",
                        help="run these experiments at their default configs")
    args = parser.parse_args(argv)
    cases = {name: [] for name in args.defaults} if args.defaults else byte_cases()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for experiment, items in cases.items():
            dirs = []
            for side in ("parent", "change"):
                outdir = os.path.join(tmp, experiment, side)
                code = run_case(os.path.abspath(getattr(args, side)), experiment, items, outdir)
                dirs.append(outdir if code == 0 else None)
            bad = ["run failed"] if None in dirs else compare(*dirs)
            line = (f"differs: {', '.join(bad)}" if bad else
                    f"identical ({len(os.listdir(dirs[0]))} files, versions.qfilt aside)")
            failures += bool(bad)
            print(f"{experiment} {' '.join(items) or '(defaults)'}: {line}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
