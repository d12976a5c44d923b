"""List the statements of src/qfilt that no `qfilt run` experiment executes.

In one interpreter and under ``sys.settrace``, limited to the frames of
src/qfilt, the tool runs ``qfilt list`` once, with its output discarded, and
then every experiment through ``qfilt.cli.main`` with seed 7 at its
``TestRun.BYTE_CASES`` overrides, the table of tests/test_cli.py read as
``tools/byte_compare.py`` reads it, written to a ``--config`` file.  With
``--claims`` it then runs tests/test_claims.py under the same tracer (this
needs pytest).  The package is imported after the tracer starts, so its
module-level statements count too.

A statement counts as executed when a line of it ran, and a compound
statement (``def``, ``if``, ``for``, ...) when any line of its block ran.
Docstrings are not statements here, as in ``tools/src_lines.py``.  Per
module the tool prints its statement count, how many were not executed,
and each outermost statement that was not: its line range, its first line
and, if it holds more, its statement count.  A function whose body never
ran is one entry, marked "never called".  The tool uses the standard
library only, besides the package it traces; it exits 1 if an experiment
exits nonzero or a claim test fails, and 0 otherwise.

Usage:
    python tools/reach.py [--claims] [--experiments EXP ...]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict

_TOOLS = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_TOOLS)
_PACKAGE = os.path.join(_ROOT, "src", "qfilt")
sys.path.insert(0, _TOOLS)

from byte_compare import SEED, byte_cases  # noqa: E402
from src_lines import docstring_lines  # noqa: E402

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def tracer(root: str):
    """(trace function, hits): hits maps each file under ``root`` to the
    set of its line numbers that ran while the function was installed."""
    prefix = os.path.realpath(root) + os.sep
    inside, hits = {}, defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def new_frame(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return local if inside[name] else None

    return new_frame, hits


def _blocks(node: ast.stmt) -> list:
    """The statement lists nested in a compound statement."""
    blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(node, "handlers", [])]
    blocks += [c.body for c in getattr(node, "cases", [])]
    return [b for b in blocks if b]


def _count(stmts: list, skip: set) -> int:
    return sum(1 + sum(_count(b, skip) for b in _blocks(s)) for s in stmts
               if s.lineno not in skip)


def unexecuted(source: str, ran: set) -> tuple[int, list]:
    """(statement count, entries) of one module: each entry is the
    (first line, last line, statement line, statements held, never called)
    of an outermost statement of which no line is in ``ran``, or of a
    function whose body never ran; decorators count as lines of their
    function.  Docstrings are left out."""
    skip = docstring_lines(source)
    entries = []

    def walk(stmts):
        for s in stmts:
            if s.lineno in skip:
                continue
            start = min([s.lineno] + [d.lineno for d in getattr(s, "decorator_list", [])])
            span = range(start, s.end_lineno + 1)
            if not ran.intersection(span):
                entries.append((start, s.end_lineno, s.lineno, _count([s], skip), False))
            elif isinstance(s, _FUNCTIONS) and not ran.intersection(
                    range(s.body[0].lineno, s.end_lineno + 1)):
                entries.append((start, s.end_lineno, s.lineno, _count([s], skip), True))
            else:
                for block in _blocks(s):
                    walk(block)

    tree = ast.parse(source)
    walk(tree.body)
    return _count(tree.body, skip), entries


def run_experiments(names: list) -> list:
    """Run ``qfilt list``, then each experiment at its BYTE_CASES config,
    given as a config file; (name, exit code) pairs."""
    from qfilt import cli

    cases = byte_cases()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        codes = [("list", cli.main(["list"]))]
        for name in names:
            config = os.path.join(tmp, f"{name}.cfg")
            with open(config, "w", encoding="utf-8") as f:
                f.write("".join(f"{item}\n" for item in cases[name]))
            codes.append((name, cli.main(["run", name, "--seed", str(SEED), "--config", config,
                                          "--out", os.path.join(tmp, name)])))
    return codes


def run_claims() -> int:
    """pytest's exit code for tests/test_claims.py; its report goes to
    stderr, so that stdout holds only the tool's own."""
    import pytest

    with contextlib.redirect_stdout(sys.stderr):
        return int(pytest.main(["-q", "-p", "no:cacheprovider",
                                os.path.join(_ROOT, "tests", "test_claims.py")]))


def report(hits: dict, stream) -> None:
    total = missed = 0
    for name in sorted(os.listdir(_PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(_PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        ran = set().union(*(lines for file, lines in hits.items()
                            if os.path.realpath(file) == os.path.realpath(path)))
        count, entries = unexecuted(source, ran)
        lost = sum(n for *_, n, _never in entries)
        total, missed = total + count, missed + lost
        stream.write(f"{name}: {count} statements, {lost} not executed\n")
        lines = source.splitlines()
        for start, end, first, n, never in entries:
            where = f"L{start}" if start == end else f"L{start}-{end}"
            note = " [never called]" if never else ""
            held = f" [{n} statements]" if n > 1 else ""
            stream.write(f"  {where}: {lines[first - 1].strip()[:72]}{note}{held}\n")
    stream.write(f"total: {total} statements, {missed} not executed\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--claims", action="store_true",
                        help="also run tests/test_claims.py under the tracer")
    parser.add_argument("--experiments", nargs="+", metavar="EXP",
                        help="run only these experiments (default: every BYTE_CASES entry)")
    args = parser.parse_args(argv)
    names = args.experiments or list(byte_cases())
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    trace, hits = tracer(_PACKAGE)
    sys.settrace(trace)
    try:
        codes = run_experiments(names)
        claims = run_claims() if args.claims else 0
    finally:
        sys.settrace(None)
    failed = [f"{name} exited {code}" for name, code in codes if code]
    if claims:
        failed.append(f"tests/test_claims.py exited {claims}")
    sys.stdout.write(f"# ran {', '.join(names)} at their BYTE_CASES configs"
                     f"{' and tests/test_claims.py' if args.claims else ''}\n")
    report(hits, sys.stdout)
    for line in failed:
        sys.stderr.write(f"reach: {line}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
