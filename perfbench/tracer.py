"""Span tracer that wraps qfilt's public functions from outside the package.

Each call of a wrapped function records one span: the function, the job it
belongs to, its parent span, and its start and end on ``time.perf_counter``.
Spans are kept in memory in flat arrays and written out once, when the traced
process ends.  A span's self time is its duration minus the durations of its
direct child spans; the program is single-threaded, so child spans nest
strictly and never overlap.

Job id 0 is set-up; timed jobs are numbered from 1.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

SETUP_JOB = 0


class Tracer:
    def __init__(self, names: list[str]):
        """``names`` are ``"<module>.<function>"`` entries of qfilt."""
        self.names = list(names)
        self.job = SETUP_JOB
        self.fn = array("i")
        self.jobs = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = np.zeros(len(self.names), dtype=np.int64)
        self._stack = [-1]

    def _wrap(self, fn, idx: int):
        fns, jobs, parents = self.fn, self.jobs, self.parent
        starts, ends, stack, errors = self.start, self.end, self._stack, self.errors
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            fns.append(idx)
            jobs.append(tracer.job)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every named function and rebind every ``qfilt.*`` module
        attribute that refers to it, including names imported with
        ``from .x import f``.  Raises if any reference is left unwrapped."""
        originals = {}
        for idx, name in enumerate(self.names):
            module, _, func = name.rpartition(".")
            originals[id(getattr(importlib.import_module("qfilt." + module), func))] = idx
        wrapped = {}
        modules = [m for k, m in sys.modules.items() if k == "qfilt" or k.startswith("qfilt.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                idx = originals.get(id(value))
                if idx is None:
                    continue
                if idx not in wrapped:
                    wrapped[idx] = self._wrap(value, idx)
                setattr(mod, attr, wrapped[idx])
        left = [f"{mod.__name__}.{attr}" for mod in modules
                for attr, value in vars(mod).items() if id(value) in originals]
        if left or len(wrapped) != len(self.names):
            raise RuntimeError(f"tracing incomplete; unwrapped references: {left}")

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), fn=np.asarray(self.fn),
                 job=np.asarray(self.jobs), parent=np.asarray(self.parent),
                 start=np.asarray(self.start), end=np.asarray(self.end))

    def summary(self) -> dict:
        """Per-function calls and self time over the whole process, self
        time split into set-up and timed jobs, errors, and the time covered
        by top-level spans of timed jobs."""
        k = len(self.names)
        fn = np.asarray(self.fn)
        parent = np.asarray(self.parent)
        job = np.asarray(self.jobs)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        timed = job != SETUP_JOB
        return {
            "calls": np.bincount(fn, minlength=k).tolist(),
            "self_s": np.bincount(fn, weights=self_t, minlength=k).tolist(),
            "setup_self_s": np.bincount(fn[~timed], weights=self_t[~timed], minlength=k).tolist(),
            "timed_self_s": np.bincount(fn[timed], weights=self_t[timed], minlength=k).tolist(),
            "errors": self.errors.tolist(),
            "timed_covered_s": float(dur[timed & ~nested].sum()),
        }
