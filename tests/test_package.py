import ast
import importlib
import inspect
import os
import pkgutil
import re

import numpy as np

import qfilt
from qfilt import magnetometry as mag
from qfilt import operators as op
from qfilt import qec
from qfilt import trajectory as traj


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from qfilt.<module> import *`
    missing = {}
    for info in pkgutil.iter_modules(qfilt.__path__):
        module = importlib.import_module(f"qfilt.{info.name}")
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if stale:
            missing[info.name] = stale
    assert not missing


def test_every_public_definition_is_exported():
    # a public function or class missing from __all__ is left out of
    # `from qfilt.<module> import *`
    unlisted = {}
    for info in pkgutil.iter_modules(qfilt.__path__):
        module = importlib.import_module(f"qfilt.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        defined = [n for n, obj in vars(module).items()
                   if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__]
        missing = sorted(set(defined) - set(module.__all__))
        if missing:
            unlisted[info.name] = missing
    assert not unlisted


def test_each_test_oracle_has_one_copy():
    # no name defined in tests/reference.py is also a package module's
    # name, export or class member
    with open(os.path.join(os.path.dirname(__file__), "reference.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    oracles = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    oracles |= {t.id for n in tree.body if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)}
    assert oracles
    for info in pkgutil.iter_modules(qfilt.__path__):
        module = importlib.import_module(f"qfilt.{info.name}")
        names = {*vars(module), *getattr(module, "__all__", ())}
        names.update(*(vars(c) for c in vars(module).values()
                       if inspect.isclass(c) and c.__module__ == module.__name__))
        assert not oracles & names, info.name


def test_version_matches_pyproject():
    # read with a regex: tomllib needs Python 3.11 and the package supports 3.10
    path = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    with open(path, encoding="utf-8") as f:
        version = re.search(r'^version\s*=\s*"([^"]+)"', f.read(), re.MULTILINE).group(1)
    assert version == qfilt.__version__


def test_no_per_increment_path_calls_einsum(monkeypatch):
    # at these state sizes np.einsum's per-call overhead exceeds the
    # arithmetic of one increment, so every per-increment path avoids it
    code = qec.build_code("bitflip3")
    basis = qec.build_truncated_basis(code)
    qubit = traj.qubit_model(1.0, 0.3)
    params = mag.DoublePassParams(F=2.0, M=1.0, K=0.5)
    double_pass = mag.double_pass_model(params)
    rho = op.pure_to_density(op.spin_coherent(0.5, np.pi / 2, 0.0))
    psi = mag.coherent_x(params.F)

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called on a per-increment path")

    monkeypatch.setattr(np, "einsum", refuse)
    rhos, psis = np.stack([rho] * 4), np.broadcast_to(psi, (2, 3, len(psi)))
    G3 = np.stack([double_pass.G] * 3)
    for _ in range(3):
        rho = traj.sme_step_batch(qubit.G, qubit.channels, rho, 0.01, 1e-4)
        rhos = traj.sme_step_batch(qubit.G, qubit.channels, rhos, np.full(4, 0.01), 1e-4)
        psi = traj.sse_step_batch(double_pass.G, double_pass.channels, psi, 0.01, 1e-4)
        psis = traj.sse_step_batch(G3, double_pass.channels, psis, np.full((2, 1), 0.01), 1e-4)
    traj.simulate_truth(qubit, rho, 3e-4, 1e-4, seed=1, observables={"sz": op.SIGMA_Z})
    mag.simulate_double_pass_truth(params, 3e-4, 1e-4, seed=1)
    mag.fisher_information_fd(params, 1e-3, 3e-4, 1e-4, seeds=[1, 2])
    for controller in ("full", "truncated"):
        qec.run_feedback_batch(code, 1.0, 100.0, 200.0, 3e-5, 1e-5, 1, 2,
                               controller=controller, basis=basis)
