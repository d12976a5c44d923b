import importlib
import inspect
import os
import pkgutil
import re

import qfilt


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


def test_version_matches_pyproject():
    # read with a regex: tomllib needs Python 3.11 and the package supports 3.10
    path = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    with open(path, encoding="utf-8") as f:
        version = re.search(r'^version\s*=\s*"([^"]+)"', f.read(), re.MULTILINE).group(1)
    assert version == qfilt.__version__
