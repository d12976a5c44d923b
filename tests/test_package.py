import importlib
import pkgutil

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
