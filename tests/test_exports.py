"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import liftlab


def test_every_name_in_all_resolves():
    missing = []
    for info in pkgutil.iter_modules(liftlab.__path__):
        module = importlib.import_module(f"liftlab.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing
