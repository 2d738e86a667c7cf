"""Every error the library raises shares one base, ``obdd.QobddError``."""

import importlib
import inspect
import pkgutil

import qobdd
from qobdd.obdd import QobddError


def test_every_library_error_derives_from_qobdd_error():
    errors = {}
    for info in pkgutil.iter_modules(qobdd.__path__):
        module = importlib.import_module(f"qobdd.{info.name}")
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and issubclass(cls, Exception):
                if cls.__module__ == module.__name__:
                    errors[f"{info.name}.{name}"] = cls
    assert {"obdd.ObddError", "proof.TraceParseError", "cli.UsageError"} <= set(errors)
    # a usage error belongs to the command line, not to the library
    del errors["cli.UsageError"]
    for name, cls in errors.items():
        assert issubclass(cls, QobddError), name
