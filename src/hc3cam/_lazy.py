"""Lazy public names of a package split by engine (PEP 562); hc3cam
itself, which a command that runs no cipher loads, does without it."""

import sys
from importlib import import_module


def exports(package: str, table: dict[str, str]):
    """__all__, __getattr__ and __dir__ of a package whose public names
    table[m] (space-separated) live in its submodule m.  The first read of
    a name imports m alone and binds the name in the package's globals,
    so every later read is a plain one; a submodule's name imports it."""
    where = {name: module for module, names in table.items() for name in names.split()}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name in table:
            return import_module(f".{name}", package)
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f".{where[name]}", package), name)
        return value

    def __dir__():
        return sorted({*namespace, *where})

    return sorted(where), __getattr__, __dir__
