"""hc3cam: HIEROCRYPT-3 and Camellia (128-bit blocks and keys) plus a
cycle-level model of five FPGA datapath variants built on them.  Each
submodule is imported on its first attribute access (PEP 562)."""

from importlib import import_module

from .ctab import ConstantsError

__version__ = "0.1.0"

__all__ = ["archsim", "camellia", "ctab", "gf2", "gf256", "hc3",
           "ConstantsError", "__version__"]

_SUBMODULES = frozenset({"archsim", "camellia", "gf2", "gf256", "hc3", "planes"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule on the package: this runs once
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
