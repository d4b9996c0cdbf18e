"""hc3cam: HIEROCRYPT-3 and Camellia (128-bit blocks and keys) plus a
cycle-level model of five FPGA datapath variants built on them.  Each
submodule is imported on its first attribute access (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

__all__ = ["archsim", "camellia", "ctab", "gf2", "gf256", "hc3",
           "ConstantsError", "ENV_CONSTANTS_DIR", "__version__"]


class ConstantsError(ValueError):
    """Raised for unparseable, corrupt, or structurally invalid constants."""


# names a directory whose hc3.ctab / camellia.ctab replace the packaged sets;
# both live here so that a command can name them without loading the .ctab
# reader (hc3cam.ctab re-exports them)
ENV_CONSTANTS_DIR = "HC3CAM_CONSTANTS_DIR"

_SUBMODULES = frozenset({"archsim", "camellia", "ctab", "gf2", "gf256", "hc3", "planes"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule on the package: this runs once
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
