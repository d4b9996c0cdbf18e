"""Every name a package exports resolves, so a deleted function cannot
leave a stale entry in __all__."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["hc3cam", "hc3cam.hc3", "hc3cam.camellia"])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
