"""Every name a package exports resolves, so a deleted function cannot
leave a stale entry in __all__; the cipher packages resolve theirs on
first read from the submodule that holds them."""

import importlib
import pkgutil

import pytest


@pytest.mark.parametrize("package", ["hc3cam", "hc3cam.hc3", "hc3cam.camellia"])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


LAZY = ["hc3cam.hc3", "hc3cam.camellia"]


def submodules(package):
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


@pytest.mark.parametrize("package", LAZY)
def test_lazy_names_are_their_submodules_objects(package):
    module = importlib.import_module(package)
    subs = submodules(module)
    for name in module.__all__:
        value = getattr(module, name)
        holders = [sub for sub in subs if name in vars(sub)]
        assert holders, name
        assert all(vars(sub)[name] is value for sub in holders), name
        # the first read bound the name on the package
        assert vars(module)[name] is value


@pytest.mark.parametrize("package", LAZY)
def test_lazy_names_are_listed_and_star_imported(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert {name: namespace[name] for name in module.__all__} == {
        name: getattr(module, name) for name in module.__all__}


@pytest.mark.parametrize("package", LAZY)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "encrypt_nothing")
