"""The generator scripts reproduce the shipped data files byte for byte.

scripts/gen_constants.py writes the two .ctab files and scripts/gen_kat.py
the two .kat files; each is run here into a temporary directory and its
output compared with the packaged copy.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "hc3cam" / "data"


def load_script(name, monkeypatch):
    # the scripts put src/ on sys.path when imported; undo that afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, out_dir_attr, shipped, names", [
    ("gen_constants", "DATA_DIR", DATA, ("hc3.ctab", "camellia.ctab")),
    ("gen_kat", "KAT_DIR", DATA / "kat", ("hc3.kat", "camellia.kat")),
], ids=("gen_constants", "gen_kat"))
def test_script_reproduces_shipped_files(script, out_dir_attr, shipped, names,
                                         tmp_path, monkeypatch):
    monkeypatch.delenv("HC3CAM_CONSTANTS_DIR", raising=False)
    module = load_script(script, monkeypatch)
    monkeypatch.setattr(module, out_dir_attr, tmp_path)
    module.main()
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
