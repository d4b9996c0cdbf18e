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


def test_bench_summary_pairs_runs_by_seed(tmp_path, monkeypatch):
    import json
    module = load_script("bench_summary", monkeypatch)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stamp = {"commit": "c0", "src_sha256": "s", "python": "3.x", "nproc": 2,
             "platform": "p", "ctab": []}

    def write(side, seed, rate, commit):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
        metrics["hc3_blocks_per_s"]["value"] = rate
        record = {"workload": "many-keys", "seed": seed, "attempted": 4, "failed": 0,
                  "metrics": metrics, "provenance": dict(stamp, commit=commit)}
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / f"many-keys-seed{seed}-trace0.json").write_text(json.dumps(record))

    for seed, (before, after) in enumerate([(10, 30), (12, 11), (11, 40), (9, 20)]):
        write("parent", seed, before, "c0")
        write("change", seed, after, "c1")
    out = tmp_path / "BENCH.json"
    module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                 "--out", str(out)])
    summary = json.loads(out.read_text())
    assert summary["provenance"]["change"]["commit"] == "c1"
    rate = summary["workloads"]["many-keys"]["metrics"]["hc3_blocks_per_s"]
    assert rate["change_better_pairs"] == "3/4"
    assert rate["parent"]["median"] == 10.5 and rate["change"]["median"] == 25
    assert list(summary["workloads"]) == ["many-keys"]

    # records of one side with different provenance are refused
    write("change", 9, 50, "c2")
    with pytest.raises(SystemExit, match="other provenance"):
        module.main(["--parent", str(tmp_path / "parent"), "--change",
                     str(tmp_path / "change"), "--out", str(out)])
