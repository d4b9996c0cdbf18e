"""Smoke test of the benchmark at tiny sizes, so the harness cannot rot.

Runs every workload end to end and the traced run once, and checks that
they report every metric BENCHMARK.json declares, with its unit, and no
failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def reported(record):
    return {name: m["unit"] for name, m in record["metrics"].items()}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload, tmp_path):
    record = run.measure(ROOT, workload, seed=7, seconds=0, trace=False, sizes=TINY, work=tmp_path)
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    assert reported(record) == declared("end_to_end")
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert {c["status"] for c in record["provenance"]["ctab"]} == {"official", "reconstruction"}


def test_traced_run_smoke(tmp_path):
    record = run.measure(ROOT, "many-keys", seed=7, seconds=0, trace=True, sizes=TINY, work=tmp_path)
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0
    assert reported(record) == declared("per_layer")
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    # one vector record per key: one schedule, one encrypt, one decrypt
    assert metrics["hc3.key_schedule.calls"] >= TINY.kat_hc3
    assert metrics["archsim.run_block.calls"] == 5   # the gate's one block per variant
    spans = (tmp_path / "trace-many-keys.csv").read_text().splitlines()
    assert spans[0] == "index,name,start_ns,end_ns,parent"
    assert len(spans) > metrics["hc3.key_schedule.calls"]


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                           "simulate", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
