"""The generator scripts reproduce the shipped data files byte for byte.

scripts/gen_constants.py writes the two .ctab files and scripts/gen_kat.py
the two .kat files; each is run here into a temporary directory and its
output compared with the packaged copy.  The .kat files are also checked to
be in the layout kat reads by columns.
"""

import importlib.util
import json
import subprocess
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


@pytest.mark.parametrize("script, out_dir_attr", [
    ("gen_constants", "DATA_DIR"), ("gen_kat", "KAT_DIR"),
], ids=("gen_constants", "gen_kat"))
def test_script_help_and_bad_arguments_write_nothing(script, out_dir_attr, tmp_path,
                                                     monkeypatch, capsys):
    module = load_script(script, monkeypatch)
    out = tmp_path / "out"
    monkeypatch.setattr(module, out_dir_attr, out)
    for argv in (["-h"], ["--help"]):
        assert module.main(argv) == 0
        assert capsys.readouterr().out == module.USAGE + "\n"
    for argv in (["--out-dir", str(tmp_path)], ["-h", "extra"], ["x"]):
        assert module.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(module.USAGE + "\n")
        assert f"error: unrecognized arguments: {' '.join(argv)}" in captured.err
    assert not out.exists()
    # python -OO drops the docstring; --help prints the constant, exit 0
    runner = ("import importlib.util, pathlib, sys\n"
              "spec = importlib.util.spec_from_file_location('s', sys.argv[1])\n"
              "m = importlib.util.module_from_spec(spec)\n"
              "spec.loader.exec_module(m)\n"
              "setattr(m, sys.argv[2], pathlib.Path(sys.argv[3]))\n"
              "sys.exit(m.main(sys.argv[4:]))\n")
    proc = subprocess.run([sys.executable, "-OO", "-c", runner, str(ROOT / "scripts" / f"{script}.py"),
                           out_dir_attr, str(out), "--help"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, module.USAGE + "\n", "")
    assert not out.exists()


def test_kat_files_are_in_the_one_scan_layout(tmp_path, monkeypatch):
    # kat reads the documented layout by columns and falls back to its line
    # walker for anything else: a regenerated file must not drop back
    from hc3cam import cli
    module = load_script("gen_kat", monkeypatch)
    monkeypatch.setattr(module, "KAT_DIR", tmp_path)
    module.main()
    for path in (*sorted((DATA / "kat").glob("*.kat")), tmp_path / "hc3.kat",
                 tmp_path / "camellia.kat"):
        text = path.read_text(encoding="ascii")
        scanned = cli._scan_kat_layout(text)
        assert scanned is not None, path
        assert scanned == cli._walk_kat_lines(text, str(path))


def test_bench_summary_pairs_runs_by_seed(tmp_path, monkeypatch):
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


def test_bench_summary_runs_without_docstrings(tmp_path, monkeypatch):
    # python -OO drops every docstring; --help and the verdict rules that
    # every record carries are constants
    script = [sys.executable, "-OO", str(ROOT / "scripts" / "bench_summary.py")]
    proc = subprocess.run([*script, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "BENCH_<n>.json" in proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"workload": "many-keys", "seed": 1, "attempted": 4, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                          for m in spec["end_to_end"]},
              "provenance": {"commit": "c0", "src_sha256": "s", "python": "3.x",
                             "nproc": 2, "platform": "p", "ctab": []}}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "many-keys-seed1-trace0.json").write_text(json.dumps(record))
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([*script, "--parent", str(tmp_path / "parent"), "--change",
                           str(tmp_path / "change"), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(out.read_text())["verdict"]
    assert verdict == load_script("bench_summary", monkeypatch).VERDICT
    # the same text as the committed records that carry one
    assert verdict == json.loads((ROOT / "BENCH_22.json").read_text())["verdict"]


def test_bench_summary_layers_pairs_trace1_records(tmp_path, monkeypatch):
    module = load_script("bench_summary", monkeypatch)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stamp = {"commit": "c0", "src_sha256": "s", "python": "3.x", "nproc": 2,
             "platform": "p", "ctab": []}

    def write(side, seed, trace, commit, metrics):
        record = {"workload": "simulate", "seed": seed, "attempted": 1, "failed": 0,
                  "metrics": {name: {"value": v, "unit": "ms"} for name, v in metrics.items()},
                  "provenance": dict(stamp, commit=commit)}
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / f"simulate-seed{seed}-trace{trace}.json").write_text(
            json.dumps(record))

    e2e = {m["name"]: 1.0 for m in spec["end_to_end"]}
    for seed, (before, after) in enumerate([(30.0, 20.0), (34.0, 22.0), (31.0, 40.0)]):
        for side, commit, ms in (("parent", "c0", before), ("change", "c1", after)):
            write(side, seed, 0, commit, e2e)
            layers = {"import.ms": ms, "not.declared": 5.0}
            if not (side == "change" and seed == 2):
                layers["ctab.parse.ms"] = ms / 10
            write(side, seed, 1, commit, layers)
    # a trace-1 record without a trace-0 partner on the other side is unpaired
    write("parent", 7, 1, "c0", {"import.ms": 99.0})
    out = tmp_path / "BENCH.json"
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--out", str(out)]
    module.main(args)
    assert "layers" not in json.loads(out.read_text())
    module.main(args + ["--layers"])
    layers = json.loads(out.read_text())["layers"]["workloads"]["simulate"]
    assert layers["seeds"] == [0, 1, 2]
    # only declared metrics that every paired record carries
    assert list(layers["metrics"]) == ["import.ms"]
    assert layers["metrics"]["import.ms"]["parent"] == 31.0
    assert layers["metrics"]["import.ms"]["change"] == 22.0

    # trace-1 records of another commit than the side's trace-0 records
    for seed in range(3):
        write("change", seed, 1, "c2", {"import.ms": 1.0})
    with pytest.raises(SystemExit, match="other provenance than the trace-0"):
        module.main(args + ["--layers"])


def test_bench_summary_medians_simulate_host_rates(tmp_path, monkeypatch):
    module = load_script("bench_summary", monkeypatch)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stamp = {"commit": "c0", "src_sha256": "s", "python": "3.x", "nproc": 2,
             "platform": "p", "ctab": []}

    def line(variant, rate):
        # the layout of perfbench's simulate lines
        return (f"{variant:<14} modeled 128.80 Mb/s  published 115.00 Mb/s  "
                f"deviation 12.00%  host {rate:.1f} blocks/s")

    def write(side, workload, seed, commit, lines):
        record = {"workload": workload, "seed": seed, "attempted": 5, "failed": 0,
                  "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                              for m in spec["end_to_end"]},
                  "provenance": dict(stamp, commit=commit), "simulate": lines}
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))

    rates = [(5000.5, 6000.5, 11000.5), (5400.5, 6500.5, 11500.5), (5200.5, 6800.5, 12500.5)]
    for seed, (before, after, cam) in enumerate(rates):
        # the change's camellia-lu3 rate is higher on seed 1 only
        for side, commit, rate, cam_rate in (("parent", "c0", before, cam),
                                             ("change", "c1", after, cam + 100 * (seed == 1))):
            write(side, "simulate", seed, commit,
                  [line("hc3-short", rate), line("camellia-lu3", cam_rate), "not a rate line"])
            write(side, "many-keys", seed, commit, [])
    out = tmp_path / "BENCH.json"
    module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                 "--out", str(out)])
    workloads = json.loads(out.read_text())["workloads"]
    hosts = workloads["simulate"]["simulate_host_blocks_per_s"]
    assert hosts["parent"] == {"camellia-lu3": 11500.5, "hc3-short": 5200.5}
    assert hosts["change"] == {"camellia-lu3": 11600.5, "hc3-short": 6500.5}
    # pair by pair; an equal rate is not better
    assert hosts["change_better_pairs"] == {"camellia-lu3": "1/3", "hc3-short": "3/3"}
    # a workload without simulate lines gets no such entry
    assert "simulate_host_blocks_per_s" not in workloads["many-keys"]


def test_bench_summary_verdicts(tmp_path, monkeypatch):
    module = load_script("bench_summary", monkeypatch)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stamp = {"commit": "c0", "src_sha256": "s", "python": "3.x", "nproc": 2,
             "platform": "p", "ctab": []}
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == {
        "setup_s": 0.25, "hc3_blocks_per_s": 0.25, "camellia_blocks_per_s": 0.25,
        "peak_rss_mib": 0.05}
    # ten pairs per metric, parent then change
    runs = {
        # 10/10 pairs better, medians 20 apart against a quartile spread of 4.5
        "hc3_blocks_per_s": ([100 + i for i in range(10)], [120 + i for i in range(10)]),
        # the median 30 % lower, against a 25 % bound
        "camellia_blocks_per_s": ([100.0] * 10, [70.0] * 10),
        # lower is better; the parent's spread (1.0 against 1.5) exceeds 25 %
        "setup_s": ([1.0, 2.0] * 5, [1.1, 1.9] * 5),
        # 0.5 % worse against a 5 % bound, and no spread
        "peak_rss_mib": ([20.0] * 10, [20.1] * 10),
    }
    for seed in range(10):
        for side, i, commit in (("parent", 0, "c0"), ("change", 1, "c1")):
            record = {"workload": "bulk-ecb", "seed": seed, "attempted": 4, "failed": 0,
                      "metrics": {name: {"value": values[i][seed], "unit": "u"}
                                  for name, values in runs.items()},
                      "provenance": dict(stamp, commit=commit)}
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / f"bulk-ecb-seed{seed}-trace0.json").write_text(
                json.dumps(record))
    out = tmp_path / "BENCH.json"
    module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                 "--out", str(out)])
    metrics = json.loads(out.read_text())["workloads"]["bulk-ecb"]["metrics"]
    assert {name: m["verdict"] for name, m in metrics.items()} == {
        "setup_s": "unresolved", "hc3_blocks_per_s": "gain",
        "camellia_blocks_per_s": "regression", "peak_rss_mib": "level"}

    verdict = module.verdict
    parent = [100 + i for i in range(10)]
    # 8/10 pairs are too few for a gain, however far apart the medians
    assert verdict("higher", 0.25, parent, [200, 200, 200, 200, 200, 200, 200, 200, 0, 0]) \
        == "level"
    # 9/10 pairs, but a median step inside the parent's quartile spread
    assert verdict("higher", 0.25, parent, [p + 1 for p in parent[:9]] + [0]) == "level"
    # a wide parent spread is resolved when every change run beats every parent run
    wide = [1.0, 2.0] * 5
    assert verdict("lower", 0.25, wide, [0.9] * 10) == "level"
    assert verdict("lower", 0.25, wide, [0.9] * 9 + [2.5]) == "unresolved"
    # lower is better: a median 30 % higher is a regression, 30 % lower a gain
    assert verdict("lower", 0.25, [1.0] * 10, [1.3] * 10) == "regression"
    assert verdict("lower", 0.25, [1.0] * 10, [0.7] * 10) == "gain"


def test_paired_runs_the_menu_on_two_trees(monkeypatch, capsys):
    # both sides are this checkout, at sizes that run in seconds
    module = load_script("paired", monkeypatch)
    runs = module.measure(ROOT, ROOT, 2, module.TINY)
    items = [f"{c} {what}" for c in module.CIPHERS
             for what in ("encrypt", "decrypt", "encrypt_blocks", "decrypt_blocks")]
    items += [f"{v} {what}" for v in module.VARIANTS for what in ("simulate", "Device.run")]
    assert sorted(runs) == sorted(items)
    assert all(len(sides["parent"]) == len(sides["change"]) == 2 and min(sides["change"]) > 0
               for metrics in runs.values() for sides in metrics.values())
    metrics = {"encrypt_blocks": ("chunk_ms",), "decrypt_blocks": ("chunk_ms",),
               "Device.run": ("block_us",)}
    rows = [(*item.split(), metric) for item in items
            for metric in metrics.get(item.split()[1], ("wall_ms", "cpu_ms"))]
    lines = module.report(runs)
    assert sorted(tuple(line.split()[:3]) for line in lines[1:]) == sorted(rows)
    assert all(line.endswith("/2") for line in lines[1:])
    assert module.main([str(ROOT), str(ROOT), "1"], sizes=module.TINY) == 0
    out = capsys.readouterr().out.splitlines()
    # then, once, each budgeted command's nodes, counted by the tree's own
    # tests/test_cold_start.py: level, as both sides are this checkout
    import test_cold_start as cold
    nodes = module.node_counts(ROOT)
    assert sorted(nodes) == sorted(cold.BUDGETED)
    assert nodes["help"] == cold.compiled_nodes(cold.probe(["--help"])[1])
    assert out[len(lines):] == module.node_report(nodes, nodes)
    assert [line.split()[1:] for line in out[len(lines) + 1:]] == [
        [str(nodes[command]), str(nodes[command]), "+0"] for command in sorted(nodes)]


def test_paired_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    module = load_script("paired", monkeypatch)
    with pytest.raises(SystemExit) as exc:
        module.main([str(tmp_path), str(ROOT), "1"], sizes=module.TINY)
    assert exc.value.code == 2 and "holds no src/hc3cam/cli.py" in capsys.readouterr().err


def test_paired_stops_when_the_trees_disagree(monkeypatch):
    module = load_script("paired", monkeypatch)
    real = module.spawn

    def spawn(argv, tree, stdout):
        # the change side's output file is corrupted after its command ran
        timings = real(argv, tree, stdout)
        if argv[-2] == "--out" and argv[-1].endswith("-1"):
            Path(argv[-1]).write_bytes(b"x")
        return timings

    monkeypatch.setattr(module, "spawn", spawn)
    with pytest.raises(SystemExit, match="hc3 encrypt outputs differ"):
        module.measure(ROOT, ROOT, 1, module.TINY)


def test_paired_stops_when_simulate_prints_differ(monkeypatch):
    module = load_script("paired", monkeypatch)
    real = module.spawn

    def spawn(argv, tree, stdout):
        # the change side's simulate of hc3-short prints one more line
        timings = real(argv, tree, stdout)
        if "hc3-short" in argv and stdout.name == "simulate-1":
            with open(stdout, "a") as fh:
                fh.write("extra\n")
        return timings

    monkeypatch.setattr(module, "spawn", spawn)
    with pytest.raises(SystemExit, match="hc3-short simulate outputs differ"):
        module.measure(ROOT, ROOT, 1, module.TINY)
