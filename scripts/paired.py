#!/usr/bin/env python3
"""Paired fresh-process timings of two source trees of hc3cam.

    python3 scripts/paired.py PARENT_DIR CHANGE_DIR PAIRS

PARENT_DIR and CHANGE_DIR are checkouts (each with src/hc3cam), made for
instance with `git archive REV | tar -x -C DIR`.  Each of PAIRS pairs runs
every item of a fixed menu once on each tree, in fresh processes, the
first side alternating from pair to pair:

- ``<cipher> encrypt`` and ``<cipher> decrypt`` (hc3 and camellia): the
  CLI command over one seeded file, with its wall time and the child's
  user+sys CPU from os.wait4;
- ``<cipher> encrypt_blocks`` and ``<cipher> decrypt_blocks``: the time of
  one call on a chunk of 8,192 blocks (the CLI's chunk), the best of 15
  calls after a first one that builds the key's program, in one fresh
  process per cipher, both directions;
- ``<variant> simulate`` for each of the five datapath variants:
  ``simulate --variant <variant> --blocks N`` with its wall time and child
  CPU, N being 1,500 for an HC3 variant and 5,000 for camellia-lu3, as
  perfbench's simulate workload runs them;
- ``<variant> Device.run``: the time per block of archsim.Device.run over
  1,000 blocks, the best of 15 runs after a first block that runs setup
  and steps the first pulse, in one fresh process per variant.

The file is 2 MiB (FULL; the smoke test runs TINY).

Once per run, not paired, since it is a count, it also gives the AST
nodes each command compiles on either tree: every command of that tree's
own tests/test_cold_start.py BUDGETED, counted by that file's probe and
compiled_nodes in a fresh process with the tree's sources.

Both trees' CLI outputs, the encrypted and decrypted files and simulate's
standard output, must be byte-identical; a difference stops the run.
For every item it prints each side's median and quartiles, the parent's
median over the change's (above 1: the change is faster) and in how many
pairs the change took less time, then each command's nodes on the two
trees ("-" where a tree has no such command) and the change's count less
the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles
from typing import NamedTuple

CIPHERS = ("hc3", "camellia")
VARIANTS = ("hc3-short", "hc3-long", "hc3-verylong", "hc3-extensive", "camellia-lu3")
COMMANDS = ("encrypt", "decrypt")
SEED = 1


class Sizes(NamedTuple):
    file_bytes: int     # the seeded file the CLI items encrypt, then decrypt
    chunk_blocks: int   # blocks of one encrypt_blocks/decrypt_blocks call
    best_of: int        # timed calls per direction, or runs, in each probe process
    sim_hc3: int        # simulate --blocks of each HC3 variant
    sim_camellia: int   # simulate --blocks of camellia-lu3
    device_blocks: int  # blocks of one timed run of Device.run


FULL = Sizes(file_bytes=2 << 20, chunk_blocks=8192, best_of=15,
             sim_hc3=1500, sim_camellia=5000, device_blocks=1000)
# for the smoke test: the menu runs in a few seconds a pair
TINY = Sizes(file_bytes=64 * 16, chunk_blocks=64, best_of=2,
             sim_hc3=2, sim_camellia=2, device_blocks=4)

# run in a fresh process: argv cipher, blocks, best_of; prints the best
# time of each direction in ms as JSON
CHUNK_CODE = """\
import json, random, sys, time
from importlib import import_module
cipher, blocks, best_of = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
mod = import_module("hc3cam." + cipher)
rng = random.Random(%d)
ks = mod.key_schedule(rng.randbytes(16))
data = rng.randbytes(16 * blocks)
best = {}
for name in ("encrypt_blocks", "decrypt_blocks"):
    fn = getattr(mod, name)
    fn(data, ks)
    times = []
    for _ in range(best_of):
        start = time.perf_counter()
        fn(data, ks)
        times.append(time.perf_counter() - start)
    best[name] = 1e3 * min(times)
print(json.dumps(best))
""" % SEED

# run in a fresh process: argv variant, blocks, best_of; prints the best
# time per block of Device.run in us as JSON
DEVICE_CODE = """\
import json, sys, time
from hc3cam import archsim
variant, blocks, best_of = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
device = archsim.Device(archsim.PROFILES[variant], bytes(range(16)))
device.run(bytes(16))
data = [i.to_bytes(16, "big") for i in range(blocks)]
best = float("inf")
for _ in range(best_of):
    start = time.perf_counter()
    for block in data:
        device.run(block)
    best = min(best, time.perf_counter() - start)
print(json.dumps(1e6 * best / blocks))
"""

# run in a fresh process: argv the tree's tests directory; prints the AST
# nodes that each command of its test_cold_start.BUDGETED compiles, as JSON
NODES_CODE = """\
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_cold_start as cold
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps({command: cold.compiled_nodes(cold.probe(argv(Path(tmp)))[1])
                      for command, argv in cold.BUDGETED.items()}))
"""


def env_for(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def spawn(argv: list[str], tree: Path, stdout: Path) -> tuple[float, float]:
    """Run argv with tree's sources, stdout into the file stdout; its wall
    time and the child's user+sys CPU, both in ms."""
    fd = os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_CLOSE, fd)]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env_for(tree),
                             file_actions=actions)
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"paired: {' '.join(argv)} failed under {tree}")
    return 1e3 * wall, 1e3 * (usage.ru_utime + usage.ru_stime)


def run_pair(trees, order, work: Path, key: str, sizes: Sizes) -> dict:
    """One run of every menu item on each tree, in the given order of the
    two sides, the CLI items under key on work/plain.bin;
    {item: {metric: [parent, change]}}."""
    plain = work / "plain.bin"
    out = {}
    for cipher in CIPHERS:
        for command in COMMANDS:
            item = out[f"{cipher} {command}"] = {"wall_ms": [0, 0], "cpu_ms": [0, 0]}
            outputs = [None, None]
            for side in order:
                src = plain if command == "encrypt" else work / f"{cipher}-encrypt-{side}"
                dst = work / f"{cipher}-{command}-{side}"
                argv = ["-m", "hc3cam.cli", command, "--cipher", cipher, "--key", key,
                        "--in", str(src), "--out", str(dst)]
                wall, cpu = spawn(argv, trees[side], work / "stdout")
                item["wall_ms"][side], item["cpu_ms"][side] = wall, cpu
                outputs[side] = dst.read_bytes()
            if outputs[0] != outputs[1]:
                raise SystemExit(f"paired: {cipher} {command} outputs differ between the trees")
        best = [None, None]
        for side in order:
            argv = ["-c", CHUNK_CODE, cipher, str(sizes.chunk_blocks), str(sizes.best_of)]
            spawn(argv, trees[side], work / "chunk.json")
            best[side] = json.loads((work / "chunk.json").read_text())
        for name in ("encrypt_blocks", "decrypt_blocks"):
            out[f"{cipher} {name}"] = {"chunk_ms": [best[0][name], best[1][name]]}
    for variant in VARIANTS:
        blocks = sizes.sim_camellia if variant == "camellia-lu3" else sizes.sim_hc3
        argv = ["-m", "hc3cam.cli", "simulate", "--variant", variant, "--blocks", str(blocks)]
        item = out[f"{variant} simulate"] = {"wall_ms": [0, 0], "cpu_ms": [0, 0]}
        outputs = [None, None]
        for side in order:
            stdout = work / f"simulate-{side}"
            item["wall_ms"][side], item["cpu_ms"][side] = spawn(argv, trees[side], stdout)
            outputs[side] = stdout.read_bytes()
        if outputs[0] != outputs[1]:
            raise SystemExit(f"paired: {variant} simulate outputs differ between the trees")
        per_block = [None, None]
        for side in order:
            argv = ["-c", DEVICE_CODE, variant, str(sizes.device_blocks), str(sizes.best_of)]
            spawn(argv, trees[side], work / "device.json")
            per_block[side] = json.loads((work / "device.json").read_text())
        out[f"{variant} Device.run"] = {"block_us": per_block}
    return out


def measure(parent: Path, change: Path, pairs: int, sizes: Sizes = FULL) -> dict:
    """{item: {metric: {"parent": runs, "change": runs}}} over pairs pairs."""
    trees = (parent, change)
    runs: dict = {}
    rng = random.Random(SEED)
    key = rng.randbytes(16).hex()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "plain.bin").write_bytes(rng.randbytes(sizes.file_bytes))
        for i in range(pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for item, metrics in run_pair(trees, order, work, key, sizes).items():
                for metric, (p, c) in metrics.items():
                    sides = runs.setdefault(item, {}).setdefault(
                        metric, {"parent": [], "change": []})
                    sides["parent"].append(p)
                    sides["change"].append(c)
    return runs


def node_counts(tree: Path) -> dict[str, int]:
    """{command: AST nodes it compiles} over the tree's BUDGETED commands."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "nodes.json"
        spawn(["-c", NODES_CODE, str(tree / "tests")], tree, out)
        return json.loads(out.read_text())


def node_report(parent: dict[str, int], change: dict[str, int]) -> list[str]:
    lines = [f"{'command':<24} {'parent nodes':>12} {'change nodes':>12} {'change-parent':>14}"]
    for command in sorted(parent.keys() | change.keys()):
        p, c = parent.get(command), change.get(command)
        delta = "-" if p is None or c is None else f"{c - p:+d}"
        lines.append(f"{command:<24} {'-' if p is None else p:>12} "
                     f"{'-' if c is None else c:>12} {delta:>14}")
    return lines


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return median(values), q1, q3


def report(runs: dict) -> list[str]:
    lines = [f"{'item':<24} {'metric':<9} {'parent median [q1, q3]':>28} "
             f"{'change median [q1, q3]':>28} {'parent/change':>14} {'wins':>6}"]
    for item, metrics in runs.items():
        for metric, sides in metrics.items():
            (pm, p1, p3), (cm, c1, c3) = spread(sides["parent"]), spread(sides["change"])
            wins = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
            parent = f"{pm:.2f} [{p1:.2f}, {p3:.2f}]"
            change = f"{cm:.2f} [{c1:.2f}, {c3:.2f}]"
            score = f"{wins}/{len(sides['change'])}"
            lines.append(f"{item:<24} {metric:<9} {parent:>28} {change:>28} "
                         f"{pm / cm:>13.3f}x {score:>6}")
    return lines


def main(argv=None, sizes: Sizes = FULL) -> int:
    parser = argparse.ArgumentParser(description="Paired fresh-process timings of two "
                                                 "source trees of hc3cam.")
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("pairs", type=int, help="pairs of runs of the menu")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "hc3cam" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/hc3cam/cli.py")
    if args.pairs < 1:
        parser.error("PAIRS must be at least 1")
    trees = args.parent.resolve(), args.change.resolve()
    nodes = [node_counts(tree) for tree in trees]
    runs = measure(*trees, args.pairs, sizes)
    print("\n".join(report(runs) + node_report(*nodes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
