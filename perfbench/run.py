"""Benchmark of hc3cam: three workloads through the ``hc3cam`` CLI.

    python3 perfbench/run.py --workload bulk-ecb|many-keys|simulate \\
        --seed N --seconds S --trace 0|1

Run it from the root of an hc3cam source tree; it imports and runs the
package in ./src and writes only under ./.perfbench.  Every input is
made from --seed.  Before any timing a gate checks the shipped vector
files and one simulated block of every variant.

--trace 0 (end to end): one client runs the workload's commands as fresh
``hc3cam`` processes, one at a time, round after round, for about
--seconds (always one whole round).  ``setup_s`` is the median, over
several repetitions, of the wall time of the same commands with zero
blocks of work.  Rates are medians over rounds.  Wall times are scaled to
a reference host speed (see REF_S).

--trace 1 (per layer): the gate and one round, in-process, untraced and
then traced, plus a microbench and cold start-up probes (layers.py).
It takes as long as that work takes, whatever --seconds says.

Every command's output is checked; a failed check counts as a failed
operation.  The last line of standard output is the result as JSON; a
full record with its provenance goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import layers
from workloads import (FULL, WORKLOADS, Outcome, Sizes, Workload, check_root, child_env,
                       gate_commands, import_hc3cam, provenance, run_process)

E2E_UNITS = {
    "setup_s": "s",
    "hc3_blocks_per_s": "blocks/s",
    "camellia_blocks_per_s": "blocks/s",
    "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".us", "us"), (".ms", "ms"),
                         (".self_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


# The host's CPU speed drifts by tens of percent over seconds to minutes
# when the machine is shared, which would swamp most changes to hc3cam.
# So while each invocation runs, a background thread times a short fixed
# pure-Python loop every 50 ms (about 5 % of one core), and the wall time
# is scaled by REF_S / (median loop time): figures are for a host on which
# the loop takes REF_S.  The raw wall times stay in the result record.
REF_S = 2.5e-3
_REF_TABLE = tuple((i * 2654435761) & 0xFFFFFFFF for i in range(256))


def reference_s() -> float:
    t0 = time.perf_counter()
    x, table = 0, _REF_TABLE
    for i in range(10_000):
        x = ((x << 1) & 0xFFFFFFFF) ^ table[(x ^ i) & 255]
    return time.perf_counter() - t0


@dataclass
class Timed:
    outcome: Outcome
    scaled_s: float


def run_scaled(root: Path, cmds, env) -> list[Timed]:
    timed = []
    for cmd in cmds:
        samples = []
        stop = threading.Event()

        def sample():
            while not stop.wait(0.05):
                samples.append(reference_s())

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            o = run_process(root, cmd, env)
        finally:
            stop.set()
            sampler.join()
        samples.append(reference_s())
        timed.append(Timed(o, o.wall_s * REF_S / median(samples)))
    return timed


def rate(timed: list[Timed], cipher: str) -> float:
    mine = [t for t in timed if t.outcome.cmd.cipher == cipher]
    return sum(t.outcome.cmd.blocks for t in mine) / sum(t.scaled_s for t in mine)


def end_to_end(root: Path, wl: Workload, gate, seconds: float, sizes: Sizes):
    env = child_env(root)
    outcomes = [run_process(root, c, env) for c in gate]
    setups = [run_scaled(root, wl.setup, env)
              for _ in range(math.ceil(sizes.setup_procs / len(wl.setup)))]
    rounds = []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        r0 = time.perf_counter()
        rounds.append(run_scaled(root, wl.round, env))
        now = time.perf_counter()
        longest = max(longest, now - r0)
        if now - t0 + longest > seconds:
            break
    timed = [t for r in setups + rounds for t in r]
    metrics = {
        "setup_s": median(sum(t.scaled_s for t in rep) for rep in setups),
        "hc3_blocks_per_s": median(rate(r, "hc3") for r in rounds),
        "camellia_blocks_per_s": median(rate(r, "camellia") for r in rounds),
        "peak_rss_mib": median(t.outcome.rss_mib for r in rounds for t in r),
    }
    samples = {kind: [[{"argv": t.outcome.cmd.argv[:3], "wall_s": t.outcome.wall_s,
                        "scaled_s": t.scaled_s, "rss_mib": t.outcome.rss_mib} for t in r]
                      for r in reps]
               for kind, reps in (("setup", setups), ("rounds", rounds))}
    return outcomes + [t.outcome for t in timed], metrics, samples


def per_layer(root: Path, wl: Workload, gate, seed: int, sizes: Sizes, work: Path):
    spans = work / f"trace-{wl.name}.csv"
    outcomes, metrics = layers.traced_run(wl.hc3cam, gate + wl.round, spans)
    metrics.update(layers.microbench(wl.hc3cam, f"micro:{wl.name}:{seed}", sizes.micro_s))
    metrics.update(layers.cold_start(root, child_env(root), sizes.cold_reps))
    return outcomes, metrics, {"spans": str(spans)}


def simulate_summary(outcomes, round_cmds) -> list[str]:
    """Each variant's model-vs-published deviation beside its throughputs,
    from the last run of every simulate command of the measured round."""
    last = {id(o.cmd): o for o in outcomes}
    lines = []
    for o in (last[id(c)] for c in round_cmds if c.argv[0] == "simulate"):
        fields = dict(line.split(": ", 1) for line in o.out.splitlines()
                      if line.startswith(("modeled throughput", "published throughput",
                                          "deviation")))
        lines.append(f"{o.cmd.argv[2]:<14} modeled {fields.get('modeled throughput', '?'):<12}"
                     f" published {fields.get('published throughput', '?'):<12}"
                     f" deviation {fields.get('deviation', '?').split()[0]:<7}"
                     f" host {o.cmd.blocks / o.wall_s:.1f} blocks/s")
    return lines


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = FULL, work: Path | None = None) -> dict:
    """One benchmark run; returns the result record."""
    check_root(root)
    work = work or root / ".perfbench"
    (work / "results").mkdir(parents=True, exist_ok=True)
    hc3cam = import_hc3cam(root)
    stamp = provenance(root)
    inputs = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    try:
        wl = Workload(workload, seed, sizes, inputs, hc3cam)
        gate = gate_commands(root)
        if trace:
            outcomes, metrics, extra = per_layer(root, wl, gate, seed, sizes, work)
        else:
            outcomes, metrics, extra = end_to_end(root, wl, gate, seconds, sizes)
    finally:
        shutil.rmtree(inputs)
    failures = [p for o in outcomes for p in o.problems]
    units = E2E_UNITS if not trace else {name: layer_unit(name) for name in metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": stamp,
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
        "failures": failures,
        "simulate": simulate_summary(outcomes, wl.round),
        **extra,
    }
    out = work / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = measure(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance: " + json.dumps(record["provenance"]))
    for line in record["simulate"] + record["failures"]:
        print(line)
    for name, m in record["metrics"].items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
