#!/usr/bin/env python3
"""Condense perfbench result records of a parent and a change into one
committed summary, BENCH_<n>.json.

    python3 scripts/bench_summary.py --parent PARENT/.perfbench/results \\
        --change CHANGE/.perfbench/results --out BENCH_7.json [--title TEXT] \\
        [--layers]

Reads the end-to-end records (``*-trace0.json``) of both sides, pairs them
by workload and seed, and writes for every workload and every end-to-end
metric that BENCHMARK.json declares: each side's runs, median and
quartiles, and in how many pairs the change did better; and, for the
workloads that run ``simulate``, each side's median per-variant host rate
(the "host ... blocks/s" of every record's simulate lines).  With --layers it
also pairs the per-layer records (``*-trace1.json``) the same way and
writes each side's median of every per-layer metric BENCHMARK.json
declares that both sides' records carry.  Each side's provenance (commit,
source digest, Python version, .ctab sha256 and official/reconstruction
status) comes from its records; records of one side that disagree on it
are refused.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE_KEYS = ("commit", "src_sha256", "python", "nproc", "platform", "ctab")
# a record's simulate line: the variant first, its host rate last
HOST_RATE = re.compile(r"^(\S+) .* host ([0-9.]+) blocks/s$")


def load_side(results: Path, trace: int = 0) -> tuple[dict, dict]:
    """{(workload, seed): record} of the records of one --trace setting,
    and their shared provenance."""
    records, stamp = {}, None
    for path in sorted(results.glob(f"*-trace{trace}.json")):
        rec = json.loads(path.read_text())
        mine = {k: rec["provenance"].get(k) for k in PROVENANCE_KEYS}
        if stamp is None:
            stamp = mine
        elif mine != stamp:
            raise SystemExit(f"bench_summary: {path} has other provenance than "
                             f"the rest of {results}")
        records[rec["workload"], rec["seed"]] = rec
    if not records:
        raise SystemExit(f"bench_summary: no *-trace{trace}.json records in {results}")
    return records, stamp


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "runs": values}


def paired(parent: dict, change: dict, spec: dict):
    """(workload, seeds, [(parent record, change record)]) of every
    workload that both sides ran with some seed."""
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(seed for (w, seed) in parent if w == workload and (w, seed) in change)
        if seeds:
            yield workload, seeds, [(parent[workload, s], change[workload, s]) for s in seeds]


def host_rates(records: list[dict]) -> dict:
    """{variant: median host blocks/s} over the simulate lines of records."""
    rates = {}
    for rec in records:
        for line in rec.get("simulate", []):
            m = HOST_RATE.match(line)
            if m:
                rates.setdefault(m[1], []).append(float(m[2]))
    return {variant: median(values) for variant, values in sorted(rates.items())}


def summarise(parent: dict, change: dict, spec: dict) -> dict:
    out = {}
    for workload, seeds, pairs in paired(parent, change, spec):
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [a["metrics"][name]["value"] for a, _ in pairs]
            c = [b["metrics"][name]["value"] for _, b in pairs]
            wins = sum((y > x) if m["better"] == "higher" else (y < x) for x, y in zip(p, c))
            metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                             "parent": spread(p), "change": spread(c),
                             "change_better_pairs": f"{wins}/{len(pairs)}"}
        out[workload] = {
            "seeds": seeds,
            "attempted": {"parent": sum(a["attempted"] for a, _ in pairs),
                          "change": sum(b["attempted"] for _, b in pairs)},
            "failed": {"parent": sum(a["failed"] for a, _ in pairs),
                       "change": sum(b["failed"] for _, b in pairs)},
            "metrics": metrics,
        }
        hosts = {"parent": host_rates([a for a, _ in pairs]),
                 "change": host_rates([b for _, b in pairs])}
        if hosts["parent"] or hosts["change"]:
            out[workload]["simulate_host_blocks_per_s"] = {
                "statistic": "median over the paired seeds of the last run of each "
                             "variant in the measured rounds, wall time unscaled",
                **hosts}
    return out


def summarise_layers(parent: dict, change: dict, spec: dict) -> dict:
    out = {}
    for workload, seeds, pairs in paired(parent, change, spec):
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if all(name in rec["metrics"] for pair in pairs for rec in pair):
                metrics[name] = {
                    "unit": m["unit"], "better": m["better"],
                    "parent": median(a["metrics"][name]["value"] for a, _ in pairs),
                    "change": median(b["metrics"][name]["value"] for _, b in pairs)}
        out[workload] = {"seeds": seeds, "metrics": metrics}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--title", default="")
    parser.add_argument("--layers", action="store_true",
                        help="also summarise the per-layer (*-trace1.json) records")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, parent_stamp = load_side(args.parent)
    change, change_stamp = load_side(args.change)
    summary = {
        "title": args.title,
        "command": " ".join(spec["command"]) + " --workload W --seed S "
                   f"--seconds {spec['run_seconds']} --trace 0",
        "pairing": "one parent and one change run per seed, alternating which runs first",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "provenance": {"parent": parent_stamp, "change": change_stamp},
        "workloads": summarise(parent, change, spec),
    }
    if args.layers:
        parent_layers, parent_stamp1 = load_side(args.parent, trace=1)
        change_layers, change_stamp1 = load_side(args.change, trace=1)
        if (parent_stamp1, change_stamp1) != (parent_stamp, change_stamp):
            raise SystemExit("bench_summary: the trace-1 records have other "
                             "provenance than the trace-0 records of the same side")
        summary["layers"] = {
            "command": " ".join(spec["command"]) + " --workload W --seed S "
                       f"--seconds {spec['run_seconds']} --trace 1",
            "statistic": "median over the paired seeds",
            "workloads": summarise_layers(parent_layers, change_layers, spec),
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
