#!/usr/bin/env python3
"""Condense perfbench result records of a parent and a change into one
committed summary, BENCH_<n>.json.

    python3 scripts/bench_summary.py --parent PARENT/.perfbench/results \\
        --change CHANGE/.perfbench/results --out BENCH_7.json [--title TEXT] \\
        [--layers]

Reads the end-to-end records (``*-trace0.json``) of both sides, pairs them
by workload and seed, and writes for every workload and every end-to-end
metric that BENCHMARK.json declares: each side's runs, median and
quartiles, in how many pairs the change did better, and a verdict
(gain, regression, unresolved or level; see VERDICT); and, for the
workloads that run ``simulate``, each side's median per-variant host rate
(the "host ... blocks/s" of every record's simulate lines) and in how many
pairs the change's rate of each variant was higher.  With --layers it
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
# what --help prints: a constant, not the docstring, so python -OO keeps it
DESCRIPTION = ("Condense perfbench result records of a parent and a change into one\n"
               "committed summary, BENCH_<n>.json.")
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


# what verdict() decides, copied into every record: a constant, not the
# docstring, so python -OO keeps it
VERDICT = ("One metric's verdict over paired runs: "
           "- gain: the change is better in at least 9/10 of the pairs (ties count "
           "for neither side), and its median is better than the parent's by "
           "more than the parent's quartile spread; "
           "- regression: the change's median is worse than the parent's by more "
           "than the bound, a fraction of the parent's median; "
           "- unresolved: the parent's quartile spread is wider than the bound, "
           "unless every change run is better than every parent run; "
           "- level: none of these.")


def verdict(better: str, bound: float, parent: list[float], change: list[float]) -> str:
    """One metric's verdict over paired runs, as VERDICT says."""
    sign = 1 if better == "higher" else -1
    p = [sign * x for x in parent]
    c = [sign * y for y in change]
    spread_p = spread(p)
    iqr, base = spread_p["q3"] - spread_p["q1"], bound * abs(median(parent))
    wins = sum(y > x for x, y in zip(p, c))
    step = median(c) - median(p)
    if 10 * wins >= 9 * len(p) and step > iqr:
        return "gain"
    if step < -base:
        return "regression"
    if iqr > base and not min(c) > max(p):
        return "unresolved"
    return "level"


def paired(parent: dict, change: dict, spec: dict):
    """(workload, seeds, [(parent record, change record)]) of every
    workload that both sides ran with some seed."""
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(seed for (w, seed) in parent if w == workload and (w, seed) in change)
        if seeds:
            yield workload, seeds, [(parent[workload, s], change[workload, s]) for s in seeds]


def host_rates(pairs: list) -> dict:
    """Each side's {variant: median host blocks/s} over the simulate lines
    of the paired records, and per variant in how many of the pairs that
    carry it on both sides the change's rate was higher."""
    rates = [tuple({m[1]: float(m[2]) for m in map(HOST_RATE.match, rec.get("simulate", []))
                    if m} for rec in pair) for pair in pairs]
    out = {"parent": {}, "change": {}, "change_better_pairs": {}}
    for variant in sorted({v for pair in rates for side in pair for v in side}):
        for i, side in enumerate(("parent", "change")):
            values = [pair[i][variant] for pair in rates if variant in pair[i]]
            if values:
                out[side][variant] = median(values)
        both = [(p[variant], c[variant]) for p, c in rates if variant in p and variant in c]
        if both:
            out["change_better_pairs"][variant] = f"{sum(c > p for p, c in both)}/{len(both)}"
    return out


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
                             "change_better_pairs": f"{wins}/{len(pairs)}",
                             "verdict": verdict(m["better"], m["bound"], p, c)}
        out[workload] = {
            "seeds": seeds,
            "attempted": {"parent": sum(a["attempted"] for a, _ in pairs),
                          "change": sum(b["attempted"] for _, b in pairs)},
            "failed": {"parent": sum(a["failed"] for a, _ in pairs),
                       "change": sum(b["failed"] for _, b in pairs)},
            "metrics": metrics,
        }
        hosts = host_rates(pairs)
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
    parser = argparse.ArgumentParser(description=DESCRIPTION)
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
        "verdict": VERDICT,
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
