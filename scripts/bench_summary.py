#!/usr/bin/env python3
"""Condense perfbench result records of a parent and a change into one
committed summary, BENCH_<n>.json.

    python3 scripts/bench_summary.py --parent PARENT/.perfbench/results \\
        --change CHANGE/.perfbench/results --out BENCH_7.json [--title TEXT]

Reads the end-to-end records (``*-trace0.json``) of both sides, pairs them
by workload and seed, and writes for every workload and every end-to-end
metric that BENCHMARK.json declares: each side's runs, median and
quartiles, and in how many pairs the change did better.  Each side's
provenance (commit, source digest, Python version, .ctab sha256 and
official/reconstruction status) comes from its records; records of one
side that disagree on it are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE_KEYS = ("commit", "src_sha256", "python", "nproc", "platform", "ctab")


def load_side(results: Path) -> tuple[dict, dict]:
    """{(workload, seed): record} of the trace-0 records, and their shared
    provenance."""
    records, stamp = {}, None
    for path in sorted(results.glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        mine = {k: rec["provenance"].get(k) for k in PROVENANCE_KEYS}
        if stamp is None:
            stamp = mine
        elif mine != stamp:
            raise SystemExit(f"bench_summary: {path} has other provenance than "
                             f"the rest of {results}")
        records[rec["workload"], rec["seed"]] = rec
    if not records:
        raise SystemExit(f"bench_summary: no *-trace0.json records in {results}")
    return records, stamp


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "runs": values}


def summarise(parent: dict, change: dict, spec: dict) -> dict:
    out = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(seed for (w, seed) in parent if w == workload and (w, seed) in change)
        if not seeds:
            continue
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
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
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--title", default="")
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
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
