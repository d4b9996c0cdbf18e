"""Per-layer metrics of hc3cam, measured from the benchmark's own files.

Three sources, all in a ``--trace 1`` run:

* a traced in-process run: the run's gate and one round of the workload
  through ``hc3cam.cli.main``, with the layers' public functions wrapped
  so that every call leaves a span (name, start, end, parent).  Spans are
  kept in memory and written out when the run ends; a span's self time is
  its duration minus its children's.  The same commands run once
  untraced first, which gives the tracing overhead.
* a microbench of the layers' public functions on inputs drawn from the
  workload seed (median time per call).
* cold start-up in fresh processes (``cold_start.py``).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from workloads import EXPECTED_SIM, run_inprocess

# (module of hc3cam, function) pairs wrapped in the traced run.  The CLI
# and archsim reach the ciphers through these package attributes, so
# patching them sees every call the commands make.
TRACED = (
    ("cli", "parse_kat_file"),
    ("hc3", "key_schedule"), ("hc3", "encrypt"), ("hc3", "decrypt"),
    ("camellia", "key_schedule"), ("camellia", "encrypt"), ("camellia", "decrypt"),
    ("archsim", "run_block"), ("archsim", "step"),
)
SELF_TIMED = ("hc3.key_schedule", "hc3.encrypt", "hc3.decrypt",
              "camellia.key_schedule", "camellia.encrypt", "camellia.decrypt",
              "archsim.run_block", "archsim.step")


class Spans:
    """In-memory span store: one row per call, parents before children."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = [-1]

    def wrap(self, label: str, fn):
        if label not in self.ids:
            self.ids[label] = len(self.names)
            self.names.append(label)
        nid = self.ids[label]
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self.stack
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = now()
                stack.pop()

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            names = self.names
            fh.writelines(f"{i},{names[n]},{s},{e},{p}\n" for i, (n, s, e, p) in
                          enumerate(zip(self.name, self.start, self.end, self.parent)))

    def summary(self) -> tuple[dict[str, dict[str, float]], int]:
        """Calls, total seconds and self seconds per span name, and the
        number of key schedules built under `simulate` commands."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
        out = {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in self.names}
        sim_schedules = 0
        for i in range(n):
            label = self.names[self.name[i]]
            row = out[label]
            row["calls"] += 1
            row["total_s"] += dur[i] / 1e9
            row["self_s"] += (dur[i] - child[i]) / 1e9
            if label.endswith(".key_schedule") and self.names[self.name[root[i]]] == "cli.simulate":
                sim_schedules += 1
        return out, sim_schedules


@contextmanager
def wrapped_layers(hc3cam, spans: Spans):
    saved = []
    try:
        for module, attr in TRACED:
            mod = getattr(hc3cam, module)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, spans.wrap(f"{module}.{attr}", fn))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def traced_run(hc3cam, cmds, spans_path: Path):
    """Run cmds in-process untraced, then traced; return every outcome
    and the span-derived metrics."""
    import hc3cam.cli as cli
    plain = [run_inprocess(cli.main, c) for c in cmds]
    spans = Spans()
    with wrapped_layers(hc3cam, spans):
        traced = [run_inprocess(spans.wrap("cli." + c.argv[0], cli.main), c) for c in cmds]
    spans.write(spans_path)
    s, sim_schedules = spans.summary()
    metrics = {
        "cli.self_s": sum(row["self_s"] for label, row in s.items() if label.startswith("cli.")),
        "cli.parse_kat_file.s": s["cli.parse_kat_file"]["total_s"],
        "archsim.key_schedules_per_block": sim_schedules / s["archsim.run_block"]["calls"],
        "trace.overhead_ratio": (sum(o.wall_s for o in traced) / sum(o.wall_s for o in plain)),
    }
    for label in SELF_TIMED:
        metrics[f"{label}.calls"] = s[label]["calls"]
        metrics[f"{label}.self_s"] = s[label]["self_s"]
    return plain + traced, metrics


def per_call_us(fn, args, repeat_s: float, repeats: int = 5) -> float:
    """Median time of one call, over repeats of a loop lasting ~repeat_s."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        if time.perf_counter() - t0 >= repeat_s:
            break
        n *= 2
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        times.append((time.perf_counter() - t0) / n)
    return median(times) * 1e6


def microbench(hc3cam, seed: str, repeat_s: float) -> dict[str, float]:
    hc3, cam, archsim = hc3cam.hc3, hc3cam.camellia, hc3cam.archsim
    rng = random.Random(seed)
    key, block = rng.randbytes(16), rng.randbytes(16)
    word, kl_key = rng.getrandbits(64), rng.getrandbits(64)
    ks = hc3.key_schedule(key)
    rk = ks.round_keys[rng.randrange(6)]
    z = hc3.pad_and_prewhiten(key)
    g = hc3.get_constants().g0[rng.randrange(5)]
    sk = cam.key_schedule(key)
    # a device mid-block: the state most ticks of `simulate` start from
    state = archsim.initial_state(archsim.PROFILES["hc3-long"])
    while not state.ready:
        state = archsim.step(state)
    state = archsim.step(state, start_edge=True)
    cases = {
        "hc3.key_schedule.full_precompute": (hc3.key_schedule, key, "full_precompute"),
        "hc3.key_schedule.cached_1600": (hc3.key_schedule, key, "cached_1600"),
        "hc3.f_sigma": (hc3.f_sigma, word),
        "hc3.sigma": (hc3.sigma, z, g),
        "hc3.sigma_inv": (hc3.sigma_inv, z, g),
        "hc3.encrypt": (hc3.encrypt, block, ks),
        "hc3.decrypt": (hc3.decrypt, block, ks),
        "hc3.xs": (hc3.xs, block, rk),
        "hc3.xs_inv": (hc3.xs_inv, block, rk),
        "hc3.mds_h": (hc3.mds_h, block),
        "hc3.mds_h_inv": (hc3.mds_h_inv, block),
        "hc3.rho": (hc3.rho, block, rk),
        "hc3.merged_xs": (hc3.merged_xs, block, rk),
        "camellia.key_schedule": (cam.key_schedule, key),
        "camellia.encrypt": (cam.encrypt, block, sk),
        "camellia.decrypt": (cam.decrypt, block, sk),
        "camellia.f_function": (cam.f_function, word, kl_key),
        "camellia.fl": (cam.fl, word, kl_key),
        "camellia.fl_inv": (cam.fl_inv, word, kl_key),
        "archsim.step": (archsim.step, state),
    }
    for variant in EXPECTED_SIM:
        cases[f"archsim.run_block.{variant}"] = (archsim.run_block, archsim.PROFILES[variant],
                                                 key, block)
    return {f"{name}.us": per_call_us(fn, args, repeat_s) for name, (fn, *args) in cases.items()}


def cold_start(root: Path, env: dict[str, str], reps: int) -> dict[str, float]:
    """Medians of cold import and constant loading, one fresh process each."""
    script = Path(__file__).resolve().parent / "cold_start.py"
    samples = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, str(script)], cwd=root, env=env,
                             capture_output=True, text=True, check=True).stdout
        samples.append(json.loads(out.splitlines()[-1]))
    return {name: median(s[name] for s in samples) for name in samples[0]}
