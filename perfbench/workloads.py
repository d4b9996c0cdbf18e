"""Workloads of the hc3cam benchmark: seeded inputs, the ``hc3cam``
commands that process them, and the checks every command's output must
pass.

A workload is a list of commands run one after another (a closed loop
with one client).  Each command is one ``hc3cam`` invocation described
by a :class:`Cmd`: its argument list, the cipher family whose rate it
counts towards, the number of 16-byte blocks it processes, and a check
that returns a list of problems (empty when the output is correct).

The same :class:`Cmd` runs either as a fresh ``python -m hc3cam.cli``
process (the untraced, end-to-end path) or in-process through
``hc3cam.cli.main`` (the traced path in ``layers.py``).
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BLOCK = 16
WORKLOADS = ("bulk-ecb", "many-keys", "simulate")

# Statistics of the five built-in archsim variants that no simulator
# speed-up may change: setup cycles, work cycles per block, and the
# model-vs-published throughput deviation exactly as `simulate` prints it.
EXPECTED_SIM = {
    "hc3-short": (4, 8, "12.00%"),
    "hc3-long": (8, 8, "0.29%"),
    "hc3-verylong": (18, 7, "5.92%"),
    "hc3-extensive": (18, 7, "0.09%"),
    "camellia-lu3": (2, 6, "16.89%"),
}
SIM_CIPHER = {v: ("camellia" if v.startswith("camellia") else "hc3") for v in EXPECTED_SIM}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run.  FULL is what the benchmark measures; the
    smoke test uses TINY so that the harness is exercised in seconds."""

    bulk_bytes: int       # one random file, encrypted and decrypted by both ciphers
    kat_hc3: int          # records (one key each) in the generated hc3 vector file
    kat_camellia: int     # records in the generated camellia vector file
    sim_hc3: int          # --blocks for each of the four hc3 variants
    sim_camellia: int     # --blocks for camellia-lu3
    setup_procs: int      # about this many zero-work invocations behind setup_s
    sample_blocks: int    # ciphertext blocks compared with the library reference
    micro_s: float        # time of one microbench repeat of a library function
    cold_reps: int        # fresh processes behind the cold start-up medians


# 2 MiB keeps bulk-ecb dominated by block work even if the block path
# gets ~20x faster (about 0.3 s of blocks against ~0.17 s of start-up).
# The kat and simulate sizes give each invocation about 1-2 s of work.
FULL = Sizes(bulk_bytes=2 << 20, kat_hc3=6000, kat_camellia=12000,
             sim_hc3=1500, sim_camellia=5000, setup_procs=20, sample_blocks=32,
             micro_s=0.01, cold_reps=5)
TINY = Sizes(bulk_bytes=64 * BLOCK, kat_hc3=4, kat_camellia=4,
             sim_hc3=2, sim_camellia=2, setup_procs=1, sample_blocks=4,
             micro_s=0.0001, cold_reps=1)


@dataclass
class Cmd:
    argv: list[str]
    cipher: str                      # family whose rate this command counts towards
    blocks: int
    check: Callable[[int, str], list[str]]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    cmd: Cmd
    wall_s: float
    rss_mib: float
    out: str
    problems: list[str]


# --- the repository under test ----------------------------------------------

def check_root(root: Path) -> None:
    """Refuse to run anywhere but the root of an hc3cam source tree."""
    if not (root / "src" / "hc3cam" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {root} holds no src/hc3cam; run from the repository root")


def import_hc3cam(root: Path):
    """Import the package under test from root/src, never an installed copy."""
    os.environ.pop("HC3CAM_CONSTANTS_DIR", None)
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import hc3cam
    if Path(hc3cam.__file__).resolve().parent != (root / "src" / "hc3cam").resolve():
        raise SystemExit(f"perfbench: imported hc3cam from {hc3cam.__file__}, not {src}")
    return hc3cam


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("HC3CAM_CONSTANTS_DIR", None)
    return env


def run_process(root: Path, cmd: Cmd, env: dict[str, str]) -> Outcome:
    """One fresh `hc3cam` process: wall time from spawn to exit, peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "hc3cam.cli", *cmd.argv], cwd=root,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    text = out.decode("utf-8", "replace")
    return Outcome(cmd, wall, usage.ru_maxrss / 1024, text, problems(cmd, code, text))


def run_inprocess(main: Callable[[list[str]], int], cmd: Cmd) -> Outcome:
    """The same command through hc3cam.cli.main (or a wrapper of it) in
    this process; peak RSS is not attributable and reads 0."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = main(cmd.argv)
    wall = time.perf_counter() - t0
    text = buf.getvalue()
    return Outcome(cmd, wall, 0.0, text, problems(cmd, code, text))


def problems(cmd: Cmd, code: int, out: str) -> list[str]:
    found = [] if code == 0 else [f"exit code {code}: {out.strip()[-300:]}"]
    found += cmd.check(code, out)
    return [f"{cmd.label}: {p}" for p in found]


# --- provenance ---------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD of root/.git read from its files (no git process, no parent dirs)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(directory: Path) -> str:
    """Digest of every source and data file under directory, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def ctab_stamp(path: Path, root: Path) -> dict:
    raw = path.read_bytes()
    header = raw.split(b"%ctab", 1)[0]
    return {
        "path": str(path.relative_to(root)),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "status": "reconstruction" if b"RECONSTRUCTED" in header else "official",
    }


def provenance(root: Path) -> dict:
    data = root / "src" / "hc3cam" / "data"
    return {
        "commit": git_commit(root),
        "src_sha256": tree_sha256(root / "src" / "hc3cam"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "ctab": [ctab_stamp(data / name, root) for name in ("hc3.ctab", "camellia.ctab")],
    }


# --- checks -------------------------------------------------------------------

def expect_line(pattern: str) -> Callable[[int, str], list[str]]:
    rx = re.compile(pattern, re.M)
    return lambda code, out: [] if rx.search(out) else [f"no line matching {pattern!r}"]


def kat_cmd(cipher: str, path: Path, records: int) -> Cmd:
    return Cmd(["kat", "--cipher", cipher, "--vectors", str(path)], cipher, records,
               expect_line(rf"^{cipher}: all {records} record\(s\) passed, both directions$"))


def simulate_cmd(variant: str, blocks: int) -> Cmd:
    setup, work, deviation = EXPECTED_SIM[variant]
    ticks = setup + blocks * (work + 1)

    def check(code, out):
        found = []
        for pattern in (rf"^setup cycles: {setup}$",
                        rf"^work cycles per block: {work}$",
                        rf"^deviation: {re.escape(deviation)}",
                        rf"^blocks simulated: {blocks} \(ciphertext vs functional model: OK\)$",
                        rf"^device ticks: {ticks} total, {setup} setup$"):
            found += expect_line(pattern)(code, out)
        return found

    return Cmd(["simulate", "--variant", variant, "--blocks", str(blocks)],
               SIM_CIPHER[variant], blocks, check)


def gate_commands(root: Path) -> list[Cmd]:
    """Checked before any timing, on every workload: the shipped vector
    files (RFC 3713 for camellia, regression vectors for hc3) and one
    simulated block of every variant with its exact statistics."""
    kat = root / "src" / "hc3cam" / "data" / "kat"
    cmds = []
    for cipher in ("camellia", "hc3"):
        path = kat / f"{cipher}.kat"
        records = len(re.findall(r"^KEY=", path.read_text(), re.M))
        cmds.append(kat_cmd(cipher, path, records))
    cmds += [simulate_cmd(v, 1) for v in EXPECTED_SIM]
    return cmds


# --- workloads ------------------------------------------------------------------

class Workload:
    """Inputs made from a seed, plus the commands of one set-up repetition
    (zero blocks of work) and of one measured round."""

    def __init__(self, name: str, seed: int, sizes: Sizes, work: Path, hc3cam):
        self.name, self.sizes, self.work = name, sizes, work
        self.rng = random.Random(f"{name}:{seed}")
        self.hc3cam = hc3cam
        {"bulk-ecb": self._make_bulk_ecb, "many-keys": self._make_many_keys,
         "simulate": self._make_simulate}[name]()

    def _reference_encrypt(self, cipher: str, key: bytes, block: bytes) -> bytes:
        """The per-block library reference, on a freshly built key schedule."""
        mod = self.hc3cam.hc3 if cipher == "hc3" else self.hc3cam.camellia
        return mod.encrypt(block, mod.key_schedule(key))

    # bulk-ecb: one key per cipher, one large file, encrypt then decrypt.
    def _make_bulk_ecb(self):
        plain = self.rng.randbytes(self.sizes.bulk_bytes)
        plain_path = self.work / "plain.bin"
        plain_path.write_bytes(plain)
        empty = self.work / "empty.bin"
        empty.write_bytes(b"")
        nblocks = len(plain) // BLOCK
        sample = sorted(self.rng.sample(range(nblocks), min(self.sizes.sample_blocks, nblocks)))
        self.setup, self.round = [], []
        for cipher in ("hc3", "camellia"):
            key = self.rng.randbytes(16)
            ref = {i: self._reference_encrypt(cipher, key, plain[i * BLOCK:(i + 1) * BLOCK])
                   for i in sample}
            ct = self.work / f"{cipher}.ct"
            rt = self.work / f"{cipher}.rt"
            common = ["--cipher", cipher, "--key", key.hex()]
            for op in ("encrypt", "decrypt"):
                out = self.work / f"{cipher}.{op}.empty"
                self.setup.append(Cmd([op, *common, "--in", str(empty), "--out", str(out)],
                                      cipher, 0, self._expect_file(out, b"")))
            self.round.append(Cmd(["encrypt", *common, "--in", str(plain_path), "--out", str(ct)],
                                  cipher, nblocks, self._expect_sample(ct, ref, nblocks)))
            self.round.append(Cmd(["decrypt", *common, "--in", str(ct), "--out", str(rt)],
                                  cipher, nblocks, self._expect_file(rt, plain)))

    @staticmethod
    def _expect_file(path: Path, want: bytes):
        def check(code, out):
            got = path.read_bytes() if path.exists() else None
            return [] if got == want else [f"{path.name} does not round-trip byte for byte"]
        return check

    @staticmethod
    def _expect_sample(path: Path, ref: dict[int, bytes], nblocks: int):
        def check(code, out):
            got = path.read_bytes() if path.exists() else b""
            if len(got) != nblocks * BLOCK:
                return [f"{path.name} is {len(got)} bytes, expected {nblocks * BLOCK}"]
            bad = [i for i, want in ref.items() if got[i * BLOCK:(i + 1) * BLOCK] != want]
            return [f"{path.name}: block {i} differs from the library reference" for i in bad]
        return check

    # many-keys: one record per key, generated with the library reference.
    def _make_many_keys(self):
        self.setup, self.round = [], []
        for cipher, n in (("hc3", self.sizes.kat_hc3), ("camellia", self.sizes.kat_camellia)):
            records = []
            for _ in range(n):
                key, pt = self.rng.randbytes(16), self.rng.randbytes(16)
                ct = self._reference_encrypt(cipher, key, pt)
                records.append(f"KEY={key.hex()}\nPT={pt.hex()}\nCT={ct.hex()}\n")
            path = self.work / f"{cipher}.kat"
            path.write_text("\n".join(records), encoding="ascii")
            one = self.work / f"{cipher}.one.kat"
            one.write_text(records[0], encoding="ascii")
            self.setup.append(kat_cmd(cipher, one, 1))
            self.round.append(kat_cmd(cipher, path, n))

    # simulate: every variant with the functional check on.  The CLI takes
    # no data input, so the seed only fixes the order of the variants.
    def _make_simulate(self):
        variants = list(EXPECTED_SIM)
        self.rng.shuffle(variants)
        self.setup = [simulate_cmd(v, 0) for v in variants]
        self.round = [simulate_cmd(v, self.sizes.sim_camellia if SIM_CIPHER[v] == "camellia"
                                   else self.sizes.sim_hc3) for v in variants]
