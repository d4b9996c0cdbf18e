"""Command-line front end.

    hc3cam encrypt  --cipher hc3|camellia --key <hex32> --in F --out G
    hc3cam decrypt  --cipher hc3|camellia --key <hex32> --in F --out G
    hc3cam kat      --cipher hc3|camellia --vectors F
    hc3cam bench    --cipher hc3|camellia --blocks N
    hc3cam simulate --variant V [--blocks N] [--clock-mhz F] [--profile-file F]

Exit codes: 0 success, 1 known-answer verification mismatch, 2 usage or
format error.  Files are processed as raw 16-byte ECB blocks; a partial
final block is an error, never padded.  encrypt/decrypt stream the file in
chunks of CHUNK_BLOCKS blocks, each through the cipher's byte-plane batch
engine (encrypt_blocks/decrypt_blocks of hc3 or camellia), and bench times
that engine.  kat runs its records key-sliced, CHUNK_BLOCKS records at a
time: one key_schedule_sliced per chunk, then encrypt_sliced of the
plaintexts and decrypt_sliced of the ciphertexts.  simulate checks each
block against the per-block encrypt.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import time
from dataclasses import dataclass

from . import archsim
from . import camellia as cam
from . import hc3
from .ctab import ConstantsError

BLOCK_BYTES = 16
# encrypt/decrypt read, process and write this many blocks at a time:
# memory stays bounded whatever the file size, and a chunk is large enough
# that the batch engine's per-call cost is spread thin
CHUNK_BLOCKS = 8192
# bench reports the fastest of at least BENCH_PASSES passes over --blocks
# blocks, repeated until they took BENCH_MIN_S in all: a pass can take
# only milliseconds, which one scheduler stall can double
BENCH_PASSES = 3
BENCH_MIN_S = 0.1
# --cipher name -> package with key_schedule, encrypt, decrypt,
# encrypt_blocks, decrypt_blocks, key_schedule_sliced, encrypt_sliced and
# decrypt_sliced
CIPHERS = {"hc3": hc3, "camellia": cam}


class CliError(Exception):
    """Usage or data-format problem; maps to exit code 2."""


def _parse_key(hex_key: str) -> bytes:
    cleaned = hex_key.strip()
    try:
        key = bytes.fromhex(cleaned)
    except ValueError:
        raise CliError(f"key is not valid hex: {hex_key!r}") from None
    if len(key) != BLOCK_BYTES:
        raise CliError(f"key must be 32 hex digits (16 bytes), got {len(key)} bytes")
    return key


def _chunk_fn(cipher: str, key: bytes, decrypt: bool):
    """chunk -> chunk through the cipher's batch engine."""
    mod = CIPHERS[cipher]
    ks = mod.key_schedule(key)
    batch = mod.decrypt_blocks if decrypt else mod.encrypt_blocks
    return lambda chunk: batch(chunk, ks)


def _check_length(n: int) -> None:
    if n % BLOCK_BYTES:
        raise CliError(
            f"input length {n} is not a multiple of {BLOCK_BYTES} bytes "
            "(raw ECB block processing, no padding)"
        )


def cmd_crypt(args) -> int:
    key = _parse_key(args.key)
    process = _chunk_fn(args.cipher, key, args.command == "decrypt")
    try:
        with open(args.infile, "rb") as src:
            st = os.fstat(src.fileno())
            if stat.S_ISREG(st.st_mode):
                _check_length(st.st_size)
            try:
                in_place = os.path.samestat(st, os.stat(args.outfile))
            except OSError:
                in_place = False
            # in place, each chunk is written back over itself after it was
            # read; "wb" would truncate the input before the first read
            with open(args.outfile, "r+b" if in_place else "wb") as dst:
                total = 0
                while chunk := src.read(CHUNK_BLOCKS * BLOCK_BYTES):
                    total += len(chunk)
                    _check_length(total)   # a pipe's length shows at its end
                    dst.write(process(chunk))
    except OSError as exc:
        raise CliError(str(exc)) from exc
    return 0


@dataclass(slots=True)
class KatRecord:
    cipher: str
    index: int
    key: bytes
    plaintext: bytes
    ciphertext: bytes


def parse_kat_file(text: str, source: str = "<kat>",
                   cipher: str = "") -> list[KatRecord]:
    """KEY=/PT=/CT= triples, '#' comments, blank lines between records."""
    records = []
    pending: dict[str, bytes] = {}
    order = ("KEY", "PT", "CT")

    def close(lineno):
        if not pending:
            return
        missing = [f for f in order if f not in pending]
        if missing:
            raise CliError(f"{source}:{lineno}: record missing {'/'.join(missing)}")
        records.append(KatRecord(cipher, len(records) + 1, pending["KEY"],
                                 pending["PT"], pending["CT"]))
        pending.clear()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            close(lineno)
            continue
        if "=" not in line:
            raise CliError(f"{source}:{lineno}: expected FIELD=hex, got {line!r}")
        name, _, value = line.partition("=")
        name = name.strip().upper()
        if name not in order:
            raise CliError(f"{source}:{lineno}: unknown field {name!r}")
        if name in pending:
            raise CliError(f"{source}:{lineno}: duplicate {name} in record")
        try:
            payload = bytes.fromhex(value.strip())
        except ValueError:
            raise CliError(f"{source}:{lineno}: bad hex in {name}") from None
        if len(payload) != BLOCK_BYTES:
            raise CliError(f"{source}:{lineno}: {name} must be 32 hex digits")
        pending[name] = payload
    close(lineno + 1 if text else 0)
    if not records:
        raise CliError(f"{source}: no records found")
    return records


def _mismatch(rec: KatRecord, direction: str, expected: bytes, got: bytes) -> int:
    """Print a mismatch of one record in one direction; 1 if there was one."""
    if got == expected:
        return 0
    print(f"record {rec.index}: {direction} mismatch\n"
          f"  key      {rec.key.hex()}\n"
          f"  expected {expected.hex()}\n"
          f"  got      {got.hex()}")
    return 1


def _read_vectors(args) -> list[KatRecord]:
    # the text goes out of scope on return, before the records are run
    try:
        with open(args.vectors, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{args.vectors}: {exc}") from exc
    return parse_kat_file(text, source=args.vectors, cipher=args.cipher)


def cmd_kat(args) -> int:
    records = _read_vectors(args)
    mod = CIPHERS[args.cipher]
    failures = 0
    for start in range(0, len(records), CHUNK_BLOCKS):
        chunk = records[start:start + CHUNK_BLOCKS]
        ks = mod.key_schedule_sliced(b"".join(rec.key for rec in chunk))
        plain = b"".join(rec.plaintext for rec in chunk)
        cipher = b"".join(rec.ciphertext for rec in chunk)
        got_ct = mod.encrypt_sliced(plain, ks)
        got_pt = mod.decrypt_sliced(cipher, ks)
        if got_ct == cipher and got_pt == plain:
            continue
        for i, rec in enumerate(chunk):
            block = slice(BLOCK_BYTES * i, BLOCK_BYTES * (i + 1))
            failures += _mismatch(rec, "encrypt", rec.ciphertext, got_ct[block])
            failures += _mismatch(rec, "decrypt", rec.plaintext, got_pt[block])
    total = len(records)
    if failures:
        print(f"{args.cipher}: {failures} mismatch(es) across {total} record(s)")
        return 1
    print(f"{args.cipher}: all {total} record(s) passed, both directions")
    return 0


@dataclass
class BenchResult:
    cipher: str
    blocks: int
    seconds: float

    @property
    def throughput_mbps(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.blocks * 128 / self.seconds / 1e6

    def csv(self) -> str:
        return f"{self.cipher},{self.blocks},{self.seconds:.6f},{self.throughput_mbps:.3f}"


def cmd_bench(args) -> int:
    if args.blocks <= 0:
        raise CliError("--blocks must be positive")
    mod = CIPHERS[args.cipher]
    ks = mod.key_schedule(bytes(range(16)))
    # the step tables are built by the first call, before the timer starts
    mod.encrypt_blocks(bytes(BLOCK_BYTES), ks)
    chunk = bytes(BLOCK_BYTES * min(args.blocks, CHUNK_BLOCKS))
    passes = []
    while len(passes) < BENCH_PASSES or sum(passes) < BENCH_MIN_S:
        t0 = time.perf_counter()
        for start in range(0, args.blocks, CHUNK_BLOCKS):
            mod.encrypt_blocks(chunk[:BLOCK_BYTES * (args.blocks - start)], ks)
        passes.append(time.perf_counter() - t0)
    result = BenchResult(args.cipher, args.blocks, min(passes))
    print("cipher,blocks,seconds,throughput_mbps")
    print(result.csv())
    return 0


def cmd_simulate(args) -> int:
    if not args.variant and not args.profile_file:
        raise CliError("simulate needs --variant or --profile-file; valid "
                       "variants: " + ", ".join(sorted(archsim.PROFILES)))
    if args.profile_file:
        try:
            with open(args.profile_file, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise CliError(f"{args.profile_file}: {exc}") from exc
        try:
            profile = archsim.parse_profile(text, source=args.profile_file)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    else:
        profile = archsim.PROFILES.get(args.variant)
        if profile is None:
            raise CliError(
                f"unknown variant {args.variant!r}; valid: "
                + ", ".join(sorted(archsim.PROFILES))
            )
    if args.clock_mhz is not None and not (math.isfinite(args.clock_mhz)
                                           and args.clock_mhz > 0):
        raise CliError("--clock-mhz must be finite and positive")
    if args.blocks < 0:
        raise CliError("--blocks must be non-negative")

    clock = args.clock_mhz if args.clock_mhz is not None else profile.clock_mhz
    row = archsim.model_row(profile, clock)

    print(f"variant: {profile.variant} ({profile.cipher})")
    print(f"setup cycles: {len(profile.setup_schedule)}")
    print(f"work cycles per block: {profile.work_cycles_per_block}")
    if clock is not None:
        print(f"clock: {clock:.2f} MHz")
    if profile.critical_path_label:
        extra = ""
        if profile.critical_path_ns is not None:
            extra = (f" ({profile.critical_path_ns:g} ns, max clock "
                     f"{profile.max_clock_mhz:.2f} MHz)")
        print(f"critical path: {profile.critical_path_label}{extra}")
    if profile.resources:
        print(f"resources: {profile.resources}")
    if row.modeled_mbps is not None:
        print(f"modeled throughput: {row.modeled_mbps:.2f} Mb/s")
    if row.paper_mbps is not None:
        print(f"published throughput: {row.paper_mbps:.2f} Mb/s")
    if row.deviation is not None:
        flag = "  ** DISCREPANCY (documented; figures kept verbatim) **" if row.flagged else ""
        print(f"deviation: {100 * row.deviation:.2f}%{flag}")

    key = bytes(range(16))
    functional_ok = True
    state = archsim.initial_state(profile)
    while not state.ready:
        state = archsim.step(state)
    setup_ticks = state.cycle_counter
    # every block's ciphertext is checked against the functional cipher on
    # its default key schedule, a different route from the device's setup
    ref = CIPHERS[profile.cipher]
    ref_ks = ref.key_schedule(key) if args.blocks else None
    trace = None
    for i in range(args.blocks):
        block = i.to_bytes(16, "big")
        trace = archsim.run_block(profile, key, block)
        functional_ok &= trace.ciphertext == ref.encrypt(block, ref_ks)
        state = archsim.step(state, start_edge=True)
        while state.work:
            state = archsim.step(state)
    print(f"blocks simulated: {args.blocks} "
          f"(ciphertext vs functional model: {'OK' if functional_ok else 'MISMATCH'})")
    print(f"device ticks: {state.cycle_counter} total, {setup_ticks} setup")
    if args.trace and trace is not None:
        print("cycle trace (last block):")
        for cyc in trace.cycles:
            print(f"  {cyc.index}: " + " | ".join(cyc.ops))
    print()
    print(f"comparison ({profile.cipher} family):")
    print(archsim.render_report(archsim.report(), cipher=profile.cipher))
    if not functional_ok:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hc3cam",
        description="HIEROCRYPT-3 / Camellia block tool and FPGA datapath model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cipher(p):
        p.add_argument("--cipher", required=True, choices=("hc3", "camellia"))

    p_enc = sub.add_parser("encrypt", help="encrypt a file of 16-byte blocks")
    p_dec = sub.add_parser("decrypt", help="decrypt a file of 16-byte blocks")
    for p in (p_enc, p_dec):
        p.set_defaults(func=cmd_crypt)
        add_cipher(p)
        p.add_argument("--key", required=True, help="32 hex digits")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="outfile", required=True)

    p_kat = sub.add_parser("kat", help="run a known-answer vector file")
    p_kat.set_defaults(func=cmd_kat)
    add_cipher(p_kat)
    p_kat.add_argument("--vectors", required=True)

    p_bench = sub.add_parser("bench", help="time software block encryption")
    p_bench.set_defaults(func=cmd_bench)
    add_cipher(p_bench)
    p_bench.add_argument("--blocks", type=int, default=10000)

    p_sim = sub.add_parser("simulate", help="run the datapath model")
    p_sim.set_defaults(func=cmd_simulate)
    p_sim.add_argument("--variant", default=None,
                       help=", ".join(sorted(archsim.PROFILES)))
    p_sim.add_argument("--blocks", type=int, default=1)
    p_sim.add_argument("--clock-mhz", type=float, default=None)
    p_sim.add_argument("--profile-file", default=None,
                       help="load a profile description instead of a built-in")
    p_sim.add_argument("--trace", action="store_true",
                       help="print the per-cycle trace of the last block")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConstantsError) as exc:
        print(f"hc3cam: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
