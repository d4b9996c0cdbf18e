"""The encrypt, decrypt, bench and simulate commands.

hc3cam.cli imports this module only once its argv reader has read a
command line naming one of them, so --help, a usage error and kat compile
none of it.  The names all commands share stay in cli; CHUNK_BLOCKS is
read from it at call time, so patching cli.CHUNK_BLOCKS changes the
chunks of every command.
"""

from __future__ import annotations

import math
import os
import stat
import time
from importlib import import_module

from . import cli
from .cli import BLOCK_BYTES, CIPHERS, VARIANTS, CliError, _read_text

# bench reports the fastest of at least BENCH_PASSES passes over --blocks
# blocks, repeated until they took BENCH_MIN_S in all: a pass can take
# only milliseconds, which one scheduler stall can double
BENCH_PASSES = 3
BENCH_MIN_S = 0.1


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
    mod = import_module(CIPHERS[cipher])
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
                while chunk := src.read(cli.CHUNK_BLOCKS * BLOCK_BYTES):
                    total += len(chunk)
                    _check_length(total)   # a pipe's length shows at its end
                    dst.write(process(chunk))
    except OSError as exc:
        raise CliError(str(exc)) from exc
    return 0


def cmd_bench(args) -> int:
    if args.blocks <= 0:
        raise CliError("--blocks must be positive")
    mod = import_module(CIPHERS[args.cipher])
    ks = mod.key_schedule(bytes(range(16)))
    # the step tables are built by the first call, before the timer starts
    mod.encrypt_blocks(bytes(BLOCK_BYTES), ks)
    chunk = bytes(BLOCK_BYTES * min(args.blocks, cli.CHUNK_BLOCKS))
    passes = []
    while len(passes) < BENCH_PASSES or sum(passes) < BENCH_MIN_S:
        t0 = time.perf_counter()
        for start in range(0, args.blocks, cli.CHUNK_BLOCKS):
            mod.encrypt_blocks(chunk[:BLOCK_BYTES * (args.blocks - start)], ks)
        passes.append(time.perf_counter() - t0)
    seconds = min(passes)
    mbps = args.blocks * 128 / seconds / 1e6 if seconds > 0 else float("inf")
    print("cipher,blocks,seconds,throughput_mbps")
    print(f"{args.cipher},{args.blocks},{seconds:.6f},{mbps:.3f}")
    return 0


def cmd_simulate(args) -> int:
    if (args.variant is None) == (args.profile_file is None):
        raise CliError("simulate needs exactly one of --variant and --profile-file; "
                       "valid variants: " + ", ".join(VARIANTS))
    from . import archsim
    if args.profile_file is not None:
        from .profile_file import parse_profile
        text = _read_text(args.profile_file)
        try:
            profile = parse_profile(text, source=args.profile_file)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    else:
        profile = archsim.PROFILES.get(args.variant)
        if profile is None:
            raise CliError(
                f"unknown variant {args.variant!r}; valid: " + ", ".join(VARIANTS)
            )
    if args.clock_mhz is not None:
        if not (math.isfinite(args.clock_mhz) and args.clock_mhz > 0):
            raise CliError("--clock-mhz must be finite and positive")
        profile = profile._replace(clock_mhz=args.clock_mhz)
    if args.blocks < 0:
        raise CliError("--blocks must be non-negative")

    try:
        row = archsim.model_row(profile)
    except ValueError as exc:
        # only --clock-mhz can get here: a profile's figures were checked
        # when it was read
        raise CliError(f"--clock-mhz {args.clock_mhz:g}: {exc}") from exc

    print(f"variant: {profile.variant} ({profile.cipher})")
    print(f"setup cycles: {len(profile.setup_schedule)}")
    print(f"work cycles per block: {profile.work_cycles_per_block}")
    if profile.clock_mhz is not None:
        print(f"clock: {profile.clock_mhz:.2f} MHz")
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

    device = archsim.Device(profile, bytes(range(16)))
    functional_ok = True
    # every block's ciphertext is checked against the cipher's byte-plane
    # batch engine on its default key schedule, one call per chunk: a
    # different route from the device's setup and per-cycle rounds
    if args.blocks:
        ref = import_module(CIPHERS[profile.cipher])
        ref_ks = ref.key_schedule(device.key)
    trace = None
    for start in range(0, args.blocks, cli.CHUNK_BLOCKS):
        blocks = [i.to_bytes(BLOCK_BYTES, "big")
                  for i in range(start, min(start + cli.CHUNK_BLOCKS, args.blocks))]
        cts = []
        for block in blocks:
            trace = device.run(block)
            cts.append(trace.ciphertext)
        functional_ok &= b"".join(cts) == ref.encrypt_blocks(b"".join(blocks), ref_ks)
    print(f"blocks simulated: {args.blocks} "
          f"(ciphertext vs functional model: {'OK' if functional_ok else 'MISMATCH'})")
    print(f"device ticks: {device.state.cycle_counter} total, {device.setup_ticks} setup")
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
