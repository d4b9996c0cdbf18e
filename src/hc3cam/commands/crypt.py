"""The encrypt, decrypt and bench commands, which run a cipher's
single-key batch engine: over a file, or (bench) over all-zero blocks."""

from __future__ import annotations

import os
import stat
import time
from importlib import import_module

from .. import cli
from ..cli import BLOCK_BYTES, CIPHERS, CliError

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
