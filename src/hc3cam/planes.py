"""Byte-plane form of a batch of 16-byte blocks, shared by both ciphers.

Byte j of every block of a batch forms plane j (data[j::16]).  Every layer
of HIEROCRYPT-3 and Camellia maps single bytes or XORs whole bytes, so
across the batch an s-box with its key addition is one translate per plane
and a byte-XOR diffusion layer an XOR of whole planes as big ints: the
byte-level form of bitslicing.  A cipher direction is a list of
(layer, per-key argument) steps over the sixteen planes, built once per
key and kept by its engine.

Key-sliced batches put a different key under every block, as bitsliced
DES key search does (Biham, FSE 1997): the keys form byte planes of
their own, held as little-endian ints (byte i of a plane is slice i), so
a key addition is an XOR of whole planes followed by an unkeyed
translate, and the key schedules run on the planes too.
"""

from __future__ import annotations

BLOCK_BYTES = 16


def block_count(data: bytes, cipher: str) -> int:
    if len(data) % BLOCK_BYTES:
        raise ValueError(
            f"{cipher} data length {len(data)} is not a multiple of {BLOCK_BYTES} bytes")
    return len(data) // BLOCK_BYTES


def run_sliced(data: bytes, cipher: str, n: int, steps) -> bytes:
    """Run steps on data holding one block for each of the n keys of a
    key-sliced schedule, block i under key i."""
    if len(data) != BLOCK_BYTES * n:
        raise ValueError(f"{cipher} key-sliced data must hold one {BLOCK_BYTES}-byte "
                         f"block per key: {len(data)} bytes for {n} keys")
    return run_steps(data, steps)


def run_steps(data: bytes, steps) -> bytes:
    planes = [data[j::BLOCK_BYTES] for j in range(BLOCK_BYTES)]
    for layer, arg in steps:
        planes = layer(planes, arg)
    out = bytearray(len(data))
    for j, plane in enumerate(planes):
        out[j::BLOCK_BYTES] = plane
    return bytes(out)


def key_planes(keys: bytes, cipher: str) -> tuple[list[int], int]:
    """The sixteen byte planes of a batch of 16-byte keys as ints, and the
    number of keys."""
    if len(keys) % BLOCK_BYTES:
        raise ValueError(
            f"{cipher} keys length {len(keys)} is not a multiple of {BLOCK_BYTES} bytes")
    return ([int.from_bytes(keys[j::BLOCK_BYTES], "little") for j in range(BLOCK_BYTES)],
            len(keys) // BLOCK_BYTES)


def ones(n: int) -> int:
    """A plane of n slices holding byte 1 each: byte b * ones(n) repeats b."""
    return int.from_bytes(b"\x01" * n, "little")


def lookup(plane: int, table: bytes, n: int) -> int:
    """table applied to every byte of an n-slice plane."""
    return int.from_bytes(plane.to_bytes(n, "little").translate(table), "little")


def xor(a, b) -> list[int]:
    return [u ^ v for u, v in zip(a, b)]
