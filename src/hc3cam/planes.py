"""Byte-plane form of a batch of 16-byte blocks, shared by both ciphers.

Byte j of every block of a batch forms plane j (data[j::16]).  Every layer
of HIEROCRYPT-3 and Camellia maps single bytes or XORs whole bytes, so
across the batch an s-box with its key addition is one translate per plane
and a byte-XOR diffusion layer an XOR of whole planes as big ints: the
byte-level form of bitslicing.  A cipher direction is a list of
(layer, per-key argument) steps over the sixteen planes, built once per
key and kept on its key schedule.
"""

from __future__ import annotations

BLOCK_BYTES = 16


def keyed_tables(boxes, key: bytes, inverse: bool = False) -> tuple[bytes, ...]:
    """Per-plane tables of an s-box layer with a key addition: boxes[p][x ^ k_p]
    (key added before the box), or boxes[p][x] ^ k_p (after) if inverse."""
    out = []
    for box, k in zip(boxes, key, strict=True):
        xor = bytes(x ^ k for x in range(256))
        out.append(box.translate(xor) if inverse else xor.translate(box))
    return tuple(out)


def sub(planes, tables):
    """One translate per plane."""
    return [plane.translate(table) for plane, table in zip(planes, tables)]


def run_program(data: bytes, cipher: str, programs: dict, direction: bool, build) -> bytes:
    """Run the steps of programs[direction] on the planes of data.

    build() makes the steps on the first call with data; programs is the
    key schedule's cache of them.
    """
    if len(data) % BLOCK_BYTES:
        raise ValueError(
            f"{cipher} data length {len(data)} is not a multiple of {BLOCK_BYTES} bytes")
    if not data:
        return b""
    steps = programs.get(direction)
    if steps is None:
        steps = programs[direction] = build()
    planes = [data[j::BLOCK_BYTES] for j in range(BLOCK_BYTES)]
    for layer, arg in steps:
        planes = layer(planes, arg)
    out = bytearray(len(data))
    for j, plane in enumerate(planes):
        out[j::BLOCK_BYTES] = plane
    return bytes(out)
