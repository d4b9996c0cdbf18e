"""Bit-matrix linear algebra over GF(2), and the byte-lane lookup kernel.

A matrix is a tuple of row masks: bit j of row i set means output lane i
XORs in input lane j.  Lanes can be anything XOR-able (bytes-as-ints,
16/32/64-bit words), which is how all the byte- and word-level XOR
selection layers in this package are expressed.

lane_map is the byte-lane kernel of both ciphers' per-block layers, over
per-byte-position tables such as lane_tables builds for a row set.
"""

from __future__ import annotations

from typing import Callable, Sequence

IDENTITY = bytes(range(256))


def apply_rows(rows: Sequence[int], lanes: Sequence[int]) -> tuple[int, ...]:
    """XOR-combine input lanes per row mask; returns one lane per row.

    With the rows of a matrix b as the lanes, this is the product a*b,
    i.e. the map 'apply b, then a'.
    """
    out = []
    for mask in rows:
        acc = 0
        j = 0
        while mask:
            if mask & 1:
                acc ^= lanes[j]
            mask >>= 1
            j += 1
        out.append(acc)
    return tuple(out)


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def invert(rows: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """Invert an n x n bit matrix by Gauss-Jordan elimination.

    Raises ValueError if the matrix is singular.
    """
    if n is None:
        n = len(rows)
    if len(rows) != n:
        raise ValueError("matrix is not square")
    work = list(rows)
    inv = list(identity(n))
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if work[r] >> col & 1:
                pivot = r
                break
        if pivot is None:
            raise ValueError("singular bit matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(n):
            if r != col and work[r] >> col & 1:
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return tuple(inv)


def is_identity(rows: Sequence[int]) -> bool:
    return all(row == 1 << i for i, row in enumerate(rows))


def lane_tables(rows: Sequence[int], width: int,
                src: Sequence[int] = IDENTITY) -> tuple[tuple[int, ...], ...]:
    """tables[p][x]: the image under rows of byte src[x] alone at input byte
    position p, for lane_map.

    rows select over width-bit lanes, lane 0 the most significant; there is
    a table for each byte of each input lane the rows read, so 32 rows over
    16 input lanes of 8 bits give 16 tables of 256-bit values.
    """
    n, per = len(rows), width // 8
    # one multiply by a mask of 1-bits puts the byte at every output byte
    # it feeds; exact, as the bytes never overlap
    masks = [sum(1 << width * (n - 1 - i) + 8 * (per - 1 - k)
                 for i, row in enumerate(rows) if row >> j & 1)
             for j in range(max(rows).bit_length()) for k in range(per)]
    return tuple(tuple(s * mask for s in src) for mask in masks)


def lane_map(tables: Sequence[Sequence[int]]) -> Callable[[bytes], int]:
    """The function data -> XOR of tables[p][data[p]], with the 8 or 16
    tables bound in; data must hold one byte per table."""
    if len(tables) == 8:
        t0, t1, t2, t3, t4, t5, t6, t7 = tables

        def map8(data):
            b0, b1, b2, b3, b4, b5, b6, b7 = data
            return (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3]
                    ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7])
        return map8
    if len(tables) == 16:
        t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = tables

        def map16(data):
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = data
            return (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7]
                    ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11]
                    ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15])
        return map16
    raise ValueError(f"lane_map takes 8 or 16 tables, got {len(tables)}")
