"""Bit-matrix linear algebra over GF(2).

A matrix is a tuple of row masks: bit j of row i set means output lane i
XORs in input lane j.  Lanes can be anything XOR-able (bytes-as-ints,
16/32/64-bit words), which is how all the byte- and word-level XOR
selection layers in this package are expressed.
"""

from __future__ import annotations

from typing import Sequence


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
