"""Bit-matrix linear algebra over GF(2).

A matrix is a tuple of row masks: bit j of row i set means output lane i
XORs in input lane j.  Lanes can be anything XOR-able: the engines apply
byte rows to byte planes (ints holding one byte per block or key), and
hc3.linear's layer-by-layer reference applies the word-lane rows of a
.ctab to 16/32/64-bit words.  Every command that runs a cipher loads this
module: the constant sets' load-time checks, the byte-plane engines and
the key-sliced schedules apply row sets with apply_rows, and
position_tables builds every lookup table of both ciphers from the
images of a layer's input bits.  The byte-lane lookup kernel (lane_map,
row_images) lives in hc3cam.lanes, which a constant set imports when it
first builds a lane map or P's column tables.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Sequence

IDENTITY = bytes(range(256))


@lru_cache(maxsize=64)
def _lane_indices(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The input lanes each row mask selects, lowest first."""
    return tuple(tuple(j for j in range(mask.bit_length()) if mask >> j & 1) for mask in rows)


def apply_rows(rows: Sequence[int], lanes: Sequence[int]) -> tuple[int, ...]:
    """XOR-combine input lanes per row mask; returns one lane per row, 0
    for a zero row.  The lane indices of the 64 row sets used last are
    kept, so a constant set's rows are walked bit by bit once.

    With the rows of a matrix b as the lanes, this is the product a*b,
    i.e. the map 'apply b, then a'.
    """
    out = []
    for picks in _lane_indices(tuple(rows)):
        acc = lanes[picks[0]] if picks else 0
        for j in picks[1:]:
            acc ^= lanes[j]
        out.append(acc)
    return tuple(out)


def position_tables(images: Sequence[int], src: Sequence[int] = IDENTITY):
    """tables[p][x]: the image of byte src[x] alone at input byte p, byte 0
    the most significant, under the map whose input bit k has images[k].
    Each is built by XOR doubling over its byte's eight images,
    T(x | 1 << b) = T(x) ^ T(1 << b) for x below 1 << b, then re-indexed."""
    pick = itemgetter(*src)
    tables = []
    for k in range(len(images), 0, -8):
        table = [0]
        for v in images[k - 8:k]:
            table += [t ^ v for t in table]
        tables.append(pick(table))
    return tuple(tables)


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def invert(rows: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """Invert an n x n bit matrix by Gauss-Jordan elimination.

    Raises ValueError if the matrix is singular, or not n x n: a row
    with a bit at or above n would select no lane.
    """
    if n is None:
        n = len(rows)
    if len(rows) != n or max(rows, default=0) >> n:
        raise ValueError(f"not a {n} x {n} bit matrix")
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
