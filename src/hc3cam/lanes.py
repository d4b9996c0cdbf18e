"""The byte-lane lookup kernel of both ciphers' per-block layers.

lane_map binds 8 or 16 per-byte-position tables into one function that
XORs their lookups; lane_tables builds those tables for a lane-selection
row set (gf2 row masks).  HIEROCRYPT-3's MDS-lower sets, a matrix over
GF(2^8), are built by hc3cam.hc3.mdsl.

A constant set imports this module when it first builds a lane map or
the tables behind one: HC3's key schedule, per-block rounds and archsim
datapaths (the *_tables and *_map of hc3.constants), and Camellia's
per-block F (f_map), which its per-key schedule runs too.  The byte-plane
and key-sliced engines read neither, so kat compiles none of this.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .gf2 import IDENTITY


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
