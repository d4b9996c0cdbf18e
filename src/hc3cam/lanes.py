"""The byte-lane lookup kernel of both ciphers' per-block layers.

lane_map binds 8 or 16 per-byte-position tables into one function that
XORs their lookups.  Those tables come from gf2.position_tables, which
row_images feeds with the images of a byte-selection row set (gf2 row
masks over bytes, the one form of every selection layer's tables);
HIEROCRYPT-3's MDS-lower, a matrix over GF(2^8), gets its images from
gf256.images.

A constant set imports this module when it first builds a lane map or
the tables behind one: HC3's key schedule, per-block rounds and archsim
datapaths (the *_tables and *_map of hc3.constants), and Camellia's
per-block F (f_map), which its per-key schedule runs too.  The byte-plane
and key-sliced engines read neither, so kat compiles none of this.
"""

from __future__ import annotations

from typing import Callable, Sequence


def row_images(rows: Sequence[int]) -> tuple[int, ...]:
    """The images of the input bits under byte rows, for
    gf2.position_tables: bit t of input byte j lands at bit t of each
    output byte whose row selects j.  Byte 0 is the most significant, and
    the rows read as many bytes as their highest bit says."""
    n = len(rows)
    lanes = [sum(1 << 8 * (n - 1 - i) for i, row in enumerate(rows) if row >> j & 1)
             for j in reversed(range(max(rows).bit_length()))]
    return tuple(lane << t for lane in lanes for t in range(8))


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
