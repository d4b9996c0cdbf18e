"""Keyless building blocks of HIEROCRYPT-3: the word/byte XOR selection
layers P(n), M_5E, M_B3, MDS higher level, and the F-sigma mixer.

Every linear layer runs through one kernel, `lanes`, over the
per-byte-position tables that `Hc3Constants` builds; `p_n` keeps the
bit-serial row definition as the reference the tables are checked
against.
"""

from __future__ import annotations

from .. import gf2
from .constants import Hc3Constants, get_constants

MASK64 = (1 << 64) - 1


def lanes(tables, data) -> int:
    """XOR of tables[pos][data[pos]] over the bytes of data.

    data must hold one byte per table.  The length is not checked here
    (a strict zip costs a sixth of the call); the layers build data at
    their fixed width, and the block layers check it with check_block.
    """
    acc = 0
    for table, byte in zip(tables, data):
        acc ^= table[byte]
    return acc


def check_block(block: bytes) -> bytes:
    if len(block) != 16:
        raise ValueError(f"hc3 block must be 16 bytes, got {len(block)}")
    return block


def p_n(rows, words):
    """Four-lane XOR selection: output word i = XOR of the inputs picked
    by bit-mask rows[i].  Works for any word width."""
    return gf2.apply_rows(rows, words)


def m5e(x: int, consts: Hc3Constants) -> int:
    return lanes(consts.m5e_tables, x.to_bytes(8, "big"))


def mb3(x: int, consts: Hc3Constants) -> int:
    return lanes(consts.mb3_tables, x.to_bytes(8, "big"))


def f_sigma(x: int, consts: Hc3Constants | None = None) -> int:
    """Eight parallel s-boxes followed by the 16-bit-word P layer."""
    consts = consts or get_constants()
    return lanes(consts.f_sigma_tables, (x & MASK64).to_bytes(8, "big"))


def p32_pair(hi: int, lo: int, consts: Hc3Constants,
             inverse: bool = False) -> tuple[int, int]:
    """P(32) over a 128-bit value given as two 64-bit halves."""
    tables = consts.p32_inv_tables if inverse else consts.p32_tables
    y = lanes(tables, hi.to_bytes(8, "big") + lo.to_bytes(8, "big"))
    return y >> 64, y & MASK64


def mds_h(block: bytes, consts: Hc3Constants | None = None) -> bytes:
    """128-bit byte-XOR diffusion layer."""
    consts = consts or get_constants()
    return lanes(consts.mds_h_tables, check_block(block)).to_bytes(16, "big")


def mds_h_inv(block: bytes, consts: Hc3Constants | None = None) -> bytes:
    consts = consts or get_constants()
    return lanes(consts.mds_h_inv_tables, check_block(block)).to_bytes(16, "big")
