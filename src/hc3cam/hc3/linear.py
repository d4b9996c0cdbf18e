"""Keyless building blocks of HIEROCRYPT-3: the word/byte XOR selection
layers P(n), M_5E, M_B3, MDS higher level, and the F-sigma mixer.

Every linear layer runs as a gf2.lane_map that `Hc3Constants` binds to
its per-byte-position tables; `p_n` keeps the bit-serial row definition
as the reference the tables are checked against.
"""

from __future__ import annotations

from .. import gf2
from .constants import Hc3Constants, get_constants

MASK64 = (1 << 64) - 1


def check_block(block: bytes) -> bytes:
    if len(block) != 16:
        raise ValueError(f"hc3 block must be 16 bytes, got {len(block)}")
    return block


def p_n(rows, words):
    """Four-lane XOR selection: output word i = XOR of the inputs picked
    by bit-mask rows[i].  Works for any word width."""
    return gf2.apply_rows(rows, words)


def m5e(x: int, consts: Hc3Constants) -> int:
    return consts.m5e_map(x.to_bytes(8, "big"))


def mb3(x: int, consts: Hc3Constants) -> int:
    return consts.mb3_map(x.to_bytes(8, "big"))


def f_sigma(x: int, consts: Hc3Constants | None = None) -> int:
    """Eight parallel s-boxes followed by the 16-bit-word P layer."""
    consts = consts or get_constants()
    return consts.f_sigma_map((x & MASK64).to_bytes(8, "big"))


def p32_pair(hi: int, lo: int, consts: Hc3Constants,
             inverse: bool = False) -> tuple[int, int]:
    """P(32) over a 128-bit value given as two 64-bit halves."""
    p32 = consts.p32_inv_map if inverse else consts.p32_map
    y = p32((hi << 64 | lo).to_bytes(16, "big"))
    return y >> 64, y & MASK64


def mds_h(block: bytes, consts: Hc3Constants | None = None) -> bytes:
    """128-bit byte-XOR diffusion layer."""
    consts = consts or get_constants()
    return consts.mds_h_map(check_block(block)).to_bytes(16, "big")


def mds_h_inv(block: bytes, consts: Hc3Constants | None = None) -> bytes:
    consts = consts or get_constants()
    return consts.mds_h_inv_map(check_block(block)).to_bytes(16, "big")
