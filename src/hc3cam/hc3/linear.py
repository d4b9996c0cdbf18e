"""Keyless building blocks of HIEROCRYPT-3: the word/byte XOR selection
layers P(n), M_5E, M_B3, MDS higher level, and the F-sigma mixer.

The layers the ciphers run (F-sigma, MDS higher) are lanes.lane_maps that
`Hc3Constants` binds to per-byte-position tables.  M_5E, M_B3 and P(32)
run only fused into sigma and sigma-inverse, so their functions here
apply the row definition (`p_n`, gf2.apply_rows) and serve as the
reference the fused maps are checked against.
"""

from __future__ import annotations

from .. import gf2
from .constants import Hc3Constants, get_constants

MASK32 = (1 << 32) - 1
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
    return int.from_bytes(bytes(p_n(consts.m5e_rows, x.to_bytes(8, "big"))), "big")


def mb3(x: int, consts: Hc3Constants) -> int:
    return int.from_bytes(bytes(p_n(consts.mb3_rows, x.to_bytes(8, "big"))), "big")


def f_sigma(x: int, consts: Hc3Constants | None = None) -> int:
    """Eight parallel s-boxes followed by the 16-bit-word P layer."""
    consts = consts or get_constants()
    return consts.f_sigma_map((x & MASK64).to_bytes(8, "big"))


def p32_pair(hi: int, lo: int, consts: Hc3Constants,
             inverse: bool = False) -> tuple[int, int]:
    """P(32) over a 128-bit value given as two 64-bit halves."""
    rows = consts.p32_inv_rows if inverse else consts.p32_rows
    w0, w1, w2, w3 = p_n(rows, (hi >> 32, hi & MASK32, lo >> 32, lo & MASK32))
    return w0 << 32 | w1, w2 << 32 | w3


def mds_h(block: bytes, consts: Hc3Constants | None = None) -> bytes:
    """128-bit byte-XOR diffusion layer."""
    consts = consts or get_constants()
    return consts.mds_h_map(check_block(block)).to_bytes(16, "big")


def mds_h_inv(block: bytes, consts: Hc3Constants | None = None) -> bytes:
    consts = consts or get_constants()
    return consts.mds_h_inv_map(check_block(block)).to_bytes(16, "big")
