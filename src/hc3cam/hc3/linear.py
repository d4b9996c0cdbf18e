"""Keyless building blocks of HIEROCRYPT-3: the word/byte XOR selection
layers P(n), M_5E, M_B3, MDS higher level, the F-sigma mixer, and the
key-schedule steps sigma and sigma-inverse composed from them.

The layers the ciphers run (F-sigma, MDS higher) are lanes.lane_maps that
`Hc3Constants` binds to per-byte-position tables.  M_5E, M_B3 and P(32)
run only fused into the key walk's sigma and sigma-inverse maps, so their
functions here apply the row definition (`p_n`, gf2.apply_rows), and
sigma and sigma_inv, composed layer by layer, are the reference that
keyschedule's fused walk is checked against.
"""

from __future__ import annotations

from .. import gf2
from .constants import Hc3Constants, get_constants
from .keyschedule import IntermediateKey

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


def sigma(z, g: int, consts: Hc3Constants | None = None) -> IntermediateKey:
    """One sigma update: M_5E of each half of P(32)(z3 || z4), G added to
    the upper one, is the new z3 || z4; z2 || z1 ^ F-sigma(z2 ^ new z3)
    the new z1 || z2."""
    consts = consts or get_constants()
    z1, z2, z3, z4 = z
    w1, w2 = p32_pair(z3, z4, consts)
    z3 = m5e(w1, consts) ^ g
    return IntermediateKey(z2, z1 ^ f_sigma(z2 ^ z3, consts), z3, m5e(w2, consts))


def sigma_inv(z, g: int, consts: Hc3Constants | None = None) -> IntermediateKey:
    """One sigma-inverse update: P(32)^-1 of M_B3(z3 ^ G) || M_B3(z4), the
    W words, is the new z3 || z4; z2 ^ F-sigma(z1 ^ z3) || z1 the new
    z1 || z2."""
    consts = consts or get_constants()
    z1, z2, z3, z4 = z
    z3_next, z4_next = p32_pair(mb3(z3 ^ g, consts), mb3(z4, consts), consts, inverse=True)
    return IntermediateKey(z2 ^ f_sigma(z1 ^ z3, consts), z1, z3_next, z4_next)


def mds_h(block: bytes, consts: Hc3Constants | None = None) -> bytes:
    """128-bit byte-XOR diffusion layer."""
    consts = consts or get_constants()
    return consts.mds_h_map(check_block(block)).to_bytes(16, "big")


def mds_h_inv(block: bytes, consts: Hc3Constants | None = None) -> bytes:
    consts = consts or get_constants()
    return consts.mds_h_inv_map(check_block(block)).to_bytes(16, "big")
