"""GF(2^8) arithmetic over the HIEROCRYPT-3 field x^8 + x^6 + x^5 + x + 1.

The field every HIEROCRYPT-3 command loads: the bit-serial
shift-and-reduce multiplier (`gf_mul`) and the MDS-lower matrix with its
inverse, from which hc3.constants builds the product tables the ciphers
read.  The inverse goes through gf2.invert, the GF(2) inverter of every
other inverse pattern; `gf_pow` stays for the s-box generator
(scripts/gen_constants.py).  The per-constant XOR networks (the
hardware-style route to each MDS_L multiplication, checked against
`gf_mul`) and the MDS check live in hc3cam.networks, which no command
imports; mul_const_network, mds_l_apply and mds_check still resolve
here, importing it on first read.

Bit 7 of a byte is the most significant bit throughout.
"""

from __future__ import annotations

from collections import namedtuple

from . import gf2

HC3_POLY = 0x163  # x^8 + x^6 + x^5 + x + 1


def gf_mul(a: int, b: int) -> int:
    """Carry-free product of a and b reduced mod HC3_POLY.

    Bit-serial (Russian peasant); used as the oracle and table generator.
    """
    r = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= HC3_POLY
        b >>= 1
    return r


def gf_pow(a: int, e: int) -> int:
    r = 1
    base = a & 0xFF
    while e:
        if e & 1:
            r = gf_mul(r, base)
        base = gf_mul(base, base)
        e >>= 1
    return r


# MDS lower level: circulant over (C4, 65, C8, 8B).
MDS_L_CONSTANTS = (0xC4, 0x65, 0xC8, 0x8B)


class MdsMatrix4(namedtuple("MdsMatrix4", "entries")):
    """4x4 matrix over GF(2^8), rows of 4 byte entries."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, int, int, int], ...]):
        if len(entries) != 4 or any(len(r) != 4 for r in entries):
            raise ValueError("need a 4x4 matrix")
        return super().__new__(cls, entries)


def circulant(first_row: tuple[int, int, int, int]) -> MdsMatrix4:
    rows = tuple(
        tuple(first_row[(j - i) % 4] for j in range(4)) for i in range(4)
    )
    return MdsMatrix4(rows)


MDS_L = circulant(MDS_L_CONSTANTS)


def mds_l_inverse(m: MdsMatrix4 = MDS_L) -> MdsMatrix4:
    """Inverse matrix over GF(2^8), by gf2.invert on m as a 32x32 bit
    matrix (bit b of byte j is lane 8j + b).  The masks inverted are the
    transpose's rows, each input lane's image, so the result is the
    inverse's transpose: its mask 8j is the image of 1 at input byte j,
    whose byte i is entry (i, j).  ArithmeticError if m is singular.
    """
    lanes = [sum(gf_mul(row[j], 1 << b) << 8 * i for i, row in enumerate(m.entries))
             for j in range(4) for b in range(8)]
    try:
        inv = gf2.invert(lanes)
    except ValueError:
        raise ArithmeticError("singular matrix passed to mds_l_inverse") from None
    return MdsMatrix4(tuple(tuple(inv[8 * j] >> 8 * i & 0xFF for j in range(4))
                            for i in range(4)))


def __getattr__(name: str):
    # a module __getattr__ keeps CPython from specialising reads of the
    # module's names; gf256 is read while a constant set builds its
    # tables, never per block or per tick
    if name in ("mul_const_network", "mds_l_apply", "mds_check"):
        from . import networks
        return getattr(networks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
