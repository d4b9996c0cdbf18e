"""GF(2^8) arithmetic over the HIEROCRYPT-3 field x^8 + x^6 + x^5 + x + 1.

The field every HIEROCRYPT-3 command loads: the bit-serial
shift-and-reduce multiplier (`gf_mul`) and the MDS-lower matrix.  Its
`images`, those of its input bits on one 32-bit word, are what
hc3.constants builds every MDS-lower table from, through
gf2.position_tables, and its inverse tables from gf2.invert of them.
`gf_pow` stays for the s-box generator (scripts/gen_constants.py).  The
per-constant XOR networks (the hardware-style route to each MDS_L
multiplication, checked against `gf_mul`), the MDS check and the inverse
matrix (`mds_l_inverse`) live in hc3cam.networks, which no command
imports; mul_const_network, mds_l_apply, mds_check and mds_l_inverse
still resolve here, importing it on first read.

Bit 7 of a byte is the most significant bit throughout.
"""

from __future__ import annotations

from collections import namedtuple

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


def images(m: MdsMatrix4) -> tuple[int, ...]:
    """The 32 images of m's input bits on one 32-bit word, byte 0 the most
    significant: bit b of input byte j is bit k = 8 * (3 - j) + b, and its
    image holds gf_mul(m[i][j], 1 << b) in output byte i."""
    return tuple(sum(gf_mul(row[j], 1 << b) << 8 * (3 - i) for i, row in enumerate(m.entries))
                 for j in (3, 2, 1, 0) for b in range(8))


def __getattr__(name: str):
    # a module __getattr__ keeps CPython from specialising reads of the
    # module's names; gf256 is read while a constant set builds its
    # tables, never per block or per tick
    if name in ("mul_const_network", "mds_l_apply", "mds_check", "mds_l_inverse"):
        from . import networks
        return getattr(networks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
