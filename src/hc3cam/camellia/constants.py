"""Camellia constant data: the four s-boxes and the P-function pattern.

Loaded from camellia.ctab and validated: every table must be a
permutation, s2/s3/s4 must honour the published derivation rules
(output rotations of s1, input rotation for s4), and the P selection
matrix must be invertible.
"""

from __future__ import annotations

from functools import cached_property

from .. import ctab, gf2
from ..ctab import ConstantsError


def _rotl8(x: int, n: int) -> int:
    return ((x << n) | (x >> (8 - n))) & 0xFF


class CamelliaConstants:
    """Validated s-boxes and P pattern; p_columns, f_tables and f_map are
    built on first use."""

    def __init__(self, tab: ctab.Ctab):
        if tab.name != "camellia":
            raise ConstantsError(f"expected a 'camellia' ctab, got '{tab.name}'")
        self.source = tab
        self.s1 = tab.get("s1", 256)
        self.s2 = tab.get("s2", 256)
        self.s3 = tab.get("s3", 256)
        self.s4 = tab.get("s4", 256)
        for name in ("s1", "s2", "s3", "s4"):
            if len(set(getattr(self, name))) != 256:
                raise ConstantsError(f"{name} is not a permutation of 0..255")
        for x in range(256):
            if (self.s2[x] != _rotl8(self.s1[x], 1)
                    or self.s3[x] != _rotl8(self.s1[x], 7)
                    or self.s4[x] != self.s1[_rotl8(x, 1)]):
                raise ConstantsError("s2/s3/s4 do not match their s1 derivation rules")

        self.p_rows = tuple(tab.get("p", 8))
        try:
            self.p_inv_rows = gf2.invert(self.p_rows)
        except ValueError as exc:
            raise ConstantsError(f"P pattern is singular: {exc}") from exc

        # s-box order across the eight F-function byte positions
        self.sbox_order = (self.s1, self.s2, self.s3, self.s4,
                           self.s2, self.s3, self.s4, self.s1)

    @cached_property
    def p_columns(self):
        # p_columns[pos][v]: 64-bit P-layer image of byte v sitting alone
        # at byte position pos
        from ..lanes import row_images
        return gf2.position_tables(row_images(self.p_rows))

    @cached_property
    def f_tables(self):
        # f_tables[pos][v]: p_columns[pos] of sbox_pos(v); read by the
        # per-block F, which the per-key schedule runs too, not by the
        # byte-plane networks
        return tuple(tuple(map(column.__getitem__, box))
                     for column, box in zip(self.p_columns, self.sbox_order))

    @cached_property
    def f_map(self):
        # the per-block F after its key addition, on the eight input bytes
        from ..lanes import lane_map
        return lane_map(self.f_tables)


load_constants = ctab.loader("camellia", CamelliaConstants)


def get_constants() -> CamelliaConstants:
    return load_constants()
