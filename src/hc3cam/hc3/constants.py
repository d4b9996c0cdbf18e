"""HIEROCRYPT-3 constant data: loading, validation, derived tables.

Everything the round functions and key schedule need that is not fixed
by the algorithm structure itself (s-box, XOR selection patterns of the
linear layers, key schedule constants) comes from a .ctab file and is
validated here before use.  Invalid data refuses to load: transcription
mistakes surface as hard errors, never as a silently wrong cipher.
Every lookup table is built on first read by gf2.position_tables.
"""

from __future__ import annotations

import struct
from functools import cached_property

from .. import ctab, gf2, gf256
from ..ctab import ENV_CONSTANTS_DIR, ConstantsError  # noqa: F401 (re-exported)

IDENTITY = gf2.IDENTITY


def _layer(args):
    """A table set built on first read, as _position_tables(*args(consts)),
    and its lanes.lane_map, built on first read from the set."""
    tables = cached_property(lambda self: self._position_tables(*args(self)))

    def lane_map(self):
        from ..lanes import lane_map
        return lane_map(tables.__get__(self))
    return tables, cached_property(lane_map)


class Hc3Constants:
    """Validated constant set plus lookup tables derived from it and the
    lane maps bound to them, each built when it is first read."""

    def __init__(self, tab: ctab.Ctab):
        if tab.name != "hc3":
            raise ConstantsError(f"expected a 'hc3' ctab, got '{tab.name}'")
        self.source = tab

        self.sbox = tab.get("sbox", 256)
        if len(set(self.sbox)) != 256:
            raise ConstantsError("sbox is not a permutation of 0..255")
        inv = bytearray(256)
        for x, y in enumerate(self.sbox):
            inv[y] = x
        self.sbox_inv = bytes(inv)

        self.g0 = tab.words("g0", 8, 6)
        self.pad_h3, self.pad_h2 = tab.words("pad", 8, 2)

        self.p32_rows = tuple(tab.get("p32", 4))
        self.p16_rows = tuple(tab.get("p16", 4))
        self.m5e_rows = tuple(tab.get("m5e", 8))
        self.mb3_rows = tuple(tab.get("mb3", 8))
        self.mds_h_rows = tab.words("mds_h", 2, 16)

        for name in ("p32", "p16", "mds_h"):
            try:
                setattr(self, f"{name}_inv_rows", gf2.invert(getattr(self, f"{name}_rows")))
            except ValueError as exc:
                raise ConstantsError(f"linear layer [{name}]: {exc}") from exc
        if not gf2.is_identity(gf2.apply_rows(self.mb3_rows, self.m5e_rows)):
            raise ConstantsError("mb3 . m5e is not the identity")
        # sigma's and sigma-inverse's linear layers as byte rows over 16
        # bytes, and F-sigma's P(16) as byte rows over 8
        w = _both_halves(self.mb3_rows)
        self.sigma_rows = gf2.apply_rows(_both_halves(self.m5e_rows), _bytewise(self.p32_rows))
        self.sigma_inv_rows = w + gf2.apply_rows(_bytewise(self.p32_inv_rows), w)
        self.f_sigma_rows = _bytewise(self.p16_rows, 2)

        # position-table sets by (images, src), each built on first use
        self._built = {}

    def _position_tables(self, images, src=IDENTITY):
        """tables[pos][x]: the layer's output for byte src[x] at input
        position pos, for lanes.lane_map, from the images of its input
        bits (gf2.position_tables).  Each distinct set is built once, so
        an involution's inverse shares them."""
        key = (images, src)
        if key not in self._built:
            self._built[key] = gf2.position_tables(images, src)
        return self._built[key]

    @cached_property
    def _mdsl_images(self):
        """MDS-lower's images on one 32-bit word."""
        return gf256.images(gf256.MDS_L)

    @cached_property
    def _mdsl_inv_images(self):
        """The images as rows are the transpose of the bit matrix, so the
        inverted rows are the inverse's images."""
        return gf2.invert(self._mdsl_images)

    # Each layer's tables and map are built when a cipher path first reads
    # the map: a key schedule reads sigma, sigma_inv and f_sigma, the
    # per-block rounds mdsl* and mds_h*, merged_xs merged, archsim's
    # datapaths mdsl (or merged) and sbox_mds_h, and the byte-plane
    # engines only the *mdsl*_columns.
    mdsl_tables, mdsl_map = _layer(lambda c: (_four_words(c._mdsl_images),))
    mdsl_inv_tables, mdsl_inv_map = _layer(lambda c: (_four_words(c._mdsl_inv_images),))
    # s-box folded into the column products; the "one bijective sbox per
    # constant" datapath
    merged_tables, merged_map = _layer(lambda c: (_four_words(c._mdsl_images), c.sbox))
    mds_h_tables, mds_h_map = _layer(lambda c: (_row_images(c.mds_h_rows),))
    mds_h_inv_tables, mds_h_inv_map = _layer(lambda c: (_row_images(c.mds_h_inv_rows),))
    # the second s-box layer of XS folded into the MDS-higher after it
    sbox_mds_h_tables, sbox_mds_h_map = _layer(lambda c: (_row_images(c.mds_h_rows), c.sbox))
    # F-sigma: the s-box fused into P(16)
    f_sigma_tables, f_sigma_map = _layer(lambda c: (_row_images(c.f_sigma_rows), c.sbox))
    # sigma: z3 || z4 -> M_5E on both halves of P(32)(z3 || z4), before G
    sigma_tables, sigma_map = _layer(lambda c: (_row_images(c.sigma_rows),))
    # sigma-inverse: (z3 ^ G) || z4 -> W1 || W2 || P(32)^-1(W1 || W2)
    sigma_inv_tables, sigma_inv_map = _layer(lambda c: (_row_images(c.sigma_inv_rows),))

    @cached_property
    def mdsl_columns(self):
        return _plane_columns(self._mdsl_images)

    @cached_property
    def mdsl_inv_columns(self):
        return _plane_columns(self._mdsl_inv_images)

    @cached_property
    def sbox_mdsl_columns(self):
        """mdsl_columns of the s-boxed byte: XS's first s-box layer and
        MDS-lower in one set of products, for key-sliced encryption."""
        return tuple(tuple(self.sbox.translate(t) for t in col) for col in self.mdsl_columns)


def _both_halves(rows):
    """Byte rows over 8 bytes, as rows over 16 applying them to each half."""
    return (*rows, *(row << 8 for row in rows))


def _bytewise(rows, per=4):
    """Rows over lanes of `per` bytes, as rows over their bytes."""
    return tuple(sum(1 << per * j + k for j in range(row.bit_length()) if row >> j & 1)
                 for row in rows for k in range(per))


def _row_images(rows):
    """lanes.row_images, imported only when a selection set is built."""
    from ..lanes import row_images
    return row_images(rows)


def _four_words(images):
    """A word's images, as a block's that applies it to each word."""
    return tuple(v << 32 * w for w in range(4) for v in images)


def _plane_columns(images):
    """Per input byte j of a word, the product table into each output
    byte i, cut from the byte's position table."""
    columns = []
    for table in gf2.position_tables(images):
        packed = struct.pack(">256I", *table)
        columns.append(tuple(packed[i::4] for i in range(4)))
    return tuple(columns)


load_constants = ctab.loader("hc3", Hc3Constants)


def get_constants() -> Hc3Constants:
    return load_constants()
