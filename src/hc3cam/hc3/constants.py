"""HIEROCRYPT-3 constant data: loading, validation, derived tables.

Everything the round functions and key schedule need that is not fixed
by the algorithm structure itself (s-box, XOR selection patterns of the
linear layers, key schedule constants) comes from a .ctab file and is
validated here before use.  Invalid data refuses to load: transcription
mistakes surface as hard errors, never as a silently wrong cipher.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .. import ctab, gf2, gf256
from ..ctab import ENV_CONSTANTS_DIR, ConstantsError  # noqa: F401 (re-exported)

IDENTITY = gf2.IDENTITY


def _layer(args):
    """A table set built on first read, as _position_tables(*args(consts)),
    and its gf2.lane_map, built on first read from the set."""
    tables = cached_property(lambda self: self._position_tables(*args(self)))
    return tables, cached_property(lambda self: gf2.lane_map(tables.__get__(self)))


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

        try:
            self.p32_inv_rows = gf2.invert(self.p32_rows)
            self.p16_inv_rows = gf2.invert(self.p16_rows)
            self.mds_h_inv_rows = gf2.invert(self.mds_h_rows)
        except ValueError as exc:
            raise ConstantsError(f"singular linear layer: {exc}") from exc
        if not gf2.is_identity(gf2.apply_rows(self.mb3_rows, self.m5e_rows)):
            raise ConstantsError("mb3 . m5e is not the identity")
        # sigma's and sigma-inverse's linear layers as byte rows over 16 bytes
        w = _both_halves(self.mb3_rows)
        self.sigma_rows = gf2.apply_rows(_both_halves(self.m5e_rows), _bytewise(self.p32_rows))
        self.sigma_inv_rows = w + gf2.apply_rows(_bytewise(self.p32_inv_rows), w)

        # position-table sets by (layer, src), each built on first use
        self._built = {}

    def _position_tables(self, layer, src=IDENTITY):
        """tables[pos][x]: the layer's output for byte src[x] at input
        position pos, for gf2.lane_map.  layer is a GF(2^8) MdsMatrix4
        applied to every 32-bit word, or (rows, width): a lane-selection
        row set over width-bit lanes (gf2.lane_tables).  Each distinct set
        is built once, so an involution's inverse shares them."""
        key = (layer, src)
        if key not in self._built:
            if isinstance(layer, gf256.MdsMatrix4):
                # column j of the matrix shifted into word w, a linear map
                # of the byte, built from its images of 1, 2, ..., 128
                m, products = layer.entries, _products(layer)
                cols = [[sum(products[m[i][j]][1 << b] << 8 * (3 - i) for i in range(4))
                         for b in range(8)] for j in range(4)]
                self._built[key] = tuple(
                    tuple(map(_linear([v << 32 * (3 - w) for v in cols[j]]).__getitem__, src))
                    for w in range(4) for j in range(4))
            else:
                self._built[key] = gf2.lane_tables(*layer, src)
        return self._built[key]

    # Each layer's tables and map are built when a cipher path first reads
    # the map: a key schedule reads sigma, sigma_inv and f_sigma, the
    # per-block rounds mdsl* and mds_h*, merged_xs merged, archsim's
    # datapaths mdsl (or merged) and sbox_mds_h, and the byte-plane
    # engines only the *mdsl*_columns.
    mdsl_tables, mdsl_map = _layer(lambda c: (gf256.MDS_L,))
    mdsl_inv_tables, mdsl_inv_map = _layer(lambda c: (gf256.mds_l_inverse(gf256.MDS_L),))
    # s-box folded into the column products; the "one bijective sbox per
    # constant" datapath
    merged_tables, merged_map = _layer(lambda c: (gf256.MDS_L, c.sbox))
    mds_h_tables, mds_h_map = _layer(lambda c: ((c.mds_h_rows, 8),))
    mds_h_inv_tables, mds_h_inv_map = _layer(lambda c: ((c.mds_h_inv_rows, 8),))
    # the second s-box layer of XS folded into the MDS-higher after it
    sbox_mds_h_tables, sbox_mds_h_map = _layer(lambda c: ((c.mds_h_rows, 8), c.sbox))
    # F-sigma: the s-box fused into P(16)
    f_sigma_tables, f_sigma_map = _layer(lambda c: ((c.p16_rows, 16), c.sbox))
    # sigma: z3 || z4 -> M_5E on both halves of P(32)(z3 || z4), before G
    sigma_tables, sigma_map = _layer(lambda c: ((c.sigma_rows, 8),))
    # sigma-inverse: (z3 ^ G) || z4 -> W1 || W2 || P(32)^-1(W1 || W2)
    sigma_inv_tables, sigma_inv_map = _layer(lambda c: ((c.sigma_inv_rows, 8),))

    @cached_property
    def mdsl_columns(self):
        return _plane_columns(gf256.MDS_L)

    @cached_property
    def mdsl_inv_columns(self):
        return _plane_columns(gf256.mds_l_inverse(gf256.MDS_L))

    @cached_property
    def sbox_mdsl_columns(self):
        """mdsl_columns of the s-boxed byte: XS's first s-box layer and
        MDS-lower in one set of products, for key-sliced encryption."""
        return tuple(tuple(self.sbox.translate(t) for t in col) for col in self.mdsl_columns)


def _both_halves(rows):
    """Byte rows over 8 bytes, as rows over 16 applying them to each half."""
    return (*rows, *(row << 8 for row in rows))


def _bytewise(rows):
    """Rows over four 32-bit lanes, as rows over their 16 bytes."""
    return tuple(sum(1 << 4 * j + k for j in range(4) if row >> j & 1)
                 for row in rows for k in range(4))


def _linear(basis):
    """[T(x) for every byte x] of a GF(2)-linear map T, from its images
    basis[b] = T(1 << b), by XOR doubling: T(x | 1 << b) = T(x) ^ T(1 << b)
    for every x below 1 << b."""
    table = [0]
    for v in basis:
        table += [t ^ v for t in table]
    return table


@lru_cache(maxsize=4)
def _products(layer):
    """{c: c * x for every byte x} in GF(2^8), for each entry c of an
    MdsMatrix4; multiplying by c is linear, so gf_mul gives only
    the products c * 2^b."""
    return {c: bytes(_linear([gf256.gf_mul(c, 1 << b) for b in range(8)]))
            for c in set().union(*layer.entries)}


def _plane_columns(layer):
    """An MdsMatrix4 for the byte-plane engines: per input byte j of a
    word, the product table into each output byte i."""
    m, products = layer.entries, _products(layer)
    return tuple(tuple(products[m[i][j]] for i in range(4)) for j in range(4))


load_constants = ctab.loader("hc3", Hc3Constants)


def get_constants() -> Hc3Constants:
    return load_constants()
