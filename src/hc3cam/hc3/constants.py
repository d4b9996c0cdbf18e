"""HIEROCRYPT-3 constant data: loading, validation, derived tables.

Everything the round functions and key schedule need that is not fixed
by the algorithm structure itself (s-box, XOR selection patterns of the
linear layers, key schedule constants) comes from a .ctab file and is
validated here before use.  Invalid data refuses to load: transcription
mistakes surface as hard errors, never as a silently wrong cipher.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from importlib import resources

from .. import ctab, gf2, gf256
from ..ctab import ENV_CONSTANTS_DIR, ConstantsError  # noqa: F401 (re-exported)

IDENTITY = bytes(range(256))


def _lazy(args):
    """A table set built on first read, as _position_tables(*args(consts))."""
    return cached_property(lambda self: self._position_tables(*args(self)))


class Hc3Constants:
    """Validated constant set plus lookup tables derived from it, each
    table set built when it is first read."""

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

        # position-table sets by (layer, src), each built on first use
        self._built = {}

    def _position_tables(self, layer, src=IDENTITY):
        """tables[pos][x]: the layer's output for byte src[x] at input
        position pos, for the `lanes` kernel.  layer is a GF(2^8)
        MdsMatrix4 applied to every 32-bit word, or (rows, width): a
        lane-selection row set over width-bit lanes.  Each distinct set is
        built once, so an involution's inverse shares them."""
        key = (layer, src)
        if key not in self._built:
            if isinstance(layer, gf256.MdsMatrix4):
                # the four 32-bit column tables, shifted into each word
                m, products = layer.entries, _products(layer)
                cols = [[sum(products[m[i][j]][x] << 8 * (3 - i) for i in range(4))
                         for x in range(256)] for j in range(4)]
                parts = [(cols[j], 1 << 32 * (3 - w)) for w in range(4) for j in range(4)]
            else:
                # one multiply by a mask of 1-bits puts the byte at every
                # output byte it feeds; exact as the bytes never overlap
                rows, width = layer
                n, per = len(rows), width // 8
                parts = [(IDENTITY, sum(1 << width * (n - 1 - i) + 8 * (per - 1 - k)
                                        for i, row in enumerate(rows) if row >> j & 1))
                         for j in range(n) for k in range(per)]
            self._built[key] = tuple(tuple(base[s] * mult for s in src) for base, mult in parts)
        return self._built[key]

    # Each layer's tables are built when a cipher path first reads them: a
    # key schedule reads p32*, m5e, mb3 and f_sigma, the per-block rounds
    # mdsl* and mds_h*, merged_xs merged, and the byte-plane engines only
    # the mdsl*_columns.
    mdsl_tables = _lazy(lambda c: (gf256.MDS_L,))
    mdsl_inv_tables = _lazy(lambda c: (gf256.mds_l_inverse(gf256.MDS_L),))
    # s-box folded into the column products; the "one bijective sbox per
    # constant" datapath
    merged_tables = _lazy(lambda c: (gf256.MDS_L, c.sbox))
    mds_h_tables = _lazy(lambda c: ((c.mds_h_rows, 8),))
    mds_h_inv_tables = _lazy(lambda c: ((c.mds_h_inv_rows, 8),))
    m5e_tables = _lazy(lambda c: ((c.m5e_rows, 8),))
    mb3_tables = _lazy(lambda c: ((c.mb3_rows, 8),))
    p32_tables = _lazy(lambda c: ((c.p32_rows, 32),))
    p32_inv_tables = _lazy(lambda c: ((c.p32_inv_rows, 32),))
    # F-sigma: the s-box fused into P(16)
    f_sigma_tables = _lazy(lambda c: ((c.p16_rows, 16), c.sbox))

    @cached_property
    def mdsl_columns(self):
        return _plane_columns(gf256.MDS_L)

    @cached_property
    def mdsl_inv_columns(self):
        return _plane_columns(gf256.mds_l_inverse(gf256.MDS_L))


def _products(layer):
    """{c: c * x for every byte x} in the field of an MdsMatrix4, for each
    entry c of the matrix."""
    return {c: bytes(gf256.gf_mul(c, x, layer.params) for x in range(256))
            for c in set().union(*layer.entries)}


def _plane_columns(layer):
    """An MdsMatrix4 for the byte-plane engines: per input byte j of a
    word, the product table into each output byte i."""
    m, products = layer.entries, _products(layer)
    return tuple(tuple(products[m[i][j]] for i in range(4)) for j in range(4))


@lru_cache(maxsize=8)
def _load_file(path_str: str) -> Hc3Constants:
    return Hc3Constants(ctab.load(path_str))


@lru_cache(maxsize=1)
def _load_packaged() -> Hc3Constants:
    res = resources.files("hc3cam").joinpath("data/hc3.ctab")
    return Hc3Constants(ctab.parse(res.read_text(), source=str(res)))


def load_constants(path=None) -> Hc3Constants:
    """Load and validate a constants file (default: packaged data, or
    $HC3CAM_CONSTANTS_DIR/hc3.ctab when that variable is set)."""
    if path is not None:
        return _load_file(os.fspath(path))
    override = os.environ.get(ENV_CONSTANTS_DIR)
    if override:
        return _load_file(os.path.join(override, "hc3.ctab"))
    return _load_packaged()


def get_constants() -> Hc3Constants:
    return load_constants()
