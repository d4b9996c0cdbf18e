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
from ..ctab import ConstantsError

ENV_CONSTANTS_DIR = "HC3CAM_CONSTANTS_DIR"

IDENTITY = bytes(range(256))


class Hc3Constants:
    """Validated constant set plus lookup tables derived from it."""

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

        self._build_tables()

    def _build_tables(self):
        built = {}

        def position_tables(layer, src=IDENTITY):
            # tables[pos][x]: the layer's output for byte src[x] at input
            # position pos, for the `lanes` kernel.  layer is a GF(2^8)
            # MdsMatrix4 applied to every 32-bit word, or (rows, width): a
            # lane-selection row set over width-bit lanes.  Each distinct
            # set is built once, so an involution's inverse shares them.
            key = (layer, src)
            if key not in built:
                if isinstance(layer, gf256.MdsMatrix4):
                    # the four 32-bit column tables, shifted into each word
                    m = layer.entries
                    products = {c: [gf256.gf_mul(c, x, layer.params) for x in range(256)]
                                for c in set().union(*m)}
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
                built[key] = tuple(tuple(base[s] * mult for s in src) for base, mult in parts)
            return built[key]

        mdsl = gf256.MDS_L
        self.mdsl_tables = position_tables(mdsl)
        self.mdsl_inv_tables = position_tables(gf256.mds_l_inverse(mdsl))
        # s-box folded into the column products; the "one bijective sbox
        # per constant" datapath.
        self.merged_tables = position_tables(mdsl, self.sbox)
        self.mds_h_tables = position_tables((self.mds_h_rows, 8))
        self.mds_h_inv_tables = position_tables((self.mds_h_inv_rows, 8))
        self.m5e_tables = position_tables((self.m5e_rows, 8))
        self.mb3_tables = position_tables((self.mb3_rows, 8))
        self.p32_tables = position_tables((self.p32_rows, 32))
        self.p32_inv_tables = position_tables((self.p32_inv_rows, 32))
        # F-sigma: the s-box fused into P(16)
        self.f_sigma_tables = position_tables((self.p16_rows, 16), self.sbox)

    @cached_property
    def mdsl_columns(self):
        return _plane_columns(self.mdsl_tables)

    @cached_property
    def mdsl_inv_columns(self):
        return _plane_columns(self.mdsl_inv_tables)


def _plane_columns(tables):
    """MDS_L for the byte-plane engines: per input byte of a word, the
    product table into each output byte."""
    # the last word's positions carry the four column tables unshifted;
    # byte i of each packed 32-bit entry is the product into output byte i
    packed = [b"".join(v.to_bytes(4, "big") for v in col) for col in tables[12:]]
    return tuple(tuple(col[i::4] for i in range(4)) for col in packed)


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
