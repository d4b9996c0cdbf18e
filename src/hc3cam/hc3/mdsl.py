"""MDS-lower's position tables for lanes.lane_map: HIEROCRYPT-3's 4x4
matrix over GF(2^8), or its inverse, applied to each 32-bit word of a
block.

hc3.constants imports this module when it first builds mdsl_map,
mdsl_inv_map or merged_map, which only the per-block rounds and archsim's
datapaths read.  It is apart from hc3cam.lanes because Camellia's
single-key commands load that module for P's column tables.
"""

from itertools import repeat
from operator import lshift

from ..gf2 import IDENTITY


def word_tables(columns, src=IDENTITY):
    """tables[4 * w + j][x]: the image of byte src[x] alone at input byte j
    of 32-bit word w, under the matrix whose columns[j][i] is the product
    table of input byte j into output byte i."""
    words = [list(map(int.from_bytes, zip(*(src.translate(t) for t in column)), repeat("big")))
             for column in columns]
    return tuple(tuple(map(lshift, words[j], repeat(32 * (3 - w))))
                 for w in range(4) for j in range(4))
