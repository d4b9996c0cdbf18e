#!/usr/bin/env python3
"""Regenerate src/hc3cam/data/*.ctab.

Run from the repo root:  python scripts/gen_constants.py

camellia.ctab carries the official Camellia tables: SBOX1 as published in
the cipher specification / RFC 3713, s2-s4 derived by the published
rotation rules, and the P-function byte-selection masks.

hc3.ctab is a *reconstruction*.  The HIEROCRYPT-3 specification's own
table data (s-box, MDS_H / P / M_5E / M_B3 selection patterns, key
schedule constants) is not redistributable here, so this file provides a
complete, structurally valid parameter set built from documented rules:

  sbox    x^247 power map over GF(2^8) mod 0x163 (the cipher's own field;
          bijective, algebraic degree 7)
  g0/pad  first 64 fraction bits of sqrt(2,3,5,7,11,13) for G0(0..5) and
          sqrt(19), sqrt(17) for the H3/H2 padding words
  p32/p16 the 4x4 binary involution J+I (every output word XORs the
          other three inputs)
  m5e     byte circulant generated by row 0x5E
  mb3     the exact GF(2) inverse of m5e (so MB3 . M5E = identity)
  mds_h   the Kronecker square (J+I) x (J+I): output byte (i,j) XORs the
          nine input bytes (k,l) with k != i and l != j

The library validates every structural property at load time and accepts
a drop-in replacement file via HC3CAM_CONSTANTS_DIR, so interoperable
official tables can be swapped in without code changes.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hc3cam import ctab, gf2, gf256

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data"

# what --help prints: a constant, not the docstring, so python -OO keeps it
USAGE = ("usage: python scripts/gen_constants.py\n"
         "Rewrite src/hc3cam/data/camellia.ctab and hc3.ctab; takes no arguments.")

# --- camellia -----------------------------------------------------------

SBOX1 = bytes([
    112, 130,  44, 236, 179,  39, 192, 229, 228, 133,  87,  53, 234,  12, 174,  65,
     35, 239, 107, 147,  69,  25, 165,  33, 237,  14,  79,  78,  29, 101, 146, 189,
    134, 184, 175, 143, 124, 235,  31, 206,  62,  48, 220,  95,  94, 197,  11,  26,
    166, 225,  57, 202, 213,  71,  93,  61, 217,   1,  90, 214,  81,  86, 108,  77,
    139,  13, 154, 102, 251, 204, 176,  45, 116,  18,  43,  32, 240, 177, 132, 153,
    223,  76, 203, 194,  52, 126, 118,   5, 109, 183, 169,  49, 209,  23,   4, 215,
     20,  88,  58,  97, 222,  27,  17,  28,  50,  15, 156,  22,  83,  24, 242,  34,
    254,  68, 207, 178, 195, 181, 122, 145,  36,   8, 232, 168,  96, 252, 105,  80,
    170, 208, 160, 125, 161, 137,  98, 151,  84,  91,  30, 149, 224, 255, 100, 210,
     16, 196,   0,  72, 163, 247, 117, 219, 138,   3, 230, 218,   9,  63, 221, 148,
    135,  92, 131,   2, 205,  74, 144,  51, 115, 103, 246, 243, 157, 127, 191, 226,
     82, 155, 216,  38, 200,  55, 198,  59, 129, 150, 111,  75,  19, 190,  99,  46,
    233, 121, 167, 140, 159, 110, 188, 142,  41, 245, 249, 182,  47, 253, 180,  89,
    120, 152,   6, 106, 231,  70, 113, 186, 212,  37, 171,  66, 136, 162, 141, 250,
    114,   7, 185,  85, 248, 238, 172,  10,  54,  73,  42, 104,  60,  56, 241, 164,
     64,  40, 211, 123, 187, 201,  67, 193,  21, 227, 173, 244, 119, 199, 128, 158,
])

# P-function: output byte i = XOR of input bytes selected by the mask
# (bit j = input byte j, byte 0 most significant).
CAMELLIA_P_ROWS = bytes([0xED, 0xDB, 0xB7, 0x7E, 0xE3, 0xD6, 0xBC, 0x79])


def rotl8(x, n):
    return ((x << n) | (x >> (8 - n))) & 0xFF


def camellia_sections():
    s2 = bytes(rotl8(v, 1) for v in SBOX1)
    s3 = bytes(rotl8(v, 7) for v in SBOX1)
    s4 = bytes(SBOX1[rotl8(x, 1)] for x in range(256))
    return [
        ("s1", SBOX1),
        ("s2", s2),
        ("s3", s3),
        ("s4", s4),
        ("p", CAMELLIA_P_ROWS),
    ]


# --- hierocrypt-3 -------------------------------------------------------

def frac64_sqrt(n: int) -> int:
    """First 64 bits of the fractional part of sqrt(n), computed exactly."""
    root = math.isqrt(n << 128)
    return root - (math.isqrt(n) << 64)


def pack_u64(values):
    return b"".join(v.to_bytes(8, "big") for v in values)


def hc3_sections():
    sbox = bytes(gf256.gf_pow(x, 247) for x in range(256))
    assert len(set(sbox)) == 256

    g0 = pack_u64(frac64_sqrt(p) for p in (2, 3, 5, 7, 11, 13))
    pad = pack_u64((frac64_sqrt(19), frac64_sqrt(17)))  # H3 then H2

    p_rows = bytes((0x0E, 0x0D, 0x0B, 0x07))  # J+I on four lanes

    m5e_rows = bytes(rotl8(0x5E, i) for i in range(8))
    mb3_rows = bytes(gf2.invert(m5e_rows))
    assert gf2.is_identity(gf2.apply_rows(mb3_rows, m5e_rows))

    mds_h_rows = []
    for i in range(4):
        for j in range(4):
            mask = 0
            for k in range(4):
                for l in range(4):
                    if k != i and l != j:
                        mask |= 1 << (4 * k + l)
            mds_h_rows.append(mask)
    assert gf2.is_identity(gf2.apply_rows(mds_h_rows, mds_h_rows))
    mds_h = b"".join(m.to_bytes(2, "big") for m in mds_h_rows)

    return [
        ("sbox", sbox),
        ("sbox_note", b"\x01"),  # 1 = reconstructed table, 0 = official
        ("g0", g0),
        ("pad", pad),
        ("p32", p_rows),
        ("p16", p_rows),
        ("m5e", m5e_rows),
        ("mb3", mb3_rows),
        ("mds_h", mds_h),
    ]


def main(argv=None) -> int:
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if argv:
        print(f"{USAGE}\ngen_constants.py: error: unrecognized arguments: {' '.join(argv)}",
              file=sys.stderr)
        return 2
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    cam = ctab.write(
        "camellia",
        camellia_sections(),
        comment="Camellia tables (cipher specification / RFC 3713).\n"
        "s2/s3/s4 derived from s1 by the published rotation rules.",
    )
    (DATA_DIR / "camellia.ctab").write_text(cam)

    hc3 = ctab.write(
        "hc3",
        hc3_sections(),
        comment="HIEROCRYPT-3 parameter set, RECONSTRUCTED (see scripts/gen_constants.py\n"
        "and README 'Constants provenance').  Structurally valid and fully\n"
        "functional, but not interoperable with implementations that use the\n"
        "official specification tables.  Replace via HC3CAM_CONSTANTS_DIR.",
    )
    (DATA_DIR / "hc3.ctab").write_text(hc3)
    print(f"wrote {DATA_DIR / 'camellia.ctab'}")
    print(f"wrote {DATA_DIR / 'hc3.ctab'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
