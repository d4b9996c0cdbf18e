"""What every Camellia-128 engine shares: the round structure, the key
schedule's Sigma constants and subkey table, the subkey order of
decryption and, for the two byte-plane engines (batch, one key; sliced,
one key per block), the network on planes (hc3cam.planes).

The left half of a block is planes 0-7 and the right half planes 8-15,
byte 0 of each half its most significant, all held as big ints.  Every
subkey is eight planes, a key byte per slice: key additions are XORs of
whole planes, F's s-boxes one unkeyed translate per plane and P an XOR of
whole planes; FL and FL^-1 work on the four planes of each 32-bit word.
"""

from __future__ import annotations

from typing import NamedTuple

from .. import gf2
from ..planes import lookup, ones, xor
from .constants import CamelliaConstants

N_ROUNDS = 18
FL_LAYER_ROUNDS = (6, 12)


class SigmaConstants(NamedTuple):
    sigma1: int
    sigma2: int
    sigma3: int
    sigma4: int
    sigma5: int
    sigma6: int


# Key schedule constants; sigma5/sigma6 belong to the 192/256-bit key
# path and are carried for completeness only.
SIGMA = SigmaConstants(
    0xA09E667F3BCC908B,
    0xB67AE8584CAA73B2,
    0xC6EF372FE94F82BE,
    0x54FF53A5F1D36F1C,
    0x10E527FADE682D1D,
    0xB05688C2B3E6C1FD,
)

# RFC 3713 section 2.2's subkey table for 128-bit keys: each row rotates
# K_L (0) or K_A (1) left by r bits and names the subkeys its left and
# right halves become, as slots of kw1..4, k1..18, kl1..4 (0-3, 4-21,
# 22-25); None where that half is unused.
SUBKEY_LAYOUT = (
    (0, 0, 0, 1),           # kw1, kw2
    (1, 0, 4, 5),           # k1, k2
    (0, 15, 6, 7),          # k3, k4
    (1, 15, 8, 9),          # k5, k6
    (1, 30, 22, 23),        # kl1, kl2
    (0, 45, 10, 11),        # k7, k8
    (1, 45, 12, None),      # k9
    (0, 60, None, 13),      # k10
    (1, 60, 14, 15),        # k11, k12
    (0, 77, 24, 25),        # kl3, kl4
    (0, 94, 16, 17),        # k13, k14
    (1, 94, 18, 19),        # k15, k16
    (0, 111, 20, 21),       # k17, k18
    (1, 111, 2, 3),         # kw3, kw4
)
SUBKEY_ROTATIONS = tuple(sorted({r for _, r, _, _ in SUBKEY_LAYOUT}))


def decrypt_order(kw, k, kl):
    """Whitening, round and FL keys in the order decryption uses them."""
    return (kw[2], kw[3], kw[0], kw[1]), k[::-1], kl[::-1]


def f_round(left, right, n, arg):
    """left, right = right ^ F(left, key), left; key: eight planes."""
    key, (boxes, rows) = arg
    s = [lookup(v ^ k, t, n) for v, k, t in zip(left, key, boxes)]
    return [r ^ f for r, f in zip(right, gf2.apply_rows(rows, s))], left


def _fl_layer(left, right, n, keys):
    """FL on the left half and FL^-1 on the right; keys: the eight key
    planes of each, a key byte per slice."""
    rep = ones(n)

    def or_key(word, key):
        return [v | k for v, k in zip(word, key)]

    def rotl1_and_key(word, key):
        # byte i of (word <<< 1) is (b_i << 1) | (b_(i+1) >> 7)
        a = [v & k for v, k in zip(word, key)]
        return [((a[i] << 1) & (0xFE * rep)) | ((a[(i + 1) % 4] >> 7) & rep)
                for i in range(4)]

    k_fl, k_inv = keys
    yr = xor(rotl1_and_key(left[:4], k_fl[:4]), left[4:])
    yl = xor(or_key(yr, k_fl[4:]), left[:4])
    xl = xor(or_key(right[4:], k_inv[4:]), right[:4])
    xr = xor(rotl1_and_key(xl, k_inv[:4]), right[4:])
    return yl + yr, xl + xr


def _whiten(left, right, n, keys):
    """XOR key planes into both halves."""
    k_left, k_right = keys
    return xor(left, k_left), xor(right, k_right)


def _network(planes, rounds):
    """Whitening, the 18 rounds with their FL layers, whitening."""
    n = len(planes[0])
    ints = [int.from_bytes(plane, "little") for plane in planes]
    left, right = ints[:8], ints[8:]
    for layer, arg in rounds:
        left, right = layer(left, right, n, arg)
    # the output halves are swapped back after the last round
    return [v.to_bytes(n, "little") for v in right + left]


def program(kw, k, kl, consts: CamelliaConstants):
    """The network keyed by planes of subkeys in the order used: whitening
    words kw (pre left, pre right, post left, post right), round keys k
    and FL keys kl, FL layers after rounds 6 and 12."""
    rest = (consts.sbox_order, consts.p_rows)
    rounds = [(_whiten, (kw[0], kw[1]))]
    fl_keys = iter(kl)
    for r, key in enumerate(k, 1):
        rounds.append((f_round, (key, rest)))
        if r in FL_LAYER_ROUNDS:
            rounds.append((_fl_layer, (next(fl_keys), next(fl_keys))))
    # the post-whitening pair lands on the halves before they swap back
    rounds.append((_whiten, (kw[3], kw[2])))
    return [(_network, rounds)]
