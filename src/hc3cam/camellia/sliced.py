"""Camellia-128 key-sliced: the key schedule and both directions for a
batch with one key per block, on the planes of hc3cam.camellia.steps.

KA is four F rounds keyed by planes of the Sigma constants, and the
subkeys are the rotations of KL and KA that steps.SUBKEY_LAYOUT lists.  A
rotation by 8q + s bits re-indexes the sixteen planes by q and moves s
bits between neighbouring planes under masks of one repeated byte
(Matsui-Nakajima, CHES 2007).
"""

from __future__ import annotations

from typing import NamedTuple

from ..planes import key_planes, ones, run_sliced, xor
from .constants import CamelliaConstants, get_constants
from .steps import SIGMA, SUBKEY_LAYOUT, decrypt_order, f_round, program


class CamelliaSlicedSubkeys(NamedTuple):
    """kw, k and kl of n keys, each subkey eight planes (most significant
    byte first), byte i of each plane belonging to key i; consts is the
    set they were derived with, as in CamelliaSubkeys."""

    n: int
    kw: tuple
    k: tuple
    kl: tuple
    consts: CamelliaConstants


def _rotl_planes(x, r: int, rep: int) -> list[int]:
    """The sixteen planes of 128-bit values rotated left by r bits."""
    q, s = divmod(r, 8)
    if not s:
        return x[q:] + x[:q]
    hi, lo = (0xFF << s & 0xFF) * rep, ((1 << s) - 1) * rep
    return [(x[(b + q) % 16] << s & hi) | (x[(b + q + 1) % 16] >> (8 - s) & lo)
            for b in range(16)]


def key_schedule_sliced(keys: bytes) -> CamelliaSlicedSubkeys:
    """kw1..4, k1..18 and kl1..4 of every 16-byte key in keys, on planes.

    Slice i holds the subkeys key_schedule(keys[16 i:16 i + 16]) builds.
    """
    consts = get_constants()
    kl_var, n = key_planes(keys, "camellia")
    rep = ones(n)
    rest = (consts.sbox_order, consts.p_rows)
    left, right = kl_var[:8], kl_var[8:]
    for r, sigma in enumerate(SIGMA[:4]):
        key = [b * rep for b in sigma.to_bytes(8, "big")]
        left, right = f_round(left, right, n, (key, rest))
        if r == 1:
            left, right = xor(left, kl_var[:8]), xor(right, kl_var[8:])
    ka_var = left + right

    sources, subkeys = (kl_var, ka_var), [None] * 26
    for var, r, left, right in SUBKEY_LAYOUT:
        x = _rotl_planes(sources[var], r, rep)
        if left is not None:
            subkeys[left] = x[:8]
        if right is not None:
            subkeys[right] = x[8:]
    return CamelliaSlicedSubkeys(
        n, kw=tuple(subkeys[:4]), k=tuple(subkeys[4:22]), kl=tuple(subkeys[22:]),
        consts=consts)


def encrypt_sliced(data: bytes, sk: CamelliaSlicedSubkeys) -> bytes:
    """Encrypt block i of data under key i of a key-sliced schedule; equal
    to encrypt() of every block under its own key_schedule()."""
    return run_sliced(data, "camellia", sk.n, program(sk.kw, sk.k, sk.kl, sk.consts))


def decrypt_sliced(data: bytes, sk: CamelliaSlicedSubkeys) -> bytes:
    """Decrypt block i of data under key i of a key-sliced schedule."""
    return run_sliced(data, "camellia", sk.n,
                      program(*decrypt_order(sk.kw, sk.k, sk.kl), sk.consts))
