"""HIEROCRYPT-3 block operations and the two-level round structure.

A round is the keyed s-box / MDS-lower / s-box sandwich (XS) followed
by the 128-bit MDS higher layer; encryption is five such rounds, one
bare XS, and a final key addition.  ``merged_xs`` is the alternative
datapath that folds the first s-box layer into the four MDS-lower
constant multiplications (one fused table per matrix column) and must
match ``xs`` bit for bit.  These are the per-block reference rounds; the
byte-plane engines are hc3cam.hc3.batch (one key) and hc3cam.hc3.sliced
(one key per block).
"""

from __future__ import annotations

from .constants import Hc3Constants, get_constants
from .keyschedule import Hc3KeySchedule, RoundKey256, key_halves
from .linear import check_block, mds_h, mds_h_inv
from .steps import T_ROUNDS, xs_core


def _block_int(block: bytes) -> int:
    return int.from_bytes(check_block(block), "big")


def xs(block: bytes, rk: RoundKey256, consts: Hc3Constants | None = None) -> bytes:
    """Key add, 16 s-boxes, per-word MDS lower, key add, 16 s-boxes."""
    consts = consts or get_constants()
    return xs_core(_block_int(block), *key_halves(rk), consts).translate(consts.sbox)


def xs_inv(block: bytes, rk: RoundKey256, consts: Hc3Constants | None = None) -> bytes:
    consts = consts or get_constants()
    k12, k34 = key_halves(rk)
    b = check_block(block).translate(consts.sbox_inv)
    b = (int.from_bytes(b, "big") ^ k34).to_bytes(16, "big")
    b = consts.mdsl_inv_map(b).to_bytes(16, "big").translate(consts.sbox_inv)
    return (int.from_bytes(b, "big") ^ k12).to_bytes(16, "big")


def rho(block: bytes, rk: RoundKey256, consts: Hc3Constants | None = None) -> bytes:
    """Round function: MDS higher level after the XS sandwich."""
    consts = consts or get_constants()
    return mds_h(xs(block, rk, consts), consts)


def rho_inv(block: bytes, rk: RoundKey256, consts: Hc3Constants) -> bytes:
    return xs_inv(mds_h_inv(block, consts), rk, consts)


def key_addition(block: bytes, rk: RoundKey256) -> bytes:
    """Final XOR with the first half of the round key."""
    x = _block_int(block) ^ key_halves(rk)[0]
    return x.to_bytes(16, "big")


def encrypt(block: bytes, ks: Hc3KeySchedule) -> bytes:
    """Five rounds of rho, one XS, final key addition with K(7)."""
    consts = ks.consts
    keys = ks.round_keys
    x = block
    for t in range(T_ROUNDS - 1):
        x = rho(x, keys[t], consts)
    x = xs(x, keys[T_ROUNDS - 1], consts)
    return key_addition(x, keys[T_ROUNDS])


def decrypt(block: bytes, ks: Hc3KeySchedule) -> bytes:
    consts = ks.consts
    keys = ks.round_keys
    x = key_addition(block, keys[T_ROUNDS])
    x = xs_inv(x, keys[T_ROUNDS - 1], consts)
    for t in range(T_ROUNDS - 2, -1, -1):
        x = rho_inv(x, keys[t], consts)
    return x


def merged_xs(block: bytes, rk: RoundKey256,
              consts: Hc3Constants | None = None) -> bytes:
    """XS via the fused tables; same function as xs, different datapath."""
    consts = consts or get_constants()
    return xs_core(_block_int(block), *key_halves(rk), consts, True).translate(consts.sbox)
