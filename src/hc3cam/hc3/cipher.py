"""HIEROCRYPT-3 block operations and the two-level round structure.

A round is the keyed s-box / MDS-lower / s-box sandwich (XS) followed
by the 128-bit MDS higher layer; encryption is five such rounds, one
bare XS, and a final key addition.  ``merged_xs`` is the alternative
datapath that folds the first s-box layer into the four MDS-lower
constant multiplications (one fused table per matrix column) and must
match ``xs`` bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

from .constants import Hc3Constants, get_constants
from .keyschedule import Hc3KeySchedule, RoundKey256, T_ROUNDS
from .linear import check_block, lanes, mds_h, mds_h_inv


def _block_int(block: bytes) -> int:
    return int.from_bytes(check_block(block), "big")


def xs(block: bytes, rk: RoundKey256, consts: Hc3Constants | None = None) -> bytes:
    """Key add, 16 s-boxes, per-word MDS lower, key add, 16 s-boxes."""
    consts = consts or get_constants()
    x = _block_int(block) ^ (rk.k1 << 64 | rk.k2)
    b = x.to_bytes(16, "big").translate(consts.sbox)
    y = lanes(consts.mdsl_tables, b) ^ (rk.k3 << 64 | rk.k4)
    return y.to_bytes(16, "big").translate(consts.sbox)


def xs_inv(block: bytes, rk: RoundKey256, consts: Hc3Constants | None = None) -> bytes:
    consts = consts or get_constants()
    b = check_block(block).translate(consts.sbox_inv)
    b = (int.from_bytes(b, "big") ^ (rk.k3 << 64 | rk.k4)).to_bytes(16, "big")
    b = lanes(consts.mdsl_inv_tables, b).to_bytes(16, "big").translate(consts.sbox_inv)
    return (int.from_bytes(b, "big") ^ (rk.k1 << 64 | rk.k2)).to_bytes(16, "big")


def rho(block: bytes, rk: RoundKey256, consts: Hc3Constants | None = None) -> bytes:
    """Round function: MDS higher level after the XS sandwich."""
    consts = consts or get_constants()
    return mds_h(xs(block, rk, consts), consts)


def rho_inv(block: bytes, rk: RoundKey256, consts: Hc3Constants | None = None) -> bytes:
    consts = consts or get_constants()
    return xs_inv(mds_h_inv(block, consts), rk, consts)


def key_addition(block: bytes, rk: RoundKey256) -> bytes:
    """Final XOR with the first half of the round key."""
    x = _block_int(block) ^ (rk.k1 << 64 | rk.k2)
    return x.to_bytes(16, "big")


def encrypt(block: bytes, ks: Hc3KeySchedule,
            consts: Hc3Constants | None = None) -> bytes:
    """Five rounds of rho, one XS, final key addition with K(7)."""
    consts = consts or get_constants()
    keys = ks.round_keys
    x = block
    for t in range(T_ROUNDS - 1):
        x = rho(x, keys[t], consts)
    x = xs(x, keys[T_ROUNDS - 1], consts)
    return key_addition(x, keys[T_ROUNDS])


def decrypt(block: bytes, ks: Hc3KeySchedule,
            consts: Hc3Constants | None = None) -> bytes:
    consts = consts or get_constants()
    keys = ks.round_keys
    x = key_addition(block, keys[T_ROUNDS])
    x = xs_inv(x, keys[T_ROUNDS - 1], consts)
    for t in range(T_ROUNDS - 2, -1, -1):
        x = rho_inv(x, keys[t], consts)
    return x


class MergedSboxTables(NamedTuple):
    """Four classes of fused s-boxes, one per MDS-lower matrix column.

    classes[j][x] packs the four per-row products constant * sbox[x] of
    column j into one 32-bit word; each class serves its byte position
    in all four words, so it stands for sixteen fused s-boxes.
    """

    classes: tuple[tuple[int, ...], ...]

    def row_table(self, class_index: int, row: int) -> bytes:
        """One fused 8-bit s-box: byte `row` of every packed entry."""
        shift = 8 * (3 - row)
        return bytes((v >> shift) & 0xFF for v in self.classes[class_index])


def build_merged_sboxes(consts: Hc3Constants | None = None) -> MergedSboxTables:
    consts = consts or get_constants()
    # the last word's positions carry the column tables unshifted
    return MergedSboxTables(consts.merged_tables[12:])


def merged_xs(block: bytes, rk: RoundKey256,
              consts: Hc3Constants | None = None) -> bytes:
    """XS via the fused tables; same function as xs, different datapath."""
    consts = consts or get_constants()
    b = (_block_int(block) ^ (rk.k1 << 64 | rk.k2)).to_bytes(16, "big")
    y = lanes(consts.merged_tables, b) ^ (rk.k3 << 64 | rk.k4)
    return y.to_bytes(16, "big").translate(consts.sbox)
