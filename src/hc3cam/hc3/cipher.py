"""HIEROCRYPT-3 block operations and the two-level round structure.

A round is the keyed s-box / MDS-lower / s-box sandwich (XS) followed
by the 128-bit MDS higher layer; encryption is five such rounds, one
bare XS, and a final key addition.  ``merged_xs`` is the alternative
datapath that folds the first s-box layer into the four MDS-lower
constant multiplications (one fused table per matrix column) and must
match ``xs`` bit for bit.
"""

from __future__ import annotations

from .. import gf2
from ..planes import keyed_tables, run_program, sub
from .constants import IDENTITY, Hc3Constants, get_constants
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


def rho_inv(block: bytes, rk: RoundKey256, consts: Hc3Constants) -> bytes:
    return xs_inv(mds_h_inv(block, consts), rk, consts)


def key_addition(block: bytes, rk: RoundKey256) -> bytes:
    """Final XOR with the first half of the round key."""
    x = _block_int(block) ^ (rk.k1 << 64 | rk.k2)
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


def _row_table(column, row: int) -> bytes:
    """Byte `row` (0 = most significant) of every packed 32-bit entry."""
    shift = 8 * (3 - row)
    return bytes((v >> shift) & 0xFF for v in column)


def merged_xs(block: bytes, rk: RoundKey256,
              consts: Hc3Constants | None = None) -> bytes:
    """XS via the fused tables; same function as xs, different datapath."""
    consts = consts or get_constants()
    b = (_block_int(block) ^ (rk.k1 << 64 | rk.k2)).to_bytes(16, "big")
    y = lanes(consts.merged_tables, b) ^ (rk.k3 << 64 | rk.k4)
    return y.to_bytes(16, "big").translate(consts.sbox)


# --- byte-plane batch engine (see hc3cam.planes) ----------------------------
#
# An s-box layer with its key addition is one translate per plane,
# MDS-lower one translate per (input byte, output byte) pair whose results
# XOR as big ints, and MDS-higher an XOR of whole planes.

def _mds_l(planes, columns):
    """columns[j][i]: the product table of input byte j into output byte i
    of a 32-bit word."""
    n = len(planes[0])
    out = []
    for w in range(0, 16, 4):
        acc = [0, 0, 0, 0]
        for plane, products in zip(planes[w:w + 4], columns):
            for i, table in enumerate(products):
                acc[i] ^= int.from_bytes(plane.translate(table), "little")
        out += [a.to_bytes(n, "little") for a in acc]
    return out


def _mds_h(planes, rows):
    n = len(planes[0])
    ints = [int.from_bytes(plane, "little") for plane in planes]
    return [v.to_bytes(n, "little") for v in gf2.apply_rows(rows, ints)]


def _keyed_tables(box: bytes, key: int, inverse: bool) -> tuple[bytes, ...]:
    """box[x ^ k] (key added before, encryption) or box[x] ^ k (after,
    decryption) for each byte of a 128-bit key."""
    return keyed_tables((box,) * 16, key.to_bytes(16, "big"), inverse)


def _plane_program(ks: Hc3KeySchedule, inverse: bool):
    """The layers of one direction as (function, per-key argument) steps."""
    c = ks.consts
    if inverse:
        box, products, rows = c.sbox_inv, c.mdsl_inv_tables, c.mds_h_inv_rows
    else:
        box, products, rows = c.sbox, c.mdsl_tables, c.mds_h_rows
    # the last word's positions carry the four column tables unshifted
    mdsl = tuple(tuple(_row_table(col, i) for i in range(4)) for col in products[12:])
    rounds = []
    for rk in ks.round_keys[:T_ROUNDS]:
        k12, k34 = rk.k1 << 64 | rk.k2, rk.k3 << 64 | rk.k4
        # XS; decryption runs it backwards, each key added after its s-box
        first, second = (k34, k12) if inverse else (k12, k34)
        rounds.append([(sub, _keyed_tables(box, first, inverse)), (_mds_l, mdsl),
                       (sub, _keyed_tables(box, second, inverse))])
    if inverse:
        rounds.reverse()
    steps = rounds[0]
    for xs_steps in rounds[1:]:
        steps += [(_mds_h, rows), *xs_steps]
    last = ks.round_keys[T_ROUNDS]
    whiten = (sub, _keyed_tables(IDENTITY, last.k1 << 64 | last.k2, inverse))
    return [whiten, *steps] if inverse else [*steps, whiten]


def encrypt_blocks(data: bytes, ks: Hc3KeySchedule) -> bytes:
    """ECB-encrypt a multiple of 16 bytes in one batch; equal to encrypt()
    on every block."""
    return run_program(data, "hc3", ks.batch_tables, False,
                       lambda: _plane_program(ks, inverse=False))


def decrypt_blocks(data: bytes, ks: Hc3KeySchedule) -> bytes:
    """ECB-decrypt a multiple of 16 bytes in one batch; equal to decrypt()
    on every block."""
    return run_program(data, "hc3", ks.batch_tables, True,
                       lambda: _plane_program(ks, inverse=True))
