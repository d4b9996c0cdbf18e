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
from ..planes import keyed_tables, run_program, run_sliced, sub
from .constants import IDENTITY, Hc3Constants, get_constants
from .keyschedule import Hc3KeySchedule, Hc3SlicedSchedule, RoundKey256, T_ROUNDS
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
# XOR as big ints, and MDS-higher an XOR of whole planes.  Under a
# key-sliced schedule the key addition is an XOR with key planes beside an
# unkeyed translate; the rest of the program is the same.

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


def _add_sub(planes, arg):
    """Key planes XORed in, then one unkeyed translate per plane."""
    keys, box = arg
    n = len(planes[0])
    return [(int.from_bytes(p, "little") ^ k).to_bytes(n, "little").translate(box)
            for p, k in zip(planes, keys)]


def _sub_add(planes, arg):
    """One unkeyed translate per plane, then the key planes XORed in."""
    keys, box = arg
    n = len(planes[0])
    return [(int.from_bytes(p.translate(box), "little") ^ k).to_bytes(n, "little")
            for p, k in zip(planes, keys)]


def _program(consts: Hc3Constants, halves, keyed, inverse: bool):
    """The layers of one direction as (function, argument) steps.

    halves[t] is the pair (K1 K2, K3 K4) of K(t + 1), in the form that
    keyed(half, box) takes: the step that adds the half before box
    (after it, decrypting).
    """
    if inverse:
        box, rows = consts.sbox_inv, consts.mds_h_inv_rows
    else:
        box, rows = consts.sbox, consts.mds_h_rows
    mdsl = consts.mdsl_inv_columns if inverse else consts.mdsl_columns
    rounds = []
    for k12, k34 in halves[:T_ROUNDS]:
        # XS; decryption runs it backwards, each key added after its s-box
        first, second = (k34, k12) if inverse else (k12, k34)
        rounds.append([keyed(first, box), (_mds_l, mdsl), keyed(second, box)])
    if inverse:
        rounds.reverse()
    steps = rounds[0]
    for xs_steps in rounds[1:]:
        steps += [(_mds_h, rows), *xs_steps]
    whiten = keyed(halves[T_ROUNDS][0], IDENTITY)
    return [whiten, *steps] if inverse else [*steps, whiten]


def _plane_program(ks: Hc3KeySchedule, inverse: bool):
    halves = [(rk.k1 << 64 | rk.k2, rk.k3 << 64 | rk.k4) for rk in ks.round_keys]
    return _program(ks.consts, halves,
                    lambda k, box: (sub, _keyed_tables(box, k, inverse)), inverse)


def _sliced_program(ks: Hc3SlicedSchedule, inverse: bool):
    halves = [(rk[:16], rk[16:]) for rk in ks.round_keys]
    layer = _sub_add if inverse else _add_sub
    return _program(ks.consts, halves, lambda k, box: (layer, (k, box)), inverse)


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


def encrypt_sliced(data: bytes, ks: Hc3SlicedSchedule) -> bytes:
    """Encrypt block i of data under key i of a key-sliced schedule; equal
    to encrypt() of every block under its own key_schedule()."""
    return run_sliced(data, "hc3", ks.n, _sliced_program(ks, inverse=False))


def decrypt_sliced(data: bytes, ks: Hc3SlicedSchedule) -> bytes:
    """Decrypt block i of data under key i of a key-sliced schedule."""
    return run_sliced(data, "hc3", ks.n, _sliced_program(ks, inverse=True))
