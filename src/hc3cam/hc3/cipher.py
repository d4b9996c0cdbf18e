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
from ..planes import keyed_tables, lookup, run_program, run_sliced, sub, xor
from .constants import IDENTITY, Hc3Constants, get_constants
from .keyschedule import Hc3KeySchedule, Hc3SlicedSchedule, RoundKey256, T_ROUNDS
from .linear import check_block, mds_h, mds_h_inv


def _block_int(block: bytes) -> int:
    return int.from_bytes(check_block(block), "big")


def key_halves(rk) -> tuple[int, int]:
    """(K1 K2, K3 K4) of a round key's four words as two 128-bit ints: the
    halves XS adds before and after MDS-lower."""
    k1, k2, k3, k4 = rk
    return k1 << 64 | k2, k3 << 64 | k4


def xs_core(v: int, k12: int, k34: int, consts: Hc3Constants, merged: bool = False) -> bytes:
    """The integer round core: XS of the state v up to its second s-box
    layer, as the 16 bytes that layer, or a map fused with it, reads.

    merged runs the first s-box layer and MDS-lower as the fused
    merged_map instead of a translate and mdsl_map.
    """
    b = (v ^ k12).to_bytes(16, "big")
    y = consts.merged_map(b) if merged else consts.mdsl_map(b.translate(consts.sbox))
    return (y ^ k34).to_bytes(16, "big")


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


# --- byte-plane batch engine (see hc3cam.planes) ----------------------------
#
# An s-box layer with its key addition is one translate per plane,
# MDS-lower one translate per (input byte, output byte) pair whose results
# XOR as big ints, and MDS-higher an XOR of whole planes.  Under one key
# the key additions are in the translate tables and the planes stay bytes
# between layers.  Under a key-sliced schedule a key addition is an XOR
# with key planes, so the network holds its planes as ints and a plane
# becomes bytes only where a translate reads it; encryption's first s-box
# layer of XS is folded into the MDS-lower products after it.

def _products(planes, columns) -> list[int]:
    """MDS-lower of byte planes, as ints.  columns[j][i]: the product table
    of input byte j into output byte i of a 32-bit word."""
    out = []
    for w in range(0, 16, 4):
        acc = [0, 0, 0, 0]
        for plane, products in zip(planes[w:w + 4], columns):
            for i, table in enumerate(products):
                acc[i] ^= int.from_bytes(plane.translate(table), "little")
        out += acc
    return out


def _mds_l_bytes(planes, columns):
    n = len(planes[0])
    return [v.to_bytes(n, "little") for v in _products(planes, columns)]


def _mds_h_bytes(planes, rows):
    n = len(planes[0])
    ints = [int.from_bytes(plane, "little") for plane in planes]
    return [v.to_bytes(n, "little") for v in gf2.apply_rows(rows, ints)]


def _program(halves, xs_steps, mds_h_step, whiten, inverse: bool):
    """The steps of one direction: xs_steps(k12, k34) of each round, in
    encryption order, joined by mds_h_step, and whiten(K1 K2 of K(7)) last
    (first, decrypting).  halves[t] is (K1 K2, K3 K4) of K(t + 1)."""
    rounds = [xs_steps(k12, k34) for k12, k34 in halves[:T_ROUNDS]]
    if inverse:
        rounds.reverse()
    steps = rounds[0]
    for more in rounds[1:]:
        steps += [mds_h_step, *more]
    last = whiten(halves[T_ROUNDS][0])
    return [last, *steps] if inverse else [*steps, last]


def _plane_program(ks: Hc3KeySchedule, inverse: bool):
    consts = ks.consts
    if inverse:
        box, rows, columns = consts.sbox_inv, consts.mds_h_inv_rows, consts.mdsl_inv_columns
    else:
        box, rows, columns = consts.sbox, consts.mds_h_rows, consts.mdsl_columns

    def keyed(k, box):
        return sub, keyed_tables(box, k.to_bytes(16, "big"), inverse)

    def xs_steps(k12, k34):
        # decryption runs XS backwards, each key added after its s-box
        first, second = (k34, k12) if inverse else (k12, k34)
        return [keyed(first, box), (_mds_l_bytes, columns), keyed(second, box)]

    return _program(list(map(key_halves, ks.round_keys)), xs_steps, (_mds_h_bytes, rows),
                    lambda k: keyed(k, IDENTITY), inverse)


def _add(planes, n, keys):
    return xor(planes, keys)


def _add_sub(planes, n, arg):
    """Key planes XORed in, then one unkeyed translate per plane."""
    keys, box = arg
    return [lookup(v ^ k, box, n) for v, k in zip(planes, keys)]


def _sub_add(planes, n, arg):
    """One unkeyed translate per plane, then the key planes XORed in."""
    keys, box = arg
    return [lookup(v, box, n) ^ k for v, k in zip(planes, keys)]


def _mds_l(planes, n, columns):
    return _products([v.to_bytes(n, "little") for v in planes], columns)


def _mds_h(planes, n, rows):
    return gf2.apply_rows(rows, planes)


def _network(planes, steps):
    """The key-sliced steps on the planes held as ints."""
    n = len(planes[0])
    ints = [int.from_bytes(plane, "little") for plane in planes]
    for layer, arg in steps:
        ints = layer(ints, n, arg)
    return [v.to_bytes(n, "little") for v in ints]


def _sliced_program(ks: Hc3SlicedSchedule, inverse: bool):
    consts = ks.consts
    if inverse:
        box, rows = consts.sbox_inv, consts.mds_h_inv_rows

        def xs_steps(k12, k34):
            return [(_sub_add, (k34, box)), (_mds_l, consts.mdsl_inv_columns),
                    (_sub_add, (k12, box))]
    else:
        box, rows = consts.sbox, consts.mds_h_rows

        def xs_steps(k12, k34):
            return [(_add, k12), (_mds_l, consts.sbox_mdsl_columns), (_add_sub, (k34, box))]

    halves = [(rk[:16], rk[16:]) for rk in ks.round_keys]
    return [(_network, _program(halves, xs_steps, (_mds_h, rows),
                                lambda k: (_add, k), inverse))]


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
