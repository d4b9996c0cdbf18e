"""HIEROCRYPT-3 key-sliced: the key schedule and both directions for a
batch with one key per block, on byte planes (hc3cam.planes).

A 64-bit word is eight planes, its most significant byte first.  In the
schedule each of walk_schedule's fused maps (sigma, sigma-inverse and
F-sigma's P(16)) XORs whole bytes, so it is one gf2.apply_rows of the
constant set's byte rows over the planes.  In the network
a key addition is an XOR with key planes, so the planes are held as ints
until a translate reads them; encryption folds XS's first s-box layer
into MDS-lower.
"""

from typing import NamedTuple

from .. import gf2
from ..planes import key_planes, lookup, ones, run_sliced, xor
from .constants import Hc3Constants, get_constants
from .steps import SCHEDULE_ROWS, T_TURN, products, program


class Hc3SlicedSchedule(NamedTuple):
    """K(1)..K(7) of n keys: round key t is 32 planes, K1 K2 K3 K4 in
    order, byte i of each plane belonging to key i; consts is the set
    they were derived with, as in Hc3KeySchedule."""

    n: int
    round_keys: tuple[tuple[int, ...], ...]
    consts: Hc3Constants


def key_schedule_sliced(keys: bytes) -> Hc3SlicedSchedule:
    """K(1)..K(7) of every 16-byte key in keys, on planes.

    Slice i holds the round keys key_schedule(keys[16 i:16 i + 16]) builds
    in every mode: the steps and formulas are walk_schedule's, each fused
    map one gf2.apply_rows of its byte rows.
    """
    consts = get_constants()
    k, n = key_planes(keys, "hc3")
    one = ones(n)

    def word(value):
        return [(value >> 8 * (7 - i) & 0xFF) * one for i in range(8)]

    def f(x):
        return gf2.apply_rows(consts.f_sigma_rows, [lookup(v, consts.sbox, n) for v in x])

    # sigma0, as pad_and_prewhiten
    y = gf2.apply_rows(consts.sigma_rows, word(consts.pad_h3) + word(consts.pad_h2))
    z3, z4 = xor(y[:8], word(consts.g0[SCHEDULE_ROWS[0].g_index])), y[8:]
    z1, z2 = k[8:], xor(k[:8], f(xor(k[8:], z3)))
    keys_out = []
    for step, _, g_index in SCHEDULE_ROWS[1:]:
        g = word(consts.g0[g_index])
        if step <= T_TURN:
            y = gf2.apply_rows(consts.sigma_rows, (*z3, *z4))
            n3, n4 = xor(y[:8], g), y[8:]
            v = f(xor(z2, z3))
            keys_out.append((*xor(z1, v), *xor(n3, v), *xor(n4, v), *xor(z2, n4)))
            z1, z2, z3, z4 = z2, xor(z1, f(xor(z2, n3))), n3, n4
        else:
            # y: W1 || W2 || the new z3 || the new z4
            y = gf2.apply_rows(consts.sigma_inv_rows, (*xor(z3, g), *z4))
            n1, n3, w2 = xor(z2, f(xor(z1, z3))), y[16:24], y[8:16]
            v = f(xor(z1, n3))
            keys_out.append((*xor(n1, z3), *xor(y[:8], v), *xor(w2, v), *xor(z1, w2)))
            z1, z2, z3, z4 = n1, z1, n3, y[24:]
    return Hc3SlicedSchedule(n, tuple(keys_out), consts)


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
    return products([v.to_bytes(n, "little") for v in planes], columns)


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
    return [(_network, program(halves, xs_steps, (_mds_h, rows),
                               lambda k: (_add, k), inverse))]


def encrypt_sliced(data: bytes, ks: Hc3SlicedSchedule) -> bytes:
    """Encrypt block i of data under key i of a key-sliced schedule; equal
    to encrypt() of every block under its own key_schedule()."""
    return run_sliced(data, "hc3", ks.n, _sliced_program(ks, inverse=False))


def decrypt_sliced(data: bytes, ks: Hc3SlicedSchedule) -> bytes:
    """Decrypt block i of data under key i of a key-sliced schedule."""
    return run_sliced(data, "hc3", ks.n, _sliced_program(ks, inverse=True))
