"""HIEROCRYPT-3 key-sliced: the key schedule and both directions for a
batch with one key per block, on byte planes (hc3cam.planes).

A 64-bit word is eight planes, its most significant byte first.  In the
schedule M_5E/M_B3, P(16) and P(32) XOR whole lanes, so they are
gf2.apply_rows over planes at each byte offset of a lane.  In the network
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


def _lane_layer(rows, planes, per: int) -> list[int]:
    """A lane-selection layer over lanes of `per` bytes (gf2 row masks)."""
    out = [0] * len(planes)
    for k in range(per):
        out[k::per] = gf2.apply_rows(rows, planes[k::per])
    return out


def _f_sigma_planes(x, n: int, consts: Hc3Constants) -> list[int]:
    return _lane_layer(consts.p16_rows, [lookup(v, consts.sbox, n) for v in x], 2)


def _sigma_planes(z, g, n: int, consts: Hc3Constants):
    """linear.sigma on planes: the next state, as a tuple of four words,
    and P(32) of z3 || z4, the W1 || W2 of the sigma-inverse step back."""
    z1, z2, z3, z4 = z
    w = _lane_layer(consts.p32_rows, z3 + z4, 4)
    z3 = xor(_lane_layer(consts.m5e_rows, w[:8], 1), g)
    z4 = _lane_layer(consts.m5e_rows, w[8:], 1)
    return (z2, xor(z1, _f_sigma_planes(xor(z2, z3), n, consts)), z3, z4), w


def key_schedule_sliced(keys: bytes) -> Hc3SlicedSchedule:
    """K(1)..K(7) of every 16-byte key in keys, on planes.

    Slice i holds the round keys key_schedule(keys[16 i:16 i + 16]) builds
    in every mode.
    """
    consts = get_constants()
    k, n = key_planes(keys, "hc3")
    one = ones(n)

    def word(value):
        return [(value >> 8 * (7 - i) & 0xFF) * one for i in range(8)]

    z = [_sigma_planes((k[:8], k[8:], word(consts.pad_h3), word(consts.pad_h2)),
                       word(consts.g0[SCHEDULE_ROWS[0].g_index]), n, consts)[0]]
    v, w, keys_out = [None], [None], []
    for t in range(1, T_TURN + 1):
        prev = z[t - 1]
        nxt, w_t = _sigma_planes(prev, word(consts.g0[SCHEDULE_ROWS[t].g_index]), n, consts)
        vt = _f_sigma_planes(xor(prev[1], prev[2]), n, consts)
        keys_out.append((*xor(prev[0], vt), *xor(nxt[2], vt), *xor(nxt[3], vt),
                         *xor(prev[1], nxt[3])))
        z.append(nxt)
        v.append(vt)
        w.append(w_t)
    # step 9 - s walks back from Z(s) to Z(s - 1), with the V and the
    # P(32) output of forward step s as its V and W1 || W2
    for s in range(T_TURN, 1, -1):
        prev, nxt, vt, w1, w2 = z[s], z[s - 1], v[s], w[s][:8], w[s][8:]
        keys_out.append((*xor(nxt[0], prev[2]), *xor(w1, vt), *xor(w2, vt),
                         *xor(prev[0], w2)))
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
