"""HIEROCRYPT-3 key schedule (128-bit main key, 6 rounds).

The 256-bit intermediate state walks forward four times under the
update sigma, then three times under sigma-inverse with the step
constants replayed in reverse; a 256-bit round key falls out of every
step.  The whole sequence is preceded by padding the main key to 256
bits and one pre-whitening sigma step.

Schedule (step, operation, constant):

    0   sigma0      G0(5)      pre-whitening, no round key
    1-4 sigma       G0(0..3)   K(1)..K(4)
    5-7 sigma-inv   G0(3..1)   K(5)..K(7)

K(1)..K(6) key the six rounds; K(7) keys the final addition.

sigma-inverse undoes sigma exactly, so step t of 5..7 walks back from
Z(9 - t) to Z(8 - t), states the forward walk reached, with the V word
of forward step 9 - t: the 1600-bit cache and the key-sliced schedule
read them from their forward walk; walk_schedule computes every step.

key_schedule_sliced runs the same schedule for a batch of keys at once
on byte planes (hc3cam.planes), one key per slice.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple

from .. import gf2
from ..planes import key_planes, lookup, ones, xor
from .constants import Hc3Constants, get_constants

T_ROUNDS = 6   # rounds of the 128-bit-key cipher
T_TURN = 4     # last forward (sigma) step of the schedule

MASK64 = (1 << 64) - 1


class IntermediateKey(NamedTuple):
    z1: int
    z2: int
    z3: int
    z4: int


class RoundKey256(NamedTuple):
    k1: int
    k2: int
    k3: int
    k4: int


class ScheduleRow(NamedTuple):
    step: int
    op: str        # "sigma0" | "sigma" | "sigma_inv"
    g_index: int   # index into the G0 constant table


SCHEDULE_ROWS: tuple[ScheduleRow, ...] = (
    ScheduleRow(0, "sigma0", 5),
    ScheduleRow(1, "sigma", 0),
    ScheduleRow(2, "sigma", 1),
    ScheduleRow(3, "sigma", 2),
    ScheduleRow(4, "sigma", 3),
    ScheduleRow(5, "sigma_inv", 3),
    ScheduleRow(6, "sigma_inv", 2),
    ScheduleRow(7, "sigma_inv", 1),
)

MODES = ("full_precompute", "cached_1600")


class Cache1600(NamedTuple):
    """The precomputed material of the long-setup datapaths: the five
    intermediate states reached after steps 0..4 plus the five F-sigma
    words entering K(1)..K(5), 5 * 256 + 5 * 64 = 1600 bits."""

    z_states: tuple[IntermediateKey, ...]
    f_outputs: tuple[int, ...]


class Hc3KeySchedule:
    """The round keys of one main key.  Two schedules are equal, and hash
    alike, when their key material is: round_keys, mode and
    intermediate_cache, whatever their consts or batch_tables."""

    __slots__ = ("round_keys", "mode", "consts", "intermediate_cache", "batch_tables")

    def __init__(self, round_keys: tuple[RoundKey256, ...], mode: str,
                 consts: Hc3Constants, intermediate_cache: Cache1600 | None = None):
        self.round_keys = round_keys
        self.mode = mode
        # the constant set the keys were derived with; the cipher uses it for
        # every block, so a set loaded later can never be paired with these keys
        self.consts = consts
        self.intermediate_cache = intermediate_cache
        # per-key tables of the batch engine (cipher.encrypt_blocks), by
        # direction, built on first use
        self.batch_tables = {}

    def _material(self):
        return self.round_keys, self.mode, self.intermediate_cache

    def __eq__(self, other):
        if type(other) is not Hc3KeySchedule:
            return NotImplemented
        return self._material() == other._material()

    def __hash__(self):
        return hash(self._material())


# The step and round-key functions take the 256-bit state as any tuple
# (z1, z2, z3, z4) and return plain tuples, so a per-block walk builds no
# NamedTuple; sigma, sigma_inv, pad_and_prewhiten, iter_schedule and
# key_schedule wrap theirs in IntermediateKey and RoundKey256.

def _sigma_step(z, g: int, consts) -> tuple[tuple[int, ...], int]:
    """One sigma update; also returns the F-sigma word it computed.

    P(32) of z3 || z4 and M_5E of both halves are one fused 16-byte map.
    """
    z1, z2, z3, z4 = z
    y = consts.sigma_map((z3 << 64 | z4).to_bytes(16, "big"))
    z3 = y >> 64 ^ g
    f_out = consts.f_sigma_map((z2 ^ z3).to_bytes(8, "big"))   # reads the new z3
    return (z2, z1 ^ f_out, z3, y & MASK64), f_out


def _sigma_inv_step(z, g: int, consts) -> tuple[tuple[int, ...], int, int]:
    """One sigma-inverse update; also returns its W words, which the
    second-regime round keys consume.

    M_B3 of both halves, and P(32)^-1 after it, are one fused 16-byte map
    giving W1 || W2 || z3 || z4.
    """
    z1, z2, z3, z4 = z
    y = consts.sigma_inv_map(((z3 ^ g) << 64 | z4).to_bytes(16, "big"))
    return ((z2 ^ consts.f_sigma_map((z1 ^ z3).to_bytes(8, "big")), z1,
             y >> 64 & MASK64, y & MASK64), y >> 192, y >> 128 & MASK64)


def sigma(z: IntermediateKey, g: int, consts: Hc3Constants | None = None) -> IntermediateKey:
    return IntermediateKey(*_sigma_step(z, g, consts or get_constants())[0])


def sigma_inv(z: IntermediateKey, g: int, consts: Hc3Constants | None = None) -> IntermediateKey:
    return IntermediateKey(*_sigma_inv_step(z, g, consts or get_constants())[0])


def _fwd_key(z_prev, z_next, v: int) -> tuple[int, ...]:
    """K1..K4 of a forward (sigma) step, given its F-sigma word V."""
    return z_prev[0] ^ v, z_next[2] ^ v, z_next[3] ^ v, z_prev[1] ^ z_next[3]


def _bwd_key(z_prev, z_next, w1: int, w2: int, v: int) -> tuple[int, ...]:
    """K1..K4 of a backward (sigma-inverse) step, given its V and W words."""
    return z_next[0] ^ z_prev[2], w1 ^ v, w2 ^ v, z_prev[0] ^ w2


def round_keys_fwd(z_prev: IntermediateKey, z_next: IntermediateKey,
                   consts: Hc3Constants) -> tuple[tuple[int, ...], int]:
    """Round key of a forward (sigma) step, plus the F-sigma word V."""
    v = consts.f_sigma_map((z_prev[1] ^ z_prev[2]).to_bytes(8, "big"))
    return _fwd_key(z_prev, z_next, v), v


def round_keys_bwd(z_prev: IntermediateKey, z_next: IntermediateKey,
                   w1: int, w2: int,
                   consts: Hc3Constants) -> tuple[tuple[int, ...], int]:
    """Round key of a backward (sigma-inverse) step, plus its V word."""
    v = consts.f_sigma_map((z_prev[0] ^ z_next[2]).to_bytes(8, "big"))
    return _bwd_key(z_prev, z_next, w1, w2, v), v


def pad_key(key: bytes, consts: Hc3Constants) -> IntermediateKey:
    """Extend the 128-bit main key to 256 bits with the H3/H2 words."""
    if len(key) != 16:
        raise ValueError(f"hc3 key must be 16 bytes, got {len(key)}")
    return IntermediateKey(
        int.from_bytes(key[0:8], "big"),
        int.from_bytes(key[8:16], "big"),
        consts.pad_h3,
        consts.pad_h2,
    )


def pad_and_prewhiten(key: bytes, consts: Hc3Constants | None = None) -> IntermediateKey:
    """PAD then the sigma0 pre-whitening step: the state Z(0)."""
    consts = consts or get_constants()
    z = pad_key(key, consts)
    return IntermediateKey(*_sigma_step(z, consts.g0[5], consts)[0])


class ScheduleStep(NamedTuple):
    step: int
    round_key: RoundKey256
    v: int
    z_next: IntermediateKey


def walk_schedule(z0, consts: Hc3Constants) -> Iterator[tuple[tuple[int, ...], int, tuple]]:
    """Walk steps 1..7 from Z(0) on plain tuples, yielding each step's
    (round key words, V, next state) as it forms.

    This is the on-the-fly order the short-setup datapath executes in
    parallel with the rounds.
    """
    z = z0
    for _, op, g_index in SCHEDULE_ROWS[1:]:
        g = consts.g0[g_index]
        if op == "sigma":
            z_next = _sigma_step(z, g, consts)[0]
            key, v = round_keys_fwd(z, z_next, consts)
        else:
            z_next, w1, w2 = _sigma_inv_step(z, g, consts)
            key, v = round_keys_bwd(z, z_next, w1, w2, consts)
        yield key, v, z_next
        z = z_next


def iter_schedule(z0: IntermediateKey, consts: Hc3Constants) -> Iterator[ScheduleStep]:
    """walk_schedule's steps as ScheduleSteps."""
    for row, (key, v, z_next) in zip(SCHEDULE_ROWS[1:], walk_schedule(z0, consts)):
        yield ScheduleStep(row.step, RoundKey256(*key), v, IntermediateKey(*z_next))


def _keys_from_cache(cache: Cache1600,
                     consts: Hc3Constants) -> tuple[RoundKey256, ...]:
    """Derive all seven round keys from the 1600 cached bits.

    No step evaluates F-sigma.  Step t of 5..7 walks back over cached
    states and takes the V of forward step 9 - t (so V(5) = V(4)); it
    needs only its W words, M_B3 of (z3 ^ G) || z4, from sigma_inv_map.
    """
    z, v = cache.z_states, cache.f_outputs
    keys = []
    for t in range(1, 5):
        keys.append(RoundKey256(*_fwd_key(z[t - 1], z[t], v[t - 1])))
    for t in range(5, 8):
        z_prev, z_next = z[9 - t], z[8 - t]
        g = consts.g0[SCHEDULE_ROWS[t].g_index]
        y = consts.sigma_inv_map(((z_prev[2] ^ g) << 64 | z_prev[3]).to_bytes(16, "big"))
        keys.append(RoundKey256(*_bwd_key(z_prev, z_next, y >> 192, y >> 128 & MASK64,
                                          v[8 - t])))
    return tuple(keys)


def key_schedule(key: bytes, mode: str = "full_precompute",
                 consts: Hc3Constants | None = None) -> Hc3KeySchedule:
    """Build K(1)..K(7) from a 16-byte key.

    mode picks what is retained: ``full_precompute`` walks all seven steps
    and keeps the key set; ``cached_1600`` walks steps 1..5 only, for the
    1600-bit intermediate cache of the long-setup datapaths, and derives
    the keys from it.
    """
    consts = consts or get_constants()
    if mode not in MODES:
        raise ValueError(f"unknown key schedule mode {mode!r}; pick one of {MODES}")

    z0 = pad_and_prewhiten(key, consts)
    walk = walk_schedule(z0, consts)
    if mode == "full_precompute":
        return Hc3KeySchedule(tuple(RoundKey256(*k) for k, _, _ in walk), mode, consts)
    steps = list(islice(walk, T_TURN + 1))
    cache = Cache1600((z0, *(IntermediateKey(*z) for _, _, z in steps[:T_TURN])),
                      tuple(v for _, v, _ in steps))
    return Hc3KeySchedule(_keys_from_cache(cache, consts), mode, consts, cache)


# --- key-sliced schedule ------------------------------------------------------
#
# A 64-bit word of a batch is eight planes, its most significant byte
# first.  M_5E/M_B3, P(16) and P(32) XOR whole 8-, 16- and 32-bit lanes, so
# at each byte offset of a lane they are gf2.apply_rows over planes; the
# s-boxes of F-sigma are the only translates.

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
    """_sigma_step on planes: the next state, as a tuple of four words, and
    P(32) of z3 || z4, the W1 || W2 of the sigma-inverse step back."""
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
