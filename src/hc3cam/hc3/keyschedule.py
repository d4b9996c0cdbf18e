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

key_schedule_sliced runs the same schedule for a batch of keys at once
on byte planes (hc3cam.planes), one key per slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .. import gf2
from ..planes import key_planes, lookup, ones, xor
from .constants import Hc3Constants, get_constants
from .linear import f_sigma, m5e, mb3, p32_pair

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

MODES = ("on_the_fly_ready", "full_precompute", "cached_1600")


class Cache1600(NamedTuple):
    """The precomputed material of the long-setup datapaths: the five
    intermediate states reached after steps 0..4 plus the five F-sigma
    words entering K(1)..K(5)."""

    z_states: tuple[IntermediateKey, ...]
    f_outputs: tuple[int, ...]

    @property
    def n_bits(self) -> int:
        return 256 * len(self.z_states) + 64 * len(self.f_outputs)


@dataclass(frozen=True)
class Hc3KeySchedule:
    round_keys: tuple[RoundKey256, ...]
    mode: str
    # the constant set the keys were derived with; the cipher uses it for
    # every block, so a set loaded later can never be paired with these keys
    consts: Hc3Constants = field(compare=False, repr=False)
    intermediate_cache: Cache1600 | None = None
    # per-key tables of the batch engine (cipher.encrypt_blocks), by
    # direction, built on first use
    batch_tables: dict = field(default_factory=dict, init=False, compare=False,
                               repr=False)


def _sigma_step(z: IntermediateKey, g: int, consts) -> tuple[IntermediateKey, int]:
    """One sigma update; also returns the F-sigma word it computed."""
    w1, w2 = p32_pair(z.z3, z.z4, consts)
    z3 = m5e(w1, consts) ^ g
    z4 = m5e(w2, consts)
    f_out = f_sigma(z.z2 ^ z3, consts)   # reads the new z3
    return IntermediateKey(z.z2, z.z1 ^ f_out, z3, z4), f_out


def _sigma_inv_step(z: IntermediateKey, g: int, consts) -> tuple[IntermediateKey, int, int]:
    """One sigma-inverse update; also returns its W words, which the
    second-regime round keys consume."""
    z1 = z.z2 ^ f_sigma(z.z1 ^ z.z3, consts)
    z2 = z.z1
    w1 = mb3(z.z3 ^ g, consts)
    w2 = mb3(z.z4, consts)
    z3, z4 = p32_pair(w1, w2, consts, inverse=True)
    return IntermediateKey(z1, z2, z3, z4), w1, w2


def sigma(z: IntermediateKey, g: int, consts: Hc3Constants | None = None) -> IntermediateKey:
    return _sigma_step(z, g, consts or get_constants())[0]


def sigma_inv(z: IntermediateKey, g: int, consts: Hc3Constants | None = None) -> IntermediateKey:
    return _sigma_inv_step(z, g, consts or get_constants())[0]


def round_keys_fwd(z_prev: IntermediateKey, z_next: IntermediateKey,
                   consts: Hc3Constants) -> tuple[RoundKey256, int]:
    """Round key of a forward (sigma) step, plus the F-sigma word V."""
    v = f_sigma(z_prev.z2 ^ z_prev.z3, consts)
    key = RoundKey256(
        z_prev.z1 ^ v,
        z_next.z3 ^ v,
        z_next.z4 ^ v,
        z_prev.z2 ^ z_next.z4,
    )
    return key, v


def round_keys_bwd(z_prev: IntermediateKey, z_next: IntermediateKey,
                   w1: int, w2: int,
                   consts: Hc3Constants) -> tuple[RoundKey256, int]:
    """Round key of a backward (sigma-inverse) step."""
    v = f_sigma(z_prev.z1 ^ z_next.z3, consts)
    key = RoundKey256(
        z_next.z1 ^ z_prev.z3,
        w1 ^ v,
        w2 ^ v,
        z_prev.z1 ^ w2,
    )
    return key, v


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
    return _sigma_step(z, consts.g0[5], consts)[0]


class ScheduleStep(NamedTuple):
    step: int
    round_key: RoundKey256
    v: int
    z_next: IntermediateKey


def iter_schedule(z0: IntermediateKey, consts: Hc3Constants) -> Iterator[ScheduleStep]:
    """Walk steps 1..7 from Z(0), yielding each round key as it forms.

    This is the on-the-fly order the short-setup datapath executes in
    parallel with the rounds.
    """
    z = z0
    for row in SCHEDULE_ROWS[1:]:
        g = consts.g0[row.g_index]
        if row.op == "sigma":
            z_next, _ = _sigma_step(z, g, consts)
            key, v = round_keys_fwd(z, z_next, consts)
        else:
            z_next, w1, w2 = _sigma_inv_step(z, g, consts)
            key, v = round_keys_bwd(z, z_next, w1, w2, consts)
        yield ScheduleStep(row.step, key, v, z_next)
        z = z_next


def _keys_from_cache(cache: Cache1600,
                     consts: Hc3Constants) -> tuple[RoundKey256, ...]:
    """Derive all seven round keys from the 1600 cached bits.

    K(1)..K(5) need no fresh F-sigma evaluation for their V words; the
    remaining sigma-inverse steps are replayed from the last cached
    state.
    """
    z, v = cache.z_states, cache.f_outputs
    keys = []
    for t in range(1, 5):
        z_prev, z_next = z[t - 1], z[t]
        keys.append(RoundKey256(
            z_prev.z1 ^ v[t - 1],
            z_next.z3 ^ v[t - 1],
            z_next.z4 ^ v[t - 1],
            z_prev.z2 ^ z_next.z4,
        ))
    z_prev = z[4]
    for t in range(5, 8):
        row = SCHEDULE_ROWS[t]
        g = consts.g0[row.g_index]
        z_next, w1, w2 = _sigma_inv_step(z_prev, g, consts)
        vt = v[4] if t == 5 else f_sigma(z_prev.z1 ^ z_next.z3, consts)
        keys.append(RoundKey256(
            z_next.z1 ^ z_prev.z3,
            w1 ^ vt,
            w2 ^ vt,
            z_prev.z1 ^ w2,
        ))
        z_prev = z_next
    return tuple(keys)


def key_schedule(key: bytes, mode: str = "full_precompute",
                 consts: Hc3Constants | None = None) -> Hc3KeySchedule:
    """Build K(1)..K(7) from a 16-byte key.

    mode picks what is retained, mirroring the three hardware setups:
    ``on_the_fly_ready`` keeps keys only (the datapath regenerates them
    per block), ``full_precompute`` likewise keeps the key set, and
    ``cached_1600`` additionally stores the 1600-bit intermediate
    cache and derives the keys from it.
    """
    consts = consts or get_constants()
    if mode not in MODES:
        raise ValueError(f"unknown key schedule mode {mode!r}; pick one of {MODES}")

    z0 = pad_and_prewhiten(key, consts)
    z_states = [z0]
    v_words = []
    keys = []
    for st in iter_schedule(z0, consts):
        keys.append(st.round_key)
        if st.step <= 4:
            z_states.append(st.z_next)
        if st.step <= 5:
            v_words.append(st.v)

    cache = None
    if mode == "cached_1600":
        cache = Cache1600(tuple(z_states), tuple(v_words))
        keys = list(_keys_from_cache(cache, consts))

    return Hc3KeySchedule(round_keys=tuple(keys), mode=mode, consts=consts,
                          intermediate_cache=cache)


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
    """_sigma_step on planes: the next state, as a tuple of four words."""
    z1, z2, z3, z4 = z
    w = _lane_layer(consts.p32_rows, z3 + z4, 4)
    z3 = xor(_lane_layer(consts.m5e_rows, w[:8], 1), g)
    z4 = _lane_layer(consts.m5e_rows, w[8:], 1)
    return z2, xor(z1, _f_sigma_planes(xor(z2, z3), n, consts)), z3, z4


def _sigma_inv_planes(z, g, n: int, consts: Hc3Constants):
    """_sigma_inv_step on planes: the previous state and its W words."""
    z1, z2, z3, z4 = z
    w1 = _lane_layer(consts.mb3_rows, xor(z3, g), 1)
    w2 = _lane_layer(consts.mb3_rows, z4, 1)
    w = _lane_layer(consts.p32_inv_rows, w1 + w2, 4)
    return (xor(z2, _f_sigma_planes(xor(z1, z3), n, consts)), z1, w[:8], w[8:]), w1, w2


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

    z = _sigma_planes((k[:8], k[8:], word(consts.pad_h3), word(consts.pad_h2)),
                      word(consts.g0[SCHEDULE_ROWS[0].g_index]), n, consts)
    keys_out = []
    for row in SCHEDULE_ROWS[1:]:
        g = word(consts.g0[row.g_index])
        if row.op == "sigma":
            nxt = _sigma_planes(z, g, n, consts)
            v = _f_sigma_planes(xor(z[1], z[2]), n, consts)
            key = (xor(z[0], v), xor(nxt[2], v), xor(nxt[3], v), xor(z[1], nxt[3]))
        else:
            nxt, w1, w2 = _sigma_inv_planes(z, g, n, consts)
            v = _f_sigma_planes(xor(z[0], nxt[2]), n, consts)
            key = (xor(nxt[0], z[2]), xor(w1, v), xor(w2, v), xor(z[0], w2))
        keys_out.append(tuple(key[0] + key[1] + key[2] + key[3]))
        z = nxt
    return Hc3SlicedSchedule(n, tuple(keys_out), consts)
