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

hc3cam.hc3.sliced runs the same schedule for a batch of keys at once on
byte planes, one key per slice.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple

from .constants import Hc3Constants, get_constants
from .steps import SCHEDULE_ROWS, T_TURN

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


def key_halves(rk) -> tuple[int, int]:
    """(K1 K2, K3 K4) of a round key's four words as two 128-bit ints: the
    halves XS adds before and after MDS-lower."""
    k1, k2, k3, k4 = rk
    return k1 << 64 | k2, k3 << 64 | k4


MODES = ("full_precompute", "cached_1600")


class Cache1600(NamedTuple):
    """The precomputed material of the long-setup datapaths: the five
    intermediate states reached after steps 0..4 plus the five F-sigma
    words entering K(1)..K(5), 5 * 256 + 5 * 64 = 1600 bits."""

    z_states: tuple[IntermediateKey, ...]
    f_outputs: tuple[int, ...]


class Hc3KeySchedule(NamedTuple):
    """The round keys of one main key, the constant set they were derived
    with (the cipher uses it for every block, so a set loaded later can
    never be paired with these keys), and the 1600-bit cache of a
    cached_1600 schedule.  Both constants classes compare by identity, so
    two schedules are equal only under one constant set."""

    round_keys: tuple[RoundKey256, ...]
    consts: Hc3Constants
    intermediate_cache: Cache1600 | None = None


# The step and round-key functions take the 256-bit state as any tuple
# (z1, z2, z3, z4) and return plain tuples, so a per-block walk builds no
# NamedTuple; sigma, sigma_inv, pad_and_prewhiten and key_schedule wrap
# theirs in IntermediateKey and RoundKey256.

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


def walk_schedule(z0, consts: Hc3Constants) -> Iterator[tuple[tuple[int, ...], int, tuple]]:
    """Walk steps 1..7 from Z(0) on plain tuples, yielding each step's
    (round key words, V, next state) as it forms.

    This is the on-the-fly order the short-setup datapath executes in
    parallel with the rounds.  It runs for every block of that datapath,
    so each step is written out in this one frame: a sigma step is
    _sigma_step then round_keys_fwd, a sigma-inverse step _sigma_inv_step
    then round_keys_bwd.
    """
    sigma_map, sigma_inv_map, f = consts.sigma_map, consts.sigma_inv_map, consts.f_sigma_map
    g0 = consts.g0
    z1, z2, z3, z4 = z0
    for step, _, g_index in SCHEDULE_ROWS[1:]:
        g = g0[g_index]
        if step <= T_TURN:
            # y: the new z3, before G is added, || the new z4
            y = sigma_map((z3 << 64 | z4).to_bytes(16, "big"))
            n3, n4 = y >> 64 ^ g, y & MASK64
            v = f((z2 ^ z3).to_bytes(8, "big"))
            key = z1 ^ v, n3 ^ v, n4 ^ v, z2 ^ n4
            z1, z2, z3, z4 = z2, z1 ^ f((z2 ^ n3).to_bytes(8, "big")), n3, n4
        else:
            # y: W1 || W2 || the new z3 || the new z4
            y = sigma_inv_map(((z3 ^ g) << 64 | z4).to_bytes(16, "big"))
            n1, n3, w2 = z2 ^ f((z1 ^ z3).to_bytes(8, "big")), y >> 64 & MASK64, y >> 128 & MASK64
            v = f((z1 ^ n3).to_bytes(8, "big"))
            key = n1 ^ z3, y >> 192 ^ v, w2 ^ v, z1 ^ w2
            z1, z2, z3, z4 = n1, z1, n3, y & MASK64
        yield key, v, (z1, z2, z3, z4)


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
        return Hc3KeySchedule(tuple(RoundKey256(*k) for k, _, _ in walk), consts)
    steps = list(islice(walk, T_TURN + 1))
    cache = Cache1600((z0, *(IntermediateKey(*z) for _, _, z in steps[:T_TURN])),
                      tuple(v for _, v, _ in steps))
    return Hc3KeySchedule(_keys_from_cache(cache, consts), consts, cache)
