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
of forward step 9 - t: the key-sliced schedule reads them from its
forward walk; walk_schedule computes every step.

hc3cam.hc3.sliced runs the same schedule for a batch of keys at once on
byte planes, one key per slice.
"""

from __future__ import annotations

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


# The key walk takes the 256-bit state as any tuple (z1, z2, z3, z4) and
# yields plain tuples, so a per-block walk builds no NamedTuple;
# pad_and_prewhiten and key_schedule wrap theirs in IntermediateKey and
# RoundKey256.  hc3cam.hc3.linear holds the layer-by-layer sigma and
# sigma_inv the fused steps here are checked against.

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
    z1, z2, z3, z4 = pad_key(key, consts)
    # P(32) of z3 || z4 and M_5E of both halves are one fused 16-byte map
    y = consts.sigma_map((z3 << 64 | z4).to_bytes(16, "big"))
    z3 = y >> 64 ^ consts.g0[5]
    return IntermediateKey(z2, z1 ^ consts.f_sigma_map((z2 ^ z3).to_bytes(8, "big")),
                           z3, y & MASK64)


def walk_schedule(z0, consts: Hc3Constants) -> Iterator[tuple[tuple[int, ...], int, tuple]]:
    """Walk steps 1..7 from Z(0) on plain tuples, yielding each step's
    (round key words, V, next state) as it forms.

    This is the on-the-fly order the short-setup datapath executes in
    parallel with the rounds.  It runs for every block of that datapath,
    so each step is written out in this one frame: a sigma step is one
    sigma_map (P(32) then M_5E) and two F-sigma lookups, a sigma-inverse
    step one sigma_inv_map (M_B3 then P(32)^-1, with the W words) and two
    F-sigma lookups.  The tests hold it to a walk composed layer by layer
    from linear.sigma and linear.sigma_inv.
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


def key_schedule(key: bytes, mode: str = "full_precompute",
                 consts: Hc3Constants | None = None) -> Hc3KeySchedule:
    """Build K(1)..K(7) from a 16-byte key.

    Both modes take the keys from one walk of all seven steps.  mode
    picks what else is retained: ``cached_1600`` also keeps the 1600-bit
    intermediate cache of the long-setup datapaths, Z(0)..Z(4) and
    V(1)..V(5) from that walk's first five steps; ``full_precompute``
    keeps the key set only.
    """
    consts = consts or get_constants()
    if mode not in MODES:
        raise ValueError(f"unknown key schedule mode {mode!r}; pick one of {MODES}")

    z0 = pad_and_prewhiten(key, consts)
    steps = list(walk_schedule(z0, consts))
    cache = None
    if mode == "cached_1600":
        cache = Cache1600((z0, *(IntermediateKey(*z) for _, _, z in steps[:T_TURN])),
                          tuple(v for _, v, _ in steps[:T_TURN + 1]))
    return Hc3KeySchedule(tuple(RoundKey256(*k) for k, _, _ in steps), consts, cache)
