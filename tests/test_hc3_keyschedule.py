import random
from pathlib import Path

import pytest

from hc3cam import ctab
from hc3cam.hc3 import (
    MODES,
    Hc3Constants,
    SCHEDULE_ROWS,
    Cache1600,
    IntermediateKey,
    RoundKey256,
    f_sigma,
    get_constants,
    key_schedule,
    mb3,
    pad_and_prewhiten,
    pad_key,
    sigma,
    sigma_inv,
    walk_schedule,
)

C = get_constants()
MASK64 = (1 << 64) - 1


def rand_state(rng):
    return IntermediateKey(*(rng.getrandbits(64) for _ in range(4)))


def test_sigma_deterministic_and_lane_swap():
    rng = random.Random(21)
    for _ in range(500):
        z, g = rand_state(rng), rng.getrandbits(64)
        out = sigma(z, g, C)
        assert out == sigma(z, g, C)
        assert out.z1 == z.z2  # the swap lane copies straight through


def test_sigma_inv_lane_swap():
    rng = random.Random(22)
    for _ in range(500):
        z, g = rand_state(rng), rng.getrandbits(64)
        out = sigma_inv(z, g, C)
        assert out.z2 == z.z1


def test_sigma_inv_restores_z1_z2():
    rng = random.Random(23)
    for _ in range(1000):
        z, g = rand_state(rng), rng.getrandbits(64)
        back = sigma_inv(sigma(z, g, C), g, C)
        assert back.z1 == z.z1
        assert back.z2 == z.z2


def test_sigma_inv_steps_retrace_forward_states():
    # steps 5-7 replay G0(3..1) backwards, so sigma-inverse walks back
    # through the states the forward steps 3, 2 and 1 reached
    rng = random.Random(25)
    for _ in range(200):
        z0 = pad_and_prewhiten(rng.randbytes(16), C)
        z = {0: z0}
        for row, (_, _, z_next) in zip(SCHEDULE_ROWS[1:], walk_schedule(z0, C)):
            z[row.step] = z_next
        assert (z[5], z[6], z[7]) == (z[3], z[2], z[1])


# --- the layer-composed reference walk ----------------------------------------
#
# hc3.sigma and hc3.sigma_inv compose P(32), M_5E, M_B3 and F-sigma layer by
# layer (hc3cam.hc3.linear); the key walk runs them as fused lane maps.  The
# round-key formulas below are the specification's, written out here.

def forward_key(z, n, consts):
    """Round key and F-sigma word V of the sigma step from z to n."""
    v = f_sigma(z.z2 ^ z.z3, consts)
    return RoundKey256(z.z1 ^ v, n.z3 ^ v, n.z4 ^ v, z.z2 ^ n.z4), v


def backward_key(z, n, g, consts):
    """Round key and V of the sigma-inverse step from z to n under G = g:
    its W words are M_B3 of z3 ^ G and of z4."""
    w1, w2 = mb3(z.z3 ^ g, consts), mb3(z.z4, consts)
    v = f_sigma(z.z1 ^ n.z3, consts)
    return RoundKey256(n.z1 ^ z.z3, w1 ^ v, w2 ^ v, z.z1 ^ w2), v


def reference_walk(z0, consts):
    """Steps 1..7 from Z(0), each as (round key, V, next state)."""
    z = IntermediateKey(*z0)
    for row in SCHEDULE_ROWS[1:]:
        g = consts.g0[row.g_index]
        if row.op == "sigma":
            n = sigma(z, g, consts)
            key, v = forward_key(z, n, consts)
        else:
            n = sigma_inv(z, g, consts)
            key, v = backward_key(z, n, g, consts)
        yield key, v, n
        z = n


def permuted_p32_constants():
    """The packaged set with P(32) a 3-cycle of lanes: unlike the packaged
    P(32), not its own inverse."""
    tab = C.source
    sections = [(name, bytes((0x02, 0x04, 0x01, 0x08)) if name == "p32" else data)
                for name, data in tab.sections.items()]
    return Hc3Constants(ctab.parse(ctab.write("hc3", sections)))


def test_walk_matches_the_step_functions():
    # walk_schedule runs every step in one frame on the fused maps: each
    # step's key, V and next state are those of the layer-composed walk,
    # on any state
    for consts, cases in ((C, 300), (permuted_p32_constants(), 100)):
        rng = random.Random(26)
        for _ in range(cases):
            z0 = rand_state(rng)
            assert (list(walk_schedule(z0, consts))
                    == list(reference_walk(z0, consts)))


def test_round_keys_fwd_zero_propagation():
    # all-zero states collapse every lane to a function of s = F_sigma(0)
    zero = IntermediateKey(0, 0, 0, 0)
    s = f_sigma(0, C)
    key, v = forward_key(zero, zero, C)
    assert v == s
    assert key == RoundKey256(s, s, s, 0)


def test_round_keys_bwd_zero_propagation():
    # with G = 0 the W words of an all-zero state are zero too
    zero = IntermediateKey(0, 0, 0, 0)
    s = f_sigma(0, C)
    key, v = backward_key(zero, zero, 0, C)
    assert v == s
    assert key == RoundKey256(0, s, s, 0)


@pytest.mark.parametrize("packaged", [True, False], ids=["packaged", "p32-not-involution"])
def test_prewhitening_is_sigma0_of_the_padded_key(packaged):
    consts = C if packaged else permuted_p32_constants()
    rng = random.Random(27)
    for _ in range(100):
        key = rng.randbytes(16)
        assert (pad_and_prewhiten(key, consts)
                == sigma(pad_key(key, consts), consts.g0[SCHEDULE_ROWS[0].g_index], consts))


@pytest.mark.parametrize("packaged", [True, False], ids=["packaged", "p32-not-involution"])
def test_cache_holds_the_reference_walks_states_and_words(packaged):
    # Cache1600: Z(0)..Z(4) and the V words of steps 1..5
    consts = C if packaged else permuted_p32_constants()
    rng = random.Random(28)
    for _ in range(50):
        key = rng.randbytes(16)
        cache = key_schedule(key, "cached_1600", consts).intermediate_cache
        z0 = pad_and_prewhiten(key, consts)
        steps = list(reference_walk(z0, consts))[:5]
        assert cache.z_states == (z0, *(z for _, _, z in steps[:4]))
        assert cache.f_outputs == tuple(v for _, v, _ in steps)


def test_pad_layout():
    key = bytes(range(16))
    z = pad_key(key, C)
    assert z.z1 == int.from_bytes(key[:8], "big")
    assert z.z2 == int.from_bytes(key[8:], "big")
    assert (z.z3, z.z4) == (C.pad_h3, C.pad_h2)


def test_pad_rejects_wrong_length():
    with pytest.raises(ValueError, match="16 bytes"):
        pad_key(b"short", C)
    with pytest.raises(ValueError, match="16 bytes"):
        key_schedule(bytes(17))


def test_key_schedule_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown key schedule mode"):
        key_schedule(bytes(16), mode="lazy")


def test_schedule_table_rows():
    ops = [(r.op, r.g_index) for r in SCHEDULE_ROWS]
    assert ops == [("sigma0", 5), ("sigma", 0), ("sigma", 1), ("sigma", 2),
                   ("sigma", 3), ("sigma_inv", 3), ("sigma_inv", 2),
                   ("sigma_inv", 1)]
    assert [r.step for r in SCHEDULE_ROWS] == list(range(8))


def test_seven_round_keys():
    ks = key_schedule(bytes(16))
    assert len(ks.round_keys) == 7
    assert all(isinstance(k, RoundKey256) for k in ks.round_keys)


def test_modes_agree_on_round_keys():
    rng = random.Random(24)
    for _ in range(300):
        key = rng.randbytes(16)
        builds = [key_schedule(key, mode, C) for mode in MODES]
        assert builds[0].round_keys == builds[1].round_keys


def test_both_modes_walk_the_schedule_once():
    # per key: sigma0 takes one sigma_map and one F-sigma lookup, then the
    # walk four sigma and three sigma-inverse maps, two F-sigma lookups a
    # step; cached_1600 keeps its cache from that walk
    consts = Hc3Constants(C.source)
    calls = dict.fromkeys(("sigma_map", "sigma_inv_map", "f_sigma_map"), 0)

    def counting(name, fn):
        def counted(data):
            calls[name] += 1
            return fn(data)
        return counted
    for name in calls:
        setattr(consts, name, counting(name, getattr(consts, name)))
    rng, n = random.Random("walk-counts"), 3
    for mode in MODES:
        calls.update(dict.fromkeys(calls, 0))
        for _ in range(n):
            key = rng.randbytes(16)
            assert key_schedule(key, mode, consts).round_keys == key_schedule(key, mode, C).round_keys
        assert calls == {"sigma_map": 5 * n, "sigma_inv_map": 3 * n, "f_sigma_map": 15 * n}, mode


def test_cache_shape_and_bit_count():
    ks = key_schedule(bytes(16), "cached_1600", C)
    cache = ks.intermediate_cache
    assert isinstance(cache, Cache1600)
    assert len(cache.z_states) == 5
    assert len(cache.f_outputs) == 5
    assert 256 * len(cache.z_states) + 64 * len(cache.f_outputs) == 1600
    # the first cached state is the pre-whitened Z(0)
    assert cache.z_states[0] == pad_and_prewhiten(bytes(16), C)


def test_other_modes_carry_no_cache():
    assert key_schedule(bytes(16), "full_precompute", C).intermediate_cache is None


def test_schedule_is_pure():
    key = bytes(range(16))
    a = key_schedule(key, "full_precompute", C)
    b = key_schedule(key, "full_precompute", C)
    assert a.round_keys == b.round_keys


def test_schedules_are_values_of_one_constant_set():
    # a schedule is its fields, and a constant set compares by identity:
    # two sets of equal content give equal round keys but unequal schedules
    text = (Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data"
            / "hc3.ctab").read_text()
    c1, c2 = (Hc3Constants(ctab.parse(text)) for _ in range(2))
    key = bytes(range(16))
    for mode in MODES:
        a, b = key_schedule(key, mode, c1), key_schedule(key, mode, c2)
        assert a == key_schedule(key, mode, c1) and hash(a) == hash(key_schedule(key, mode, c1))
        assert a.consts is c1 and b.consts is c2
        assert a.round_keys == b.round_keys and a != b
        assert b._replace(consts=c1) == a
    assert key_schedule(key, "full_precompute", c1) != key_schedule(key, "cached_1600", c1)
    assert key_schedule(key, "full_precompute", c1) != key_schedule(bytes(16), "full_precompute", c1)


# --- fused sigma / sigma-inverse maps ----------------------------------------
#
# The key walk runs P(32) and M_5E (M_B3 and P(32)^-1) as one fused 16-byte
# map each; the layer composition of hc3.sigma and hc3.sigma_inv is the
# oracle here.

@pytest.mark.parametrize("packaged", [True, False], ids=["packaged", "p32-not-involution"])
@pytest.mark.parametrize("g_index", range(6))
def test_fused_sigma_steps_match_layer_composition(g_index, packaged):
    consts = C if packaged else permuted_p32_constants()
    assert packaged == (consts.p32_inv_rows == consts.p32_rows)
    g = consts.g0[g_index]
    rng = random.Random(f"fused-sigma-{g_index}")
    for _ in range(2000 if packaged else 200):
        z = rand_state(rng)
        # sigma_map: the new z3, before G is added, || the new z4
        y = consts.sigma_map((z.z3 << 64 | z.z4).to_bytes(16, "big"))
        assert (y >> 64 ^ g, y & MASK64) == sigma(z, g, consts)[2:]
        # sigma_inv_map: W1 || W2 || the new z3 || the new z4
        y = consts.sigma_inv_map(((z.z3 ^ g) << 64 | z.z4).to_bytes(16, "big"))
        assert (y >> 192, y >> 128 & MASK64) == (mb3(z.z3 ^ g, consts), mb3(z.z4, consts))
        assert (y >> 64 & MASK64, y & MASK64) == sigma_inv(z, g, consts)[2:]
