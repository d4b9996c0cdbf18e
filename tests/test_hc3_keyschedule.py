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
    encrypt_blocks,
    key_schedule,
    pad_and_prewhiten,
    pad_key,
    round_keys_bwd,
    round_keys_fwd,
    m5e,
    mb3,
    p32_pair,
    sigma,
    sigma_inv,
    walk_schedule,
)
from hc3cam.hc3 import keyschedule

C = get_constants()


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


def test_round_keys_fwd_zero_propagation():
    # all-zero states collapse every lane to a function of s = F_sigma(0)
    zero = IntermediateKey(0, 0, 0, 0)
    s = f_sigma(0, C)
    key, v = round_keys_fwd(zero, zero, C)
    assert v == s
    assert key == RoundKey256(s, s, s, 0)


def test_round_keys_bwd_zero_propagation():
    zero = IntermediateKey(0, 0, 0, 0)
    s = f_sigma(0, C)
    key, v = round_keys_bwd(zero, zero, 0, 0, C)
    assert v == s
    assert key == RoundKey256(0, s, s, 0)


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


def test_schedules_compare_on_key_material_only():
    # two constant objects with equal content: the schedules are equal and
    # hash alike, but each keeps its own constants and batch tables
    text = (Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data"
            / "hc3.ctab").read_text()
    c1, c2 = (Hc3Constants(ctab.parse(text)) for _ in range(2))
    key = bytes(range(16))
    for mode in MODES:
        a, b = key_schedule(key, mode, c1), key_schedule(key, mode, c2)
        assert a.consts is c1 and b.consts is c2
        assert a == b and hash(a) == hash(b)
        assert a.batch_tables is not b.batch_tables
        encrypt_blocks(bytes(32), a)
        assert a.batch_tables and not b.batch_tables
        assert a == b and hash(a) == hash(b)
    assert key_schedule(key, "full_precompute", c1) != key_schedule(key, "cached_1600", c1)
    assert key_schedule(key, "full_precompute", c1) != key_schedule(bytes(16), "full_precompute", c1)


# --- fused sigma / sigma-inverse maps ----------------------------------------
#
# _sigma_step and _sigma_inv_step run P(32) and M_5E (M_B3 and P(32)^-1) as
# one fused 16-byte map; the single-layer composition they replaced is the
# oracle here.

def composed_sigma_step(z, g, consts):
    w1, w2 = p32_pair(z.z3, z.z4, consts)
    z3 = m5e(w1, consts) ^ g
    z4 = m5e(w2, consts)
    f_out = f_sigma(z.z2 ^ z3, consts)
    return IntermediateKey(z.z2, z.z1 ^ f_out, z3, z4), f_out


def composed_sigma_inv_step(z, g, consts):
    z1 = z.z2 ^ f_sigma(z.z1 ^ z.z3, consts)
    w1 = mb3(z.z3 ^ g, consts)
    w2 = mb3(z.z4, consts)
    z3, z4 = p32_pair(w1, w2, consts, inverse=True)
    return IntermediateKey(z1, z.z1, z3, z4), w1, w2


def permuted_p32_constants():
    """The packaged set with P(32) a 3-cycle of lanes: unlike the packaged
    P(32), not its own inverse."""
    tab = C.source
    sections = [(name, bytes((0x02, 0x04, 0x01, 0x08)) if name == "p32" else data)
                for name, data in tab.sections.items()]
    return Hc3Constants(ctab.parse(ctab.write("hc3", sections)))


@pytest.mark.parametrize("packaged", [True, False], ids=["packaged", "p32-not-involution"])
@pytest.mark.parametrize("g_index", range(6))
def test_fused_sigma_steps_match_layer_composition(g_index, packaged):
    consts = C if packaged else permuted_p32_constants()
    assert packaged == (consts.p32_inv_rows == consts.p32_rows)
    g = consts.g0[g_index]
    rng = random.Random(f"fused-sigma-{g_index}")
    for _ in range(2000 if packaged else 200):
        z = rand_state(rng)
        assert keyschedule._sigma_step(z, g, consts) == composed_sigma_step(z, g, consts)
        # W1 and W2 as well as the state
        assert (keyschedule._sigma_inv_step(z, g, consts)
                == composed_sigma_inv_step(z, g, consts))
