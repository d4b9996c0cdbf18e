"""Random HIEROCRYPT-3 constant sets through every HC3 engine.

hc3.ctab is a reconstruction, so no engine may rely on a property of its
particular tables.  Each set here is drawn from a seed: a random s-box
permutation, random G0 and padding words, random invertible P(32), P(16)
and MDS-higher rows, and a random invertible M_5E with M_B3 its inverse.
It is written with ctab.write and loaded as an override, and every
engine must agree with every other under it.
"""

import random
from pathlib import Path

import pytest

from hc3cam import archsim, ctab, gf2, hc3
from hc3cam.hc3 import constants as hc3_constants
from test_hc3_keyschedule import reference_walk
from test_sliced import hc3_round_keys_at

DATA = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data"
SEEDS = range(4)
HC3_PROFILES = [name for name, p in sorted(archsim.PROFILES.items()) if p.cipher == "hc3"]


def random_invertible(rng, n):
    """n random rows of n bits that gf2.invert accepts."""
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        try:
            gf2.invert(rows)
        except ValueError:
            continue
        return rows


def random_hc3_sections(seed):
    rng = random.Random(f"hc3-constants-{seed}")
    m5e = random_invertible(rng, 8)
    return [
        ("sbox", bytes(rng.sample(range(256), 256))),
        ("sbox_note", b"\x01"),
        ("g0", rng.randbytes(48)),
        ("pad", rng.randbytes(16)),
        ("p32", bytes(random_invertible(rng, 4))),
        ("p16", bytes(random_invertible(rng, 4))),
        ("m5e", bytes(m5e)),
        ("mb3", bytes(gf2.invert(m5e))),
        ("mds_h", b"".join(row.to_bytes(2, "big") for row in random_invertible(rng, 16))),
    ]


@pytest.fixture(params=SEEDS, ids=lambda seed: f"seed{seed}")
def random_set(request, tmp_path, monkeypatch):
    """Load the set of one seed through the constants-directory override."""
    (tmp_path / "hc3.ctab").write_text(ctab.write("hc3", random_hc3_sections(request.param)))
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))
    consts = hc3_constants.load_constants()
    assert consts is hc3.get_constants()
    return request.param, consts


def test_sets_differ_from_the_packaged_one(random_set):
    # every table differs, and no linear layer is its own inverse, so each
    # inverse layer runs on tables of its own
    _, consts = random_set
    packaged = hc3_constants.load_constants(DATA / "hc3.ctab")
    for name in ("sbox", "g0", "pad_h3", "pad_h2", "p32_rows", "p16_rows", "m5e_rows",
                 "mb3_rows", "mds_h_rows"):
        assert getattr(consts, name) != getattr(packaged, name), name
    for rows in ("p32", "p16", "mds_h"):
        assert getattr(consts, f"{rows}_inv_rows") != getattr(consts, f"{rows}_rows"), rows


def test_key_walks_agree(random_set):
    seed, consts = random_set
    rng = random.Random(f"walks-{seed}")
    for _ in range(8):
        key = rng.randbytes(16)
        z0 = hc3.pad_and_prewhiten(key, consts)
        assert z0 == hc3.sigma(hc3.pad_key(key, consts), consts.g0[5], consts)
        ref = list(reference_walk(z0, consts))
        assert list(hc3.walk_schedule(z0, consts)) == ref
        direct = tuple(k for k, _, _ in ref)
        for mode in hc3.MODES:
            assert hc3.key_schedule(key, mode).round_keys == direct
        cache = hc3.key_schedule(key, "cached_1600").intermediate_cache
        assert cache.z_states == (z0, *(z for _, _, z in ref[:4]))
        assert cache.f_outputs == tuple(v for _, v, _ in ref[:5])


@pytest.mark.parametrize("n", [0, 1, 5])
def test_engines_agree(random_set, n):
    seed, consts = random_set
    rng = random.Random(f"engines-{seed}-{n}")
    keys, data = rng.randbytes(16 * n), rng.randbytes(16 * n)
    blocks = [data[off:off + 16] for off in range(0, len(data), 16)]
    schedules = [hc3.key_schedule(keys[off:off + 16]) for off in range(0, len(keys), 16)]
    assert all(ks.consts is consts for ks in schedules)

    # the key-sliced engine, one key per block
    sliced = hc3.key_schedule_sliced(keys)
    assert sliced.consts is consts
    for i, ks in enumerate(schedules):
        assert hc3_round_keys_at(sliced, i) == ks.round_keys
    ct = b"".join(hc3.encrypt(b, ks) for b, ks in zip(blocks, schedules))
    assert hc3.encrypt_sliced(data, sliced) == ct
    assert hc3.decrypt_sliced(ct, sliced) == data
    assert b"".join(hc3.decrypt(b, ks) for b, ks in zip(blocks, schedules)) \
        == hc3.decrypt_sliced(data, sliced)

    # the single-key plane engine, n blocks under one key
    ks = hc3.key_schedule(rng.randbytes(16))
    ct = b"".join(hc3.encrypt(b, ks) for b in blocks)
    assert hc3.encrypt_blocks(data, ks) == ct
    assert hc3.decrypt_blocks(ct, ks) == data
    assert hc3.decrypt_blocks(data, ks) == b"".join(hc3.decrypt(b, ks) for b in blocks)


@pytest.mark.parametrize("variant", HC3_PROFILES)
def test_datapaths_agree(random_set, variant):
    seed, consts = random_set
    rng = random.Random(f"datapath-{seed}-{variant}")
    for _ in range(3):
        key, block = rng.randbytes(16), rng.randbytes(16)
        want = hc3.encrypt(block, hc3.key_schedule(key))
        assert archsim.run_block(archsim.PROFILES[variant], key, block, consts).ciphertext == want
