"""Random constant sets through every engine of both ciphers.

hc3.ctab is a reconstruction, so no engine may rely on a property of its
particular tables.  Each set here is drawn from a seed.  An HC3 set has
a random s-box permutation, random G0 and padding words, random
invertible P(32), P(16) and MDS-higher rows, and a random invertible
M_5E with M_B3 its inverse; the same set with a bit set above the four
lanes of a P(32) or P(16) row must be refused.  A Camellia set has a
random s1 with s2-s4 derived from it by the published rules, and a
random invertible P.  Each set is written with ctab.write and loaded as
an override, and every engine must agree with every other under it; the
simulated devices run their blocks and cycles as on the packaged sets.
"""

import random
from pathlib import Path

import pytest

from hc3cam import archsim, camellia, cli, ctab, gf2, hc3
from hc3cam.camellia import constants as cam_constants
from hc3cam.hc3 import constants as hc3_constants
from test_hc3_keyschedule import reference_walk
from test_sliced import camellia_subkeys_at, hc3_round_keys_at

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


def stray_hc3_sections(seed):
    """The HC3 set of one seed with a random bit 4-7, which selects no
    lane, set in one row of p32 or p16; and that section's name."""
    rng = random.Random(f"hc3-stray-{seed}")
    section = rng.choice(["p32", "p16"])
    sections = random_hc3_sections(seed)
    rows = bytearray(dict(sections)[section])
    rows[rng.randrange(4)] |= 1 << rng.randrange(4, 8)
    return [(n, bytes(rows) if n == section else p) for n, p in sections], section


def rotl8(x, n):
    return (x << n | x >> (8 - n)) & 0xFF


def random_camellia_sections(seed):
    rng = random.Random(f"camellia-constants-{seed}")
    s1 = rng.sample(range(256), 256)
    return [
        ("s1", bytes(s1)),
        ("s2", bytes(rotl8(v, 1) for v in s1)),
        ("s3", bytes(rotl8(v, 7) for v in s1)),
        ("s4", bytes(s1[rotl8(x, 1)] for x in range(256))),
        ("p", bytes(random_invertible(rng, 8))),
    ]


def use_random_sets(tmp_path, monkeypatch, seed, names=("hc3", "camellia")):
    """Write the named sets of one seed and point the constants-directory
    override at them."""
    for name in names:
        sections = {"hc3": random_hc3_sections, "camellia": random_camellia_sections}[name]
        (tmp_path / f"{name}.ctab").write_text(ctab.write(name, sections(seed)))
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))


@pytest.mark.parametrize("seed", SEEDS)
def test_sets_with_stray_row_bits_refused(seed, tmp_path, monkeypatch, capsys):
    sections, section = stray_hc3_sections(seed)
    (tmp_path / "hc3.ctab").write_text(ctab.write("hc3", sections))
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))
    with pytest.raises(ctab.ConstantsError, match=rf"\[{section}\]: not a 4 x 4 bit matrix"):
        hc3_constants.load_constants()
    assert cli.main(["bench", "--cipher", "hc3", "--blocks", "1"]) == 2
    assert f"[{section}]" in capsys.readouterr().err


@pytest.fixture(params=SEEDS, ids=lambda seed: f"seed{seed}")
def random_set(request, tmp_path, monkeypatch):
    """Load the HC3 set of one seed through the constants-directory override."""
    use_random_sets(tmp_path, monkeypatch, request.param, ["hc3"])
    consts = hc3_constants.load_constants()
    assert consts is hc3.get_constants()
    return request.param, consts


@pytest.fixture(params=SEEDS, ids=lambda seed: f"seed{seed}")
def random_camellia_set(request, tmp_path, monkeypatch):
    """Load the Camellia set of one seed through the constants-directory override."""
    use_random_sets(tmp_path, monkeypatch, request.param, ["camellia"])
    consts = cam_constants.load_constants()
    assert consts is camellia.get_constants()
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


def test_camellia_sets_differ_from_the_packaged_one(random_camellia_set):
    _, consts = random_camellia_set
    packaged = cam_constants.load_constants(DATA / "camellia.ctab")
    for name in ("s1", "s2", "s3", "s4", "p_rows"):
        assert getattr(consts, name) != getattr(packaged, name), name


@pytest.mark.parametrize("n", [0, 1, 5])
def test_camellia_engines_agree(random_camellia_set, n):
    seed, consts = random_camellia_set
    rng = random.Random(f"camellia-engines-{seed}-{n}")
    keys, data = rng.randbytes(16 * n), rng.randbytes(16 * n)
    blocks = [data[off:off + 16] for off in range(0, len(data), 16)]
    schedules = [camellia.key_schedule(keys[off:off + 16]) for off in range(0, len(keys), 16)]
    assert all(sk.consts is consts for sk in schedules)

    # the key-sliced schedule and engine, one key per block
    sliced = camellia.key_schedule_sliced(keys)
    assert sliced.consts is consts
    for i, sk in enumerate(schedules):
        assert camellia_subkeys_at(sliced, i) == (sk.kw, sk.k, sk.kl)
    ct = b"".join(camellia.encrypt(b, sk) for b, sk in zip(blocks, schedules))
    assert camellia.encrypt_sliced(data, sliced) == ct
    assert camellia.decrypt_sliced(ct, sliced) == data
    assert b"".join(camellia.decrypt(b, sk) for b, sk in zip(blocks, schedules)) \
        == camellia.decrypt_sliced(data, sliced)

    # the single-key plane engine and camellia-lu3, n blocks under one key
    key = rng.randbytes(16)
    sk = camellia.key_schedule(key)
    ct = b"".join(camellia.encrypt(b, sk) for b in blocks)
    assert camellia.encrypt_blocks(data, sk) == ct
    assert camellia.decrypt_blocks(ct, sk) == data
    assert camellia.decrypt_blocks(data, sk) == b"".join(camellia.decrypt(b, sk) for b in blocks)
    profile = archsim.PROFILES["camellia-lu3"]
    assert b"".join(archsim.run_block(profile, key, b, consts).ciphertext
                    for b in blocks) == ct


# what simulate --blocks 3 reports of each device: the cycle counts do not
# depend on the constant set
DEVICE_LINES = {
    "hc3-short": (4, 8, 31), "hc3-long": (8, 8, 35), "hc3-verylong": (18, 7, 42),
    "hc3-extensive": (18, 7, 42), "camellia-lu3": (2, 6, 23),
}


@pytest.mark.parametrize("variant", sorted(DEVICE_LINES))
def test_devices_match_the_batch_engine(variant, tmp_path, monkeypatch, capsys):
    use_random_sets(tmp_path, monkeypatch, 0)
    assert hc3.get_constants() is hc3_constants.load_constants(tmp_path / "hc3.ctab")
    assert camellia.get_constants() is cam_constants.load_constants(tmp_path / "camellia.ctab")
    assert cli.main(["simulate", "--variant", variant, "--blocks", "3"]) == 0
    setup, work, ticks = DEVICE_LINES[variant]
    lines = capsys.readouterr().out.splitlines()
    for line in (f"setup cycles: {setup}", f"work cycles per block: {work}",
                 "blocks simulated: 3 (ciphertext vs functional model: OK)",
                 f"device ticks: {ticks} total, {setup} setup"):
        assert line in lines
