import random
from pathlib import Path

import pytest

from hc3cam import gf256
from hc3cam.hc3 import (
    RoundKey256,
    decrypt,
    encrypt,
    get_constants,
    key_schedule,
    mds_h,
    mds_h_inv,
    merged_xs,
    rho,
    rho_inv,
    xs,
    xs_inv,
)
from hc3cam.hc3 import cipher as hc3_cipher
from hc3cam.hc3 import constants as hc3_constants
from test_constants_override import use_non_involution_override

C = get_constants()
KAT_PATH = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data" / "kat" / "hc3.kat"


def rand_key(rng):
    return RoundKey256(*(rng.getrandbits(64) for _ in range(4)))


def test_xs_deterministic():
    rng = random.Random(31)
    block, rk = rng.randbytes(16), rand_key(rng)
    assert xs(block, rk, C) == xs(block, rk, C)


def test_xs_with_zero_key_is_s_mdsl_s():
    rng = random.Random(32)
    zero = RoundKey256(0, 0, 0, 0)
    for _ in range(100):
        block = rng.randbytes(16)
        inner = block.translate(C.sbox)
        mixed = bytearray()
        for w in range(0, 16, 4):
            mixed += bytes(gf256.mds_l_apply(tuple(inner[w:w + 4])))
        want = bytes(mixed).translate(C.sbox)
        assert xs(block, zero, C) == want


def test_xs_roundtrip():
    rng = random.Random(33)
    for _ in range(10_000):
        block, rk = rng.randbytes(16), rand_key(rng)
        assert xs_inv(xs(block, rk, C), rk, C) == block


def test_rho_roundtrip_and_composition():
    rng = random.Random(34)
    for _ in range(10_000):
        block, rk = rng.randbytes(16), rand_key(rng)
        assert rho(block, rk, C) == mds_h(xs(block, rk, C), C)
        assert rho_inv(rho(block, rk, C), rk, C) == block


def test_block_length_checked():
    ks = key_schedule(bytes(16))
    with pytest.raises(ValueError, match="16 bytes"):
        encrypt(b"short", ks)
    rk = ks.round_keys[0]
    for layer in (lambda b: xs_inv(b, rk, C), lambda b: mds_h(b, C),
                  lambda b: mds_h_inv(b, C)):
        for bad in (b"short", bytes(17)):
            with pytest.raises(ValueError, match="16 bytes"):
                layer(bad)


def test_encrypt_decrypt_roundtrip():
    rng = random.Random(35)
    for _ in range(1000):
        key, block = rng.randbytes(16), rng.randbytes(16)
        ks = key_schedule(key)
        assert decrypt(encrypt(block, ks), ks) == block


def test_encrypt_call_structure(monkeypatch):
    events = []
    orig_rho, orig_xs, orig_ak = hc3_cipher.rho, hc3_cipher.xs, hc3_cipher.key_addition

    monkeypatch.setattr(hc3_cipher, "rho",
                        lambda *a, **k: (events.append("rho"), orig_rho(*a, **k))[1])
    monkeypatch.setattr(hc3_cipher, "xs",
                        lambda *a, **k: (events.append("xs"), orig_xs(*a, **k))[1])
    monkeypatch.setattr(hc3_cipher, "key_addition",
                        lambda *a, **k: (events.append("ak"), orig_ak(*a, **k))[1])

    ks = key_schedule(bytes(range(16)))
    ct = hc3_cipher.encrypt(bytes(16), ks)
    # five rounds (each rho runs its inner xs), one bare XS, one key addition
    assert events == ["rho", "xs"] * 5 + ["xs", "ak"]
    assert ct == encrypt(bytes(16), ks)


def test_merged_tables_shape_and_permutations():
    # the last word's positions carry the four column tables unshifted
    classes = C.merged_tables[12:]
    assert len(classes) == 4
    for j in range(4):
        assert len(classes[j]) == 256
        for row in range(4):
            fused = bytes((v >> (8 * (3 - row))) & 0xFF for v in classes[j])
            assert len(set(fused)) == 256  # constant * sbox[.] is a permutation


def test_merged_tables_reproduce_s_then_mdsl():
    classes = C.merged_tables[12:]
    for j in range(4):
        for x in range(256):
            want = gf256.mds_l_apply(tuple(
                C.sbox[x] if col == j else 0 for col in range(4)))
            packed = classes[j][x]
            got = tuple((packed >> (8 * (3 - i))) & 0xFF for i in range(4))
            assert got == want


def gf_mul_position_tables(layer, src):
    """An MdsMatrix4's 16 position tables, every entry from gf_mul."""
    m = layer.entries
    return tuple(tuple(sum(gf256.gf_mul(m[i][j], s) << (8 * (3 - i) + 32 * (3 - w))
                           for i in range(4)) for s in src)
                 for w in range(4) for j in range(4))


@pytest.mark.parametrize("layer", [
    gf256.MDS_L,
    gf256.mds_l_inverse(gf256.MDS_L),
    # not circulant
    gf256.MdsMatrix4(((0x01, 0x02, 0x03, 0x04), (0x8B, 0x00, 0xFF, 0x10),
                      (0x57, 0xC4, 0x65, 0x01), (0xAA, 0x13, 0x02, 0xC8))),
])
def test_tables_built_by_linearity_match_gf_mul(layer):
    products = hc3_constants._products(layer)
    assert set(products) == {c for row in layer.entries for c in row}
    for c, table in products.items():
        assert table == bytes(gf256.gf_mul(c, x) for x in range(256))
    # a fresh set, so that the shared one caches no test matrix
    consts = hc3_constants.Hc3Constants(C.source)
    assert consts._position_tables(layer) == gf_mul_position_tables(layer, range(256))
    assert consts._position_tables(layer, C.sbox) == gf_mul_position_tables(layer, C.sbox)


def test_merged_xs_equals_xs_random():
    rng = random.Random(36)
    for _ in range(2000):
        block, rk = rng.randbytes(16), rand_key(rng)
        assert merged_xs(block, rk, C) == xs(block, rk, C)


def test_merged_xs_equals_xs_per_position_sweep():
    rk = RoundKey256(0, 0, 0, 0)
    for pos in range(16):
        for value in range(256):
            block = bytearray(16)
            block[pos] = value
            block = bytes(block)
            assert merged_xs(block, rk, C) == xs(block, rk, C)


def test_sbox_fused_mds_h_tables_match_mds_h_of_sboxed_bytes():
    for pos in range(16):
        for value in range(256):
            block = bytearray(16)
            block[pos] = C.sbox[value]
            assert C.sbox_mds_h_tables[pos][value] == C.mds_h_map(block)


# The round functions as the layer-by-layer composition they compute: the
# oracle of xs, merged_xs and rho, which run on the integer core.

def composed_xs(block, rk, c, merged=False):
    k12 = (rk.k1 << 64 | rk.k2).to_bytes(16, "big")
    k34 = (rk.k3 << 64 | rk.k4).to_bytes(16, "big")
    b = bytes(x ^ k for x, k in zip(block, k12))
    y = c.merged_map(b) if merged else c.mdsl_map(b.translate(c.sbox))
    return bytes(x ^ k for x, k in zip(y.to_bytes(16, "big"), k34)).translate(c.sbox)


def composed_rho(block, rk, c):
    return c.mds_h_map(composed_xs(block, rk, c)).to_bytes(16, "big")


@pytest.mark.parametrize("packaged", [True, False], ids=["packaged", "mds_h-not-involution"])
def test_round_functions_match_layer_composition(packaged, tmp_path, monkeypatch):
    c = C if packaged else use_non_involution_override(tmp_path, monkeypatch)
    assert packaged == (c.mds_h_inv_rows == c.mds_h_rows)
    rng = random.Random(f"composed-{packaged}")
    for _ in range(2000):
        block, rk = rng.randbytes(16), rand_key(rng)
        assert xs(block, rk, c) == composed_xs(block, rk, c)
        assert merged_xs(block, rk, c) == composed_xs(block, rk, c, merged=True)
        assert rho(block, rk, c) == composed_rho(block, rk, c)


def test_regression_vectors():
    text = KAT_PATH.read_text()
    records = []
    fields = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            if fields:
                records.append(fields)
                fields = {}
            continue
        name, _, value = line.partition("=")
        fields[name] = bytes.fromhex(value)
    if fields:
        records.append(fields)
    assert records
    for rec in records:
        ks = key_schedule(rec["KEY"])
        assert encrypt(rec["PT"], ks) == rec["CT"]
        assert decrypt(rec["CT"], ks) == rec["PT"]
