import random
from pathlib import Path

import pytest

from hc3cam import camellia, ctab
from hc3cam.camellia import cipher as cam_cipher
from hc3cam.camellia import (
    SIGMA,
    SUBKEY_ROTATIONS,
    decrypt,
    encrypt,
    f_function,
    fl,
    fl_inv,
    get_constants,
    key_schedule,
    p_layer,
    sbox_layer,
)

C = get_constants()
KAT_PATH = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data" / "kat" / "camellia.kat"

MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

OFFICIAL_KEY = bytes.fromhex("0123456789abcdeffedcba9876543210")
OFFICIAL_PT = bytes.fromhex("0123456789abcdeffedcba9876543210")
OFFICIAL_CT = bytes.fromhex("67673138549669730857065648eabe43")


def test_official_vector_both_directions():
    sk = key_schedule(OFFICIAL_KEY)
    assert encrypt(OFFICIAL_PT, sk) == OFFICIAL_CT
    assert decrypt(OFFICIAL_CT, sk) == OFFICIAL_PT


def test_roundtrip_random():
    rng = random.Random(41)
    for _ in range(1000):
        key, block = rng.randbytes(16), rng.randbytes(16)
        sk = key_schedule(key)
        assert decrypt(encrypt(block, sk), sk) == block


def test_decrypt_is_encrypt_under_reversed_subkeys():
    # decrypt keys the network in reverse_subkeys order without building it
    rng = random.Random(43)
    for _ in range(200):
        sk = key_schedule(rng.randbytes(16))
        block = rng.randbytes(16)
        assert decrypt(block, sk) == encrypt(block, camellia.reverse_subkeys(sk))


def test_key_length_checked():
    with pytest.raises(ValueError, match="16 bytes"):
        key_schedule(bytes(24))
    with pytest.raises(ValueError, match="16 bytes"):
        encrypt(b"x" * 15, key_schedule(bytes(16)))


def test_sigma_constants_verbatim():
    assert SIGMA == (0xA09E667F3BCC908B, 0xB67AE8584CAA73B2,
                     0xC6EF372FE94F82BE, 0x54FF53A5F1D36F1C,
                     0x10E527FADE682D1D, 0xB05688C2B3E6C1FD)


def test_fl_zero_key():
    rng = random.Random(42)
    for _ in range(200):
        x = rng.getrandbits(64)
        y = fl(x, 0)
        xl, xr = x >> 32, x & 0xFFFFFFFF
        assert y & 0xFFFFFFFF == xr            # Y_R = X_R
        assert y >> 32 == xl ^ xr              # Y_L = X_L xor X_R
        back = fl_inv(y, 0)
        assert back == x                       # X_L = Y_L xor Y_R, X_R = Y_R


def test_fl_rotation_crosses_word_boundary():
    # kl_L bit 31 set and matching X_L bit: the AND result rotates left
    # by one, carrying bit 31 into bit 0 of the rotated word.
    x = 0x8000000000000000
    kl = 0x8000000000000000
    assert fl(x, kl) == 0x8000000100000001


def test_fl_inverse_contract():
    rng = random.Random(43)
    for _ in range(10_000):
        x, kl = rng.getrandbits(64), rng.getrandbits(64)
        assert fl_inv(fl(x, kl), kl) == x
        assert fl(fl_inv(x, kl), kl) == x


def _rot128(v, n):
    n %= 128
    return ((v << n) | (v >> (128 - n))) & MASK128


def _f_oracle(x, k):
    # explicit path: key add, s-box layer, P layer (independent of the
    # fused tables inside f_function)
    return p_layer(sbox_layer(x ^ k, C), C)


def test_f_function_matches_explicit_path():
    rng = random.Random(44)
    for _ in range(2000):
        x, k = rng.getrandbits(64), rng.getrandbits(64)
        assert f_function(x, k, C) == _f_oracle(x, k)


def test_p_layer_linearity():
    rng = random.Random(45)
    for _ in range(1000):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        assert p_layer(a ^ b, C) == p_layer(a, C) ^ p_layer(b, C)


def _oracle_subkeys(key):
    # independent key schedule: the two-round derivation of K_A written
    # against the explicit F path, then plain 128-bit rotations
    kl = int.from_bytes(key, "big")
    kr = 0
    d1, d2 = (kl ^ kr) >> 64, (kl ^ kr) & MASK64
    d2 ^= _f_oracle(d1, SIGMA.sigma1)
    d1 ^= _f_oracle(d2, SIGMA.sigma2)
    d1 ^= kl >> 64
    d2 ^= kl & MASK64
    d2 ^= _f_oracle(d1, SIGMA.sigma3)
    d1 ^= _f_oracle(d2, SIGMA.sigma4)
    ka = d1 << 64 | d2
    return kl, ka


def test_subkeys_against_rotation_table():
    rng = random.Random(46)
    for _ in range(50):
        key = rng.randbytes(16)
        sk = key_schedule(key)
        kl, ka = _oracle_subkeys(key)
        assert (sk.key_vars.kl_var, sk.key_vars.kr_var, sk.key_vars.ka_var) == (kl, 0, ka)

        def L(v, n):
            return _rot128(v, n) >> 64

        def R(v, n):
            return _rot128(v, n) & MASK64

        assert sk.kw == (L(kl, 0), R(kl, 0), L(ka, 111), R(ka, 111))
        assert sk.kw[0] << 64 | sk.kw[1] == kl  # kw1||kw2 is K_L itself
        assert sk.k == (
            L(ka, 0), R(ka, 0), L(kl, 15), R(kl, 15), L(ka, 15), R(ka, 15),
            L(kl, 45), R(kl, 45), L(ka, 45), R(kl, 60),
            L(ka, 60), R(ka, 60), L(kl, 94), R(kl, 94), L(ka, 94), R(ka, 94),
            L(kl, 111), R(kl, 111),
        )
        assert sk.kl == (L(ka, 30), R(ka, 30), L(kl, 77), R(kl, 77))


def test_rotation_amounts_are_exactly_the_published_set():
    assert SUBKEY_ROTATIONS == (0, 15, 30, 45, 60, 77, 94, 111)
    # k10 comes from the right half of K_L <<< 60; the left half of that
    # rotation is unused, as published
    key = bytes(range(16))
    sk = key_schedule(key)
    kl = sk.key_vars.kl_var
    assert sk.k[9] == _rot128(kl, 60) & MASK64


def test_fl_layers_fire_after_rounds_6_and_12(monkeypatch):
    sk = key_schedule(bytes(16))  # before patching: the schedule also uses F
    events = []
    orig_f, orig_fl, orig_fli = cam_cipher.f_function, cam_cipher.fl, cam_cipher.fl_inv
    monkeypatch.setattr(cam_cipher, "f_function",
                        lambda *a, **k: (events.append("F"), orig_f(*a, **k))[1])
    monkeypatch.setattr(cam_cipher, "fl",
                        lambda *a, **k: (events.append("FL"), orig_fl(*a, **k))[1])
    monkeypatch.setattr(cam_cipher, "fl_inv",
                        lambda *a, **k: (events.append("FLINV"), orig_fli(*a, **k))[1])
    cam_cipher.encrypt(bytes(16), sk)
    assert events == (["F"] * 6 + ["FL", "FLINV"]) * 2 + ["F"] * 6


def test_feistel_core_involution_with_equal_keys():
    # classic sanity check: no FL layers, all round keys equal; running
    # the core on the swapped output undoes the 18 rounds
    k = 0x0123456789ABCDEF
    rng = random.Random(47)

    def core18(left, right):
        for _ in range(18):
            left, right = right ^ f_function(left, k, C), left
        return left, right

    for _ in range(100):
        l0, r0 = rng.getrandbits(64), rng.getrandbits(64)
        l1, r1 = core18(l0, r0)
        l2, r2 = core18(r1, l1)   # swap halves, same schedule
        assert (r2, l2) == (l0, r0)


def test_subkeys_pure_function_of_key():
    key = bytes(range(16))
    a, b = key_schedule(key), key_schedule(key)
    assert a.kw == b.kw and a.k == b.k and a.kl == b.kl


def test_subkeys_are_values_of_one_constant_set():
    # subkeys are their fields, and a constant set compares by identity:
    # two sets of equal content give equal subkeys but unequal subkey sets
    text = (KAT_PATH.parent.parent / "camellia.ctab").read_text()
    c1, c2 = (camellia.CamelliaConstants(ctab.parse(text)) for _ in range(2))
    a, b = key_schedule(OFFICIAL_KEY, c1), key_schedule(OFFICIAL_KEY, c2)
    assert a == key_schedule(OFFICIAL_KEY, c1) and hash(a) == hash(key_schedule(OFFICIAL_KEY, c1))
    assert a.consts is c1 and b.consts is c2
    assert (a.kw, a.k, a.kl, a.key_vars) == (b.kw, b.k, b.kl, b.key_vars) and a != b
    assert b._replace(consts=c1) == a
    assert a != key_schedule(bytes(16), c1)
    reverse = cam_cipher.reverse_subkeys(a)
    assert reverse != a and (reverse.consts, reverse.key_vars) == (c1, a.key_vars)


def test_p_columns_match_row_wise_p_layer():
    # the column tables the key schedule and f_tables are built from,
    # against the row-wise P and s-box layers
    rng = random.Random(47)
    for _ in range(2000):
        x = rng.getrandbits(64)
        got = 0
        for pos, (box, column) in enumerate(zip(C.sbox_order, C.p_columns)):
            got ^= column[box[x >> 8 * (7 - pos) & 0xFF]]
        assert got == p_layer(sbox_layer(x, C), C)
        assert got == f_function(x, 0, C)


def test_packaged_vectors():
    records = []
    fields = {}
    for line in KAT_PATH.read_text().splitlines():
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
    assert len(records) >= 2
    for rec in records:
        sk = key_schedule(rec["KEY"])
        assert encrypt(rec["PT"], sk) == rec["CT"]
        assert decrypt(rec["CT"], sk) == rec["PT"]
