"""Key-sliced schedules and networks (key_schedule_sliced,
encrypt_sliced/decrypt_sliced) against the per-record reference: block i
of a batch runs under key i."""

import random

import pytest

from hc3cam import camellia, hc3
from test_constants_override import use_non_involution_override

CIPHERS = {"hc3": hc3, "camellia": camellia}


def slice_bytes(planes, i):
    """Byte i of every plane: slice i's word, most significant byte first."""
    return bytes(p >> 8 * i & 0xFF for p in planes)


def hc3_round_keys_at(ks, i):
    return tuple(hc3.RoundKey256(*(int.from_bytes(slice_bytes(planes[w:w + 8], i), "big")
                                   for w in range(0, 32, 8)))
                 for planes in ks.round_keys)


def camellia_subkeys_at(sk, i):
    def words(keys):
        return tuple(int.from_bytes(slice_bytes(planes, i), "big") for planes in keys)
    return words(sk.kw), words(sk.k), words(sk.kl)


def per_record(mod, fn, data, keys):
    return b"".join(fn(data[off:off + 16], mod.key_schedule(keys[off:off + 16]))
                    for off in range(0, len(data), 16))


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_hc3_sliced_schedule_matches_every_mode(n):
    rng = random.Random(500 + n)
    keys = rng.randbytes(16 * n)
    ks = hc3.key_schedule_sliced(keys)
    assert ks.n == n and ks.consts is hc3.get_constants()
    for i in range(n):
        got = hc3_round_keys_at(ks, i)
        for mode in hc3.MODES:
            assert got == hc3.key_schedule(keys[16 * i:16 * i + 16], mode).round_keys


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_camellia_sliced_schedule_matches_key_schedule(n):
    rng = random.Random(600 + n)
    keys = rng.randbytes(16 * n)
    sk = camellia.key_schedule_sliced(keys)
    assert sk.n == n and sk.consts is camellia.get_constants()
    for i in range(n):
        want = camellia.key_schedule(keys[16 * i:16 * i + 16])
        assert camellia_subkeys_at(sk, i) == (want.kw, want.k, want.kl)


@pytest.mark.parametrize("cipher", sorted(CIPHERS))
@pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
def test_sliced_matches_per_record(cipher, n):
    mod = CIPHERS[cipher]
    rng = random.Random(f"{cipher}:{n}")
    keys, data = rng.randbytes(16 * n), rng.randbytes(16 * n)
    ks = mod.key_schedule_sliced(keys)
    assert mod.encrypt_sliced(data, ks) == per_record(mod, mod.encrypt, data, keys)
    assert mod.decrypt_sliced(data, ks) == per_record(mod, mod.decrypt, data, keys)


def test_camellia_sliced_rfc3713_vector():
    key = bytes.fromhex("0123456789abcdeffedcba9876543210")
    ct = bytes.fromhex("67673138549669730857065648eabe43")
    other = bytes(range(16))
    sk = camellia.key_schedule_sliced(key + other + key)
    got = camellia.encrypt_sliced(key + other + key, sk)
    assert got[:16] == got[32:] == ct
    assert camellia.decrypt_sliced(got, sk) == key + other + key


def test_hc3_sliced_under_non_involution_override(tmp_path, monkeypatch):
    # the inverse layers (P(32)^-1 in sigma-inverse, MDS-higher^-1 in
    # decryption) get their own plane rows when the set is not self-inverse
    consts = use_non_involution_override(tmp_path, monkeypatch)
    assert consts.p32_inv_rows != consts.p32_rows
    assert consts.mds_h_inv_rows != consts.mds_h_rows
    rng = random.Random(47)
    keys, data = rng.randbytes(16 * 40), rng.randbytes(16 * 40)
    ks = hc3.key_schedule_sliced(keys)
    assert ks.consts is consts
    for i in range(40):
        assert hc3_round_keys_at(ks, i) == hc3.key_schedule(keys[16 * i:16 * i + 16]).round_keys
    assert hc3.encrypt_sliced(data, ks) == per_record(hc3, hc3.encrypt, data, keys)
    assert hc3.decrypt_sliced(data, ks) == per_record(hc3, hc3.decrypt, data, keys)


@pytest.mark.parametrize("n", [1, 300])
def test_hc3_walk_back_under_non_involution_override(n, tmp_path, monkeypatch):
    # steps 5-7 of the cache and sliced routes read W1 || W2 as P(32) of a
    # state the forward walk reached, where full_precompute runs
    # P(32)^-1 on M_B3's output: with P(32) and MDS-higher not their own
    # inverses, the walk-back must still give the directly computed keys
    consts = use_non_involution_override(tmp_path, monkeypatch)
    assert consts.p32_inv_rows != consts.p32_rows
    assert consts.mds_h_inv_rows != consts.mds_h_rows
    keys = random.Random(48 + n).randbytes(16 * n)
    ks = hc3.key_schedule_sliced(keys)
    assert ks.consts is consts
    for i in range(n):
        key = keys[16 * i:16 * i + 16]
        direct = hc3.key_schedule(key, "full_precompute").round_keys
        assert hc3.key_schedule(key, "cached_1600").round_keys == direct
        assert hc3_round_keys_at(ks, i) == direct


@pytest.mark.parametrize("cipher", sorted(CIPHERS))
def test_sliced_rejects_mismatched_lengths(cipher):
    mod = CIPHERS[cipher]
    for bad in (1, 15, 17):
        with pytest.raises(ValueError, match="multiple of 16"):
            mod.key_schedule_sliced(bytes(bad))
    ks = mod.key_schedule_sliced(bytes(32))
    for fn in (mod.encrypt_sliced, mod.decrypt_sliced):
        for n in (0, 16, 31, 48):
            with pytest.raises(ValueError, match="one 16-byte block per key"):
                fn(bytes(n), ks)


@pytest.mark.parametrize("cipher", sorted(CIPHERS))
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
def test_sliced_matches_per_key_on_zero_planes(cipher, n):
    # all-zero keys and blocks 00..01, 00..00, ...: the planes of the keys
    # and of the data are zero in their top slices, so an int -> bytes
    # conversion that drops a leading zero byte shows
    mod = CIPHERS[cipher]
    keys = bytes(16 * n)
    data = b"".join(bytes(15) + bytes([i == 0]) for i in range(n))
    ks = mod.key_schedule_sliced(keys)
    ct = mod.encrypt_sliced(data, ks)
    assert ct == per_record(mod, mod.encrypt, data, keys)
    assert mod.decrypt_sliced(data, ks) == per_record(mod, mod.decrypt, data, keys)
    assert mod.decrypt_sliced(ct, ks) == data
