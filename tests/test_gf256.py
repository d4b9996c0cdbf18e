import random
from functools import reduce
from operator import xor

import pytest

from hc3cam import gf256, networks
from hc3cam.gf256 import (
    MDS_L,
    MDS_L_CONSTANTS,
    MdsMatrix4,
    circulant,
    gf_mul,
    mds_check,
    mds_l_apply,
    mds_l_inverse,
    mul_const_network,
)


def test_gf_mul_identities():
    assert gf_mul(0x01, 0xC4) == 0xC4
    assert gf_mul(0x00, 0x8B) == 0x00
    # 0xC4 * x: 0x188 reduced by 0x163 -> 0xEB
    assert gf_mul(0x02, 0xC4) == 0xEB


def test_gf_mul_commutative_and_distributive():
    rng = random.Random(1)
    for _ in range(10_000):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


def test_every_nonzero_byte_has_one_inverse():
    # HC3_POLY gives a field: each nonzero byte has exactly one inverse, 0 none
    for x in range(256):
        ones = sum(gf_mul(x, y) == 1 for y in range(256))
        assert ones == (1 if x else 0)


@pytest.mark.parametrize("c", MDS_L_CONSTANTS)
def test_network_equals_bit_serial_oracle(c):
    for x in range(256):
        assert mul_const_network(c, x) == gf_mul(x, c)


def test_network_spot_values():
    # evaluating the printed equations at IN=0x01 leaves only IN[0] terms
    assert mul_const_network(0xC4, 0x01) == 0xC4
    assert mul_const_network(0xC4, 0x02) == 0xEB
    assert mul_const_network(0x65, 0x00) == 0x00


def test_network_rejects_unsupported_constant():
    with pytest.raises(ValueError, match="no boolean network"):
        mul_const_network(0x03, 0x42)


def test_hardcoded_c4_network_matches_derivation():
    assert networks.derive_network(0xC4) == networks.C4_NETWORK


def test_mds_l_layout():
    assert MDS_L.entries[0] == (0xC4, 0x65, 0xC8, 0x8B)
    assert MDS_L.entries[1] == (0x8B, 0xC4, 0x65, 0xC8)
    assert MDS_L.entries[2] == (0xC8, 0x8B, 0xC4, 0x65)
    assert MDS_L.entries[3] == (0x65, 0xC8, 0x8B, 0xC4)


def test_mds_l_apply_columns():
    assert mds_l_apply((0, 0, 0, 0)) == (0, 0, 0, 0)
    # first column of the matrix
    assert mds_l_apply((1, 0, 0, 0)) == (0xC4, 0x8B, 0xC8, 0x65)
    # same column scaled by x
    assert mds_l_apply((2, 0, 0, 0)) == (0xEB, 0x75, 0xF3, 0xCA)


def test_mds_l_apply_matches_matrix_on_basis():
    # agreement on all 32 basis vectors proves the linear maps equal
    for byte in range(4):
        for bit in range(8):
            vec = [0, 0, 0, 0]
            vec[byte] = 1 << bit
            assert mds_l_apply(tuple(vec)) == networks.matrix_apply(MDS_L, tuple(vec))


def test_mds_l_apply_linearity():
    rng = random.Random(2)
    for _ in range(10_000):
        a = tuple(rng.randrange(256) for _ in range(4))
        b = tuple(rng.randrange(256) for _ in range(4))
        ab = tuple(x ^ y for x, y in zip(a, b))
        got = tuple(x ^ y for x, y in zip(mds_l_apply(a), mds_l_apply(b)))
        assert mds_l_apply(ab) == got


def test_mds_check_table_matrix():
    assert mds_check(MDS_L)


def test_mds_check_rejects_identity_and_zero_row():
    assert not mds_check(MdsMatrix4(((1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1))))
    assert not mds_check(MdsMatrix4(((0, 0, 0, 0), (1, 2, 3, 4),
                                     (5, 6, 7, 8), (9, 10, 11, 12))))


def _gf_matmul(a, b):
    return tuple(
        tuple(reduce(xor, (gf_mul(a.entries[i][k], b.entries[k][j]) for k in range(4)))
              for j in range(4))
        for i in range(4))


def _random_invertible(seed):
    rng = random.Random(seed)
    while True:
        m = MdsMatrix4(tuple(tuple(rng.randrange(256) for _ in range(4)) for _ in range(4)))
        try:
            mds_l_inverse(m)
        except ArithmeticError:
            continue
        return m


_IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


@pytest.mark.parametrize("m", [MDS_L, *(_random_invertible(s) for s in range(8))],
                         ids=["MDS_L", *(f"random{s}" for s in range(8))])
def test_mds_l_inverse_roundtrip(m):
    inv = mds_l_inverse(m)
    # both products over the field are the identity matrix
    assert _gf_matmul(inv, m) == _IDENTITY
    assert _gf_matmul(m, inv) == _IDENTITY


@pytest.mark.parametrize("m", [MDS_L, mds_l_inverse(), _random_invertible(8)],
                         ids=["MDS_L", "inverse", "random"])
def test_images_match_gf_mul_per_bit(m):
    # bit b of input byte j (byte 0 the most significant) is bit
    # 8 * (3 - j) + b of the word; its image holds m[i][j] * 2^b in byte i
    images = gf256.images(m)
    assert len(images) == 32
    for j in range(4):
        for b in range(8):
            want = tuple(gf_mul(m.entries[i][j], 1 << b) for i in range(4))
            assert images[8 * (3 - j) + b].to_bytes(4, "big") == bytes(want)


def test_mds_l_inverse_of_mds_l():
    assert mds_l_inverse() == circulant((0x82, 0xC4, 0x34, 0xF6))
    apply = networks.matrix_apply
    assert apply(mds_l_inverse(), apply(MDS_L, (0x01, 0x02, 0x03, 0x04))) == (1, 2, 3, 4)


@pytest.mark.parametrize("m", [
    MdsMatrix4(((0, 0, 0, 0),) * 4),
    MdsMatrix4(((1, 2, 3, 4), (5, 6, 7, 8), (1, 2, 3, 4), (9, 10, 11, 12))),
], ids=["zero", "equal-rows"])
def test_mds_l_inverse_rejects_singular(m):
    with pytest.raises(ArithmeticError):
        mds_l_inverse(m)


def test_mds_matrix_value_semantics():
    with pytest.raises(ValueError, match="4x4"):
        MdsMatrix4(((1, 2, 3, 4),) * 3)
    with pytest.raises(ValueError, match="4x4"):
        MdsMatrix4(((1, 2, 3),) * 4)
    # equal matrices are one key of a table cache
    a, b = circulant(MDS_L_CONSTANTS), MdsMatrix4(MDS_L.entries)
    assert a == b == MDS_L and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_circulant_helper():
    m = circulant((1, 2, 3, 4))
    assert m.entries[1] == (4, 1, 2, 3)
    assert m.entries[3] == (2, 3, 4, 1)
