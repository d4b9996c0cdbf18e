import random

import pytest

from hc3cam import gf256
from hc3cam.gf256 import (
    MDS_L,
    MDS_L_CONSTANTS,
    MdsMatrix4,
    circulant,
    gf_inv,
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


def test_gf_inv():
    # every nonzero byte has an inverse: HC3_POLY gives a field
    for x in range(1, 256):
        assert gf_mul(x, gf_inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


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
    assert gf256.derive_network(0xC4) == gf256.C4_NETWORK


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
            assert mds_l_apply(tuple(vec)) == MDS_L.apply(tuple(vec))


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


def test_mds_l_inverse_roundtrip():
    inv = mds_l_inverse()
    assert inv.apply(MDS_L.apply((0x01, 0x02, 0x03, 0x04))) == (0x01, 0x02, 0x03, 0x04)
    assert inv.apply((0, 0, 0, 0)) == (0, 0, 0, 0)
    # M^-1 * M over the field is the identity matrix
    for i in range(4):
        for j in range(4):
            acc = 0
            for k in range(4):
                acc ^= gf_mul(inv.entries[i][k], MDS_L.entries[k][j])
            assert acc == (1 if i == j else 0)


def test_mds_l_inverse_rejects_singular():
    with pytest.raises(ArithmeticError):
        mds_l_inverse(MdsMatrix4(((0, 0, 0, 0),) * 4))


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
