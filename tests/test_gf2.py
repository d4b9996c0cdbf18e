import random

import pytest

from hc3cam import gf2


def test_identity_apply():
    lanes = (10, 20, 30, 40)
    assert gf2.apply_rows(gf2.identity(4), lanes) == lanes


def test_apply_rows_xors_selected_lanes():
    # row 0b101 picks lanes 0 and 2
    assert gf2.apply_rows((0b101,), (1, 2, 4)) == (5,)


def test_invert_roundtrip_random_matrices():
    rng = random.Random(0xA5)
    found = 0
    while found < 25:
        n = rng.choice((4, 8, 16))
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        try:
            inv = gf2.invert(rows, n)
        except ValueError:
            continue
        found += 1
        assert gf2.is_identity(gf2.apply_rows(inv, rows))
        assert gf2.is_identity(gf2.apply_rows(rows, inv))


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        gf2.invert((0b01, 0b01), 2)
    with pytest.raises(ValueError):
        gf2.invert((0, 0b10), 2)


def test_apply_rows_on_rows_is_composition():
    rng = random.Random(7)
    for _ in range(50):
        a = tuple(rng.getrandbits(8) for _ in range(8))
        b = tuple(rng.getrandbits(8) for _ in range(8))
        lanes = tuple(rng.getrandbits(32) for _ in range(8))
        via_product = gf2.apply_rows(gf2.apply_rows(a, b), lanes)
        via_steps = gf2.apply_rows(a, gf2.apply_rows(b, lanes))
        assert via_product == via_steps


def test_invert_rejects_non_square():
    with pytest.raises(ValueError):
        gf2.invert((1, 2, 3), 4)
