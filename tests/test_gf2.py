import random

import pytest

from hc3cam import gf2
from hc3cam import lanes as lane_kernel
from hc3cam.hc3.constants import _bytewise


def test_identity_apply():
    lanes = (10, 20, 30, 40)
    assert gf2.apply_rows(gf2.identity(4), lanes) == lanes


def test_apply_rows_xors_selected_lanes():
    # row 0b101 picks lanes 0 and 2
    assert gf2.apply_rows((0b101,), (1, 2, 4)) == (5,)


def bit_walk(rows, lanes):
    """apply_rows by walking each row mask bit by bit from 0."""
    out = []
    for mask in rows:
        acc, j = 0, 0
        while mask:
            if mask & 1:
                acc ^= lanes[j]
            mask >>= 1
            j += 1
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("width", [1, 8, 8 * 6000])
def test_apply_rows_matches_the_bit_walk(width):
    # zero rows, rows as a list as well as a tuple, small-int and plane lanes
    rng = random.Random(f"apply-rows-{width}")
    for _ in range(40):
        n_in = rng.randrange(1, 17)
        rows = [rng.getrandbits(n_in) for _ in range(rng.randrange(1, 17))]
        rows[rng.randrange(len(rows))] = 0
        lanes = [rng.getrandbits(width) for _ in range(n_in)]
        want = bit_walk(rows, lanes)
        assert gf2.apply_rows(rows, lanes) == gf2.apply_rows(tuple(rows), tuple(lanes)) == want
    assert gf2.apply_rows((0, 0), (7, 9)) == (0, 0)
    assert gf2.apply_rows([], (7,)) == ()


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


@pytest.mark.parametrize("arity, bits", [(8, 64), (16, 128), (16, 256)])
def test_lane_map_matches_plain_loop(arity, bits):
    rng = random.Random(f"lane-map-{arity}-{bits}")
    tables = tuple(tuple(rng.getrandbits(bits) for _ in range(256)) for _ in range(arity))
    lane_map = lane_kernel.lane_map(tables)
    for _ in range(500):
        data = rng.randbytes(arity)
        want = 0
        for table, byte in zip(tables, data):
            want ^= table[byte]
        assert lane_map(data) == want


@pytest.mark.parametrize("arity", [0, 4, 7, 9, 15, 17, 32])
def test_lane_map_rejects_other_arities(arity):
    with pytest.raises(ValueError, match="8 or 16 tables"):
        lane_kernel.lane_map(((0,) * 256,) * arity)


@pytest.mark.parametrize("n_rows, n_in, width", [(4, 4, 32), (16, 16, 8), (32, 16, 8),
                                                 (4, 4, 16), (8, 8, 8)])
def test_row_images_match_apply_rows(n_rows, n_in, width):
    # rows over width-bit lanes become byte rows as P(32)'s and P(16)'s
    # do (_bytewise), and the byte count comes from the rows: 32 rows over
    # 16 lanes give 16 tables
    rng = random.Random(f"lane-tables-{n_rows}-{n_in}-{width}")
    rows = [rng.getrandbits(n_in) for _ in range(n_rows)]
    rows[0] |= 1 << n_in - 1   # the rows read the last input lane
    tables = gf2.position_tables(lane_kernel.row_images(_bytewise(rows, width // 8)))
    assert len(tables) == n_in * width // 8
    mask = (1 << width) - 1
    for _ in range(200):
        data = rng.randbytes(len(tables))
        lanes = [int.from_bytes(data[i:i + width // 8], "big")
                 for i in range(0, len(data), width // 8)]
        want = 0
        for lane in gf2.apply_rows(rows, lanes):
            want = want << width | lane & mask
        got = 0
        for table, byte in zip(tables, data):
            got ^= table[byte]
        assert got == want


def xor_of_images(images, p, x):
    """The image of byte x alone at input byte p, straight from the images
    of its set bits."""
    n = len(images) // 8
    acc = 0
    for b in range(8):
        if x >> b & 1:
            acc ^= images[8 * (n - 1 - p) + b]
    return acc


@pytest.mark.parametrize("n_bytes, bits", [(1, 8), (4, 32), (8, 64), (16, 128)])
@pytest.mark.parametrize("fused", [False, True])
def test_position_tables_match_xor_of_images(n_bytes, bits, fused):
    rng = random.Random(f"position-tables-{n_bytes}-{bits}-{fused}")
    images = tuple(rng.getrandbits(bits) for _ in range(8 * n_bytes))
    src = bytes(rng.sample(range(256), 256)) if fused else range(256)
    tables = gf2.position_tables(images, src) if fused else gf2.position_tables(images)
    assert len(tables) == n_bytes and all(len(t) == 256 for t in tables)
    for p, table in enumerate(tables):
        assert list(table) == [xor_of_images(images, p, s) for s in src]


@pytest.mark.parametrize("rows, n", [((0b10001, 0b0010, 0b0100, 0b1000), 4),
                                     ((0b01, 0b110), 2), ((1 << 40,), 1)])
def test_invert_refuses_bits_past_the_matrix(rows, n):
    # the first two are nonsingular over their lanes; the stray bit above
    # them must still be refused
    with pytest.raises(ValueError, match="not a .* bit matrix"):
        gf2.invert(rows, n)
