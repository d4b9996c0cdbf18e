"""The byte-plane frame's keyed s-box tables against their per-byte form."""

import random

import pytest

from hc3cam.hc3 import batch


@pytest.mark.parametrize("inverse", [False, True])
def test_keyed_tables_match_generator_form(inverse):
    rng = random.Random(f"keyed-tables-{inverse}")
    box = bytes(rng.sample(range(256), 256))
    for start in range(0, 256, 16):
        key = bytes(range(start, start + 16))   # every key byte at some position
        want = []
        for k in key:
            xor = bytes(x ^ k for x in range(256))
            want.append(box.translate(xor) if inverse else xor.translate(box))
        assert batch.keyed_tables(box, key, inverse) == tuple(want)
