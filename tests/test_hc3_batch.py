"""The byte-plane batch engine (encrypt_blocks/decrypt_blocks) against
the per-block reference, directly and through the CLI's chunked stream."""

import random

import pytest

from hc3cam import cli, hc3
from hc3cam.hc3 import batch as hc3_batch
from test_constants_override import use_non_involution_override


def per_block(fn, data, ks):
    return b"".join(fn(data[off:off + 16], ks) for off in range(0, len(data), 16))


def cut_from_position_tables(tables):
    """The column tables as cut from a full MDS_L position-table set: the
    last word's four tables are unshifted, and byte i of each packed
    32-bit entry is the product into output byte i."""
    packed = [b"".join(v.to_bytes(4, "big") for v in col) for col in tables[12:]]
    return tuple(tuple(col[i::4] for i in range(4)) for col in packed)


def test_plane_columns_match_position_tables():
    consts = hc3.get_constants()
    assert consts.mdsl_columns == cut_from_position_tables(consts.mdsl_tables)
    assert consts.mdsl_inv_columns == cut_from_position_tables(consts.mdsl_inv_tables)


def test_batch_matches_per_block():
    rng = random.Random(71)
    programs = hc3_batch._plane_program
    for mode in hc3.MODES:
        ks = hc3.key_schedule(rng.randbytes(16), mode)
        programs.cache_clear()
        assert hc3.decrypt(hc3.encrypt(bytes(16), ks), ks) == bytes(16)
        assert hc3.encrypt_blocks(b"", ks) == hc3.decrypt_blocks(b"", ks) == b""
        # the per-block path and empty data build no program
        assert programs.cache_info().currsize == 0
        for n in (0, 1, 2, 17, 300):
            data = rng.randbytes(16 * n)
            assert hc3.encrypt_blocks(data, ks) == per_block(hc3.encrypt, data, ks)
            assert hc3.decrypt_blocks(data, ks) == per_block(hc3.decrypt, data, ks)
        # one program per direction, built on the first call with data
        assert programs.cache_info()[:2] == (6, 2)


def test_schedules_of_two_constant_sets_alternate(tmp_path, monkeypatch):
    # under one key, schedules of the packaged and of an override set, and
    # the packaged round keys paired with the override set, each run with
    # their own constants however the calls interleave
    key, data = bytes(range(16)), random.Random(73).randbytes(16 * 40)
    packaged = hc3.key_schedule(key)
    override = hc3.key_schedule(key, consts=use_non_involution_override(tmp_path, monkeypatch))
    mixed = packaged._replace(consts=override.consts)
    assert override.consts is not packaged.consts and mixed != packaged
    schedules = (packaged, override, mixed)
    want = {ks: (per_block(hc3.encrypt, data, ks), per_block(hc3.decrypt, data, ks))
            for ks in schedules}
    assert len(set(want.values())) == 3
    for _ in range(2):
        for ks in schedules:
            assert hc3.encrypt_blocks(data, ks) == want[ks][0]
            assert hc3.decrypt_blocks(data, ks) == want[ks][1]
        for ks in schedules:
            assert hc3.decrypt_blocks(data, ks) == want[ks][1]
            assert hc3.encrypt_blocks(data, ks) == want[ks][0]


# either side of the chunk edges of the CLI stream
@pytest.mark.parametrize("blocks", [0, 1, 2, 17, cli.CHUNK_BLOCKS - 1, cli.CHUNK_BLOCKS,
                                    cli.CHUNK_BLOCKS + 1])
def test_cli_stream_matches_per_block(blocks, tmp_path):
    rng = random.Random(blocks)
    key, data = rng.randbytes(16), rng.randbytes(16 * blocks)
    ks = hc3.key_schedule(key)
    src, out = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(data)
    for command, reference in (("encrypt", hc3.encrypt), ("decrypt", hc3.decrypt)):
        assert cli.main([command, "--cipher", "hc3", "--key", key.hex(),
                         "--in", str(src), "--out", str(out)]) == 0
        assert out.read_bytes() == per_block(reference, data, ks)


def test_batch_rejects_partial_block():
    ks = hc3.key_schedule(bytes(16))
    for fn in (hc3.encrypt_blocks, hc3.decrypt_blocks):
        for n in (1, 15, 17, 33):
            with pytest.raises(ValueError, match="multiple of 16"):
                fn(bytes(n), ks)
