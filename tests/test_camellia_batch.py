"""The Camellia byte-plane batch engine (encrypt_blocks/decrypt_blocks)
against the per-block reference, directly and through the CLI's chunked
stream."""

import random

import pytest

from hc3cam import camellia, cli
from hc3cam.camellia import batch as cam_batch

RFC_KEY = bytes.fromhex("0123456789abcdeffedcba9876543210")
RFC_PT = RFC_KEY
RFC_CT = bytes.fromhex("67673138549669730857065648eabe43")


def per_block(fn, data, sk):
    return b"".join(fn(data[off:off + 16], sk) for off in range(0, len(data), 16))


def test_batch_matches_per_block():
    rng = random.Random(83)
    for n in (0, 1, 2, 17, 300):
        sk = camellia.key_schedule(rng.randbytes(16))
        data = rng.randbytes(16 * n)
        assert camellia.encrypt_blocks(data, sk) == per_block(camellia.encrypt, data, sk)
        assert camellia.decrypt_blocks(data, sk) == per_block(camellia.decrypt, data, sk)


def test_rfc3713_vector_through_batch():
    sk = camellia.key_schedule(RFC_KEY)
    assert camellia.encrypt_blocks(RFC_PT * 3, sk) == RFC_CT * 3
    assert camellia.decrypt_blocks(RFC_CT, sk) == RFC_PT


def test_tables_built_on_first_batch_call_only():
    # a program serves one (subkeys, direction, batch size); it is built on
    # the first call with data, and the last two are kept
    programs = cam_batch._repeated
    programs.cache_clear()
    sk = camellia.key_schedule(bytes(range(16)))
    assert camellia.decrypt(camellia.encrypt(bytes(16), sk), sk) == bytes(16)
    assert camellia.encrypt_blocks(b"", sk) == camellia.decrypt_blocks(b"", sk) == b""
    assert programs.cache_info().currsize == 0   # the per-block path and empty data build none
    camellia.encrypt_blocks(bytes(32), sk)
    assert programs.cache_info()[:2] == (0, 1)
    camellia.encrypt_blocks(bytes(32), sk)
    # equal subkeys under the same constant set share the program
    camellia.encrypt_blocks(bytes(32), camellia.key_schedule(bytes(range(16))))
    assert programs.cache_info()[:2] == (2, 1)
    camellia.encrypt_blocks(bytes(16), sk)
    camellia.decrypt_blocks(bytes(32), sk)
    assert programs.cache_info()[:2] == (2, 3) and programs.cache_info().currsize == 2


def test_batch_rejects_partial_block():
    sk = camellia.key_schedule(bytes(16))
    for fn in (camellia.encrypt_blocks, camellia.decrypt_blocks):
        for n in (1, 15, 17, 33):
            with pytest.raises(ValueError, match="multiple of 16"):
                fn(bytes(n), sk)


# either side of the chunk edges of the CLI stream
@pytest.mark.parametrize("blocks", [0, 1, 2, 17, cli.CHUNK_BLOCKS - 1, cli.CHUNK_BLOCKS,
                                    cli.CHUNK_BLOCKS + 1])
def test_cli_stream_matches_per_block(blocks, tmp_path):
    rng = random.Random(1000 + blocks)
    key, data = rng.randbytes(16), rng.randbytes(16 * blocks)
    sk = camellia.key_schedule(key)
    src, out = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(data)
    for command, reference in (("encrypt", camellia.encrypt), ("decrypt", camellia.decrypt)):
        assert cli.main([command, "--cipher", "camellia", "--key", key.hex(),
                         "--in", str(src), "--out", str(out)]) == 0
        assert out.read_bytes() == per_block(reference, data, sk)
