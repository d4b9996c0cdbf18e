"""The byte-plane batch engine (encrypt_blocks/decrypt_blocks) against
the per-block reference, directly and through the CLI's chunked stream."""

import random

import pytest

from hc3cam import cli, hc3


def per_block(fn, data, ks):
    return b"".join(fn(data[off:off + 16], ks) for off in range(0, len(data), 16))


def test_batch_matches_per_block():
    rng = random.Random(71)
    for mode in hc3.MODES:
        ks = hc3.key_schedule(rng.randbytes(16), mode)
        assert hc3.decrypt(hc3.encrypt(bytes(16), ks), ks) == bytes(16)
        assert not ks.batch_tables   # the per-block path builds none
        for n in (0, 1, 2, 17, 300):
            data = rng.randbytes(16 * n)
            assert hc3.encrypt_blocks(data, ks) == per_block(hc3.encrypt, data, ks)
            assert hc3.decrypt_blocks(data, ks) == per_block(hc3.decrypt, data, ks)


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
