"""Camellia-128's single-key byte-plane engine: the network of
hc3cam.camellia.steps with one key repeated in every slice.

The key planes are as wide as the batch, so a program serves one
(subkeys, direction, batch size).  The last two are kept: a stream's
full chunks and its last one, or one key's two directions."""

from __future__ import annotations

from functools import lru_cache

from ..planes import block_count, ones, run_steps
from .cipher import CamelliaSubkeys
from .steps import decrypt_order, program


@lru_cache(maxsize=2)
def _repeated(sk: CamelliaSubkeys, decrypt: bool, n: int):
    """The program for sk in every one of n slices."""
    rep = ones(n)

    def planes(words):
        return [[b * rep for b in w.to_bytes(8, "big")] for w in words]

    order = decrypt_order(sk.kw, sk.k, sk.kl) if decrypt else (sk.kw, sk.k, sk.kl)
    return program(*map(planes, order), sk.consts)


def _run_blocks(data: bytes, sk: CamelliaSubkeys, decrypt: bool) -> bytes:
    n = block_count(data, "camellia")
    if not n:
        return b""
    return run_steps(data, _repeated(sk, decrypt, n))


def encrypt_blocks(data: bytes, sk: CamelliaSubkeys) -> bytes:
    """ECB-encrypt a multiple of 16 bytes in one batch; equal to encrypt()
    on every block."""
    return _run_blocks(data, sk, False)


def decrypt_blocks(data: bytes, sk: CamelliaSubkeys) -> bytes:
    """ECB-decrypt a multiple of 16 bytes in one batch; equal to decrypt()
    on every block."""
    return _run_blocks(data, sk, True)
