"""Camellia-128's single-key byte-plane engine: the network of
hc3cam.camellia.steps with one key repeated in every slice."""

from __future__ import annotations

from ..planes import block_count, ones, run_steps
from .cipher import CamelliaSubkeys
from .steps import decrypt_order, program


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
    # the key planes are as wide as the batch: keep the program of the last
    # batch size only
    programs = sk.batch_tables.setdefault(decrypt, {})
    if n not in programs:
        programs.clear()
        programs[n] = _repeated(sk, decrypt, n)
    return run_steps(data, programs[n])


def encrypt_blocks(data: bytes, sk: CamelliaSubkeys) -> bytes:
    """ECB-encrypt a multiple of 16 bytes in one batch; equal to encrypt()
    on every block."""
    return _run_blocks(data, sk, False)


def decrypt_blocks(data: bytes, sk: CamelliaSubkeys) -> bytes:
    """ECB-decrypt a multiple of 16 bytes in one batch; equal to decrypt()
    on every block."""
    return _run_blocks(data, sk, True)
