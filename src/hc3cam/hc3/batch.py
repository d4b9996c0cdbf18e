"""HIEROCRYPT-3's single-key byte-plane engine (see hc3cam.planes).

An s-box layer with its key addition is one translate per plane,
MDS-lower one translate per (input byte, output byte) pair whose results
XOR as big ints, and MDS-higher an XOR of whole planes.  Under one key
the key additions are in the translate tables and the planes stay bytes
between layers.  The program of a (schedule, direction) is built on its
first call with data and kept for the last two, so one key's encryption
and decryption both stay built.
"""

from __future__ import annotations

from functools import lru_cache

from .. import gf2
from ..planes import block_count, run_steps
from .constants import IDENTITY
from .keyschedule import Hc3KeySchedule, key_halves
from .steps import products, program

# bytes(range(256)) and 256 bytes of 1 as ints: ID_INT ^ k * ONES_256 is
# the table x -> x ^ k in one XOR
ID_INT = int.from_bytes(bytes(range(256)), "big")
ONES_256 = int.from_bytes(b"\x01" * 256, "big")


def keyed_tables(box: bytes, key: bytes, inverse: bool = False) -> tuple[bytes, ...]:
    """Per-plane tables of an s-box layer with a key addition: box[x ^ k_p]
    (key added before the box), or box[x] ^ k_p (after) if inverse."""
    out = []
    for k in key:
        xor = (ID_INT ^ k * ONES_256).to_bytes(256, "big")
        out.append(box.translate(xor) if inverse else xor.translate(box))
    return tuple(out)


def _sub(planes, tables):
    """One translate per plane."""
    return [plane.translate(table) for plane, table in zip(planes, tables)]


def _mds_l_bytes(planes, columns):
    n = len(planes[0])
    return [v.to_bytes(n, "little") for v in products(planes, columns)]


def _mds_h_bytes(planes, rows):
    n = len(planes[0])
    ints = [int.from_bytes(plane, "little") for plane in planes]
    return [v.to_bytes(n, "little") for v in gf2.apply_rows(rows, ints)]


@lru_cache(maxsize=2)
def _plane_program(ks: Hc3KeySchedule, inverse: bool):
    consts = ks.consts
    if inverse:
        box, rows, columns = consts.sbox_inv, consts.mds_h_inv_rows, consts.mdsl_inv_columns
    else:
        box, rows, columns = consts.sbox, consts.mds_h_rows, consts.mdsl_columns

    def keyed(k, box):
        return _sub, keyed_tables(box, k.to_bytes(16, "big"), inverse)

    def xs_steps(k12, k34):
        # decryption runs XS backwards, each key added after its s-box
        first, second = (k34, k12) if inverse else (k12, k34)
        return [keyed(first, box), (_mds_l_bytes, columns), keyed(second, box)]

    return program(list(map(key_halves, ks.round_keys)), xs_steps, (_mds_h_bytes, rows),
                   lambda k: keyed(k, IDENTITY), inverse)


def _run_blocks(data: bytes, ks: Hc3KeySchedule, inverse: bool) -> bytes:
    if not block_count(data, "hc3"):
        return b""
    return run_steps(data, _plane_program(ks, inverse))


def encrypt_blocks(data: bytes, ks: Hc3KeySchedule) -> bytes:
    """ECB-encrypt a multiple of 16 bytes in one batch; equal to encrypt()
    on every block."""
    return _run_blocks(data, ks, False)


def decrypt_blocks(data: bytes, ks: Hc3KeySchedule) -> bytes:
    """ECB-decrypt a multiple of 16 bytes in one batch; equal to decrypt()
    on every block."""
    return _run_blocks(data, ks, True)
