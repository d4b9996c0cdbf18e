"""Camellia-128: 18-round Feistel core, FL/FL-inverse layers, key schedule.

Decryption runs the identical network with the subkey order reversed
(whitening pairs swapped, round keys back to front, FL keys reversed).
These are the per-block reference rounds and the per-key schedule; the
byte-plane engines are hc3cam.camellia.batch (one key) and
hc3cam.camellia.sliced (one key per block).
"""

from __future__ import annotations

from typing import NamedTuple

from .constants import CamelliaConstants, get_constants
from .steps import FL_LAYER_ROUNDS, N_ROUNDS, SIGMA, SUBKEY_LAYOUT, decrypt_order

MASK8 = 0xFF
MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1


class KeyVars(NamedTuple):
    kl_var: int   # 128-bit K_L
    kr_var: int   # 128-bit K_R (zero for 128-bit keys)
    ka_var: int   # 128-bit K_A


class CamelliaSubkeys(NamedTuple):
    """The subkeys of one key and the constant set they were derived with:
    the cipher uses it for every block, so a set loaded later can never be
    paired with these keys.  Both constants classes compare by identity,
    so two subkey sets are equal only under one constant set."""

    kw: tuple[int, int, int, int]
    k: tuple[int, ...]                  # k1..k18
    kl: tuple[int, int, int, int]
    consts: CamelliaConstants
    key_vars: KeyVars


def p_layer(x: int, consts: CamelliaConstants) -> int:
    """Byte-XOR diffusion of the F-function."""
    out = 0
    for i, mask in enumerate(consts.p_rows):
        acc = 0
        for j in range(8):
            if mask >> j & 1:
                acc ^= (x >> (8 * (7 - j))) & MASK8
        out |= acc << (8 * (7 - i))
    return out


def sbox_layer(x: int, consts: CamelliaConstants) -> int:
    """The eight per-position s-box lookups of the F-function."""
    out = 0
    for pos, box in enumerate(consts.sbox_order):
        out |= box[(x >> (8 * (7 - pos))) & MASK8] << (8 * (7 - pos))
    return out


def f_function(x: int, k: int, consts: CamelliaConstants | None = None) -> int:
    """Key addition, s-boxes, P layer (fused per-byte tables)."""
    consts = consts or get_constants()
    return consts.f_map(((x ^ k) & MASK64).to_bytes(8, "big"))


def _rotl32(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & MASK32


def fl(x: int, kl_key: int) -> int:
    """Y_R = ((X_L AND kl_L) <<< 1) XOR X_R;  Y_L = (Y_R OR kl_R) XOR X_L."""
    xl, xr = x >> 32, x & MASK32
    kl_l, kl_r = kl_key >> 32, kl_key & MASK32
    yr = _rotl32(xl & kl_l, 1) ^ xr
    yl = (yr | kl_r) ^ xl
    return yl << 32 | yr


def fl_inv(y: int, kl_key: int) -> int:
    yl, yr = y >> 32, y & MASK32
    kl_l, kl_r = kl_key >> 32, kl_key & MASK32
    xl = (yr | kl_r) ^ yl
    xr = _rotl32(xl & kl_l, 1) ^ yr
    return xl << 32 | xr


def _rot128(x: int, n: int) -> int:
    n %= 128
    return ((x << n) | (x >> (128 - n))) & MASK128


def key_schedule(key: bytes,
                 consts: CamelliaConstants | None = None) -> CamelliaSubkeys:
    """Derive kw1..4, k1..18, kl1..4 for a 128-bit key: K_A from four
    rounds of the per-block F keyed by Sigma1..4, then the subkey table."""
    consts = consts or get_constants()
    if len(key) != 16:
        raise ValueError(f"camellia key must be 16 bytes, got {len(key)}")
    kl_var = int.from_bytes(key, "big")
    kr_var = 0

    d1, d2 = (kl_var ^ kr_var) >> 64, (kl_var ^ kr_var) & MASK64
    d2 ^= f_function(d1, SIGMA.sigma1, consts)
    d1 ^= f_function(d2, SIGMA.sigma2, consts)
    d1 ^= kl_var >> 64
    d2 ^= kl_var & MASK64
    d2 ^= f_function(d1, SIGMA.sigma3, consts)
    d1 ^= f_function(d2, SIGMA.sigma4, consts)
    ka_var = d1 << 64 | d2

    sources, subkeys = (kl_var, ka_var), [None] * 26
    for var, r, left, right in SUBKEY_LAYOUT:
        x = _rot128(sources[var], r)
        if left is not None:
            subkeys[left] = x >> 64
        if right is not None:
            subkeys[right] = x & MASK64
    return CamelliaSubkeys(
        kw=tuple(subkeys[:4]), k=tuple(subkeys[4:22]), kl=tuple(subkeys[22:]),
        consts=consts, key_vars=KeyVars(kl_var, kr_var, ka_var))


def reverse_subkeys(sk: CamelliaSubkeys) -> CamelliaSubkeys:
    """Subkey order for decryption through the same network."""
    kw, k, kl = decrypt_order(sk.kw, sk.k, sk.kl)
    return sk._replace(kw=kw, k=k, kl=kl)


def _run(block: bytes, consts: CamelliaConstants, kw, k, kl) -> bytes:
    """The network keyed by whitening words kw (pre left, pre right, post
    left, post right), round keys k and FL keys kl, in the order used."""
    if len(block) != 16:
        raise ValueError(f"camellia block must be 16 bytes, got {len(block)}")
    m = int.from_bytes(block, "big")
    left = (m >> 64) ^ kw[0]
    right = (m & MASK64) ^ kw[1]
    fl_index = 0
    for r in range(1, N_ROUNDS + 1):
        left, right = right ^ f_function(left, k[r - 1], consts), left
        if r in FL_LAYER_ROUNDS:
            left = fl(left, kl[fl_index])
            right = fl_inv(right, kl[fl_index + 1])
            fl_index += 2
    c = ((right ^ kw[2]) << 64) | (left ^ kw[3])
    return c.to_bytes(16, "big")


def encrypt(block: bytes, sk: CamelliaSubkeys) -> bytes:
    return _run(block, sk.consts, sk.kw, sk.k, sk.kl)


def decrypt(block: bytes, sk: CamelliaSubkeys) -> bytes:
    return _run(block, sk.consts, *decrypt_order(sk.kw, sk.k, sk.kl))
