"""Camellia-128: 18-round Feistel core, FL/FL-inverse layers, key schedule.

Decryption runs the identical network with the subkey order reversed
(whitening pairs swapped, round keys back to front, FL keys reversed).
encrypt_blocks/decrypt_blocks run that network on a whole batch of blocks
as byte planes (hc3cam.planes); key_schedule_sliced and
encrypt_sliced/decrypt_sliced run the key schedule and the network for a
batch with one key per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .. import gf2
from ..planes import block_count, key_planes, lookup, ones, run_sliced, run_steps, xor
from .constants import CamelliaConstants, get_constants

MASK8 = 0xFF
MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

N_ROUNDS = 18
FL_LAYER_ROUNDS = (6, 12)


class SigmaConstants(NamedTuple):
    sigma1: int
    sigma2: int
    sigma3: int
    sigma4: int
    sigma5: int
    sigma6: int


# Key schedule constants; sigma5/sigma6 belong to the 192/256-bit key
# path and are carried for completeness only.
SIGMA = SigmaConstants(
    0xA09E667F3BCC908B,
    0xB67AE8584CAA73B2,
    0xC6EF372FE94F82BE,
    0x54FF53A5F1D36F1C,
    0x10E527FADE682D1D,
    0xB05688C2B3E6C1FD,
)

# Rotation amounts Table 4.2 draws subkeys from.
SUBKEY_ROTATIONS = (0, 15, 30, 45, 60, 77, 94, 111)


class KeyVars(NamedTuple):
    kl_var: int   # 128-bit K_L
    kr_var: int   # 128-bit K_R (zero for 128-bit keys)
    ka_var: int   # 128-bit K_A


@dataclass(frozen=True)
class CamelliaSubkeys:
    kw: tuple[int, int, int, int]
    k: tuple[int, ...]              # k1..k18
    kl: tuple[int, int, int, int]
    # the constant set the subkeys were derived with; the cipher uses it for
    # every block, so a set loaded later can never be paired with these keys
    consts: CamelliaConstants = field(compare=False, repr=False)
    key_vars: KeyVars | None = None
    # by direction, the program of the batch engine (encrypt_blocks) for
    # the size of the last batch, built on first use
    batch_tables: dict = field(default_factory=dict, init=False, compare=False,
                               repr=False)


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
    x ^= k
    t = consts.f_tables
    return (t[0][x >> 56 & MASK8] ^ t[1][x >> 48 & MASK8]
            ^ t[2][x >> 40 & MASK8] ^ t[3][x >> 32 & MASK8]
            ^ t[4][x >> 24 & MASK8] ^ t[5][x >> 16 & MASK8]
            ^ t[6][x >> 8 & MASK8] ^ t[7][x & MASK8])


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


def _halves(x: int) -> tuple[int, int]:
    return x >> 64, x & MASK64


def key_schedule(key: bytes,
                 consts: CamelliaConstants | None = None) -> CamelliaSubkeys:
    """Derive kw1..4, k1..18, kl1..4 for a 128-bit key."""
    consts = consts or get_constants()
    if len(key) != 16:
        raise ValueError(f"camellia key must be 16 bytes, got {len(key)}")
    kl_var = int.from_bytes(key, "big")
    kr_var = 0

    d1, d2 = _halves(kl_var ^ kr_var)
    d2 ^= f_function(d1, SIGMA.sigma1, consts)
    d1 ^= f_function(d2, SIGMA.sigma2, consts)
    d1 ^= kl_var >> 64
    d2 ^= kl_var & MASK64
    d2 ^= f_function(d1, SIGMA.sigma3, consts)
    d1 ^= f_function(d2, SIGMA.sigma4, consts)
    ka_var = d1 << 64 | d2

    kw1, kw2 = _halves(_rot128(kl_var, 0))
    k1, k2 = _halves(_rot128(ka_var, 0))
    k3, k4 = _halves(_rot128(kl_var, 15))
    k5, k6 = _halves(_rot128(ka_var, 15))
    kl1, kl2 = _halves(_rot128(ka_var, 30))
    k7, k8 = _halves(_rot128(kl_var, 45))
    k9 = _rot128(ka_var, 45) >> 64
    k10 = _rot128(kl_var, 60) & MASK64
    k11, k12 = _halves(_rot128(ka_var, 60))
    kl3, kl4 = _halves(_rot128(kl_var, 77))
    k13, k14 = _halves(_rot128(kl_var, 94))
    k15, k16 = _halves(_rot128(ka_var, 94))
    k17, k18 = _halves(_rot128(kl_var, 111))
    kw3, kw4 = _halves(_rot128(ka_var, 111))

    return CamelliaSubkeys(
        kw=(kw1, kw2, kw3, kw4),
        k=(k1, k2, k3, k4, k5, k6, k7, k8, k9, k10,
           k11, k12, k13, k14, k15, k16, k17, k18),
        kl=(kl1, kl2, kl3, kl4),
        consts=consts,
        key_vars=KeyVars(kl_var, kr_var, ka_var),
    )


def _decrypt_order(kw, k, kl):
    """Whitening, round and FL keys in the order decryption uses them."""
    return (kw[2], kw[3], kw[0], kw[1]), k[::-1], kl[::-1]


def reverse_subkeys(sk: CamelliaSubkeys) -> CamelliaSubkeys:
    """Subkey order for decryption through the same network."""
    kw, k, kl = _decrypt_order(sk.kw, sk.k, sk.kl)
    return CamelliaSubkeys(kw=kw, k=k, kl=kl, consts=sk.consts, key_vars=sk.key_vars)


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
    return _run(block, sk.consts, *_decrypt_order(sk.kw, sk.k, sk.kl))


# --- byte-plane network (see hc3cam.planes) ---------------------------------
#
# The left half of a block is planes 0-7 and the right half planes 8-15,
# byte 0 of each half its most significant, all held as big ints.  Every
# subkey is eight planes, a key byte per slice: key additions are XORs of
# whole planes, F's s-boxes one unkeyed translate per plane and P an XOR of
# whole planes; FL and FL^-1 work on the four planes of each 32-bit word.
# encrypt_blocks/decrypt_blocks run the network with one key repeated in
# every slice; key_schedule_sliced puts a different key in each.
#
# The key-sliced schedule: KA is four F rounds keyed by planes of the Sigma
# constants.  A rotation of KL or KA by 8q + s bits re-indexes the sixteen
# planes by q and moves s bits between neighbouring planes under masks of
# one repeated byte (Matsui-Nakajima, CHES 2007).

def _f_round(left, right, n, arg):
    """left, right = right ^ F(left, key), left; key: eight planes."""
    key, (boxes, rows) = arg
    s = [lookup(v ^ k, t, n) for v, k, t in zip(left, key, boxes)]
    return [r ^ f for r, f in zip(right, gf2.apply_rows(rows, s))], left


def _fl_layer(left, right, n, keys):
    """FL on the left half and FL^-1 on the right; keys: the eight key
    planes of each, a key byte per slice."""
    rep = ones(n)

    def or_key(word, key):
        return [v | k for v, k in zip(word, key)]

    def rotl1_and_key(word, key):
        # byte i of (word <<< 1) is (b_i << 1) | (b_(i+1) >> 7)
        a = [v & k for v, k in zip(word, key)]
        return [((a[i] << 1) & (0xFE * rep)) | ((a[(i + 1) % 4] >> 7) & rep)
                for i in range(4)]

    k_fl, k_inv = keys
    yr = xor(rotl1_and_key(left[:4], k_fl[:4]), left[4:])
    yl = xor(or_key(yr, k_fl[4:]), left[:4])
    xl = xor(or_key(right[4:], k_inv[4:]), right[:4])
    xr = xor(rotl1_and_key(xl, k_inv[:4]), right[4:])
    return yl + yr, xl + xr


def _whiten(left, right, n, keys):
    """XOR key planes into both halves."""
    k_left, k_right = keys
    return xor(left, k_left), xor(right, k_right)


def _network(planes, rounds):
    """Whitening, the 18 rounds with their FL layers, whitening."""
    n = len(planes[0])
    ints = [int.from_bytes(plane, "little") for plane in planes]
    left, right = ints[:8], ints[8:]
    for layer, arg in rounds:
        left, right = layer(left, right, n, arg)
    # the output halves are swapped back after the last round
    return [v.to_bytes(n, "little") for v in right + left]


def _program(kw, k, kl, consts: CamelliaConstants):
    """The network keyed by planes of subkeys in the order used: whitening
    words kw (pre left, pre right, post left, post right), round keys k
    and FL keys kl, FL layers after rounds 6 and 12."""
    rest = (consts.sbox_order, consts.p_rows)
    rounds = [(_whiten, (kw[0], kw[1]))]
    fl_keys = iter(kl)
    for r, key in enumerate(k, 1):
        rounds.append((_f_round, (key, rest)))
        if r in FL_LAYER_ROUNDS:
            rounds.append((_fl_layer, (next(fl_keys), next(fl_keys))))
    # the post-whitening pair lands on the halves before they swap back
    rounds.append((_whiten, (kw[3], kw[2])))
    return [(_network, rounds)]


def _repeated(sk: CamelliaSubkeys, decrypt: bool, n: int):
    """The program for sk in every one of n slices."""
    rep = ones(n)

    def planes(words):
        return [[b * rep for b in w.to_bytes(8, "big")] for w in words]

    order = _decrypt_order(sk.kw, sk.k, sk.kl) if decrypt else (sk.kw, sk.k, sk.kl)
    return _program(*map(planes, order), sk.consts)


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


class CamelliaSlicedSubkeys(NamedTuple):
    """kw, k and kl of n keys, each subkey eight planes (most significant
    byte first), byte i of each plane belonging to key i; consts is the
    set they were derived with, as in CamelliaSubkeys."""

    n: int
    kw: tuple
    k: tuple
    kl: tuple
    consts: CamelliaConstants


def _rotl_planes(x, r: int, rep: int) -> list[int]:
    """The sixteen planes of 128-bit values rotated left by r bits."""
    q, s = divmod(r, 8)
    if not s:
        return x[q:] + x[:q]
    hi, lo = (0xFF << s & 0xFF) * rep, ((1 << s) - 1) * rep
    return [(x[(b + q) % 16] << s & hi) | (x[(b + q + 1) % 16] >> (8 - s) & lo)
            for b in range(16)]


def key_schedule_sliced(keys: bytes) -> CamelliaSlicedSubkeys:
    """kw1..4, k1..18 and kl1..4 of every 16-byte key in keys, on planes.

    Slice i holds the subkeys key_schedule(keys[16 i:16 i + 16]) builds.
    """
    consts = get_constants()
    kl_var, n = key_planes(keys, "camellia")
    rep = ones(n)
    rest = (consts.sbox_order, consts.p_rows)
    left, right = kl_var[:8], kl_var[8:]
    for r, sigma in enumerate(SIGMA[:4]):
        key = [b * rep for b in sigma.to_bytes(8, "big")]
        left, right = _f_round(left, right, n, (key, rest))
        if r == 1:
            left, right = xor(left, kl_var[:8]), xor(right, kl_var[8:])
    ka_var = left + right

    kl_rot = {r: _rotl_planes(kl_var, r, rep) for r in (0, 15, 45, 60, 77, 94, 111)}
    ka_rot = {r: _rotl_planes(ka_var, r, rep) for r in (0, 15, 30, 45, 60, 94, 111)}

    def halves(x):
        return x[:8], x[8:]

    return CamelliaSlicedSubkeys(
        n,
        kw=(*halves(kl_rot[0]), *halves(ka_rot[111])),
        k=(*halves(ka_rot[0]), *halves(kl_rot[15]), *halves(ka_rot[15]),
           *halves(kl_rot[45]), ka_rot[45][:8], kl_rot[60][8:], *halves(ka_rot[60]),
           *halves(kl_rot[94]), *halves(ka_rot[94]), *halves(kl_rot[111])),
        kl=(*halves(ka_rot[30]), *halves(kl_rot[77])),
        consts=consts,
    )


def encrypt_sliced(data: bytes, sk: CamelliaSlicedSubkeys) -> bytes:
    """Encrypt block i of data under key i of a key-sliced schedule; equal
    to encrypt() of every block under its own key_schedule()."""
    return run_sliced(data, "camellia", sk.n, _program(sk.kw, sk.k, sk.kl, sk.consts))


def decrypt_sliced(data: bytes, sk: CamelliaSlicedSubkeys) -> bytes:
    """Decrypt block i of data under key i of a key-sliced schedule."""
    return run_sliced(data, "camellia", sk.n,
                      _program(*_decrypt_order(sk.kw, sk.k, sk.kl), sk.consts))
