"""The XOR-network route of GF(2^8) constant multiplication, and the MDS
check and the inverse of a 4x4 matrix over the field.

Beside gf256's bit-serial multiplier (`gf_mul`, the oracle) this module
keeps the hardware-style datapath: one XOR network per MDS_L constant
(`mul_const_network`, `mds_l_apply`).  The x C4 network is hard-coded
and cross-checked against the generated one when this module loads; the
other three are generated by symbolic reduction.  No command imports
this module: the acceptance criteria and the tests do, and
gf256.mul_const_network, gf256.mds_l_apply, gf256.mds_check and
gf256.mds_l_inverse resolve here on first read.

Bit 7 of a byte is the most significant bit throughout.
"""

from __future__ import annotations

from itertools import combinations

from . import gf2
from .gf256 import MDS_L, MDS_L_CONSTANTS, MdsMatrix4, gf_mul, images

# x C4 boolean network, one mask per output bit (index = output bit,
# bit j of the mask = input bit j):
#   OUT[7] = IN[7]^IN[2]^IN[1]^IN[0]    OUT[3] = IN[6]^IN[3]^IN[1]
#   OUT[6] = IN[6]^IN[1]^IN[0]          OUT[2] = IN[5]^IN[2]^IN[0]
#   OUT[5] = IN[5]^IN[2]^IN[1]          OUT[1] = IN[4]^IN[1]
#   OUT[4] = IN[7]^IN[4]^IN[2]          OUT[0] = IN[3]^IN[2]^IN[1]
C4_NETWORK = (0x0E, 0x12, 0x25, 0x4A, 0x94, 0x26, 0x43, 0x87)


def derive_network(c: int) -> tuple[int, ...]:
    """Masks of the XOR network for multiplication by c, one per output bit.

    Derived by multiplying each input basis bit symbolically and reducing.
    """
    masks = [0] * 8
    for j in range(8):
        prod = gf_mul(c, 1 << j)
        for i in range(8):
            if prod >> i & 1:
                masks[i] |= 1 << j
    return tuple(masks)


def _build_networks() -> dict[int, tuple[int, ...]]:
    nets = {c: derive_network(c) for c in MDS_L_CONSTANTS}
    if nets[0xC4] != C4_NETWORK:
        raise AssertionError("hard-coded x C4 network disagrees with derivation")
    return nets


_NETWORKS = _build_networks()


def mul_const_network(c: int, x: int) -> int:
    """Multiply x by one of the four MDS_L constants via its XOR network."""
    masks = _NETWORKS.get(c)
    if masks is None:
        raise ValueError(
            f"no boolean network for constant 0x{c:02X}; "
            f"supported: {', '.join(f'0x{k:02X}' for k in MDS_L_CONSTANTS)}"
        )
    out = 0
    for i, mask in enumerate(masks):
        out |= ((x & mask).bit_count() & 1) << i
    return out


def matrix_apply(m: MdsMatrix4, x: tuple[int, int, int, int]) -> tuple[int, ...]:
    """m times x, each product by gf_mul."""
    return tuple(
        gf_mul(row[0], x[0]) ^ gf_mul(row[1], x[1])
        ^ gf_mul(row[2], x[2]) ^ gf_mul(row[3], x[3])
        for row in m.entries
    )


def mds_l_inverse(m: MdsMatrix4 = MDS_L) -> MdsMatrix4:
    """Inverse matrix over GF(2^8), by gf2.invert on m's images as a 32x32
    bit matrix.  The images as rows are the transpose of m's bit matrix,
    so the inverted rows are the inverse's images, and the image of 1 at
    input byte j holds entry (i, j) in byte i.  ArithmeticError if m is
    singular.
    """
    try:
        inv = gf2.invert(images(m))
    except ValueError:
        raise ArithmeticError("singular matrix passed to mds_l_inverse") from None
    return MdsMatrix4(tuple(tuple(inv[8 * (3 - j)] >> 8 * (3 - i) & 0xFF for j in range(4))
                            for i in range(4)))


def mds_l_apply(x: tuple[int, int, int, int]) -> tuple[int, ...]:
    """MDS_L times x, each product going through its boolean network."""
    out = []
    for row in MDS_L.entries:
        acc = 0
        for c, xv in zip(row, x):
            acc ^= mul_const_network(c, xv)
        out.append(acc)
    return tuple(out)


def _det(rows: list[tuple[int, ...]]) -> int:
    # Cofactor expansion; n <= 4, exact field arithmetic.
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [tuple(r[k] for k in range(n) if k != j) for r in rows[1:]]
        det ^= gf_mul(rows[0][j], _det(minor))
    return det


def mds_check(m: MdsMatrix4) -> bool:
    """True iff every square submatrix is nonsingular (the MDS property)."""
    for size in range(1, 5):
        for rs in combinations(range(4), size):
            for cs in combinations(range(4), size):
                sub = [tuple(m.entries[r][c] for c in cs) for r in rs]
                if _det(sub) == 0:
                    return False
    return True
