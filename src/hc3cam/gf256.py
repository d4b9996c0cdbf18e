"""GF(2^8) arithmetic over the HIEROCRYPT-3 field x^8 + x^6 + x^5 + x + 1.

Two independent routes to every constant multiplication are kept on
purpose: a bit-serial shift-and-reduce multiplier (`gf_mul`, the oracle)
and per-constant XOR networks (`mul_const_network`, the hardware-style
datapath).  The x C4 network is hard-coded and cross-checked against the
generated one; the other three are generated by symbolic reduction.

Bit 7 of a byte is the most significant bit throughout.
"""

from __future__ import annotations

from collections import namedtuple

HC3_POLY = 0x163  # x^8 + x^6 + x^5 + x + 1


def gf_mul(a: int, b: int) -> int:
    """Carry-free product of a and b reduced mod HC3_POLY.

    Bit-serial (Russian peasant); used as the oracle and table generator.
    """
    r = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= HC3_POLY
        b >>= 1
    return r


def gf_pow(a: int, e: int) -> int:
    r = 1
    base = a & 0xFF
    while e:
        if e & 1:
            r = gf_mul(r, base)
        base = gf_mul(base, base)
        e >>= 1
    return r


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return gf_pow(a, 254)


# MDS lower level: circulant over (C4, 65, C8, 8B).
MDS_L_CONSTANTS = (0xC4, 0x65, 0xC8, 0x8B)

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


class MdsMatrix4(namedtuple("MdsMatrix4", "entries")):
    """4x4 matrix over GF(2^8), rows of 4 byte entries."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, int, int, int], ...]):
        if len(entries) != 4 or any(len(r) != 4 for r in entries):
            raise ValueError("need a 4x4 matrix")
        return super().__new__(cls, entries)

    def apply(self, x: tuple[int, int, int, int]) -> tuple[int, ...]:
        return tuple(
            gf_mul(row[0], x[0]) ^ gf_mul(row[1], x[1])
            ^ gf_mul(row[2], x[2]) ^ gf_mul(row[3], x[3])
            for row in self.entries
        )


def circulant(first_row: tuple[int, int, int, int]) -> MdsMatrix4:
    rows = tuple(
        tuple(first_row[(j - i) % 4] for j in range(4)) for i in range(4)
    )
    return MdsMatrix4(rows)


MDS_L = circulant(MDS_L_CONSTANTS)


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
    from itertools import combinations

    for size in range(1, 5):
        for rs in combinations(range(4), size):
            for cs in combinations(range(4), size):
                sub = [tuple(m.entries[r][c] for c in cs) for r in rs]
                if _det(sub) == 0:
                    return False
    return True


def mds_l_inverse(m: MdsMatrix4 = MDS_L) -> MdsMatrix4:
    """Inverse matrix over GF(2^8) by Gaussian elimination."""
    work = [list(r) for r in m.entries]
    inv = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for col in range(4):
        pivot = next((r for r in range(col, 4) if work[r][col]), None)
        if pivot is None:
            raise ArithmeticError("singular matrix passed to mds_l_inverse")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = gf_inv(work[col][col])
        work[col] = [gf_mul(scale, v) for v in work[col]]
        inv[col] = [gf_mul(scale, v) for v in inv[col]]
        for r in range(4):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a ^ gf_mul(f, b) for a, b in zip(work[r], work[col])]
                inv[r] = [a ^ gf_mul(f, b) for a, b in zip(inv[r], inv[col])]
    return MdsMatrix4(tuple(tuple(r) for r in inv))
