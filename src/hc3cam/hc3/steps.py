"""What every HIEROCRYPT-3 engine shares: the rounds and the steps of the
key schedule; the integer round core that the per-block rounds and
archsim's datapaths run; and, for the two byte-plane engines (batch, one
key; sliced, one key per block), MDS-lower of byte planes and a
direction's step order.
"""

from typing import NamedTuple

T_ROUNDS = 6   # rounds of the 128-bit-key cipher
T_TURN = 4     # last forward (sigma) step of the schedule


class ScheduleRow(NamedTuple):
    step: int
    op: str        # "sigma0" | "sigma" | "sigma_inv"
    g_index: int   # index into the G0 constant table


SCHEDULE_ROWS: tuple[ScheduleRow, ...] = (
    ScheduleRow(0, "sigma0", 5),
    ScheduleRow(1, "sigma", 0),
    ScheduleRow(2, "sigma", 1),
    ScheduleRow(3, "sigma", 2),
    ScheduleRow(4, "sigma", 3),
    ScheduleRow(5, "sigma_inv", 3),
    ScheduleRow(6, "sigma_inv", 2),
    ScheduleRow(7, "sigma_inv", 1),
)


def xs_core(v: int, k12: int, k34: int, consts, merged: bool = False) -> bytes:
    """The integer round core: XS of the state v up to its second s-box
    layer, as the 16 bytes that layer, or a map fused with it, reads;
    consts is the Hc3Constants whose maps it runs.

    merged runs the first s-box layer and MDS-lower as the fused
    merged_map instead of a translate and mdsl_map.
    """
    b = (v ^ k12).to_bytes(16, "big")
    y = consts.merged_map(b) if merged else consts.mdsl_map(b.translate(consts.sbox))
    return (y ^ k34).to_bytes(16, "big")


def products(planes, columns) -> list[int]:
    """MDS-lower of byte planes, as ints.  columns[p][i]: the product table
    of plane p into output byte i of its 32-bit word, with any byte map run
    on plane p before MDS-lower composed in.  With no map, one word's four
    column sets repeated (columns * 4)."""
    out = [0] * 16
    for p, (plane, column) in enumerate(zip(planes, columns)):
        for i, table in enumerate(column):
            # p & 12 is the first output byte of plane p's word
            out[p & 12 | i] ^= int.from_bytes(plane.translate(table), "little")
    return out


def program(halves, xs_steps, mds_h_step, whiten, inverse: bool):
    """The steps of one direction: xs_steps(k12, k34) of each round, in
    encryption order, joined by mds_h_step, and whiten(K1 K2 of K(7)) last
    (first, decrypting).  halves[t] is (K1 K2, K3 K4) of K(t + 1)."""
    rounds = [xs_steps(k12, k34) for k12, k34 in halves[:T_ROUNDS]]
    if inverse:
        rounds.reverse()
    steps = rounds[0]
    for more in rounds[1:]:
        steps += [mds_h_step, *more]
    last = whiten(halves[T_ROUNDS][0])
    return [last, *steps] if inverse else [*steps, last]
