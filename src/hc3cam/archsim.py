"""Cycle-level model of five FPGA datapath variants.

Four HIEROCRYPT-3 projects (short setup, long setup, very long setup,
extensive) and one loop-unrolled-by-3 Camellia project are modeled as
two-phase devices: a setup phase that precomputes key material and a
work phase that processes one 128-bit block in a fixed number of clock
cycles.  Each datapath is declared once, in _DATAPATHS: its cipher, its
setup and work cycles' labels, and a per-key setup function that returns
the per-block work function, with the key material and every table it
reads bound in.  PROFILES reads its figures other than the paper's from
there.  run_block keeps the last work function in a one-entry key
register and builds a block's trace from the cycle states it returns; a
Device runs the blocks of one key between the handshake's setup and WORK
pulses.  Every work cycle executes the real cipher sub-operations, so a
trace's ciphertext is checkable against the functional model; latencies
and resource figures are metadata, not gate-level timing.

Published throughput figures that disagree with 128 * f / cycles are
kept verbatim on the profiles and surfaced as flagged deviations.

Only `simulate` imports this module.  A profile file's reader and writer
(parse_profile, format_profile) live in hc3cam.profile_file, which only
`simulate --profile-file`, the tests and the scripts import.  The HC3
datapaths run the per-key schedule (hc3.keyschedule) and the round core
hc3.xs_core (hc3.steps), so `simulate` of an HC3 variant compiles none of
the per-block reference rounds (hc3.cipher, hc3.linear).  camellia-lu3
runs the per-key schedule (camellia.cipher) once, then reads the constant
set's f_tables and holds its FL/FL-inverse keys as 32-bit halves: its
blocks call none of the cipher's F or FL functions, which stay the tests'
oracle for every cycle.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from types import ModuleType
from typing import Callable, NamedTuple


class MicroOp(NamedTuple):
    label: str
    ns: float | None = None


class ArchProfile(NamedTuple):
    """One datapath variant's figures; _replace(**fields) gives a copy with
    some of them changed."""

    variant: str
    cipher: str                      # "hc3" | "camellia"
    datapath: str                    # which built-in cycle schedule runs blocks
    work_cycles_per_block: int
    setup_schedule: tuple[MicroOp, ...]
    clock_mhz: float | None = None
    paper_throughput_mbps: float | None = None
    resources: str = ""
    critical_path_label: str = ""
    critical_path_ns: float | None = None

    @property
    def max_clock_mhz(self) -> float | None:
        """Clock bound implied by the critical path, when one is given;
        ValueError when 1000 / ns is not finite."""
        if self.critical_path_ns is None:
            return None
        mhz = 1000.0 / self.critical_path_ns
        if not math.isfinite(mhz):
            raise ValueError(f"1000 / {self.critical_path_ns:g} ns is not a finite clock")
        return mhz


# --- two-phase device handshake ------------------------------------------

SETUP, READY, WORKING, REARM = "setup", "ready", "working", "rearm"


class DeviceState(NamedTuple):
    """One encryption unit stepped a clock tick at a time.

    RESET drops READY at its edge; retained setup results let READY rise
    again one tick later.  A RESET arriving mid-block does not cut the
    WORK pulse short: the block in flight completes its exact cycle
    count first.  A tuple, so the new state of every tick is cheap to build.
    """

    profile: ArchProfile
    phase: str = SETUP
    ready: bool = False
    work: bool = False
    cycle_counter: int = 0
    blocks_done: int = 0
    setup_index: int = 0
    work_left: int = 0


def initial_state(profile: ArchProfile) -> DeviceState:
    return DeviceState(profile=profile)


# builds a NamedTuple from its fields in order, without NamedTuple.__new__'s
# keyword handling
_new = tuple.__new__


def step(state: DeviceState, reset_edge: bool = False,
         start_edge: bool = False) -> DeviceState:
    """Advance one clock tick; inputs are this tick's edges."""
    profile, phase, ready, work, cycle, blocks, idx, left = state

    if phase == SETUP:
        # START is ignored while READY is low; RESET restarts the setup.
        idx = 0 if reset_edge else idx + 1
        if idx >= len(profile.setup_schedule):
            phase, ready = READY, True
    else:
        if reset_edge:
            ready = False
        if phase == WORKING:
            left -= 1
            if left <= 0:
                phase = READY if ready else REARM
                work, left, blocks = False, 0, blocks + 1
        elif phase == REARM or not ready:
            if reset_edge:
                phase = REARM
            else:
                phase, ready = READY, True
        elif start_edge and not reset_edge:
            # phase == READY with READY high
            phase, work, left = WORKING, True, profile.work_cycles_per_block
    return _new(DeviceState, (profile, phase, ready, work, cycle + 1, blocks, idx, left))


# --- per-cycle block execution -------------------------------------------

class CycleRecord(NamedTuple):
    index: int                 # 1-based work cycle number
    ops: tuple[str, ...]
    state: bytes               # the 16-byte datapath state after the cycle

    @property
    def state_hex(self) -> str:
        return self.state.hex()


class BlockTrace(NamedTuple):
    """One block's run: each work cycle's op labels (the datapath's, shared
    by every block) and the 128-bit state after it, as the int the cycle
    computed, then the ciphertext.  The last state is the ciphertext."""

    ops: tuple[tuple[str, ...], ...]
    states: tuple[int, ...]
    ciphertext: bytes

    @property
    def cycles(self) -> tuple[CycleRecord, ...]:
        """The cycles as records, each state as its 16 bytes: built when
        read, as no command reads a state."""
        return tuple(_new(CycleRecord, (i, ops, state.to_bytes(16, "big")))
                     for i, (ops, state) in enumerate(zip(self.ops, self.states), 1))


class Datapath(NamedTuple):
    """A built-in datapath, declared once: its cipher, the labels of its
    setup cycles and of each work cycle, and setup(package, key, consts)
    -> work, run once per key.  setup reads its cipher package, hc3 or
    cam, at call time (a substituted key_schedule sees the call); work(block)
    returns the int state after each work cycle, the ciphertext last, with
    everything a block reads bound in."""

    cipher: str
    setup_schedule: tuple[MicroOp, ...]
    ops: tuple[tuple[str, ...], ...]
    setup: Callable


def _hc3(short: bool = False, split: bool = False, merged: bool = False,
         merge_xs_ak: bool = False) -> Datapath:
    """An HC3 datapath: five rho rounds, XS and AK on one integer state, a
    rho round being the XS core followed by the s-box-fused MDS-higher map;
    round r takes K(r) as its pair (K1 K2, K3 K4).

    keys() gives the seven pairs a block reads.  short holds only Z(0) and
    walks all seven from it at the start of every block; the last cycle
    restores the round-1 state for the next one.  Otherwise setup fills the
    1600-bit cache, split spreading each sigma update over three ~28 ns
    cycles, and the pairs derived from it are bound in.  merged runs XS on
    the fused s-box/MDS-lower tables; merge_xs_ak runs XS and AK in one
    cycle.
    """
    sigma = ["pre-whitening sigma step 0 (G0(5))",
             *(f"sigma step {t} (G0({t - 1}))" for t in range(1, 5))]
    schedule = [MicroOp("load main key; pad with H3||H2")]
    if short:
        schedule += (MicroOp(sigma[0] + " -> Z(0)"), MicroOp(sigma[1] + " -> Z(1)"),
                     MicroOp("round key K(1) -> subkey buffer"))
        # cycle r + 1 runs round r beside the key round of schedule step
        # r + 1 (sigma up to step 4, sigma-inverse after it)
        ops = (("load plaintext",),
               *((f"rho round {r} (K({r}))",
                  f"key round: {'sigma' if r < 4 else 'sigma-inv'} step {r + 1} -> K({r + 1})")
                 for r in range(1, 6)),
               ("XS (K(6))", "key round: sigma-inv step 7 -> K(7)"),
               ("AK (K(7) first half)", "restore Z(0) and K(1) for next block"))
    else:
        if split:
            schedule += (MicroOp(f"{s} cycle {i}/3: {what}", 28.0) for s in sigma
                         for i, what in enumerate(("P(32) of Z1||Z2", "M_5E and constant add",
                                                   "F_sigma and swap"), 1))
        else:
            schedule += (MicroOp(f"{s}; store Z({t})" + (f", V({t})" if t else ""))
                         for t, s in enumerate(sigma))
        schedule += (MicroOp("compute V(5); 1600-bit cache complete"),
                     MicroOp("derive K(1) from cache -> subkey buffer"))
        via, from_cache = " via fused tables" if merged else "", "subkey from 1600-bit cache"
        ops = (("load plaintext", from_cache),
               *((f"rho round {r} (K({r})){via}", from_cache) for r in range(1, 6)),
               *([(f"XS (K(6)){via} + AK (K(7)) merged",)] if merge_xs_ak
                 else [(f"XS (K(6)){via}",), ("AK (K(7) first half)",)]))

    def setup(hc3: ModuleType, key: bytes, consts):
        core, fused, sbox, halves = hc3.xs_core, consts.sbox_mds_h_map, consts.sbox, hc3.key_halves
        if short:
            walk, z0 = hc3.walk_schedule, hc3.pad_and_prewhiten(key, consts)

            def keys():
                return [halves(rk) for rk, _, _ in walk(z0, consts)]
        else:
            pairs = tuple(map(halves, hc3.key_schedule(key, "cached_1600", consts).round_keys))

            def keys():
                return pairs

        def work(block: bytes) -> tuple[int, ...]:
            # K(1)..K(5) key the rho rounds, K(6) XS and K(7)'s first half AK
            (a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5), (a6, b6), (ak, _) = keys()
            v0 = int.from_bytes(block, "big")
            v1 = fused(core(v0, a1, b1, consts, merged))
            v2 = fused(core(v1, a2, b2, consts, merged))
            v3 = fused(core(v2, a3, b3, consts, merged))
            v4 = fused(core(v3, a4, b4, consts, merged))
            v5 = fused(core(v4, a5, b5, consts, merged))
            x = int.from_bytes(core(v5, a6, b6, consts, merged).translate(sbox), "big")
            if merge_xs_ak:
                return v0, v1, v2, v3, v4, v5, x ^ ak
            return v0, v1, v2, v3, v4, v5, x, x ^ ak
        return work
    return Datapath("hc3", tuple(schedule), ops, setup)


def _camellia_lu3_setup(cam: ModuleType, key: bytes, consts):
    """camellia-lu3: six cycles of three Feistel rounds on two 64-bit
    halves.  A round unpacks the eight bytes of left ^ k and XORs their
    lookups in the constant set's f_tables (each s-box fused with P) into
    the other half.  Setup groups the round keys three to a cycle and
    splits each FL/FL-inverse key into its 32-bit halves, so a block applies
    FL and FL-inverse inline and calls no F or FL function."""
    sk = cam.key_schedule(key, consts)
    t0, t1, t2, t3, t4, t5, t6, t7 = sk.consts.f_tables
    kw1, kw2, kw3, kw4 = sk.kw
    # cycles 2 and 4 end with FL of the left half and FL-inverse of the
    # right: (kl1 L, kl1 R, kl2 L, kl2 R), then the same of kl3, kl4
    halves = [h for kl in sk.kl for h in (kl >> 32, kl & 0xFFFFFFFF)]
    cycles = tuple(zip((sk.k[r:r + 3] for r in range(0, 18, 3)),
                       (None, halves[:4], None, halves[4:], None, None)))

    def work(block: bytes) -> tuple[int, ...]:
        m = int.from_bytes(block, "big")
        left, right = (m >> 64) ^ kw1, (m & ((1 << 64) - 1)) ^ kw2
        states = []
        for keys, fl in cycles:
            for k in keys:
                a, b, c, d, e, f, g, h = (left ^ k).to_bytes(8, "big")
                left, right = (right ^ t0[a] ^ t1[b] ^ t2[c] ^ t3[d]
                               ^ t4[e] ^ t5[f] ^ t6[g] ^ t7[h]), left
            if fl:
                # on each half's two 32-bit words: FL sets R ^= (L & kl_L) <<< 1,
                # then L ^= R | kl_R; FL-inverse the same two steps reversed
                fl_l, fl_r, inv_l, inv_r = fl
                v = left >> 32 & fl_l
                left ^= (v << 1 | v >> 31) & 0xFFFFFFFF
                left ^= ((left | fl_r) & 0xFFFFFFFF) << 32
                right ^= ((right | inv_r) & 0xFFFFFFFF) << 32
                v = right >> 32 & inv_l
                right ^= (v << 1 | v >> 31) & 0xFFFFFFFF
            states.append(left << 64 | right)
        # the last cycle ends with the swap and post-whitening
        states[5] = (right ^ kw3) << 64 | (left ^ kw4)
        return tuple(states)
    return work


# Each built-in datapath, under its name; PROFILES reads its cipher, setup
# labels and work-cycle count from here.
_DATAPATHS: dict[str, Datapath] = {
    "hc3-short": _hc3(short=True),
    "hc3-long": _hc3(),
    "hc3-verylong": _hc3(split=True, merge_xs_ak=True),
    "hc3-extensive": _hc3(split=True, merged=True, merge_xs_ak=True),
    # cycle i + 1 runs rounds 3i + 1 .. 3i + 3; cycles 2 and 4 end with the
    # FL layer, the last with the swap and post-whitening
    "camellia-lu3": Datapath(
        "camellia",
        (MicroOp("key schedule part I: 2 rounds (sigma1, sigma2), XOR with K_L"),
         MicroOp("key schedule part II: 2 next rounds (sigma3, sigma4) -> K_A")),
        (("pre-whitening; rounds 1-3",),
         ("rounds 4-6", "FL / FL-inverse layer (kl1, kl2)"),
         ("rounds 7-9",),
         ("rounds 10-12", "FL / FL-inverse layer (kl3, kl4)"),
         ("rounds 13-15",),
         ("rounds 16-18", "swap halves; post-whitening")),
        _camellia_lu3_setup),
}


def _profile(variant: str, **published) -> ArchProfile:
    """The built-in profile of a datapath: its record's figures and the
    paper's."""
    dp = _DATAPATHS[variant]
    return ArchProfile(variant, dp.cipher, variant, len(dp.ops), dp.setup_schedule, **published)


PROFILES: dict[str, ArchProfile] = {p.variant: p for p in (
    _profile("hc3-short", clock_mhz=8.05, paper_throughput_mbps=115.0,
             resources="8599 LE / 48 kb EAB", critical_path_label="key round"),
    _profile("hc3-long", clock_mhz=11.91, paper_throughput_mbps=190.0,
             resources="9497 LE / 48 kb EAB",
             critical_path_label="computation of the F_sigma output"),
    _profile("hc3-verylong", clock_mhz=15.64, paper_throughput_mbps=304.0,
             resources="9758 LE / 48 kb EAB", critical_path_label="round of encryption"),
    _profile("hc3-extensive", clock_mhz=21.73, paper_throughput_mbps=397.0,
             resources="25811 LE", critical_path_label="round via fused sbox/MDS-lower tables",
             critical_path_ns=46.0),
    _profile("camellia-lu3", clock_mhz=13.15, paper_throughput_mbps=240.0,
             resources="2973 LE / 49152 memory bits",
             critical_path_label="round of encryption (3 unrolled rounds)"),
)}


# getattr(_HC3CAM, cipher) imports that cipher's package on the first
# block that runs it (hc3cam.__getattr__), and is an attribute read after
_HC3CAM = sys.modules[__package__]


@lru_cache(maxsize=1)
def _key_register(datapath: str, key: bytes, consts) -> Callable[[bytes], tuple[int, ...]]:
    """The device's one-entry key register: the work function setup
    returned for the last (datapath, key, constant set) seen.  Both
    constants classes hash by identity, so a set loaded from another
    .ctab re-runs setup."""
    dp = _DATAPATHS[datapath]
    return dp.setup(getattr(_HC3CAM, dp.cipher), key, consts)


def run_block(profile: ArchProfile, key: bytes, block: bytes, consts=None) -> BlockTrace:
    """Execute one block through the variant's per-cycle work schedule.

    Setup runs once per key: the work function it returns is held in a
    one-entry register and rebuilt only when the datapath, the key or the
    constant set changes.  The set is consts, else the cipher's
    get_constants().  Work runs for every block and returns its cycle
    states; the trace pairs them with the datapath's op labels, and its
    ciphertext is the last state's 16 bytes.
    """
    dp = _DATAPATHS.get(profile.datapath)
    if dp is None:
        raise ValueError(
            f"profile {profile.variant!r} has no executable datapath "
            f"{profile.datapath!r}; known: {', '.join(sorted(_DATAPATHS))}"
        )
    if len(block) != 16:
        raise ValueError(f"{profile.variant}: block must be 16 bytes, got {len(block)}")
    if consts is None:
        consts = getattr(_HC3CAM, dp.cipher).get_constants()
    # bytes(key): a bytearray key must hash for the register
    states = _key_register(profile.datapath, bytes(key), consts)(block)
    want = profile.work_cycles_per_block
    if len(states) != want:
        raise AssertionError(
            f"{profile.variant}: datapath produced {len(states)} cycles, "
            f"profile says {want}"
        )
    return _new(BlockTrace, (dp.ops, states, states[-1].to_bytes(16, "big")))


class Device:
    """One device under one key: setup once, then one START/WORK pulse of
    the handshake and one run_block per block.

    Building it steps the setup ticks, then one pulse from READY on a
    copy.  That pulse must bring the handshake back to READY with only its
    counters moved, so each block's pulse is counted instead of stepped,
    and state adds the counted pulses' ticks and blocks to the READY state
    when it is read.  The constant set is looked up on the first block: a
    device that runs none imports no cipher package.
    """

    def __init__(self, profile: ArchProfile, key: bytes):
        self.profile, self.key = profile, bytes(key)
        ready = initial_state(profile)
        while not ready.ready:
            ready = step(ready)
        self.setup_ticks = ready.cycle_counter
        pulse = step(ready, start_edge=True)
        while pulse.work:
            pulse = step(pulse)
        if ready.phase != READY or pulse != ready._replace(
                cycle_counter=pulse.cycle_counter, blocks_done=ready.blocks_done + 1):
            raise AssertionError(f"{profile.variant}: a START/WORK pulse from "
                                 f"{ready} ended in {pulse}")
        self._ready, self._pulse_ticks = ready, pulse.cycle_counter - ready.cycle_counter
        self._consts = None
        self._pulses = 0            # blocks run

    @property
    def state(self) -> DeviceState:
        ready, n = self._ready, self._pulses
        return ready._replace(cycle_counter=ready.cycle_counter + n * self._pulse_ticks,
                              blocks_done=ready.blocks_done + n)

    def run(self, block: bytes) -> BlockTrace:
        if self._consts is None:
            self._consts = getattr(_HC3CAM, self.profile.cipher).get_constants()
        trace = run_block(self.profile, self.key, block, self._consts)
        self._pulses += 1
        return trace


# --- throughput model and report ------------------------------------------

def throughput_model(clock_hz: float, cycles_per_block: int) -> float:
    """Bits per second of an iterative unit: 128 * f / cycles."""
    if clock_hz <= 0 or cycles_per_block <= 0:
        raise ValueError("clock and cycle count must be positive")
    bps = 128.0 * clock_hz / cycles_per_block
    if not math.isfinite(bps):
        raise ValueError(f"128 * f / {cycles_per_block} cycles is not a finite bit rate")
    return bps


# Relative disagreement with the published figure above which a row is
# marked as a documented discrepancy.
DISCREPANCY_THRESHOLD = 0.01


class SimRow(NamedTuple):
    label: str
    cipher: str
    is_model: bool
    cycles_per_block: int | None
    clock_mhz: float | None
    modeled_mbps: float | None
    paper_mbps: float | None
    deviation: float | None
    flagged: bool
    resources: str


def model_row(profile: ArchProfile) -> SimRow:
    modeled = None
    deviation = None
    flagged = False
    if profile.clock_mhz is not None:
        modeled = throughput_model(profile.clock_mhz * 1e6, profile.work_cycles_per_block) / 1e6
        paper = profile.paper_throughput_mbps
        if paper:
            deviation = abs(modeled - paper) / paper
            if not math.isfinite(deviation):
                raise ValueError(f"|{modeled:g} - {paper:g}| / {paper:g} Mb/s "
                                 "is not a finite deviation")
            flagged = deviation > DISCREPANCY_THRESHOLD
    return SimRow(
        label=profile.variant, cipher=profile.cipher, is_model=True,
        cycles_per_block=profile.work_cycles_per_block, clock_mhz=profile.clock_mhz,
        modeled_mbps=modeled, paper_mbps=profile.paper_throughput_mbps,
        deviation=deviation, flagged=flagged, resources=profile.resources,
    )


def _published(label: str, cipher: str, resources: str, paper_mbps: float) -> SimRow:
    return SimRow(label, cipher, False, None, None, None, paper_mbps, None, False, resources)


# Published comparison rows carried verbatim.
REFERENCE_ROWS: tuple[SimRow, ...] = (
    _published("TOSHIBA high speed", "hc3", "22700 LE", 52.6),
    _published("TOSHIBA small area", "hc3", "6300 LE", 4.1),
    _published("NTT/Mitsubishi loop (XC4000XL)", "camellia", "1296 LE", 77.34),
    _published("NTT/Mitsubishi loop (VirtexE)", "camellia", "1816 LE", 199.46),
    _published("NTT/Mitsubishi loop (VirtexE)", "camellia", "1816 LE", 211.90),
    _published("NTT/Mitsubishi loop (VirtexE)", "camellia", "1780 LE", 227.42),
    _published("NTT/Mitsubishi unrolled (VirtexE)", "camellia", "9426 LE", 401.89),
)


def report() -> tuple[SimRow, ...]:
    """Model rows for every variant plus the published comparison rows."""
    return (*map(model_row, PROFILES.values()), *REFERENCE_ROWS)


def render_report(rows, cipher: str | None = None) -> str:
    """Aligned text table, optionally restricted to one cipher family."""
    cols = ("project", "cycles", "clock MHz", "model Mb/s", "paper Mb/s",
            "deviation", "flag", "resources")
    table = [cols]
    for r in rows:
        if cipher and r.cipher != cipher:
            continue
        table.append((
            r.label,
            "-" if r.cycles_per_block is None else str(r.cycles_per_block),
            "-" if r.clock_mhz is None else f"{r.clock_mhz:.2f}",
            "-" if r.modeled_mbps is None else f"{r.modeled_mbps:.2f}",
            "-" if r.paper_mbps is None else f"{r.paper_mbps:.2f}",
            "-" if r.deviation is None else f"{100 * r.deviation:.2f}%",
            "DISCREPANCY" if r.flagged else "",
            r.resources,
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
