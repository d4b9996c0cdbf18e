import hashlib
import random
import types

import pytest

import hc3cam
from hc3cam import archsim, camellia, hc3
from hc3cam.hc3 import constants as hc3_constants
from hc3cam.archsim import (
    PROFILES,
    Device,
    initial_state,
    report,
    render_report,
    run_block,
    step,
    throughput_model,
)
from hc3cam.profile_file import format_profile, parse_profile
from test_constants_override import use_non_involution_override, use_shifted_sbox_override


def functional(profile, key, block):
    """The ciphertext of the functional cipher on its default key schedule."""
    if profile.cipher == "hc3":
        return hc3.encrypt(block, hc3.key_schedule(key))
    return camellia.encrypt(block, camellia.key_schedule(key))


def test_builtin_profile_figures():
    expect = {
        "hc3-short": (8, 8.05, 115.0, "8599 LE / 48 kb EAB"),
        "hc3-long": (8, 11.91, 190.0, "9497 LE / 48 kb EAB"),
        "hc3-verylong": (7, 15.64, 304.0, "9758 LE / 48 kb EAB"),
        "hc3-extensive": (7, 21.73, 397.0, "25811 LE"),
        "camellia-lu3": (6, 13.15, 240.0, "2973 LE / 49152 memory bits"),
    }
    assert set(PROFILES) == set(expect)
    for name, (cycles, clock, paper, res) in expect.items():
        p = PROFILES[name]
        assert p.work_cycles_per_block == cycles
        assert p.clock_mhz == clock
        assert p.paper_throughput_mbps == paper
        assert p.resources == res


def test_work_cycle_counts_exact():
    counts = [PROFILES[v].work_cycles_per_block
              for v in ("hc3-short", "hc3-long", "hc3-verylong",
                        "hc3-extensive", "camellia-lu3")]
    assert counts == [8, 8, 7, 7, 6]


@pytest.mark.parametrize("variant", sorted(PROFILES))
def test_simulator_matches_functional_cipher(variant):
    profile = PROFILES[variant]
    rng = random.Random(hash(variant) & 0xFFFF)
    for _ in range(100):
        key, block = rng.randbytes(16), rng.randbytes(16)
        trace = run_block(profile, key, block)
        assert trace.ciphertext == functional(profile, key, block)
        assert len(trace.cycles) == profile.work_cycles_per_block
        assert [c.index for c in trace.cycles] == list(
            range(1, profile.work_cycles_per_block + 1))


def test_key_register_alternates_keys_and_variants():
    # the held setup product follows every change of key and of datapath
    rng = random.Random(0x4E6)
    a, b = rng.randbytes(16), rng.randbytes(16)
    for variant, key in (("hc3-long", a), ("hc3-long", b), ("camellia-lu3", a),
                         ("hc3-long", a), ("hc3-short", b), ("hc3-extensive", b),
                         ("hc3-verylong", b), ("hc3-short", a)):
        profile = PROFILES[variant]
        for _ in range(2):
            block = rng.randbytes(16)
            assert run_block(profile, key, block).ciphertext == \
                functional(profile, key, block), variant


@pytest.mark.parametrize("variant", ["hc3-short", "hc3-long", "hc3-verylong",
                                     "hc3-extensive"])
def test_key_register_follows_constants(variant, tmp_path, monkeypatch):
    # the same key under the packaged set, a changed hc3.ctab and the
    # packaged set again: setup is re-run whenever the set changes
    profile = PROFILES[variant]
    key, block = bytes(range(16)), bytes(range(16, 32))

    def run():
        got = run_block(profile, key, block).ciphertext
        assert got == hc3.encrypt(block, hc3.key_schedule(key))
        return got

    packaged = run()
    use_shifted_sbox_override(tmp_path, monkeypatch)
    changed = run()
    monkeypatch.delenv(hc3_constants.ENV_CONSTANTS_DIR)
    assert run() == packaged
    assert changed != packaged


def test_run_block_refuses_a_datapath_that_drops_a_cycle(monkeypatch):
    cipher, setup = archsim._DATAPATHS["hc3-long"]

    def dropping_setup(package, key, consts):
        work = setup(package, key, consts)

        def dropping(block):
            trace = work(block)
            return trace._replace(states=trace.states[:-1])
        return dropping
    monkeypatch.setitem(archsim._DATAPATHS, "hc3-long", (cipher, dropping_setup))
    profile = PROFILES["hc3-long"]._replace(variant="my-board")
    archsim._key_register.cache_clear()
    try:
        with pytest.raises(AssertionError,
                           match="my-board: datapath produced 7 cycles, profile says 8"):
            run_block(profile, bytes(16), bytes(16))
    finally:
        archsim._key_register.cache_clear()


def test_blocks_read_no_package_attribute(monkeypatch):
    # setup binds in everything work reads: after a device's first block,
    # no block reads an attribute of hc3cam or of a cipher package
    reads = []

    class Counting(types.ModuleType):
        def __getattribute__(self, name):
            reads.append(name)
            return super().__getattribute__(name)
    for variant, profile in PROFILES.items():
        device = Device(profile, bytes(range(16)))
        device.run(bytes(16))
        for module in (hc3cam, hc3, camellia):
            monkeypatch.setattr(module, "__class__", Counting)
        for i in range(1, 4):
            device.run(i.to_bytes(16, "big"))
        got = reads[:]
        monkeypatch.undo()
        assert got == [], variant


def test_verylong_merges_xs_and_ak_in_cycle_7():
    trace = run_block(PROFILES["hc3-verylong"], bytes(16), bytes(16))
    last = trace.cycles[-1]
    assert last.index == 7
    joined = " ".join(last.ops)
    assert "XS" in joined and "AK" in joined


def test_long_setup_keeps_xs_and_ak_apart():
    trace = run_block(PROFILES["hc3-long"], bytes(16), bytes(16))
    assert any("XS" in " ".join(c.ops) for c in trace.cycles if c.index == 7)
    assert any("AK" in " ".join(c.ops) for c in trace.cycles if c.index == 8)


def test_camellia_cycle_2_and_4_include_fl():
    trace = run_block(PROFILES["camellia-lu3"], bytes(16), bytes(16))
    by_index = {c.index: " ".join(c.ops) for c in trace.cycles}
    assert "FL" in by_index[2] and "FL-inverse" in by_index[2]
    assert "FL" in by_index[4]
    assert "rounds 16-18" in by_index[6] and "post-whitening" in by_index[6]


def test_setup_traces():
    # each sigma update of the very-long setup spans three ~28 ns cycles
    for variant in ("hc3-verylong", "hc3-extensive"):
        ops = PROFILES[variant].setup_schedule
        for t in range(5):
            per_sigma = [op for op in ops
                         if f"step {t} (" in op.label and " cycle " in op.label]
            assert len(per_sigma) == 3
            assert all(op.ns == 28.0 for op in per_sigma)
    cam_setup = PROFILES["camellia-lu3"].setup_schedule
    assert len(cam_setup) == 2
    assert "2 next rounds" in cam_setup[1].label
    short = PROFILES["hc3-short"].setup_schedule
    assert "K(1)" in short[-1].label and "subkey buffer" in short[-1].label


def test_extensive_critical_path_bounds_clock():
    p = PROFILES["hc3-extensive"]
    assert p.critical_path_ns == 46.0
    assert p.clock_mhz <= p.max_clock_mhz + 1e-9  # 21.73 <= 1000/46


def test_run_block_rejects_unknown_datapath():
    broken = PROFILES["hc3-long"]._replace(datapath="hc3-nonesuch")
    with pytest.raises(ValueError, match="no executable datapath"):
        run_block(broken, bytes(16), bytes(16))


@pytest.mark.parametrize("length", (15, 17))
@pytest.mark.parametrize("variant", sorted(PROFILES))
def test_run_block_rejects_wrong_block_length(variant, length):
    with pytest.raises(ValueError, match=f"{variant}: block must be 16 bytes, got {length}"):
        run_block(PROFILES[variant], bytes(16), bytes(length))


# --- handshake -------------------------------------------------------------

def run_setup(profile):
    st = initial_state(profile)
    while not st.ready:
        st = step(st)
    return st


def test_start_ignored_during_setup():
    p = PROFILES["hc3-long"]
    st = initial_state(p)
    for _ in range(len(p.setup_schedule) - 1):
        # a START edge leaves the state exactly as a plain tick would
        assert step(st, start_edge=True) == step(st)
        st = step(st, start_edge=True)
        assert not st.ready and not st.work and st.blocks_done == 0
    st = step(st, start_edge=True)
    assert st.ready and not st.work and st.blocks_done == 0


def test_work_pulse_exact_and_blocks_counted():
    for variant, p in PROFILES.items():
        st = run_setup(p)
        for block in range(3):
            st = step(st, start_edge=True)
            pulse = 0
            while st.work:
                pulse += 1
                st = step(st)
            assert pulse == p.work_cycles_per_block, variant
            assert st.blocks_done == block + 1
            assert st.ready


def test_ready_persists_until_reset():
    p = PROFILES["camellia-lu3"]
    st = run_setup(p)
    for _ in range(50):
        st = step(st)
        assert st.ready
    st = step(st, reset_edge=True)
    assert not st.ready
    st = step(st)
    assert st.ready  # setup results retained; one tick to re-arm


def test_reset_during_work_keeps_pulse_exact():
    p = PROFILES["hc3-short"]
    st = run_setup(p)
    st = step(st, start_edge=True)
    pulse = 1
    st = step(st, reset_edge=True)  # mid-block reset
    assert not st.ready
    while st.work:
        pulse += 1
        st = step(st)
    assert pulse == p.work_cycles_per_block
    assert st.blocks_done == 1
    st = step(st)
    assert st.ready


def stepped(profile, n):
    """The handshake after setup and n START/WORK pulses, every tick stepped."""
    st = run_setup(profile)
    for _ in range(n):
        st = step(st, start_edge=True)
        while st.work:
            st = step(st)
    return st


# a profile file's device: another datapath's work under its own setup list
BOARD = parse_profile('variant board\ndatapath hc3-verylong\nsetup "load key"\n'
                      'setup "sigma steps 0-4" 20\nsetup "1600-bit cache"\n', "board")


@pytest.mark.parametrize("profile", [*PROFILES.values(), BOARD], ids=lambda p: p.variant)
def test_device_replay_matches_stepping(profile):
    # after the stepped first pulse every block adds the measured pulse to
    # the counters; the state must be the one stepping every tick gives
    rng = random.Random(f"device-{profile.variant}")
    key = rng.randbytes(16)
    for n in (0, 1, 2, 17, 40):
        device = Device(profile, key)
        assert device.setup_ticks == len(profile.setup_schedule)
        for _ in range(n):
            block = rng.randbytes(16)
            assert device.run(block) == run_block(profile, key, block)
        assert device.state == stepped(profile, n), n


def test_device_rejects_a_pulse_that_does_not_return_to_ready(monkeypatch):
    # the replay rests on the first pulse ending where it started
    device = Device(PROFILES["hc3-long"], bytes(16))
    real = archsim.step
    monkeypatch.setattr(archsim, "step", lambda st, *a, **k: real(st, *a, **k)._replace(
        setup_index=st.setup_index + 1))
    with pytest.raises(AssertionError, match="START/WORK pulse"):
        device.run(bytes(16))


def test_run_block_takes_a_constant_set(tmp_path, monkeypatch):
    # a passed set is the one setup runs under, whatever get_constants() says
    profile, key, block = PROFILES["hc3-long"], bytes(range(16)), bytes(16)
    packaged = hc3.get_constants()
    use_shifted_sbox_override(tmp_path, monkeypatch)
    shifted = hc3.get_constants()
    assert shifted is not packaged
    assert run_block(profile, key, block, packaged).ciphertext == \
        hc3.encrypt(block, hc3.key_schedule(key, consts=packaged))
    assert run_block(profile, key, block).ciphertext == \
        run_block(profile, key, block, shifted).ciphertext == \
        hc3.encrypt(block, hc3.key_schedule(key, consts=shifted))


# sha256 over repr((phase, ready, work, cycle_counter, blocks_done,
# setup_index, work_left)) after each of 5 000 seeded random
# (reset_edge, start_edge) ticks, recorded from the step() that called
# dataclasses.replace per field change
STEP_DIGESTS = {
    "camellia-lu3": "bdb498fb9b0c45f0dad82008bd36d9ace9e998bf19f36f6b899ed2fc4504ab10",
    "hc3-extensive": "8330995aa3cd10704abef4ff98541e6db29f10f786cc553ffd6bcbb70406d879",
    "hc3-long": "127c4ba14d8079cfca7e28a57274c83bdc938a37987c2b7abd1db33cc8d7f095",
    "hc3-short": "29a744b5ec54ae5714d33a5cfe8b857d65f91e6eb0c21ac4478923503caed554",
    "hc3-verylong": "89178a4d0da8f51fdc3c6c2e3a01966b22a30120cbdbec6c6f81d769c31f4a63",
}


@pytest.mark.parametrize("variant", sorted(PROFILES))
def test_step_transitions_pinned(variant):
    rng = random.Random(f"step-pin-{variant}")
    st = initial_state(PROFILES[variant])
    h = hashlib.sha256()
    for _ in range(5000):
        st = step(st, reset_edge=rng.random() < 0.05, start_edge=rng.random() < 0.3)
        h.update(repr((st.phase, st.ready, st.work, st.cycle_counter, st.blocks_done,
                       st.setup_index, st.work_left)).encode())
    assert h.hexdigest() == STEP_DIGESTS[variant]


def field_by_field_step(state, reset_edge=False, start_edge=False):
    """step() as it was before it unpacked the state as one tuple: fields
    read by name, the successor built through the NamedTuple constructor."""
    profile, phase, ready, work = state.profile, state.phase, state.ready, state.work
    blocks, idx, left = state.blocks_done, state.setup_index, state.work_left
    if phase == archsim.SETUP:
        idx = 0 if reset_edge else idx + 1
        if idx >= len(profile.setup_schedule):
            phase, ready = archsim.READY, True
    else:
        if reset_edge:
            ready = False
        if phase == archsim.WORKING:
            left -= 1
            if left <= 0:
                phase = archsim.READY if ready else archsim.REARM
                work, left, blocks = False, 0, blocks + 1
        elif phase == archsim.REARM or not ready:
            if reset_edge:
                phase = archsim.REARM
            else:
                phase, ready = archsim.READY, True
        elif start_edge and not reset_edge:
            phase, work, left = archsim.WORKING, True, profile.work_cycles_per_block
    return archsim.DeviceState(profile, phase, ready, work, state.cycle_counter + 1,
                               blocks, idx, left)


@pytest.mark.parametrize("variant", sorted(PROFILES))
def test_step_matches_field_by_field_step(variant):
    rng = random.Random(f"step-vs-fields-{variant}")
    st = initial_state(PROFILES[variant])
    mid_block_resets = 0
    for _ in range(5000):
        # RESET and START at random, and RESET on a tenth of working ticks
        reset = rng.random() < (0.1 if st.phase == archsim.WORKING else 0.03)
        start = rng.random() < 0.3
        mid_block_resets += reset and st.phase == archsim.WORKING
        new = step(st, reset_edge=reset, start_edge=start)
        assert type(new) is archsim.DeviceState
        assert new == field_by_field_step(st, reset, start)
        st = new
    assert mid_block_resets >= 20


def test_randomized_edges_never_violate_invariants():
    rng = random.Random(0xBEEF)
    p = PROFILES["hc3-verylong"]
    st = initial_state(p)
    ever_ready = False
    prev_work = False
    pulse = 0
    blocks_before = 0
    for _ in range(10_000):
        was_setup = st.phase == archsim.SETUP
        blocks_before = st.blocks_done
        st = step(st, reset_edge=rng.random() < 0.05, start_edge=rng.random() < 0.3)
        ever_ready = ever_ready or st.ready
        assert not (st.work and not ever_ready), "WORK before READY ever rose"
        if was_setup:
            assert st.blocks_done == blocks_before, "setup START changed blocks"
        if st.work:
            pulse += 1
            assert pulse <= p.work_cycles_per_block
        elif prev_work:
            assert pulse == p.work_cycles_per_block, "short WORK pulse"
            pulse = 0
        prev_work = st.work
    assert ever_ready


# --- throughput model and report --------------------------------------------

def test_throughput_model_values():
    # 128 * f / cycles
    assert throughput_model(11.91e6, 8) == pytest.approx(190.56e6)
    assert abs(throughput_model(11.91e6, 8) / 1e6 - 190.0) / 190.0 < 0.005
    assert throughput_model(21.73e6, 7) == pytest.approx(397.3485714e6, rel=1e-6)
    assert abs(throughput_model(21.73e6, 7) / 1e6 - 397.0) / 397.0 < 0.001
    # the short-setup row does not fit the formula; it gets flagged instead
    assert throughput_model(8.05e6, 8) == pytest.approx(128.8e6)


def test_throughput_model_rejects_nonpositive():
    with pytest.raises(ValueError):
        throughput_model(0, 8)
    with pytest.raises(ValueError):
        throughput_model(1e6, 0)
    with pytest.raises(ValueError):
        throughput_model(-5, 3)


@pytest.mark.parametrize("clock_hz", [1e308, 1e308 * 10, float("nan")])
def test_throughput_model_rejects_a_rate_that_is_not_finite(clock_hz):
    with pytest.raises(ValueError, match="not a finite bit rate"):
        throughput_model(clock_hz, 8)
    assert throughput_model(1e300, 8) == 1.6e301


def test_derived_figures_that_are_not_finite_are_refused():
    long = PROFILES["hc3-long"]
    # |m - p| / p overflows when the published figure is tiny enough
    with pytest.raises(ValueError, match="not a finite deviation"):
        archsim.model_row(long._replace(paper_throughput_mbps=1e-307))
    assert archsim.model_row(long._replace(paper_throughput_mbps=1e-300)).deviation > 1e300
    # with no clock there is no modeled rate and so no deviation to check
    assert archsim.model_row(long._replace(clock_mhz=None,
                                           paper_throughput_mbps=1e-307)).deviation is None
    # 1000 / ns overflows when the critical path is tiny enough
    with pytest.raises(ValueError, match="not a finite clock"):
        long._replace(critical_path_ns=1e-320).max_clock_mhz
    assert long._replace(critical_path_ns=1e-300).max_clock_mhz == pytest.approx(1e303)


def test_throughput_model_scaling():
    rng = random.Random(50)
    for _ in range(100):
        f = rng.uniform(1e6, 5e7)
        c = rng.randrange(1, 32)
        assert throughput_model(2 * f, c) == pytest.approx(2 * throughput_model(f, c))
        assert throughput_model(f, 2 * c) == pytest.approx(throughput_model(f, c) / 2)


def test_report_rows_and_flags():
    rows = report()
    by_label = {r.label: r for r in rows}
    hc3_rows = [r for r in rows if r.cipher == "hc3"]
    cam_rows = [r for r in rows if r.cipher == "camellia"]
    assert len(hc3_rows) == 6   # four projects plus the two published rows
    assert len(cam_rows) == 6   # one project plus five published rows

    assert by_label["hc3-long"].deviation < 0.01
    assert not by_label["hc3-long"].flagged
    assert by_label["hc3-extensive"].deviation < 0.01
    assert not by_label["hc3-extensive"].flagged
    assert by_label["hc3-short"].flagged
    assert by_label["hc3-verylong"].flagged
    assert by_label["camellia-lu3"].flagged
    # published figures are carried verbatim next to the model
    assert by_label["hc3-short"].paper_mbps == 115.0
    assert by_label["hc3-short"].modeled_mbps == pytest.approx(128.8)

    ref = [(r.label, r.paper_mbps) for r in rows if not r.is_model]
    assert ("TOSHIBA high speed", 52.6) in ref
    assert ("TOSHIBA small area", 4.1) in ref
    assert sorted(v for k, v in ref if k.startswith("NTT")) == [
        77.34, 199.46, 211.90, 227.42, 401.89]


def test_render_report():
    text = render_report(report(), cipher="hc3")
    assert "hc3-extensive" in text and "DISCREPANCY" in text
    assert "camellia-lu3" not in text


def test_profile_file_roundtrip():
    long = PROFILES["hc3-long"]
    boards = [
        *PROFILES.values(),
        long._replace(variant="my board"),
        long._replace(resources="9497 LE / 48 kb \"EAB\" 'x'"),
        long._replace(setup_schedule=(archsim.MicroOp("pad key", 14.0),
                                      archsim.MicroOp("it's", 0.1 + 0.2),
                                      archsim.MicroOp("no latency"))),
        # every number a value other than the built-in one
        long._replace(clock_mhz=0.1 + 0.2, paper_throughput_mbps=1e-300,
                      critical_path_ns=1e300),
        PROFILES["hc3-extensive"]._replace(clock_mhz=1e-5, paper_throughput_mbps=123456789.5,
                                           critical_path_ns=33.3),
    ]
    for p in boards:
        text = format_profile(p)
        assert parse_profile(text) == p, text


def test_profile_file_overrides_and_errors():
    text = format_profile(PROFILES["hc3-long"]).replace(
        "variant hc3-long", "variant my-board").replace(
        "clock-mhz 11.91", "clock-mhz 10.0")
    prof = parse_profile(text)
    assert prof.variant == "my-board"
    assert prof.datapath == "hc3-long"
    assert prof.clock_mhz == 10.0

    with pytest.raises(ValueError, match="unknown datapath"):
        parse_profile("variant nope\n")
    with pytest.raises(ValueError, match="work-cycles"):
        parse_profile("variant x\ndatapath hc3-long\nwork-cycles 9\n")
    with pytest.raises(ValueError, match="missing 'variant'"):
        parse_profile("datapath hc3-long\n")
    # a bad number is refused on its own line, before the checks of the whole file
    with pytest.raises(ValueError, match="^<profile>:2: clock-mhz must be a finite number"):
        parse_profile("datapath nope\nclock-mhz x\n")


def test_profile_file_cipher_mismatch_rejected():
    with pytest.raises(ValueError, match="cipher 'camellia' does not match"):
        parse_profile("variant x\ndatapath hc3-long\ncipher camellia\n")


def test_trace_final_state_is_the_ciphertext():
    for variant, p in PROFILES.items():
        trace = run_block(p, bytes(range(16)), bytes(16))
        assert all(type(c.state) is bytes and len(c.state) == 16 for c in trace.cycles)
        assert trace.cycles[-1].state == trace.ciphertext, variant
        assert trace.cycles[-1].state_hex == trace.ciphertext.hex(), variant


# The work functions as they were when every cycle formatted its state into
# hex at once, with camellia-lu3's rounds in per-block closures: the oracle
# of each cycle's index, ops and state_hex.  Each returns (cycles, ciphertext)
# with a cycle as (index, ops, state_hex).

def eager_hc3_short(key, block):
    consts = hc3.get_constants()
    z0 = hc3.pad_and_prewhiten(key, consts)
    steps = ((row.step, hc3.RoundKey256(*k))
             for row, (k, _, _) in zip(hc3.SCHEDULE_ROWS[1:], hc3.walk_schedule(z0, consts)))
    keys = dict([next(steps)])
    ops = archsim._HC3_SHORT_OPS
    x = block
    cycles = [(1, ops[0], x.hex())]
    for r in range(1, 6):
        keys.update([next(steps)])
        x = hc3.rho(x, keys[r], consts)
        cycles.append((r + 1, ops[r], x.hex()))
    keys.update([next(steps)])
    x = hc3.xs(x, keys[6], consts)
    cycles.append((7, ops[6], x.hex()))
    x = hc3.key_addition(x, keys[7])
    cycles.append((8, ops[7], x.hex()))
    return cycles, x


def eager_hc3_cached(key, block, merged, merge_xs_ak):
    consts = hc3.get_constants()
    keys = hc3.key_schedule(key, "cached_1600", consts).round_keys
    ops = archsim._cached_ops(merged, merge_xs_ak)
    x = block
    cycles = [(1, ops[0], x.hex())]
    for r in range(1, 6):
        if merged:
            x = hc3.mds_h(hc3.merged_xs(x, keys[r - 1], consts), consts)
        else:
            x = hc3.rho(x, keys[r - 1], consts)
        cycles.append((r + 1, ops[r], x.hex()))
    if merge_xs_ak:
        x = hc3.merged_xs(x, keys[5], consts) if merged else hc3.xs(x, keys[5], consts)
        x = hc3.key_addition(x, keys[6])
        cycles.append((7, ops[6], x.hex()))
    else:
        x = hc3.xs(x, keys[5], consts)
        cycles.append((7, ops[6], x.hex()))
        x = hc3.key_addition(x, keys[6])
        cycles.append((8, ops[7], x.hex()))
    return cycles, x


def eager_camellia_lu3(key, block):
    sk = camellia.key_schedule(key)
    consts = sk.consts
    m = int.from_bytes(block, "big")
    left = (m >> 64) ^ sk.kw[0]
    right = (m & ((1 << 64) - 1)) ^ sk.kw[1]

    def rounds3(left, right, first):
        for r in range(first, first + 3):
            left, right = right ^ camellia.f_function(left, sk.k[r - 1], consts), left
        return left, right

    cycles = []

    def record(i, ops, l, r):
        cycles.append((i, ops, f"{l:016x}{r:016x}"))

    left, right = rounds3(left, right, 1)
    record(1, ("pre-whitening; rounds 1-3",), left, right)
    left, right = rounds3(left, right, 4)
    left, right = camellia.fl(left, sk.kl[0]), camellia.fl_inv(right, sk.kl[1])
    record(2, ("rounds 4-6", "FL / FL-inverse layer (kl1, kl2)"), left, right)
    left, right = rounds3(left, right, 7)
    record(3, ("rounds 7-9",), left, right)
    left, right = rounds3(left, right, 10)
    left, right = camellia.fl(left, sk.kl[2]), camellia.fl_inv(right, sk.kl[3])
    record(4, ("rounds 10-12", "FL / FL-inverse layer (kl3, kl4)"), left, right)
    left, right = rounds3(left, right, 13)
    record(5, ("rounds 13-15",), left, right)
    left, right = rounds3(left, right, 16)
    ct = (((right ^ sk.kw[2]) << 64) | (left ^ sk.kw[3])).to_bytes(16, "big")
    cycles.append((6, ("rounds 16-18", "swap halves; post-whitening"), ct.hex()))
    return cycles, ct


EAGER = {
    "hc3-short": eager_hc3_short,
    "hc3-long": lambda k, b: eager_hc3_cached(k, b, merged=False, merge_xs_ak=False),
    "hc3-verylong": lambda k, b: eager_hc3_cached(k, b, merged=False, merge_xs_ak=True),
    "hc3-extensive": lambda k, b: eager_hc3_cached(k, b, merged=True, merge_xs_ak=True),
    "camellia-lu3": eager_camellia_lu3,
}


@pytest.mark.parametrize("variant", sorted(PROFILES))
def test_cycle_states_match_eager_hex_datapaths(variant):
    profile = PROFILES[variant]
    rng = random.Random(f"eager-{variant}")
    for _ in range(2000):
        key, block = rng.randbytes(16), rng.randbytes(16)
        trace = run_block(profile, key, block)
        cycles, ct = EAGER[variant](key, block)
        assert [(c.index, c.ops, c.state_hex) for c in trace.cycles] == cycles
        assert trace.ciphertext == ct


def test_hc3_short_walk_matches_key_schedule():
    # the round keys hc3-short regenerates from its held Z(0) for each block
    consts = hc3.get_constants()
    rng = random.Random("short-walk")
    for _ in range(2000):
        key = rng.randbytes(16)
        z0 = hc3.pad_and_prewhiten(key, consts)
        walk = [round_key for round_key, _, _ in hc3.walk_schedule(z0, consts)]
        assert walk == list(hc3.key_schedule(key).round_keys)


def test_hc3_short_regenerates_its_keys_for_every_block():
    # setup's sigma0 step takes one sigma_map and one F-sigma lookup; every
    # block then walks all seven steps from Z(0): four sigma and three
    # sigma-inverse maps, and two F-sigma lookups a step
    consts = hc3_constants.Hc3Constants(hc3_constants.load_constants().source)
    calls = dict.fromkeys(("sigma_map", "sigma_inv_map", "f_sigma_map"), 0)

    def counting(name, fn):
        def counted(data):
            calls[name] += 1
            return fn(data)
        return counted
    for name in calls:
        setattr(consts, name, counting(name, getattr(consts, name)))
    profile, rng, n = PROFILES["hc3-short"], random.Random("short-counts"), 5
    key = rng.randbytes(16)
    for _ in range(n):
        block = rng.randbytes(16)
        # the oracle runs on the packaged set, whose maps count nothing
        assert run_block(profile, key, block, consts).ciphertext == \
            functional(profile, key, block)
    assert calls == {"sigma_map": 1 + 4 * n, "sigma_inv_map": 3 * n, "f_sigma_map": 1 + 14 * n}


@pytest.mark.parametrize("variant", sorted(PROFILES))
def test_an_old_trace_keeps_its_own_states(variant):
    # no datapath reuses a states buffer across blocks
    profile, key = PROFILES[variant], bytes(range(16))
    old = run_block(profile, key, bytes(16))
    for i in range(1, 4):
        run_block(profile, key, i.to_bytes(16, "big"))
    assert old.cycles == run_block(profile, key, bytes(16)).cycles


@pytest.mark.parametrize("variant", [v for v in sorted(PROFILES) if v.startswith("hc3")])
def test_hc3_datapaths_under_non_involution_mds_h(variant, tmp_path, monkeypatch):
    # the s-box-fused MDS-higher set must follow mds_h, not its inverse,
    # which the packaged involution cannot tell apart
    consts = use_non_involution_override(tmp_path, monkeypatch)
    assert consts.mds_h_inv_rows != consts.mds_h_rows
    rng = random.Random(f"non-involution-{variant}")
    for _ in range(100):
        key, block = rng.randbytes(16), rng.randbytes(16)
        ks = hc3.key_schedule(key)
        assert ks.consts is consts
        assert run_block(PROFILES[variant], key, block).ciphertext == hc3.encrypt(block, ks)
