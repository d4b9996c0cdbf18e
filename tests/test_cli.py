import csv
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hc3cam import camellia, cli, hc3

DATA = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data"

KEY = "000102030405060708090a0b0c0d0e0f"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_encrypt_decrypt_roundtrip_1mib(tmp_path, capsys):
    rng = random.Random(61)
    original = rng.randbytes(1 << 20)
    src = tmp_path / "plain.bin"
    enc = tmp_path / "enc.bin"
    dec = tmp_path / "dec.bin"
    src.write_bytes(original)

    code, _, _ = run(["encrypt", "--cipher", "hc3", "--key", KEY,
                      "--in", str(src), "--out", str(enc)], capsys)
    assert code == 0
    assert enc.read_bytes() != original
    code, _, _ = run(["decrypt", "--cipher", "hc3", "--key", KEY,
                      "--in", str(enc), "--out", str(dec)], capsys)
    assert code == 0
    assert dec.read_bytes() == original


def test_encrypt_decrypt_roundtrip_camellia(tmp_path, capsys):
    original = random.Random(62).randbytes(4096)
    src = tmp_path / "p.bin"
    enc = tmp_path / "c.bin"
    dec = tmp_path / "d.bin"
    src.write_bytes(original)
    assert run(["encrypt", "--cipher", "camellia", "--key", KEY.upper(),
                "--in", str(src), "--out", str(enc)], capsys)[0] == 0
    assert run(["decrypt", "--cipher", "camellia", "--key", KEY,
                "--in", str(enc), "--out", str(dec)], capsys)[0] == 0
    assert dec.read_bytes() == original


def test_partial_block_is_usage_error(tmp_path, capsys):
    src = tmp_path / "odd.bin"
    src.write_bytes(bytes(17))
    code, _, err = run(["encrypt", "--cipher", "hc3", "--key", KEY,
                        "--in", str(src), "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "multiple of 16" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
def test_encrypt_decrypt_in_place(cipher, tmp_path, capsys):
    # more than one chunk, so the input is read past the first write
    original = random.Random(63).randbytes((cli.CHUNK_BLOCKS + 3) * 16)
    f, ref = tmp_path / "f.bin", tmp_path / "ref.bin"
    f.write_bytes(original)
    common = ["--cipher", cipher, "--key", KEY, "--in", str(f)]
    assert run(["encrypt", *common, "--out", str(ref)], capsys)[0] == 0
    assert run(["encrypt", *common, "--out", str(f)], capsys)[0] == 0
    assert f.read_bytes() == ref.read_bytes() != original
    assert run(["decrypt", *common, "--out", str(f)], capsys)[0] == 0
    assert f.read_bytes() == original


def test_empty_input_gives_empty_output(tmp_path, capsys):
    src = tmp_path / "empty.bin"
    out = tmp_path / "out.bin"
    src.write_bytes(b"")
    code, _, _ = run(["encrypt", "--cipher", "camellia", "--key", KEY,
                      "--in", str(src), "--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == b""


def test_bad_key_hex_is_usage_error(tmp_path, capsys):
    src = tmp_path / "p.bin"
    src.write_bytes(bytes(16))
    code, _, err = run(["encrypt", "--cipher", "hc3", "--key", "zz" * 16,
                        "--in", str(src), "--out", str(tmp_path / "x")], capsys)
    assert code == 2 and "not valid hex" in err
    code, _, err = run(["encrypt", "--cipher", "hc3", "--key", "ab",
                        "--in", str(src), "--out", str(tmp_path / "x")], capsys)
    assert code == 2 and "32 hex digits" in err


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(["encrypt", "--cipher", "hc3", "--key", KEY,
                        "--in", str(tmp_path / "nope"), "--out",
                        str(tmp_path / "x")], capsys)
    assert code == 2


@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
def test_packaged_kat_files_pass(cipher, capsys):
    code, out, _ = run(["kat", "--cipher", cipher, "--vectors",
                        str(DATA / "kat" / f"{cipher}.kat")], capsys)
    assert code == 0
    assert "passed, both directions" in out


def test_kat_detects_corrupted_ciphertext(tmp_path, capsys):
    text = (DATA / "kat" / "camellia.kat").read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("CT="):
            # flip one nibble of the first ciphertext
            nib = line[3]
            lines[i] = "CT=" + ("0" if nib != "0" else "1") + line[4:]
            break
    bad = tmp_path / "bad.kat"
    bad.write_text("\n".join(lines))
    code, out, _ = run(["kat", "--cipher", "camellia", "--vectors", str(bad)], capsys)
    assert code == 1
    assert "record 1" in out and "mismatch" in out


HEX32 = "00" * 16
RECORD = f"KEY={HEX32}\nPT={HEX32}\nCT={HEX32}\n"


@pytest.mark.parametrize("text, where, message", [
    (f"KEY={HEX32}\nbogus line\n", ":2", "expected FIELD=hex, got 'bogus line'"),
    (f"# header\nIV={HEX32}\n", ":2", "unknown field 'IV'"),
    # two records with no separator line between them
    (RECORD + RECORD, ":4", "duplicate KEY in record"),
    (f"KEY={HEX32}\nPT={'zz' * 16}\n", ":2", "bad hex in PT"),
    ("KEY=00\nPT=zz\n", ":1", "KEY must be 32 hex digits"),
    (f"KEY={HEX32}\nPT={HEX32}\n\n", ":3", "record missing CT"),
    (f"# header\nCT={HEX32}", ":3", "record missing KEY/PT"),
    ("# only a comment\n\n", "", "no records found"),
], ids=["expected", "unknown", "duplicate", "bad-hex", "length", "missing",
        "missing-at-end", "no-records"])
def test_kat_malformed_file(text, where, message, tmp_path, capsys):
    f = tmp_path / "m.kat"
    f.write_text(text)
    code, out, err = run(["kat", "--cipher", "hc3", "--vectors", str(f)], capsys)
    assert (code, out, err) == (2, "", f"hc3cam: error: {f}{where}: {message}\n")


def test_kat_record_order_free_fields(tmp_path, capsys):
    # fields may appear in any order inside a record
    from hc3cam import hc3 as hc3mod
    key = bytes(16)
    pt = bytes(16)
    ct = hc3mod.encrypt(pt, hc3mod.key_schedule(key))
    f = tmp_path / "r.kat"
    f.write_text(f"CT={ct.hex()}\nKEY={key.hex()}\nPT={pt.hex()}\n")
    code, out, _ = run(["kat", "--cipher", "hc3", "--vectors", str(f)], capsys)
    assert code == 0


def test_bench_csv_and_scaling(capsys):
    code, out, _ = run(["bench", "--cipher", "camellia", "--blocks", "2000"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["cipher", "blocks", "seconds", "throughput_mbps"]
    cipher, blocks, seconds, mbps = rows[1]
    assert cipher == "camellia" and int(blocks) == 2000
    t1 = float(seconds)
    assert float(mbps) > 0

    code, out, _ = run(["bench", "--cipher", "camellia", "--blocks", "4000"], capsys)
    t2 = float(list(csv.reader(io.StringIO(out)))[1][2])
    # doubling the block count roughly doubles the time (very loose)
    assert t2 < 6 * t1
    assert t2 > 0.8 * t1


def test_bench_rejects_nonpositive(capsys):
    code, _, err = run(["bench", "--cipher", "hc3", "--blocks", "0"], capsys)
    assert code == 2 and "positive" in err


def test_simulate_extensive(capsys):
    code, out, _ = run(["simulate", "--variant", "hc3-extensive"], capsys)
    assert code == 0
    assert "work cycles per block: 7" in out
    assert "modeled throughput: 397.35 Mb/s" in out
    assert "published throughput: 397.00 Mb/s" in out
    assert "ciphertext vs functional model: OK" in out


@pytest.mark.parametrize("variant", ["hc3-long", "camellia-lu3"])
def test_simulate_sets_up_once_per_key(variant, monkeypatch, capsys):
    # the device holds its setup product and the check builds its
    # reference schedule once, instead of two schedules per block
    built = []
    for mod in (hc3, camellia):
        def counted(*args, _real=mod.key_schedule, **kwargs):
            built.append(args[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, "key_schedule", counted)
    code, out, _ = run(["simulate", "--variant", variant, "--blocks", "0"], capsys)
    assert code == 0 and built == []
    code, out, _ = run(["simulate", "--variant", variant, "--blocks", "40"], capsys)
    assert code == 0 and "blocks simulated: 40 (ciphertext vs functional model: OK)" in out
    assert len(built) <= 2


@pytest.mark.parametrize("variant", cli.VARIANTS)
def test_simulate_calls_run_block_once_per_block(variant, monkeypatch, capsys):
    # perfbench wraps archsim.run_block on the module and divides the key
    # schedules of a simulate run by its calls, so it runs once per block
    from hc3cam import archsim
    calls = []

    def counted(*args, _real=archsim.run_block, **kwargs):
        calls.append(args[2])
        return _real(*args, **kwargs)
    monkeypatch.setattr(archsim, "run_block", counted)
    for n in (0, 1, 40):
        calls.clear()
        code, out, _ = run(["simulate", "--variant", variant, "--blocks", str(n)], capsys)
        assert code == 0 and f"blocks simulated: {n} (ciphertext vs functional model: OK)" in out
        assert calls == [i.to_bytes(16, "big") for i in range(n)]


def flip_block(data: bytes, plaintexts: bytes, bad: int) -> bytes:
    """data with one bit of the block whose plaintext is block number
    `bad` (simulate's plaintexts count up from 0) flipped."""
    out = bytearray(data)
    for off in range(0, len(plaintexts), 16):
        if plaintexts[off:off + 16] == bad.to_bytes(16, "big"):
            out[off] ^= 1
    return bytes(out)


def test_simulate_checks_every_block(monkeypatch, capsys):
    # a wrong reference for block 23 alone must fail the run
    real = hc3.encrypt_blocks

    def wrong_on_23(data, ks):
        return flip_block(real(data, ks), data, 23)
    monkeypatch.setattr(hc3, "encrypt_blocks", wrong_on_23)
    code, out, _ = run(["simulate", "--variant", "hc3-long", "--blocks", "40"], capsys)
    assert code == 1
    assert "blocks simulated: 40 (ciphertext vs functional model: MISMATCH)" in out


@pytest.mark.parametrize("bad", [3, 37])
def test_simulate_checks_in_chunks(bad, monkeypatch, capsys):
    # 40 blocks in chunks of 16: two full chunks and a partial one, each
    # checked by one batch call; the printed run is the one-chunk run
    code, whole, _ = run(["simulate", "--variant", "hc3-long", "--blocks", "40"], capsys)
    assert code == 0
    monkeypatch.setattr(cli, "CHUNK_BLOCKS", 16)
    real, calls = hc3.encrypt_blocks, []

    def counted(data, ks):
        calls.append(len(data) // 16)
        return real(data, ks)
    monkeypatch.setattr(hc3, "encrypt_blocks", counted)
    code, out, _ = run(["simulate", "--variant", "hc3-long", "--blocks", "40"], capsys)
    assert code == 0 and out == whole and calls == [16, 16, 8]
    assert "blocks simulated: 40 (ciphertext vs functional model: OK)" in out
    # 8 setup ticks, then one START tick and 8 work ticks per block
    assert "device ticks: 368 total, 8 setup" in out

    # a wrong reference for one block of the first or the last, partial chunk
    monkeypatch.setattr(hc3, "encrypt_blocks",
                        lambda data, ks: flip_block(real(data, ks), data, bad))
    code, out, _ = run(["simulate", "--variant", "hc3-long", "--blocks", "40"], capsys)
    assert code == 1
    assert "blocks simulated: 40 (ciphertext vs functional model: MISMATCH)" in out
    assert "device ticks: 368 total, 8 setup" in out


@pytest.mark.parametrize("variant", ["hc3-extensive", "camellia-lu3"])
def test_simulate_catches_device_fault(variant, monkeypatch, capsys):
    # a datapath that gets one block wrong fails the run
    from hc3cam import archsim
    cipher, setup = archsim._DATAPATHS[variant]

    def faulty_setup(package, key, consts):
        work = setup(package, key, consts)

        def faulty(block):
            trace = work(block)
            return trace._replace(ciphertext=flip_block(trace.ciphertext, block, 5))
        return faulty
    monkeypatch.setitem(archsim._DATAPATHS, variant, (cipher, faulty_setup))
    # the key register holds work functions: drop the sound one an earlier
    # run left there, and the faulty one this run leaves
    archsim._key_register.cache_clear()
    try:
        code, out, _ = run(["simulate", "--variant", variant, "--blocks", "9"], capsys)
    finally:
        archsim._key_register.cache_clear()
    assert code == 1
    assert "blocks simulated: 9 (ciphertext vs functional model: MISMATCH)" in out


# sha256 of the whole stdout of `simulate --variant V --blocks 3 --trace`,
# recorded with the per-block functional check: checking in batches must
# not change a printed line
SIMULATE_DIGESTS = {
    "camellia-lu3": "10a4fa4bd8cd8dc5f2890c359e1b50c8b874cf19f492684bbe63b42e709ec2ae",
    "hc3-extensive": "82cffdc4202fe26fd6274c97234f1a8cd0ef9d03c6b59a98b104e5f36109469b",
    "hc3-long": "3a1c39a96576c19ede6cb2a67d8e736802ede2bab023cee396cd5e41bc7e93cd",
    "hc3-short": "7fe21d90db8b29063a83137ba324e6b665c8290e32c839ce7a7812f98d4cc800",
    "hc3-verylong": "5d2d3a34f7a695e71cf69928d1d0cef6166ed4930c772d506460f800fc4e57bb",
}


@pytest.mark.parametrize("variant", cli.VARIANTS)
def test_simulate_output_pinned(variant, capsys):
    code, out, _ = run(["simulate", "--variant", variant, "--blocks", "3", "--trace"],
                       capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_DIGESTS[variant]


def test_simulate_camellia_setup_and_work(capsys):
    code, out, _ = run(["simulate", "--variant", "camellia-lu3", "--trace"], capsys)
    assert code == 0
    assert "setup cycles: 2" in out
    assert "work cycles per block: 6" in out
    assert "rounds 16-18" in out


def test_simulate_short_flags_discrepancy(capsys):
    code, out, _ = run(["simulate", "--variant", "hc3-short"], capsys)
    assert code == 0
    assert "DISCREPANCY" in out


def test_simulate_unknown_variant_lists_valid(capsys):
    code, _, err = run(["simulate", "--variant", "hc3-gigantic"], capsys)
    assert code == 2
    for name in ("hc3-short", "hc3-long", "hc3-verylong", "hc3-extensive",
                 "camellia-lu3"):
        assert name in err


def test_simulate_clock_override(capsys):
    code, out, _ = run(["simulate", "--variant", "hc3-long",
                        "--clock-mhz", "16.0"], capsys)
    assert code == 0
    assert "clock: 16.00 MHz" in out
    assert "modeled throughput: 256.00 Mb/s" in out
    for bad in ("0", "-1", "nan", "inf"):
        code, out, err = run(["simulate", "--variant", "hc3-long",
                              "--clock-mhz", bad], capsys)
        assert code == 2 and "--clock-mhz must be finite and positive" in err


def test_simulate_rejects_negative_blocks(capsys):
    code, out, err = run(["simulate", "--variant", "hc3-long", "--blocks", "-1"], capsys)
    assert code == 2 and out == ""
    assert "--blocks must be non-negative" in err


def test_simulate_rejects_a_clock_with_no_finite_throughput(tmp_path, capsys):
    # 1e308 MHz is finite, but 128 * f / cycles in b/s is not
    code, out, err = run(["simulate", "--variant", "hc3-long", "--clock-mhz", "1e308"],
                         capsys)
    assert code == 2 and out == ""
    assert "--clock-mhz 1e+308: 128 * f / 8 cycles is not a finite bit rate" in err
    from hc3cam import archsim, profile_file
    text = profile_file.format_profile(archsim.PROFILES["camellia-lu3"])
    f = tmp_path / "fast.profile"
    f.write_text(text.replace("clock-mhz 13.15", "clock-mhz 1e308"))
    code, out, err = run(["simulate", "--profile-file", str(f)], capsys)
    lineno = text.splitlines().index("clock-mhz 13.15") + 1
    assert code == 2 and out == ""
    assert f"{f}:{lineno}: clock-mhz 1e308: 128 * f / 6 cycles is not a finite bit rate" in err
    # the largest clocks whose rate is finite still run
    code, out, _ = run(["simulate", "--variant", "hc3-long", "--clock-mhz", "1e300"], capsys)
    assert code == 0 and "modeled throughput: 1600" in out


def test_simulate_rejects_derived_figures_that_are_not_finite(tmp_path, capsys):
    # each number is finite and > 0, but |m - p| / p or 1000 / ns is not
    f = tmp_path / "b.profile"
    head = "variant b\ndatapath hc3-long\n"
    # each error names the last line; with a clock given, a deviation that is
    # not finite is still the published figure's fault
    for lines, message in ((["paper-throughput-mbps 1e-307"], "is not a finite deviation"),
                           (["critical-path-ns 1e-320"], "is not a finite clock"),
                           (["work-cycles 8", "cipher hc3", "clock-mhz 11.91",
                             "paper-throughput-mbps 1e-307"], "is not a finite deviation")):
        f.write_text(head + "".join(f"{line}\n" for line in lines))
        code, out, err = run(["simulate", "--profile-file", str(f), "--blocks", "0"], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"hc3cam: error: {f}:{len(lines) + 2}: {lines[-1]}: ")
        assert message in err
    # a published figure the profile's own clock passes, a --clock-mhz does not
    f.write_text(f"{head}paper-throughput-mbps 1e-10\n")
    code, out, _ = run(["simulate", "--profile-file", str(f), "--blocks", "0"], capsys)
    assert code == 0 and "deviation: 190559999999900.00%" in out
    code, out, err = run(["simulate", "--profile-file", str(f), "--clock-mhz", "1e300"],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith("hc3cam: error: --clock-mhz 1e+300: ") and "finite deviation" in err


def test_simulate_profile_file(tmp_path, capsys):
    from hc3cam import archsim, profile_file
    text = profile_file.format_profile(archsim.PROFILES["hc3-long"]).replace(
        "variant hc3-long", "variant custom-board")
    f = tmp_path / "board.profile"
    f.write_text(text)
    code, out, _ = run(["simulate", "--profile-file", str(f)], capsys)
    assert code == 0
    assert "variant: custom-board (hc3)" in out
    # a bad number is a usage error naming its file:line
    # so is a misspelt or repeated keyword (the text already sets clock-mhz)
    for line in ("critical-path-ns 0", "clock-mhz nan", "clock-mhz inf",
                 'setup "a" fast', "work-cycles x", "clok-mhz 5", "clock-mhz 5",
                 'setup "load key" 5 junk extra'):
        f.write_text(text + line + "\n")
        code, out, err = run(["simulate", "--profile-file", str(f)], capsys)
        assert code == 2
        assert f"{f}:{len(text.splitlines()) + 1}: " in err


@pytest.mark.parametrize("variant", ["hc3-long", "nosuch"])
@pytest.mark.parametrize("profile_first", [False, True])
def test_simulate_variant_and_profile_file_exclude_each_other(tmp_path, capsys, variant,
                                                              profile_first):
    # neither option silently overrides the other, whichever comes first
    from hc3cam import archsim, profile_file
    f = tmp_path / "board.profile"
    f.write_text(profile_file.format_profile(archsim.PROFILES["camellia-lu3"]))
    options = [["--variant", variant], ["--profile-file", str(f)]]
    if profile_first:
        options.reverse()
    code, out, err = run(["simulate", *options[0], *options[1], "--blocks", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("hc3cam: error: ") and "--variant" in err and "--profile-file" in err


def test_unreadable_inputs_are_usage_errors(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"KEY=\xff\n")
    for argv in (["kat", "--cipher", "hc3", "--vectors", str(bad)],
                 ["simulate", "--profile-file", str(bad)]):
        code, _, err = run(argv, capsys)
        assert code == 2 and str(bad) in err
    monkeypatch.setenv("HC3CAM_CONSTANTS_DIR", str(tmp_path))   # holds no .ctab
    code, _, err = run(["bench", "--cipher", "camellia", "--blocks", "1"], capsys)
    assert code == 2 and "camellia.ctab" in err


def test_internal_value_error_is_not_a_usage_error(tmp_path, monkeypatch):
    # only CliError and ConstantsError are usage errors; a ValueError from
    # inside the program is a fault and must surface as one
    from hc3cam import hc3

    def broken(data, ks):
        raise ValueError("internal fault")

    monkeypatch.setattr(hc3, "encrypt_blocks", broken)
    src = tmp_path / "p.bin"
    src.write_bytes(bytes(32))
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["encrypt", "--cipher", "hc3", "--key", KEY,
                  "--in", str(src), "--out", str(tmp_path / "c.bin")])


def test_simulate_requires_variant_or_profile(capsys):
    code, _, err = run(["simulate"], capsys)
    assert code == 2 and "simulate needs" in err


def test_simulate_variant_list_matches_profiles(capsys):
    # the help lists the variants without importing archsim
    from hc3cam import archsim
    assert cli.VARIANTS == tuple(sorted(archsim.PROFILES))
    code, out, err = run(["simulate", "--help"], capsys)
    assert code == 0 and err == ""
    assert ", ".join(cli.VARIANTS) in " ".join(out.split())


def test_bench_single_block(capsys):
    code, out, _ = run(["bench", "--cipher", "hc3", "--blocks", "1"], capsys)
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert float(row[3]) > 0  # throughput positive even for one block


# --- kat output contract ------------------------------------------------------
#
# kat runs key-sliced; its output must be what the per-record loop prints:
# mismatch lines in record order, encrypt before decrypt, then the summary.

def reference_kat(cipher, records, encrypt, decrypt):
    """Exit code and stdout of kat built with per-record key schedules."""
    mod = {"hc3": hc3, "camellia": camellia}[cipher]
    lines, failed = [], 0
    for index, (key, pt, ct) in enumerate(records, 1):
        ks = mod.key_schedule(key)
        record_failed = False
        for direction, expected, got in (("encrypt", ct, encrypt(pt, ks)),
                                         ("decrypt", pt, decrypt(ct, ks))):
            if got != expected:
                record_failed = True
                lines += [f"record {index}: {direction} mismatch", f"  key      {key.hex()}",
                          f"  expected {expected.hex()}", f"  got      {got.hex()}"]
        failed += record_failed
    if failed:
        lines.append(f"{cipher}: {failed} of {len(records)} record(s) failed")
    else:
        lines.append(f"{cipher}: all {len(records)} record(s) passed, both directions")
    return (1 if failed else 0), "\n".join(lines) + "\n"


def write_kat(path, records):
    path.write_text("\n".join(f"KEY={k.hex()}\nPT={p.hex()}\nCT={c.hex()}\n"
                              for k, p, c in records))


def faulty(fn, inputs):
    """fn with byte 0 of its output flipped for the blocks in inputs; works
    per block and on key-sliced batches."""
    def wrong(data, ks):
        out = bytearray(fn(data, ks))
        for off in range(0, len(data), 16):
            if data[off:off + 16] in inputs:
                out[off] ^= 1
        return bytes(out)
    return wrong


def kat_records(cipher, n, seed):
    mod = {"hc3": hc3, "camellia": camellia}[cipher]
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        key, pt = rng.randbytes(16), rng.randbytes(16)
        out.append((key, pt, mod.encrypt(pt, mod.key_schedule(key))))
    return out


@pytest.mark.parametrize("chunk", [None, 4])
@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
def test_kat_output_matches_per_record_reference(cipher, chunk, tmp_path, monkeypatch, capsys):
    mod = {"hc3": hc3, "camellia": camellia}[cipher]
    if chunk:
        # chunks of 4 records: the faults below sit on both sides of edges
        monkeypatch.setattr(cli, "CHUNK_BLOCKS", chunk)
    n = 23
    records = kat_records(cipher, n, seed=f"mismatch:{cipher}")
    # record 14 (counted from 1, as kat does) is wrong in the file, so it
    # fails both ways
    key, pt, ct = records[13]
    records[13] = (key, pt, bytes([ct[0] ^ 0x80]) + ct[1:])
    # one-way faults: encrypt wrong on records 1, 4, 8, 9, 18; decrypt wrong
    # on 3, 8, 11, 22, 23.  Record 8 fails both ways, the first and last
    # records are included, and in chunks of 4 records 17-20 fail only to
    # encrypt and 21-23 only to decrypt.
    enc_bad = {records[i - 1][1] for i in (1, 4, 8, 9, 18)}
    dec_bad = {records[i - 1][2] for i in (3, 8, 11, 22, 23)}
    want = reference_kat(cipher, records, faulty(mod.encrypt, enc_bad),
                         faulty(mod.decrypt, dec_bad))
    assert want[0] == 1 and want[1].count("mismatch\n") == 12
    assert want[1].endswith(f"{cipher}: 10 of 23 record(s) failed\n")

    f = tmp_path / "mixed.kat"
    write_kat(f, records)
    monkeypatch.setattr(mod, "encrypt_sliced", faulty(mod.encrypt_sliced, enc_bad))
    monkeypatch.setattr(mod, "decrypt_sliced", faulty(mod.decrypt_sliced, dec_bad))
    code, out, err = run(["kat", "--cipher", cipher, "--vectors", str(f)], capsys)
    assert (code, out) == want and err == ""


@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
def test_kat_one_record_and_chunk_edges(cipher, tmp_path, monkeypatch, capsys):
    mod = {"hc3": hc3, "camellia": camellia}[cipher]
    records = kat_records(cipher, 9, seed=f"edges:{cipher}")
    f = tmp_path / "v.kat"
    for chunk in (None, 1, 4, 8, 9):
        if chunk:
            monkeypatch.setattr(cli, "CHUNK_BLOCKS", chunk)
        for subset in (records[:1], records[:2], records):
            write_kat(f, subset)
            code, out, _ = run(["kat", "--cipher", cipher, "--vectors", str(f)], capsys)
            assert (code, out) == reference_kat(cipher, subset, mod.encrypt, mod.decrypt)
            assert code == 0
    # a one-record file that fails: both directions, then the summary
    key, pt, ct = records[0]
    bad = [(key, pt, bytes(16))]
    write_kat(f, bad)
    code, out, _ = run(["kat", "--cipher", cipher, "--vectors", str(f)], capsys)
    assert (code, out) == reference_kat(cipher, bad, mod.encrypt, mod.decrypt)
    assert out.count("mismatch\n") == 2


@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
def test_kat_counts_failed_records(cipher, tmp_path, capsys):
    # one corrupted CT fails its record both ways: two mismatch reports,
    # one failed record
    records = kat_records(cipher, 23, seed=f"count:{cipher}")
    key, pt, ct = records[9]
    records[9] = (key, pt, bytes([ct[0] ^ 1]) + ct[1:])
    f = tmp_path / "one-bad.kat"
    write_kat(f, records)
    code, out, _ = run(["kat", "--cipher", cipher, "--vectors", str(f)], capsys)
    assert code == 1 and out.count("mismatch\n") == 2
    assert out.endswith(f"\n{cipher}: 1 of 23 record(s) failed\n")


# --- kat vector file parsing --------------------------------------------------
#
# parse_kat_file reads the documented layout by columns and hands any other
# text to the line walker, which stays the oracle: on every text both give
# the same columns or the same error.

def parsed(parse, text):
    try:
        return parse(text, "v.kat")
    except cli.CliError as exc:
        return str(exc)


def kat_text(rng, variant, records=None, trailing=None):
    """A vector file of the (key, pt, ct) records, else of 1-6 random ones,
    written the way variant says, ending in `trailing` newlines (else 0-2)."""
    if records is None:
        records = [(rng.randbytes(16), rng.randbytes(16), rng.randbytes(16))
                   for _ in range(rng.randint(1, 6))]
    records = [list(zip(("KEY", "PT", "CT"), r)) for r in records]
    lines = ["# header", "#\tcomment", ""] if variant == "header" else []
    for i, fields in enumerate(records):
        if i and variant == "comments":
            lines += rng.choices(["#", "# note", f"#KEY={'ab' * 16}"], k=rng.randint(1, 3))
        elif i and variant != "adjacent":
            lines += [""] * rng.randint(1, 3)
        if variant == "reordered":
            rng.shuffle(fields)
        for name, value in fields:
            digits = value.hex().upper() if rng.random() < 0.5 else value.hex()
            if variant == "lower-case":
                name = name.lower()
            elif variant == "inline-comment":
                digits += " # " + name
            elif variant == "spaced":
                name, digits = f" {name} ", value.hex(" ")
            lines.append(f"{name}={digits}")
    text = "\n".join(lines) + "\n" * (rng.randint(0, 2) if trailing is None else trailing)
    return text.replace("\n", "\r\n") if variant == "crlf" else text


LAYOUT_VARIANTS = ["plain", "header", "comments"]


@pytest.mark.parametrize("variant", LAYOUT_VARIANTS + [
    "adjacent", "reordered", "lower-case", "inline-comment", "spaced", "crlf"])
def test_parse_kat_file_matches_line_walker(variant):
    rng = random.Random(f"kat-parse:{variant}")
    for _ in range(40):
        text = kat_text(rng, variant)
        want = parsed(cli._walk_kat_lines, text)
        assert parsed(cli.parse_kat_file, text) == want, text
        scanned = cli._scan_kat_layout(text)
        if variant in LAYOUT_VARIANTS:
            # the documented layout, with or without a final newline, is
            # read by columns
            assert scanned == want
        elif variant == "adjacent" and text.count("KEY=") > 1:
            assert want == "v.kat:4: duplicate KEY in record" and scanned is None
        else:
            assert scanned in (None, want)


@pytest.mark.parametrize("text", ["", "\n", "\n\n", "# only\n# comments", "# c\r\n\r\n"])
def test_parse_kat_file_without_records(text):
    assert cli._scan_kat_layout(text) is None
    assert parsed(cli.parse_kat_file, text) == "v.kat: no records found"


def test_parse_kat_file_damaged_layout_matches_line_walker():
    # one character inserted, deleted or replaced anywhere in a file of the
    # documented layout: whichever route takes it, the result is the walker's
    rng = random.Random("kat-parse:damaged")
    alphabet = "\n\r\x0b\x1c #=:0aGgKEYPTCkey"
    for _ in range(600):
        text = kat_text(rng, rng.choice(LAYOUT_VARIANTS))
        at = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        tail = text[at + 1:] if edit != "insert" else text[at:]
        text = text[:at] + ("" if edit == "delete" else rng.choice(alphabet)) + tail
        assert parsed(cli.parse_kat_file, text) == parsed(cli._walk_kat_lines, text), text


def kat_both_readers(path, monkeypatch, capsys):
    """kat on path, then again with every file read by the line walker."""
    argv = ["kat", "--cipher", "camellia", "--vectors", str(path)]
    got = run(argv, capsys)
    with monkeypatch.context() as m:
        m.setattr(cli, "parse_kat_file", cli._walk_kat_lines)
        return got, run(argv, capsys)


@pytest.mark.parametrize("n", [1, 8192, 8193])
def test_kat_by_columns_matches_line_walker_end_to_end(n, tmp_path, monkeypatch, capsys):
    # the CHUNK_BLOCKS edge; the second-to-last record's ciphertext, if
    # there is one, is wrong, so the record numbering shows in the output
    rng = random.Random(f"kat-columns:{n}")
    keys, plain = rng.randbytes(16 * n), rng.randbytes(16 * n)
    cipher = bytearray(camellia.encrypt_sliced(plain, camellia.key_schedule_sliced(keys)))
    if n > 1:
        cipher[-32] ^= 1
    records = [(keys[o:o + 16], plain[o:o + 16], bytes(cipher[o:o + 16]))
               for o in range(0, 16 * n, 16)]
    f = tmp_path / "v.kat"
    for variant, trailing in (("plain", 1), ("header", 0), ("comments", 2)):
        text = kat_text(rng, variant, records, trailing)
        assert cli._scan_kat_layout(text) == cli._walk_kat_lines(text, "v.kat")
        f.write_text(text)
        got, want = kat_both_readers(f, monkeypatch, capsys)
        assert got == want and want[0] == (1 if n > 1 else 0)


GOOD = f"# header\n\nKEY={'0' * 32}\nPT={'1' * 32}\nCT={'2' * 32}\n\n# end\n"


@pytest.mark.parametrize("text", [
    GOOD.replace("KEY=", "key="),
    GOOD.replace("CT=", "ct="),
    GOOD.replace("1" * 32, "1" * 31),
    GOOD.replace("1" * 32, "1" * 33),
    GOOD.replace("\n", "\r\n"),
    GOOD.replace("# end", "# e\x0bnd"),
], ids=["lower-case-key", "lower-case-ct", "31-digits", "33-digits", "crlf", "vt-in-comment"])
def test_kat_reader_refuses_other_layouts(text, tmp_path, monkeypatch, capsys):
    # text outside the documented layout goes to the line walker, which
    # reads it or names the file:line it refuses
    assert cli._scan_kat_layout(GOOD) is not None
    assert cli._scan_kat_layout(text) is None
    f = tmp_path / "v.kat"
    f.write_bytes(text.encode("ascii"))
    got, want = kat_both_readers(f, monkeypatch, capsys)
    assert got == want


def test_kat_non_ascii_file_is_usage_error(tmp_path, capsys):
    f = tmp_path / "v.kat"
    f.write_bytes(GOOD.replace("# end", "# \xe9nd").encode("latin-1"))
    code, out, err = run(["kat", "--cipher", "hc3", "--vectors", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"hc3cam: error: {f}: ") and "0xe9" in err


# --- a closed standard output ----------------------------------------------------
#
# hc3cam ... | head: once the reader is gone the command stops quietly with
# exit 141, whether the write that finds it gone is a print (unbuffered
# stdout) or the flush after the command (buffered).

def spawn(argv, unbuffered, stdout):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(DATA.parent.parent), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "hc3cam.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_simulate_trace_into_closed_pipe(unbuffered):
    # the reader end is closed before the command starts: the first print
    # (unbuffered) or the flush after the command (buffered) fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = spawn(["simulate", "--variant", "hc3-long", "--blocks", "1", "--trace"],
                     unbuffered, write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_kat_mismatches_into_pipe_closed_after_one_line(unbuffered, tmp_path):
    # 3 000 failing records print ≈1 MB, far more than a pipe holds, so
    # the command is still writing when the reader goes
    f = tmp_path / "bad.kat"
    write_kat(f, [(bytes(16), bytes(16), bytes(16))] * 3000)
    proc = spawn(["kat", "--cipher", "hc3", "--vectors", str(f)], unbuffered, subprocess.PIPE)
    assert proc.stdout.readline() == b"record 1: encrypt mismatch\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"")


# --- a process and main() --------------------------------------------------------
#
# `python -m hc3cam.cli` runs main() through cli.run(): the same output on
# both streams and the same exit code as main() in this process.

def parity_commands(tmp_path):
    wrong = tmp_path / "one-wrong-ct.kat"
    ct = bytearray(hc3.encrypt(bytes(16), hc3.key_schedule(bytes(16))))
    ct[0] ^= 1
    write_kat(wrong, [(bytes(16), bytes(16), bytes(ct))])
    src = tmp_path / "p.bin"
    src.write_bytes(bytes(32))
    return {
        "simulate": ["simulate", "--variant", "camellia-lu3", "--blocks", "3", "--trace"],
        "kat": ["kat", "--cipher", "hc3", "--vectors", str(DATA / "kat" / "hc3.kat")],
        "kat-mismatch": ["kat", "--cipher", "hc3", "--vectors", str(wrong)],
        "bad-key": ["encrypt", "--cipher", "hc3", "--key", "zz" * 16,
                    "--in", str(src), "--out", str(tmp_path / "c.bin")],
    }


@pytest.mark.parametrize("command, code", [("simulate", 0), ("kat", 0),
                                           ("kat-mismatch", 1), ("bad-key", 2)])
def test_process_matches_main(command, code, tmp_path, capsys):
    argv = parity_commands(tmp_path)[command]
    proc = spawn(argv, False, subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert run(argv, capsys) == (proc.returncode, out.decode(), err.decode())
    assert proc.returncode == code


# runs cli.run() with hc3's batch engine broken: a fault inside the program
FAULT = """
import sys
from hc3cam import cli, hc3

def broken(data, ks):
    raise ValueError("internal fault")

hc3.encrypt_blocks = broken
cli.run()
"""


def test_process_exits_70_with_traceback_on_a_fault(tmp_path):
    # exit 1 stays a KAT or functional mismatch; a crash is EX_SOFTWARE
    src = tmp_path / "p.bin"
    src.write_bytes(bytes(32))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(DATA.parent.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FAULT, "encrypt", "--cipher", "hc3",
                           "--key", KEY, "--in", str(src), "--out", str(tmp_path / "c.bin")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_SOFTWARE == 70
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.endswith("ValueError: internal fault\n")
