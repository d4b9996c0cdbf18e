import random
import shutil
from pathlib import Path

import pytest

from hc3cam import ctab
from hc3cam.ctab import ConstantsError
from hc3cam.camellia import constants as cam_constants
from hc3cam.hc3 import constants as hc3_constants

DATA = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data"


def test_hc3_env_dir_override(tmp_path, monkeypatch):
    shutil.copy(DATA / "hc3.ctab", tmp_path / "hc3.ctab")
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))
    consts = hc3_constants.load_constants()
    assert consts.sbox == hc3_constants.load_constants(DATA / "hc3.ctab").sbox


def test_camellia_env_dir_override(tmp_path, monkeypatch):
    shutil.copy(DATA / "camellia.ctab", tmp_path / "camellia.ctab")
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))
    consts = cam_constants.load_constants()
    assert consts.s1 == cam_constants.load_constants(DATA / "camellia.ctab").s1


@pytest.mark.parametrize("module, name", [(hc3_constants, "hc3"), (cam_constants, "camellia")])
def test_load_constants_once_per_file_and_follows_env_dir(module, name, tmp_path, monkeypatch):
    env = hc3_constants.ENV_CONSTANTS_DIR
    monkeypatch.delenv(env, raising=False)
    path = DATA / f"{name}.ctab"
    assert module.load_constants(path) is module.load_constants(str(path))
    packaged = module.load_constants()
    assert module.load_constants() is module.get_constants() is packaged
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        shutil.copy(path, tmp_path / d / f"{name}.ctab")
    monkeypatch.setenv(env, str(tmp_path / "a"))
    a = module.load_constants()
    assert a is not packaged
    assert a is module.load_constants() is module.load_constants(tmp_path / "a" / f"{name}.ctab")
    monkeypatch.setenv(env, str(tmp_path / "b"))
    b = module.load_constants()
    assert b is not a and b is module.get_constants()
    monkeypatch.setenv(env, "")
    assert module.load_constants() is packaged
    monkeypatch.delenv(env)
    assert module.load_constants() is packaged


def test_corrupt_override_refused(tmp_path, monkeypatch):
    text = (DATA / "hc3.ctab").read_text()
    # corrupt a payload byte without fixing the checksum
    (tmp_path / "hc3.ctab").write_text(text.replace("[sbox]\n00", "[sbox]\n01", 1))
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))
    with pytest.raises(ConstantsError, match="checksum mismatch"):
        hc3_constants.load_constants()


def use_shifted_sbox_override(tmp_path, monkeypatch):
    """Load hc3.ctab with its sbox composed with x -> x + 1, checksum rebuilt;
    return the new sbox."""
    tab = ctab.parse((DATA / "hc3.ctab").read_text())
    sbox = tab.sections["sbox"]
    new_sbox = bytes(sbox[(x + 1) & 0xFF] for x in range(256))
    sections = [(n, new_sbox if n == "sbox" else p) for n, p in tab.sections.items()]
    (tmp_path / "hc3.ctab").write_text(ctab.write("hc3", sections))
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))
    return new_sbox


def test_alternative_valid_table_loads(tmp_path, monkeypatch):
    # a structurally valid replacement (sbox composed with a fixed
    # permutation, checksum rebuilt) must load and work end to end
    new_sbox = use_shifted_sbox_override(tmp_path, monkeypatch)
    consts = hc3_constants.load_constants()
    assert consts.sbox == new_sbox

    from hc3cam import hc3
    ks = hc3.key_schedule(bytes(16), consts=consts)
    block = bytes(range(16))
    assert hc3.decrypt(hc3.encrypt(block, ks), ks) == block
    # and it is a genuinely different cipher than the packaged table
    packaged = hc3_constants.load_constants(DATA / "hc3.ctab")
    ks2 = hc3.key_schedule(bytes(16), consts=packaged)
    assert hc3.encrypt(block, ks2) != hc3.encrypt(block, ks)


def test_pad_words_change_round_keys(tmp_path):
    # each of the padding words H3/H2 in [pad] reaches every key's schedule
    from hc3cam import hc3
    tab = ctab.parse((DATA / "hc3.ctab").read_text())
    packaged = hc3_constants.load_constants(DATA / "hc3.ctab")
    rng = random.Random(45)
    keys = [rng.randbytes(16) for _ in range(20)]
    for word in (0, 1):
        pad = bytearray(tab.sections["pad"])
        pad[8 * word + 3] ^= 0x10
        sections = [(n, bytes(pad) if n == "pad" else p) for n, p in tab.sections.items()]
        path = tmp_path / f"pad{word}.ctab"
        path.write_text(ctab.write("hc3", sections))
        edited = hc3_constants.load_constants(path)
        assert (edited.pad_h3, edited.pad_h2) != (packaged.pad_h3, packaged.pad_h2)
        for key in keys:
            old = hc3.key_schedule(key, consts=packaged).round_keys
            new = hc3.key_schedule(key, consts=edited).round_keys
            assert all(a != b for a, b in zip(old, new))


def test_camellia_rejects_broken_s2_rule(tmp_path):
    tab = ctab.parse((DATA / "camellia.ctab").read_text())
    s2 = bytearray(tab.sections["s2"])
    s2[0], s2[1] = s2[1], s2[0]
    sections = [(n, bytes(s2) if n == "s2" else p) for n, p in tab.sections.items()]
    text = ctab.write("camellia", sections)
    with pytest.raises(ConstantsError, match="derivation rules"):
        cam_constants.CamelliaConstants(ctab.parse(text))


def test_camellia_rejects_wrong_name():
    tab = ctab.parse((DATA / "camellia.ctab").read_text())
    text = ctab.write("hc3", list(tab.sections.items()))
    with pytest.raises(ConstantsError, match="expected a 'camellia' ctab"):
        cam_constants.CamelliaConstants(ctab.parse(text))


def use_non_involution_override(tmp_path, monkeypatch):
    """Load hc3.ctab with the mds_h and p32 rows rotated.

    The packaged mds_h and p32 are involutions, so their inverse layers
    share tables with the forward ones.  Rotated rows are still valid
    but no longer self-inverse: the inverses must get their own tables.
    """
    tab = ctab.parse((DATA / "hc3.ctab").read_text())
    rotated = {"mds_h": lambda p: p[2:] + p[:2], "p32": lambda p: p[1:] + p[:1]}
    sections = [(n, rotated[n](p) if n in rotated else p) for n, p in tab.sections.items()]
    (tmp_path / "hc3.ctab").write_text(ctab.write("hc3", sections))
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))
    return hc3_constants.load_constants()


def test_non_involution_override_inverts(tmp_path, monkeypatch):
    consts = use_non_involution_override(tmp_path, monkeypatch)
    assert consts.mds_h_inv_rows != consts.mds_h_rows
    assert consts.p32_inv_rows != consts.p32_rows

    from hc3cam import gf2, hc3
    rng = random.Random(41)
    for _ in range(200):
        block = rng.randbytes(16)
        assert hc3.mds_h(block) == bytes(gf2.apply_rows(consts.mds_h_rows, block))
        assert hc3.mds_h_inv(hc3.mds_h(block)) == block
        hi, lo = rng.getrandbits(64), rng.getrandbits(64)
        assert hc3.p32_pair(*hc3.p32_pair(hi, lo, consts), consts, inverse=True) == (hi, lo)
        z = hc3.IntermediateKey(*(rng.getrandbits(64) for _ in range(4)))
        g = consts.g0[rng.randrange(6)]
        # sigma feeds P(32) from z3/z4, so sigma_inv hands them back once
        # M_B3 and P(32)^-1 have undone M_5E and P(32)
        assert hc3.sigma_inv(hc3.sigma(z, g), g) == z
        ks = hc3.key_schedule(rng.randbytes(16))
        assert hc3.decrypt(hc3.encrypt(block, ks), ks) == block


def test_batch_matches_per_block_under_non_involution_override(tmp_path, monkeypatch):
    # checks the batch engine's mds_h_inv plane selection against a set
    # whose inverse differs from mds_h
    consts = use_non_involution_override(tmp_path, monkeypatch)
    assert consts.mds_h_inv_rows != consts.mds_h_rows

    from hc3cam import hc3
    rng = random.Random(43)
    for n in (0, 1, 2, 17, 300):
        ks = hc3.key_schedule(rng.randbytes(16))
        data = rng.randbytes(16 * n)
        blocks = [data[off:off + 16] for off in range(0, len(data), 16)]
        assert hc3.encrypt_blocks(data, ks) == b"".join(hc3.encrypt(b, ks) for b in blocks)
        assert hc3.decrypt_blocks(data, ks) == b"".join(hc3.decrypt(b, ks) for b in blocks)


def test_key_schedule_keeps_its_constants(tmp_path, monkeypatch):
    # a schedule built under one HC3CAM_CONSTANTS_DIR still enciphers with
    # that set after the variable changes, and takes no other set
    override = use_non_involution_override(tmp_path, monkeypatch)
    from hc3cam import hc3
    ks = hc3.key_schedule(bytes(range(16)))
    monkeypatch.delenv(hc3_constants.ENV_CONSTANTS_DIR)
    packaged = hc3_constants.load_constants()
    assert ks.consts is override is not packaged

    block = bytes(16)
    ct = hc3.encrypt(block, ks)
    assert ct == hc3.encrypt(block, hc3.key_schedule(bytes(range(16)), consts=override))
    assert ct != hc3.encrypt(block, hc3.key_schedule(bytes(range(16))))
    assert hc3.decrypt(ct, ks) == block
    assert hc3.encrypt_blocks(block, ks) == ct
    assert hc3.decrypt_blocks(ct, ks) == block
    for fn in (hc3.encrypt, hc3.decrypt, hc3.encrypt_blocks, hc3.decrypt_blocks):
        with pytest.raises(TypeError):
            fn(block, ks, packaged)


def use_rotated_p_override(tmp_path, monkeypatch):
    """Load camellia.ctab with its P rows rotated: a valid, invertible P
    layer, but not the one of RFC 3713."""
    tab = ctab.parse((DATA / "camellia.ctab").read_text())
    sections = [(n, p[1:] + p[:1] if n == "p" else p) for n, p in tab.sections.items()]
    (tmp_path / "camellia.ctab").write_text(ctab.write("camellia", sections))
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))
    return cam_constants.load_constants()


def test_camellia_batch_follows_p_rows(tmp_path, monkeypatch):
    # the batch engine's P layer comes from the loaded rows, so it still
    # matches the per-block path when they change
    consts = use_rotated_p_override(tmp_path, monkeypatch)
    packaged = cam_constants.load_constants(DATA / "camellia.ctab")
    assert consts.p_rows != packaged.p_rows

    from hc3cam import camellia
    rng = random.Random(47)
    for n in (1, 2, 17, 300):
        key, data = rng.randbytes(16), rng.randbytes(16 * n)
        sk = camellia.key_schedule(key)
        blocks = [data[off:off + 16] for off in range(0, len(data), 16)]
        ct = camellia.encrypt_blocks(data, sk)
        assert ct == b"".join(camellia.encrypt(b, sk) for b in blocks)
        assert camellia.decrypt_blocks(data, sk) == b"".join(camellia.decrypt(b, sk) for b in blocks)
        assert ct != camellia.encrypt_blocks(data, camellia.key_schedule(key, packaged))


def test_camellia_key_schedule_keeps_its_constants(tmp_path, monkeypatch):
    # subkeys built under one HC3CAM_CONSTANTS_DIR still encipher with that
    # set after the variable changes, and take no other set
    override = use_rotated_p_override(tmp_path, monkeypatch)
    from hc3cam import camellia
    sk = camellia.key_schedule(bytes(range(16)))
    monkeypatch.delenv(hc3_constants.ENV_CONSTANTS_DIR)
    packaged = cam_constants.load_constants()
    assert sk.consts is override is not packaged
    assert camellia.reverse_subkeys(sk).consts is override

    block = bytes(16)
    ct = camellia.encrypt(block, sk)
    assert ct == camellia.encrypt(block, camellia.key_schedule(bytes(range(16)), override))
    assert ct != camellia.encrypt(block, camellia.key_schedule(bytes(range(16))))
    assert camellia.decrypt(ct, sk) == block
    assert camellia.encrypt_blocks(block, sk) == ct
    assert camellia.decrypt_blocks(ct, sk) == block
    for fn in (camellia.encrypt, camellia.decrypt,
               camellia.encrypt_blocks, camellia.decrypt_blocks):
        with pytest.raises(TypeError):
            fn(block, sk, packaged)


STRAY_ARGV = {
    "bench": ["bench", "--cipher", "hc3", "--blocks", "1"],
    "simulate": ["simulate", "--variant", "hc3-long", "--blocks", "1"],
    "kat": ["kat", "--cipher", "hc3", "--vectors", str(DATA / "kat" / "hc3.kat")],
}


@pytest.mark.parametrize("row", range(4))
@pytest.mark.parametrize("section", ["p32", "p16"])
def test_stray_row_bits_refused_by_every_command(section, row, tmp_path, monkeypatch, capsys):
    # p32 and p16 hold four rows over four lanes, one byte each: a bit
    # 4-7 selects no lane, and the set must not load
    from hc3cam import cli
    tab = ctab.parse((DATA / "hc3.ctab").read_text())
    monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(tmp_path))
    for bit in range(4, 8):
        rows = bytearray(tab.sections[section])
        rows[row] |= 1 << bit
        sections = [(n, bytes(rows) if n == section else p) for n, p in tab.sections.items()]
        (tmp_path / "hc3.ctab").write_text(ctab.write("hc3", sections))
        with pytest.raises(ConstantsError, match=rf"\[{section}\]: not a 4 x 4 bit matrix"):
            hc3_constants.load_constants()
        for command, argv in STRAY_ARGV.items():
            assert cli.main(argv) == 2, (command, bit)
            err = capsys.readouterr().err
            assert f"[{section}]" in err and "Traceback" not in err, (command, bit)
