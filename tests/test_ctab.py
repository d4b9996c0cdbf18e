from pathlib import Path

import pytest

from hc3cam import ctab
from hc3cam.ctab import ConstantsError

DATA = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data"


def sample_text():
    return ctab.write("demo", [("alpha", bytes(range(8))), ("beta", b"\xff\x00")],
                      comment="round trip sample")


def test_write_parse_roundtrip():
    tab = ctab.parse(sample_text())
    assert tab.name == "demo"
    assert tab.version == 1
    assert tab.get("alpha", 8) == bytes(range(8))
    assert tab.get("beta") == b"\xff\x00"


def test_words_accessor():
    text = ctab.write("demo", [("w", (0x1122).to_bytes(2, "big") * 3)])
    tab = ctab.parse(text)
    assert tab.words("w", 2, 3) == (0x1122,) * 3


def test_checksum_tamper_detected():
    bad = sample_text().replace("00010203", "00010204")
    with pytest.raises(ConstantsError, match="checksum mismatch"):
        ctab.parse(bad)


def test_missing_checksum_rejected():
    lines = [l for l in sample_text().splitlines() if not l.startswith("%checksum")]
    with pytest.raises(ConstantsError, match="missing %checksum"):
        ctab.parse("\n".join(lines))


def test_missing_magic_rejected():
    lines = [l for l in sample_text().splitlines() if not l.startswith("%ctab")]
    with pytest.raises(ConstantsError, match="missing %ctab"):
        ctab.parse("\n".join(lines))


def test_bad_hex_rejected():
    text = "%ctab v1 x\n[s]\nzz\n%checksum sha256 " + "0" * 64
    with pytest.raises(ConstantsError, match="bad hex"):
        ctab.parse(text)


def test_odd_hex_rejected():
    text = "%ctab v1 x\n[s]\nabc\n%checksum sha256 " + "0" * 64
    with pytest.raises(ConstantsError, match="odd hex"):
        ctab.parse(text)


def test_payload_outside_section_rejected():
    text = "%ctab v1 x\nab\n%checksum sha256 " + "0" * 64
    with pytest.raises(ConstantsError, match="outside any section"):
        ctab.parse(text)


def test_duplicate_sections_rejected():
    sections = [("alpha", b"\x01"), ("beta", b"\x02"), ("alpha", b"\x03")]
    with pytest.raises(ConstantsError, match=r"duplicate sections \['alpha'\]"):
        ctab.parse(ctab.write("demo", sections))


@pytest.mark.parametrize("name", ["hc3.ctab", "camellia.ctab"])
def test_sha256_is_the_verified_checksum(name):
    text = (DATA / name).read_text()
    declared = next(line.split()[2] for line in text.splitlines()
                    if line.startswith("%checksum"))
    tab = ctab.parse(text)
    assert tab.sha256 == declared == _checksum_of(tab)
    assert ctab.parse(sample_text()).sha256 == sample_text().split()[-1]


def test_missing_section_reported():
    tab = ctab.parse(sample_text())
    with pytest.raises(ConstantsError, match=r"missing section \[gamma\]"):
        tab.get("gamma")


def test_wrong_length_reported():
    tab = ctab.parse(sample_text())
    with pytest.raises(ConstantsError, match="expected 4"):
        tab.get("alpha", 4)


def test_comments_and_wrapping_ignored():
    text = ("# header\n%ctab v1 demo\n[alpha]\n00 01\n0203  # four bytes so far\n"
            "04050607\n[beta]\nff00\n")
    digest = ctab.parse(sample_text())  # reuse checksum from canonical writer
    full = text + f"%checksum sha256 {_checksum_of(digest)}\n"
    tab = ctab.parse(full)
    assert tab.get("alpha", 8) == bytes(range(8))


def _checksum_of(tab):
    return ctab._digest(list(tab.sections.items()))


ALPHA_ONLY = ctab.write("demo", [("alpha", bytes(range(8)))])
BOTH_DIGEST = ctab._digest([("alpha", bytes(range(8))), ("beta", b"\xff\x00")])


@pytest.mark.parametrize("text, lineno, message", [
    # a version this reader does not know, on the magic line (line 2)
    (sample_text().replace("v1", "v7"), 2, "bad or repeated magic line"),
    # a section, line 1, before the magic line
    (f"[alpha]\n{bytes(range(8)).hex()}\n%ctab v1 demo\n[beta]\nff00\n"
     f"%checksum sha256 {BOTH_DIGEST}\n", 1, "missing %ctab magic line"),
    # a second %checksum after one more section, the last one covering
    # every section: the section after the first checksum, line 5
    (ALPHA_ONLY + f"[beta]\nff00\n%checksum sha256 {BOTH_DIGEST}\n", 5,
     "text after the %checksum line"),
], ids=["version", "section-first", "second-checksum"])
def test_layout_the_format_forbids_rejected(text, lineno, message):
    with pytest.raises(ConstantsError, match=f"^f.ctab:{lineno}: {message}"):
        ctab.parse(text, source="f.ctab")
