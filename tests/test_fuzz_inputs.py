"""A seeded fuzz of the text files the CLI reads, through cli.main.

Each case mutates one file one to three times and runs the command that
reads it: a packaged KAT vector file (kat), a profile that format_profile
wrote (simulate --profile-file), or the raw text of a packaged .ctab,
its checksum line included (kat under $HC3CAM_CONSTANTS_DIR).  A
mutation flips a bit, cuts a span, duplicates a line or inserts one of
the line breaks str.splitlines knows.  Every case returns 0, 1 or 2, and
no exception escapes cli.main.
"""

import random
from pathlib import Path

import pytest

from hc3cam import archsim, cli
from hc3cam.ctab import ENV_CONSTANTS_DIR
from hc3cam.profile_file import format_profile

DATA = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data"
# every line boundary str.splitlines breaks at
BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
CASES = 100


def mutate(rng, text: bytes) -> bytes:
    """text with one to three mutations: a bit flipped, a span of up to 40
    bytes cut, a line duplicated, or a line break inserted."""
    data = bytearray(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        kind = rng.randrange(4)
        if kind == 0 and data:
            data[min(at, len(data) - 1)] ^= 1 << rng.randrange(8)
        elif kind == 1:
            del data[at:at + rng.randint(1, 40)]
        elif kind == 2 and data:
            lines = data.splitlines(keepends=True)
            line = rng.randrange(len(lines))
            lines.insert(line, lines[line])
            data = bytearray(b"".join(lines))
        else:
            data[at:at] = rng.choice(BREAKS).encode()
    return bytes(data)


@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
@pytest.mark.parametrize("target", ["kat", "profile", "ctab"])
def test_mutated_inputs_exit_0_1_or_2(target, cipher, tmp_path, monkeypatch, capsys):
    rng = random.Random(f"inputs-{target}-{cipher}")
    vectors = DATA / "kat" / f"{cipher}.kat"
    variants = sorted(v for v, p in archsim.PROFILES.items() if p.cipher == cipher)
    for case in range(CASES):
        # a directory per case, as each constant file is loaded once per path
        directory = tmp_path / str(case)
        directory.mkdir()
        if target == "kat":
            path = directory / "vectors.kat"
            path.write_bytes(mutate(rng, vectors.read_bytes()))
            argv = ["kat", "--cipher", cipher, "--vectors", str(path)]
        elif target == "profile":
            path = directory / "device.profile"
            text = format_profile(archsim.PROFILES[rng.choice(variants)])
            path.write_bytes(mutate(rng, text.encode()))
            argv = ["simulate", "--profile-file", str(path), "--blocks", "1"]
        else:
            path = directory / f"{cipher}.ctab"
            path.write_bytes(mutate(rng, (DATA / f"{cipher}.ctab").read_bytes()))
            monkeypatch.setenv(ENV_CONSTANTS_DIR, str(directory))
            argv = ["kat", "--cipher", cipher, "--vectors", str(vectors)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (path.read_bytes(), err)
