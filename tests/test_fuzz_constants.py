"""A seeded fuzz of re-signed constant files through the CLI.

Each case mutates the payload of one section of a packaged .ctab and
writes the file again with ctab.write, so the checksum holds and the
loader's content checks meet the mutation.  Every command that loads a
set then runs on it through cli.main.  A set that is refused makes every
command return 2; a set that loads makes them return 0, except kat,
which may return 1 when a record disagrees.  No exception escapes, and
under a set that loads the per-block and batch engines agree.
"""

import random
from pathlib import Path

import pytest

from hc3cam import camellia, cli, ctab, hc3
from hc3cam.camellia import constants as cam_constants
from hc3cam.ctab import ConstantsError
from hc3cam.hc3 import constants as hc3_constants

DATA = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data"
CIPHERS = {"hc3": (hc3, hc3_constants, "hc3-long"),
           "camellia": (camellia, cam_constants, "camellia-lu3")}
CASES = 12


def mutate(rng, payload):
    """payload with one bit flipped, one byte replaced, two bytes swapped,
    or one byte cut or added."""
    data = bytearray(payload)
    i, j = rng.randrange(len(data)), rng.randrange(len(data))
    kind = rng.randrange(4)
    if kind == 0:
        data[i] ^= 1 << rng.randrange(8)
    elif kind == 1:
        data[i] = rng.randrange(256)
    elif kind == 2:
        data[i], data[j] = data[j], data[i]
    elif rng.randrange(2):
        del data[i]
    else:
        data.insert(i, rng.randrange(256))
    return bytes(data)


def engines_agree(package, consts, rng):
    key, data = rng.randbytes(16), rng.randbytes(48)
    ks = package.key_schedule(key, consts=consts)
    blocks = [data[off:off + 16] for off in range(0, len(data), 16)]
    ct = package.encrypt_blocks(data, ks)
    assert ct == b"".join(package.encrypt(b, ks) for b in blocks)
    assert package.decrypt_blocks(ct, ks) == data
    assert package.decrypt_blocks(data, ks) == b"".join(package.decrypt(b, ks) for b in blocks)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cipher", sorted(CIPHERS))
def test_resigned_mutations_load_or_exit_2(cipher, seed, tmp_path, monkeypatch, capsys):
    package, module, variant = CIPHERS[cipher]
    argv = {"bench": ["bench", "--cipher", cipher, "--blocks", "1"],
            "simulate": ["simulate", "--variant", variant, "--blocks", "1"],
            "kat": ["kat", "--cipher", cipher, "--vectors", str(DATA / "kat" / f"{cipher}.kat")]}
    tab = ctab.parse((DATA / f"{cipher}.ctab").read_text())
    rng = random.Random(f"fuzz-{cipher}-{seed}")
    for case in range(CASES):
        section = rng.choice(sorted(tab.sections))
        payload = mutate(rng, tab.sections[section])
        sections = [(n, payload if n == section else p) for n, p in tab.sections.items()]
        # a directory per case, as each file is loaded once per path
        directory = tmp_path / str(case)
        directory.mkdir()
        (directory / f"{cipher}.ctab").write_text(ctab.write(cipher, sections))
        monkeypatch.setenv(hc3_constants.ENV_CONSTANTS_DIR, str(directory))
        try:
            consts = module.load_constants()
        except ConstantsError:
            consts = None
        for command, args in argv.items():
            code = cli.main(args)
            err = capsys.readouterr().err
            what = (section, payload.hex(), command, err)
            if consts is None:
                assert code == 2, what
            else:
                assert code in ((0, 1) if command == "kat" else (0,)), what
        if consts is not None:
            engines_agree(package, consts, rng)
