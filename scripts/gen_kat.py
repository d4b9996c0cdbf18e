#!/usr/bin/env python3
"""Regenerate src/hc3cam/data/kat/*.kat.

camellia.kat leads with the official 128-bit test vector published with
the Camellia specification (also in RFC 3713 appendix A); the extra
records are regression vectors produced by this implementation once it
passed that vector.

hc3.kat holds regression vectors only: they pin this implementation
against the RECONSTRUCTED constant set shipped in hc3.ctab (see
README 'Constants provenance') and are NOT interoperability vectors.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hc3cam import camellia, hc3

KAT_DIR = Path(__file__).resolve().parent.parent / "src" / "hc3cam" / "data" / "kat"

# what --help prints: a constant, not the docstring, so python -OO keeps it
USAGE = ("usage: python scripts/gen_kat.py\n"
         "Rewrite src/hc3cam/data/kat/camellia.kat and hc3.kat; takes no arguments.")

CAMELLIA_OFFICIAL = (
    "0123456789abcdeffedcba9876543210",
    "0123456789abcdeffedcba9876543210",
    "67673138549669730857065648eabe43",
)


def record(key: bytes, pt: bytes, ct: bytes) -> str:
    return f"KEY={key.hex()}\nPT={pt.hex()}\nCT={ct.hex()}\n"


def extra_inputs():
    yield bytes(16), bytes(16)
    yield bytes.fromhex("ff" * 16), bytes(16)
    yield bytes(16), bytes.fromhex("80" + "00" * 15)
    yield bytes(range(16)), bytes(range(16))
    yield bytes.fromhex("000102030405060708090a0b0c0d0e0f"), bytes.fromhex("00112233445566778899aabbccddeeff")


def main(argv=None) -> int:
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if argv:
        print(f"{USAGE}\ngen_kat.py: error: unrecognized arguments: {' '.join(argv)}",
              file=sys.stderr)
        return 2
    KAT_DIR.mkdir(parents=True, exist_ok=True)

    key, pt, ct = (bytes.fromhex(h) for h in CAMELLIA_OFFICIAL)
    sk = camellia.key_schedule(key)
    got = camellia.encrypt(pt, sk)
    assert got == ct, f"official camellia vector failed: got {got.hex()}"
    parts = ["# Camellia-128 known-answer vectors.",
             "# Record 1 is the official vector published with the cipher",
             "# specification (RFC 3713 appendix A); the rest are regression",
             "# vectors generated by this implementation.",
             "", record(key, pt, ct)]
    for k, p in extra_inputs():
        parts.append(record(k, p, camellia.encrypt(p, camellia.key_schedule(k))))
    (KAT_DIR / "camellia.kat").write_text("\n".join(parts))

    parts = ["# HIEROCRYPT-3 regression vectors for the RECONSTRUCTED constant",
             "# set shipped as hc3.ctab (see README 'Constants provenance').",
             "# These pin this implementation against itself; they are NOT",
             "# interoperability vectors from the official cipher specification.",
             ""]
    for k, p in extra_inputs():
        parts.append(record(k, p, hc3.encrypt(p, hc3.key_schedule(k))))
    (KAT_DIR / "hc3.kat").write_text("\n".join(parts))
    print(f"wrote {KAT_DIR / 'camellia.kat'}")
    print(f"wrote {KAT_DIR / 'hc3.kat'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
