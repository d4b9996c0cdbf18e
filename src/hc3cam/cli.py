"""Command-line front end; USAGE lists the commands and their options.

Exit codes: 0 success, 1 known-answer verification mismatch, 2 usage or
format error, 70 (EX_SOFTWARE) when a process ends on an uncaught
exception, whose traceback it prints, and 141 (128 + SIGPIPE) when the
reader of standard output closed it before the command had written
everything.  Files are processed as raw
16-byte ECB blocks; a partial final block is an error, never padded.
encrypt/decrypt stream the file in chunks of CHUNK_BLOCKS blocks, each
through the cipher's byte-plane batch engine (encrypt_blocks/decrypt_blocks
of hc3 or camellia), and bench times that engine.  kat reads a vector file
in the documented layout by columns (split at each record, fixed-width
fields gathered by strided slices, one hex decode per column) and any
other text line by line, into key, plaintext and ciphertext columns, and
runs them key-sliced, CHUNK_BLOCKS records at a time: one
key_schedule_sliced per chunk, then encrypt_sliced of the plaintexts and
decrypt_sliced of the ciphertexts.  simulate checks every block the device
model produced against the batch engine, one encrypt_blocks call per
CHUNK_BLOCKS blocks.

What lives where: this module holds main() and run(), the argv reader
with its COMMANDS table, the names every command shares (CliError,
BLOCK_BYTES, CHUNK_BLOCKS, CIPHERS, VARIANTS, _read_text) and kat with
its vector reader, so --help, a usage error and kat compile nothing
else of the front end.  The encrypt, decrypt, bench and simulate
handlers live in the hc3cam.commands package, which parse_args imports
only once it has read one of those commands, and then only the handler's
own submodule.

A command compiles only the modules it runs (see hc3cam.hc3 and
hc3cam.camellia): encrypt, decrypt and bench its cipher's per-key
schedule and batch engine, kat the key-sliced engine, simulate archsim
and, from one block on, the datapath's schedule and the batch engine.
A process (`python -m hc3cam.cli`, the `hc3cam` script) runs main()
through run(), which freezes the heap before it exits, so CPython's
collections at shutdown walk none of it.
"""

from __future__ import annotations

import binascii
import gc
import os
import re
import sys
from importlib import import_module
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from . import ConstantsError

# what -h/--help prints: a constant, not the docstring, so python -OO keeps it
USAGE = """\
    hc3cam encrypt  --cipher hc3|camellia --key <hex32> --in F --out G
    hc3cam decrypt  --cipher hc3|camellia --key <hex32> --in F --out G
    hc3cam kat      --cipher hc3|camellia --vectors F
    hc3cam bench    --cipher hc3|camellia [--blocks N]
    hc3cam simulate (--variant V | --profile-file F) [--blocks N]
                    [--clock-mhz F] [--trace]"""
BLOCK_BYTES = 16
# encrypt/decrypt read, process and write this many blocks at a time, and
# simulate checks this many per batch call: memory stays bounded whatever
# the size, and a chunk is large enough that the batch engine's per-call
# cost is spread thin
CHUNK_BLOCKS = 8192
# --cipher name -> package with key_schedule, encrypt, decrypt,
# encrypt_blocks, decrypt_blocks, key_schedule_sliced, encrypt_sliced and
# decrypt_sliced, imported when a command names it; its functions are
# looked up at call time, so a substituted one (a tracer) is what runs
CIPHERS = {"hc3": "hc3cam.hc3", "camellia": "hc3cam.camellia"}
# the code a shell gives a process killed by SIGPIPE (13)
EXIT_BROKEN_PIPE = 128 + 13
# sysexits.h's EX_SOFTWARE: a fault in the program, never a mismatch (1)
EXIT_SOFTWARE = 70
# sorted(archsim.PROFILES), for the help without importing archsim
VARIANTS = ("camellia-lu3", "hc3-extensive", "hc3-long", "hc3-short", "hc3-verylong")


class CliError(Exception):
    """Usage or data-format problem; maps to exit code 2."""


class KatVectors(NamedTuple):
    """The records of a vector file as columns: n records, each field the
    concatenation of their 16-byte values in file order."""
    n: int
    keys: bytes
    plaintexts: bytes
    ciphertexts: bytes


_KAT_FIELDS = ("KEY", "PT", "CT")
# The layout the README documents and scripts/gen_kat.py writes, one line
# per '\n': blank or '#' comment lines, then KEY=/PT=/CT= records of 32 hex
# digits each, at least one blank or comment line between two records.
# Comment lines hold printable ASCII and tabs only, so every character
# str.splitlines breaks at is outside them.
_SEPS = r"(?:(?:#[\t -~]*)?\n)+"
# A record in the layout after its "KEY=": this fixed-width head, each '.'
# a hex digit of the fields that start at _FIELD_AT, then separator lines
_HEAD_LAYOUT = f"{'.' * 32}\nPT={'.' * 32}\nCT={'.' * 32}\n"
_HEAD = len(_HEAD_LAYOUT)
_FIELD_AT = (0, 36, 72)
_HEAD_MARKS = tuple((at, c.encode()) for at, c in enumerate(_HEAD_LAYOUT) if c != ".")


def parse_kat_file(text: str, source: str = "<kat>") -> KatVectors:
    """KEY=/PT=/CT= triples, '#' comments, blank lines between records.

    Text in the documented layout is read by columns; any other text, and
    every error, goes through the line walker."""
    return _scan_kat_layout(text) or _walk_kat_lines(text, source)


def _scan_kat_layout(text: str) -> KatVectors | None:
    """The records of text in the documented layout; None for text in any
    other layout or with no records."""
    # Led by a '\n' and closed by one, text in the layout splits at every
    # "\nKEY=" into its leading separator lines less their last '\n', then
    # one piece per record: its fixed-width head, then the separator lines
    # after it, again less their last '\n'.  No separator line holds a
    # "\nKEY=", since each one is blank or starts with '#'.
    lead, *records = f"\n{text}\n".split("\nKEY=")
    n = len(records)
    heads = "".join(map(itemgetter(slice(_HEAD)), records))
    if not n or len(heads) != _HEAD * n or not heads.isascii():
        return None
    tails = {lead, *map(itemgetter(slice(_HEAD, None)), records)}
    if not all(re.fullmatch(_SEPS, tail + "\n") for tail in tails):
        return None
    raw = heads.encode("ascii")
    if any(raw[at::_HEAD] != mark * n for at, mark in _HEAD_MARKS):
        return None
    columns = []
    for at in _FIELD_AT:
        digits = bytearray(32 * n)
        for i in range(32):
            digits[i::32] = raw[at + i::_HEAD]
        try:
            columns.append(binascii.unhexlify(digits))
        except binascii.Error:
            return None
    return KatVectors(n, *columns)


def _walk_kat_lines(text: str, source: str) -> KatVectors:
    """Line by line: fields in any order and case, spaces, inline comments
    and spaced hex; every malformed line is a file:line error."""
    columns: dict[str, list[bytes]] = {name: [] for name in _KAT_FIELDS}
    pending: dict[str, bytes] = {}

    def close(lineno):
        if not pending:
            return
        missing = [f for f in _KAT_FIELDS if f not in pending]
        if missing:
            raise CliError(f"{source}:{lineno}: record missing {'/'.join(missing)}")
        for name in _KAT_FIELDS:
            columns[name].append(pending[name])
        pending.clear()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            close(lineno)
            continue
        if "=" not in line:
            raise CliError(f"{source}:{lineno}: expected FIELD=hex, got {line!r}")
        name, _, value = line.partition("=")
        name = name.strip().upper()
        if name not in _KAT_FIELDS:
            raise CliError(f"{source}:{lineno}: unknown field {name!r}")
        if name in pending:
            raise CliError(f"{source}:{lineno}: duplicate {name} in record")
        try:
            payload = bytes.fromhex(value.strip())
        except ValueError:
            raise CliError(f"{source}:{lineno}: bad hex in {name}") from None
        if len(payload) != BLOCK_BYTES:
            raise CliError(f"{source}:{lineno}: {name} must be 32 hex digits")
        pending[name] = payload
    close(lineno + 1 if text else 0)
    if not columns["KEY"]:
        raise CliError(f"{source}: no records found")
    return KatVectors(len(columns["KEY"]),
                      *(b"".join(columns[name]) for name in _KAT_FIELDS))


def _mismatch(index: int, key: bytes, direction: str, expected: bytes,
              got: bytes) -> int:
    """Print a mismatch of one record in one direction; 1 if there was one."""
    if got == expected:
        return 0
    print(f"record {index}: {direction} mismatch\n"
          f"  key      {key.hex()}\n"
          f"  expected {expected.hex()}\n"
          f"  got      {got.hex()}")
    return 1


def _read_text(path: str) -> str:
    """An ASCII text file named on the command line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_kat(args) -> int:
    # the text is dropped once parsed, before the records are run
    vectors = parse_kat_file(_read_text(args.vectors), source=args.vectors)
    mod = import_module(CIPHERS[args.cipher])
    failed = 0
    for start in range(0, vectors.n, CHUNK_BLOCKS):
        cut = slice(BLOCK_BYTES * start, BLOCK_BYTES * (start + CHUNK_BLOCKS))
        keys = vectors.keys[cut]
        plain = vectors.plaintexts[cut]
        cipher = vectors.ciphertexts[cut]
        ks = mod.key_schedule_sliced(keys)
        got_ct = mod.encrypt_sliced(plain, ks)
        got_pt = mod.decrypt_sliced(cipher, ks)
        if got_ct == cipher and got_pt == plain:
            continue
        for index, off in enumerate(range(0, len(keys), BLOCK_BYTES), start + 1):
            block = slice(off, off + BLOCK_BYTES)
            # `|`, not `or`: a record's decrypt mismatch prints after its encrypt one
            failed += (_mismatch(index, keys[block], "encrypt", cipher[block], got_ct[block])
                       | _mismatch(index, keys[block], "decrypt", plain[block], got_pt[block]))
    total = vectors.n
    if failed:
        print(f"{args.cipher}: {failed} of {total} record(s) failed")
        return 1
    print(f"{args.cipher}: all {total} record(s) passed, both directions")
    return 0


def _cipher(name: str) -> str:
    if name not in CIPHERS:
        raise ValueError(f"invalid choice: {name!r} (choose from {', '.join(CIPHERS)})")
    return name


def _help(args) -> int:
    """-h/--help: USAGE and the variants."""
    print(f"usage:\n{USAGE}\n\nvariants: {', '.join(VARIANTS)}")
    return 0


_REQUIRED = object()
_CIPHER = {"--cipher": ("cipher", _cipher, _REQUIRED)}
_CRYPT = {**_CIPHER, "--key": ("key", str, _REQUIRED), "--in": ("infile", str, _REQUIRED),
          "--out": ("outfile", str, _REQUIRED)}
# command -> (handler, {option: (dest, conversion, default)}).  An option
# whose default is _REQUIRED must be given; one whose conversion is None is
# a flag, True when given.  -h/--help, anywhere, runs _help.  A handler
# given by name lives in hc3cam.commands, imported once a command line
# names it.
COMMANDS = {
    "encrypt": ("cmd_crypt", _CRYPT),
    "decrypt": ("cmd_crypt", _CRYPT),
    "kat": (cmd_kat, {**_CIPHER, "--vectors": ("vectors", str, _REQUIRED)}),
    "bench": ("cmd_bench", {**_CIPHER, "--blocks": ("blocks", int, 10000)}),
    "simulate": ("cmd_simulate", {
        "--variant": ("variant", str, None), "--profile-file": ("profile_file", str, None),
        "--blocks": ("blocks", int, 1), "--clock-mhz": ("clock_mhz", float, None),
        "--trace": ("trace", None, False)}),
}
_HELP = dict.fromkeys(("-h", "--help"), ("help", None, False))
# argparse's rule: a token like these is a value, though it starts with '-'
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _option(token: str, options: dict) -> str | None:
    """The option a token names, before any '=', in full or by a unique
    prefix; the token itself if it names none; None for a value."""
    if not token.startswith("-") or token == "-":
        return None
    name = token.partition("=")[0]
    # a bare "--" names no option: argparse ends the options there
    found = [name] if name in options else [
        o for o in options if o.startswith(name) and token != "--"]
    if len(found) > 1:
        raise CliError(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0]
    return None if _NEGATIVE.fullmatch(token) or " " in token else token


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, its handler (func) and each option's value by dest, as
    argparse read them; _help for a -h/--help that comes before any error."""
    command, options, given = None, _HELP, {}
    tokens = iter(argv)
    for token in tokens:
        opt = _option(token, options)
        if opt is None and command is None and token in COMMANDS:
            command, options = token, {**COMMANDS[token][1], **_HELP}
            continue
        if opt not in options:
            raise CliError(f"unrecognized argument {token!r}" if command else
                           f"not a command: {token!r} (commands: {', '.join(COMMANDS)})")
        dest, conv, _ = options[opt]
        _, explicit, value = token.partition("=")
        if conv is None:                # -h/--help or a flag: no value
            if explicit:
                raise CliError(f"argument {opt}: ignored explicit argument {value!r}")
            if dest == "help":
                return SimpleNamespace(func=_help)
            given[opt] = True
            continue
        if not explicit:
            value = next(tokens, None)
            if value is None or _option(value, options) is not None:
                raise CliError(f"argument {opt}: expected one argument")
        try:
            given[opt] = conv(value)
        except ValueError as exc:
            raise CliError(f"argument {opt}: {exc}") from None
    if command is None:
        raise CliError("a command is required: " + ", ".join(COMMANDS))
    func, table = COMMANDS[command]
    missing = [opt for opt, spec in table.items() if spec[2] is _REQUIRED and opt not in given]
    if missing:
        raise CliError("the following arguments are required: " + ", ".join(missing))
    if isinstance(func, str):
        func = getattr(import_module(".commands", __package__), func)
    return SimpleNamespace(command=command, func=func, **{
        dest: given.get(opt, default) for opt, (dest, _, default) in table.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        # a reader gone from a buffered stdout shows here, not at exit
        sys.stdout.flush()
        return code
    except (CliError, ConstantsError) as exc:
        print(f"hc3cam: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader closed it (hc3cam ... | head): what is left of
        # the output, the exit flush included, goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def run() -> NoReturn:
    """main(), then exit with its code, or with EXIT_SOFTWARE once an
    exception main() did not handle has printed its traceback.  Whatever
    main() left on the heap lives until the process ends, so gc.freeze()
    first moves it to the permanent generation, which the collections of
    interpreter shutdown skip.  main() itself freezes nothing and lets a
    fault propagate: tests and tracers call it inside long-lived processes.

    Under `python -m hc3cam.cli` this file runs as __main__; it is also
    registered as hc3cam.cli, so hc3cam.commands, which imports that,
    shares its globals instead of compiling this file a second time."""
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    try:
        code = main()
    except Exception as exc:
        sys.excepthook(type(exc), exc, exc.__traceback__)
        code = EXIT_SOFTWARE
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
