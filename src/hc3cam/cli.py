"""Command-line front end; USAGE lists the commands and their options.

Exit codes: 0 success, 1 known-answer verification mismatch, 2 usage or
format error, 141 (128 + SIGPIPE) when the reader of standard output closed
it before the command had written everything.  Files are processed as raw
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

A command compiles only the modules it runs (see hc3cam.hc3 and
hc3cam.camellia): encrypt, decrypt and bench its cipher's per-key
schedule and batch engine, kat the key-sliced engine, simulate archsim
and, from one block on, the datapath's per-block rounds and schedule and
the batch engine.  A process (`python -m hc3cam.cli`, the `hc3cam`
script) runs main() through run(), which freezes the heap before it
exits, so CPython's collections at shutdown walk none of it.
"""

from __future__ import annotations

import binascii
import gc
import math
import os
import re
import stat
import sys
import time
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
# bench reports the fastest of at least BENCH_PASSES passes over --blocks
# blocks, repeated until they took BENCH_MIN_S in all: a pass can take
# only milliseconds, which one scheduler stall can double
BENCH_PASSES = 3
BENCH_MIN_S = 0.1
# --cipher name -> package with key_schedule, encrypt, decrypt,
# encrypt_blocks, decrypt_blocks, key_schedule_sliced, encrypt_sliced and
# decrypt_sliced, imported when a command names it; its functions are
# looked up at call time, so a substituted one (a tracer) is what runs
CIPHERS = {"hc3": "hc3cam.hc3", "camellia": "hc3cam.camellia"}
# the code a shell gives a process killed by SIGPIPE (13)
EXIT_BROKEN_PIPE = 128 + 13
# sorted(archsim.PROFILES), for the help without importing archsim
VARIANTS = ("camellia-lu3", "hc3-extensive", "hc3-long", "hc3-short", "hc3-verylong")


class CliError(Exception):
    """Usage or data-format problem; maps to exit code 2."""


def _parse_key(hex_key: str) -> bytes:
    cleaned = hex_key.strip()
    try:
        key = bytes.fromhex(cleaned)
    except ValueError:
        raise CliError(f"key is not valid hex: {hex_key!r}") from None
    if len(key) != BLOCK_BYTES:
        raise CliError(f"key must be 32 hex digits (16 bytes), got {len(key)} bytes")
    return key


def _chunk_fn(cipher: str, key: bytes, decrypt: bool):
    """chunk -> chunk through the cipher's batch engine."""
    mod = import_module(CIPHERS[cipher])
    ks = mod.key_schedule(key)
    batch = mod.decrypt_blocks if decrypt else mod.encrypt_blocks
    return lambda chunk: batch(chunk, ks)


def _check_length(n: int) -> None:
    if n % BLOCK_BYTES:
        raise CliError(
            f"input length {n} is not a multiple of {BLOCK_BYTES} bytes "
            "(raw ECB block processing, no padding)"
        )


def cmd_crypt(args) -> int:
    key = _parse_key(args.key)
    process = _chunk_fn(args.cipher, key, args.command == "decrypt")
    try:
        with open(args.infile, "rb") as src:
            st = os.fstat(src.fileno())
            if stat.S_ISREG(st.st_mode):
                _check_length(st.st_size)
            try:
                in_place = os.path.samestat(st, os.stat(args.outfile))
            except OSError:
                in_place = False
            # in place, each chunk is written back over itself after it was
            # read; "wb" would truncate the input before the first read
            with open(args.outfile, "r+b" if in_place else "wb") as dst:
                total = 0
                while chunk := src.read(CHUNK_BLOCKS * BLOCK_BYTES):
                    total += len(chunk)
                    _check_length(total)   # a pipe's length shows at its end
                    dst.write(process(chunk))
    except OSError as exc:
        raise CliError(str(exc)) from exc
    return 0


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


def cmd_bench(args) -> int:
    if args.blocks <= 0:
        raise CliError("--blocks must be positive")
    mod = import_module(CIPHERS[args.cipher])
    ks = mod.key_schedule(bytes(range(16)))
    # the step tables are built by the first call, before the timer starts
    mod.encrypt_blocks(bytes(BLOCK_BYTES), ks)
    chunk = bytes(BLOCK_BYTES * min(args.blocks, CHUNK_BLOCKS))
    passes = []
    while len(passes) < BENCH_PASSES or sum(passes) < BENCH_MIN_S:
        t0 = time.perf_counter()
        for start in range(0, args.blocks, CHUNK_BLOCKS):
            mod.encrypt_blocks(chunk[:BLOCK_BYTES * (args.blocks - start)], ks)
        passes.append(time.perf_counter() - t0)
    seconds = min(passes)
    mbps = args.blocks * 128 / seconds / 1e6 if seconds > 0 else float("inf")
    print("cipher,blocks,seconds,throughput_mbps")
    print(f"{args.cipher},{args.blocks},{seconds:.6f},{mbps:.3f}")
    return 0


def cmd_simulate(args) -> int:
    if (args.variant is None) == (args.profile_file is None):
        raise CliError("simulate needs exactly one of --variant and --profile-file; "
                       "valid variants: " + ", ".join(VARIANTS))
    from . import archsim
    if args.profile_file is not None:
        text = _read_text(args.profile_file)
        try:
            profile = archsim.parse_profile(text, source=args.profile_file)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    else:
        profile = archsim.PROFILES.get(args.variant)
        if profile is None:
            raise CliError(
                f"unknown variant {args.variant!r}; valid: " + ", ".join(VARIANTS)
            )
    if args.clock_mhz is not None:
        if not (math.isfinite(args.clock_mhz) and args.clock_mhz > 0):
            raise CliError("--clock-mhz must be finite and positive")
        profile = profile._replace(clock_mhz=args.clock_mhz)
    if args.blocks < 0:
        raise CliError("--blocks must be non-negative")

    try:
        row = archsim.model_row(profile)
    except ValueError as exc:
        # only --clock-mhz can get here: a profile's figures were checked
        # when it was read
        raise CliError(f"--clock-mhz {args.clock_mhz:g}: {exc}") from exc

    print(f"variant: {profile.variant} ({profile.cipher})")
    print(f"setup cycles: {len(profile.setup_schedule)}")
    print(f"work cycles per block: {profile.work_cycles_per_block}")
    if profile.clock_mhz is not None:
        print(f"clock: {profile.clock_mhz:.2f} MHz")
    if profile.critical_path_label:
        extra = ""
        if profile.critical_path_ns is not None:
            extra = (f" ({profile.critical_path_ns:g} ns, max clock "
                     f"{profile.max_clock_mhz:.2f} MHz)")
        print(f"critical path: {profile.critical_path_label}{extra}")
    if profile.resources:
        print(f"resources: {profile.resources}")
    if row.modeled_mbps is not None:
        print(f"modeled throughput: {row.modeled_mbps:.2f} Mb/s")
    if row.paper_mbps is not None:
        print(f"published throughput: {row.paper_mbps:.2f} Mb/s")
    if row.deviation is not None:
        flag = "  ** DISCREPANCY (documented; figures kept verbatim) **" if row.flagged else ""
        print(f"deviation: {100 * row.deviation:.2f}%{flag}")

    device = archsim.Device(profile, bytes(range(16)))
    functional_ok = True
    # every block's ciphertext is checked against the cipher's byte-plane
    # batch engine on its default key schedule, one call per chunk: a
    # different route from the device's setup and per-cycle rounds
    if args.blocks:
        ref = import_module(CIPHERS[profile.cipher])
        ref_ks = ref.key_schedule(device.key)
    trace = None
    for start in range(0, args.blocks, CHUNK_BLOCKS):
        blocks = [i.to_bytes(BLOCK_BYTES, "big")
                  for i in range(start, min(start + CHUNK_BLOCKS, args.blocks))]
        cts = []
        for block in blocks:
            trace = device.run(block)
            cts.append(trace.ciphertext)
        functional_ok &= b"".join(cts) == ref.encrypt_blocks(b"".join(blocks), ref_ks)
    print(f"blocks simulated: {args.blocks} "
          f"(ciphertext vs functional model: {'OK' if functional_ok else 'MISMATCH'})")
    print(f"device ticks: {device.state.cycle_counter} total, {device.setup_ticks} setup")
    if args.trace and trace is not None:
        print("cycle trace (last block):")
        for cyc in trace.cycles:
            print(f"  {cyc.index}: " + " | ".join(cyc.ops))
    print()
    print(f"comparison ({profile.cipher} family):")
    print(archsim.render_report(archsim.report(), cipher=profile.cipher))
    if not functional_ok:
        return 1
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
# a flag, True when given.  -h/--help, anywhere, runs _help.
COMMANDS = {
    "encrypt": (cmd_crypt, _CRYPT),
    "decrypt": (cmd_crypt, _CRYPT),
    "kat": (cmd_kat, {**_CIPHER, "--vectors": ("vectors", str, _REQUIRED)}),
    "bench": (cmd_bench, {**_CIPHER, "--blocks": ("blocks", int, 10000)}),
    "simulate": (cmd_simulate, {
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
    """main(), then exit with its code.  Whatever main() left on the heap
    lives until the process ends, so gc.freeze() first moves it to the
    permanent generation, which the collections of interpreter shutdown
    skip.  main() itself freezes nothing: tests and tracers call it inside
    long-lived processes."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
