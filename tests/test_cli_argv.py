"""The argv reader against argparse: the parser hc3cam used to build,
kept here as the oracle, must read every valid command line to the same
command and values, and refuse every invalid one, as the reader does."""

import argparse
import contextlib
import io
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hc3cam import cli, commands

SRC = Path(__file__).resolve().parent.parent / "src"

KEY = "000102030405060708090a0b0c0d0e0f"


def build_parser() -> argparse.ArgumentParser:
    """The command line as hc3cam read it through argparse."""
    parser = argparse.ArgumentParser(
        prog="hc3cam",
        description="HIEROCRYPT-3 / Camellia block tool and FPGA datapath model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cipher(p):
        p.add_argument("--cipher", required=True, choices=tuple(cli.CIPHERS))

    p_enc = sub.add_parser("encrypt", help="encrypt a file of 16-byte blocks")
    p_dec = sub.add_parser("decrypt", help="decrypt a file of 16-byte blocks")
    for p in (p_enc, p_dec):
        p.set_defaults(func=commands.cmd_crypt)
        add_cipher(p)
        p.add_argument("--key", required=True, help="32 hex digits")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="outfile", required=True)

    p_kat = sub.add_parser("kat", help="run a known-answer vector file")
    p_kat.set_defaults(func=cli.cmd_kat)
    add_cipher(p_kat)
    p_kat.add_argument("--vectors", required=True)

    p_bench = sub.add_parser("bench", help="time software block encryption")
    p_bench.set_defaults(func=commands.cmd_bench)
    add_cipher(p_bench)
    p_bench.add_argument("--blocks", type=int, default=10000)

    p_sim = sub.add_parser("simulate", help="run the datapath model")
    p_sim.set_defaults(func=commands.cmd_simulate)
    board = p_sim.add_mutually_exclusive_group()
    board.add_argument("--variant", default=None, help=", ".join(cli.VARIANTS))
    board.add_argument("--profile-file", default=None,
                       help="load a profile description instead of a built-in")
    p_sim.add_argument("--blocks", type=int, default=1)
    p_sim.add_argument("--clock-mhz", type=float, default=None)
    p_sim.add_argument("--trace", action="store_true",
                       help="print the per-cycle trace of the last block")
    return parser


def oracle(argv):
    """argparse's namespace of argv, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code


def comparable(namespace):
    # nan == nan is false: compare floats by their repr
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(namespace).items()}


# --- a seeded corpus of valid command lines ---------------------------------

# values that start with '-' or hold a space or '=', which argparse still
# reads as values; and those it reads as values only after '='
ODD = ["-7", "-.5", "-a b", "--ve b", "x=y", ""]
AFTER_EQUALS = ["--x", "-h", "--help", "-1e5"]


def value(rng, option, equals):
    odd = ODD + AFTER_EQUALS if equals else ODD
    return {
        "--cipher": lambda: rng.choice(tuple(cli.CIPHERS)),
        "--key": lambda: rng.choice([rng.randbytes(16).hex(), KEY.upper(), "-12", *odd]),
        "--variant": lambda: rng.choice([*cli.VARIANTS, "nosuch", *odd]),
        "--blocks": lambda: rng.choice(["0", "1", "-1", "-25", " 12", "+3", "1_000",
                                        "-0", "٣", "-٣", str(rng.randrange(1 << 20))]),
        "--clock-mhz": lambda: rng.choice(["100", "13.15", "-.5", "-2", "1e300", "nan",
                                           "inf", " 2.5 ", "1_0.5", "-1.5"]),
    }.get(option, lambda: rng.choice([f"f{rng.randrange(100)}.bin", *odd]))()


def spelling(rng, option, options):
    """option, or one of its prefixes that no other option of the command
    (nor --help) starts with."""
    others = [o for o in (*options, "--help") if o != option]
    shortest = next(n for n in range(3, len(option) + 1)
                    if not any(o.startswith(option[:n]) for o in others))
    return option[:rng.randint(shortest, len(option))]


def valid_argv(rng, command):
    options = dict(cli.COMMANDS[command][1])
    if command == "simulate":       # one board source at most
        del options[rng.choice(["--variant", "--profile-file"])]
    required = {"encrypt": options, "decrypt": options, "kat": options,
                "bench": ["--cipher"], "simulate": []}[command]
    chosen = [o for o in options if o in required or rng.random() < 0.6]
    # a repeated option: the last one given wins
    chosen += [o for o in chosen if rng.random() < 0.25]
    rng.shuffle(chosen)
    argv = [command]
    for option in chosen:
        spelt = spelling(rng, option, cli.COMMANDS[command][1])
        if option == "--trace":
            argv.append(spelt)
        elif rng.random() < 0.5:
            argv.append(f"{spelt}={value(rng, option, True)}")
        else:
            argv += [spelt, value(rng, option, False)]
    return argv


CORPUS = {command: [valid_argv(random.Random(f"argv:{command}:{i}"), command)
                    for i in range(60)] for command in cli.COMMANDS}


def test_corpus_covers_every_form():
    joined = [" ".join(argv) for argvs in CORPUS.values() for argv in argvs]
    # a negative number as a separate value; a unique prefix before a
    # separate value and before '='; after '=', values that start with '-'
    for form in (r"--bl?o?c?k?s? -\d", r"--c(i|ip|iph|iphe) ", r"--c(i|ip|iph|iphe)=",
                 r"--[a-z]+=-\w", r"--[a-z]+=--"):
        assert any(re.search(form, line) for line in joined), form
    named = [[cli._option(token, cli.COMMANDS[command][1]) for token in rest]
             for argvs in CORPUS.values() for command, *rest in argvs]
    assert any(len(set(names) - {None}) < len(names) - names.count(None) for names in named)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_reader_reads_what_argparse_read(command):
    for argv in CORPUS[command]:
        want = oracle(argv)
        assert isinstance(want, argparse.Namespace), f"argparse refused {argv}"
        assert comparable(cli.parse_args(argv)) == comparable(want), argv


# --- invalid command lines ---------------------------------------------------

INVALID = [
    # no command, or an unknown one (argparse took no abbreviation)
    [], ["--cipher", "hc3"], ["frobnicate"], ["ka", "--cipher", "hc3", "--vectors", "f"],
    ["--", "kat"],
    # an unknown option, a stray value or an ambiguous prefix
    ["kat", "--cipher", "hc3", "--vectors", "f", "--bogus"],
    ["kat", "--bogus", "x", "--cipher", "hc3", "--vectors", "f"],
    ["kat", "--cipher", "hc3", "--vectors", "f", "extra"],
    ["kat", "--cipher", "hc3", "--vectors", "f", "--"],
    ["bench", "--cipher", "hc3", "--trace"], ["--bogus", "bench", "--cipher", "hc3"],
    ["simulate", "--=1"], ["kat", "--=hc3", "--vectors", "f"],
    # a missing required option, or an option with no value
    ["kat", "--cipher", "hc3"], ["bench"], ["bench", "--blocks", "5"],
    ["encrypt", "--key", KEY, "--in", "a", "--out", "b"],
    ["decrypt", "--cipher", "hc3", "--key", KEY, "--in", "a"],
    ["kat", "--cipher", "hc3", "--vectors"], ["kat", "--vectors", "--cipher", "hc3"],
    ["simulate", "--blocks", "--trace"], ["simulate", "--clock-mhz", "-inf"],
    ["simulate", "--blocks", "-1e5"], ["kat", "--cipher", "hc3", "--vectors", "--"],
    ["kat", "--cipher", "hc3", "--vectors", "-h=x"],
    # a bad int, float or --cipher; an explicit value on a flag
    ["bench", "--cipher", "hc3", "--blocks", "many"], ["simulate", "--blocks", "1.5"],
    ["simulate", "--blocks="], ["simulate", "--clock-mhz", "fast"],
    ["simulate", "--clock-mhz="], ["kat", "--cipher", "aes", "--vectors", "f"],
    ["kat", "--cipher", "HC3", "--vectors", "f"], ["kat", "--cipher=", "--vectors", "f"],
    ["bench", "--ci", "cam", "--blocks", "1"], ["simulate", "--trace=1"],
    ["simulate", "--help=x"], ["-hx"], ["simulate", "--variant", "--trace"],
]
# --variant together with --profile-file: the reader passes these on, and
# simulate refuses them before it prints anything
BOARD_CLASHES = [
    ["simulate", "--variant", "hc3-long", "--profile-file", "f"],
    ["simulate", "--profile-file=f", "--blocks", "0", "--var", "nosuch"],
    ["simulate", "--v", "hc3-long", "--p", "f", "--trace"],
]


@pytest.mark.parametrize("argv", INVALID + BOARD_CLASHES, ids=" ".join)
def test_reader_refuses_what_argparse_refused(argv, capsys):
    assert oracle(argv) == 2
    if argv in INVALID:
        with pytest.raises(cli.CliError):
            cli.parse_args(argv)
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("hc3cam: error: ")


def test_an_ambiguous_prefix_is_refused():
    # no two options of one command share a prefix past "--", so build two
    options = {"--clock-mhz": ("clock_mhz", float, None), "--cipher": ("cipher", str, None)}
    assert cli._option("--cl=5", options) == "--clock-mhz"
    with pytest.raises(cli.CliError, match="ambiguous option: --c could match"):
        cli._option("--c", options)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["kat", "-h"],
                                  ["simulate", "--variant", "nosuch", "--h"],
                                  ["bench", "--blocks", "-1", "--help", "--blocks", "x"]])
def test_help_where_argparse_gave_it(argv, capsys):
    assert oracle(argv) == 0
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage:\n") and out.err == ""


def test_help_names_every_option_and_variant(capsys):
    assert cli.main(["--help"]) == 0
    text = capsys.readouterr().out
    for command, (_, options) in cli.COMMANDS.items():
        assert f"hc3cam {command} " in text
        for option in options:
            assert option in text, option
    assert f"variants: {', '.join(cli.VARIANTS)}" in text


def test_help_survives_stripped_docstrings():
    # python -OO drops every docstring; the usage is not one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-OO", "-m", "hc3cam.cli", "--help"], env=env,
                          capture_output=True, text=True, check=True)
    for command in cli.COMMANDS:
        assert f"hc3cam {command} " in proc.stdout, command
    assert f"variants: {', '.join(cli.VARIANTS)}" in proc.stdout


def test_values_reach_the_commands_checks(capsys):
    # numbers argparse passed on stay the commands' own to refuse
    for argv, message in ((["--blocks", "-1"], "--blocks must be non-negative"),
                          (["--clock-mhz", "nan"], "--clock-mhz must be finite"),
                          (["--clock-mhz", "-.5"], "--clock-mhz must be finite")):
        assert cli.main(["simulate", "--variant", "hc3-long", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and message in out.err
    assert math.isnan(cli.parse_args(["simulate", "--clock-mhz", "nan"]).clock_mhz)
