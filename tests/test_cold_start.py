"""What a command loads: each hc3cam process imports the packages its
subcommand runs and builds a lookup table when a layer first reads it;
and how it ends: the process entry freezes the heap before it exits."""

import ast
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hc3cam import ctab
from hc3cam.camellia import constants as cam_constants
from hc3cam.hc3 import constants as hc3_constants

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "hc3cam" / "data"
KEY = "000102030405060708090a0b0c0d0e0f"

# the module ctab takes SHA-256 from: CPython's built-in _sha256, so that
# no command loads OpenSSL through hashlib's _hashlib
SHA_MODULE = ctab.sha256.__module__
# loaded by no command: argparse (and the gettext it calls), OpenSSL, and
# shlex, which only a profile file needs
UNLOADED = {"dataclasses", "inspect", "argparse", "gettext", "_hashlib", "shlex"}
# runs `python -m hc3cam.cli ARGS` and prints its exit code, then the
# hc3cam modules it imported and those of WATCHED
WATCHED = (*sorted(UNLOADED), SHA_MODULE)
PROBE = f"""
import runpy, sys
try:
    runpy.run_module("hc3cam.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("hc3cam") or m in {WATCHED}))
"""


def probe(argv, constants_dir=None):
    """Exit code, modules imported (each with the package it belongs to)
    and standard error of one command."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop(ctab.ENV_CONSTANTS_DIR, None)
    if constants_dir is not None:
        env[ctab.ENV_CONSTANTS_DIR] = str(constants_dir)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), {m for name in modules for m in (name, name.rsplit(".", 1)[0])}, proc.stderr


def imported_by(argv):
    code, mods, err = probe(argv)
    assert code == 0, err
    return mods


def crypt_args(tmp_path, command="encrypt", cipher="camellia"):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(48))
    return [command, "--cipher", cipher, "--key", KEY, "--in", str(src),
            "--out", str(tmp_path / "out.bin")]


def test_encrypt_camellia_loads_no_hc3_or_archsim(tmp_path):
    mods = imported_by(crypt_args(tmp_path))
    assert "hc3cam.camellia" in mods
    assert not mods & {"hc3cam.hc3", "hc3cam.archsim", "hc3cam.gf256"}


def test_kat_hc3_loads_no_camellia_or_archsim():
    mods = imported_by(["kat", "--cipher", "hc3", "--vectors", str(DATA / "kat" / "hc3.kat")])
    assert "hc3cam.hc3" in mods
    assert not mods & {"hc3cam.camellia", "hc3cam.archsim"}


@pytest.mark.parametrize("blocks, cipher", [("1", {"hc3cam.hc3"}), ("0", set())])
def test_simulate_hc3_loads_no_camellia(blocks, cipher):
    # with no block to check against the functional model, no cipher
    mods = imported_by(["simulate", "--variant", "hc3-long", "--blocks", blocks])
    assert "hc3cam.archsim" in mods
    assert mods & {"hc3cam.hc3", "hc3cam.camellia"} == cipher


# Each cipher package is split by engine: kat runs the key-sliced one;
# encrypt, decrypt, bench and simulate's check the single-key batch one
# with the per-key schedule; the per-block reference rounds serve the
# tests and archsim's datapaths
KAT_FREE = {"hc3cam.hc3.cipher", "hc3cam.hc3.keyschedule", "hc3cam.hc3.batch",
            "hc3cam.hc3.linear", "hc3cam.camellia.cipher", "hc3cam.camellia.batch"}
SLICED = {"hc3cam.hc3.sliced", "hc3cam.camellia.sliced"}
SIMULATED = {"hc3": "hc3-long", "camellia": "camellia-lu3"}


@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
def test_kat_loads_only_the_key_sliced_engine(cipher):
    mods = imported_by(["kat", "--cipher", cipher, "--vectors",
                        str(DATA / "kat" / f"{cipher}.kat")])
    assert f"hc3cam.{cipher}.sliced" in mods
    assert not mods & KAT_FREE


@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
@pytest.mark.parametrize("command", ["encrypt", "decrypt", "bench", "simulate"])
def test_single_key_commands_load_no_key_sliced_engine(command, cipher, tmp_path):
    argv = {"bench": ["bench", "--cipher", cipher, "--blocks", "1"],
            "simulate": ["simulate", "--variant", SIMULATED[cipher], "--blocks", "1"]}.get(
        command) or crypt_args(tmp_path, command, cipher)
    mods = imported_by(argv)
    assert f"hc3cam.{cipher}.batch" in mods
    assert not mods & SLICED


# the handlers of encrypt, decrypt, bench and simulate; the GF(2^8) XOR
# networks and MDS check; the byte-lane kernel: kat, --help and a usage
# error run none of them
FRONT_FREE = {"hc3cam.commands", "hc3cam.networks", "hc3cam.lanes"}
KAT_ARGV = {cipher: ["kat", "--cipher", cipher, "--vectors", str(DATA / "kat" / f"{cipher}.kat")]
            for cipher in ("hc3", "camellia")}


@pytest.mark.parametrize("argv, exit_code", [
    (KAT_ARGV["hc3"], 0), (KAT_ARGV["camellia"], 0), (["--help"], 0),
    (["simulate", "--blocks", "many"], 2)], ids=["kat-hc3", "kat-camellia", "help", "usage"])
def test_kat_and_help_load_no_handler_network_or_lane_kernel(argv, exit_code):
    code, mods, err = probe(argv)
    assert code == exit_code, err
    assert not mods & FRONT_FREE


def test_simulate_hc3_loads_no_profile_reader_or_reference_rounds():
    # the datapaths run steps.xs_core and the per-key schedule
    mods = imported_by(["simulate", "--variant", "hc3-long", "--blocks", "1"])
    assert {"hc3cam.commands", "hc3cam.hc3.keyschedule", "hc3cam.hc3.steps"} <= mods
    assert not mods & {"hc3cam.profile_file", "hc3cam.hc3.cipher", "hc3cam.hc3.linear"}


@pytest.mark.parametrize("command", ["encrypt", "decrypt", "bench", "simulate-1"])
def test_each_command_compiles_only_its_own_handler(command, tmp_path):
    # encrypt, decrypt and bench share one handler module, simulate has its own
    handlers = {"hc3cam.commands.crypt", "hc3cam.commands.simulate"}
    own = "hc3cam.commands.simulate" if command.startswith("simulate") else "hc3cam.commands.crypt"
    assert imported_by(COMMANDS[command](tmp_path)) & handlers == {own}


def test_handler_errors_are_usage_errors_under_python_m(tmp_path):
    # hc3cam.commands imports the running cli, not a second copy of it
    # whose CliError main() would not catch
    argv = crypt_args(tmp_path)
    argv[argv.index("--key") + 1] = "00"
    code, mods, err = probe(argv)
    assert "hc3cam.commands" in mods
    assert (code, err) == (2, "hc3cam: error: key must be 32 hex digits (16 bytes), "
                              "got 1 bytes\n")


@pytest.mark.parametrize("package", ["hc3cam.hc3", "hc3cam.camellia"])
def test_importing_a_cipher_package_imports_no_submodule(package):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = f"import sys, {package}; print(*(m for m in sys.modules if m.startswith('{package}.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


COMMANDS = {
    "encrypt": lambda tmp: crypt_args(tmp, "encrypt", "hc3"),
    "decrypt": lambda tmp: crypt_args(tmp, "decrypt", "camellia"),
    "kat": lambda tmp: ["kat", "--cipher", "camellia", "--vectors",
                        str(DATA / "kat" / "camellia.kat")],
    "bench": lambda tmp: ["bench", "--cipher", "hc3", "--blocks", "1"],
    "simulate-0": lambda tmp: ["simulate", "--variant", "hc3-long", "--blocks", "0"],
    "simulate-1": lambda tmp: ["simulate", "--variant", "camellia-lu3", "--blocks", "1"],
    "usage-error": lambda tmp: ["simulate", "--blocks", "many"],
    "help": lambda tmp: ["--help"],
}


# Every hc3cam source file a process imports is compiled, at ~2-3 us of CPU
# per AST node when no bytecode is cached (PYTHONDONTWRITEBYTECODE=1, as
# perfbench runs).  So each command has a budget of AST nodes over the
# files it imports, cli.py included: a count, which repeats exactly where a
# timing would not.  kat and simulate of an HC3 variant have budgets of
# their own; every other command compiles at most 2 % more than BEFORE, its
# count before the command handlers, gf256's XOR networks, gf2's byte-lane
# kernel and archsim's profile reader left the modules every command loads.
BEFORE = {"encrypt": 11_071, "decrypt": 9_138, "bench": 11_071, "simulate-0": 7_860,
          "simulate-1": 13_427, "usage-error": 3_571, "help": 3_571}
NODE_BUDGET = {"kat-hc3": 7_600, "kat": 6_600, "simulate-hc3": 14_000,
               **{command: int(1.02 * n) for command, n in BEFORE.items()}}
BUDGETED = {**COMMANDS, "kat-hc3": lambda tmp: KAT_ARGV["hc3"],
            "simulate-hc3": lambda tmp: ["simulate", "--variant", "hc3-long", "--blocks", "1"]}


def compiled_nodes(mods):
    """AST nodes of cli.py and of every hc3cam module in mods."""
    files = {SRC / "hc3cam" / "cli.py"}
    for name in mods:
        if name.startswith("hc3cam"):
            path = SRC.joinpath(*name.split("."))
            files.add(path / "__init__.py" if path.is_dir() else path.with_suffix(".py"))
    return sum(sum(1 for _ in ast.walk(ast.parse(f.read_text()))) for f in files)


@pytest.mark.parametrize("command", sorted(BUDGETED))
def test_compiled_nodes_within_budget(command, tmp_path):
    code, mods, err = probe(BUDGETED[command](tmp_path))
    assert code == (2 if command == "usage-error" else 0), err
    assert compiled_nodes(mods) <= NODE_BUDGET[command]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_imports_dataclasses(command, tmp_path):
    code, mods, err = probe(COMMANDS[command](tmp_path))
    assert code == (2 if command == "usage-error" else 0), err
    assert not mods & UNLOADED
    # a command that loads no constant set loads no .ctab reader
    if command in ("simulate-0", "usage-error", "help"):
        assert not mods & {"hc3cam.ctab", SHA_MODULE}
    else:
        assert {"hc3cam.ctab", SHA_MODULE} <= mods


def test_no_module_imports_importlib_resources():
    # static, as UNLOADED cannot say it: site may import importlib.resources
    # before any hc3cam module runs
    found = []
    for path in sorted((SRC / "hc3cam").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.startswith("importlib.resources")]
    assert not found


@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
def test_checksum_still_checked(cipher, tmp_path):
    # a .ctab whose payload no longer matches its %checksum is refused
    text = (DATA / f"{cipher}.ctab").read_text()
    section = "[sbox]" if cipher == "hc3" else "[s1]"
    head, tail = text.split(section + "\n", 1)
    flipped = ("0" if tail[0] != "0" else "1") + tail[1:]
    consts = tmp_path / "consts"
    consts.mkdir()
    (consts / f"{cipher}.ctab").write_text(f"{head}{section}\n{flipped}")
    argv = (["kat", "--cipher", "hc3", "--vectors", str(DATA / "kat" / "hc3.kat")]
            if cipher == "hc3" else crypt_args(tmp_path))
    code, mods, err = probe(argv, consts)
    assert code == 2
    assert "checksum mismatch" in err and SHA_MODULE in mods


@pytest.mark.parametrize("cipher", ["hc3", "camellia"])
def test_ctab_digest_is_hashlib_sha256(cipher):
    # the built-in SHA-256 gives the digest hashlib gives, over the sections
    # hashed as name NUL payload NUL in file order
    import hashlib
    assert SHA_MODULE == "_sha256"
    table = ctab.parse((DATA / f"{cipher}.ctab").read_text())
    h = hashlib.sha256()
    for name, payload in table.sections.items():
        h.update(name.encode() + b"\0" + payload + b"\0")
    assert table.sha256 == h.hexdigest()


def fresh_hc3():
    return hc3_constants.Hc3Constants(ctab.parse((DATA / "hc3.ctab").read_text()))


def built(consts):
    """The table sets, their bound lane maps and the plane columns built so far."""
    return {name for name in vars(consts) if name.endswith(("_tables", "_map", "_columns"))}


def test_hc3_tables_built_per_layer_on_first_use(monkeypatch):
    from hc3cam import archsim, hc3
    consts = fresh_hc3()
    assert not built(consts)
    # the key schedule reads the fused sigma/sigma-inverse sets and F-sigma
    schedule = {"sigma_tables", "sigma_inv_tables", "f_sigma_tables",
                "sigma_map", "sigma_inv_map", "f_sigma_map"}
    ks = hc3.key_schedule(bytes(16), consts=consts)
    assert built(consts) == schedule
    # the byte-plane engine's columns are built without the position tables
    hc3.encrypt_blocks(bytes(32), ks)
    assert built(consts) == schedule | {"mdsl_columns"}
    # a cached datapath runs XS on mdsl and its second s-box layer fused
    # into MDS-higher: it builds the fused set and no mds_h_tables
    monkeypatch.setattr(hc3, "get_constants", lambda: consts)
    archsim.run_block(archsim.PROFILES["hc3-long"], bytes(16), bytes(16))
    assert built(consts) == schedule | {"mdsl_columns", "mdsl_tables", "mdsl_map",
                                        "sbox_mds_h_tables", "sbox_mds_h_map"}
    # the byte-plane decryption adds MDS-lower's inverse columns, from
    # gf2.invert of MDS-lower's images, and nothing else
    before = built(consts)
    hc3.decrypt_blocks(bytes(32), ks)
    assert built(consts) == before | {"mdsl_inv_columns"}
    # the packaged mds_h is an involution: its inverse shares the tables
    assert consts.mds_h_inv_tables is consts.mds_h_tables


def test_camellia_f_tables_built_on_first_use(monkeypatch):
    from hc3cam import camellia

    def fresh():
        return cam_constants.CamelliaConstants(ctab.parse((DATA / "camellia.ctab").read_text()))
    consts = fresh()
    monkeypatch.setattr(camellia.sliced, "get_constants", lambda: consts)
    sk = camellia.key_schedule_sliced(bytes(32))
    camellia.decrypt_sliced(camellia.encrypt_sliced(bytes(32), sk), sk)
    assert sk.consts is consts and "f_tables" not in vars(consts)
    # the single-key schedule runs its K_A rounds through the per-block F
    sk = camellia.key_schedule(bytes(16), consts)
    assert "f_tables" in vars(consts)
    # the byte-plane engine does not read them, here under a fresh set
    consts = fresh()
    sk = sk._replace(consts=consts)
    camellia.decrypt_blocks(camellia.encrypt_blocks(bytes(48), sk), sk)
    assert "f_tables" not in vars(consts)
    camellia.encrypt(bytes(16), sk)            # per-block F reads them
    assert "f_tables" in vars(consts)
    consts = fresh()
    camellia.f_function(0, 0, consts)
    assert "f_tables" in vars(consts)


# --- the process entry --------------------------------------------------------
#
# A process runs main() through cli.run(), which freezes the heap before it
# exits so that the collections of interpreter shutdown skip it; main()
# itself, called inside long-lived processes, freezes nothing.

SUBCOMMANDS = ("encrypt", "decrypt", "kat", "bench", "simulate-0", "simulate-1")
# imported by every interpreter started with its directory on PYTHONPATH:
# at exit it writes gc.get_freeze_count() to the file FREEZE_COUNT_FILE names
SITECUSTOMIZE = """
import atexit, gc, os

def _record(path=os.environ["FREEZE_COUNT_FILE"]):
    with open(path, "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(_record)
"""


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_process_freezes_the_heap_before_exit(command, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    count = tmp_path / "freeze_count"
    env = dict(os.environ, FREEZE_COUNT_FILE=str(count), PYTHONPATH=os.pathsep.join(
        filter(None, [str(tmp_path), str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop(ctab.ENV_CONSTANTS_DIR, None)
    proc = subprocess.run([sys.executable, "-m", "hc3cam.cli", *COMMANDS[command](tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(count.read_text()) > 0


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_main_freezes_nothing(command, tmp_path, capsys):
    from hc3cam import cli
    before = gc.get_freeze_count()
    assert cli.main(COMMANDS[command](tmp_path)) == 0
    assert gc.get_freeze_count() == before


def test_script_runs_what_the_module_runs():
    # pyproject's `hc3cam` script and `python -m hc3cam.cli` call one function
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    target = re.search(r'^hc3cam = "hc3cam\.cli:(\w+)"$', pyproject, re.M)[1]
    tree = ast.parse((SRC / "hc3cam" / "cli.py").read_text())
    guard, = (node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'")
    assert ast.unparse(guard.body) == f"{target}()"
    from hc3cam import cli
    assert getattr(cli, target) is cli.run
