"""The encrypt, decrypt, bench and simulate commands.

hc3cam.cli imports this package only once its argv reader has read a
command line naming one of them, so --help, a usage error and kat compile
none of it.  Each handler is imported from its submodule on first read
(hc3cam._lazy): crypt holds encrypt, decrypt and bench, simulate the
simulate command, so no command compiles another's handler.  The names
all commands share stay in cli, which each submodule imports as the
running module; CHUNK_BLOCKS is read from it at call time, so patching
cli.CHUNK_BLOCKS changes the chunks of every command.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, {
    "crypt": "cmd_bench cmd_crypt",
    "simulate": "cmd_simulate",
})
