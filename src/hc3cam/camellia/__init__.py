"""Camellia-128.

Each public name is imported from its submodule on first read
(hc3cam._lazy), so a command compiles only the engine it runs: cipher
holds the per-block reference rounds and the per-key schedule (the
tests' oracles, archsim's datapath, and every single-key command), batch
the single-key byte-plane engine (encrypt, decrypt, bench, simulate's
check) and sliced the key-sliced schedule and engine (kat).  All of them
read constants and steps.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, {
    "cipher": "CamelliaSubkeys KeyVars decrypt encrypt f_function fl "
              "fl_inv key_schedule p_layer reverse_subkeys sbox_layer",
    "batch": "decrypt_blocks encrypt_blocks",
    "sliced": "CamelliaSlicedSubkeys decrypt_sliced encrypt_sliced key_schedule_sliced",
    "constants": "CamelliaConstants get_constants load_constants",
    "steps": "FL_LAYER_ROUNDS N_ROUNDS SIGMA SUBKEY_LAYOUT SUBKEY_ROTATIONS SigmaConstants",
})
