"""Camellia-128."""

from .cipher import (
    FL_LAYER_ROUNDS,
    N_ROUNDS,
    SIGMA,
    SUBKEY_ROTATIONS,
    CamelliaSlicedSubkeys,
    CamelliaSubkeys,
    KeyVars,
    SigmaConstants,
    decrypt,
    decrypt_blocks,
    decrypt_sliced,
    encrypt,
    encrypt_blocks,
    encrypt_sliced,
    f_function,
    fl,
    fl_inv,
    key_schedule,
    key_schedule_sliced,
    p_layer,
    reverse_subkeys,
    sbox_layer,
)
from .constants import CamelliaConstants, get_constants, load_constants

__all__ = [
    "FL_LAYER_ROUNDS", "N_ROUNDS", "SIGMA", "SUBKEY_ROTATIONS",
    "CamelliaSlicedSubkeys", "CamelliaSubkeys", "KeyVars", "SigmaConstants",
    "decrypt", "decrypt_blocks", "decrypt_sliced", "encrypt", "encrypt_blocks",
    "encrypt_sliced", "f_function", "fl", "fl_inv", "key_schedule",
    "key_schedule_sliced", "p_layer",
    "reverse_subkeys", "sbox_layer", "CamelliaConstants", "get_constants",
    "load_constants",
]
