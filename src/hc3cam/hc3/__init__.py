"""HIEROCRYPT-3 (128-bit key, 6 rounds).

Each public name is imported from its submodule on first read
(hc3cam._lazy), so a command compiles only the engine it runs: cipher
and linear hold the per-block reference rounds (the tests' oracles),
keyschedule the per-key schedule (encrypt, decrypt, bench, archsim's
datapaths), batch the single-key byte-plane engine (encrypt, decrypt,
bench, simulate's check) and sliced the key-sliced schedule and engine
(kat).  All of them read constants and steps, which also holds the round
core xs_core that the reference rounds and archsim's datapaths share.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, {
    "cipher": "decrypt encrypt key_addition merged_xs rho rho_inv xs xs_inv",
    "batch": "decrypt_blocks encrypt_blocks",
    "sliced": "Hc3SlicedSchedule decrypt_sliced encrypt_sliced key_schedule_sliced",
    "keyschedule": "MODES Cache1600 Hc3KeySchedule IntermediateKey RoundKey256 key_halves "
                   "key_schedule pad_and_prewhiten pad_key round_keys_bwd round_keys_fwd "
                   "sigma sigma_inv walk_schedule",
    "linear": "f_sigma m5e mb3 mds_h mds_h_inv p32_pair p_n",
    "constants": "ENV_CONSTANTS_DIR Hc3Constants get_constants load_constants",
    "steps": "SCHEDULE_ROWS T_ROUNDS T_TURN ScheduleRow xs_core",
})
