"""HIEROCRYPT-3 (128-bit key, 6 rounds)."""

from .cipher import (
    decrypt,
    decrypt_blocks,
    decrypt_sliced,
    encrypt,
    encrypt_blocks,
    encrypt_sliced,
    key_addition,
    merged_xs,
    rho,
    rho_inv,
    xs,
    xs_inv,
)
from .constants import ENV_CONSTANTS_DIR, Hc3Constants, get_constants, load_constants
from .keyschedule import (
    MODES,
    SCHEDULE_ROWS,
    T_ROUNDS,
    T_TURN,
    Cache1600,
    Hc3KeySchedule,
    Hc3SlicedSchedule,
    IntermediateKey,
    RoundKey256,
    ScheduleRow,
    ScheduleStep,
    iter_schedule,
    key_schedule,
    key_schedule_sliced,
    pad_and_prewhiten,
    pad_key,
    round_keys_bwd,
    round_keys_fwd,
    sigma,
    sigma_inv,
)
from .linear import f_sigma, m5e, mb3, mds_h, mds_h_inv, p32_pair, p_n

__all__ = [
    "decrypt", "decrypt_blocks", "decrypt_sliced",
    "encrypt", "encrypt_blocks", "encrypt_sliced", "key_addition", "merged_xs",
    "rho", "rho_inv", "xs", "xs_inv",
    "ENV_CONSTANTS_DIR", "Hc3Constants", "get_constants", "load_constants",
    "MODES", "SCHEDULE_ROWS", "T_ROUNDS", "T_TURN", "Cache1600",
    "Hc3KeySchedule", "Hc3SlicedSchedule", "IntermediateKey", "RoundKey256",
    "ScheduleRow", "ScheduleStep", "iter_schedule", "key_schedule",
    "key_schedule_sliced", "pad_and_prewhiten",
    "pad_key", "round_keys_bwd", "round_keys_fwd", "sigma", "sigma_inv",
    "f_sigma", "m5e", "mb3", "mds_h", "mds_h_inv", "p32_pair", "p_n",
]
