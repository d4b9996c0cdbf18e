"""The simulate command: one archsim device under one key, every block
it runs checked against the cipher's batch engine."""

from __future__ import annotations

import math
from importlib import import_module

from .. import cli
from ..cli import BLOCK_BYTES, CIPHERS, VARIANTS, CliError, _read_text


def cmd_simulate(args) -> int:
    if (args.variant is None) == (args.profile_file is None):
        raise CliError("simulate needs exactly one of --variant and --profile-file; "
                       "valid variants: " + ", ".join(VARIANTS))
    from .. import archsim
    if args.profile_file is not None:
        from ..profile_file import parse_profile
        text = _read_text(args.profile_file)
        try:
            profile = parse_profile(text, source=args.profile_file)
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
    for start in range(0, args.blocks, cli.CHUNK_BLOCKS):
        blocks = [i.to_bytes(BLOCK_BYTES, "big")
                  for i in range(start, min(start + cli.CHUNK_BLOCKS, args.blocks))]
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
