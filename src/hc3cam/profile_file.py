"""Simulator profile files: parse_profile reads one, format_profile
writes one (see README for the grammar).

Only `simulate --profile-file`, the tests and the scripts import this
module; `simulate --variant` runs a built-in archsim.PROFILES entry and
compiles none of it.
"""

from __future__ import annotations

import math
import shlex
from operator import attrgetter

from .archsim import PROFILES, ArchProfile, MicroOp, model_row, throughput_model


def _positive(text: str, what: str, where: str, kind=float):
    """A finite number > 0 from a profile, else a ValueError naming `where`."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not (math.isfinite(value) and value > 0):
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{where}: {what} must be a finite {noun} > 0, got {text!r}")
    return value


# keyword of a profile file -> (ArchProfile field, type of its value), in
# the order format_profile writes them; `setup` may repeat and is not here
PROFILE_FIELDS: dict[str, tuple[str, type]] = {
    "variant": ("variant", str), "datapath": ("datapath", str), "cipher": ("cipher", str),
    "work-cycles": ("work_cycles_per_block", int), "clock-mhz": ("clock_mhz", float),
    "paper-throughput-mbps": ("paper_throughput_mbps", float), "resources": ("resources", str),
    "critical-path": ("critical_path_label", str), "critical-path-ns": ("critical_path_ns", float),
}
PROFILE_KEYWORDS = tuple(PROFILE_FIELDS)


def parse_profile(text: str, source: str = "<profile>") -> ArchProfile:
    """Read a profile description (see README for the grammar)."""
    fields: dict[str, object] = {}  # ArchProfile field -> value
    given: dict[str, tuple[str, str]] = {}  # keyword -> ("source:line", value as written)
    setup: list[MicroOp] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        where = f"{source}:{lineno}"
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parts = shlex.split(line)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        keyword, args = parts[0], parts[1:]
        if keyword == "setup":
            if not 1 <= len(args) <= 2:
                raise ValueError(f"{where}: setup takes a label and an optional latency")
            ns = _positive(args[1], "setup latency", where) if len(args) > 1 else None
            setup.append(MicroOp(args[0], ns))
            continue
        if keyword not in PROFILE_FIELDS:
            raise ValueError(f"{where}: unknown keyword {keyword!r}; known: setup, "
                             + ", ".join(PROFILE_KEYWORDS))
        if keyword in given:
            raise ValueError(f"{where}: '{keyword}' given twice "
                             f"(first at {given[keyword][0]})")
        if len(args) != 1:
            raise ValueError(f"{where}: '{keyword}' takes one value")
        field, kind = PROFILE_FIELDS[keyword]
        fields[field] = args[0] if kind is str else _positive(args[0], keyword, where, kind)
        given[keyword] = where, args[0]

    if "variant" not in fields:
        raise ValueError(f"{source}: missing 'variant'")
    datapath = fields.setdefault("datapath", fields["variant"])
    base = PROFILES.get(datapath)
    if base is None:
        where = given.get("datapath", given["variant"])[0]
        raise ValueError(
            f"{where}: unknown datapath {datapath!r}; known: "
            f"{', '.join(sorted(PROFILES))}"
        )
    for keyword in ("work-cycles", "cipher"):
        field = PROFILE_FIELDS[keyword][0]
        if keyword in given and fields[field] != getattr(base, field):
            raise ValueError(f"{given[keyword][0]}: {keyword} {fields[field]!r} does not "
                             f"match datapath {datapath!r} ({getattr(base, field)})")
    profile = base._replace(setup_schedule=tuple(setup) or base.setup_schedule, **fields)
    # each number is finite and > 0; so must be the figures derived from them,
    # each checked on its keyword's line: clock-mhz the modeled rate 128 * f / c,
    # paper-throughput-mbps its deviation, critical-path-ns the max clock 1000 / ns
    for keyword, check in (
            ("clock-mhz", lambda p: throughput_model(p.clock_mhz * 1e6, p.work_cycles_per_block)),
            ("paper-throughput-mbps", model_row),
            ("critical-path-ns", attrgetter("max_clock_mhz"))):
        if keyword in given:
            try:
                check(profile)
            except ValueError as exc:
                where, value = given[keyword]
                raise ValueError(f"{where}: {keyword} {value}: {exc}") from None
    return profile


def format_profile(profile: ArchProfile) -> str:
    """Text that parse_profile reads back as profile, every value shell-quoted.
    The format has no "none": an empty resources or critical-path, or a None
    figure, is left out, and parse_profile fills in the datapath's built-in one."""
    lines = [f"{keyword} {shlex.quote(str(value))}"
             for keyword, (field, _) in PROFILE_FIELDS.items()
             if (value := getattr(profile, field)) not in (None, "")]
    lines += ["setup " + " ".join(shlex.quote(str(v)) for v in op if v is not None)
              for op in profile.setup_schedule]
    return "\n".join(lines) + "\n"
