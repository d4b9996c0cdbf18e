"""The .ctab writer (the format is in hc3cam.ctab), apart from the
reader so that no command compiles it: scripts/gen_constants.py and the
tests call it, as ctab.write."""

from __future__ import annotations

from .ctab import _digest


def write(name: str, sections: list[tuple[str, bytes]], comment: str = "") -> str:
    """Serialize sections (in order) to .ctab text with a valid checksum."""
    lines = []
    if comment:
        lines.extend(f"# {c}".rstrip() for c in comment.splitlines())
    lines.append(f"%ctab v1 {name}")
    for sec, payload in sections:
        lines.append(f"[{sec}]")
        hx = payload.hex()
        lines.extend(hx[i : i + 64] for i in range(0, len(hx), 64))
    lines.append(f"%checksum sha256 {_digest(sections)}")
    return "\n".join(lines) + "\n"
