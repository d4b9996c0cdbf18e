"""Constant-table (.ctab) file format.

Both ciphers load their externally sourced tables from this
self-describing text format:

    %ctab v1 <name>
    [section]
    <hex payload, free line wrapping, '#' comments allowed>
    ...
    %checksum sha256 <64 hex digits>

The checksum covers every section in file order, hashed as
``name NUL payload-bytes NUL``.  Loading fails hard on syntax errors,
bad hex, or a checksum mismatch, so a corrupted or hand-mangled table
can never be used silently.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass


class ConstantsError(ValueError):
    """Raised for unparseable, corrupt, or structurally invalid constants."""


_MAGIC = re.compile(r"%ctab\s+v(\d+)\s+(\S+)\s*$")
_SECTION = re.compile(r"\[([a-z0-9_]+)\]\s*$")
_CHECKSUM = re.compile(r"%checksum\s+sha256\s+([0-9a-fA-F]{64})\s*$")


@dataclass(frozen=True)
class Ctab:
    name: str
    version: int
    sections: dict[str, bytes]

    def get(self, section: str, length: int | None = None) -> bytes:
        try:
            payload = self.sections[section]
        except KeyError:
            raise ConstantsError(f"{self.name}: missing section [{section}]") from None
        if length is not None and len(payload) != length:
            raise ConstantsError(
                f"{self.name}: section [{section}] is {len(payload)} bytes, expected {length}"
            )
        return payload

    def words(self, section: str, width: int, count: int) -> tuple[int, ...]:
        """Section payload as big-endian integers of `width` bytes each."""
        raw = self.get(section, width * count)
        return tuple(
            int.from_bytes(raw[i : i + width], "big") for i in range(0, len(raw), width)
        )


def _digest(sections: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for name, payload in sections:
        h.update(name.encode())
        h.update(b"\0")
        h.update(payload)
        h.update(b"\0")
    return h.hexdigest()


def parse(text: str, source: str = "<ctab>") -> Ctab:
    name = None
    version = None
    order: list[tuple[str, bytes]] = []
    current: str | None = None
    hexbuf: list[str] = []
    declared_sum = None

    def flush():
        nonlocal current
        if current is None:
            return
        joined = "".join(hexbuf)
        if len(joined) % 2:
            raise ConstantsError(f"{source}: odd hex digit count in [{current}]")
        try:
            payload = bytes.fromhex(joined)
        except ValueError:
            raise ConstantsError(f"{source}: bad hex in [{current}]") from None
        order.append((current, payload))
        hexbuf.clear()
        current = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%ctab"):
            m = _MAGIC.match(line)
            if not m or name is not None:
                raise ConstantsError(f"{source}:{lineno}: bad or repeated magic line")
            version, name = int(m.group(1)), m.group(2)
            continue
        if line.startswith("%checksum"):
            m = _CHECKSUM.match(line)
            if not m:
                raise ConstantsError(f"{source}:{lineno}: bad checksum line")
            flush()
            declared_sum = m.group(1).lower()
            continue
        m = _SECTION.match(line)
        if m:
            flush()
            current = m.group(1)
            continue
        if current is None:
            raise ConstantsError(f"{source}:{lineno}: payload outside any section")
        hexbuf.append(line.replace(" ", "").replace("\t", ""))
    flush()

    if name is None:
        raise ConstantsError(f"{source}: missing %ctab magic line")
    if declared_sum is None:
        raise ConstantsError(f"{source}: missing %checksum line")
    actual = _digest(order)
    if actual != declared_sum:
        raise ConstantsError(
            f"{source}: checksum mismatch (file says {declared_sum}, payload is {actual})"
        )
    dup = {n for n, _ in order if sum(1 for m2, _ in order if m2 == n) > 1}
    if dup:
        raise ConstantsError(f"{source}: duplicate sections {sorted(dup)}")
    return Ctab(name=name, version=version, sections=dict(order))


def load(path) -> Ctab:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConstantsError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConstantsError(f"{path}: {exc}") from exc
    return parse(text, source=str(path))


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
