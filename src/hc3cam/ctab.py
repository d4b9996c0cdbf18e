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
can never be used silently.  A parsed file keeps the digest it was
verified against (``Ctab.sha256``).

``loader`` makes each cipher's ``load_constants``: the one place that
decides which file a constant set comes from.  ``write`` is read from
hc3cam.ctab_writer on first use, as no command writes a file.
"""

from __future__ import annotations

import os
import re
from functools import cache, lru_cache
from typing import NamedTuple

from . import ENV_CONSTANTS_DIR, ConstantsError

try:    # the built-in SHA-256 hashlib falls back to, without hashlib's OpenSSL
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256


_MAGIC = re.compile(r"%ctab\s+v1\s+(\S+)\s*$")
_SECTION = re.compile(r"\[([a-z0-9_]+)\]\s*$")
_CHECKSUM = re.compile(r"%checksum\s+sha256\s+([0-9a-fA-F]{64})\s*$")


class Ctab(NamedTuple):
    name: str
    version: int
    sections: dict[str, bytes]
    sha256: str      # the %checksum digest, verified against the sections

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
    h = sha256()
    for name, payload in sections:
        h.update(name.encode())
        h.update(b"\0")
        h.update(payload)
        h.update(b"\0")
    return h.hexdigest()


def parse(text: str, source: str = "<ctab>") -> Ctab:
    name = None
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
        if declared_sum is not None:
            raise ConstantsError(f"{source}:{lineno}: text after the %checksum line")
        if line.startswith("%ctab"):
            m = _MAGIC.match(line)
            if not m or name is not None:
                raise ConstantsError(f"{source}:{lineno}: bad or repeated magic line "
                                     "(one '%ctab v1 <name>' line leads the file)")
            name = m.group(1)
            continue
        if name is None:
            raise ConstantsError(f"{source}:{lineno}: missing %ctab magic line before this one")
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
    return Ctab(name=name, version=1, sections=dict(order), sha256=actual)


def load(path) -> Ctab:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConstantsError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConstantsError(f"{path}: {exc}") from exc
    return parse(text, source=str(path))


def loader(name: str, cls):
    """The load_constants function of the `name` constant set, which
    validates each file as a cls.  Each file is parsed and validated once;
    the packaged set is kept for good."""

    @lru_cache(maxsize=8)
    def from_file(path: str):
        return cls(load(path))

    @cache
    def packaged():
        return cls(load(os.path.join(os.path.dirname(__file__), "data", f"{name}.ctab")))

    def load_constants(path=None):
        """The constant set in the file at path if one is given, else in
        <name>.ctab under $HC3CAM_CONSTANTS_DIR when that is set, else in
        the packaged data/<name>.ctab."""
        if path is None:
            path = os.environ.get(ENV_CONSTANTS_DIR)
            if not path:
                return packaged()
            path = os.path.join(path, f"{name}.ctab")
        return from_file(os.fspath(path))
    return load_constants


def __getattr__(name: str):
    # the writer is compiled only where a file is written:
    # scripts/gen_constants.py and the tests
    if name == "write":
        from .ctab_writer import write
        return write
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
