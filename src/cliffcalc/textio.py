"""Canonical text rendering of multivectors, the inverse parser, and .mv files.

Rendering follows the classic console format: every term carries a leading
sign token, coefficients print without a trailing ``.0`` when integral,
blade subscripts are joined by ``basis_sep`` (empty by default, so ``e_23``;
set ``","`` when indices can exceed 9).  Two whole-value special forms exist:
``scalar ( c )`` for a purely scalar multivector and
``the zero clifford element (0)`` for zero.

:func:`parse_multivector` inverts :func:`render` for both separator settings
and additionally accepts bracketed blades (``e[1,10]``) and coefficient-less
blades (``e_12`` meaning ``1e_12``).  With the default separator a digit run
is read digit-by-digit, so multi-digit indices require the comma or bracket
form.

The ``.mv`` file format is one term per line, ``<coefficient> ; <i1> ... <ik>``
with an empty index list for the scalar term, in canonical order; it
round-trips exactly (coefficients written with full repr precision).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

from .blade import Blade, MAX_INDEX, blade_key
from .multivector import Multivector


class MultivectorParseError(ValueError):
    """Malformed multivector literal; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position + 1})")
        self.position = position


class MultivectorFileError(ValueError):
    """Malformed .mv file; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class PrintOptions:
    basis_sep: str = ""
    prefix: str = "e_"

    def __post_init__(self) -> None:
        for ch in self.basis_sep:
            if ch.isdigit() or ch in "+-" or ch.isspace():
                raise ValueError(
                    f"basis_sep may not contain digits, signs or whitespace: {self.basis_sep!r}"
                )


DEFAULT_OPTIONS = PrintOptions()


def format_coefficient(c: float) -> str:
    """Minimal decimal form: integral values drop the trailing .0."""
    if math.isfinite(c) and c == int(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


def render(mv: Multivector, opts: PrintOptions = DEFAULT_OPTIONS) -> str:
    """One-line canonical rendering of a multivector."""
    if mv.is_zero():
        return "the zero clifford element (0)"
    terms = list(mv.terms())
    if len(terms) == 1 and terms[0][0] == ():
        return f"scalar ( {format_coefficient(terms[0][1])} )"
    parts = []
    for blade, coeff in terms:
        sign = "-" if coeff < 0 else "+"
        magnitude = format_coefficient(abs(coeff))
        if blade:
            subscripts = opts.basis_sep.join(str(i) for i in blade)
            parts.append(f"{sign} {magnitude}{opts.prefix}{subscripts}")
        else:
            parts.append(f"{sign} {magnitude}")
    return " ".join(parts)


_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?|\.\d+")
_SCALAR_FORM_RE = re.compile(r"scalar \( (-?(?:\d+(?:\.\d*)?|\.\d+)) \)")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def skip_ws(self) -> None:
        while not self.at_end() and self.text[self.pos].isspace():
            self.pos += 1

    def error(self, message: str, position: int | None = None):
        raise MultivectorParseError(message, self.pos if position is None else position)

    def read_number(self) -> float:
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a number")
        self.pos = m.end()
        return float(m.group())

    def read_index_group(self) -> tuple[str, int]:
        start = self.pos
        while not self.at_end() and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a digit")
        return self.text[start:self.pos], start

    def read_blade(self) -> Blade:
        self.pos += 1  # 'e'
        opener = self.text[self.pos]
        self.pos += 1  # '_' or '['
        indices: list[tuple[int, int]] = []  # (index, position)
        if opener == "_":
            group, group_pos = self.read_index_group()
            if self.peek() == ",":
                indices.append((int(group), group_pos))
                while self.peek() == ",":
                    self.pos += 1
                    group, group_pos = self.read_index_group()
                    indices.append((int(group), group_pos))
            else:
                indices = [(int(d), group_pos + k) for k, d in enumerate(group)]
        else:  # '['
            while True:
                self.skip_ws()
                group, group_pos = self.read_index_group()
                indices.append((int(group), group_pos))
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    continue
                if self.peek() == "]":
                    self.pos += 1
                    break
                self.error("expected ',' or ']' in blade literal")
        prev = 0
        for index, position in indices:
            if index < 1:
                self.error("blade index must be >= 1", position)
            if index > MAX_INDEX:
                self.error(f"blade index {index} exceeds {MAX_INDEX}", position)
            if index <= prev:
                self.error(
                    "blade indices must be strictly increasing within a literal",
                    position,
                )
            prev = index
        return tuple(index for index, _ in indices)


def parse_multivector(text: str) -> Multivector:
    """Parse a rendered multivector back into a value.

    Accepts both special whole-value forms, signed term sequences with the
    default or comma separators, and bracketed blades.
    """
    stripped = text.strip()
    if stripped == "the zero clifford element (0)":
        return Multivector._wrap({})
    m = _SCALAR_FORM_RE.fullmatch(stripped)
    if m:
        value = float(m.group(1))
        return Multivector._wrap({0: value} if value != 0.0 else {})

    s = _Scanner(text)
    s.skip_ws()
    if s.at_end():
        s.error("empty multivector literal")
    acc: dict[int, float] = {}
    first = True
    while True:
        s.skip_ws()
        if s.at_end():
            break
        sign = 1.0
        ch = s.peek()
        if ch in "+-":
            sign = -1.0 if ch == "-" else 1.0
            s.pos += 1
            s.skip_ws()
        elif not first:
            s.error("expected '+' or '-' between terms")
        coeff = None
        if s.peek().isdigit() or s.peek() == ".":
            coeff = s.read_number()
            s.skip_ws()
        blade: Blade | None = None
        if s.peek() == "e" and s.peek(1) in ("_", "["):
            blade = s.read_blade()
        if coeff is None and blade is None:
            s.error("expected a coefficient or blade literal")
        value = sign * (1.0 if coeff is None else coeff)
        key = blade_key(blade) if blade is not None else 0
        total = acc.get(key, 0.0) + value
        if total == 0.0:
            acc.pop(key, None)
        else:
            acc[key] = total
        first = False
    return Multivector._wrap(dict(sorted(acc.items())))


def save(mv: Multivector, path: str | os.PathLike) -> None:
    """Write a multivector to ``path`` in the .mv line format."""
    with open(path, "w", encoding="utf-8") as fh:
        for blade, coeff in mv.terms():
            if blade:
                fh.write(f"{coeff!r} ; {' '.join(str(i) for i in blade)}\n")
            else:
                fh.write(f"{coeff!r} ;\n")


def load(path: str | os.PathLike) -> Multivector:
    """Read a .mv file; an empty file is the zero multivector."""
    acc: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            left, sep, right = line.partition(";")
            if not sep:
                raise MultivectorFileError("missing ';' separator", lineno)
            try:
                coeff = float(left.strip())
            except ValueError:
                raise MultivectorFileError(
                    f"bad coefficient {left.strip()!r}", lineno
                ) from None
            key = 0
            prev = 0
            for token in right.split():
                try:
                    index = int(token)
                except ValueError:
                    raise MultivectorFileError(f"bad index {token!r}", lineno) from None
                if index < 1 or index > MAX_INDEX:
                    raise MultivectorFileError(f"index {index} outside 1..{MAX_INDEX}", lineno)
                if index <= prev:
                    raise MultivectorFileError(
                        "indices must be strictly increasing", lineno
                    )
                key |= 1 << (index - 1)
                prev = index
            total = acc.get(key, 0.0) + coeff
            if total == 0.0:
                acc.pop(key, None)
            else:
                acc[key] = total
    return Multivector._wrap(dict(sorted(acc.items())))
