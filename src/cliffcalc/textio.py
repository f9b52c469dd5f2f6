"""Canonical text rendering of multivectors, the inverse parser, and .mv files.

Rendering follows the classic console format: every term carries a leading
sign token, coefficients print without a trailing ``.0`` when integral,
blade subscripts are joined by ``basis_sep`` (empty by default, so ``e_23``,
or ``","`` for ``e_6,7,10``).  A blade that would not read back that way
prints in bracket form: a single index above 9 (``e[11]``), or any index
above 9 with the empty separator (``e[1, 10]``).  Two whole-value special
forms exist: ``scalar ( c )`` for a purely scalar multivector and
``the zero clifford element (0)`` for zero.

:func:`parse_multivector` inverts :func:`render` for both separator settings,
every index and every finite coefficient.  It reads the tokens of
:func:`cliffcalc.exprparse.tokenize`, so numbers and blade literals follow
the calculator's grammar: exponents (``1e-05e_1``), digit-run, comma and
bracketed blades (``e_12``, ``e_1,10``, ``e[1, 10]``) and coefficient-less
blades (``e_12`` meaning ``1e_12``).  A digit run is read digit-by-digit,
which is why multi-digit indices render in the comma or bracket form.

The ``.mv`` file format is one term per line, ``<coefficient> ; <i1> ... <ik>``
with an empty index list for the scalar term, in canonical order; it
round-trips exactly (coefficients written with full repr precision).  Load
reads a coefficient as an optionally signed calculator number and an index as
ASCII digits, so NaN, infinities, ``_`` digit separators and non-ASCII digits
are rejected.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

from .blade import blade_key, index_error
from .exprparse import NUMBER, ZERO_FORM, ExpressionSyntaxError, index_value, tokenize
from .multivector import Multivector, from_scalar, sum_terms


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

    def __post_init__(self) -> None:
        # only these two read back: the parsers take a blade's indices as a
        # digit run or as comma-separated numbers
        if self.basis_sep not in ("", ","):
            raise ValueError(f"basis_sep must be '' or ',', got {self.basis_sep!r}")


DEFAULT_OPTIONS = PrintOptions()


def format_coefficient(c: float) -> str:
    """Minimal decimal form: integral values drop the trailing .0."""
    if math.isfinite(c) and c == int(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


def render(mv: Multivector, opts: PrintOptions = DEFAULT_OPTIONS) -> str:
    """One-line canonical rendering of a multivector."""
    if mv.is_zero():
        return ZERO_FORM
    terms = list(mv.terms())
    if len(terms) == 1 and terms[0][0] == ():
        return f"scalar ( {format_coefficient(terms[0][1])} )"
    sep = opts.basis_sep
    parts = []
    for blade, coeff in terms:
        sign = "-" if coeff < 0 else "+"
        magnitude = format_coefficient(abs(coeff))
        if not blade:
            parts.append(f"{sign} {magnitude}")
        elif blade[-1] > 9 and (not sep or len(blade) == 1):
            parts.append(f"{sign} {magnitude}e[{', '.join(map(str, blade))}]")
        else:
            parts.append(f"{sign} {magnitude}e_{sep.join(map(str, blade))}")
    return " ".join(parts)


_SCALAR_FORM_RE = re.compile(rf"scalar \( (-?{NUMBER}) \)")


def parse_multivector(text: str) -> Multivector:
    """Parse a rendered multivector back into a value.

    Accepts both special whole-value forms and signed term sequences
    ``[+|-] [number] [blade]`` with any blade literal form.
    """
    try:
        tokens = tokenize(text)
    except ExpressionSyntaxError as err:
        raise MultivectorParseError(err.base_message, err.position) from None
    m = _SCALAR_FORM_RE.fullmatch(text.strip())
    if m:
        return from_scalar(float(m.group(1)))

    if tokens[0].kind == "end":
        raise MultivectorParseError("empty multivector literal", tokens[0].pos)
    items: list[tuple[int, float]] = []
    k = 0
    while tokens[k].kind != "end":
        tok = tokens[k]
        sign = 1.0
        if tok.kind == "op" and tok.value in ("+", "-"):
            sign = -1.0 if tok.value == "-" else 1.0
            k += 1
        elif items:
            raise MultivectorParseError("expected '+' or '-' between terms", tok.pos)
        start = k
        coeff = 1.0
        if tokens[k].kind == "number":
            coeff = tokens[k].value
            k += 1
        key = 0
        if tokens[k].kind == "blade":
            key = blade_key(tokens[k].value)
            k += 1
        if k == start:
            raise MultivectorParseError(
                "expected a coefficient or blade literal", tokens[k].pos
            )
        items.append((key, sign * coeff))
    return Multivector._wrap(sum_terms(items))


def save(mv: Multivector, path: str | os.PathLike) -> None:
    """Write a multivector to ``path`` in the .mv line format."""
    with open(path, "w", encoding="utf-8") as fh:
        for blade, coeff in mv.terms():
            if blade:
                fh.write(f"{coeff!r} ; {' '.join(str(i) for i in blade)}\n")
            else:
                fh.write(f"{coeff!r} ;\n")


# the calculator's grammar: ASCII digits, no digit separators, no inf or nan
_COEFF_RE = re.compile(rf"[-+]?{NUMBER}")
_INDEX_RE = re.compile(r"[0-9]+")


def load(path: str | os.PathLike) -> Multivector:
    """Read a .mv file; an empty file is the zero multivector."""
    items: list[tuple[int, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            left, sep, right = line.partition(";")
            if not sep:
                raise MultivectorFileError("missing ';' separator", lineno)
            text = left.strip()
            if not _COEFF_RE.fullmatch(text):
                raise MultivectorFileError(f"bad coefficient {text!r}", lineno)
            coeff = float(text)
            if not math.isfinite(coeff):
                raise MultivectorFileError(
                    f"coefficient must be finite, got {text!r}", lineno
                )
            key = 0
            prev = 0
            for token in right.split():
                if not _INDEX_RE.fullmatch(token):
                    raise MultivectorFileError(f"bad index {token!r}", lineno)
                index = index_value(token)
                error = index_error(index, prev)
                if error:
                    raise MultivectorFileError(error, lineno)
                key |= 1 << (index - 1)
                prev = index
            items.append((key, coeff))
    return Multivector._wrap(sum_terms(items))
