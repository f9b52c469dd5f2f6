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
which is why multi-digit indices render in the comma or bracket form.  Its
errors are the lexer's :class:`~cliffcalc.exprparse.ExpressionSyntaxError`,
raised at their position in the text; :class:`MultivectorParseError` is
another name for that class.

The ``.mv`` file format is one term per line, ``<coefficient> ; <i1> ... <ik>``
with an empty index list for the scalar term, in canonical order; it
round-trips exactly (coefficients written with full repr precision).  Load
reads a coefficient as an optionally signed calculator number and an index as
ASCII digits, so NaN, infinities, ``_`` digit separators and non-ASCII digits
are rejected; a line's index list follows the rule of :mod:`cliffcalc.blade`.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache

from .blade import blade_key, first_bad_index, index_value, key_blade
from .exprparse import NUMBER, ZERO_FORM, ExpressionSyntaxError, tokenize
from .multivector import Multivector, from_scalar, sum_terms


#: The error class of :func:`parse_multivector`, under its public name: a
#: malformed literal is a syntax error of the lexer's grammar.
MultivectorParseError = ExpressionSyntaxError


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
    if c.is_integer() and -1e16 < c < 1e16:  # is_integer() is False on inf and nan
        return str(int(c))
    return repr(c)


def render(mv: Multivector, opts: PrintOptions = DEFAULT_OPTIONS) -> str:
    """One-line canonical rendering of a multivector.

    A blade's text comes from :func:`_blade_text`, a bounded cache keyed by
    (blade key, separator).  Only keys of at most 64 bits, indices up to 64,
    go into it, so an entry stays under ~0.4 KiB and a full cache of 4096
    under ~1.5 MiB; short blades take ~0.2 KiB each.
    """
    keys, coeffs = mv._keys, mv._coeffs
    if not keys:
        return ZERO_FORM
    if len(keys) == 1 and not keys[0]:
        return f"scalar ( {format_coefficient(coeffs[0])} )"
    sep = opts.basis_sep
    return " ".join([
        f"{'-' if coeff < 0 else '+'} {format_coefficient(abs(coeff))}"
        f"{_blade_text(key, sep) if key < _CACHED_KEYS else _blade_form(key, sep)}"
        for key, coeff in zip(keys, coeffs)
    ])


#: Keys below this, of at most 64 bits, have their text cached.
_CACHED_KEYS = 1 << 64


def _blade_form(key: int, sep: str) -> str:
    """How a blade key prints after its coefficient; empty for the scalar."""
    if not key:
        return ""
    blade = key_blade(key)
    if blade[-1] > 9 and (not sep or len(blade) == 1):
        return f"e[{', '.join(map(str, blade))}]"
    return f"e_{sep.join(map(str, blade))}"


# A script prints the same blades over and over; 4096 entries hold the
# 2,000-2,200 distinct (key, separator) pairs of a perfbench calc_script
# replay, ~0.45 MiB.
_blade_text = lru_cache(maxsize=4096)(_blade_form)


_SCALAR_FORM_RE = re.compile(rf"scalar \( (-?{NUMBER}) \)")


def parse_multivector(text: str) -> Multivector:
    """Parse a rendered multivector back into a value.

    Accepts both special whole-value forms and signed term sequences
    ``[+|-] [number] [blade]`` with any blade literal form.  The lexer's
    errors pass through as they are, and this parser's own are of their class.
    """
    tokens = tokenize(text)
    m = _SCALAR_FORM_RE.fullmatch(text.strip())
    if m:
        return from_scalar(float(m.group(1)))

    if tokens[0].kind == "end":
        raise ExpressionSyntaxError("empty multivector literal", tokens[0].pos)
    items: list[tuple[int, float]] = []
    k = 0
    while tokens[k].kind != "end":
        tok = tokens[k]
        sign = 1.0
        if tok.kind == "op" and tok.value in ("+", "-"):
            sign = -1.0 if tok.value == "-" else 1.0
            k += 1
        elif items:
            raise ExpressionSyntaxError("expected '+' or '-' between terms", tok.pos)
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
            raise ExpressionSyntaxError(
                "expected a coefficient or blade literal", tokens[k].pos
            )
        items.append((key, sign * coeff))
    return Multivector._wrap(*sum_terms(items))


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
            tokens = right.split()
            # a token that is not digits stays a str, which fails in its place
            indices = tuple(index_value(t) if _INDEX_RE.fullmatch(t) else t for t in tokens)
            bad = first_bad_index(indices)
            if bad:
                at, error = bad
                if not _INDEX_RE.fullmatch(tokens[at]):
                    error = f"bad index {tokens[at]!r}"
                raise MultivectorFileError(error, lineno)
            items.append((blade_key(indices), coeff))
    return Multivector._wrap(*sum_terms(items))
