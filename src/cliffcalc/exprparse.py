"""Tokenizer, AST and precedence-climbing parser for calculator expressions.

Operator precedence, tightest first:

    unary minus
    **                integer power
    *                 geometric product
    ^                 wedge product
    _|  |_            left / right contraction (same level)
    +  -              addition, subtraction

All binary operators associate left.  Contractions deliberately bind loosest
among the products, so ``e(2) _| e(1) * e(2)`` reads as ``e(2) _| (e(1)*e(2))``;
getting the surprising grouping requires explicit parentheses.

:func:`tokenize` is the one lexer for number and blade literals; the
multivector parser :func:`cliffcalc.textio.parse_multivector` reads its
tokens too.  It is one loop over one token table, a regex with a named
alternative per token kind, tried in this order after any whitespace:

* ``end``: the end of input;
* ``op``: ``**``, ``_|``, ``|_`` and ``- + * ^ ( ) ,``;
* ``number``: decimal with an optional exponent (``2.5``, ``.5``,
  ``1e+16``); one that overflows a double is an error at its position, and
  a lone ``.`` is a malformed number;
* ``run``: ``e_12``, a run of single-digit indices, one per digit; at
  parenthesis depth 0 also ``e_1,10,12``, comma-separated full indices;
* ``zero``: ``the zero clifford element (0)``, the number 0;
* ``bracket``: ``e[1, 10, 12]``, full indices; a malformed ``e[`` is an
  error where it breaks;
* ``ident``: a name (:data:`IDENT`); a last ``_`` goes to a following
  ``|``, so ``x_|y`` reads as ``x _| y``;
* ``char``: any other character, which is an error.

Numbers and indices take the ASCII digits ``0-9`` only, as names take ASCII
letters, so a digit of another script (``\u0663``) is an unexpected
character; whitespace between tokens is any Unicode whitespace.

The table is compiled with and without the comma form, chosen by
``depth != 0``: no expression has a comma outside parentheses, so
``grade(e_12,2)`` is still a two-argument call, and after a stray ``)`` the
depth is negative and the comma form stays off.

Since a blade literal always starts ``e_`` or ``e[``, ``2e1`` is the number
20 and ``2e_1`` is 2 times e_1.  The exponent of ``**`` must be a
non-negative integer literal.  A number directly followed by a blade
literal multiplies it, and a leading ``+`` is a no-op, so rendered output
like ``+ 1 + 2e_1 - 3e[2, 10]`` reads back as an expression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

from .blade import MAX_INDEX, Blade, index_error


class ExpressionSyntaxError(ValueError):
    """Syntax error with a 0-based ``position`` and the ``expected`` tokens."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        detail = f"{message} (at position {position + 1}"
        if expected:
            detail += f"; expected {', '.join(expected)}"
        detail += ")"
        super().__init__(detail)
        self.base_message = message
        self.position = position
        self.expected = expected


class Token(NamedTuple):
    kind: str  # number | ident | blade | op | end
    value: object
    pos: int
    text: str = ""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class BladeLit:
    indices: Blade


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]
    pos: int = 0


Expr = Union[Num, BladeLit, Var, Neg, BinOp, Pow, Call]

PRECEDENCE = {"+": 10, "-": 10, "_|": 20, "|_": 20, "^": 30, "*": 40, "**": 50}

#: How the zero multivector renders; the lexer reads it as the number 0.
ZERO_FORM = "the zero clifford element (0)"

#: A number literal: ASCII digits with an optional fraction and decimal exponent.
NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

#: A name: a letter, then letters, digits and underscores.
IDENT = r"[A-Za-z][A-Za-z0-9_]*"

_DIGITS_RE = re.compile(r"[0-9]+")
_INDEX_DIGITS = len(str(MAX_INDEX))


def _token_table(run: str) -> re.Pattern[str]:
    """The token table: one alternative per token kind, tried in order."""
    return re.compile(rf"""\s*(?:
        (?P<end>\Z)
      | (?P<op>\*\*|_\||\|_|[-+*^(),])
      | (?P<number>{NUMBER})
      | (?P<dot>\.)                                          # malformed number
      | (?P<run>{run})
      | (?P<zero>{re.escape(ZERO_FORM)})
      | (?P<bracket>e\s*\[\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*\])
      | (?P<open>e\s*\[(?:\s*[0-9]+\s*,)*\s*(?:[0-9]+\s*)?)  # malformed: its valid prefix
      | (?P<ident>{IDENT}(?<!_(?=\|)))                       # x_|y is x _| y
      | (?P<char>\S)
    )""", re.VERBOSE)


#: Indexed by ``depth != 0``: the comma blade form only at depth 0.
_TOKEN_TABLES = (_token_table(r"e_[0-9]+(?:,[0-9]+)*"), _token_table(r"e_[0-9]+"))


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending with an ``end`` token.

    A ``number`` token carries its float, a ``blade`` token its canonical
    index tuple; each index is checked with :func:`cliffcalc.blade.index_error`
    and a bad one is reported at its own position.
    """
    tokens: list[Token] = []
    pos = 0
    depth = 0  # parenthesis depth; negative after a stray ')'
    match = _TOKEN_TABLES[0].match
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        text = m[kind]
        if kind == "op":
            if text in "()":
                depth += 1 if text == "(" else -1
                match = _TOKEN_TABLES[depth != 0].match
            tokens.append(Token("op", text, start))
        elif kind == "number":
            value = float(text)
            if math.isinf(value):
                raise ExpressionSyntaxError(f"number {text} is out of range", start)
            tokens.append(Token("number", value, start, text))
        elif kind == "ident":
            tokens.append(Token("ident", text, start))
        elif kind == "run" and "," not in text:
            indices = [(int(d), start + 2 + k) for k, d in enumerate(text[2:])]
            tokens.append(_blade_token(source, start, pos, indices))
        elif kind in ("run", "bracket"):
            indices = [(index_value(g.group()), g.start())
                       for g in _DIGITS_RE.finditer(source, start, pos)]
            tokens.append(_blade_token(source, start, pos, indices))
        elif kind == "zero":
            tokens.append(Token("number", 0.0, start, text))
        elif kind == "end":
            tokens.append(Token("end", None, start))
            return tokens
        elif kind == "open":
            what = f"'{source[pos]}'" if pos < len(source) else "end of input"
            expected = ("an integer index",) if text.rstrip()[-1] in "[," else ("','", "']'")
            raise ExpressionSyntaxError(f"unexpected {what}", pos, expected)
        elif kind == "dot":
            raise ExpressionSyntaxError("malformed number", start)
        else:
            raise ExpressionSyntaxError(f"unexpected character {text!r}", start)


def index_value(digits: str) -> int | str:
    """An index literal's value, or its significant digits when there are
    more of them than MAX_INDEX has (out of range, and int() refuses over
    4300 digits); :func:`~cliffcalc.blade.index_error` rejects the str."""
    if len(digits) > _INDEX_DIGITS:
        digits = digits.lstrip("0")
        if len(digits) > _INDEX_DIGITS:
            return digits
    return int(digits or "0")


def _blade_token(source: str, start: int, end: int, indices: list[tuple[int | str, int]]) -> Token:
    """The blade token for ``source[start:end]`` from (index, position) pairs."""
    prev = 0
    for index, pos in indices:
        error = index_error(index, prev)
        if error:
            raise ExpressionSyntaxError(error, pos)
        prev = index
    return Token("blade", tuple(index for index, _ in indices), start, source[start:end])


_ATOM_EXPECTED = ("a number", "a blade literal", "a name", "'('", "'-'")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.idx = 0

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def advance(self) -> Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.value != value:
            raise ExpressionSyntaxError(
                f"unexpected {_describe(tok)}", tok.pos, (f"'{value}'",)
            )
        return self.advance()

    def expression(self, min_prec: int = 0) -> Expr:
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.value not in PRECEDENCE:
                return left
            prec = PRECEDENCE[tok.value]
            if prec < min_prec:
                return left
            self.advance()
            if tok.value == "**":
                left = Pow(left, self.power_exponent())
            else:
                right = self.expression(prec + 1)
                left = BinOp(tok.value, left, right)

    def power_exponent(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():
            raise ExpressionSyntaxError(
                "power exponent must be a non-negative integer literal",
                tok.pos,
                ("an integer",),
            )
        self.advance()
        return int(tok.text)

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.advance()
            return Neg(self.unary())
        if tok.kind == "op" and tok.value == "+":
            self.advance()
            return self.unary()
        return self.atom()

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "number":
            num = Num(tok.value)
            # juxtaposed coefficient, as in rendered output: 2e_1, 4e[1,10]
            nxt = self.peek()
            if nxt.kind == "blade":
                self.advance()
                return BinOp("*", num, BladeLit(nxt.value))
            return num
        if tok.kind == "blade":
            return BladeLit(tok.value)
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "(":
                return self.call(tok)
            return Var(tok.value, tok.pos)
        if tok.kind == "op" and tok.value == "(":
            inner = self.expression(0)
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError(
            f"unexpected {_describe(tok)}", tok.pos, _ATOM_EXPECTED
        )

    def call(self, name_tok: Token) -> Call:
        self.advance()  # '('
        args: list[Expr] = []
        if not (self.peek().kind == "op" and self.peek().value == ")"):
            args.append(self.expression(0))
            while self.peek().kind == "op" and self.peek().value == ",":
                self.advance()
                args.append(self.expression(0))
        self.expect_op(")")
        return Call(name_tok.value, tuple(args), name_tok.pos)


def _describe(tok: Token) -> str:
    if tok.kind == "end":
        return "end of input"
    if tok.kind == "op":
        return f"'{tok.value}'"
    if tok.kind == "number":
        return f"number {tok.text}"
    if tok.kind == "blade":
        return f"blade {tok.text}"
    return f"name '{tok.value}'"


def parse_expr(source: str) -> Expr:
    """Parse one calculator expression into an AST."""
    parser = _Parser(tokenize(source))
    expr = parser.expression(0)
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionSyntaxError(
            f"unexpected {_describe(tail)}", tail.pos, ("an operator", "end of input")
        )
    return expr
