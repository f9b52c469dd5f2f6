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
tokens too.  Numbers are decimal with an optional exponent (``2.5``, ``.5``,
``1e+16``); a literal that overflows a double is an error at its position.
Blade literals are:

* ``e_12``: a run of single-digit indices, one per digit;
* ``e_1,10,12``: comma-separated full indices, lexed only outside
  parentheses, where no expression has a comma (so ``grade(e_12,2)`` is
  still a two-argument call);
* ``e[1, 10, 12]``: bracketed full indices, whitespace allowed;
* the ``e(7)`` builtin call.

Since a blade literal always starts ``e_`` or ``e[``, ``2e1`` is the number
20 and ``2e_1`` is 2 times e_1.  The exponent of ``**`` must be a
non-negative integer literal.

A number directly followed by a blade literal multiplies it (``2e_1``,
``4e[1,10]``), and a leading ``+`` is a no-op, so rendered one-line output
like ``+ 1 + 2e_1 + 3e_2`` reads back as an expression, with either
separator.  The rendered zero, ``the zero clifford element (0)``, is lexed as
the number 0.
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

_TWO_CHAR_OPS = ("**", "_|", "|_")
_ONE_CHAR_OPS = "+-*^(),"

#: How the zero multivector renders; the lexer reads it as the number 0.
ZERO_FORM = "the zero clifford element (0)"

#: A number literal: digits with an optional fraction and decimal exponent.
NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"

_NUMBER_RE = re.compile(NUMBER)
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_DIGITS_RE = re.compile(r"\d+")
_COMMA_RUN_RE = re.compile(r"\d+(?:,\d+)*")
_BRACKET_OPEN_RE = re.compile(r"\s*\[")
_BRACKET_INDEX_RE = re.compile(r"\s*(\d*)\s*")
_INDEX_DIGITS = len(str(MAX_INDEX))


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending with an ``end`` token.

    A ``number`` token carries its float, a ``blade`` token its canonical
    index tuple; each index is checked with :func:`cliffcalc.blade.index_error`
    and a bad one is reported at its own position.
    """
    tokens: list[Token] = []
    i = 0
    n = len(source)
    depth = 0  # parenthesis depth: the comma blade form is lexed only at 0
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, i))
            i += 2
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(source, i)
            if not m:
                raise ExpressionSyntaxError("malformed number", i)
            value = float(m.group())
            if math.isinf(value):
                raise ExpressionSyntaxError(f"number {m.group()} is out of range", i)
            tokens.append(Token("number", value, i, m.group()))
            i = m.end()
            continue
        run = two == "e_" and (_COMMA_RUN_RE if depth == 0 else _DIGITS_RE).match(source, i + 2)
        if run:
            if "," in run.group():
                indices = [(_index(g.group()), g.start())
                           for g in _DIGITS_RE.finditer(source, i + 2, run.end())]
            else:
                indices = [(int(d), i + 2 + k) for k, d in enumerate(run.group())]
            tokens.append(_blade_token(source, i, run.end(), indices))
            i = run.end()
            continue
        if ch == "t" and source.startswith(ZERO_FORM, i):
            tokens.append(Token("number", 0.0, i, ZERO_FORM))
            i += len(ZERO_FORM)
            continue
        if ch.isalpha():
            m = _IDENT_RE.match(source, i)
            name = m.group()
            end = m.end()
            # give back a trailing '_' so "x_|y" lexes as x _| y
            if name.endswith("_") and source[end:end + 1] == "|":
                name = name[:-1]
                end -= 1
            opener = name == "e" and _BRACKET_OPEN_RE.match(source, end)
            if opener:
                i, token = _bracket_blade(source, i, opener.end())
                tokens.append(token)
                continue
            tokens.append(Token("ident", name, i))
            i = end
            continue
        if ch in _ONE_CHAR_OPS:
            depth += (ch == "(") - (ch == ")")
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", None, n))
    return tokens


def _bracket_blade(source: str, start: int, j: int) -> tuple[int, Token]:
    """Lex ``e[i, j, ...]`` from the ``e`` at ``start``; ``j`` is just past ``[``.

    Returns the position after ``]`` and the blade token.
    """
    indices: list[tuple[int | str, int]] = []
    while True:
        m = _BRACKET_INDEX_RE.match(source, j)
        if not m.group(1):
            raise ExpressionSyntaxError(
                f"unexpected {_describe_char(source, m.start(1))}",
                m.start(1),
                ("an integer index",),
            )
        indices.append((_index(m.group(1)), m.start(1)))
        j = m.end()
        if source[j:j + 1] == ",":
            j += 1
        elif source[j:j + 1] == "]":
            return j + 1, _blade_token(source, start, j + 1, indices)
        else:
            raise ExpressionSyntaxError(
                f"unexpected {_describe_char(source, j)}", j, ("','", "']'")
            )


def _index(digits: str) -> int | str:
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


def _describe_char(source: str, pos: int) -> str:
    return f"'{source[pos]}'" if pos < len(source) else "end of input"


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
