"""Tokenizer, AST and shunting-yard parser for calculator expressions.

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
tokens too.  It reads the line through one token table, a regex with a named
alternative per token kind, tried in this order after any whitespace:

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

The ``end`` token stands at the end of input, where only whitespace is
left and the table finds no more tokens; an alternative for it, the only
empty one, made the table's matches ~15% slower.

Numbers and indices take the ASCII digits ``0-9`` only, as names take ASCII
letters, so a digit of another script (``\u0663``) is an unexpected
character; whitespace between tokens is any Unicode whitespace.  A blade
literal's index list is checked by :func:`cliffcalc.blade.first_bad_index`,
which states the rule, and an error stands at its first bad index.

The table is compiled with and without the comma form, chosen by
``depth != 0``: no expression has a comma outside parentheses, so
``grade(e_12,2)`` is still a two-argument call, and after a stray ``)`` the
depth is negative and the comma form stays off.  One ``finditer`` of the
table reads the tokens while the table stays; a ``(`` or ``)`` that leaves
the depth within -1..1, where it may have moved to or from 0, ends it, and
the next one starts after that token.  After any whitespace, ``char``
matches where nothing else does, so ``finditer`` finds each token where the
last one ended, as a ``match`` there would, and stops only where nothing
but whitespace is left.  Tokens are built by ``tuple.__new__``, in C, not
through the NamedTuple's Python-level ``__new__``, which took about twice
as long a token.

A blade literal's text (``e_12``, ``e_1,10``, ``e[4, 6, 12]``) is read into
its checked index tuple by :func:`_literal_indices`, a cache of the last
:data:`_LITERALS_HELD` (1024) texts that read without error, so a script
that writes the same blades over and over converts and checks each text
once; a bad literal raises at its offset in the text, to which
:func:`tokenize` adds the token's start.  Only texts of at most
:data:`_CACHED_TEXT` (64) characters go in, so an entry stays under
~0.5 KiB and a full cache under ~0.5 MiB (tracemalloc: ~0.45 KiB an
entry of 62 characters, ~0.15 KiB one of ``e_12`` or ``e[1, 2, 3]``).
Nothing is cached by whole line or tree: a calculator's lines are seldom
typed twice, and such a cache would time a replayed script's repeats, not
the parse.

Since a blade literal always starts ``e_`` or ``e[``, ``2e1`` is the number
20 and ``2e_1`` is 2 times e_1.  The exponent of ``**`` must be a
non-negative integer literal, at most :data:`MAX_EXPONENT`.  A leading ``+``
is a no-op, so rendered output like ``+ 1 + 2e_1 - 3e[2, 10]`` reads back as
an expression.

The AST nodes are :class:`Term`, :class:`Var`, :class:`Neg`, :class:`BinOp`,
:class:`Pow` and :class:`Call`.  A literal is one :class:`Term`: a number
``c`` is ``Term(c, ())``, a blade literal ``e_B`` is ``Term(1.0, B)``, and a
number directly followed by a blade literal, ``c e_B``, is ``Term(c, B)``.  A
number times a blade literal of coefficient 1 (``2*e_1``, ``(2) * e[1]``)
folds into ``Term(c, B)`` too, which is that product bit for bit: the
scalar's sign is +1 under every signature and ``c * 1.0 == c``.  No other
product folds, so ``2 * 3``, ``2 * 3e_1``, ``-2 * e_1`` and ``e_1 * 2`` stay
products, and ``1e200 * 1e200`` overflows through the product as any other.

The nodes are NamedTuples, about half the cost of frozen dataclasses to
build; like any tuples, they compare by their fields alone.

Every error of the lexer and the parser is an :class:`ExpressionSyntaxError`,
raised once, at an offset in the text passed in: the calculator passes its
whole line, and :func:`~cliffcalc.textio.parse_multivector` lets the lexer's
errors through as they are.  The parser does not recurse, so any depth of
nesting parses; but ``==``, ``repr`` and ``hash`` on the AST of a very deep
line still recurse, and can fail where parsing did not.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import NamedTuple, Union

from .blade import Blade, first_bad_index, index_value


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


class Term(NamedTuple):
    """A literal ``coeff e_B``: ``indices`` is the canonical tuple ``B``,
    empty for a number."""

    coeff: float
    indices: Blade


class Var(NamedTuple):
    name: str
    pos: int = 0


class Neg(NamedTuple):
    operand: "Expr"


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


class Pow(NamedTuple):
    base: "Expr"
    exponent: int


class Call(NamedTuple):
    name: str
    args: tuple["Expr", ...]
    pos: int = 0


Expr = Union[Term, Var, Neg, BinOp, Pow, Call]

PRECEDENCE = {"+": 10, "-": 10, "_|": 20, "|_": 20, "^": 30, "*": 40, "**": 50}

#: The largest exponent of ``**``.  ``x ** k`` takes k - 1 geometric
#: products, so a short line such as ``e_1 ** 1000000000`` would otherwise
#: run for about an hour; a larger exponent is a syntax error at its position.
MAX_EXPONENT = 1024

#: How the zero multivector renders; the lexer reads it as the number 0.
ZERO_FORM = "the zero clifford element (0)"

#: A number literal: ASCII digits with an optional fraction and decimal exponent.
NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

#: A name: a letter, then letters, digits and underscores.
IDENT = r"[A-Za-z][A-Za-z0-9_]*"

_DIGIT_RE = re.compile(r"[0-9]")
_DIGITS_RE = re.compile(r"[0-9]+")


def _token_table(run: str) -> re.Pattern[str]:
    """The token table: one alternative per token kind, tried in order."""
    return re.compile(rf"""\s*(?:
        (?P<op>\*\*|_\||\|_|[-+*^(),])
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


#: Blade-literal texts whose checked index tuples are held at once, least
#: recently used dropped first; only texts of at most _CACHED_TEXT
#: characters go in (see the module docstring).  The ~300 blades up to
#: grade 3 at dimension 12 in each of a script's three forms fit.
_LITERALS_HELD = 1024
_CACHED_TEXT = 64


@lru_cache(maxsize=_LITERALS_HELD)
def _literal_indices(text: str) -> Blade:
    """The canonical index tuple of the blade literal ``text``, checked by
    :func:`~cliffcalc.blade.first_bad_index`; a bad index is an error at the
    offset of its digits in ``text``."""
    # a run without commas has one index per digit
    digits = _DIGIT_RE if text[1] == "_" and "," not in text else _DIGITS_RE
    indices = tuple(map(index_value, digits.findall(text)))
    bad = first_bad_index(indices)
    if bad:
        at, error = bad
        raise ExpressionSyntaxError(error, [*digits.finditer(text)][at].start())
    return indices


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending with an ``end`` token.

    A ``number`` token carries its float, a ``blade`` token its canonical
    index tuple, checked by :func:`~cliffcalc.blade.first_bad_index`.
    """
    tokens: list[Token] = []
    add = tokens.append
    new = tuple.__new__  # a Token without its Python-level __new__
    pos = depth = 0  # depth: parenthesis depth; negative after a stray ')'
    while True:
        # one finditer while the table stays, which only a '(' or ')' that
        # moves the depth to or from 0 changes
        for m in _TOKEN_TABLES[depth != 0].finditer(source, pos):
            kind = m.lastgroup
            start, text = m.start(kind), m[kind]
            if kind == "op" or kind == "ident":
                add(new(Token, (kind, text, start, "")))
                if text in "()":
                    depth += 1 if text == "(" else -1
                    if -1 <= depth <= 1:  # the table may change: restart after it
                        pos = m.end()
                        break
            elif kind == "number" or kind == "zero":  # the zero form is the number 0
                value = float(text) if kind == "number" else 0.0
                if math.isinf(value):
                    raise ExpressionSyntaxError(f"number {text} is out of range", start)
                add(new(Token, ("number", value, start, text)))
            elif kind == "run" or kind == "bracket":
                try:
                    indices = (_literal_indices if len(text) <= _CACHED_TEXT else _literal_indices.__wrapped__)(text)
                except ExpressionSyntaxError as error:  # raised at its offset in the text
                    raise ExpressionSyntaxError(error.base_message, start + error.position) from None
                add(new(Token, ("blade", indices, start, text)))
            elif kind == "open":
                pos = m.end()
                what = f"'{source[pos]}'" if pos < len(source) else "end of input"
                expected = ("an integer index",) if text.rstrip()[-1] in "[," else ("','", "']'")
                raise ExpressionSyntaxError(f"unexpected {what}", pos, expected)
            elif kind == "dot":
                raise ExpressionSyntaxError("malformed number", start)
            else:
                raise ExpressionSyntaxError(f"unexpected character {text!r}", start)
        else:  # nothing but whitespace is left
            add(new(Token, ("end", None, len(source), "")))
            return tokens


_ATOM_EXPECTED = ("a number", "a blade literal", "a name", "'('", "'-'")


def parse_expr(source: str) -> Expr:
    """Parse one calculator expression into an AST.

    Positions in its nodes and errors are offsets in ``source``.  One loop
    reads the tokens, in turn an operand and then the operators after it,
    and keeps what is still open on an explicit stack (Dijkstra's
    shunting-yard; Norvell, "Parsing Expressions by Recursive Descent",
    1999), so any depth of nesting parses: a binary operator waits there for
    its right operand until an operator that binds no tighter arrives.
    """
    tokens = tokenize(source)
    # open frames, innermost last: "-" a unary minus, "(" a parenthesis,
    # (precedence, operator, left operand) a binary operator and
    # [name, position, arguments] a call
    stack: list = []
    at = 0
    while True:
        # an operand, after any signs and opening parentheses or calls
        tok = tokens[at]
        kind, value, pos, _ = tok
        at += 1
        if kind == "number" and tokens[at].kind == "blade":  # juxtaposed: 2e_1, 4e[1,10]
            operand = Term(value, tokens[at].value)
            at += 1
        elif kind == "number":
            operand = Term(value, ())
        elif kind == "blade":
            operand = Term(1.0, value)
        elif kind == "ident" and tokens[at].value == "(":
            if tokens[at + 1].value != ")":
                stack.append([value, pos, []])
                at += 1
                continue
            operand = Call(value, (), pos)
            at += 2
        elif kind == "ident":
            operand = Var(value, pos)
        elif kind == "op" and value in ("-", "+", "("):
            if value != "+":  # a leading '+' is a no-op
                stack.append(value)
            continue
        else:
            raise ExpressionSyntaxError(f"unexpected {_describe(tok)}", pos, _ATOM_EXPECTED)
        # the operators after it, until one waits for its right operand
        while True:
            while stack and stack[-1] == "-":
                stack.pop()
                operand = Neg(operand)
            tok = tokens[at]
            kind, value, pos, _ = tok
            at += 1
            if value == "**":
                kind, _, pos, text = tokens[at]
                if kind != "number" or not text.isdigit():
                    message = "power exponent must be a non-negative integer literal"
                    raise ExpressionSyntaxError(message, pos, ("an integer",))
                exponent = int(text)
                if exponent > MAX_EXPONENT:
                    message = f"power exponent must be at most {MAX_EXPONENT}"
                    raise ExpressionSyntaxError(message, pos, (f"an integer up to {MAX_EXPONENT}",))
                operand = Pow(operand, exponent)
                at += 1
                continue
            prec = PRECEDENCE.get(value)
            while stack and type(stack[-1]) is tuple and (prec is None or stack[-1][0] >= prec):
                _, op, left = stack.pop()
                # 2*e_1 is one Term, as 2e_1 is: see the module docstring
                if (op == "*" and type(left) is Term and type(operand) is Term
                        and not left.indices and operand.indices and operand.coeff == 1.0):
                    operand = Term(left.coeff, operand.indices)
                else:
                    operand = BinOp(op, left, operand)
            if prec is not None:
                stack.append((prec, value, operand))
                break
            if not stack:
                if kind == "end":
                    return operand
                expected = ("an operator", "end of input")
                raise ExpressionSyntaxError(f"unexpected {_describe(tok)}", pos, expected)
            frame = stack[-1]
            if value == "," and frame != "(":
                frame[2].append(operand)
                break
            if value != ")":
                raise ExpressionSyntaxError(f"unexpected {_describe(tok)}", pos, ("')'",))
            stack.pop()
            if frame != "(":
                operand = Call(frame[0], (*frame[2], operand), frame[1])


def _describe(tok: Token) -> str:
    kind, value, _, text = tok
    return {"end": "end of input", "op": f"'{value}'", "number": f"number {text}",
            "blade": f"blade {text}"}.get(kind, f"name '{value}'")
