"""Interactive calculator and script runner.

The session holds the ambient signature (products ``*``, ``**``, ``_|``,
``|_`` consult it; ``^`` never does), the variable bindings and the print
options.  Changing the signature never touches existing bindings: values do
not store a metric.

Lines are either ``:commands``, assignments ``name = expr`` (bound silently),
or bare expressions (printed).  ``#`` starts a comment.

Each error is raised once, by the layer that finds it.  The parser reads the
line itself, with an assignment's ``name =`` blanked to spaces, so the
position of a syntax error, an unbound name or a bad call is already its
offset in the line.  Neither the parser nor :func:`eval_expr` recurses, so
how deeply a line nests is bounded only by memory.

Commands:

    :signature p [q]     set the metric; q omitted means unbounded
    :signature inf       positive-definite on all generators
    :basissep [,]        separate subscripts with ','; omitted, with nothing
    :load [name] <path>  read a .mv file; bind it, or print it if unnamed
    :save <name> <path>  write a bound variable to a .mv file
    :quit                leave the calculator
"""

from __future__ import annotations

import argparse
import math
import re
import shlex
import sys
from dataclasses import dataclass, field

from . import __version__
from .exprparse import (
    IDENT,
    BinOp,
    Call,
    Expr,
    Neg,
    Pow,
    Term,
    Var,
    parse_expr,
)
from .metric import UNBOUNDED, Signature, euclidean
from .blade import MAX_INDEX, blade_key
from .multivector import Multivector, _check_coeff, basis, sum_terms, zero
from .products import (
    geometric_product,
    left_contraction,
    power,
    right_contraction,
    wedge,
)
from .rand import RandomSpec, random_multivector
from .textio import PrintOptions, format_coefficient, load, render, save

RESERVED_NAMES = frozenset({"e", "rand", "grades", "grade", "scalar"})


class ReplError(ValueError):
    """Base for evaluation and command errors; the session is unchanged."""


class EvalError(ReplError):
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class CommandError(ReplError):
    pass


class QuitRequested(Exception):
    pass


class GradesResult:
    """Grades of a multivector, printable but not usable in arithmetic."""

    __slots__ = ("values",)

    def __init__(self, values: list[int]):
        self.values = values

    def __eq__(self, other):
        return isinstance(other, GradesResult) and self.values == other.values

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.values) if self.values else "(none)"


@dataclass
class Session:
    signature: Signature = field(default_factory=euclidean)
    variables: dict[str, Multivector] = field(default_factory=dict)
    print_options: PrintOptions = field(default_factory=PrintOptions)


Value = Multivector | GradesResult


def eval_expr(expr: Expr, session: Session) -> Value:
    """Evaluate an AST against the session state, in one loop.

    Nothing here recurses, so any depth the parser reads evaluates.  The
    loop visits ``node``, then the next entry of ``todo``.  An entry holds a
    node, ``user``, the name of the operator that will use its value (None
    for an argument or the whole expression), and ``signs``: None the first
    time the node is visited, and the second time True, or a sum's signs.
    A node with operands is visited twice: first it pushes itself back and
    its operands, and goes on with the leftmost, so they are evaluated left
    to right; the second time, their values are the last on ``values``.  A
    ``grades(...)`` value given to an operator is an error as soon as it is
    made, before any operand to its right is evaluated.

    A left-associative chain of ``+`` and ``-`` is one node: its operands'
    terms (negated after a ``-``) are listed in order and summed by
    :func:`~cliffcalc.multivector.sum_terms` once; its docstring gives why
    that equals adding pair by pair.  A literal, number, blade or ``c e_B``
    alike, is one :class:`~cliffcalc.exprparse.Term`, whose value is its one
    term.
    """
    signature, variables = session.signature, session.variables
    todo: list = []
    values: list[Value] = []
    node, user, signs = expr, None, None
    while True:
        kind = type(node)
        if kind is BinOp:
            op, left, right = node
            if op in ("+", "-") and signs is None:
                signs = [-1.0 if op == "-" else 1.0]  # rightmost first
                todo += ((node, None, signs), (right, f"'{op}'", None))
                while type(left) is BinOp and left.op in ("+", "-"):
                    op, left, right = left
                    signs.append(-1.0 if op == "-" else 1.0)
                    todo.append((right, f"'{op}'", None))
                signs.append(1.0)  # the first operand, named with the first operator
                node, user, signs = left, f"'{op}'", None
                continue
            elif op in ("+", "-"):
                value = Multivector._wrap(*sum_terms([
                    (key, sign * c)
                    for sign, term in zip(reversed(signs), values[-len(signs):])
                    for key, c in zip(term._keys, term._coeffs)
                ]))
                del values[-len(signs):]
            else:
                if signs:
                    right = values.pop()
                    left = values.pop()
                elif type(left) is Var and type(right) is Var:  # the most frequent product
                    where = f"'{op}'"
                    left = _variable(left, variables, where)
                    right = _variable(right, variables, where)
                else:
                    todo += ((node, user, True), (right, f"'{op}'", None))
                    node, user = left, f"'{op}'"
                    continue
                if op == "*":
                    value = geometric_product(left, right, signature)
                elif op == "^":
                    value = wedge(left, right)
                elif op == "_|":
                    value = left_contraction(left, right, signature)
                elif op == "|_":
                    value = right_contraction(left, right, signature)
                else:
                    raise EvalError(f"unknown operator '{op}'")
        elif kind is Term:
            c, indices = node  # the lexer checked the indices
            if type(c) is not float or c - c:  # not a finite float: checked as from_scalar does
                c = _check_coeff(c)
            value = Multivector._wrap([blade_key(indices)], [c]) if c else zero()
        elif kind is Var:
            value = _variable(node, variables, user)
        elif (kind is Neg or kind is Pow) and not signs:
            todo.append((node, user, True))
            node, user = node[0], "unary '-'" if kind is Neg else "'**'"  # operand or base
            continue
        elif kind is Neg:
            value = -values.pop()
        elif kind is Pow:
            value = power(values.pop(), node.exponent, signature)
        elif kind is Call and not signs:
            todo.append((node, user, True))
            todo += [(arg, None, None) for arg in reversed(node.args)]
            node, user, signs = todo.pop()
            continue
        elif kind is Call:
            count = len(node.args)
            value = _call(node, values[len(values) - count:])
            del values[len(values) - count:]
            if user:
                _want_mv(value, user)
        else:
            raise EvalError(f"cannot evaluate {node!r}")
        if not todo:
            return value
        values.append(value)
        node, user, signs = todo.pop()


def _variable(node: Var, variables: dict[str, Multivector], user: str | None) -> Value:
    value = variables.get(node.name)
    if value is None:
        raise EvalError(f"unbound variable '{node.name}'", node.pos)
    if user and isinstance(value, GradesResult):  # bound by a library caller
        raise EvalError(f"grades(...) result cannot be used with {user}")
    return value


def _want_mv(value: Value, where: str) -> Multivector:
    if isinstance(value, GradesResult):
        raise EvalError(f"grades(...) result cannot be used with {where}")
    return value


def _call(expr: Call, args: list[Value]) -> Value:
    name = expr.name
    if name == "e":
        _want_arity(expr, args, 1, 1)
        index = _as_int(args[0], "e() index", expr.pos, minimum=1, maximum=MAX_INDEX)
        try:
            return basis(index)
        except ValueError as err:
            raise EvalError(f"e(): {err}", expr.pos) from None
    if name == "grade":
        _want_arity(expr, args, 2, 2)
        target = _want_mv(args[0], "grade()")
        return target.grade_part(_as_int(args[1], "grade() grade", expr.pos, minimum=0))
    if name == "grades":
        _want_arity(expr, args, 1, 1)
        return GradesResult(_want_mv(args[0], "grades()").grades())
    if name == "scalar":
        _want_arity(expr, args, 1, 1)
        value = _want_mv(args[0], "scalar()")
        if not value.is_zero() and value.grades() != [0]:
            raise EvalError("scalar() argument must be a scalar", expr.pos)
        return value
    if name == "rand":
        _want_arity(expr, args, 0, 4)
        d = _as_int(args[0], "rand() dimension", expr.pos, 1, MAX_INDEX) if len(args) > 0 else 6
        g = _as_int(args[1], "rand() grade", expr.pos, 1, d) if len(args) > 1 else 4
        fewer = _as_int(args[2], "rand() fewer flag", expr.pos, 0) if len(args) > 2 else 0
        seed = _as_int(args[3], "rand() seed", expr.pos, 0) if len(args) > 3 else 0
        try:
            spec = RandomSpec(
                dimension=d, max_grade=g, include_fewer=bool(fewer), seed=seed
            )
        except ValueError as err:
            raise EvalError(f"rand(): {err}", expr.pos) from None
        return random_multivector(spec)
    raise EvalError(f"unknown function '{name}'", expr.pos)


def _want_arity(expr: Call, args: list, low: int, high: int) -> None:
    if not low <= len(args) <= high:
        span = str(low) if low == high else f"{low}..{high}"
        raise EvalError(
            f"{expr.name}() takes {span} argument(s), got {len(args)}", expr.pos
        )


def _as_int(value: Value, what: str, pos: int, minimum: int, maximum: float = math.inf) -> int:
    """The integer value of an argument of at least ``minimum``.  One past
    ``maximum`` is rejected here only from 1e16 on, where the argument shows
    in exponent form; below that the callee's range check prints the same
    digits."""
    mv = _want_mv(value, what)
    scalar = mv.scalar_part()
    if not mv.is_zero() and mv.grades() != [0]:
        raise EvalError(f"{what} must be an integer scalar", pos)
    if not scalar.is_integer():
        raise EvalError(f"{what} must be an integer, got {scalar}", pos)
    n = int(scalar)
    if n < minimum:
        raise EvalError(f"{what} must be >= {minimum}, got {format_coefficient(scalar)}", pos)
    if n > maximum and scalar >= 1e16:
        raise EvalError(f"{what} must be <= {maximum}, got {format_coefficient(scalar)}", pos)
    return n


def run_command(line: str, session: Session) -> str | None:
    """Execute one line; returns printable output or None.

    Raises QuitRequested for ``:quit`` and a ValueError subclass on any
    failure, in which case the session is untouched.  An error's
    ``position``, where it has one, is an offset in ``line``.
    """
    source = line.split("#", 1)[0].rstrip()
    stripped = source.lstrip()
    if not stripped:
        return None
    if stripped.startswith(":"):
        return _command(stripped, session)
    assignment = _ASSIGNMENT_RE.match(source)
    if assignment:
        name, rhs = assignment.groups()
        if not rhs:
            raise CommandError("assignment needs a right-hand side")
        _check_name(name)
        source = " " * assignment.start(2) + rhs
    value = eval_expr(parse_expr(source), session)
    if assignment:
        if isinstance(value, GradesResult):
            raise EvalError("cannot bind a grades(...) result to a variable")
        session.variables[name] = value
        return None
    if isinstance(value, GradesResult):
        return str(value)
    return render(value, session.print_options)


_ASSIGNMENT_RE = re.compile(rf"\s*({IDENT})\s*=\s*(.*)$")
_NAME_RE = re.compile(IDENT)


#: A word of a command line without quotes or backslashes: shlex.split
#: splits such a line on its whitespace, space, tab, CR and LF, only.
_WORD_RE = re.compile(r"[^ \t\r\n]+")


def _command(text: str, session: Session) -> str | None:
    if "'" in text or '"' in text or "\\" in text:
        try:
            words = shlex.split(text)
        except ValueError as err:
            raise CommandError(f"bad command syntax: {err}") from None
    else:
        words = _WORD_RE.findall(text)
    cmd, args = words[0], words[1:]
    if cmd == ":quit":
        raise QuitRequested()
    if cmd == ":signature":
        session.signature = _parse_signature(args)
        return None
    if cmd == ":basissep":
        if len(args) > 1:
            raise CommandError("usage: :basissep [,]")
        sep = args[0] if args else ""
        try:
            session.print_options = PrintOptions(basis_sep=sep)
        except ValueError as err:
            raise CommandError(str(err)) from None
        return None
    if cmd == ":load":
        if len(args) == 1:
            return render(load(args[0]), session.print_options)
        if len(args) == 2:
            name, path = args
            _check_name(name)
            session.variables[name] = load(path)
            return None
        raise CommandError("usage: :load [name] <path>")
    if cmd == ":save":
        if len(args) != 2:
            raise CommandError("usage: :save <name> <path>")
        name, path = args
        if name not in session.variables:
            raise CommandError(f"unbound variable '{name}'")
        save(session.variables[name], path)
        return None
    raise CommandError(f"unknown command '{cmd}'")


def _check_name(name: str) -> None:
    if not _NAME_RE.fullmatch(name):
        raise CommandError(f"invalid variable name '{name}'")
    if name in RESERVED_NAMES:
        raise CommandError(f"'{name}' is reserved and cannot be assigned")


#: A signature count: ASCII digits, signed so that -1 reads as a negative count.
_COUNT_RE = re.compile(r"[-+]?[0-9]+")


def _parse_signature(tokens: list[str]) -> Signature:
    if not 1 <= len(tokens) <= 2:
        raise CommandError("usage: :signature p [q]  or  :signature inf")
    counts = []
    for tok in tokens:
        if tok.lower() == "inf":
            counts.append(UNBOUNDED)
            continue
        try:
            if not _COUNT_RE.fullmatch(tok):
                raise ValueError
            value = int(tok)  # which also refuses more than 4300 digits
        except ValueError:
            raise CommandError(f"bad signature count {tok!r}") from None
        if value < 0:
            raise CommandError(f"signature counts must be non-negative, got {value}")
        counts.append(value)
    if counts == [UNBOUNDED]:
        # bare ":signature inf" is the positive-definite metric
        counts.append(0)
    return Signature(*counts)


def run_script(path: str, session: Session, out=None) -> int:
    """Execute a script file line by line; stop and return 1 on first error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for lineno, line in enumerate(lines, start=1):
        try:
            output = run_command(line.rstrip("\n"), session)
        except QuitRequested:
            return 0
        except (ValueError, OSError) as err:
            print(f"{path}:{lineno}: error: {err}", file=sys.stderr)
            return 1
        if output is not None:
            print(output, file=out if out is not None else sys.stdout)
    return 0


def interactive(session: Session) -> int:
    try:
        import readline  # noqa: F401 (line editing side effect)
    except ImportError:
        pass
    print(f"cliffcalc {__version__} -- :quit to leave, # starts a comment")
    while True:
        try:
            line = input("cliff> ")
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            continue
        try:
            output = run_command(line, session)
        except QuitRequested:
            return 0
        except (ValueError, OSError) as err:
            position = getattr(err, "position", None)
            if isinstance(position, int) and 0 <= position <= len(line):
                print("  " + line)
                print("  " + " " * position + "^")
            print(f"error: {err}")
            continue
        if output is not None:
            print(output)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cliffcalc",
        description="Clifford algebra expression calculator",
    )
    parser.add_argument("--script", metavar="PATH", help="run a script instead of the REPL")
    parser.add_argument(
        "--signature",
        metavar="SPEC",
        help="initial signature: 'p,q', 'p' (q unbounded) or 'inf'",
    )
    parser.add_argument("--basissep", metavar="S", default=None,
                        help="subscript separator: ',' or '' (none, the default)")
    args = parser.parse_args(argv)

    session = Session()
    try:
        if args.signature is not None:
            session.signature = _parse_signature(
                [t.strip() for t in args.signature.split(",") if t.strip() != ""]
            )
        if args.basissep is not None:
            session.print_options = PrintOptions(basis_sep=args.basissep)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.script:
        return run_script(args.script, session)
    return interactive(session)
