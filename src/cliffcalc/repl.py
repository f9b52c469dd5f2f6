"""Interactive calculator and script runner.

The session holds the ambient signature (products ``*``, ``**``, ``_|``,
``|_`` consult it; ``^`` never does), the variable bindings and the print
options.  Changing the signature never touches existing bindings: values do
not store a metric.

Lines are either ``:commands``, assignments ``name = expr`` (bound silently),
or bare expressions (printed).  ``#`` starts a comment.

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
import re
import shlex
import sys
from dataclasses import dataclass, field

from . import __version__
from .exprparse import (
    IDENT,
    BinOp,
    BladeLit,
    Call,
    Expr,
    ExpressionSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    parse_expr,
)
from .metric import UNBOUNDED, Signature, euclidean
from .multivector import Multivector, basis, from_scalar
from .products import (
    geometric_product,
    left_contraction,
    power,
    right_contraction,
    wedge,
)
from .rand import RandomSpec, random_multivector
from .textio import PrintOptions, load, render, save

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
    """Evaluate an AST bottom-up against the session state."""
    if isinstance(expr, Num):
        return from_scalar(expr.value)
    if isinstance(expr, BladeLit):
        return Multivector({expr.indices: 1.0})
    if isinstance(expr, Var):
        try:
            return session.variables[expr.name]
        except KeyError:
            raise EvalError(f"unbound variable '{expr.name}'", expr.pos) from None
    if isinstance(expr, Neg):
        return -_want_mv(eval_expr(expr.operand, session), "unary '-'")
    if isinstance(expr, Pow):
        base = _want_mv(eval_expr(expr.base, session), "'**'")
        return power(base, expr.exponent, session.signature)
    if isinstance(expr, BinOp):
        left = _want_mv(eval_expr(expr.left, session), f"'{expr.op}'")
        right = _want_mv(eval_expr(expr.right, session), f"'{expr.op}'")
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return geometric_product(left, right, session.signature)
        if expr.op == "^":
            return wedge(left, right)
        if expr.op == "_|":
            return left_contraction(left, right, session.signature)
        if expr.op == "|_":
            return right_contraction(left, right, session.signature)
        raise EvalError(f"unknown operator '{expr.op}'")
    if isinstance(expr, Call):
        return _call(expr, session)
    raise EvalError(f"cannot evaluate {expr!r}")


def _want_mv(value: Value, where: str) -> Multivector:
    if isinstance(value, GradesResult):
        raise EvalError(f"grades(...) result cannot be used with {where}")
    return value


def _call(expr: Call, session: Session) -> Value:
    args = [eval_expr(arg, session) for arg in expr.args]
    name = expr.name
    if name == "e":
        _want_arity(expr, args, 1, 1)
        return basis(_as_int(args[0], "e() index", expr.pos, minimum=1))
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
        d = _as_int(args[0], "rand() dimension", expr.pos, 1) if len(args) > 0 else 6
        g = _as_int(args[1], "rand() grade", expr.pos, 1) if len(args) > 1 else 4
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


def _as_int(value: Value, what: str, pos: int, minimum: int) -> int:
    mv = _want_mv(value, what)
    scalar = mv.scalar_part()
    if not mv.is_zero() and mv.grades() != [0]:
        raise EvalError(f"{what} must be an integer scalar", pos)
    if scalar != int(scalar):
        raise EvalError(f"{what} must be an integer, got {scalar}", pos)
    n = int(scalar)
    if n < minimum:
        raise EvalError(f"{what} must be >= {minimum}, got {n}", pos)
    return n


def run_command(line: str, session: Session) -> str | None:
    """Execute one line; returns printable output or None.

    Raises QuitRequested for ``:quit`` and a ValueError subclass on any
    failure, in which case the session is untouched.
    """
    body = line.split("#", 1)[0]
    stripped = body.strip()
    if not stripped:
        return None
    offset = len(body) - len(body.lstrip())
    if stripped.startswith(":"):
        return _command(stripped, session)
    name, expr_src, expr_offset = _split_assignment(stripped)
    if name is not None:
        _check_name(name)
        value = _eval_source(expr_src, session, offset + expr_offset)
        if isinstance(value, GradesResult):
            raise EvalError("cannot bind a grades(...) result to a variable")
        session.variables[name] = value
        return None
    value = _eval_source(stripped, session, offset)
    if isinstance(value, GradesResult):
        return str(value)
    return render(value, session.print_options)


def _split_assignment(text: str) -> tuple[str | None, str, int]:
    m = re.match(rf"({IDENT})\s*=\s*(.*)$", text)
    if not m:
        return None, text, 0
    rhs = m.group(2)
    if not rhs:
        raise CommandError("assignment needs a right-hand side")
    return m.group(1), rhs, m.start(2)


def _eval_source(source: str, session: Session, offset: int) -> Value:
    try:
        expr = parse_expr(source)
        return eval_expr(expr, session)
    except ExpressionSyntaxError as err:
        raise ExpressionSyntaxError(
            err.base_message, err.position + offset, err.expected
        ) from None
    except EvalError as err:
        if err.position is not None:
            raise EvalError(str(err), err.position + offset) from None
        raise


def _command(text: str, session: Session) -> str | None:
    try:
        words = shlex.split(text)
    except ValueError as err:
        raise CommandError(f"bad command syntax: {err}") from None
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
    if not re.fullmatch(IDENT, name):
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
    if len(counts) == 1:
        # bare ":signature inf" is the positive-definite metric
        if counts[0] is UNBOUNDED:
            return Signature(UNBOUNDED, 0)
        return Signature(counts[0])
    return Signature(counts[0], counts[1])


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
