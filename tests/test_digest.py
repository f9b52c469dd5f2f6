"""Golden digests of the calculator and of the products.

The calculator corpus is ~5,000 calculator lines, well-formed and mutated, run through
``run_command`` in sessions of 40 lines.  A SHA-256 covers each line's
output, or its error type, message, ``position`` and ``expected``, and after
each line the bindings' names, blade keys and coefficient bits.  A change
that alters any of these fails the test; one that does so on purpose updates
:data:`CALCULATOR_DIGEST` and says why.

Every value the corpus makes is finite: variables are bound only from lines
that read no variable, and coefficients stay small, so no line overflows.
Parentheses nest at most four deep.

The products corpus is seeded multivectors under seven signatures, with
indices up to 10, 64 and 200 and integer, mixed-magnitude, cancelling and
underflowing coefficients.  A SHA-256 covers the blade keys, term order and
coefficient bits of the four products under both backends, of sums,
differences and scalar multiples, of ``parse_multivector(render(x))`` and
``load(save(x))``, and the results or errors of the tuple-level
``blade_product``, ``blade_wedge`` and ``canonicalize``.  No coefficient
overflows, so every result is finite.
"""

import hashlib
import math
import random

import pytest

from cliffcalc import (
    UNBOUNDED,
    Multivector,
    Signature,
    blade_product,
    blade_wedge,
    canonicalize,
    euclidean,
    geometric_product,
    grassmann,
    left_contraction,
    load,
    parse_multivector,
    render,
    right_contraction,
    save,
    wedge,
)
from cliffcalc import kernels
from cliffcalc.repl import Session, run_command

#: SHA-256 of :func:`calculator_records` over :data:`SEEDS`.
CALCULATOR_DIGEST = "d2906a93706a7c9cecad40613d56264acf4c5910b5f9d67499d2ca1d28bece3d"

SEEDS = range(125)  # 125 sessions of 40 lines
SESSION_LINES = 40

BOUND = ("a", "b", "c")
NUMBERS = ("0", "1", "2", "3", "7", "2.5", ".5", "0.1", "3e0", "1e-3", "10", "0.25")
BLADES = ("e_1", "e_2", "e_12", "e_123", "e_3", "e_24", "e[1, 10]", "e[2,11]",
          "e[ 5 ]", "e_1,10", "e_2,3,12")
COMMANDS = (":signature 3 1", ":signature inf", ":signature 4", ":signature 2 2",
            ":basissep ,", ":basissep", ":signature -1", ":signature", ":frob",
            ":save nope somewhere.mv", ":save a", ":basissep ;", ":load",
            ":signature '3' \\1", ":quit")
#: Characters a mutation inserts or substitutes: no letter of a bound name
#: and no '=', so a mutated line neither reads nor binds a variable it
#: did not before.
MUTATION_CHARS = " ()+-*^_|,.0123456789e[]#:$xy"


def expression(rng: random.Random, names, depth: int = 0) -> str:
    """A random calculator expression over ``names``."""
    kind = rng.choices(
        ("number", "blade", "term", "zero", "name", "call", "neg", "binary", "power", "paren"),
        (3, 3, 4, 1, 3 if names else 0, 2, 1,
         5 if depth < 3 else 0, 1 if depth < 3 else 0, 1 if depth < 4 else 0))[0]
    if kind == "number":
        return rng.choice(NUMBERS)
    if kind == "blade":
        return rng.choice(BLADES)
    if kind == "term":
        return rng.choice(NUMBERS) + rng.choice(("", " ", " * ")) + rng.choice(BLADES)
    if kind == "zero":
        return "the zero clifford element (0)"
    if kind == "name":
        return rng.choice(names + ("nope", "e", "grades"))
    if kind == "neg":
        return rng.choice(("-", "+", "- ", "--")) + expression(rng, names, depth + 1)
    if kind == "binary":
        op = rng.choice(("+", "-", "*", "^", "_|", "|_", "+", "-", "*"))
        return (expression(rng, names, depth + 1) + rng.choice((" ", "")) + op
                + rng.choice((" ", "")) + expression(rng, names, depth + 1))
    if kind == "power":
        return f"{expression(rng, names, 3)} ** {rng.choice(('0', '1', '2', '3', '2.5', 'x'))}"
    if kind == "paren":
        return f"({expression(rng, names, depth + 1)})"
    arg = lambda: expression(rng, names, max(depth + 1, 3))  # noqa: E731
    call = rng.choice(("e", "e", "grade", "grades", "scalar", "rand", "foo", "e", "grade"))
    if call == "e":
        args = [rng.choice(("1", "2", "5", "12", "0", "2.5", "-3", "e_1", "1 + 1", "70000"))]
    elif call == "grade":
        args = [arg(), rng.choice(("0", "1", "2", "3", "-1", "1.5", "e_1"))]
    elif call == "rand":
        args = [rng.choice(("1", "3", "5", "0")), rng.choice(("1", "2", "3")),
                rng.choice(("0", "1")), str(rng.randrange(50))][:rng.randrange(5)]
    elif call == "scalar":
        args = [rng.choice(("2", "e_1", "1 + 0e_1", "-7"))]
    else:
        args = [arg() for _ in range(rng.choice((0, 1, 1, 1, 2)))]
    return f"{call}({', '.join(args)})"


def mutate(rng: random.Random, line: str) -> str:
    """``line`` with one random edit: a character deleted, inserted or
    replaced, two swapped, or the line cut short."""
    if not line:
        return rng.choice(MUTATION_CHARS)
    at = rng.randrange(len(line))
    edit = rng.randrange(5)
    if edit == 0:
        return line[:at] + line[at + 1:]
    if edit == 1:
        return line[:at] + rng.choice(MUTATION_CHARS) + line[at:]
    if edit == 2:
        return line[:at] + rng.choice(MUTATION_CHARS) + line[at + 1:]
    if edit == 3 and at + 1 < len(line):
        return line[:at] + line[at + 1] + line[at] + line[at + 2:]
    return line[:at]


def session_lines(seed: int) -> list[str]:
    """The ``SESSION_LINES`` lines of one session."""
    rng = random.Random(seed)
    lines = []
    for _ in range(SESSION_LINES):
        kind = rng.choices(("assign", "print", "command", "blank"), (4, 8, 1, 0.3))[0]
        if kind == "assign":
            name = rng.choice(BOUND + BOUND + ("e", "1x", "grade"))
            spacing = rng.choice(("{} = {}", "{}={}", "  {}  =   {}", "\t{} =\t{}", "{} = "))
            line = spacing.format(name, expression(rng, ()))
        elif kind == "print":
            line = rng.choice(("", " ", "   ")) + expression(rng, BOUND)
        elif kind == "command":
            line = rng.choice(COMMANDS)
        else:
            line = rng.choice(("", "   ", "# only a comment"))
        if rng.random() < 0.15:
            line += rng.choice(("  # note", "#", " # e_1 + $"))
        if rng.random() < 0.4:
            line = mutate(rng, line)
        lines.append(line)
    return lines


def calculator_records(seeds):
    """One record per line: what it printed or raised, then the bindings."""
    for seed in seeds:
        session = Session()
        for line in session_lines(seed):
            try:
                outcome = ("ok", run_command(line, session))
            except Exception as err:  # noqa: BLE001 (every error is part of the record)
                outcome = (type(err).__name__, str(err), getattr(err, "position", None),
                           getattr(err, "expected", None))
            bindings = tuple(
                (name, tuple((key, c.hex()) for key, c in zip(value._keys, value._coeffs)))
                for name, value in sorted(session.variables.items())
            )
            yield line, outcome, bindings


def test_calculator_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutated :save or :load touches only files of its own
    digest = hashlib.sha256()
    errors = 0
    for line, outcome, bindings in calculator_records(SEEDS):
        assert all(math.isfinite(float.fromhex(c)) for _, terms in bindings for _, c in terms), line
        assert outcome[0] != "ok" or "inf" not in str(outcome[1]) and "nan" not in str(outcome[1]), line
        errors += outcome[0] != "ok"
        digest.update(repr((line, outcome, bindings)).encode())
    # the corpus exercises both outcomes in earnest
    assert 0.25 < errors / (len(SEEDS) * SESSION_LINES) < 0.75
    assert digest.hexdigest() == CALCULATOR_DIGEST


#: SHA-256 of :func:`products_records` over :data:`PRODUCT_SEEDS`.
PRODUCTS_DIGEST = "e9f675952aeb81d0bdfa6a16dacb401d4b8ef0f8349e5818776c19c862432a70"

PRODUCT_SEEDS = range(5)

SIGNATURES = (euclidean(), Signature(7), Signature(UNBOUNDED, 5), Signature(3, 1),
              Signature(6, 4), grassmann(), Signature(100, 60))
#: Largest index a corpus blade may carry.  At most 64 the numpy backend
#: takes products past their cutoff to the packed kernel.
INDEX_BOUNDS = (10, 64, 200)
#: Terms per operand: 24 × 24 pairs is past every product's cutoff.
OPERAND_TERMS = (1, 3, 9, 16, 24)
#: Scalars the corpus multiplies by; 1e-300 underflows most coefficients.
SCALARS = (0.0, -0.0, 1, -3, 2.5, -0.1, 1e-300)


def coefficient(rng: random.Random, kind: str) -> float:
    """A nonzero coefficient of the given kind; no product of two overflows."""
    if kind == "integer":
        return float(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
    if kind == "mixed":
        return rng.uniform(-1, 1) * 10.0 ** rng.randrange(-30, 31) or 1.0
    if kind == "cancelling":
        return rng.choice((1.0, -1.0))
    # underflowing: the product of two of these is ±0.0
    return rng.choice((-1, 1)) * rng.uniform(1, 10) * 1e-170


def blade(rng: random.Random, bound: int) -> tuple[int, ...]:
    """A canonical blade of at most six indices in 1..bound."""
    return tuple(sorted(rng.sample(range(1, bound + 1), rng.randrange(min(bound, 6) + 1))))


def operand(rng: random.Random, bound: int, terms: int, kind: str) -> Multivector:
    """A multivector of at most ``terms`` terms; a repeated blade keeps its
    last coefficient."""
    return Multivector(dict((blade(rng, bound), coefficient(rng, kind)) for _ in range(terms)))


def record(mv: Multivector) -> tuple:
    """A multivector's blade keys, in stored order, with coefficient bits."""
    return tuple((key, c.hex()) for key, c in zip(mv._keys, mv._coeffs))


def outcome(call, *args):
    """What a call returned, or the type and message of what it raised."""
    try:
        return "ok", call(*args)
    except (TypeError, ValueError) as err:
        return type(err).__name__, str(err)


def products_records(seeds, tmp_path):
    """Records of every operation of the products corpus, in order."""
    path = tmp_path / "x.mv"
    for seed in seeds:
        rng = random.Random(seed)
        for sig in SIGNATURES:
            for bound in INDEX_BOUNDS:
                for terms in OPERAND_TERMS:
                    kind = rng.choice(("integer", "mixed", "cancelling", "underflowing"))
                    a = operand(rng, bound, terms, kind)
                    b = operand(rng, bound, rng.choice(OPERAND_TERMS), kind)
                    if kind == "cancelling":
                        b = b - a * rng.choice((1, -1))
                    for backend in ("numpy", "python"):
                        kernels.set_backend(backend)
                        yield (backend, record(geometric_product(a, b, sig)), record(wedge(a, b)),
                               record(left_contraction(a, b, sig)),
                               record(right_contraction(a, b, sig)))
                    kernels.set_backend("numpy")
                    scalar = rng.choice(SCALARS)
                    yield (record(a + b), record(a - b), record(a - a), record(a * scalar),
                           record(scalar * b), record(-a))
                    save(a, path)
                    yield record(parse_multivector(render(a))), record(load(path))
                    x, y = blade(rng, bound), blade(rng, bound)
                    raw = list(x + y)
                    rng.shuffle(raw)
                    yield (blade_product(x, y, sig), blade_wedge(x, y), outcome(canonicalize, raw))
    # the tuple-level checks, in the order they run
    for x, y in (((2, 1), (3,)), ((1,), (0,)), ((1,), (65536,)), ((1.0,), (2,)),
                 ((True,), (2,)), ((1, 1), (2,)), ((3,), ("4",)), ((), ())):
        yield (outcome(blade_product, x, y, euclidean()), outcome(blade_wedge, x, y),
               outcome(canonicalize, x + y))


def test_products_digest(tmp_path):
    digest = hashlib.sha256()
    previous = kernels.active_backend()
    try:
        for item in products_records(PRODUCT_SEEDS, tmp_path):
            digest.update(repr(item).encode())
    finally:
        kernels.set_backend(previous)
    assert digest.hexdigest() == PRODUCTS_DIGEST
