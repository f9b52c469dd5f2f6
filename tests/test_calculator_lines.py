"""Calculator lines against the values the library API builds for them.

A literal line is evaluated as one sum of one-term values; these tests
rebuild the same values the long way, from ``from_scalar(c) * blade``
geometric products and pairwise ``+``/``-``, and require the calculator's
output to match byte for byte.  They also pin where errors are reported,
and that every rendered value reads back through both front ends.
"""

import random
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcalc import MAX_INDEX, UNBOUNDED, Multivector, Signature, basis, from_scalar
from cliffcalc.exprparse import ExpressionSyntaxError
from cliffcalc.products import geometric_product
from cliffcalc.repl import CommandError, EvalError, GradesResult, Session, run_command
from cliffcalc.textio import PrintOptions, format_coefficient, parse_multivector, render
from tests.strategies import FINITE_COEFFS

#: The ``:signature`` arguments a calculator script uses, and their metrics.
SIGNATURES = (
    ("inf", Signature(UNBOUNDED, 0)),
    ("3 1", Signature(3, 1)),
    ("6 4", Signature(6, 4)),
    ("4", Signature(4)),
    ("2 2", Signature(2, 2)),
)

#: Coefficients that cancel (0.1 + 0.2 - 0.3 leaves a residue, 2.5 - 2.5
#: does not), underflow in a product (1e-200) or are exactly zero.
COEFFS = (0.0, 1.0, 2.5, 3.0, 0.1, 0.2, 0.3, 1e-200, 7.25e-05, 1e16)

#: A few blades, so that terms of one line often share one.
BLADES = ((), (1,), (2,), (1, 2), (3,), (2, 3), (1, 2, 3), (11,), (2, 11), (1, 10, 12))


def blade_text(blade, rng, depth) -> str:
    """A digit run, a bracket or, outside parentheses, a comma run."""
    if blade[-1] <= 9 and rng.random() < 0.7:
        return "e_" + "".join(map(str, blade))
    if depth == 0 and len(blade) > 1 and rng.random() < 0.5:
        return "e_" + ",".join(map(str, blade))
    return "e[" + ", ".join(map(str, blade)) + "]"


def operand(rng, env, depth):
    """(text, reference) for one operand of a sum; ``reference(sig)``
    builds its value the long way."""
    kind = rng.choices(("term", "number", "blade", "var", "neg", "paren", "tiny"),
                       (8, 1, 1, 2, 1, 1 if depth < 2 else 0, 1))[0]
    if kind in ("term", "number"):
        c = rng.choice(COEFFS)
        blade = rng.choice(BLADES) if kind == "term" else ()
        if not blade:
            return repr(c), lambda sig: from_scalar(c)
        star = " * " if rng.random() < 0.2 else ""
        return (f"{c!r}{star}{blade_text(blade, rng, depth)}",
                lambda sig: geometric_product(from_scalar(c), Multivector({blade: 1.0}), sig))
    if kind == "blade":
        blade = rng.choice(BLADES[1:])
        return blade_text(blade, rng, depth), lambda sig: Multivector({blade: 1.0})
    if kind == "var":
        name = rng.choice(sorted(env))
        return name, lambda sig: env[name]
    if kind == "neg":
        text, ref = operand(rng, env, depth + 1)
        return f"-{text}", lambda sig: -ref(sig)
    if kind == "paren":
        text, ref = chain(rng, env, depth + 1)
        return f"({text})", ref
    # a factor of 1e-200 on a term whose coefficient is 1e-200 underflows;
    # depth 2 keeps the factor off a parenthesized sum
    text, ref = operand(rng, env, max(depth, 2))
    tiny = from_scalar(1e-200)
    if rng.random() < 0.5:
        return f"1e-200 * {text}", lambda sig: geometric_product(tiny, ref(sig), sig)
    return f"{text} * 1e-200", lambda sig: geometric_product(ref(sig), tiny, sig)


def chain(rng, env, depth=0):
    """(text, reference) for a ``+``/``-`` chain, added pairwise from the left."""
    text, ref = operand(rng, env, depth)
    if rng.random() < 0.3:
        text, ref = f"- {text}", (lambda r: lambda sig: -r(sig))(ref)
    for _ in range(rng.randint(0, 5)):
        op = rng.choice("+-")
        right_text, right = operand(rng, env, depth)
        text = f"{text} {op} {right_text}"
        if op == "+":
            ref = (lambda l, r: lambda sig: l(sig) + r(sig))(ref, right)
        else:
            ref = (lambda l, r: lambda sig: l(sig) - r(sig))(ref, right)
    return text, ref


@pytest.mark.parametrize("spec, sig", SIGNATURES, ids=[spec for spec, _ in SIGNATURES])
@pytest.mark.parametrize("seed", range(4))
def test_literal_lines_match_products_and_pairwise_sums(spec, sig, seed):
    rng = random.Random(seed)
    session = Session()
    run_command(f":signature {spec}", session)
    env = session.variables
    env.update(x=Multivector({(1,): 0.5, (2, 3): -2.0}), y=Multivector({(): 0.3, (1,): -0.5}))
    for step in range(150):
        if step % 25 == 0:
            sep = rng.choice(("", ","))
            run_command(f":basissep {sep}", session)
        text, ref = chain(rng, env)
        expected = ref(sig)
        if rng.random() < 0.3:
            name = rng.choice(("x", "y", "z"))
            assert run_command(f"{name} = {text}", session) is None
            assert env[name] == expected, text
        else:
            printed = run_command(text, session)
            assert printed == render(expected, PrintOptions(basis_sep=sep)), text


def test_literal_lines_cover_cancelling_underflowing_and_zero_terms():
    session = Session()
    for line, printed in (
        ("0.1e_1 + 0.2e_1 - 0.3e_1", render(Multivector({(1,): 0.1 + 0.2 - 0.3}))),
        ("2.5e_3 - 2.5e_3 + 0e_1", "the zero clifford element (0)"),
        ("1e-200e_1 * 1e-200 + 3e_2", "+ 3e_2"),
        ("-(2e_12 - e_1) + 0e_1", "+ 1e_1 - 2e_12"),
        ("3 * e_12 - 1", "- 1 + 3e_12"),
    ):
        assert run_command(line, session) == printed, line


@pytest.mark.parametrize("spec, sig", SIGNATURES, ids=[spec for spec, _ in SIGNATURES])
@given(c=FINITE_COEFFS.map(abs))
def test_a_folded_term_is_the_product_bit_for_bit(spec, sig, c):
    # c*e_1 parses to one literal term, as c e_1 and ce_1 do; each must
    # evaluate to the product it stands for
    session = Session()
    run_command(f":signature {spec}", session)
    expected = geometric_product(from_scalar(c), basis(1), sig)
    for text in (f"{c!r}*e_1", f"{c!r} e_1", f"{c!r}e_1"):
        run_command(f"t = {text}", session)
        value = session.variables["t"]
        assert [(b, x.hex()) for b, x in value.terms()] == \
            [(b, x.hex()) for b, x in expected.terms()], text


@pytest.mark.parametrize("line, operator", [
    ("grades(x) + x - x", "'+'"),
    ("grades(x) - x + x", "'-'"),
    ("x - grades(x) + x", "'-'"),
    ("x + x - grades(x)", "'-'"),
    ("x + (x - grades(x))", "'-'"),
])
def test_a_grades_operand_anywhere_in_a_sum_names_its_operator(line, operator):
    session = Session()
    session.variables["x"] = Multivector({(1,): 1.0})
    with pytest.raises(EvalError) as exc:
        run_command(line, session)
    assert str(exc.value) == f"grades(...) result cannot be used with {operator}"
    assert exc.value.position is None


@pytest.mark.parametrize("line, message, position", [
    ("grades(x) * nope", "grades(...) result cannot be used with '*'", None),
    ("nope * grades(x)", "unbound variable 'nope'", 0),
    ("-grades(x)", "grades(...) result cannot be used with unary '-'", None),
    ("grades(x) ** 2", "grades(...) result cannot be used with '**'", None),
    ("x ^ (x _| grades(x))", "grades(...) result cannot be used with '_|'", None),
    ("scalar(grades(x))", "grades(...) result cannot be used with scalar()", None),
    ("grade(grades(x), nope)", "unbound variable 'nope'", 17),
])
def test_operands_are_evaluated_left_to_right_and_a_grades_operand_names_its_user(
        line, message, position):
    # an operator rejects a grades(...) operand as soon as it is made, before
    # any operand to its right; a call evaluates all its arguments first
    session = Session()
    session.variables["x"] = Multivector({(1,): 1.0})
    with pytest.raises(EvalError) as exc:
        run_command(line, session)
    assert str(exc.value) == message
    assert exc.value.position == position


@pytest.mark.parametrize("line, user", [
    ("g + 1", "'+'"),
    ("1 - g", "'-'"),
    ("-g", "unary '-'"),
    ("g ** 2", "'**'"),
    ("x * g", "'*'"),
    ("g * nope", "'*'"),
    ("(x ^ x) _| g", "'_|'"),
])
def test_a_grades_value_bound_by_a_library_caller_names_its_user(line, user):
    # no line binds a grades(...) value, but Session.variables is a plain
    # dict; a name bound to one is rejected like the call that made it
    session = Session()
    session.variables["x"] = Multivector({(1,): 1.0})
    session.variables["g"] = GradesResult([1])
    with pytest.raises(EvalError) as exc:
        run_command(line, session)
    assert str(exc.value) == f"grades(...) result cannot be used with {user}"
    assert run_command("g", session) == "1"  # printed, as the call's value is


def test_an_unbound_name_in_a_sum_is_reported_before_later_operands():
    session = Session()
    with pytest.raises(EvalError) as exc:
        run_command("y = 2e_1 - nope + grades(e_1)", session)
    assert str(exc.value) == "unbound variable 'nope'"
    assert exc.value.position == 11


@pytest.mark.parametrize("literal, offset, message", [
    ("e_1352", 5, "blade indices must be strictly increasing"),
    ("e_1302", 4, "blade index 0 outside 1..65535"),
    ("e_1,10,7,12", 7, "blade indices must be strictly increasing"),
    ("e_1,65536,9", 4, "blade index 65536 outside 1..65535"),
    ("e[2, 10, 10, 11]", 9, "blade indices must be strictly increasing"),
    ("e[ 3 ,0004, 2 ]", 12, "blade indices must be strictly increasing"),
    ("e[1, " + "9" * 5000 + ", 2]", 5, "outside 1..65535"),
])
def test_a_bad_index_is_reported_where_it_stands_in_the_literal(literal, offset, message):
    line = f"  v = 1 + 2{literal} - 3e_1"
    start = line.index(literal)
    with pytest.raises(ExpressionSyntaxError) as exc:
        run_command(line, Session())
    assert message in exc.value.base_message
    assert exc.value.position == start + offset


@given(text=st.text(alphabet=" \t\r\n\x0b\x0c\xa0\u2003:,ab19#;", max_size=20))
def test_command_words_without_quotes_split_as_shlex_splits_them(text):
    from cliffcalc.repl import _WORD_RE

    assert _WORD_RE.findall(text) == shlex.split(text)


def test_commands_split_on_shlex_whitespace_only():
    session = Session()
    run_command(":basissep\t,\r", session)
    assert session.print_options == PrintOptions(basis_sep=",")
    with pytest.raises(CommandError, match="unknown command"):
        run_command(":signature\u00a03 1", session)
    run_command(":signature '3' \\1", session)  # quotes and escapes go to shlex
    assert session.signature == Signature(3, 1)


# --- round trips over every index -------------------------------------------

#: Indices over all of 1..MAX_INDEX, with many single digits, some just
#: above 64 (past the packed kernel) and some next to MAX_INDEX.
WIDE_INDICES = st.one_of(
    st.integers(1, 9), st.integers(1, MAX_INDEX), st.integers(60, 70),
    st.integers(MAX_INDEX - 8, MAX_INDEX),
)

#: Coefficients of every magnitude, integers among them.
MIXED_COEFFS = st.one_of(
    st.integers(-9, 9).filter(bool).map(float), FINITE_COEFFS,
    st.sampled_from((5e-324, -1e-300, 1e16, -1.7976931348623157e308, 0.1)),
)


def rendered_terms(mv, sep) -> str:
    """The documented term format, blade text built afresh for each term."""
    parts = []
    for blade, c in mv.terms():
        if blade and blade[-1] > 9 and (not sep or len(blade) == 1):
            text = "e[" + ", ".join(map(str, blade)) + "]"
        else:
            text = "e_" + sep.join(map(str, blade)) if blade else ""
        parts.append(f"{'-' if c < 0 else '+'} {format_coefficient(abs(c))}{text}")
    return " ".join(parts)


def wide_multivectors(max_terms=6):
    blades = st.lists(WIDE_INDICES, unique=True, max_size=5).map(lambda ids: tuple(sorted(ids)))
    return st.dictionaries(blades, MIXED_COEFFS, max_size=max_terms).map(Multivector)


@settings(max_examples=150)
@given(values=st.lists(wide_multivectors(), min_size=1, max_size=4))
def test_wide_values_read_back_under_both_separators(values):
    # each value renders under both separators, in turns, so a cached blade
    # text must come back for its own separator
    session = Session()
    for k, mv in enumerate(values):
        for sep in ("", ",")[::1 if k % 2 else -1]:
            text = render(mv, PrintOptions(basis_sep=sep))
            if mv.num_terms() > 1 or mv.grades() not in ([], [0]):
                assert text == rendered_terms(mv, sep)
            assert parse_multivector(text) == mv, text
            run_command(f":basissep {sep}", session)
            assert run_command(f"r = {text}", session) is None
            assert session.variables["r"] == mv, text
            assert run_command("r", session) == text
