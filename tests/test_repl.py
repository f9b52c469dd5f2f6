import functools
import json
import math
import os
import subprocess
import sys

import pytest

import cliffcalc
from cliffcalc import Multivector, Signature, euclidean, from_terms, parse_multivector
from cliffcalc.exprparse import ExpressionSyntaxError, Term, parse_expr
from cliffcalc.multivector import basis, from_scalar
from cliffcalc.products import geometric_product
from cliffcalc.repl import (
    CommandError,
    EvalError,
    GradesResult,
    QuitRequested,
    Session,
    eval_expr,
    main,
    run_command,
    run_script,
)
from cliffcalc.textio import render


@pytest.fixture
def session():
    return Session()


def feed(session, *lines):
    output = None
    for line in lines:
        output = run_command(line, session)
    return output


# --- evaluation -------------------------------------------------------------

def test_square_of_bound_element(session):
    out = feed(session, "x = 1 + 2*e_1 + 3*e_2 + 4*e_23", "x*x")
    assert out == "- 2 + 4e_1 + 6e_2 + 8e_23 + 16e_123"


def test_signature_command_changes_products(session):
    assert feed(session, "e(2)*e(2)") == "scalar ( 1 )"
    assert feed(session, ":signature 1 1", "e(2)*e(2)") == "scalar ( -1 )"
    assert feed(session, ":signature 3 1", "e(4)*e(4)") == "scalar ( -1 )"
    assert feed(session, ":signature 0 0", "e(5)**2") == "the zero clifford element (0)"
    assert feed(session, ":signature inf", "e(53)**2") == "scalar ( 1 )"


def test_signature_single_count_leaves_q_unbounded(session):
    feed(session, ":signature 7")
    assert session.signature == Signature(7)
    assert feed(session, "e(10)*e(10)") == "scalar ( -1 )"


def test_contraction_precedence_pitfall_is_designed_away(session):
    assert feed(session, "e(2) _| e(1) * e(2)") == "- 1e_1"
    assert feed(session, "(e(2) _| e(1)) * e(2)") == "the zero clifford element (0)"
    assert feed(session, "e(1) * e(2) |_ e(2)") == "+ 1e_1"
    assert feed(session, "e(1) * (e(2) |_ e(2))") == "+ 1e_1"
    assert feed(session, "e(2) |_ e(1) * e(2)") == "the zero clifford element (0)"


def test_wedge_ignores_session_signature(session):
    feed(session, ":signature 0 0")
    assert feed(session, "e(1) ^ e(2)") == "+ 1e_12"


def test_changing_signature_does_not_mutate_bindings(session):
    feed(session, "x = 1 + 2*e_1 + 3*e_2 + 4*e_23")
    before = session.variables["x"]
    feed(session, ":signature 0 0")
    assert session.variables["x"] == before
    assert feed(session, "x") == "+ 1 + 2e_1 + 3e_2 + 4e_23"
    # products after the switch use the new metric
    assert feed(session, "x*x") != "- 2 + 4e_1 + 6e_2 + 8e_23 + 16e_123"


def test_assignment_is_silent_and_binds(session):
    assert feed(session, "y = e(1)") is None
    assert dict(session.variables["y"].terms()) == {(1,): 1.0}


def test_grades_builtin_prints_as_list(session):
    feed(session, "x = 1 + 2*e_1 + 3*e_2 + 4*e_23")
    assert feed(session, "grades(x)") == "0 1 1 2"
    assert feed(session, "grades(0)") == "(none)"
    assert str(GradesResult([])) == "(none)"


def test_grade_and_scalar_builtins(session):
    feed(session, "x = 1 + 2*e_1 + 3*e_2 + 4*e_23")
    assert feed(session, "grade(x, 1)") == "+ 2e_1 + 3e_2"
    # inside parentheses a comma after e_12 separates arguments
    assert feed(session, "grade(e_12,2)") == feed(session, "grade(e_12, 2)") == "+ 1e_12"
    assert feed(session, "scalar(5) - 2") == "scalar ( 3 )"


def test_rand_builtin_is_deterministic(session):
    first = feed(session, "rand(6, 4, 0, 99)")
    second = feed(session, "rand(6, 4, 0, 99)")
    assert first == second
    assert feed(session, "rand()") == feed(session, "rand(6, 4, 0, 0)")


def test_rand_dimension_is_bounded_by_max_index(session):
    # indices above MAX_INDEX would print as blades no parser reads back
    with pytest.raises(EvalError, match="dimension must be <= 65535"):
        feed(session, "rand(65536, 1)")
    assert parse_multivector(feed(session, "rand(65535, 1)")).num_terms() == 9


def test_basis_index_is_bounded_by_max_index(session):
    # raised at the call, as rand() raises, not as a bare ValueError
    with pytest.raises(EvalError, match=r"e\(\): blade index 70000 outside 1\.\.65535") as err:
        feed(session, "e(70000)")
    assert err.value.position == 0
    with pytest.raises(EvalError, match="outside 1..65535") as err:
        feed(session, "x = e(70000)")
    assert err.value.position == 4
    assert "x" not in session.variables
    assert feed(session, "e(65535)") == "+ 1e[65535]"


#: How deep the deep lines of ``run_command`` nest: far past any recursion
#: limit.
DEEP = 100_000

#: How deep the deep lines of the other entry points nest: past the default
#: recursion limit of 1,000, at a twentieth of the cost.
PAST_LIMIT = 5_000

#: ``x`` and ``y`` of the deep lines: a product of ``x`` with itself keeps
#: two finite, nonzero terms at any length.
DEEP_BINDINGS = ("x = 0.6 + 0.8e_12", "y = 2")

#: The line of each shape that once recursed, given how deep it nests.
DEEP_LINES = {
    "parentheses": lambda depth: "(" * depth + "e_1" + ")" * depth,
    "minus-signs": lambda depth: "-" * depth + "e_1",
    "products": lambda depth: " * ".join(["x"] * depth),
    "right-products": lambda depth: "x * (" * (depth - 1) + "x" + ")" * (depth - 1),
    "calls": lambda depth: "scalar(" * depth + "y" + ")" * depth,
}


@functools.cache
def deep_value(shape, depth=DEEP):
    """The value of ``DEEP_LINES[shape](depth)``, built by a Python loop."""
    if shape == "parentheses":
        return basis(1)
    if shape == "calls":
        return from_scalar(2.0)
    if shape == "minus-signs":
        value = basis(1)
        for _ in range(depth):
            value = -value
        return value
    x = value = Multivector({(): 0.6, (1, 2): 0.8})
    for _ in range(depth - 1):
        if shape == "products":
            value = geometric_product(value, x, euclidean())
        else:
            value = geometric_product(x, value, euclidean())
    return value


@pytest.mark.parametrize("shape", DEEP_LINES)
def test_deep_lines_are_positioned_errors(session, shape):
    # The name is kept from when such lines were errors; now the parser and
    # eval_expr are loops, and a line of any depth evaluates and binds.
    feed(session, *DEEP_BINDINGS)
    assert feed(session, "z = " + DEEP_LINES[shape](DEEP)) is None
    assert session.variables["z"] == deep_value(shape)
    assert sorted(session.variables) == ["x", "y", "z"]


def test_deep_lines_evaluate_under_a_recursion_limit_of_100():
    # through the library path, parse_expr and eval_expr, in a process whose
    # recursion limit is far below the depth of every line
    probe = (
        "import json, sys\n"
        "from cliffcalc.exprparse import parse_expr\n"
        "from cliffcalc.repl import Session, eval_expr, run_command\n"
        "from cliffcalc.textio import render\n"
        "lines, bindings = json.load(sys.stdin)\n"
        "sys.setrecursionlimit(100)\n"
        "for line in lines:\n"
        "    session = Session()\n"
        "    for binding in bindings:\n"
        "        run_command(binding, session)\n"
        "    print(render(eval_expr(parse_expr(line), session)))\n"
    )
    src = os.path.dirname(os.path.dirname(cliffcalc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    lines = [line(DEEP) for line in DEEP_LINES.values()]
    run = subprocess.run([sys.executable, "-c", probe], input=json.dumps([lines, DEEP_BINDINGS]),
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.splitlines() == [render(deep_value(shape)) for shape in DEEP_LINES]


#: An error stands at its position in the line: past leading whitespace, a
#: ``name =`` of any spacing and a trailing comment, for a lexer error, a
#: parser error, an unbound name and a bad call.
POSITIONED_LINES = [
    ("1 + $", ExpressionSyntaxError, 4),
    ("   1 + $", ExpressionSyntaxError, 7),
    ("x=1 + $", ExpressionSyntaxError, 6),
    ("  x  =   1 + $   # note $", ExpressionSyntaxError, 13),
    ("\ty =\te[1, # c", ExpressionSyntaxError, 9),
    ("1 + )", ExpressionSyntaxError, 4),
    ("  1 +   ", ExpressionSyntaxError, 5),
    ("y =  1 +   # comment", ExpressionSyntaxError, 8),
    ("\t z\t=\t(1 + 2", ExpressionSyntaxError, 12),
    ("   1 + nope", EvalError, 7),
    ("x=nope", EvalError, 2),
    ("  x =   2 * nope  # nope", EvalError, 12),
    ("  1 + e(0)", EvalError, 6),
    ("y= e(1.5)", EvalError, 3),
    (" y  =  rand(1, 2, 3, 4, 5)  # too many", EvalError, 7),
]


@pytest.mark.parametrize("line, error, position", POSITIONED_LINES)
def test_errors_stand_at_their_position_in_the_line(session, line, error, position):
    feed(session, "y = 2")
    with pytest.raises(error) as err:
        feed(session, line)
    assert type(err.value) is error and err.value.position == position
    assert sorted(session.variables) == ["y"]
    assert feed(session, "y") == "scalar ( 2 )"


def test_blade_literal_forms_agree(session):
    assert feed(session, "e_12 - e[1,2]") == "the zero clifford element (0)"


def test_basissep_command(session):
    feed(session, "y = 2 + 4*e[1,2,3] - 10*e[1,5,7,8,10]", ":basissep ,")
    assert feed(session, "y") == "+ 2 + 4e_1,2,3 - 10e_1,5,7,8,10"
    feed(session, ":basissep")
    assert feed(session, "e(1)*e(2)") == "+ 1e_12"


def test_comma_separated_output_reads_back(session):
    feed(session, "y = 2 + 4*e[1,2,3] - 10*e[1,5,7,8,10]")
    assert feed(session, "z = + 2 + 4e_1,2,3 - 10e_1,5,7,8,10") is None
    assert session.variables["z"] == session.variables["y"]


def test_comments_and_blank_lines(session):
    assert feed(session, "") is None
    assert feed(session, "   # just a comment") is None
    assert feed(session, "e(1) # trailing") == "+ 1e_1"


def test_eval_errors(session):
    with pytest.raises(EvalError, match="unbound variable"):
        feed(session, "nope")
    with pytest.raises(EvalError, match="unknown function"):
        feed(session, "mystery(1)")
    with pytest.raises(EvalError, match="argument"):
        feed(session, "e()")
    with pytest.raises(EvalError, match="integer"):
        feed(session, "e(1.5)")
    with pytest.raises(EvalError, match=">= 1"):
        feed(session, "e(0)")
    with pytest.raises(EvalError, match="rand"):
        feed(session, "rand(3, 5)")
    with pytest.raises(EvalError, match="grades"):
        feed(session, "grades(e(1)) + 1")
    with pytest.raises(EvalError, match="scalar"):
        feed(session, "scalar(e(1))")


def test_reserved_names_cannot_be_bound(session):
    for name in ("e", "rand", "grades", "grade", "scalar"):
        with pytest.raises(CommandError, match="reserved"):
            run_command(f"{name} = 1", session)


def test_errors_leave_session_intact(session):
    feed(session, "x = e(1)", ":signature 2 0", ":basissep ,")
    saved_vars = dict(session.variables)
    saved_sig = session.signature
    saved_opts = session.print_options
    for bad in ("x = ][", "y = nothing_bound", ":signature -1", ":bogus", "x ** x"):
        with pytest.raises(ValueError):
            run_command(bad, session)
        assert session.variables == saved_vars
        assert session.signature == saved_sig
        assert session.print_options == saved_opts


def test_error_positions_shift_to_full_line(session):
    with pytest.raises(ExpressionSyntaxError) as exc:
        run_command("x = @", session)
    assert exc.value.position == 4
    with pytest.raises(ExpressionSyntaxError) as exc:
        run_command("x = 2 * 1e999", session)
    assert exc.value.position == 8
    with pytest.raises(EvalError) as exc:
        run_command("  missing + 1", session)
    assert exc.value.position == 2


def test_quit_raises(session):
    with pytest.raises(QuitRequested):
        run_command(":quit", session)


def test_save_and_load_commands(tmp_path, session):
    path = tmp_path / "x.mv"
    feed(session, "x = 1 + 2*e_1", f":save x {path}")
    assert path.exists()
    assert feed(session, f":load y {path}") is None
    assert session.variables["y"] == session.variables["x"]
    # unnamed load prints instead of binding
    assert feed(session, f":load {path}") == "+ 1 + 2e_1"


def test_save_unbound_variable_fails(tmp_path, session):
    with pytest.raises(CommandError, match="unbound"):
        run_command(f":save ghost {tmp_path/'g.mv'}", session)


def test_load_missing_file_raises_oserror(session, tmp_path):
    with pytest.raises(OSError):
        run_command(f":load {tmp_path/'missing.mv'}", session)


def test_command_usage_errors(session):
    for bad in (":signature", ":signature 1 2 3", ":signature x", ":basissep a b",
                ":load", ":save x", ":load a b c",
                # signature counts are ASCII digits, with no digit separators
                ":signature \u0663 1_0", ":signature \u0663", ":signature 1_0", ":signature 1 \u0661",
                ":signature " + "9" * 5000):
        with pytest.raises(CommandError):
            run_command(bad, session)


# --- eval_expr directly -----------------------------------------------------

def test_eval_expr_api(session):
    value = eval_expr(parse_expr("2 + 3*e_1"), session)
    assert value == from_terms([[], [1]], [2, 3])
    grades = eval_expr(parse_expr("grades(2 + 3*e_1)"), session)
    assert grades == GradesResult([0, 1])


@pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("indices", [(), (1,)])
def test_a_hand_built_non_finite_term_is_rejected_as_from_scalar_rejects_it(
        session, coeff, indices):
    with pytest.raises(ValueError, match="coefficient must be finite"):
        from_scalar(coeff)
    with pytest.raises(ValueError, match="coefficient must be finite"):
        eval_expr(Term(coeff, indices), session)


def test_a_hand_built_integer_term_stores_a_float(session):
    value = eval_expr(Term(2, (1,)), session)
    assert value == basis(1) * 2.0
    assert [type(c) for _, c in value.terms()] == [float]
    assert render(value) == "+ 2e_1"
    assert eval_expr(Term(0, (1,)), session).is_zero()
    with pytest.raises(TypeError):
        eval_expr(Term(True, ()), session)


def test_power_uses_session_signature(session):
    session.signature = Signature(0, 0)
    assert eval_expr(parse_expr("e(5)**2"), session).is_zero()
    session.signature = euclidean()
    assert not eval_expr(parse_expr("e(5)**2"), session).is_zero()


def test_rendered_output_reads_back_as_an_expression(session):
    from hypothesis import given
    from hypothesis import strategies as st

    from cliffcalc import MAX_INDEX, PrintOptions, render, zero
    from tests.strategies import FINITE_COEFFS, corpus, multivectors

    for mv in corpus(20, include_fewer=True):
        assert eval_expr(parse_expr(render(mv)), session) == mv
    # the scalar special form is itself a valid expression
    assert eval_expr(parse_expr("scalar ( -1 )"), session) == from_terms([[]], [-1])
    assert eval_expr(parse_expr("scalar ( -1e-05 )"), session) == from_terms([[]], [-1e-05])
    for c in (1e16, 1e-05, 5e-324):
        mv = from_terms([[], [1], [2, 3]], [1, c, -c])
        assert eval_expr(parse_expr(render(mv)), session) == mv

    # the rendered zero, "the zero clifford element (0)", reads back too
    assert eval_expr(parse_expr(render(zero())), session) == zero()

    # indices above 9 read back under either separator, up to MAX_INDEX
    mv = from_terms([[11], [1, 10], [9, MAX_INDEX]], [1, -2, 0.5])
    for opts in (PrintOptions(), PrintOptions(basis_sep=",")):
        assert eval_expr(parse_expr(render(mv, opts)), session) == mv

    @given(mv=multivectors(max_index=12, coeffs=FINITE_COEFFS), sep=st.sampled_from(["", ","]))
    def reads_back(mv, sep):
        text = render(mv, PrintOptions(basis_sep=sep))
        assert eval_expr(parse_expr(text), session) == mv

    reads_back()


# --- scripts and CLI --------------------------------------------------------

def write_script(tmp_path, body):
    path = tmp_path / "script.cliff"
    path.write_text(body)
    return str(path)


def test_run_script_success(tmp_path, capsys):
    path = write_script(
        tmp_path,
        "# demo\n"
        "x = 1 + 2*e_1 + 3*e_2 + 4*e_23\n"
        "x*x\n"
        ":quit\n"
        "x\n",
    )
    assert run_script(path, Session()) == 0
    out = capsys.readouterr().out
    assert out == "- 2 + 4e_1 + 6e_2 + 8e_23 + 16e_123\n"


def test_run_script_stops_on_error_with_line_number(tmp_path, capsys):
    path = write_script(tmp_path, "e(1)\nboom(\ne(2)\n")
    assert run_script(path, Session()) == 1
    captured = capsys.readouterr()
    assert captured.out == "+ 1e_1\n"
    assert f"{path}:2: error:" in captured.err


def test_run_script_reports_a_non_ascii_letter_as_an_error(tmp_path, capsys):
    path = write_script(tmp_path, "e(1)\na = \u00e9\ne(2)\n")
    assert run_script(path, Session()) == 1
    captured = capsys.readouterr()
    assert captured.out == "+ 1e_1\n"
    assert f"{path}:2: error: unexpected character '\u00e9' (at position 5)" in captured.err


@pytest.mark.parametrize("shape", ["parentheses", "minus-signs", "products"])
def test_run_script_reports_a_deep_line_as_an_error(tmp_path, capsys, shape):
    # The name is kept from when such lines were errors; now the script
    # prints the deep line's value and carries on.
    path = write_script(tmp_path, "\n".join([*DEEP_BINDINGS, DEEP_LINES[shape](PAST_LIMIT), "e(2)", ""]))
    assert run_script(path, Session()) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{render(deep_value(shape, PAST_LIMIT))}\n+ 1e_2\n"
    assert captured.err == ""


@pytest.mark.parametrize("line, message", [
    ("e(1e200*1e200)", "e() index must be an integer, got inf"),
    ("rand(1e200*1e200)", "rand() dimension must be an integer, got inf"),
    ("grade(x, -1e200*1e200)", "grade() grade must be an integer, got -inf"),
    ("e(1e200*1e200 - 1e200*1e200)", "e() index must be an integer, got nan"),
], ids=["e-inf", "rand-inf", "grade-minus-inf", "e-nan"])
def test_a_non_finite_integer_argument_is_an_error_at_its_call(
        tmp_path, capsys, monkeypatch, line, message):
    # int(inf) raises OverflowError and int(nan) ValueError; both are an
    # EvalError at the call, which scripts report and the REPL survives
    session = Session()
    feed(session, "x = e_1")
    with pytest.raises(EvalError) as err:
        feed(session, "  y = " + line)
    assert str(err.value) == message
    assert err.value.position == 6
    assert sorted(session.variables) == ["x"]

    path = write_script(tmp_path, f"x = e_1\n{line}\ne(2)\n")
    assert run_script(path, Session()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:2: error: {message}\n"

    lines = iter(["x = e_1", line, "e(1)*e(2)", ":quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    from cliffcalc.repl import interactive

    assert interactive(Session()) == 0
    out = capsys.readouterr().out
    assert f"  {line}\n  ^\nerror: {message}\n+ 1e_12\n" in out


@pytest.mark.parametrize("line, message", [
    ("e(1e300)", "e() index must be <= 65535, got 1e+300"),
    ("e(-1e300)", "e() index must be >= 1, got -1e+300"),
    ("rand(1e300)", "rand() dimension must be <= 65535, got 1e+300"),
    ("rand(6, 1e300)", "rand() grade must be <= 6, got 1e+300"),
    ("rand(6, 4, 0, -1e20)", "rand() seed must be >= 0, got -1e+20"),
    ("grade(x, -1e16)", "grade() grade must be >= 0, got -1e+16"),
    ("e(1e15)", "e(): blade index 1000000000000000 outside 1..65535, got (1000000000000000,)"),
    ("e(-9999999999999998)", "e() index must be >= 1, got -9999999999999998"),
], ids=["e", "e-negative", "rand-dimension", "rand-grade", "rand-seed", "grade", "e-below-1e16",
        "e-negative-below-1e16"])
def test_a_huge_integer_argument_shows_as_a_coefficient(session, line, message):
    # from 1e16 on an argument shows as format_coefficient prints it, not
    # as the hundreds of digits of its integer value; below, as an integer
    feed(session, "x = e_1")
    with pytest.raises(EvalError) as err:
        feed(session, "y = 1 + " + line)
    assert str(err.value) == message
    assert err.value.position == 8
    # a huge grade or seed is no error
    assert feed(session, "grade(x, 1e300)") == "the zero clifford element (0)"
    assert feed(session, "rand(3, 2, 1e300, 1e300)") == feed(session, "rand(3, 2, 1, 1e300)")


def test_run_script_missing_file(capsys):
    assert run_script("/no/such/file.cliff", Session()) == 1
    assert "error" in capsys.readouterr().err


def test_main_with_script_and_flags(tmp_path, capsys):
    path = write_script(tmp_path, "e(2)*e(2)\ny = 2 + 4*e[1,2,3]\ny\n")
    code = main(["--script", path, "--signature", "1,1", "--basissep", ","])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["scalar ( -1 )", "+ 2 + 4e_1,2,3"]


def test_main_signature_flag_variants(tmp_path, capsys):
    path = write_script(tmp_path, "e(10)*e(10)\n")
    assert main(["--script", path, "--signature", "7"]) == 0
    assert capsys.readouterr().out == "scalar ( -1 )\n"
    assert main(["--script", path, "--signature", "inf"]) == 0
    assert capsys.readouterr().out == "scalar ( 1 )\n"


def test_separators_that_would_not_read_back_are_errors(session, tmp_path, capsys):
    with pytest.raises(CommandError, match="basis_sep must be '' or ','"):
        run_command(":basissep ;", session)
    assert feed(session, ":basissep ,", "e(1)*e(2)*e(10)") == "+ 1e_1,2,10"
    path = write_script(tmp_path, "e(1)*e(2)\n")
    assert main(["--script", path, "--basissep", ";"]) == 1
    assert "basis_sep must be '' or ','" in capsys.readouterr().err


def test_main_rejects_bad_signature_flag(capsys):
    assert main(["--signature", "bogus", "--script", "x"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["--signature", "\u0663,1_0", "--script", "x"]) == 1
    assert "bad signature count" in capsys.readouterr().err


def test_negative_signature_count_is_reported_as_negative(session):
    with pytest.raises(CommandError, match="must be non-negative, got -1"):
        run_command(":signature -1", session)


def test_interactive_loop(monkeypatch, capsys):
    lines = iter(["e(1)*e(2)", "oops(", ":quit"])

    def fake_input(prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    from cliffcalc.repl import interactive

    assert interactive(Session()) == 0
    out = capsys.readouterr().out
    assert "+ 1e_12" in out
    assert "error:" in out


def test_interactive_loop_carries_on_after_a_deep_line(monkeypatch, capsys):
    lines = iter([DEEP_LINES["parentheses"](PAST_LIMIT), "e(1)*e(2)", ":quit", "e(3)"])

    def fake_input(prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    from cliffcalc.repl import interactive

    assert interactive(Session()) == 0
    out = capsys.readouterr().out
    assert "error" not in out
    assert "+ 1e_1\n+ 1e_12\n" in out
    assert "e_3" not in out
    assert next(lines) == "e(3)"


def test_interactive_eof_exits(monkeypatch):
    def fake_input(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    from cliffcalc.repl import interactive

    assert interactive(Session()) == 0


_LAZY_REPL_PROBE = """
import sys
import cliffcalc
print('cliffcalc.repl' in sys.modules, 'argparse' in sys.modules, 'shlex' in sys.modules)
from cliffcalc import Session, eval_expr, run_command
print('cliffcalc.repl' in sys.modules, cliffcalc.repl.run_command is run_command)
session = Session()
print(run_command('x = e_1 * e_2', session), run_command('x * x', session))
print(eval_expr(cliffcalc.parse_expr('x ^ e_3'), session))
"""


def test_import_cliffcalc_loads_the_calculator_on_first_use():
    # a fresh interpreter: this one has loaded the calculator already
    src = os.path.dirname(os.path.dirname(cliffcalc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", _LAZY_REPL_PROBE], env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["False False False", "True True", "None scalar ( -1 )", "+ 1e_123"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cliffcalc.no_such_name
