import pytest

from cliffcalc import Signature, euclidean, from_terms
from cliffcalc.exprparse import ExpressionSyntaxError, parse_expr
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


def test_interactive_eof_exits(monkeypatch):
    def fake_input(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    from cliffcalc.repl import interactive

    assert interactive(Session()) == 0
