import pytest
from hypothesis import given

from cliffcalc import (
    MAX_INDEX,
    Multivector,
    MultivectorFileError,
    MultivectorParseError,
    PrintOptions,
    from_scalar,
    from_terms,
    load,
    parse_multivector,
    render,
    save,
    zero,
)
from cliffcalc.exprparse import ExpressionSyntaxError, parse_expr
from cliffcalc.textio import format_coefficient
from tests.strategies import FINITE_COEFFS, corpus, multivectors

COMMA = PrintOptions(basis_sep=",")


# --- render -----------------------------------------------------------------

def test_render_inhomogeneous():
    x = from_terms([[], [1], [2], [2, 3]], [1, 2, 3, 4])
    assert render(x) == "+ 1 + 2e_1 + 3e_2 + 4e_23"


def test_render_leading_minus():
    x = from_terms([[], [1], [2], [2, 3], [1, 2, 3]], [-2, 4, 6, 8, 16])
    assert render(x) == "- 2 + 4e_1 + 6e_2 + 8e_23 + 16e_123"


def test_render_scalar_forms():
    assert render(from_scalar(-1)) == "scalar ( -1 )"
    assert render(from_scalar(1)) == "scalar ( 1 )"
    assert render(from_scalar(2.5)) == "scalar ( 2.5 )"


def test_render_zero():
    assert render(zero()) == "the zero clifford element (0)"


def test_render_with_comma_separator():
    x = from_terms([[], [1, 2, 3], [1, 5, 7, 8, 10]], [2, 4, -10])
    assert render(x, COMMA) == "+ 2 + 4e_1,2,3 - 10e_1,5,7,8,10"


def test_render_term_order_is_canonical():
    x = from_terms([[5], [2, 3, 4], [3], [1, 2]], [5, 16, 11, -1])
    assert render(x) == "- 1e_12 + 11e_3 + 16e_234 + 5e_5"


def test_format_coefficient():
    assert format_coefficient(4.0) == "4"
    assert format_coefficient(-16.0) == "-16"
    assert format_coefficient(2.5) == "2.5"
    assert format_coefficient(0.1) == "0.1"
    assert format_coefficient(1e16) == "1e+16"


def test_print_options_validation():
    with pytest.raises(ValueError):
        PrintOptions(basis_sep="1")
    with pytest.raises(ValueError):
        PrintOptions(basis_sep="-")
    with pytest.raises(ValueError):
        PrintOptions(basis_sep=" ")
    assert PrintOptions(basis_sep=",").basis_sep == ","


@pytest.mark.parametrize("sep", [";", "_", "|", ".", ":", ",,", "\u00b7"])
def test_separators_that_would_not_read_back_are_rejected(sep):
    with pytest.raises(ValueError, match="basis_sep must be '' or ','"):
        PrintOptions(basis_sep=sep)


# --- parse ------------------------------------------------------------------

def test_parse_rendered_output():
    text = "+ 1 + 2e_1 + 3e_2 + 4e_23"
    assert parse_multivector(text) == from_terms([[], [1], [2], [2, 3]], [1, 2, 3, 4])


def test_parse_bare_zero():
    assert parse_multivector("0").is_zero()


def test_parse_comma_separated_blade():
    mv = parse_multivector("- 10e_1,5,7,8,10")
    assert dict(mv.terms()) == {(1, 5, 7, 8, 10): -10.0}


def test_parse_bracket_blade():
    assert parse_multivector("2e[1,10]") == Multivector({(1, 10): 2.0})
    assert parse_multivector("e[ 2 , 5 ]") == Multivector({(2, 5): 1.0})


def test_parse_coefficientless_blade():
    assert parse_multivector("e_12") == Multivector({(1, 2): 1.0})
    assert parse_multivector("-e_12") == Multivector({(1, 2): -1.0})


def test_parse_special_forms():
    assert parse_multivector("the zero clifford element (0)").is_zero()
    assert parse_multivector("scalar ( -1 )") == from_scalar(-1)


def test_parse_merges_repeated_blades():
    assert parse_multivector("e_1 + 2e_1") == Multivector({(1,): 3.0})
    assert parse_multivector("e_1 - e_1").is_zero()


def test_parse_float_coefficients():
    assert parse_multivector("2.5e_1 + .5") == Multivector({(): 0.5, (1,): 2.5})
    # repr() spells these with an exponent; the number grammar reads it back
    for c in (1e16, -1e-05, 5e-324, 1.7976931348623157e308):
        for mv in (Multivector({(1,): c}), from_scalar(c), Multivector({(): 1.0, (2,): c})):
            assert parse_multivector(render(mv)) == mv
    assert render(Multivector({(1,): 1e16})) == "+ 1e+16e_1"
    assert parse_multivector("+ 1e-05e_1") == Multivector({(1,): 1e-05})
    assert parse_multivector("scalar ( -1e-05 )") == from_scalar(-1e-05)


def test_parse_errors_carry_positions():
    with pytest.raises(MultivectorParseError) as exc:
        parse_multivector("1 + 2e_0")
    assert exc.value.position == 7

    with pytest.raises(MultivectorParseError) as exc:
        parse_multivector("e_21")
    assert exc.value.position == 3

    # index 0, out of order and above MAX_INDEX in each blade form; the
    # calculator reads the same text and reports the same position
    for text, position in (
        ("1 + 2e_0", 7), ("1 + 2e_21", 8),
        ("1 + 2e[0]", 7), ("1 + 2e[ 3, 2 ]", 11), ("1 + 2e[65536]", 7),
        ("1 + 2e_0,3", 7), ("1 + 2e_3,2", 9), ("1 + 2e_1,65536", 9),
    ):
        with pytest.raises(MultivectorParseError) as exc:
            parse_multivector(text)
        assert exc.value.position == position, text
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.position == position, text

    # an overflowing literal fails at its own position, in either form
    with pytest.raises(MultivectorParseError) as exc:
        parse_multivector("+ 1 - 1e999e_1")
    assert exc.value.position == 6
    with pytest.raises(MultivectorParseError) as exc:
        parse_multivector("scalar ( 1e999 )")
    assert exc.value.position == 9

    with pytest.raises(MultivectorParseError):
        parse_multivector("1 2")
    with pytest.raises(MultivectorParseError):
        parse_multivector("")
    with pytest.raises(MultivectorParseError):
        parse_multivector("+ ")
    with pytest.raises(MultivectorParseError):
        parse_multivector("e[1,")
    with pytest.raises(MultivectorParseError):
        parse_multivector("e[2,2]")


@given(mv=multivectors(max_index=12) | multivectors(max_index=12, coeffs=FINITE_COEFFS))
def test_parse_inverts_render(mv):
    assert parse_multivector(render(mv)) == mv


@given(mv=multivectors(max_index=12) | multivectors(max_index=12, coeffs=FINITE_COEFFS))
def test_parse_inverts_render_with_comma(mv):
    assert parse_multivector(render(mv, COMMA)) == mv


def test_parse_inverts_render_at_max_index():
    mv = from_terms([[MAX_INDEX], [1, MAX_INDEX], [9, 10, MAX_INDEX - 1]], [1, -2.5, 1e-300])
    for opts in (PrintOptions(), COMMA):
        assert parse_multivector(render(mv, opts)) == mv


def test_parse_inverts_render_multidigit_indices():
    # fixed grade 3 keeps every blade multi-index, so the comma always shows
    for mv in corpus(20, dimension=12, max_grade=3):
        assert parse_multivector(render(mv, COMMA)) == mv


def test_index_above_9_renders_in_bracket_form_where_a_run_would_not_read_back():
    # a digit run is read digit by digit, so e_11 would be e_1 e_1: a lone
    # index above 9 always, and any index above 9 without a separator,
    # print in bracket form
    lone = Multivector({(11,): 1.0})
    assert render(lone) == render(lone, COMMA) == "+ 1e[11]"
    mixed = from_terms([[2], [1, 10], [6, 7, 10]], [3, -1, 2])
    assert render(mixed) == "+ 3e_2 - 1e[1, 10] + 2e[6, 7, 10]"
    # with the comma shown, multi-index blades keep the comma form
    assert render(mixed, COMMA) == "+ 3e_2 - 1e_1,10 + 2e_6,7,10"
    for text in (render(lone), render(mixed), render(mixed, COMMA)):
        assert parse_multivector(text) in (lone, mixed)


# --- save / load ------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    path = tmp_path / "x.mv"
    x = from_terms([[], [1, 2, 3], [1, 5, 7, 8, 10]], [2, 4, -10])
    save(x, path)
    assert load(path) == x


def test_save_format(tmp_path):
    path = tmp_path / "x.mv"
    save(from_terms([[], [2, 3]], [2, 4]), path)
    assert path.read_text() == "2.0 ;\n4.0 ; 2 3\n"


def test_save_load_preserves_non_integer_coefficients(tmp_path):
    path = tmp_path / "f.mv"
    x = Multivector({(1,): 0.1, (2,): 1 / 3})
    save(x, path)
    assert load(path) == x


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.mv"
    path.write_text("")
    assert load(path).is_zero()


def test_load_reports_offending_line(tmp_path):
    path = tmp_path / "bad.mv"
    path.write_text("1.0 ;\nbogus ; 1\n")
    with pytest.raises(MultivectorFileError) as exc:
        load(path)
    assert exc.value.line == 2
    assert "bogus" in str(exc.value)


def test_load_rejects_bad_lines(tmp_path):
    cases = ["1.0\n", "1.0 ; x\n", "1.0 ; 0\n", "1.0 ; 2 2\n", "1.0 ; 3 1\n",
             "1.0 ; 65536\n", "nan ; 1\n", "inf ;\n", "-inf ; 2\n", "1e999 ; 3\n",
             # the calculator's grammar: ASCII digits, no digit separators
             "\u0663.5 ; \u0661 \u0662\n", "1_0 ; 1_2\n", "1.0 ; 1_2\n", "1.0 ; \u0661\n",
             "\u0663 ;\n", "1.0 ; +1\n", "1.0 ; -1\n", "infinity ; 1\n", "0x1p0 ; 1\n",
             "1.0 ; " + "1" * 5000 + "\n"]
    for body in cases:
        path = tmp_path / "bad.mv"
        path.write_text(body)
        with pytest.raises(MultivectorFileError):
            load(path)


def test_round_trip_corpus(tmp_path):
    path = tmp_path / "t.mv"
    for mv in corpus(30, include_fewer=True):
        save(mv, path)
        assert load(path) == mv


def test_indices_too_long_for_int_are_out_of_range_at_their_position():
    huge = "1" * 5000
    for text, position in (("1 + 2e[" + huge + "]", 7), ("1 + 2e_1," + huge, 9)):
        with pytest.raises(MultivectorParseError, match=r"outside 1\.\.65535") as exc:
            parse_multivector(text)
        assert exc.value.position == position
    assert parse_multivector("2e[" + "0" * 5000 + "3]") == from_terms([[3]], [2])
