import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffcalc import exprparse
from cliffcalc.exprparse import (
    BinOp,
    Call,
    ExpressionSyntaxError,
    MAX_EXPONENT,
    PRECEDENCE,
    Neg,
    Pow,
    Term,
    Var,
    parse_expr,
    tokenize,
)
from cliffcalc.repl import Session, run_command
from cliffcalc.textio import MultivectorParseError, parse_multivector


def test_multiplication_binds_tighter_than_addition():
    assert parse_expr("1 + 2*e_1") == BinOp("+", Term(1.0, ()), Term(2.0, (1,)))
    assert parse_expr("1 + x*e_1") == BinOp(
        "+", Term(1.0, ()), BinOp("*", Var("x", 4), Term(1.0, (1,)))
    )


def test_contraction_binds_loosest_among_products():
    expr = parse_expr("e(2) _| e(1) * e(2)")
    assert expr == BinOp(
        "_|",
        Call("e", (Term(2.0, ()),), 0),
        BinOp("*", Call("e", (Term(1.0, ()),), 8), Call("e", (Term(2.0, ()),), 15)),
    )


def test_parentheses_override_precedence():
    expr = parse_expr("(e(2) _| e(1)) * e(2)")
    assert isinstance(expr, BinOp) and expr.op == "*"
    assert isinstance(expr.left, BinOp) and expr.left.op == "_|"


def test_wedge_sits_between_star_and_contraction():
    expr = parse_expr("a _| b ^ c * d")
    # parses as a _| (b ^ (c * d))
    assert expr.op == "_|"
    assert expr.right.op == "^"
    assert expr.right.right.op == "*"


def test_binary_operators_are_left_associative():
    expr = parse_expr("a - b - c")
    assert expr == BinOp("-", BinOp("-", Var("a", 0), Var("b", 4)), Var("c", 8))
    expr = parse_expr("a _| b |_ c")
    assert expr.op == "|_" and expr.left.op == "_|"


def test_unary_minus_binds_tightest():
    assert parse_expr("-a ** 2") == Pow(Neg(Var("a", 1)), 2)
    assert parse_expr("-2") == Neg(Term(2.0, ()))
    assert parse_expr("1 - -2") == BinOp("-", Term(1.0, ()), Neg(Term(2.0, ())))


def test_power_chains_left():
    assert parse_expr("a**2**3") == Pow(Pow(Var("a", 0), 2), 3)


def test_power_requires_integer_literal():
    for bad in ("a ** b", "a ** -1", "a ** 2.5", "a ** (2)", "a ** 1e3"):
        with pytest.raises(ExpressionSyntaxError, match="exponent"):
            parse_expr(bad)
    assert parse_expr("a ** 0") == Pow(Var("a", 0), 0)


def test_power_exponent_is_bounded():
    """``x ** k`` takes k - 1 products: a short line cannot ask for a billion."""
    assert parse_expr(f"a ** {MAX_EXPONENT}") == Pow(Var("a", 0), MAX_EXPONENT)
    for line in (f"a ** {MAX_EXPONENT + 1}", "e_1 ** 1000000000", "a ** 2 ** 99999"):
        with pytest.raises(ExpressionSyntaxError, match="exponent") as err:
            parse_expr(line)
        assert err.value.position == line.rindex(" ") + 1
        assert err.value.expected == (f"an integer up to {MAX_EXPONENT}",)
    session = Session()
    with pytest.raises(ExpressionSyntaxError) as err:
        run_command("x = e_1 ** 1000000000", session)
    assert err.value.position == 11 and "x" not in session.variables


def test_blade_literals():
    assert parse_expr("e_12") == Term(1.0, (1, 2))
    assert parse_expr("e_7") == Term(1.0, (7,))
    assert parse_expr("e[1,10,12]") == Term(1.0, (1, 10, 12))
    assert parse_expr("e [ 1 , 10 ]") == Term(1.0, (1, 10))
    # outside parentheses, where no expression has a comma
    assert parse_expr("e_1,10,12") == Term(1.0, (1, 10, 12))


def test_blade_literal_validation():
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("e_0")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("e_21")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("e[10,1]")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("e[]")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("e[1,1]")
    for bad in ("e[1.5]", "e[1e1]"):
        with pytest.raises(ExpressionSyntaxError):
            parse_expr(bad)

    # index 0, out of order and above MAX_INDEX in each blade form: both
    # front ends share the lexer and report the same position
    for text, position in (
        ("e_0", 2), ("e_132", 4),
        ("e[0]", 2), ("e[2, 1]", 5), ("e[65536]", 2),
        ("e_0,1", 2), ("e_2,1", 4), ("e_1,65536", 4),
    ):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.position == position, text
        with pytest.raises(MultivectorParseError) as exc:
            parse_multivector(text)
        assert exc.value.position == position, text


def test_e_underscore_name_is_an_identifier():
    assert parse_expr("e_x") == Var("e_x", 0)


def test_calls():
    assert parse_expr("rand()") == Call("rand", (), 0)
    assert parse_expr("grade(x, 2)") == Call("grade", (Var("x", 6), Term(2.0, ())), 0)
    nested = parse_expr("grades(e(1) + x)")
    assert isinstance(nested, Call) and len(nested.args) == 1


def test_identifier_backs_off_before_contraction_bar():
    expr = parse_expr("x_| y")
    assert expr == BinOp("_|", Var("x", 0), Var("y", 4))


def test_syntax_errors_have_positions_and_expectations():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expr("1 + ")
    assert exc.value.position == 4
    assert exc.value.expected

    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expr("1 2")
    assert exc.value.position == 2

    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expr("(1 + 2")
    assert "')'" in exc.value.expected

    with pytest.raises(ExpressionSyntaxError):
        parse_expr("@")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("")


@pytest.mark.parametrize("indent", ["", "   "])
def test_deep_nesting_is_a_syntax_error_at_the_first_token(indent):
    # The name is kept from when such lines were errors: the parser is one
    # loop now, and any depth parses.  The trees are walked with a loop,
    # since == and repr on them would recurse.  The depth is past the default
    # recursion limit; test_repl runs lines 100,000 deep.
    depth = 5_000
    assert parse_expr(indent + "(" * depth + "1" + ")" * depth) == Term(1.0, ())
    expr = parse_expr(indent + "-" * depth + "e_1")
    for _ in range(depth):
        assert type(expr) is Neg
        expr = expr.operand
    assert expr == Term(1.0, (1,))


#: Names that read back as names: without an ``e`` none starts a blade literal.
_NAMES = st.text("abcdxyz0123", min_size=1, max_size=3).filter(lambda name: name[0].isalpha())

_BINARY = [op for op in PRECEDENCE if op != "**"]


def _asts():
    """ASTs of every node kind, positions left at 0."""
    # abs: -0.0 would print with a sign, which reads back as Neg
    coeffs = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs)
    blades = st.lists(st.integers(1, 70), min_size=1, max_size=3, unique=True).map(
        lambda ids: tuple(sorted(ids)))
    leaves = st.one_of(
        coeffs.map(lambda c: Term(c, ())),
        blades.map(lambda b: Term(1.0, b)),
        st.tuples(coeffs, blades).map(lambda t: Term(*t)),
        _NAMES.map(Var),
    )

    def nodes(sub):
        # a number times a blade literal of coefficient 1 parses as one Term
        binary = st.tuples(st.sampled_from(_BINARY), sub, sub).map(lambda t: BinOp(*t)).filter(
            lambda node: not (node.op == "*" and type(node.left) is Term and not node.left.indices
                              and type(node.right) is Term and node.right.indices
                              and node.right.coeff == 1.0))
        return st.one_of(
            binary, binary, binary,
            sub.map(Neg),
            st.tuples(sub, st.integers(0, 12)).map(lambda t: Pow(*t)),
            st.tuples(_NAMES, st.lists(sub, max_size=3)).map(lambda t: Call(t[0], tuple(t[1]))),
        )

    return st.recursive(leaves, nodes, max_leaves=16)


def _text(expr) -> str:
    """``expr`` printed with the fewest parentheses that PRECEDENCE and left
    associativity allow."""
    kind = type(expr)
    if kind is Term:
        c, indices = expr
        blade = "e[" + ", ".join(map(str, indices)) + "]" if indices else ""
        return blade if blade and c == 1.0 else repr(c) + blade
    if kind is Var:
        return expr.name
    if kind is Call:
        return f"{expr.name}({', '.join(map(_text, expr.args))})"
    if kind is Neg:  # binds tightest: a power or binary operand needs parentheses
        operand = _text(expr.operand)
        return f"-({operand})" if type(expr.operand) in (Pow, BinOp) else f"-{operand}"
    if kind is Pow:  # a power of a power chains left
        base = _text(expr.base)
        if type(expr.base) is BinOp:
            base = f"({base})"
        return f"{base} ** {expr.exponent}"
    prec = PRECEDENCE[expr.op]
    left, right = _text(expr.left), _text(expr.right)
    if type(expr.left) is BinOp and PRECEDENCE[expr.left.op] < prec:
        left = f"({left})"
    if type(expr.right) is BinOp and PRECEDENCE[expr.right.op] <= prec:
        right = f"({right})"
    return f"{left} {expr.op} {right}"


def _placed(expr, text):
    """``expr`` with every name's position checked against ``text``, then set to 0."""
    kind = type(expr)
    if kind is Var:
        assert text.startswith(expr.name, expr.pos)
        return Var(expr.name)
    if kind is Call:
        assert text.startswith(expr.name + "(", expr.pos)
        return Call(expr.name, tuple(_placed(arg, text) for arg in expr.args))
    if kind is Neg:
        return Neg(_placed(expr.operand, text))
    if kind is Pow:
        return Pow(_placed(expr.base, text), expr.exponent)
    if kind is BinOp:
        return BinOp(expr.op, _placed(expr.left, text), _placed(expr.right, text))
    return expr


@settings(max_examples=300)
@given(expr=_asts())
@example(expr=BinOp("-", BinOp("-", Var("a"), Var("b")), Var("c")))  # a - b - c
@example(expr=BinOp("_|", Var("a"), BinOp("|_", Var("b"), Var("c"))))  # a _| (b |_ c)
@example(expr=Pow(Neg(Pow(Var("a"), 2)), 3))  # -(a ** 2) ** 3
def test_fewest_parentheses_parse_back_to_the_same_tree(expr):
    text = _text(expr)
    assert _placed(parse_expr(text), text) == expr, text


def test_number_forms():
    assert parse_expr("2.5") == Term(2.5, ())
    assert parse_expr(".5") == Term(0.5, ())
    assert parse_expr("10") == Term(10.0, ())
    assert parse_expr("1e3") == Term(1000.0, ())
    assert parse_expr("2.5E-1") == Term(0.25, ())
    assert parse_expr("1e+16") == Term(1e16, ())
    assert parse_expr("5e-324") == Term(5e-324, ())
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expr("1 + 1e999")
    assert exc.value.position == 4


def test_unary_plus_is_noop():
    assert parse_expr("+1") == Term(1.0, ())
    assert parse_expr("+ 1 + 2") == BinOp("+", Term(1.0, ()), Term(2.0, ()))


def test_juxtaposed_coefficient_multiplies_blade():
    assert parse_expr("2e_1") == Term(2.0, (1,))
    assert parse_expr("4e[1,10]") == Term(4.0, (1, 10))
    assert parse_expr("1e-05e_1") == Term(1e-05, (1,))
    expr = parse_expr("3e_12 + 1")
    assert expr == BinOp("+", Term(3.0, (1, 2)), Term(1.0, ()))
    # binds like an atom: 2e_1 ** 2 squares the whole term
    assert parse_expr("2e_1 ** 2") == Pow(Term(2.0, (1,)), 2)


def test_a_number_times_a_blade_literal_folds_into_one_term():
    for text in ("3e_12", "3 e_12", "3*e_12", "3 * e[1, 2]", "3e_1,2", "3e[01, 002]"):
        assert parse_expr(text) == Term(3.0, (1, 2)), text
    assert parse_expr("(2) * (e_1)") == Term(2.0, (1,))
    # no other product folds
    assert parse_expr("e_12 * 3") == BinOp("*", Term(1.0, (1, 2)), Term(3.0, ()))
    assert parse_expr("x * 2e_1") == BinOp("*", Var("x", 0), Term(2.0, (1,)))
    assert parse_expr("-2 * e_1") == BinOp("*", Neg(Term(2.0, ())), Term(1.0, (1,)))
    assert parse_expr("2 * 3e_1") == BinOp("*", Term(2.0, ()), Term(3.0, (1,)))
    assert parse_expr("2 * 3") == BinOp("*", Term(2.0, ()), Term(3.0, ()))
    assert parse_expr("2 * e_1 ** 2") == BinOp("*", Term(2.0, ()), Pow(Term(1.0, (1,)), 2))
    assert parse_expr("2 * 3 * e_1") == BinOp(
        "*", BinOp("*", Term(2.0, ()), Term(3.0, ())), Term(1.0, (1,))
    )


def test_indices_too_long_for_int_are_out_of_range_at_their_position():
    # int() refuses more than 4300 digits; the index is reported like any
    # other out-of-range one, in the bracket and the comma form
    huge = "1" * 5000
    for text, position in (("e[" + huge + "]", 2), ("e[2, " + huge + "]", 5), ("e_1," + huge, 4)):
        with pytest.raises(ExpressionSyntaxError, match=r"outside 1\.\.65535") as exc:
            parse_expr(text)
        assert exc.value.position == position
    # leading zeros do not count towards the length
    assert parse_expr("e[" + "0" * 5000 + "3]") == Term(1.0, (3,))
    assert parse_expr("e_1," + "0" * 5000 + "3") == Term(1.0, (1, 3))


def test_rendered_zero_is_the_number_zero():
    assert parse_expr("the zero clifford element (0)") == Term(0.0, ())
    assert parse_expr("e_1 + the zero clifford element (0)") == BinOp("+", Term(1.0, (1,)), Term(0.0, ()))
    # only the whole rendered phrase is a literal
    for text in ("the zero clifford element", "the zero clifford element (1)", "the zero"):
        with pytest.raises(ExpressionSyntaxError):
            parse_expr(text)
    assert parse_expr("the") == Var("the", 0)


@pytest.mark.parametrize(
    "text, message, position, expected",
    [
        ("e[1 2]", "unexpected '2'", 4, ("','", "']'")),
        ("e[1,]", "unexpected ']'", 4, ("an integer index",)),
        ("e[", "unexpected end of input", 2, ("an integer index",)),
        ("e[1", "unexpected end of input", 3, ("','", "']'")),
        ("e [ , 1]", "unexpected ','", 4, ("an integer index",)),
        (".", "malformed number", 0, ()),
        (".e1", "malformed number", 0, ()),
        ("|", "unexpected character '|'", 0, ()),
        ("a | b", "unexpected character '|'", 2, ()),
        # after a stray ')' the depth is negative and the comma form stays
        # off, so e_1 and 0 are separate tokens and the parser stops at ')'
        ("1 ) e_1,0", "unexpected ')'", 2, ("an operator", "end of input")),
    ],
)
def test_error_message_position_and_expected(text, message, position, expected):
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expr(text)
    assert (exc.value.base_message, exc.value.position, exc.value.expected) == (
        message, position, expected,
    )


def test_tokens_at_operator_and_comma_boundaries():
    def kinds(text):
        return [(tok.kind, tok.value, tok.pos) for tok in tokenize(text)]

    # the identifier gives back its last '_' to the contraction bar
    assert kinds("x__|y") == [
        ("ident", "x_", 0), ("op", "_|", 2), ("ident", "y", 4), ("end", None, 5),
    ]
    # inside parentheses the comma is an operator
    assert kinds("(e_1,2)") == [
        ("op", "(", 0), ("blade", (1,), 1), ("op", ",", 4), ("number", 2.0, 5),
        ("op", ")", 6), ("end", None, 7),
    ]


def test_non_ascii_letters_and_digits_are_unexpected_characters():
    # only ASCII letters start a name, and only decimal digits a number
    for text, position in (("\u00e9", 0), ("1 + \u00e9", 4), ("x\u00e9", 1), ("2\u00b2", 1)):
        char = text[position]
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expr(text)
        assert (exc.value.base_message, exc.value.position) == (
            f"unexpected character {char!r}", position,
        )
        with pytest.raises(MultivectorParseError) as exc:
            parse_multivector(text)
        assert exc.value.position == position
        assert str(exc.value).startswith(f"unexpected character {char!r}")
    with pytest.raises(ExpressionSyntaxError) as exc:
        run_command("a = \u00e9", Session())
    assert exc.value.position == 4


@pytest.mark.parametrize(
    "text, position",
    [
        ("\u0663", 0),              # Arabic-Indic three
        ("e_\u0661\u0662", 2),      # e_ is a name, then the digit
        ("2 * \uff11", 4),          # fullwidth one
        ("1\u0660", 1),             # after an ASCII digit
        ("1.\u0665", 2),            # in a fraction
        ("e_1,\u0662", 4),          # in the comma form
    ],
)
def test_non_ascii_digits_are_unexpected_characters(text, position):
    char = text[position]
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expr(text)
    assert (exc.value.base_message, exc.value.position) == (
        f"unexpected character {char!r}", position,
    )
    with pytest.raises(MultivectorParseError) as exc:
        parse_multivector(text)
    assert exc.value.position == position


def test_non_ascii_digits_in_brackets_break_the_blade_where_they_stand():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expr("e[1, \u0662]")
    assert (exc.value.position, exc.value.expected) == (5, ("an integer index",))


def test_any_unicode_whitespace_separates_tokens():
    assert parse_expr("\u00a0e_12\u2003+\u30002") == BinOp("+", Term(1.0, (1, 2)), Term(2.0, ()))


_TOKEN_TEXT = st.lists(
    st.sampled_from(list("e_[](),.*^|+-0123456789 \tEax@")
                    + ["e_", "e[", "**", "_|", "|_", "1e5", "the zero clifford element (0)"])
).map("".join) | st.text()


@given(text=_TOKEN_TEXT)
def test_lexer_never_crashes(text):
    try:
        tokens = tokenize(text)
    except ExpressionSyntaxError as err:
        assert 0 <= err.position <= len(text)
    else:
        positions = [tok.pos for tok in tokens]
        assert positions == sorted(set(positions))
        assert tokens[-1].kind == "end" and tokens[-1].pos == len(text)
    try:
        parse_multivector(text)
    except MultivectorParseError as err:
        assert 0 <= err.position <= len(text)
    # a ':command' line would do file I/O, so the text goes in as an expression
    line = "x = " + text if text.lstrip().startswith(":") else text
    try:
        run_command(line, Session())
    except ValueError:
        pass


def _blade_literal(rng: random.Random) -> str:
    """A blade literal in any form, valid or not: indices ascending, shuffled
    or repeated, with 0, 65535, 65536 and leading zeros among them."""
    indices = [str(rng.choice((rng.randint(1, 14), rng.randint(1, 14), 0, 65535, 65536)))
               for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.6:
        indices.sort(key=int)
    if rng.random() < 0.1:
        indices[0] = "000" + indices[0]
    form = rng.randrange(3)
    if form == 0:
        return "e_" + "".join(i[-1] for i in indices)
    if form == 1:
        return "e_" + ",".join(indices)
    space = lambda: rng.choice(("", " ", "  "))
    return f"e{space()}[{space()}" + f"{space()},{space()}".join(indices) + f"{space()}]"


def _lexed(line: str):
    try:
        return tokenize(line)
    except ExpressionSyntaxError as err:
        return err.base_message, err.position, err.expected


def test_blade_literals_lex_the_same_with_the_literal_cache_cold_and_warm():
    """Each literal's text is read once into its checked index tuple: a warm
    cache gives the same tokens, and a bad literal the same error at the same
    position (its offset in the text plus the token's start), as a cold one."""
    rng = random.Random(7)
    lines = [rng.choice(("", "x + ", "2", "(3) ^ ", "grade(")) + _blade_literal(rng)
             + rng.choice(("", " * y", ", 2)")) for _ in range(600)]
    cold = []
    for line in lines:
        exprparse._literal_indices.cache_clear()
        cold.append(_lexed(line))
    warm = [_lexed(line) for line in lines]
    assert warm == cold
    errors = [result for result in cold if type(result) is tuple]
    assert 100 < len(errors) < 500  # the corpus holds both kinds
    for line, result in zip(lines, cold):
        if type(result) is list:
            blade = next(tok for tok in result if tok.kind == "blade")
            assert line[blade.pos:].startswith(blade.text)


def test_the_literal_cache_holds_at_most_its_bound_and_no_long_text():
    cache = exprparse._literal_indices
    cache.cache_clear()
    assert cache.cache_info().maxsize == exprparse._LITERALS_HELD
    for k in range(2, exprparse._LITERALS_HELD + 200):
        tokenize(f"e[1, {k}]")
        assert cache.cache_info().currsize <= exprparse._LITERALS_HELD
    assert cache.cache_info().currsize == exprparse._LITERALS_HELD
    cache.cache_clear()
    long_text = "e[" + "0" * exprparse._CACHED_TEXT + "3]"
    assert tokenize(long_text)[0].value == (3,)
    assert cache.cache_info().currsize == 0
