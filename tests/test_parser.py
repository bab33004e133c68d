"""Grammar coverage and error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftlab.expr import (
    Call, Const, MINUS_ONE, Pow, Prod, Sum, Var, VarId,
    canonicalize, expr_equal, eval_numeric, is_rational,
)
from liftlab.parser import MAX_DEPTH, ParseError, UnknownVariableError, parse_expr

X, Y = VarId("x", 0), VarId("y", 1)


def test_sum_of_power_and_scaled_variable():
    e = parse_expr("x^2 + 3/2*y", [X, Y])
    assert e == Sum((Pow(Var(X), 2), Prod((Const(Fraction(3, 2)), Var(Y)))))


def test_transcendental_marks_numeric_only():
    e = parse_expr("sin(x)*y", [X, Y])
    assert not is_rational(e)
    assert isinstance(e, Prod) and isinstance(e.factors[0], Call)


def test_unknown_variable_reports_name_and_offset():
    with pytest.raises(UnknownVariableError) as err:
        parse_expr("x + w", [X, Y])
    assert err.value.name == "w"
    assert err.value.offset == 4


def test_syntax_error_reports_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("x + ", [X, Y])
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_expr("(x + y", [X, Y])
    assert isinstance(err.value.offset, int)


def test_unary_minus_and_parens():
    e = parse_expr("-(x + y) * 2", [X, Y])
    assert eval_numeric(e, {X: 1.0, Y: 2.0}) == -6.0


def test_unary_minus_applies_to_the_power():
    assert parse_expr("-x^2", [X]) is Prod((MINUS_ONE, Pow(Var(X), 2)))
    assert canonicalize(parse_expr("-3^2", [X])) is Const(-9)
    assert parse_expr("(-x)^2", [X]) is Pow(Prod((MINUS_ONE, Var(X))), 2)
    # with no '^' after it, a unary minus builds the tree it always did
    assert parse_expr("--x*y", [X, Y]) is Prod((MINUS_ONE, Prod((MINUS_ONE, Var(X))), Var(Y)))
    assert parse_expr("-3/2", [X]) is Prod((MINUS_ONE, Const(Fraction(3, 2))))


def test_negated_sum_prints_in_parentheses():
    e = parse_expr("sin(x)-(x+y)", [X, Y])
    assert str(e) == "sin(x) - (x + y)"
    assert parse_expr(str(e), [X, Y]) is e


def test_rational_literals():
    assert parse_expr("3/2", [X]) == Const(Fraction(3, 2))
    assert eval_numeric(parse_expr("1/2 + 1/2", [X]), {}) == 1.0


def test_power_binds_tighter_than_division():
    # 1/2^3 is 1/(2^3), not (1/2)^3
    assert eval_numeric(parse_expr("1/2^3", [X]), {}) == 0.125


def test_signed_exponent():
    e = parse_expr("x^-2", [X])
    assert eval_numeric(e, {X: 2.0}) == 0.25


def test_whitespace_insignificant():
    a = parse_expr("x ^ 2+ 3 / 2 *y", [X, Y])
    b = parse_expr("x^2+3/2*y", [X, Y])
    assert expr_equal(a, b)


def test_nested_functions():
    e = parse_expr("exp(sin(x) * cos(y))", [X, Y])
    assert not is_rational(e)


def test_display_round_trips():
    texts = ["x^2 + 3/2*y", "(x+y)^3/(x-y)", "-x*y + 2", "sin(2*x)*cos(y)"]
    for text in texts:
        e = parse_expr(text, [X, Y])
        again = parse_expr(str(e), [X, Y])
        if is_rational(e):
            assert expr_equal(e, again)
        else:
            assert str(again) == str(e)


@pytest.mark.parametrize("opening, closing, per_level", [
    ("(", ")", 1), ("-", "", 1), ("sin(", ")", 1), ("", "/y", 1), ("-(", ")", 2),
], ids=["parentheses", "unary-minus", "calls", "quotients", "minus-and-parentheses"])
def test_nesting_is_bounded(opening, closing, per_level):
    levels = MAX_DEPTH // per_level
    at_bound = opening * levels + "x" + closing * levels
    parse_expr(at_bound, [X, Y])
    with pytest.raises(ParseError, match="nested deeper"):
        parse_expr(opening + at_bound + closing, [X, Y])


@st.composite
def leading_negative_power(draw):
    """A canonical node whose leading term is a power with a negative
    coefficient, alone, in a sum or over a denominator."""
    k = draw(st.integers(2, 4))
    coeff = -Fraction(draw(st.integers(1, 3)), draw(st.sampled_from((1, 1, 2))))
    e = Const(coeff) * Var(X) ** k
    for _ in range(draw(st.integers(0, 3))):
        # terms of lower degree keep the power in front
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        a = draw(st.integers(0, k - 1))
        e = e + Const(c) * Var(X) ** a * Var(Y) ** draw(st.integers(0, k - 1 - a))
    if draw(st.booleans()):
        e = e / (Var(Y) ** 2 + draw(st.integers(1, 3)))
    return canonicalize(e)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(leading_negative_power())
def test_printed_canonical_form_parses_back_to_itself(c):
    assert canonicalize(parse_expr(str(c), [X, Y])) is c
