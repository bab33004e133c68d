"""Direct checks on the sparse polynomial engine, gcd in particular."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from liftlab import poly


def rand_poly(rng, nvars, degree=3, terms=3):
    out = {}
    for _ in range(terms):
        mono = [0] * nvars
        budget = degree
        for i in range(nvars):
            k = rng.randint(0, budget)
            mono[i] = k
            budget -= k
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        key = tuple(mono)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def test_mul_matches_convolution_oracle():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rand_poly(rng, 2), rand_poly(rng, 2)
        got = poly.mul(a, b)
        want = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                key = (ma[0] + mb[0], ma[1] + mb[1])
                want[key] = want.get(key, 0) + ca * cb
        want = {k: v for k, v in want.items() if v}
        assert got == want


def test_power_matches_repeated_multiplication():
    # one-term bases take the closed form; the others include sums with
    # and without a constant term
    rng = random.Random(7)
    bases = [rand_poly(rng, 3, terms=rng.randint(1, 4)) for _ in range(40)]
    bases += [{(2, 0, 1): -3}, {(0, 0, 0): 5}, {(1, 0, 0): 1, (0, 1, 0): -2},
              {(0, 0, 0): 1, (1, 0, 0): 1, (0, 0, 2): -1}]
    for a in bases:
        want = poly.const(1, 3)
        for n in range(7):
            assert poly.power(a, n) == want
            want = poly.mul(want, a)
    assert all(poly.power({}, n) == {} for n in range(1, 4))


def test_exact_division_inverts_multiplication():
    rng = random.Random(6)
    for _ in range(50):
        a, g = rand_poly(rng, 3), rand_poly(rng, 3)
        if not a or not g:
            continue
        assert poly.exact_div(poly.mul(a, g), g) == a


def test_exact_division_rejects_non_multiples():
    x = poly.variable(0, 2)
    y = poly.variable(1, 2)
    with pytest.raises(ArithmeticError):
        poly.exact_div(x, y)
    with pytest.raises(ArithmeticError):
        poly.exact_div({(1, 0): 3}, {(1, 0): 2})


def test_gcd_divides_both_and_leaves_coprime_parts():
    rng = random.Random(7)
    for _ in range(60):
        nvars = rng.choice((1, 2, 3))
        a, b = rand_poly(rng, nvars, 2), rand_poly(rng, nvars, 2)
        if not a or not b:
            continue
        g = poly.poly_gcd(a, b)
        qa, qb = poly.exact_div(a, g), poly.exact_div(b, g)
        assert poly.mul(qa, g) == a
        assert poly.mul(qb, g) == b
        rest = poly.poly_gcd(qa, qb)
        assert poly.is_const(rest) and abs(poly.const_value(rest)) == 1


def test_gcd_recovers_planted_common_factor():
    rng = random.Random(8)
    for _ in range(40):
        nvars = rng.choice((2, 3))
        g = rand_poly(rng, nvars, 2, 2)
        a = rand_poly(rng, nvars, 2, 2)
        b = rand_poly(rng, nvars, 2, 2)
        if not g or not a or not b:
            continue
        got = poly.poly_gcd(poly.mul(a, g), poly.mul(b, g))
        # the planted factor must divide the gcd exactly
        assert _divides(g, got)


def _divides(g, f):
    try:
        poly.exact_div(f, g)
        return True
    except ArithmeticError:
        return False


def test_gcd_of_disjoint_supports_is_integer_content():
    a = {(2, 0): 6}               # 6 x^2
    b = {(0, 3): 4}               # 4 y^3
    assert poly.poly_gcd(a, b) == {(0, 0): 2}


def test_gcd_sign_normalization():
    a = {(1, 0): -2}
    b = {(1, 0): -4}
    g = poly.poly_gcd(a, b)
    assert poly.leading_coeff(g) > 0
    assert g == {(1, 0): 2}


def test_classic_difference_of_squares():
    # gcd(x^2 - y^2, x^2 + 2xy + y^2) = x + y
    a = {(2, 0): 1, (0, 2): -1}
    b = {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert poly.poly_gcd(a, b) == {(1, 0): 1, (0, 1): 1}


NVARS = 4


@st.composite
def poly_on(draw, axes, terms=3, degree=2):
    """A random polynomial whose monomials use only the given axes."""
    out = {}
    for _ in range(draw(st.integers(1, terms))):
        mono = [0] * NVARS
        budget = degree
        for i in sorted(axes):
            mono[i] = draw(st.integers(0, budget))
            budget -= mono[i]
        c = draw(st.integers(-6, 6).filter(bool))
        out[tuple(mono)] = out.get(tuple(mono), 0) + c
    return {m: c for m, c in out.items() if c}


@st.composite
def nested_supports(draw):
    """Operands whose variable supports nest strictly, often with a
    planted common factor on the smaller support."""
    small = draw(st.sets(st.integers(0, NVARS - 1), min_size=1, max_size=2))
    extra = draw(st.sets(st.integers(0, NVARS - 1), min_size=1, max_size=2)
                 .filter(lambda s: not s & small))
    common = draw(poly_on(small))
    a = poly.mul(draw(poly_on(small)), common)
    # 1 + (a monomial in every variable of the larger support) puts each
    # of them into b and shares no factor with a
    every = tuple(1 if i in small | extra else 0 for i in range(NVARS))
    b = poly.mul(poly.mul(draw(poly_on(small | extra)), common),
                 {(0,) * NVARS: 1, every: 1})
    return a, b, common


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nested_supports())
def test_gcd_on_nested_supports(operands):
    a, b, common = operands
    if not a or not common:
        return
    g = poly.poly_gcd(a, b)
    assert poly.poly_gcd(b, a) == g
    assert poly.leading_coeff(g) > 0
    qa, qb = poly.exact_div(a, g), poly.exact_div(b, g)
    assert poly.mul(qa, g) == a
    assert poly.mul(qb, g) == b
    assert poly.poly_gcd(qa, qb) == poly.const(1, NVARS)
    assert _divides(common, g)


@st.composite
def shared_support(draw):
    """Operands a, b and a factor g over one variable set; a and b hold a
    monomial in every variable of it, so a·g and b·g have equal supports
    and their gcd takes the pseudo-remainder sequence."""
    axes = draw(st.sets(st.integers(0, NVARS - 1), min_size=1, max_size=3))
    every = tuple(1 if i in axes else 0 for i in range(NVARS))
    a, b = draw(poly_on(axes)), draw(poly_on(axes))
    a[every] = draw(st.integers(-6, 6).filter(bool))
    b[every] = draw(st.integers(-6, 6).filter(bool))
    return a, b, draw(poly_on(axes))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shared_support())
def test_gcd_on_shared_support_scales_by_common_factor(operands):
    a, b, g = operands
    if not g:
        return
    want = poly.mul(g, poly.poly_gcd(a, b))
    if poly.leading_coeff(want) < 0:
        want = poly.neg(want)
    ag, bg = poly.mul(a, g), poly.mul(b, g)
    assert poly.poly_gcd(ag, bg) == want
    assert poly.poly_gcd(bg, ag) == want
