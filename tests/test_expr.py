"""Expression kernel: canonical forms, calculus, numeric evaluation."""

import copy
import gc
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab import expr, poly
from liftlab.expr import (
    Call, Const, EvaluationDomainError, ExprError, Pow, Prod, Quot, Sum,
    SymbolicDivisionError, UnboundVariableError, UnsupportedClassError, Var,
    VarId, ZERO, ONE, MINUS_ONE, canonicalize, eval_numeric,
    expr_equal, free_vars, is_rational, is_zero_expr, kernel_stats, partial,
    substitute,
)
from liftlab.grid import compile_numeric
from liftlab.parser import parse_expr
from liftlab.verify import CHECKS, SUITES, run_suite
from test_grid import LEAVES, TRIG_RATIONAL, _branches

X, Y, Z, W = (VarId(n, i) for i, n in enumerate("xyzw"))
VARS = [X, Y, Z, W]


def parse(text):
    return parse_expr(text, VARS)


def exact_eval(e, point):
    """Independent exact evaluator over Fractions (test oracle)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return point[e.var]
    if isinstance(e, Sum):
        return sum((exact_eval(t, point) for t in e.terms), Fraction(0))
    if isinstance(e, Prod):
        out = Fraction(1)
        for f in e.factors:
            out *= exact_eval(f, point)
        return out
    if isinstance(e, Pow):
        return exact_eval(e.base, point) ** e.exponent
    if isinstance(e, Quot):
        return exact_eval(e.num, point) / exact_eval(e.den, point)
    raise AssertionError(f"unexpected node {e!r}")


class TestCanonicalize:
    def test_binomial_identity_is_zero(self):
        assert canonicalize(parse("(x+y)^2 - (x^2+2*x*y+y^2)")) == ZERO

    def test_x_over_x_cancels(self):
        # domain enlarged by a measure-zero set, the usual CAS convention
        assert canonicalize(parse("x/x")) == ONE

    def test_difference_of_squares_division(self):
        # oracle: (x+y)*(x-y) must reproduce x^2-y^2 by direct convolution
        product = {}
        for (ex1, ey1), c1 in {(1, 0): 1, (0, 1): 1}.items():
            for (ex2, ey2), c2 in {(1, 0): 1, (0, 1): -1}.items():
                key = (ex1 + ex2, ey1 + ey2)
                product[key] = product.get(key, 0) + c1 * c2
        product = {k: v for k, v in product.items() if v}
        assert product == {(2, 0): 1, (0, 2): -1}
        assert canonicalize(parse("(x^2-y^2)/(x-y)")) == canonicalize(parse("x+y"))

    def test_transcendental_input_is_canonical(self):
        # each call is an atom of the ring, ordered after the variables
        assert str(canonicalize(parse("1 + sin(x)*y + cos(x)*y"))) == "y*cos(x) + y*sin(x) + 1"
        assert canonicalize(parse("sin(x)*(1 + y) - sin(x)*y")) is Call("sin", Var(X))
        # atoms are independent: an identity between them is not decided
        assert canonicalize(parse("sin(x)^2 + cos(x)^2 - 1")) is not ZERO

    def test_denominator_sign_normalized(self):
        a = canonicalize(parse("1/(-x)"))
        b = canonicalize(parse("-1/x"))
        assert a == b

    def test_canonical_collapses_support(self):
        assert canonicalize(parse("x + y - y")) == canonicalize(parse("x"))
        assert free_vars(canonicalize(parse("x + y - y"))) == frozenset({X})


class TestNumericFold:
    """Numeric-only input: constants, rational parts and terms collect
    around the atoms."""

    def test_nested_sum_constant_joins_the_running_constant(self):
        assert str(canonicalize(ONE * parse("cos(x) + 3") + 2)) == "cos(x) + 5"
        assert str(canonicalize(ONE * parse("cos(x) + 3") + (-3))) == "cos(x)"

    def test_nested_product_constant_joins_the_running_constant(self):
        assert str(canonicalize(parse("2*(3*cos(x))"))) == "6*cos(x)"
        assert str(canonicalize(parse("(1/2)*(2*cos(x))"))) == "cos(x)"
        assert canonicalize(parse("2*(0*cos(x))")) is ZERO

    def test_rational_parts_are_canonicalized(self):
        x = Var(X)
        assert canonicalize(x * Pow(Call("sin", Var(Y)), 0) - x) is ZERO
        assert canonicalize(x + Pow(Call("sin", x), 0)) is canonicalize(x + 1)
        assert canonicalize(parse("sin(x) + x*y - x*y")) is Call("sin", x)
        assert str(canonicalize(parse("sin(x)*y"))) == "y*sin(x)"

    def test_numeric_only_power_of_zero_raises(self):
        with pytest.raises(SymbolicDivisionError):
            canonicalize(parse("(sin(x)^0 - 1)^-1"))


def _numeric_branches(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=4).map(lambda ts: Sum(tuple(ts))),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: Prod(tuple(fs))),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(lambda t: Call(*t)),
        st.tuples(children, children).map(lambda t: Quot(*t)),
        st.tuples(children, st.integers(-2, 3)).map(lambda t: Pow(*t)),
    )


# trig trees with quotients and negative powers of any subtree, so with
# denominators in the variables, which TRIG_RATIONAL keeps out
NUMERIC_TREES = st.recursive(LEAVES, _numeric_branches, max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(TRIG_RATIONAL, NUMERIC_TREES))
def test_canonical_form_keeps_the_value_of_trig_trees(e):
    try:
        c = canonicalize(e)
    except SymbolicDivisionError:
        return
    assert canonicalize(c) is c
    assert canonicalize(e - e) is ZERO
    for x, y in [(0.7316, -1.2043), (-0.4129, 0.3391), (1.8874, 1.0537), (-1.5562, -0.0815)]:
        try:
            want = eval_numeric(e, {X: x, Y: y})
        except EvaluationDomainError:
            continue
        assert math.isclose(eval_numeric(c, {X: x, Y: y}), want, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(TRIG_RATIONAL, TRIG_RATIONAL, TRIG_RATIONAL)
def test_trig_forms_are_independent_of_tree_shape(a, b, c):
    assert canonicalize(a + (b + c)) is canonicalize(Sum((c, Sum((b, a)))))
    assert canonicalize(a * b - b * a + c) is canonicalize(c)


def test_atom_order_is_the_same_under_any_hash_seed():
    # five atoms, one inside another, over three variables
    code = ("from liftlab.expr import VarId, partial\n"
            "from liftlab.parser import parse_expr\n"
            "v = [VarId(n, i) for i, n in enumerate('xyz')]\n"
            "e = parse_expr('exp(z)*cos(x + y) - sin(y)/(2 + cos(x)) + z*exp(sin(x))', v)\n"
            "print(partial(e, v[0]), partial(e, v[2]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(expr.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**env, "PYTHONHASHSEED": seed}, timeout=120)
            for seed in ("0", "1")]
    assert [p.returncode for p in outs] == [0, 0], outs[0].stderr
    assert outs[0].stdout == outs[1].stdout
    assert outs[0].stdout.count("(") > 10


def test_atoms_that_agree_in_their_cut_text_are_refused(monkeypatch):
    # atoms are ordered by their first ATOM_TEXT characters, then their
    # variables; two that agree in both cannot be ordered
    u = VarId("atom_text_u", 0)
    arg = canonicalize(Var(u) ** 5 + Var(u) ** 4 + Var(u) ** 3 + Var(u) ** 2 + Var(u))
    monkeypatch.setattr(expr, "ATOM_TEXT", 20)
    with expr.scope():
        assert str(canonicalize(Call("sin", arg) - Call("cos", arg))).startswith("-cos(")
        with pytest.raises(ExprError, match="agree in their first 20 characters"):
            canonicalize(Call("sin", arg) + Call("sin", arg + 1))


class TestExprEqual:
    def test_square_expansion(self):
        assert expr_equal(parse("(x+1)^2"), parse("x^2+2*x+1"))

    def test_distinct_variables(self):
        assert not expr_equal(parse("x"), parse("y"))

    def test_numeric_only_rejected(self):
        with pytest.raises(UnsupportedClassError):
            expr_equal(parse("sin(x)"), parse("sin(x)"))

    def test_zero_test_rejects_atoms(self):
        # sin(x)^2 + cos(x)^2 - 1 is zero, but its atoms are independent
        with pytest.raises(UnsupportedClassError):
            is_zero_expr(parse("sin(x)^2 + cos(x)^2 - 1"))

    def test_randomized_against_exact_evaluation(self, rng):
        # oracle: equality decision must agree with exact evaluation at
        # 10 random rational points avoiding denominator zeros
        pairs = [
            ("(x+y)^3", "x^3+3*x^2*y+3*x*y^2+y^3"),
            ("(x^2-1)/(x-1)", "x+1"),
            ("x*y + y*x", "2*x*y"),
            ("x/(y+2) + y/(y+2)", "(x+y)/(y+2)"),
            ("x^2 - y", "y - x^2"),
            ("(x+1)/(y+3)", "(x+2)/(y+3)"),
        ]
        for left, right in pairs:
            a, b = parse(left), parse(right)
            decided = expr_equal(a, b)
            agree = True
            samples = 0
            while samples < 10:
                point = {v: Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for v in VARS}
                try:
                    agree = exact_eval(a, point) == exact_eval(b, point)
                except ZeroDivisionError:
                    continue
                samples += 1
                if not agree:
                    break
            assert decided == agree, f"{left} vs {right}"


class TestPartial:
    def test_monomial(self):
        assert expr_equal(partial(parse("x^2*y"), X), parse("2*x*y"))

    def test_constant_in_that_variable(self):
        assert partial(parse("y"), X) == ZERO

    def test_quotient_rule_against_finite_differences(self, rng):
        e = parse("(x+1)/y")
        d = partial(e, Y)
        assert expr_equal(d, parse("-(x+1)/y^2"))
        for _ in range(5):
            pt = {X: rng.uniform(-2, 2), Y: rng.uniform(0.5, 2.5),
                  Z: 0.0, W: 0.0}
            h = 1e-6
            up = eval_numeric(e, {**pt, Y: pt[Y] + h})
            dn = eval_numeric(e, {**pt, Y: pt[Y] - h})
            fd = (up - dn) / (2 * h)
            got = eval_numeric(d, pt)
            assert abs(fd - got) <= 1e-8 * (1 + abs(got))

    def test_transcendental_closed_forms(self):
        assert str(partial(parse("sin(x)"), X)) == "cos(x)"
        d_cos = partial(parse("cos(x)"), X)
        assert not is_rational(d_cos)
        assert abs(eval_numeric(d_cos, {X: 0.3}) + math.sin(0.3)) < 1e-15
        d_exp = partial(parse("exp(2*x)"), X)
        assert abs(eval_numeric(d_exp, {X: 0.5}) - 2 * math.exp(1.0)) < 1e-14

    def test_undefined_input_raises_for_an_absent_variable(self):
        # the input is checked before the variable is looked for, also
        # where its derivative tree folds to 0, as for (1/(x-x))^0
        for text in ("x/(x-x)", "sin(x)/0", "(1/(x-x))^0"):
            with pytest.raises(SymbolicDivisionError):
                partial(parse(text), Y)

    def test_numeric_only_input_folds_as_a_tree(self):
        # sin(x) is an atom of the ring, so canonicalize decides the
        # rational denominator x - x is 0 before the variable is looked for
        with pytest.raises(SymbolicDivisionError):
            partial(parse("sin(x)/(x-x)"), Y)

    def test_numeric_only_quotient_by_identically_zero_raises(self):
        for text in ("sin(x)/(x-x)", "x + exp(y)/((x+1)^2 - x^2 - 2*x - 1)"):
            with pytest.raises(SymbolicDivisionError):
                canonicalize(parse(text))

    def test_derivative_drops_a_variable_it_no_longer_has(self):
        d = partial(parse("x*y/(1+z^2)"), X)
        assert d is canonicalize(parse("y/(z^2+1)"))
        assert d._rf[0] == (Y, Z)


class TestSubstitute:
    def test_rename(self):
        assert expr_equal(substitute(parse("x+y"), {X: Var(Y)}), parse("2*y"))

    def test_identity(self):
        assert expr_equal(substitute(parse("x"), {X: Var(X)}), parse("x"))

    def test_simultaneous_swap(self):
        swapped = substitute(parse("x*y"), {X: Var(Y), Y: Var(X)})
        assert expr_equal(swapped, parse("x*y"))


class TestEvalNumeric:
    def test_square(self):
        assert eval_numeric(parse("x^2"), {X: 3.0}) == 9.0

    def test_sin_zero(self):
        assert eval_numeric(parse("sin(x)"), {X: 0.0}) == 0.0

    def test_matches_canonical_form(self):
        e = parse("(x^2-y^2)/(x-y)")
        point = {X: 2.0, Y: 1.0}
        assert eval_numeric(e, point) == 3.0
        assert eval_numeric(canonicalize(e), point) == 3.0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_numeric(parse("x+y"), {X: 1.0})

    def test_division_domain_guard(self):
        with pytest.raises(EvaluationDomainError):
            eval_numeric(parse("1/x"), {X: 0.0})


def test_constant_too_long_to_print_is_an_expression_error():
    assert str(Const(10 ** 4000)) == "1" + "0" * 4000
    with pytest.raises(ExprError, match="too long to print"):
        str(Const(10 ** 5000) * Var(X))


@pytest.mark.parametrize("text, terms", [("(1+x)^9", 10), ("(1+x+y)^3", 10), ("x^500*y", 1),
                                         ("1/(x+y)^9", 10)])
def test_power_of_a_sum_expands_up_to_the_bound(monkeypatch, text, terms):
    # the bound is on the terms C(n + t - 1, t - 1) a power may have
    monkeypatch.setattr(expr, "MAX_POWER_TERMS", 10)
    _, num, den = canonicalize(parse(text))._rf
    assert max(len(num), len(den)) == terms


@pytest.mark.parametrize("text", ["(1+x)^10", "(1+x+y)^4", "1/(x+y)^10", "(x+y)^" + "9" * 30])
def test_power_of_a_sum_past_the_bound_is_an_expression_error(monkeypatch, text):
    monkeypatch.setattr(expr, "MAX_POWER_TERMS", 10)
    with pytest.raises(ExprError, match="too large to expand"):
        canonicalize(parse(text))


# ---------------------------------------------------------------------------
# randomized structural invariants

def random_expr(rng, depth=3, variables=VARS):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        if rng.random() < 0.4:
            return Const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return Var(variables[rng.randrange(len(variables))])
    if roll < 0.6:
        return (random_expr(rng, depth - 1, variables)
                + random_expr(rng, depth - 1, variables))
    if roll < 0.8:
        return (random_expr(rng, depth - 1, variables)
                * random_expr(rng, depth - 1, variables))
    if roll < 0.9:
        return random_expr(rng, depth - 1, variables) ** rng.randint(0, 3)
    return Quot(random_expr(rng, depth - 1, variables),
                Const(Fraction(rng.choice((1, 2, 3, -2)))))


def test_idempotence_bulk():
    rng = random.Random(91)
    for _ in range(1000):
        e = random_expr(rng)
        c = canonicalize(e)
        assert canonicalize(c) == c


def test_soundness_at_random_points():
    rng = random.Random(17)
    for _ in range(200):
        a, b = random_expr(rng), random_expr(rng)
        if not expr_equal(a, b):
            continue
        checked = 0
        while checked < 10:
            pt = {v: rng.uniform(-2, 2) for v in VARS}
            try:
                va, vb = eval_numeric(a, pt), eval_numeric(b, pt)
            except EvaluationDomainError:
                continue
            checked += 1
            assert abs(va - vb) <= 1e-9 * (1 + abs(va))


@st.composite
def expr_strategy(draw, depth=3):
    if depth == 0:
        leaf = draw(st.integers(0, 5))
        if leaf <= 1:
            return Const(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
        return Var(VARS[leaf - 2])
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(expr_strategy(depth=depth - 1))
    if kind == 1:
        return draw(expr_strategy(depth=depth - 1)) + draw(expr_strategy(depth=depth - 1))
    if kind == 2:
        return draw(expr_strategy(depth=depth - 1)) * draw(expr_strategy(depth=depth - 1))
    return draw(expr_strategy(depth=depth - 1)) ** draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(expr_strategy())
def test_idempotence_property(e):
    c = canonicalize(e)
    assert canonicalize(c) == c


@settings(max_examples=100, deadline=None, derandomize=True)
@given(expr_strategy(), expr_strategy())
def test_leibniz_rule(a, b):
    lhs = partial(a * b, X)
    rhs = partial(a, X) * b + a * partial(b, X)
    assert expr_equal(lhs, rhs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(expr_strategy())
def test_commuting_partials(e):
    assert expr_equal(partial(partial(e, X), Y), partial(partial(e, Y), X))


ABSENT = VarId("u", 4)


def tree_partial(e, v):
    """The derivative of ``e`` along ``v`` built as a tree by the rules of
    calculus, node by node: the reference route for ``partial``."""
    return expr._walk(e, _tree_partial_node, v)


def _tree_partial_node(e, kids, ds, v):
    if isinstance(e, Var):
        return ONE if e.var == v else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(ds))
    if isinstance(e, Prod):
        terms = [Prod(kids[:i] + (df,) + kids[i + 1:]) for i, df in enumerate(ds) if df != ZERO]
        return Sum(tuple(terms)) if terms else ZERO
    if isinstance(e, Pow):
        if e.exponent == 0 or ds[0] == ZERO:
            return ZERO
        return Prod((Const(e.exponent), Pow(kids[0], e.exponent - 1), ds[0]))
    if isinstance(e, Quot):
        (n, d), (dn, dd) = kids, ds
        return Quot(Sum((Prod((dn, d)), Prod((MINUS_ONE, n, dd)))), Pow(d, 2))
    if isinstance(e, Call):
        if ds[0] == ZERO:
            return ZERO
        outer = {"sin": Call("cos", kids[0]), "cos": Prod((MINUS_ONE, Call("sin", kids[0]))),
                 "exp": e}[e.func]
        return Prod((outer, ds[0]))
    return ZERO


# trig trees of few leaves: the reference route squares every
# denominator, and on a larger tree with a quotient inside a call its
# canonicalization can pass the product bound
SMALL_TRIG = st.recursive(LEAVES, _branches, max_leaves=5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(expr_strategy(), SMALL_TRIG), expr_strategy(),
       st.sampled_from(["plain", "quotient", "repeated", "cancelled"]))
def test_ring_partial_is_the_tree_partial(a, b, shape):
    if shape == "quotient":
        # b*b + 1 is never the zero polynomial
        e = a / (b * b + 1)
    elif shape == "repeated":
        # repeated factors, so gcd(d, dd/dv) != 1, and one free of x
        e = a / ((Var(X) * Var(X) + 1) ** 2 * (Var(Y) + 1) ** 3)
    elif shape == "cancelled":
        e = a + Var(Y) - Var(Y)
    else:
        e = a
    c = canonicalize(e)
    for v in (*VARS, ABSENT):
        d = partial(c, v)
        assert d is canonicalize(tree_partial(c, v))
        assert partial(e, v) is d


# ---------------------------------------------------------------------------
# interned nodes

class TestInterning:
    def test_equal_structure_is_one_object_across_routes(self):
        parsed = parse("x*y + 2")
        assert parsed is Var(X) * Var(Y) + 2
        # a canonical form is its own node, not the parsed sum
        canonical = canonicalize(parsed)
        assert canonicalize(parse("2 + y*x")) is canonical
        assert substitute(parse("z*y + 2"), {Z: Var(X)}) is canonical
        assert str(canonical) == str(canonicalize(parse("2 + y*x"))) == "x*y + 2"
        assert parse("x^2 + 3/2*y") is Sum((Pow(Var(X), 2),
                                            Prod((Const(Fraction(3, 2)), Var(Y)))))

    def test_const_normalizes_to_one_object(self):
        assert Const(1) is Const(Fraction(1)) is Const(Fraction(2, 2)) is ONE
        assert Const(Fraction(-4, 6)) is Const(Fraction(-2, 3))

    def test_invalid_call_raises_and_leaves_no_entry(self):
        arg = Var(VarId("never_called", 0))
        before = kernel_stats()["nodes"]
        with pytest.raises(ValueError):
            Call("tan", arg)
        assert kernel_stats()["nodes"] == before

    def test_threads_build_identical_objects(self):
        # more threads than cores, switching often, on variables no other
        # test uses, so the nodes and the derivative memos are new
        fresh = [VarId(f"thread_{i}", i) for i in range(4)]
        results = [None] * 4
        barrier = threading.Barrier(len(results))

        def build(slot):
            rng = random.Random(4242)
            barrier.wait()
            exprs = [random_expr(rng, 4, fresh) for _ in range(1000)]
            results[slot] = exprs + [partial(e, fresh[0]) for e in exprs[:200]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        first = results[0]
        assert len(first) == 1200
        for other in results[1:]:
            assert all(a is b for a, b in zip(first, other, strict=True))

    @pytest.mark.parametrize("suite", ["jets", "lifts"])
    def test_repeated_work_in_one_scope_adds_no_node_and_no_work(self, suite):
        def work():
            for check_name, check in CHECKS[suite]:
                check(random.Random(f"77:{check_name}"), 3)

        size = len(expr._TABLE)
        with expr.scope():
            work()
            before, first = kernel_stats(), len(expr._TABLE)
            work()
            after, second = kernel_stats(), len(expr._TABLE)
        assert second == first and len(expr._TABLE) == size
        for counter in ("nodes", "canonicalize_computed", "partial_computed"):
            assert after[counter] == before[counter]
        assert after["canonicalize_calls"] > before["canonicalize_calls"]
        assert after["partial_calls"] > before["partial_calls"]

    @pytest.mark.parametrize("suite", SUITES)
    def test_run_suite_leaves_the_table_as_it_found_it(self, suite):
        size = len(expr._TABLE)
        run_suite(suite, 1, 3, 77)
        assert len(expr._TABLE) == size


def _memos(node):
    """Every memo slot of ``node``, with a copy of its ``_d`` entries."""
    tree = node._tree if type(node) in expr._CANONICAL else None
    return node._canon, node._rf, tree, node._d is None, dict(node._d or {})


class TestScope:
    """``expr.scope`` pops the table to its size on entry and undoes the
    memo writes made inside it on older nodes."""

    def test_memos_of_older_nodes_are_restored(self):
        a, b, c = (VarId(f"scope_memo_{i}", i) for i in range(3))
        plain = Var(a) + Var(b)                 # no canonical form yet
        lone = Var(c)                           # not a canonical form yet
        fresh = canonicalize(Var(a) * Var(b) + Var(c))  # _d and _tree unset
        known = canonicalize(Var(a) * Var(b) + 1)
        known_da = partial(known, a)            # one _d entry
        older = [plain, lone, fresh, known]
        before = [_memos(n) for n in older]
        size = len(expr._TABLE)
        with expr.scope():
            canonicalize(plain)
            canonicalize(lone)
            partial(fresh, a)
            partial(known, b)
            fresh.terms
            known.terms
            assert len(expr._TABLE) > size
        assert len(expr._TABLE) == size
        assert [_memos(n) for n in older] == before
        assert plain._canon is None and lone._canon is lone._rf is None
        assert fresh._d is None and fresh._tree is None and known._tree is None
        assert known._d == {a: known_da}

    def test_an_error_inside_restores_table_and_memos(self):
        a, b = VarId("scope_error_a", 0), VarId("scope_error_b", 1)
        node = canonicalize(Var(a) * Var(b) + Var(a))
        size, before = len(expr._TABLE), _memos(node)
        with pytest.raises(SymbolicDivisionError):
            with expr.scope():
                partial(node, a)
                canonicalize(node / (Var(b) - Var(b)))
        assert len(expr._TABLE) == size
        assert _memos(node) == before

    def test_nested_scopes_restore_in_order(self):
        a, b = VarId("scope_nest_a", 0), VarId("scope_nest_b", 1)
        node = canonicalize(Var(a) * Var(b) + Var(b))
        size, before = len(expr._TABLE), _memos(node)
        with expr.scope():
            d_a = partial(node, a)
            outer_size, outer = len(expr._TABLE), _memos(node)
            with expr.scope():
                partial(node, b)
                node.terms
                assert partial(node, a) is d_a
                canonicalize(Var(a) * Var(b) * Var(b) + 1)
                assert len(expr._TABLE) > outer_size
            assert len(expr._TABLE) == outer_size
            assert _memos(node) == outer and node._d == {a: d_a}
        assert len(expr._TABLE) == size
        assert _memos(node) == before


def _interned_key(node):
    """The intern-table key of ``node``."""
    if type(node) in expr._CANONICAL:
        axes, num, den = node._rf
        return ("canonical", axes, frozenset(num.items()), frozenset(den.items()))
    if type(node) is Const:
        return ("Const", node.value.numerator, node.value.denominator)
    return (type(node).__name__, *(getattr(node, s) for s in type(node).__slots__))


def test_no_node_escapes_a_verify_trial():
    for suite in SUITES:
        run_suite(suite, 2, 3, 0)
    gc.collect()
    strays = [o for o in gc.get_objects()
              if isinstance(o, expr.Expr) and expr._TABLE.get(_interned_key(o)) is not o]
    assert strays == []


POINTS = st.fixed_dictionaries({
    v: st.fractions(min_value=-5, max_value=5, max_denominator=7) for v in VARS})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(expr_strategy(), expr_strategy(), POINTS)
def test_canonical_subtrees_reuse_their_rational_function(a, b, point):
    # canonical operands make canonicalize re-index their stored
    # polynomials instead of walking them
    ca, cb = canonicalize(a), canonicalize(b)
    assert canonicalize(ca * cb - cb * ca) is ZERO
    va, vb = exact_eval(a, point), exact_eval(b, point)
    assert exact_eval(canonicalize(ca + cb), point) == va + vb
    assert exact_eval(canonicalize(ca * cb), point) == va * vb
    # and with a denominator, which never vanishes at a rational point
    den = canonicalize(cb * cb + 1)
    q = canonicalize(ca / den)
    assert exact_eval(q, point) == va / (vb * vb + 1)
    assert canonicalize(q * den - ca) is ZERO


# ---------------------------------------------------------------------------
# the rational-function evaluator behind canonicalize

@st.composite
def mixed_tree(draw, depth=3):
    """A tree built with + - * / ** over canonical nodes, fractional
    constants and variables, with nested quotients and negative powers."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        leaf = draw(st.integers(0, 2))
        if leaf == 0:
            return Const(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))))
        if leaf == 1:
            return Var(draw(st.sampled_from(VARS)))
        return canonicalize(draw(expr_strategy(depth=2)))
    a = draw(mixed_tree(depth=depth - 1))
    op = draw(st.sampled_from("+-*/^"))
    if op == "^":
        return a ** draw(st.integers(-2, 3))
    b = draw(mixed_tree(depth=depth - 1))
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[op]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mixed_tree(), st.lists(POINTS, min_size=4, max_size=4))
def test_canonical_form_agrees_with_exact_evaluation(e, points):
    try:
        c = canonicalize(e)
    except SymbolicDivisionError:
        # only a denominator that vanishes identically may raise, and
        # then the tree has no value anywhere
        for point in points:
            with pytest.raises(ZeroDivisionError):
                exact_eval(e, point)
        return
    for point in points:
        try:
            want = exact_eval(e, point)
        except ZeroDivisionError:
            continue
        assert exact_eval(c, point) == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mixed_tree(depth=2), mixed_tree(depth=2), mixed_tree(depth=2))
def test_canonical_form_is_independent_of_tree_shape(a, b, c):
    try:
        left = canonicalize(a + b + c)
    except SymbolicDivisionError:
        with pytest.raises(SymbolicDivisionError):
            canonicalize(a + (b + c))
        return
    assert canonicalize(a + (b + c)) is left
    assert canonicalize(Sum((c, Sum((b, a))))) is left
    product = canonicalize(a * b * c)
    assert canonicalize(a * (b * c)) is product
    assert canonicalize(Prod((c, Prod((b, a))))) is product


@pytest.mark.parametrize("text", [
    "x + 1/(y-y)", "x + (y-y)^-1", "1/(y-y) + 1/x", "x*(y-y)^-1",
    "0*(1/(y-y))", "0*(y-y)^-1", "x*y/(x + 1/(y-y))", "((y-y)^-1)^0",
    "(x^2 - y)*(x + (y-y)^-2)",
])
def test_sums_and_products_with_a_zero_denominator_raise(text):
    with pytest.raises(SymbolicDivisionError):
        canonicalize(parse(text))


def test_zero_denominator_beside_canonical_terms_raises():
    cx = canonicalize(parse("x^2 + 3*y + 1"))
    bad = Quot(ONE, parse("y-y"))
    for e in (Sum((cx, bad)), Prod((ZERO, cx, bad)), Sum((cx, Pow(parse("y-y"), -1)))):
        with pytest.raises(SymbolicDivisionError):
            canonicalize(e)


def test_evaluator_counts_a_canonical_subtree_as_one_node():
    u, v = VarId("ratfunc_u", 0), VarId("ratfunc_v", 1)
    a = canonicalize(Var(u) ** 2 + 3 * Var(v) + 1)
    b = canonicalize(Var(u) * Var(v) - Const(Fraction(1, 2)))
    before = kernel_stats()["ratfunc_nodes"]
    canonicalize(Sum((a, b)))
    assert kernel_stats()["ratfunc_nodes"] - before <= 3
    # a product of a constant, variables and powers of variables is one node
    before = kernel_stats()["ratfunc_nodes"]
    canonicalize(Prod((Const(-5), Var(u), Pow(Var(v), 3), Var(u))))
    assert kernel_stats()["ratfunc_nodes"] - before == 1


def test_equal_factors_of_a_product_expand_once(monkeypatch):
    # the interned factor (1 + u + v)^7 appears twice; its power is taken once
    # and the product is that expansion squared
    u, v = VarId("ratfunc_u", 0), VarId("ratfunc_v", 1)
    f = Pow(Sum((ONE, Var(u), Var(v))), 7)
    calls = []
    power = poly.power
    monkeypatch.setattr(poly, "power", lambda p, n: calls.append(n) or power(p, n))
    got = canonicalize(Prod((f, Const(3), f)))
    assert calls == [7]
    assert expr_equal(got, canonicalize(Pow(Sum((ONE, Var(u), Var(v))), 14) * 3))


# ---------------------------------------------------------------------------
# walks over deep and shared trees

def test_deep_numeric_chain_needs_no_recursion():
    e = Var(X)
    for _ in range(5000):
        e = Sum((Call("sin", e), Var(X)))
    v = 0.3
    for _ in range(5000):
        v = math.sin(v) + 0.3
    # the expanded derivative of that chain has 5,000 terms over 5,000
    # atoms, so partial is checked on a tower of sines instead
    tower, t, dt = Var(X), 0.3, 1.0
    for _ in range(1200):
        tower = Call("sin", tower)
        t, dt = math.sin(t), math.cos(t) * dt
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert not is_rational(e)
        assert free_vars(e) == frozenset({X})
        assert canonicalize(canonicalize(e)) is canonicalize(e)
        assert eval_numeric(e, {X: 0.3}) == eval_numeric(canonicalize(e), {X: 0.3}) == v
        assert math.isclose(eval_numeric(partial(tower, X), {X: 0.3}), dt, rel_tol=1e-12)
        renamed = substitute(e, {X: Var(Y)})
        assert free_vars(renamed) == frozenset({Y})
        assert substitute(renamed, {Y: Var(X)}) is canonicalize(e)
    finally:
        sys.setrecursionlimit(limit)


def test_shared_chain_is_walked_once_per_distinct_node():
    # 60 levels of e = sin(e)*cos(e): 2^60 leaves as a tree, 181 distinct nodes
    e = Var(X)
    for level in range(60):
        e = Prod((Call("sin", e), Call("cos", e)))
        if level == 9:
            tenth = e
    v, dv = 0.3, 1.0
    for level in range(60):
        s, c = math.sin(v), math.cos(v)
        v, dv = s * c, (c * c - s * s) * dv
        if level == 9:
            tenth_dv = dv
    assert canonicalize(canonicalize(e)) is canonicalize(e)
    assert eval_numeric(e, {X: 0.3}) == v
    # the expanded derivative has 2^k terms at level k: partial is checked
    # at the tenth, and refuses the sixtieth as too large to expand
    assert math.isclose(eval_numeric(partial(tenth, X), {X: 0.3}), tenth_dv, rel_tol=1e-12)
    with pytest.raises(ExprError, match="chain rule is too large to expand"):
        partial(e, X)
    assert substitute(substitute(e, {X: Var(Y)}), {Y: Var(X)}) is canonicalize(e)


# ---------------------------------------------------------------------------
# trees that mix canonical operands with variables, constants and calls

_A = canonicalize(parse("x^2 + 3*y + 1"))
_P = canonicalize(parse("-2*x*y"))
_Q = canonicalize(parse("(x+1)/(y^2+2)"))
_N = canonicalize(parse("-x"))
_H = canonicalize(Const(Fraction(1, 2)))
_S = canonicalize(parse("x - y"))
_T = canonicalize(parse("exp(sin(x))/(2 + cos(y)) + x*sin(x)"))


def _mixed(name):
    x, y, a, p, q, n, h, s = Var(X), Var(Y), _A, _P, _Q, _N, _H, _S
    return {
        "y*n": y * n, "n*y": n * y,
        "a+y": a + y, "y+a": y + a, "a+a": a + a,
        "a+s": a + s, "s-a": s - a,
        "a*y": a * y, "y*a": y * a,
        "p*y": p * y, "y*p": y * p, "p*a": p * a, "a*p": a * p,
        "-a": -a, "-p": -p, "-q": -q, "y-a": y - a, "a-p": a - p,
        "q+x": q + x, "x+q": x + q, "q*a": q * a,
        "a/q": a / q, "q/a": q / a, "p/s": p / s,
        "sin(a)*p": Call("sin", a) * p, "p*sin(a)": p * Call("sin", a),
        "cos(q)+a": Call("cos", q) + a, "a+sin(p)*s": a + Call("sin", p) * s,
        "a^2": a ** 2, "p^2": p ** 2, "q^-1": q ** -1, "s^3*y": s ** 3 * y,
        "2*a": 2 * a, "a*1/2": a * Fraction(1, 2), "a-1": a - 1, "1-a": 1 - a,
        "n*n": n * n, "n+n": n + n, "h*x": h * x, "x/h": x / h,
        "h+a": h + a, "(a+y)*(p-x)": (a + y) * (p - x), "(y+a)+(s+x)": (y + a) + (s + x),
        "exp(s)*(q+p)": Call("exp", s) * (q + p),
    }[name]


# (case, str(), compile_numeric and eval_numeric at _POINTS as float.hex;
# compile_numeric adds a sum's terms left to right, eval_numeric with fsum)
_MIXED = [
    ("y*n", "y*(-1)*x",
     ["-0x1.51eb851eb851fp-2", "0x1.87ae147ae147bp-1", "0x1.9851eb851eb85p+2"],
     ["-0x1.51eb851eb851fp-2", "0x1.87ae147ae147bp-1", "0x1.9851eb851eb85p+2"]),
    ("n*y", "-x*y",
     ["-0x1.51eb851eb851fp-2", "0x1.87ae147ae147bp-1", "0x1.9851eb851eb85p+2"],
     ["-0x1.51eb851eb851fp-2", "0x1.87ae147ae147bp-1", "0x1.9851eb851eb85p+2"]),
    ("a+y", "x^2 + 3*y + 1 + y",
     ["0x1.5f5c28f5c28f6p+2", "0x1.6c28f5c28f5c3p+2", "0x1.3851eb851eb80p-1"],
     ["0x1.5f5c28f5c28f6p+2", "0x1.6c28f5c28f5c2p+2", "0x1.3851eb851eb80p-1"]),
    ("y+a", "y + x^2 + 3*y + 1",
     ["0x1.5f5c28f5c28f6p+2", "0x1.6c28f5c28f5c2p+2", "0x1.3851eb851eb80p-1"],
     ["0x1.5f5c28f5c28f6p+2", "0x1.6c28f5c28f5c2p+2", "0x1.3851eb851eb80p-1"]),
    ("a+a", "x^2 + 3*y + 1 + x^2 + 3*y + 1",
     ["0x1.18f5c28f5c290p+3", "0x1.4f5c28f5c28f5p+3", "0x1.67ae147ae1479p+2"],
     ["0x1.18f5c28f5c290p+3", "0x1.4f5c28f5c28f6p+3", "0x1.67ae147ae147ap+2"]),
    ("a+s", "x^2 + 3*y + 1 + x - y",
     ["0x1.cb851eb851eb9p+1", "0x1.8b851eb851eb8p+1", "0x1.fa3d70a3d70a3p+2"],
     ["0x1.cb851eb851eb9p+1", "0x1.8b851eb851eb8p+1", "0x1.fa3d70a3d70a4p+2"]),
    ("s-a", "x - y - (x^2 + 3*y + 1)",
     ["-0x1.4c28f5c28f5c3p+2", "-0x1.d8f5c28f5c290p+2", "0x1.251eb851eb852p+1"],
     ["-0x1.4c28f5c28f5c3p+2", "-0x1.d8f5c28f5c290p+2", "0x1.251eb851eb853p+1"]),
    ("a*y", "(x^2 + 3*y + 1)*y",
     ["0x1.350e560418938p+2", "0x1.2dd2f1a9fbe77p+1", "-0x1.8ba5e353f7cedp+2"],
     ["0x1.350e560418938p+2", "0x1.2dd2f1a9fbe77p+1", "-0x1.8ba5e353f7cedp+2"]),
    ("y*a", "y*(x^2 + 3*y + 1)",
     ["0x1.350e560418938p+2", "0x1.2dd2f1a9fbe77p+1", "-0x1.8ba5e353f7cedp+2"],
     ["0x1.350e560418938p+2", "0x1.2dd2f1a9fbe77p+1", "-0x1.8ba5e353f7cedp+2"]),
    ("p*y", "(-2)*x*y*y",
     ["-0x1.73b645a1cac09p-1", "0x1.6083126e978d5p-1", "-0x1.c126e978d4fe0p+4"],
     ["-0x1.73b645a1cac09p-1", "0x1.6083126e978d5p-1", "-0x1.c126e978d4fe0p+4"]),
    ("y*p", "y*(-2)*x*y",
     ["-0x1.73b645a1cac09p-1", "0x1.6083126e978d5p-1", "-0x1.c126e978d4fe0p+4"],
     ["-0x1.73b645a1cac09p-1", "0x1.6083126e978d5p-1", "-0x1.c126e978d4fe0p+4"]),
    ("p*a", "(-2)*x*y*(x^2 + 3*y + 1)",
     ["-0x1.72de00d1b7177p+1", "0x1.008ce703afb7fp+3", "0x1.1ed844d013a92p+5"],
     ["-0x1.72de00d1b7177p+1", "0x1.008ce703afb7fp+3", "0x1.1ed844d013a92p+5"]),
    ("a*p", "(x^2 + 3*y + 1)*(-2)*x*y",
     ["-0x1.72de00d1b7177p+1", "0x1.008ce703afb7ep+3", "0x1.1ed844d013a93p+5"],
     ["-0x1.72de00d1b7177p+1", "0x1.008ce703afb7ep+3", "0x1.1ed844d013a93p+5"]),
    ("-a", "-(x^2 + 3*y + 1)",
     ["-0x1.18f5c28f5c290p+2", "-0x1.4f5c28f5c28f6p+2", "-0x1.67ae147ae147ap+1"],
     ["-0x1.18f5c28f5c290p+2", "-0x1.4f5c28f5c28f6p+2", "-0x1.67ae147ae147ap+1"]),
    ("-p", "-(-2)*x*y",
     ["0x1.51eb851eb851fp-1", "-0x1.87ae147ae147bp+0", "-0x1.9851eb851eb85p+3"],
     ["0x1.51eb851eb851fp-1", "-0x1.87ae147ae147bp+0", "-0x1.9851eb851eb85p+3"]),
    ("-q", "-(x + 1)/(y^2 + 2)",
     ["-0x1.9eb43c9c4fc04p-2", "0x1.4572c7564d4b3p-2", "-0x1.23ee08fb823edp-1"],
     ["-0x1.9eb43c9c4fc04p-2", "0x1.4572c7564d4b3p-2", "-0x1.23ee08fb823edp-1"]),
    ("y-a", "y - (x^2 + 3*y + 1)",
     ["-0x1.a51eb851eb853p+1", "-0x1.328f5c28f5c29p+2", "-0x1.40a3d70a3d70ap+2"],
     ["-0x1.a51eb851eb853p+1", "-0x1.328f5c28f5c29p+2", "-0x1.40a3d70a3d70ap+2"]),
    ("a-p", "x^2 + 3*y + 1 - (-2)*x*y",
     ["0x1.4333333333334p+2", "0x1.dae147ae147aep+1", "-0x1.3e66666666666p+3"],
     ["0x1.4333333333334p+2", "0x1.dae147ae147aep+1", "-0x1.3e66666666666p+3"]),
    ("q+x", "(x + 1)/(y^2 + 2) + x",
     ["0x1.68f3b7e7c179cp-1", "-0x1.0247f28463430p+1", "0x1.bc2eb57213c2ep+1"],
     ["0x1.68f3b7e7c179cp-1", "-0x1.0247f28463430p+1", "0x1.bc2eb57213c2ep+1"]),
    ("x+q", "x + (x + 1)/(y^2 + 2)",
     ["0x1.68f3b7e7c179cp-1", "-0x1.0247f28463430p+1", "0x1.bc2eb57213c2ep+1"],
     ["0x1.68f3b7e7c179cp-1", "-0x1.0247f28463430p+1", "0x1.bc2eb57213c2ep+1"]),
    ("q*a", "((x + 1)/(y^2 + 2))*(x^2 + 3*y + 1)",
     ["0x1.c7233ff5caba2p+0", "-0x1.aa565c2bef7ebp+0", "0x1.9a2951bd87a27p+0"],
     ["0x1.c7233ff5caba2p+0", "-0x1.aa565c2bef7ebp+0", "0x1.9a2951bd87a27p+0"]),
    ("a/q", "(x^2 + 3*y + 1)/((x + 1)/(y^2 + 2))",
     ["0x1.5ae0a65c514a3p+3", "-0x1.07cbec1aeaa48p+4", "0x1.3b6964aac58dap+2"],
     ["0x1.5ae0a65c514a3p+3", "-0x1.07cbec1aeaa48p+4", "0x1.3b6964aac58dap+2"]),
    ("q/a", "((x + 1)/(y^2 + 2))/(x^2 + 3*y + 1)",
     ["0x1.79dcca2d9f8dep-4", "-0x1.f0de22a6ef2a7p-5", "0x1.9f8ef7d52a5efp-3"],
     ["0x1.79dcca2d9f8dep-4", "-0x1.f0de22a6ef2a7p-5", "0x1.9f8ef7d52a5efp-3"]),
    ("p/s", "((-2)*x*y)/(x - y)",
     ["0x1.a666666666666p-1", "-0x1.6c5a7e36c5a7fp-1", "0x1.4040404040404p+1"],
     ["0x1.a666666666666p-1", "-0x1.6c5a7e36c5a7fp-1", "0x1.4040404040404p+1"]),
    ("sin(a)*p", "sin(x^2 + 3*y + 1)*(-2)*x*y",
     ["0x1.4082c200bb9c4p-1", "-0x1.526a95873f091p+0", "0x1.09db4ab28294bp+2"],
     ["0x1.4082c200bb9c4p-1", "-0x1.526a95873f091p+0", "0x1.09db4ab28294bp+2"]),
    ("p*sin(a)", "(-2)*x*y*sin(x^2 + 3*y + 1)",
     ["0x1.4082c200bb9c5p-1", "-0x1.526a95873f091p+0", "0x1.09db4ab28294ap+2"],
     ["0x1.4082c200bb9c5p-1", "-0x1.526a95873f091p+0", "0x1.09db4ab28294ap+2"]),
    ("cos(q)+a", "cos((x + 1)/(y^2 + 2)) + x^2 + 3*y + 1",
     ["0x1.53c86f298f633p+2", "0x1.8c27a0cf8664dp+2", "0x1.d36e637542beap+1"],
     ["0x1.53c86f298f633p+2", "0x1.8c27a0cf8664dp+2", "0x1.d36e637542be8p+1"]),
    ("a+sin(p)*s", "x^2 + 3*y + 1 + sin((-2)*x*y)*(x - y)",
     ["0x1.385a0154ee33ap+2", "0x1.8bbfbd3fc18cdp+1", "0x1.e54afb37da803p+1"],
     ["0x1.385a0154ee339p+2", "0x1.8bbfbd3fc18ccp+1", "0x1.e54afb37da803p+1"]),
    ("a^2", "(x^2 + 3*y + 1)^2",
     ["0x1.345a858793ddbp+4", "0x1.b7525460aa64dp+4", "0x1.f959b3d07c849p+2"],
     ["0x1.345a858793ddbp+4", "0x1.b7525460aa64dp+4", "0x1.f959b3d07c849p+2"]),
    ("p^2", "((-2)*x*y)^2",
     ["0x1.be0ded288ce71p-2", "0x1.2ba29c779a6b5p+1", "0x1.45a29c779a6b5p+7"],
     ["0x1.be0ded288ce71p-2", "0x1.2ba29c779a6b5p+1", "0x1.45a29c779a6b5p+7"]),
    ("q^-1", "((x + 1)/(y^2 + 2))^-1",
     ["0x1.3c0fc0fc0fc0fp+1", "-0x1.92be2be2be2c0p+1", "0x1.c0fc0fc0fc0fep+0"],
     ["0x1.3c0fc0fc0fc0fp+1", "-0x1.92be2be2be2c0p+1", "0x1.c0fc0fc0fc0fep+0"]),
    ("s^3*y", "(x - y)^3*y",
     ["-0x1.205bc01a36e30p-1", "-0x1.1e39a6b50b0f2p+2", "-0x1.23d50b0f27bb3p+8"],
     ["-0x1.205bc01a36e30p-1", "-0x1.1e39a6b50b0f2p+2", "-0x1.23d50b0f27bb3p+8"]),
    ("2*a", "2*(x^2 + 3*y + 1)",
     ["0x1.18f5c28f5c290p+3", "0x1.4f5c28f5c28f6p+3", "0x1.67ae147ae147ap+2"],
     ["0x1.18f5c28f5c290p+3", "0x1.4f5c28f5c28f6p+3", "0x1.67ae147ae147ap+2"]),
    ("a*1/2", "(x^2 + 3*y + 1)*(1/2)",
     ["0x1.18f5c28f5c290p+1", "0x1.4f5c28f5c28f6p+1", "0x1.67ae147ae147ap+0"],
     ["0x1.18f5c28f5c290p+1", "0x1.4f5c28f5c28f6p+1", "0x1.67ae147ae147ap+0"]),
    ("a-1", "x^2 + 3*y + 1 - 1",
     ["0x1.b1eb851eb8520p+1", "0x1.0f5c28f5c28f6p+2", "0x1.cf5c28f5c28f4p+0"],
     ["0x1.b1eb851eb851fp+1", "0x1.0f5c28f5c28f6p+2", "0x1.cf5c28f5c28f4p+0"]),
    ("1-a", "1 - (x^2 + 3*y + 1)",
     ["-0x1.b1eb851eb8520p+1", "-0x1.0f5c28f5c28f6p+2", "-0x1.cf5c28f5c28f4p+0"],
     ["-0x1.b1eb851eb8520p+1", "-0x1.0f5c28f5c28f6p+2", "-0x1.cf5c28f5c28f4p+0"]),
    ("n*n", "-x*(-1)*x",
     ["0x1.70a3d70a3d70ap-4", "0x1.71eb851eb851ep+1", "0x1.0d1eb851eb852p+3"],
     ["0x1.70a3d70a3d70ap-4", "0x1.71eb851eb851ep+1", "0x1.0d1eb851eb852p+3"]),
    ("n+n", "-x - x",
     ["-0x1.3333333333333p-1", "0x1.b333333333333p+1", "-0x1.7333333333333p+2"],
     ["-0x1.3333333333333p-1", "0x1.b333333333333p+1", "-0x1.7333333333333p+2"]),
    ("h*x", "(1/2)*x",
     ["0x1.3333333333333p-3", "-0x1.b333333333333p-1", "0x1.7333333333333p+0"],
     ["0x1.3333333333333p-3", "-0x1.b333333333333p-1", "0x1.7333333333333p+0"]),
    ("x/h", "x/(1/2)",
     ["0x1.3333333333333p-1", "-0x1.b333333333333p+1", "0x1.7333333333333p+2"],
     ["0x1.3333333333333p-1", "-0x1.b333333333333p+1", "0x1.7333333333333p+2"]),
    ("h+a", "1/2 + x^2 + 3*y + 1",
     ["0x1.38f5c28f5c290p+2", "0x1.6f5c28f5c28f6p+2", "0x1.a7ae147ae147ap+1"],
     ["0x1.38f5c28f5c290p+2", "0x1.6f5c28f5c28f6p+2", "0x1.a7ae147ae147ap+1"]),
    ("(a+y)*(p-x)", "(x^2 + 3*y + 1 + y)*((-2)*x*y - x)",
     ["-0x1.514e3bcd35a86p+2", "0x1.260f27bb2fec6p+4", "0x1.80ef34d6a1618p+2"],
     ["-0x1.514e3bcd35a86p+2", "0x1.260f27bb2fec5p+4", "0x1.80ef34d6a1618p+2"]),
    ("(y+a)+(s+x)", "y + x^2 + 3*y + 1 + x - y + x",
     ["0x1.3f5c28f5c28f5p+2", "0x1.d70a3d70a3d6dp+0", "0x1.13851eb851eb8p+3"],
     ["0x1.3f5c28f5c28f6p+2", "0x1.d70a3d70a3d70p+0", "0x1.13851eb851eb8p+3"]),
    ("exp(s)*(q+p)", "exp(x - y)*((x + 1)/(y^2 + 2) + (-2)*x*y)",
     ["-0x1.d5580238e623fp-4", "0x1.212d4d8b29d7ap-3", "0x1.114e1b08c5715p+11"],
     ["-0x1.d5580238e623fp-4", "0x1.212d4d8b29d7ap-3", "0x1.114e1b08c5715p+11"]),
]
_POINTS = ([0.3, -1.7, 2.9], [1.1, 0.45, -2.2])


@pytest.mark.parametrize("name, text, compiled, evaluated", _MIXED,
                         ids=[case[0] for case in _MIXED])
def test_mixed_canonical_trees_print_and_evaluate_as_pinned(name, text, compiled, evaluated):
    e = _mixed(name)
    assert str(e) == text
    xs, ys = (np.array(p) for p in _POINTS)
    got = compile_numeric(e, {X: xs, Y: ys})
    assert [float(v).hex() for v in got] == compiled
    assert [eval_numeric(e, {X: u, Y: v}).hex() for u, v in zip(*_POINTS)] == evaluated


@pytest.mark.parametrize("c", [_A, _P, _Q, _N, _H, _S, _T], ids="APQNHST")
def test_canonical_node_survives_copy_and_pickle(c):
    assert copy.deepcopy(c) is c
    assert copy.copy(c) is c
    assert pickle.loads(pickle.dumps(c)) is c
    assert canonicalize(pickle.loads(pickle.dumps(c))) is c
    mixed = Var(Y) * c + Call("sin", c)
    assert pickle.loads(pickle.dumps(mixed)) is mixed


def test_canonical_operands_decide_identities_without_trees():
    u, v = VarId("tree_u", 0), VarId("tree_v", 1)
    a = canonicalize(Var(u) ** 2 + 3 * Var(v) + 1)
    b = canonicalize(Var(u) * Var(v) - Const(Fraction(1, 2)))
    before = kernel_stats()["canonical_trees"]
    assert is_zero_expr(a * b - b * a)
    assert partial(a * b, u) is canonicalize(partial(a, u) * b + a * partial(b, u))
    assert kernel_stats()["canonical_trees"] == before


def test_canonical_tree_is_built_once_when_read():
    u, v = VarId("tree_w", 0), VarId("tree_z", 1)
    c = canonicalize((Var(u) + 2 * Var(v)) / (Var(v) ** 2 + 1))
    before = kernel_stats()["canonical_trees"]
    assert str(c) == "(tree_w + 2*tree_z)/(tree_z^2 + 1)"
    assert kernel_stats()["canonical_trees"] == before + 1
    assert str(c) == "(tree_w + 2*tree_z)/(tree_z^2 + 1)"
    assert kernel_stats()["canonical_trees"] == before + 1
    # the tree is a plain node whose canonical form is the canonical node
    assert isinstance(c, Quot) and type(c.num) is Sum
    assert canonicalize(Quot(c.num, c.den)) is c
