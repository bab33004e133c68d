"""Sparse multivariate polynomial arithmetic over the integers.

A polynomial in ``nvars`` variables is a dict mapping exponent tuples of
length ``nvars`` to nonzero int coefficients.  The empty dict is the zero
polynomial.  Monomials are ordered graded-lexicographically: higher total
degree first, ties broken by lexicographic comparison of exponent tuples.
This is the only representation: where the gcd reads a polynomial as one
in a single variable with polynomial coefficients, it lists those
coefficients from the flat dict instead of converting.  Every function
returns a fresh dict and leaves its arguments alone: canonical expression
nodes share the polynomials they store.

This is the engine behind canonical rational forms; it is not a public API.
"""

from __future__ import annotations

from math import gcd as _int_gcd
from operator import add as _add, sub as _sub

Mono = tuple[int, ...]
Poly = dict[Mono, int]


def const(c: int, nvars: int) -> Poly:
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def variable(axis: int, nvars: int) -> Poly:
    return {(0,) * axis + (1,) + (0,) * (nvars - axis - 1): 1}


def is_zero(p: Poly) -> bool:
    return not p


def is_const(p: Poly) -> bool:
    return len(p) == 0 or (len(p) == 1 and not any(next(iter(p))))


def const_value(p: Poly) -> int:
    """Value of a constant polynomial."""
    if not p:
        return 0
    return next(iter(p.values()))


def grlex_key(mono: Mono) -> tuple[int, Mono]:
    return (sum(mono), mono)


def leading_coeff(p: Poly) -> int:
    return p[max(p, key=grlex_key)]


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, neg(b))


def mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        # one term: scale or shift the other operand; both are injective
        # on monomials and keep its order, so nothing collides or cancels
        (mb, cb), = b.items()
        if not any(mb):
            return {m: c * cb for m, c in a.items()}
        return {tuple(map(_add, m, mb)): c * cb for m, c in a.items()}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(_add, ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def power(a: Poly, n: int) -> Poly:
    """a**n.  A base of at most one term is raised in closed form; any
    other is multiplied in n - 1 times, which for a sum of few terms costs
    less than repeated squaring (``expr._power`` bounds n for sums)."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    if n == 0:
        return const(1, len(next(iter(a))) if a else 0)
    if len(a) <= 1:
        return {tuple(k * n for k in m): c ** n for m, c in a.items()}
    out = dict(a)
    for _ in range(n - 1):
        out = mul(out, a)
    return out


def int_content(p: Poly) -> int:
    """gcd of all integer coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p.values():
        g = _int_gcd(g, abs(c))
        if g == 1:
            break
    return g


def exact_div(f: Poly, g: Poly) -> Poly:
    """Divide f by g assuming the division is exact; raises otherwise.

    Divides along the lexicographic order, whose leading monomial is a
    plain ``max``; any monomial order gives the same exact quotient."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    lm_g = max(g)
    lc_g = g[lm_g]
    q: Poly = {}
    r = dict(f)
    while r:
        lm_r = max(r)
        mono = tuple(map(_sub, lm_r, lm_g))
        if any(e < 0 for e in mono):
            raise ArithmeticError("inexact polynomial division")
        cq, rem = divmod(r[lm_r], lc_g)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[mono] = cq
        for m, c in g.items():
            m = tuple(map(_add, m, mono))
            s = r.get(m, 0) - c * cq
            if s:
                r[m] = s
            else:
                del r[m]
    return q


def _normalize_sign(p: Poly) -> Poly:
    if p and leading_coeff(p) < 0:
        return neg(p)
    return p


def _support(p: Poly) -> set[int]:
    """The axes that occur in p."""
    return {i for m in p for i, k in enumerate(m) if k}


def _coefficients(p: Poly, axes: list[int]) -> list[Poly]:
    """The coefficients of p viewed as a polynomial in ``axes``, fewest
    terms first."""
    out: dict[Mono, Poly] = {}
    for m, c in p.items():
        rest = list(m)
        for i in axes:
            rest[i] = 0
        out.setdefault(tuple(m[i] for i in axes), {})[tuple(rest)] = c
    return sorted(out.values(), key=len)


def _leading_in(p: Poly, axis: int) -> tuple[int, Poly]:
    """The degree of p in the variable ``axis`` and its coefficient there,
    a polynomial free of that variable."""
    d = max(m[axis] for m in p)
    return d, {m[:axis] + (0,) + m[axis + 1:]: c for m, c in p.items() if m[axis] == d}


def primitive(p: Poly, axis: int) -> tuple[Poly, Poly]:
    """Content and primitive part of p as a polynomial in ``axis``; the
    content is the sign-normalized gcd of the coefficients."""
    one = const(1, len(next(iter(p))))
    cont: Poly = {}
    for c in _coefficients(p, [axis]):
        cont = poly_gcd(cont, c)
        if cont == one:
            return cont, p
    return cont, exact_div(p, cont)


def _pseudo_rem(a: Poly, b: Poly, axis: int) -> Poly:
    """Pseudo-remainder of a by b as polynomials in ``axis``."""
    db, lb = _leading_in(b, axis)
    nvars = len(next(iter(b)))
    r = a
    while r:
        dr, lr = _leading_in(r, axis)
        if dr < db:
            break
        shift = tuple(dr - db if i == axis else 0 for i in range(nvars))
        r = sub(mul(r, lb), mul(b, mul(lr, {shift: 1})))
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD over Z[x1..xn], sign-normalized to positive leading coefficient.

    When one operand's variables are a strict subset of the other's, a
    common factor lives on the smaller set, so the gcd is that of the
    smaller operand and the larger one's coefficients in the other
    variables.  Otherwise a primitive pseudo-remainder sequence along the
    first variable both operands share, run on the flat polynomials with
    coefficients in the remaining variables; adequate for the small
    degrees and variable counts this kernel sees.
    """
    if not a:
        return _normalize_sign(dict(b))
    if not b:
        return _normalize_sign(dict(a))
    if is_const(a) or is_const(b):
        return const(_int_gcd(int_content(a), int_content(b)),
                     len(next(iter(a))))
    nvars = len(next(iter(a)))
    sa, sb = _support(a), _support(b)
    if sa < sb or sb < sa:
        small, big, outside = (a, b, sb - sa) if sa < sb else (b, a, sa - sb)
        one = const(1, nvars)
        g = small
        for c in _coefficients(big, sorted(outside)):
            g = poly_gcd(g, c)
            # only the constant 1 ends it: a larger constant may still
            # lose integer content to a later coefficient
            if g == one:
                break
        return g
    if not sa & sb:
        # disjoint variable supports: only an integer gcd is shared
        return const(_int_gcd(int_content(a), int_content(b)), nvars)
    axis = min(sa & sb)
    cont_a, pa = primitive(a, axis)
    cont_b, pb = primitive(b, axis)
    if _leading_in(pa, axis)[0] < _leading_in(pb, axis)[0]:
        pa, pb = pb, pa
    while pb:
        r = _pseudo_rem(pa, pb, axis)
        pa, pb = pb, primitive(r, axis)[1] if r else {}
    return _normalize_sign(mul(poly_gcd(cont_a, cont_b), pa))
