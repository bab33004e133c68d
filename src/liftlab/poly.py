"""Sparse multivariate polynomial arithmetic over the integers.

A polynomial in ``nvars`` variables is a dict mapping exponent tuples of
length ``nvars`` to nonzero int coefficients.  The empty dict is the zero
polynomial.  Monomials are ordered graded-lexicographically: higher total
degree first, ties broken by lexicographic comparison of exponent tuples.
Every function returns a fresh dict and leaves its arguments alone:
canonical expression nodes share the polynomials they store.

This is the engine behind canonical rational forms; it is not a public API.
"""

from __future__ import annotations

from math import gcd as _int_gcd
from operator import add as _add

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


def leading_monomial(p: Poly) -> Mono:
    return max(p, key=grlex_key)


def leading_coeff(p: Poly) -> int:
    return p[leading_monomial(p)]


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
    if n < 0:
        raise ValueError("negative power of a polynomial")
    nvars = len(next(iter(a))) if a else 0
    out = const(1, nvars)
    base = a
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
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
    """Divide f by g assuming the division is exact; raises otherwise."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return {}
    lm_g = leading_monomial(g)
    lc_g = g[lm_g]
    q: Poly = {}
    r = dict(f)
    while r:
        lm_r = leading_monomial(r)
        mono = tuple(a - b for a, b in zip(lm_r, lm_g))
        if any(e < 0 for e in mono):
            raise ArithmeticError("inexact polynomial division")
        cq, rem = divmod(r[lm_r], lc_g)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[mono] = q.get(mono, 0) + cq
        r = sub(r, mul(g, {mono: cq}))
    return q


def degree_in(p: Poly, axis: int) -> int:
    if not p:
        return -1
    return max(m[axis] for m in p)


def _to_univariate(p: Poly, axis: int) -> dict[int, Poly]:
    """View p as univariate in ``axis`` with polynomial coefficients."""
    out: dict[int, Poly] = {}
    for m, c in p.items():
        d = m[axis]
        rest = tuple(e if i != axis else 0 for i, e in enumerate(m))
        coeff = out.setdefault(d, {})
        s = coeff.get(rest, 0) + c
        if s:
            coeff[rest] = s
        else:
            coeff.pop(rest, None)
    return {d: c for d, c in out.items() if c}


def _from_univariate(u: dict[int, Poly], axis: int) -> Poly:
    out: Poly = {}
    for d, coeff in u.items():
        for m, c in coeff.items():
            mono = tuple(e if i != axis else d for i, e in enumerate(m))
            out[mono] = c
    return out


def _uni_deg(u: dict[int, Poly]) -> int:
    return max(u) if u else -1


def _uni_scale(u: dict[int, Poly], f: Poly) -> dict[int, Poly]:
    return {d: mul(c, f) for d, c in u.items()}


def _uni_sub(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    out = {d: dict(c) for d, c in a.items()}
    for d, c in b.items():
        s = sub(out.get(d, {}), c)
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _uni_shift_mul(u: dict[int, Poly], shift: int, f: Poly) -> dict[int, Poly]:
    return {d + shift: mul(c, f) for d, c in u.items()}


def _pseudo_rem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of univariate polynomials with Poly coefficients."""
    db = _uni_deg(b)
    lb = b[db]
    r = {d: dict(c) for d, c in a.items()}
    while r and _uni_deg(r) >= db:
        dr = _uni_deg(r)
        lr = r[dr]
        r = _uni_sub(_uni_scale(r, lb), _uni_shift_mul(b, dr - db, lr))
    return r


def _uni_content(u: dict[int, Poly]) -> Poly:
    g: Poly = {}
    for c in u.values():
        g = poly_gcd(g, c)
    return g


def _uni_primitive(u: dict[int, Poly]) -> dict[int, Poly]:
    cont = _uni_content(u)
    if is_const(cont) and abs(const_value(cont)) == 1:
        if const_value(cont) == 1:
            return u
    return {d: exact_div(c, cont) for d, c in u.items()}


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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD over Z[x1..xn], sign-normalized to positive leading coefficient.

    When one operand's variables are a strict subset of the other's, a
    common factor lives on the smaller set, so the gcd is that of the
    smaller operand and the larger one's coefficients in the other
    variables.  Otherwise a primitive pseudo-remainder sequence; adequate
    for the small degrees and variable counts this kernel sees.
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
    axis = -1
    for i in range(nvars):
        if degree_in(a, i) > 0 and degree_in(b, i) > 0:
            axis = i
            break
    if axis < 0:
        # disjoint variable supports: only an integer gcd is shared
        return const(_int_gcd(int_content(a), int_content(b)), nvars)
    ua, ub = _to_univariate(a, axis), _to_univariate(b, axis)
    cont_a, cont_b = _uni_content(ua), _uni_content(ub)
    g_cont = poly_gcd(cont_a, cont_b)
    pa = {d: exact_div(c, cont_a) for d, c in ua.items()}
    pb = {d: exact_div(c, cont_b) for d, c in ub.items()}
    if _uni_deg(pa) < _uni_deg(pb):
        pa, pb = pb, pa
    while pb:
        r = _pseudo_rem(pa, pb)
        pa, pb = pb, _uni_primitive(r) if r else {}
    g = mul(g_cont, _from_univariate(_uni_primitive(pa), axis))
    return _normalize_sign(g)
