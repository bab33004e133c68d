"""Exact symbolic scalar expressions over named coordinates.

The rational-function fragment (constants, variables, sums, products,
integer powers, quotients) has a unique canonical form: a quotient of two
coprime integer-coefficient polynomials, denominator with positive leading
coefficient under graded-lexicographic monomial order.  Structural equality
of canonical trees therefore decides mathematical equality on that
fragment.

A call of sin, cos or exp is a kernel (Moses, *Algebraic simplification:
a guide for the perplexed*, CACM 1971): canonicalization takes it, its
argument made canonical, as one more axis of the ring, an atom.  Atoms
are independent, so unequal forms prove nothing once one is in them:
sin(x)^2 + cos(x)^2 is not 1 here (Richardson, J. Symbolic Logic 33,
1968), and ``expr_equal`` and ``is_zero_expr`` keep to the rational
fragment.
Canonicalization cancels common polynomial factors (x/x -> 1), which
enlarges the domain by a measure-zero set, as computer algebra does.

Nodes are hash-consed (Filliâtre & Conchon, *Type-safe modular
hash-consing*, ML Workshop 2006): every constructor looks its class name
and fields up in one module-level table, so one structure is one object.
Equality is identity, and the hash is structural, computed once when the
node is made.  Its rationality and free variables are set from its
operands when it is interned; its canonical form is memoized in a slot
on first use.  The table and the memos live as long as the process,
except inside a ``scope``: on exit it undoes the memo writes made on
older nodes and drops the nodes interned since it was entered.

A canonical form is a constant, a variable, an atom or a power of one,
kept as the plain node, or else a canonical node of its own: a
``CanonicalSum``, ``CanonicalProd`` or ``CanonicalQuot``, interned on
its reduced ``(axes, num, den)``: the variables by index, then the
atoms by their text, so no form depends on ``PYTHONHASHSEED``.  A
canonicalization that meets it as an operand re-indexes the stored
polynomials, and ``partial`` differentiates them in the ring and
memoizes the result on the node, so neither builds a tree.  A canonical
node is a subclass of the plain class its tree has, and builds that tree
only when something reads it: its fields, ``children`` and every walk
over ``post_order``.  The operators ``+`` and ``*`` keep a canonical
operand whole, and ``children`` reads a canonical sum in a sum (a
canonical product in a product) as its terms (factors) in its place: the
tree the operators build from the plain trees.  So a printed, evaluated
or compiled expression is the same with canonical operands as with their
trees.

Canonicalization first makes every call in a tree an atom, innermost
first, by a loop over an explicit stack.  It then evaluates the tree in
one pass straight in the polynomial ring: a sum adds its terms without a
denominator into one coefficient dict in place, a product folds its
constants, variables and positive powers of variables into one monomial,
and a denominator of 1 is carried as absent.  The pair is reduced once at
the end by ``poly.poly_gcd``.  ``kernel_stats()["ratfunc_nodes"]``
counts the nodes this pass visits.  It recurses, one frame per tree level
above the nearest canonical node, an atom among them, and the parser
bounds the depth.

Every other walk (substitution, numeric evaluation, display and
``grid.compile_numeric``, which evaluates expressions over fixed arrays)
is a rule that builds a node's result from its children's, run by one
loop over ``post_order``: an explicit stack, so no recursion, over
distinct nodes, so a shared subtree is walked once.  No walk iterates a
set of nodes, so no output depends on their hashes.

Everything here is immutable and safe to share across threads, except
``scope``, which is single-threaded.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from . import poly
from .poly import Poly

__all__ = [
    "VarId", "Expr", "Const", "Var", "Sum", "Prod", "Pow", "Quot", "Call",
    "ExprError", "UnsupportedClassError", "UnboundVariableError",
    "EvaluationDomainError", "SymbolicDivisionError",
    "is_rational", "free_vars", "children", "post_order",
    "canonicalize", "partial", "substitute", "expr_equal",
    "eval_numeric", "is_zero_expr", "kernel_stats", "ZERO", "ONE",
]

FUNCTIONS = ("sin", "cos", "exp")


class ExprError(Exception):
    """Base class for expression-kernel errors."""


class UnsupportedClassError(ExprError):
    """``expr_equal`` or ``is_zero_expr``, which decide inequality, got an atom."""


class UnboundVariableError(ExprError):
    def __init__(self, var: "VarId"):
        super().__init__(f"unbound variable '{var.name}'")
        self.var = var


class EvaluationDomainError(ExprError):
    """Numeric evaluation hit |denominator| < 1e-300 or a value past the doubles."""


class SymbolicDivisionError(ExprError):
    """Division by an expression that is identically zero."""


@dataclass(frozen=True, slots=True)
class VarId:
    """A named coordinate: unique name within its chart, index = position."""

    name: str
    index: int

    def __str__(self) -> str:
        return self.name


Number = Union[int, Fraction]


# The intern table: (class name, *fields) -> the one node of that
# structure.  A Const is keyed by its numerator and denominator.
_TABLE: dict[tuple, "Expr"] = {}
_set = object.__setattr__
_nodes_interned = 0

# The trail of the innermost ``scope``: (node, slot, old value) for each
# memo slot written, and (dict, key, None) for each entry added to a ``_d``
# dict or to ``_ATOM_KEYS``; None outside every scope.
_TRAIL: list | None = None


def _memo(node: "Expr", name: str, value) -> None:
    """Write memo slot ``name`` of ``node``, logged on the trail in a scope."""
    if _TRAIL is not None:
        _TRAIL.append((node, name, getattr(node, name)))
    _set(node, name, value)


@contextmanager
def scope():
    """A region of the intern table: on exit, every memo written on a node
    inside it is undone, in reverse, and the table is popped back to its
    size on entry.  That is exact because nothing deletes from the table
    and a dict pops in reverse insertion order.

    A node made inside the scope must not be used after it: it is no
    longer the interned node, so ``==`` is False against a rebuilt equal
    one.  Scopes nest.  The trail is one module-level list, so a scope is
    single-threaded: no other thread may use the kernel while it is open.
    The trail is the one of Warren's abstract machine (Aït-Kaci, *Warren's
    Abstract Machine*, 1991); the scope is a region (Tofte & Talpin,
    *Region-based memory management*, Inf. Comput. 132, 1997).
    """
    global _TRAIL
    mark, outer = len(_TABLE), _TRAIL
    _TRAIL = trail = []
    try:
        yield
    finally:
        _TRAIL = outer
        for target, name, old in reversed(trail):
            if type(target) is dict:
                del target[name]
            else:
                _set(target, name, old)
        while len(_TABLE) > mark:
            _TABLE.popitem()


def _intern(cls: type, key: tuple, fields: tuple) -> "Expr":
    global _nodes_interned
    node = _TABLE.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            _set(node, name, value)
        # the hash the frozen dataclasses had, so set and dict orders stay
        _set(node, "_hash", hash(fields))
        # rationality and free variables from the operands, which exist
        # already; an operand's set is shared when it covers the others'
        if cls is Var:
            rat, fv = True, frozenset(fields)
        else:
            rat, fv = cls is not Call, frozenset()
            operands = fields[0] if cls is Sum or cls is Prod else fields
            for k in operands:
                if not isinstance(k, Expr):
                    continue
                rat = rat and k._rat
                if not k._fv <= fv:
                    fv = k._fv if fv <= k._fv else fv | k._fv
        _set(node, "_rat", rat)
        _set(node, "_fv", fv)
        for name in Expr.__slots__[3:]:
            _set(node, name, None)
        # setdefault: of two threads making one structure, both get the
        # node that entered the table first
        new, node = node, _TABLE.setdefault(key, node)
        if node is new:
            _nodes_interned += 1
    return node


class Expr:
    """Base node.  Subclasses: Const, Var, Sum, Prod, Pow, Quot, Call,
    and the canonical nodes CanonicalSum, CanonicalProd and CanonicalQuot.

    Nodes are interned: equal structure means the same object, so ``==``
    is identity.  ``_rat`` (is_rational) and ``_fv`` (free_vars) are set
    from the operands when the node is interned.  ``_canon`` is the
    canonical form, memoized on first use.  A canonical form keeps
    ``_rf``, its ``(axes, num, den)``, and ``_d``, a dict from a ``VarId``
    to its partial derivative, filled on first use.  The stored
    polynomials are shared and must never be mutated.  Every memo write
    goes through ``_memo`` (and every ``_d`` entry added is logged), so a
    ``scope`` can undo the writes made inside it.
    """

    __slots__ = ("_hash", "_rat", "_fv", "_canon", "_rf", "_d")

    def __new__(cls, *fields):
        """The node of class ``cls`` with these fields, in ``__slots__``
        order; tuples of children must be tuples."""
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields")
        return _intern(cls, (cls.__name__, *fields), fields)

    __eq__ = object.__eq__

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        # copies and unpickled nodes go through the constructor, so they
        # are the interned node again
        return type(self), tuple(getattr(self, s) for s in type(self).__slots__)

    def __add__(self, other):
        return _sum2(self, _coerce(other))

    def __radd__(self, other):
        return _sum2(_coerce(other), self)

    def __sub__(self, other):
        return _sum2(self, -_coerce(other))

    def __rsub__(self, other):
        return _sum2(_coerce(other), -self)

    def __mul__(self, other):
        return _prod2(self, _coerce(other))

    def __rmul__(self, other):
        return _prod2(_coerce(other), self)

    def __truediv__(self, other):
        return Quot(self, _coerce(other))

    def __rtruediv__(self, other):
        return Quot(_coerce(other), self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        return Pow(self, n)

    def __neg__(self):
        return _prod2(MINUS_ONE, self)

    def __str__(self) -> str:
        return format_expr(self)

    def __repr__(self) -> str:
        return f"<Expr {format_expr(self)}>"


class Const(Expr):
    __slots__ = ("value",)
    value: Fraction

    def __new__(cls, value: Number) -> "Const":
        if type(value) is not Fraction:
            value = Fraction(value)
        return _intern(cls, ("Const", value.numerator, value.denominator), (value,))


class Var(Expr):
    __slots__ = ("var",)
    var: VarId


class Sum(Expr):
    __slots__ = ("terms",)
    terms: tuple[Expr, ...]


class Prod(Expr):
    __slots__ = ("factors",)
    factors: tuple[Expr, ...]


class Pow(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: int


class Quot(Expr):
    __slots__ = ("num", "den")
    num: Expr
    den: Expr


class Call(Expr):
    __slots__ = ("func", "arg")
    func: str
    arg: Expr

    def __new__(cls, func: str, arg: Expr) -> "Call":
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function '{func}'")
        return _intern(cls, ("Call", func, arg), (func, arg))


class _Canonical:
    """A canonical form other than a constant, a variable or a power of
    one variable, interned on its reduced ``(axes, num, den)`` in ``_rf``.
    Its fields read the tree of the form, which ``_tree_of`` builds on
    first read and keeps in ``_tree``."""

    __slots__ = ()

    def __reduce__(self):
        return _canonical_node, self._rf


class CanonicalSum(_Canonical, Sum):
    __slots__ = ("_tree",)
    terms = property(lambda self: _tree_of(self).terms)


class CanonicalProd(_Canonical, Prod):
    __slots__ = ("_tree",)
    factors = property(lambda self: _tree_of(self).factors)


class CanonicalQuot(_Canonical, Quot):
    __slots__ = ("_tree",)
    num = property(lambda self: _tree_of(self).num)
    den = property(lambda self: _tree_of(self).den)


_CANONICAL = (CanonicalSum, CanonicalProd, CanonicalQuot)


def children(e: Expr) -> tuple[Expr, ...]:
    """The operands of ``e`` as its tree reads them, left to right; a leaf
    has none.

    A canonical node reads as its tree.  Below a plain node a canonical
    operand reads as its tree too, and in a sum the terms of a canonical
    sum (in a product the factors of a canonical product) stand in its
    place, as the operators flatten a plain operand.  So no walk meets a
    canonical node below its root.
    """
    cls = type(e)
    if cls is Sum:
        kids = e.terms
    elif cls is Prod:
        kids = e.factors
    elif cls is Const or cls is Var:
        return ()
    elif cls is Pow:
        kids = (e.base,)
    elif cls is Quot:
        kids = (e.num, e.den)
    elif cls is Call:
        kids = (e.arg,)
    elif cls in _CANONICAL:
        return children(_tree_of(e))
    else:
        raise TypeError(f"not an Expr: {e!r}")
    for k in kids:
        if type(k) in _CANONICAL:
            break
    else:
        return kids
    out: list[Expr] = []
    for k in kids:
        if type(k) in _CANONICAL:
            k = _tree_of(k)
            if type(k) is cls and cls is not Quot:
                out.extend(children(k))
                continue
        out.append(k)
    return tuple(out)


def post_order(roots: Iterable[Expr], leaf: Callable = lambda node: False
               ) -> list[tuple[Expr, tuple[Expr, ...]]]:
    """The distinct nodes under ``roots`` with their ``children``, each
    after its children; a node that ``leaf`` picks is listed as a leaf.

    An explicit stack visits children left to right, so the order is that
    of a recursive walk, without its recursion.  Nodes are interned, so a
    node is its own value number (Aho, Lam, Sethi & Ullman, *Compilers*
    6.1) and each distinct subtree is listed once; the seen set holds ids,
    which stand for the nodes while the intern table keeps them.
    """
    seen: set[int] = set()
    order: list[tuple[Expr, tuple[Expr, ...]]] = []
    for root in roots:
        stack: list = [root]
        while stack:
            node = stack.pop()
            if type(node) is tuple:     # (node, children): the children are done
                order.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                kids = () if leaf(node) else children(node)
                stack.append((node, kids))
                stack.extend(reversed(kids))
    return order


def _walk(e: Expr, rule: Callable, *args):
    """``rule(node, its children, their results, *args)`` for each
    distinct node under ``e``, children first; the result at ``e``."""
    done: dict[int, object] = {}
    for node, kids in post_order((e,)):
        done[id(node)] = rule(node, kids, [done[id(k)] for k in kids], *args)
    return done[id(e)]


ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _sum2(a: Expr, b: Expr) -> Expr:
    # flatten one level so that long chains of + stay shallow; a canonical
    # operand stays whole, and ``children`` flattens it when read
    terms: list[Expr] = []
    for e in (a, b):
        if type(e) is Sum:
            terms.extend(e.terms)
        else:
            terms.append(e)
    return Sum(tuple(terms))


def _prod2(a: Expr, b: Expr) -> Expr:
    factors: list[Expr] = []
    for e in (a, b):
        if type(e) is Prod:
            factors.extend(e.factors)
        else:
            factors.append(e)
    return Prod(tuple(factors))


def is_rational(e: Expr) -> bool:
    """True when the expression contains no transcendental leaf."""
    return e._rat


def free_vars(e: Expr) -> frozenset[VarId]:
    return e._fv


# ---------------------------------------------------------------------------
# canonical rational form

RatFunc = tuple[Poly, Poly]


def _rf_normalize(num: Poly, den: Poly, part: Poly | None = None) -> RatFunc:
    """num/den in lowest terms; a common factor divides ``part`` if given."""
    if poly.is_zero(den):
        raise SymbolicDivisionError("division by an identically zero expression")
    if poly.is_zero(num):
        nvars = len(next(iter(den)))
        return {}, poly.const(1, nvars)
    g = poly.poly_gcd(num, den if part is None else part)
    if not (poly.is_const(g) and poly.const_value(g) == 1):
        num = poly.exact_div(num, g)
        den = poly.exact_div(den, g)
    if poly.leading_coeff(den) < 0:
        num, den = poly.neg(num), poly.neg(den)
    return num, den


def _reindex(rf: tuple[tuple[VarId, ...], Poly, Poly], axis_of: dict[VarId, int],
             nvars: int) -> RatFunc:
    """A canonical node's stored rational function over the current axes.

    Its axes are a subset of the current ones, in the same order, so with
    as many axes they are the same and the stored polynomials serve as
    they are (they are never mutated)."""
    axes, num, den = rf
    if len(axes) == nvars:
        return num, den
    at = [axis_of[v] for v in axes]
    zeros = [0] * nvars

    def move(p: Poly) -> Poly:
        out = {}
        for m, c in p.items():
            mono = zeros.copy()
            for i, k in zip(at, m):
                mono[i] = k
            out[tuple(mono)] = c
        return out
    return move(num), move(den)


_ratfunc_nodes = 0

# The most terms a power or a product of sums, or a derivative by the
# chain rule, may expand to.  No test and no verify suite comes near it
# (at most 78 terms in a power, 582 in a product); (1+x+y)^200 would have
# 20,301 terms, with coefficients of up to 95 digits.
MAX_POWER_TERMS = 10_000


def _power(p: Poly, n: int) -> Poly:
    """p**n, refused when it may pass MAX_POWER_TERMS: the power n of a
    polynomial of t terms has at most C(n + t - 1, t - 1) terms."""
    t = len(p)
    if t > 1 and (n >= MAX_POWER_TERMS or math.comb(n + t - 1, t - 1) > MAX_POWER_TERMS):
        raise ExprError(f"power {n} of a sum of {t} terms is too large to expand: "
                        f"it may have more than {MAX_POWER_TERMS} terms")
    return poly.power(p, n)


def _mul(a: Poly, b: Poly) -> Poly:
    """a*b, refused when it may pass MAX_POWER_TERMS: the product of
    polynomials of s and t terms has at most s*t terms, and at most s
    when t = 1."""
    if min(len(a), len(b)) > 1 and len(a) * len(b) > MAX_POWER_TERMS:
        raise ExprError(f"product of sums of {len(a)} and {len(b)} terms is too large to "
                        f"expand: it may have more than {MAX_POWER_TERMS} terms")
    return poly.mul(a, b)


def _to_ratfunc(e: Expr, axis_of: dict, nvars: int) -> tuple[Poly, Poly | None]:
    """``(num, den)`` of ``e`` over the axes, in one pass; every call in
    ``e`` must be canonical already.

    A denominator of 1 is returned as None.  A canonical subtree, an atom
    among them, answers from its stored polynomials, a sum adds its terms
    without a denominator into one fresh dict, and a product folds its
    constants, variables and positive powers of variables into one
    monomial, so only its other factors are multiplied out, and an equal
    factor met again reuses the first one's expansion.  The result may
    share a canonical node's polynomials and must not be mutated.
    """
    global _ratfunc_nodes
    _ratfunc_nodes += 1
    cls = type(e)
    # leaves before the memo: building them is cheaper than re-indexing
    if cls is Const:
        v = e.value
        return (poly.const(v.numerator, nvars),
                None if v.denominator == 1 else poly.const(v.denominator, nvars))
    if cls is Var:
        return poly.variable(axis_of[e.var], nvars), None
    c = e._canon
    if c is not None:
        num, den = _reindex(c._rf, axis_of, nvars)
        return num, (den if type(c) is CanonicalQuot else None)
    if cls is Sum:
        acc: Poly = {}        # the terms without a denominator, in place
        num = den = None      # the terms with one, cross-multiplied
        for t in e.terms:
            tn, td = _to_ratfunc(t, axis_of, nvars)
            if td is None:
                for m, k in tn.items():
                    s = acc.get(m, 0) + k
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
            elif num is None:
                num, den = tn, td
            else:
                num = poly.add(_mul(num, td), _mul(tn, den))
                den = _mul(den, td)
        if num is None:
            return acc, None
        return (poly.add(num, _mul(acc, den)) if acc else num), den
    if cls is Prod:
        mono = [0] * nvars
        cn = cd = 1
        num = den = None      # the product of the other factors
        expanded: dict[Expr, tuple[Poly, Poly | None]] = {}
        for f in e.factors:
            fcls = type(f)
            if fcls is Const:
                cn *= f.value.numerator
                cd *= f.value.denominator
            elif fcls is Var:
                mono[axis_of[f.var]] += 1
            elif fcls is Pow and f.exponent > 0 and type(f.base) is Var:
                mono[axis_of[f.base.var]] += f.exponent
            else:
                if f not in expanded:
                    expanded[f] = _to_ratfunc(f, axis_of, nvars)
                fn, fd = expanded[f]
                num = fn if num is None else _mul(num, fn)
                if fd is not None:
                    den = fd if den is None else _mul(den, fd)
        if not cn or num == {}:     # a zero factor, after every factor was checked
            return {}, None
        g = math.gcd(cn, cd)
        monomial = {tuple(mono): cn // g}
        num = monomial if num is None else _mul(num, monomial)
        if cd != g:
            scale = poly.const(cd // g, nvars)
            den = scale if den is None else _mul(den, scale)
        return num, den
    if cls is Pow:
        n = e.exponent
        if n > 0 and type(e.base) is Var:
            mono = [0] * nvars
            mono[axis_of[e.base.var]] = n
            return {tuple(mono): 1}, None
        bn, bd = _to_ratfunc(e.base, axis_of, nvars)
        if n == 0:
            return poly.const(1, nvars), None
        if n > 0:
            return _power(bn, n), (None if bd is None else _power(bd, n))
        if poly.is_zero(bn):
            raise SymbolicDivisionError("negative power of an identically zero expression")
        return (poly.const(1, nvars) if bd is None else _power(bd, -n),
                _power(bn, -n))
    an, ad = _to_ratfunc(e.num, axis_of, nvars)
    bn, bd = _to_ratfunc(e.den, axis_of, nvars)
    if poly.is_zero(bn):
        raise SymbolicDivisionError("division by an identically zero expression")
    return (an if bd is None else _mul(an, bd),
            bn if ad is None else _mul(ad, bn))


def _poly_to_expr(p: Poly, axes: tuple) -> Expr:
    if not p:
        return ZERO
    terms: list[Expr] = []
    for mono in sorted(p, key=poly.grlex_key, reverse=True):
        c = p[mono]
        factors: list[Expr] = []
        for axis, exp in enumerate(mono):
            if exp:
                leaf = axes[axis]
                if type(leaf) is VarId:
                    leaf = Var(leaf)
                factors.append(leaf if exp == 1 else Pow(leaf, exp))
        if not factors:
            terms.append(Const(c))
        elif c == 1:
            terms.append(factors[0] if len(factors) == 1 else Prod(tuple(factors)))
        else:
            terms.append(Prod((Const(c), *factors)))
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


_canonicalize_calls = 0
_canonicalize_computed = 0
_canonical_forms = 0
_canonical_trees = 0
_partial_calls = 0
_partial_computed = 0


def _canonical_node(axes: tuple, num: Poly, den: Poly) -> Expr:
    """The canonical form of the reduced ``num/den`` over ``axes``.

    The polynomials are projected onto the axes that are used.  A
    constant, a variable, an atom or a power of one is the plain node,
    which keeps ``(axes, num, den)`` when it is new as a canonical form;
    any other form is the canonical node interned on them, with no tree.
    """
    global _canonical_forms, _nodes_interned
    # drop axes that cancelled away so the form is support-minimal
    used = [i for i in range(len(axes))
            if any(m[i] for m in num) or any(m[i] for m in den)]
    if len(used) != len(axes):
        def project(p: Poly) -> Poly:
            return {tuple(m[i] for i in used): k for m, k in p.items()}
        num, den = project(num), project(den)
        axes = tuple(axes[i] for i in used)
    if not (poly.is_const(den) and poly.const_value(den) == 1):
        cls = CanonicalQuot
    elif len(num) > 1:
        cls = CanonicalSum
    else:
        # one term: a product when it has a coefficient and a variable, or
        # two variables
        mono, k = next(iter(num.items()), ((), 0))
        nvar = len(mono) - mono.count(0)
        cls = CanonicalProd if nvar > 1 or (nvar and k != 1) else None
    if cls is None:
        c = _poly_to_expr(num, axes)
        if c._canon is None:
            _memo(c, "_rf", (axes, num, den))
            _memo(c, "_canon", c)
            _canonical_forms += 1
        return c
    key = ("canonical", axes, frozenset(num.items()), frozenset(den.items()))
    c = _TABLE.get(key)
    if c is None:
        c = object.__new__(cls)
        atoms = [a for a in axes if type(a) is Call]
        fv = frozenset(a for a in axes if type(a) is VarId).union(*(a._fv for a in atoms))
        for name, value in (("_hash", hash(key)), ("_rat", not atoms),
                            ("_fv", fv), ("_rf", (axes, num, den)),
                            ("_d", None), ("_tree", None)):
            _set(c, name, value)
        _set(c, "_canon", c)
        node = _TABLE.setdefault(key, c)
        if node is c:
            _canonical_forms += 1
            _nodes_interned += 1
        c = node
    return c


def _tree_of(c: Expr) -> Expr:
    """The plain tree of canonical node ``c``, built on first read.  The
    tree's canonical form is ``c``."""
    global _canonical_trees
    t = c._tree
    if t is None:
        axes, num, den = c._rf
        t = _poly_to_expr(num, axes)
        if type(c) is CanonicalQuot:
            t = Quot(t, _poly_to_expr(den, axes))
        if t._canon is None:
            _memo(t, "_canon", c)
        _memo(c, "_tree", t)
        _canonical_trees += 1
    return t


def canonicalize(e: Expr) -> Expr:
    """The canonical form of ``e``, its atoms taken as independent.
    Idempotent; memoized on ``e``, and the result keeps its reduced
    rational function for later canonicalizations that contain it."""
    global _canonicalize_calls, _canonicalize_computed
    _canonicalize_calls += 1
    c = e._canon
    if c is not None:
        return c
    _canonicalize_computed += 1
    axes = _axes(e)
    if e._canon is not None:            # e is a call
        return e._canon
    num, den = _to_ratfunc(e, {v: i for i, v in enumerate(axes)}, len(axes))
    num, den = (num, poly.const(1, len(axes))) if den is None else _rf_normalize(num, den)
    c = _canonical_node(axes, num, den)
    _memo(e, "_canon", c)
    return c


# The sort key of each atom, found on first use: the first ATOM_TEXT
# characters of its text, then its variables.  The text of a shared tree
# may be exponentially longer than the tree; each node's part is cut short.
_ATOM_KEYS: dict["Call", tuple] = {}
ATOM_TEXT = 10_000


def _atom_key(a: "Call") -> tuple:
    """The key of ``a``, and of each atom under it, innermost first, each
    text formatted once with the texts of the atoms in it."""
    texts: dict[Expr, str] = {}
    for node, kids in post_order(() if a in _ATOM_KEYS else (a,), _ATOM_KEYS.__contains__):
        if node not in _ATOM_KEYS:
            texts[node] = _format_node(node, kids, [
                texts[k] if k in texts else _ATOM_KEYS[k][0] for k in kids])[:ATOM_TEXT]
            if type(node) is Call:
                _ATOM_KEYS[node] = (texts[node], sorted((v.index, v.name) for v in node._fv))
                if _TRAIL is not None:
                    _TRAIL.append((_ATOM_KEYS, node, None))
    return _ATOM_KEYS[a]


def _axes(e: Expr) -> tuple:
    """The sorted axes of ``e``, read off the nearest canonical or rational
    nodes outside every call.  First every call under ``e`` gets its
    canonical form, the atom of its canonical argument, innermost first,
    so that no call's canonicalization recurses into another."""
    axes, seen, stack = set(), set(), [(e, True)]
    while stack:
        node, top = stack.pop()
        if type(top) is tuple:          # a call whose argument is done
            atom = _canonical_node((Call(node.func, canonicalize(node.arg)),),
                                   {(1,): 1}, {(0,): 1})
            if node._canon is None:
                _memo(node, "_canon", atom)
            if top[0]:
                axes.add(atom)
        elif (id(node), top) not in seen:
            seen.add((id(node), top))
            c = node._canon
            if c is None and not node._rat:
                if type(node) is Call:
                    stack.append((node, (top,)))
                stack.extend((k, top and type(node) is not Call) for k in children(node))
            elif top:
                axes.update(node._fv if c is None else c._rf[0])
    # the variables by (index, name), then the atoms by ``_atom_key``
    atoms = [a for a in axes if type(a) is Call]
    if len(atoms) > 1:
        keyed = sorted(zip(map(_atom_key, atoms), atoms), key=lambda ka: ka[0])
        if any(k == j for (k, _), (j, _) in zip(keyed, keyed[1:])):
            raise ExprError(f"two atoms agree in their first {ATOM_TEXT} characters and variables")
        atoms = [a for _, a in keyed]
    return (*sorted((a for a in axes if type(a) is VarId), key=lambda v: (v.index, v.name)),
            *atoms)


def kernel_stats() -> dict[str, int]:
    """Work counters of the kernel since the process started.

    ``nodes`` counts the nodes interned, ``canonical_forms`` the nodes
    that came to hold a canonical form, ``canonical_trees`` the trees of
    canonical nodes built because something read them,
    ``canonicalize_calls`` the calls of ``canonicalize`` and
    ``canonicalize_computed`` those that were not answered from a node's
    memo.  ``partial_calls`` counts the calls of ``partial`` and
    ``partial_computed`` the derivatives it computed, those not found in
    a node's memo, an atom's among them.  A ``scope`` gives back nodes
    and memos but no count, so every count only grows, and work that a
    scope undid counts again when it is redone.  ``ratfunc_nodes``
    counts the tree nodes the rational-function evaluator behind
    ``canonicalize`` visits: a canonical subtree, an atom among them,
    counts as one node, and a product's constants, variables and
    positive powers of variables are folded into it without a visit of
    their own.  The counts are plain integer increments without a lock:
    threads working at once may lose a few.
    """
    return {"nodes": _nodes_interned, "canonical_forms": _canonical_forms,
            "canonical_trees": _canonical_trees,
            "canonicalize_calls": _canonicalize_calls,
            "canonicalize_computed": _canonicalize_computed,
            "partial_calls": _partial_calls,
            "partial_computed": _partial_computed,
            "ratfunc_nodes": _ratfunc_nodes}


def is_zero_expr(e: Expr) -> bool:
    """Exact zero test on the rational fragment."""
    if not is_rational(e):
        raise UnsupportedClassError("symbolic zero test is defined only for rational expressions")
    return canonicalize(e) == ZERO


def expr_equal(a: Expr, b: Expr) -> bool:
    """Exact mathematical equality on the rational fragment."""
    if not (is_rational(a) and is_rational(b)):
        raise UnsupportedClassError("symbolic equality is defined only for rational expressions")
    return canonicalize(a) == canonicalize(b)


# ---------------------------------------------------------------------------
# calculus

def partial(e: Expr, v: VarId) -> Expr:
    """Exact partial derivative, canonical.

    ``e`` is canonicalized first, raising as ``canonicalize`` does.  Its
    derivative is then taken in the ring from the canonical node's stored
    ``(axes, num, den)`` and memoized on that node, with d sin u = cos u du,
    d cos u = -sin u du and d exp u = exp u du for the atoms.
    """
    global _partial_calls, _partial_computed
    _partial_calls += 1
    c = e._canon
    if c is None:
        c = canonicalize(e)
    if v not in c._fv:
        return ZERO
    memo = c._d
    if memo is None:
        memo = {}
        _memo(c, "_d", memo)
    d = memo.get(v)
    if d is None:
        # the atoms under c first, innermost first, down to those done
        for a, _ in post_order(() if c._rat else (c,),
                               lambda a: a is not c and a._d and v in a._d):
            if type(a) is Call and a is not c and v in a._fv:
                partial(a, v)
        _partial_computed += 1
        axes = c._rf[0]
        if type(c) is Call:
            outer = (Call("cos", c.arg) if c.func == "sin" else
                     -Call("sin", c.arg) if c.func == "cos" else c)
            d = canonicalize(outer * partial(c.arg, v))
        elif c._rat:
            d = _axis_partial(c, axes.index(v))
        else:   # the chain rule over the axes, bounded as products are
            terms = [(_axis_partial(c, i), ONE if a == v else partial(a, v))
                     for i, a in enumerate(axes) if a == v or (type(a) is Call and v in a._fv)]
            if sum(len(p._rf[1]) * (q is ONE or len(q._rf[1])) for p, q in terms) > MAX_POWER_TERMS:
                raise ExprError("derivative by the chain rule is too large to expand: "
                                f"it may have more than {MAX_POWER_TERMS} terms")
            d = canonicalize(Sum(tuple(map(Prod, terms))))
        memo[v] = d
        if _TRAIL is not None:
            _TRAIL.append((memo, v, None))
    return d


def _axis_partial(c: Expr, i: int) -> Expr:
    """The derivative of canonical ``c`` along its axis ``i``, the others
    fixed, by the square-free quotient rule: with g = gcd(den, den'),
    (num/den)' = (num' (den/g) - num (den'/g)) / (den (den/g)).  A factor
    of den along the axis is prime to that numerator, so only the content
    of den along it may be common to them (Horowitz, SYMSAM 1971)."""
    axes, num, den = c._rf
    dden = _poly_diff(den, i)
    if not dden:                # g = den: the rule reads num'/den, with one gcd
        return _canonical_node(axes, *_rf_normalize(_poly_diff(num, i), den))
    g = poly.poly_gcd(den, dden)
    q = poly.exact_div(den, g)
    den = poly.mul(den, q)
    return _canonical_node(axes, *_rf_normalize(
        poly.sub(poly.mul(_poly_diff(num, i), q), poly.mul(num, poly.exact_div(dden, g))),
        den, poly.primitive(den, i)[0]))


def _poly_diff(p: Poly, axis: int) -> Poly:
    """The derivative of ``p`` along ``axis``.  Distinct monomials stay
    distinct, so no coefficients combine."""
    out = {}
    for m, k in p.items():
        n = m[axis]
        if n:
            out[m[:axis] + (n - 1,) + m[axis + 1:]] = k * n
    return out


def substitute(e: Expr, bindings: Mapping[VarId, Expr]) -> Expr:
    """Simultaneous substitution, then canonicalization."""
    return canonicalize(_walk(e, _substitute_node, bindings))


def _substitute_node(e: Expr, _kids: tuple[Expr, ...], subs: list[Expr],
                     bindings: Mapping[VarId, Expr]) -> Expr:
    if isinstance(e, Var):
        # a canonical value goes in as its tree, so that a sum or product
        # built around it here nests it where children would flatten it
        b = bindings.get(e.var, e)
        return _tree_of(b) if type(b) in _CANONICAL else b
    if isinstance(e, Sum):
        return Sum(tuple(subs))
    if isinstance(e, Prod):
        return Prod(tuple(subs))
    if isinstance(e, Pow):
        return Pow(subs[0], e.exponent)
    if isinstance(e, Quot):
        return Quot(*subs)
    if isinstance(e, Call):
        return Call(e.func, subs[0])
    return e


def eval_numeric(e: Expr, point: Mapping[VarId, float]) -> float:
    """IEEE-double evaluation with every variable bound."""
    try:
        return _walk(e, _eval_node, point)
    except OverflowError:       # a constant, power, exp, sum, product or quotient past the doubles
        raise EvaluationDomainError("a value too large for a double") from None


_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _eval_node(e: Expr, _kids: tuple[Expr, ...], vals: list[float],
               point: Mapping[VarId, float]) -> float:
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return float(point[e.var])
        except KeyError:
            raise UnboundVariableError(e.var) from None
    if isinstance(e, Sum):
        return math.fsum(vals)
    if isinstance(e, Pow):
        if e.exponent < 0 and abs(vals[0]) < 1e-300:
            raise EvaluationDomainError("negative power of a value too close to zero")
        return vals[0] ** e.exponent
    if isinstance(e, Prod):
        out = math.prod(vals, start=1.0)
    elif isinstance(e, Quot):
        if abs(vals[1]) < 1e-300:
            raise EvaluationDomainError("division by a value with magnitude < 1e-300")
        out = vals[0] / vals[1]
    else:
        return _MATH[e.func](vals[0])
    if not math.isfinite(out):
        raise OverflowError
    return out


# ---------------------------------------------------------------------------
# display

def _frac_str(q: Fraction) -> str:
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:      # more digits than int -> str allows
        raise ExprError("a constant too long to print") from None


def _needs_parens_in_product(e: Expr) -> bool:
    if isinstance(e, Sum) or isinstance(e, Quot):
        return True
    if isinstance(e, Const):
        return e.value < 0 or e.value.denominator != 1
    return False


def format_expr(e: Expr) -> str:
    """Deterministic display; re-parseable with the module grammar."""
    return _walk(e, _format_node)


def _format_node(e: Expr, kids: tuple[Expr, ...], strs: list[str]) -> str:
    if isinstance(e, Const):
        return _frac_str(e.value)
    if isinstance(e, Var):
        return e.var.name
    if isinstance(e, Sum):
        out = ""
        for i, s in enumerate(strs):
            if i == 0:
                out = s
            elif s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out if out else "0"
    if isinstance(e, Prod):
        factors = kids
        sign = ""
        if factors and isinstance(factors[0], Const) and factors[0].value == -1 and len(factors) > 1:
            sign = "-"
            factors, strs = factors[1:], strs[1:]
        parts = []
        for f, s in zip(factors, strs):
            # after a stripped -1, a lone sum needs them too: -(x + y)
            if (_needs_parens_in_product(f) and len(factors) > 1) or (
                    sign and isinstance(f, Sum)):
                s = f"({s})"
            parts.append(s)
        return sign + "*".join(parts)
    if isinstance(e, Pow):
        base, (b,) = strs[0], kids
        plain = isinstance(b, Var) or (
            isinstance(b, Const) and b.value >= 0 and b.value.denominator == 1)
        if not plain:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Quot):
        (num, den), (n, d) = strs, kids
        if not isinstance(n, (Var, Const, Call)) or num.startswith("-"):
            num = f"({num})"
        den_plain = isinstance(d, (Var, Call)) or (
            isinstance(d, Const) and d.value > 0 and d.value.denominator == 1)
        if not den_plain:
            den = f"({den})"
        return f"{num}/{den}"
    return f"{e.func}({strs[0]})"
