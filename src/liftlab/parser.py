"""Recursive-descent parser for the expression grammar.

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | base ('^' integer)?
    base     := rational | var | func '(' expr ')' | '(' expr ')'
    rational := integer ('/' positive-integer)?
    func     := 'sin' | 'cos' | 'exp'

Whitespace is insignificant.  The integer after '^' may carry a sign.
A unary minus applies to the whole factor after it, power included, so
``-x^2`` reads as -(x^2) and ``-3^2`` as -9, as the printer writes them.
Identifiers other than the three function names must be declared variables.
Parentheses (a function call's included), unary minus and the quotients of
one term, which nest left to right, may nest at most MAX_DEPTH levels
together; deeper input raises ParseError, so neither the parser nor
``expr._to_ratfunc``, the kernel's one recursive walk, can run out of
stack.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Sequence

from .expr import (
    Call, Const, Expr, ExprError, MINUS_ONE, Pow, Prod, Quot, Sum, Var, VarId,
    FUNCTIONS,
)

__all__ = ["parse_expr", "ParseError", "UnknownVariableError", "IDENT_RE", "MAX_DEPTH"]

IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
MAX_DEPTH = 32


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    def __init__(self, name: str, offset: int):
        ParseError.__init__(self, f"unknown variable '{name}'", offset)
        self.name = name


class _Parser:
    def __init__(self, text: str, vars: Sequence[VarId]):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.by_name = {v.name: v for v in vars}

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def nest(self) -> None:
        """Enter one level of nesting: parentheses, unary minus or a quotient."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", self.pos)

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                terms.append(self.term())
            elif ch == "-":
                self.pos += 1
                terms.append(Prod((MINUS_ONE, self.term())))
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expr:
        out = self.factor()
        quotients = 0
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                rhs = self.factor()
                out = Prod(out.factors + (rhs,)) if isinstance(out, Prod) else Prod((out, rhs))
            elif ch == "/":
                # each '/' nests the term one level deeper: ((a/b)/c)/d
                self.pos += 1
                self.nest()
                quotients += 1
                out = Quot(out, self.factor())
            else:
                break
        self.depth -= quotients
        return out

    def factor(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            self.nest()
            e = Prod((MINUS_ONE, self.factor()))
            self.depth -= 1
            return e
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            exponent = self.signed_integer()
            return Pow(base, exponent)
        return base

    def signed_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an integer exponent", self.pos)
        self.pos = m.end()
        return self.integer(start)

    def integer(self, start: int) -> int:
        """The integer literal from ``start`` to ``pos``; one with more
        digits than Python converts raises ParseError at its start."""
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            raise ParseError(f"an integer literal of more than {sys.get_int_max_str_digits()} "
                             "digits", start) from None

    def base(self) -> Expr:
        ch = self.peek()
        if ch == "":
            raise ParseError("unexpected end of input", self.pos)
        if ch == "(":
            self.pos += 1
            self.nest()
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        if ch.isdigit():
            return self.rational()
        m = IDENT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError(f"unexpected character '{ch}'", self.pos)
        name = m.group(0)
        start = self.pos
        self.pos = m.end()
        if name in FUNCTIONS:
            self.expect("(")
            self.nest()
            arg = self.expr()
            self.expect(")")
            self.depth -= 1
            return Call(name, arg)
        if name not in self.by_name:
            raise UnknownVariableError(name, start)
        return Var(self.by_name[name])

    def rational(self) -> Expr:
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an integer", self.pos)
        self.pos = m.end()
        num = self.integer(m.start())
        # a '/' directly after an integer binds as part of the rational
        # literal only when followed by another integer; term-level division
        # of integer by integer is the same value either way.
        save = self.pos
        if self.peek() == "/":
            self.pos += 1
            m2 = _INT_RE.match(self.text, self.pos)
            if m2:
                self.pos = m2.end()
                den = self.integer(m2.start())
                # '^' binds tighter than '/', so 1/2^3 reads 1 here and leaves /2^3 to the term
                if den > 0 and self.peek() != "^":
                    return Const(Fraction(num, den))
            self.pos = save
        return Const(Fraction(num))


def parse_expr(text: str, vars: Sequence[VarId]) -> Expr:
    """Parse ``text`` over the given variables; see the module grammar."""
    return _Parser(text, vars).parse()
