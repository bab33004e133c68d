"""Seeded random generators for polynomials, fields and forms.

Everything is driven by a caller-supplied random.Random so suites are
reproducible from a single seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .expr import Const, Expr, Var, VarId, ZERO, canon
from .geometry import Chart, DifferentialForm, VectorField, one_form

__all__ = [
    "rand_poly", "rand_vector_field", "rand_one_form", "rand_two_form",
]


def _rand_coeff(rng: random.Random) -> Const:
    c = 0
    while c == 0:
        c = rng.randint(-3, 3)
    return Const(Fraction(c))


def rand_poly(rng: random.Random, vars: Sequence[VarId], degree: int,
              terms: int = 3) -> Expr:
    """Random polynomial with small integer coefficients, total degree <= degree."""
    out: Expr = ZERO
    for _ in range(terms):
        term: Expr = _rand_coeff(rng)
        budget = degree
        for v in vars:
            e = rng.randint(0, budget)
            budget -= e
            if e == 1:
                term = term * Var(v)
            elif e > 1:
                term = term * Var(v) ** e
        out = out + term
    return canon(out)


def rand_vector_field(rng: random.Random, chart: Chart, degree: int,
                      terms: int = 2) -> VectorField:
    return VectorField(chart, tuple(rand_poly(rng, chart.vars, degree, terms)
                                    for _ in range(chart.dim)))


def rand_one_form(rng: random.Random, chart: Chart, degree: int,
                  terms: int = 2) -> DifferentialForm:
    return one_form(chart, tuple(rand_poly(rng, chart.vars, degree, terms)
                                 for _ in range(chart.dim)))


def rand_two_form(rng: random.Random, chart: Chart, degree: int,
                  terms: int = 2) -> DifferentialForm:
    keys = [(i, j) for i in range(chart.dim) for j in range(i + 1, chart.dim)]
    return DifferentialForm(chart, 2, {
        k: rand_poly(rng, chart.vars, degree, terms) for k in keys})

