"""liftlab: symbolic lift calculus and Lie-Poisson kinetic equations.

Layers, bottom to top:

- expr / parser: exact rational expression kernel, with sin/cos/exp
  calls as atoms of its canonical ring;
- geometry: charts, vector fields, differential forms, exterior calculus;
- jets: first-order jet charts, prolongation, holonomic/vertical split;
- lifts: cotangent charts, complete cotangent lifts, canonical structure;
- kinetics: coadjoint (Lie-Poisson) equations for fluid, plasma, contact;
- grid / sim: periodic-grid method-of-lines integrator for the kinetic
  right-hand sides;
- verify: seeded randomized identity suites behind `liftlab verify`.
"""

__version__ = "0.1.0"

from .expr import (
    Const, Expr, Pow, Prod, Quot, Sum, Var, VarId,
    canonicalize, eval_numeric, expr_equal, is_rational, partial, substitute,
)
from .parser import parse_expr
from .geometry import (
    Chart, DifferentialForm, VectorField, VolumeForm, exterior_derivative,
    interior_product, is_exact_candidate, jacobi_lie_bracket,
    lie_derivative_form, divergence, one_form, pointwise_pairing, wedge,
)
from .jets import (
    GeneralizedVectorField, JetChart, holonomic_lift,
    holonomic_part, obstruction_form, prolong1, prolongation_bracket,
    total_derivative, vertical_representative,
)
from .lifts import (
    CotangentChart, canonical_poisson, complete_cotangent_lift,
    euler_vector_field, hamiltonian_vector_field, lift_decomposition,
    momentum_function, vertical_lift,
)
