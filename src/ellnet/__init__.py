"""Elliptic nets, net polynomials and denominator nets on Weierstrass curves.

Exact evaluation over Q, reduction to prime fields, zero-lattice symmetry
data and the fast symmetry-based evaluator, plus executable checkers for
the valuation and apparition theorems.
"""

from .curve import (
    CurvePoint,
    INFINITY,
    IntegralModel,
    PointDecomposition,
    WeierstrassCurve,
    decompose,
    gf_point,
    neron_local_height,
    rational_point,
    reduce_curve,
    reduce_mod_p,
)
from .divpoly import DivisionPolynomials
from .fieldarith import (
    Factorization,
    PrimeFieldElement,
    factorize,
    is_prime,
    val_p,
)
from .lattice import IntegerLattice, lattice_from_generators
from .net import (
    EllipticNet,
    QuadraticFormData,
    ReducedNet,
    initial_net_value,
    recurrence_check,
)
from .symmetry import (
    SymmetryData,
    build_symmetry_data,
    chi,
    delta,
    eval_by_symmetry,
    periodicity_check,
    rank_of_apparition,
    xi,
    zero_lattice,
)
from .theorems import (
    AyadReport,
    ValuationReport,
    ayad_equivalence_report,
    epsilon_quadratic_check,
    epsilon_value,
    unique_apparition_test,
    valuation_match_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
