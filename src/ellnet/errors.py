"""Exception types shared across the library."""


class EllnetError(Exception):
    """Base class for all library errors."""


class NonPrimeModulusError(EllnetError, ValueError):
    """A modulus that must be prime is not."""


class RankDeficientError(EllnetError, ValueError):
    """Generators do not span a full-rank sublattice."""


class PointNotOnCurveError(EllnetError, ValueError):
    """A point does not satisfy the curve equation."""


class SingularCurveError(EllnetError, ArithmeticError):
    """Group operation attempted through a singular point of a singular curve."""


class ModelNotIntegralError(EllnetError, ValueError):
    """Operation requires an integral Weierstrass model."""


class SingularReductionError(EllnetError, ArithmeticError):
    """The reduced point is singular, so the requested formula does not apply."""


class DegeneratePairError(EllnetError, ValueError):
    """Two base points share an x-coordinate (P_i +- P_j is the identity)."""


class DependentPointsError(EllnetError, ArithmeticError):
    """A nonzero integer combination of the base points is the identity."""


class DegenerateNetError(EllnetError, ArithmeticError):
    """A net evaluation step over a finite field required division by zero.

    The points and recurrence routes over F_p raise it at a zero of the
    net, and the even psi recursion where psi_2 = 0.  ``ReducedNet`` meets
    no zero divisor on its halving ladder; where psi raises it, the ladder
    splits the axis index, and on a rank-1 net, which has no ladder, the
    value is taken exact over Q and reduced.
    """


class NonIntegralReductionError(EllnetError, ArithmeticError):
    """A value with negative p-adic valuation cannot be reduced mod p."""


class NotSubgroupError(EllnetError, ArithmeticError):
    """The zero set of the net is not a subgroup (no unique rank of apparition)."""


class SmallQuotientError(EllnetError, ValueError):
    """The quotient by the zero lattice has fewer than four elements."""


class NotEllipticSequenceError(EllnetError, ValueError):
    """Supplied values violate the elliptic sequence recurrence."""


class PreconditionError(EllnetError, ValueError):
    """A documented precondition of an operation was violated."""
