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
    """A nonzero integer combination of the base points is the identity.

    The points route over Q raises it at a zero divisor, of a point step or
    of the row of the net recurrence that reduces a small support, and
    ``denominator`` where v . P is the identity.  ``value`` raises it only
    at ranks 3 and up, where the points route serves the box (a
    ``ReducedNet`` also past its bound on the exact detour, which it takes
    afresh at every index whose ladder meets a raising box value, so the
    outcome does not depend on what the net evaluated before); nets of rank
    1 and 2 answer Psi_v(P) at every index, from psi, the seeded box and
    the ladder.
    """


class DegenerateNetError(EllnetError, ArithmeticError):
    """A net evaluation step over a finite field required division by zero.

    The points and recurrence routes over F_p raise it at a zero of the
    net.  ``ReducedNet`` never raises it: its halving ladder and psi do not
    divide by a zero.
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
