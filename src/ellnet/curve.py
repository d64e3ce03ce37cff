"""Weierstrass curves and point arithmetic over Q or a prime field.

The same chord-and-tangent formulas serve both fields.  On a singular
reduced curve the group law is restricted to its smooth part: operations
involving the singular point are refused, while nonsingular operands are
fine (a line through two smooth points of a cubic cannot pass through the
node or cusp, so the smooth locus is closed under the law).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import (
    ModelNotIntegralError,
    PointNotOnCurveError,
    PreconditionError,
    SingularCurveError,
    SingularReductionError,
)
from .fieldarith import PrimeFieldElement, _element, val_p


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y), or the point at infinity (both fields None)."""

    x: object = None
    y: object = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        return "INFINITY" if self.is_infinity else f"({self.x}, {self.y})"


INFINITY = CurvePoint()


def rational_point(x, y) -> CurvePoint:
    return CurvePoint(Fraction(x), Fraction(y))


def gf_point(x: int, y: int, p: int) -> CurvePoint:
    return CurvePoint(PrimeFieldElement(x, p), PrimeFieldElement(y, p))


def _b_invariants(a1, a2, a3, a4, a6) -> tuple:
    """(b2, b4, b6, b8, discriminant) of the coefficients, in their own ring."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, disc


class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q or F_p.

    ``is_integral`` (a model over Q with integer coefficients) is set once,
    by the constructor.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "_binv", "is_integral")

    def __init__(self, a1, a2, a3, a4, a6, allow_singular: bool = False):
        coeffs = [a1, a2, a3, a4, a6]
        moduli = {c.p for c in coeffs if isinstance(c, PrimeFieldElement)}
        if len(moduli) > 1:
            raise ValueError("curve coefficients from different prime fields")
        # the invariants are integer polynomials in the coefficients, so
        # residues mod p and an integral model take them in int arithmetic
        if moduli:
            p = moduli.pop()
            ints = [c.residue if isinstance(c, PrimeFieldElement) else int(c) for c in coeffs]
            coeffs = [_element(c, p) for c in ints]
            binv = [_element(b, p) for b in _b_invariants(*ints)]
            self.is_integral = False
        else:
            coeffs = [Fraction(c) for c in coeffs]
            self.is_integral = all(c.denominator == 1 for c in coeffs)
            if self.is_integral:
                binv = map(Fraction, _b_invariants(*(c.numerator for c in coeffs)))
            else:
                binv = _b_invariants(*coeffs)
        self.a1, self.a2, self.a3, self.a4, self.a6 = coeffs
        self._binv = tuple(binv)
        if not allow_singular and self.discriminant == 0:
            raise ValueError("curve is singular; pass allow_singular=True for reduced models")

    def b_invariants(self):
        """(b2, b4, b6, b8, discriminant)."""
        return self._binv

    @property
    def discriminant(self):
        return self._binv[4]

    @property
    def gf_modulus(self) -> int | None:
        """The prime p when defined over F_p, else None."""
        return self.a1.p if isinstance(self.a1, PrimeFieldElement) else None

    def f(self, x, y):
        """The defining polynomial; zero exactly on the curve."""
        return (
            y * y + self.a1 * x * y + self.a3 * y
            - x**3 - self.a2 * x * x - self.a4 * x - self.a6
        )

    def contains(self, point: CurvePoint) -> bool:
        """Whether the point is on the curve.  A rational point x = n / m,
        y = r / s of an integral model is checked as f(x, y) m^3 s^2 = 0,
        in integers."""
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)) and self.is_integral:
            n, m, r, s = x.numerator, x.denominator, y.numerator, y.denominator
            a1, a2, a3, a4, a6 = (c.numerator for c in (self.a1, self.a2, self.a3, self.a4, self.a6))
            m2 = m * m
            return (r * (r * m + a1 * n * s + a3 * m * s) * m2
                    == (n * (n * n + a2 * n * m + a4 * m2) + a6 * m2 * m) * s * s)
        return self.f(x, y) == 0

    def require_on_curve(self, point: CurvePoint) -> None:
        if not self.contains(point):
            raise PointNotOnCurveError(f"{point} is not on the curve")

    def is_singular_point(self, point: CurvePoint) -> bool:
        """True when both partial derivatives of f vanish at an affine point."""
        if point.is_infinity:
            return False
        x, y = point.x, point.y
        fy = 2 * y + self.a1 * x + self.a3
        fx = self.a1 * y - 3 * x * x - 2 * self.a2 * x - self.a4
        return fy == 0 and fx == 0

    def _refuse_singular(self, point: CurvePoint) -> None:
        if self.discriminant == 0 and self.is_singular_point(point):
            raise SingularCurveError("group law is undefined at a singular point")

    def neg(self, point: CurvePoint) -> CurvePoint:
        if point.is_infinity:
            return INFINITY
        return CurvePoint(point.x, -point.y - self.a1 * point.x - self.a3)

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        self._refuse_singular(P)
        self._refuse_singular(Q)
        x1, y1 = P.x, P.y
        x2, y2 = Q.x, Q.y
        if x1 == x2:
            if y2 == -y1 - self.a1 * x2 - self.a3:
                return INFINITY
            s = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) / (
                2 * y1 + self.a1 * x1 + self.a3
            )
        else:
            s = (y2 - y1) / (x2 - x1)
        x3 = s * s + self.a1 * s - self.a2 - x1 - x2
        y3 = -(s * (x3 - x1) + y1) - self.a1 * x3 - self.a3
        return CurvePoint(x3, y3)

    def mul(self, n: int, P: CurvePoint) -> CurvePoint:
        if n < 0:
            n, P = -n, self.neg(P)
        result = INFINITY
        while n:
            if n & 1:
                result = self.add(result, P)
            P = self.add(P, P)
            n >>= 1
        return result

    def enumerate_points(self) -> Iterator[CurvePoint]:
        """All points over F_p by brute force (p <= 10**4), infinity included."""
        p = self.gf_modulus
        if p is None:
            raise PreconditionError("point enumeration requires a prime field curve")
        if p > 10_000:
            raise PreconditionError("point enumeration is limited to p <= 10^4")
        yield INFINITY
        for xr in range(p):
            x = PrimeFieldElement(xr, p)
            for yr in range(p):
                y = PrimeFieldElement(yr, p)
                if self.f(x, y) == 0:
                    yield CurvePoint(x, y)


@dataclass(frozen=True)
class PointDecomposition:
    """P = (a / d^2, b / d^3) in lowest terms with d >= 1."""

    a: int
    b: int
    d: int


def _exact_sqrt(n: int) -> int:
    """The square root of n, the denominator of an x-coordinate; n that is
    not a perfect square raises ``ModelNotIntegralError``."""
    r = math.isqrt(n)
    if r * r != n:
        raise ModelNotIntegralError("denominator of x is not a perfect square")
    return r


def decompose(curve: WeierstrassCurve, point: CurvePoint) -> PointDecomposition:
    """Standard (A, B, D) shape of a rational point on an integral model."""
    if point.is_infinity:
        raise PreconditionError("cannot decompose the point at infinity")
    if not curve.is_integral:
        raise ModelNotIntegralError("decomposition requires integral coefficients")
    curve.require_on_curve(point)
    x, y = point.x, point.y
    d = _exact_sqrt(x.denominator)
    b, rem = divmod(y.numerator * d**3, y.denominator)
    if rem:
        raise ModelNotIntegralError("denominator of y is not the cube of D")
    a = x.numerator
    if math.gcd(a, d) != 1 or math.gcd(b, d) != 1:
        raise ModelNotIntegralError("coprimality of (A, B) with D fails")
    return PointDecomposition(a, b, d)


Triple = tuple[int, int, int]


class IntegralModel:
    """The group law of an integral model on (A, B, D) triples.

    An affine point is (A / D^2, B / D^3) in lowest terms with D >= 1, the
    shape ``decompose`` gives, and the identity is None.  A sum is formed
    with cleared denominators, x = X / Z^2 and y = Y / Z^3 in integers, and
    reaches lowest terms with one gcd(X, Z^2) and one isqrt, where a
    ``Fraction`` chord-and-tangent step takes about a dozen gcds.  The
    coefficients are read once, when the model is built, as ints: a curve
    with a coefficient that is not an integer is refused.  As in
    ``WeierstrassCurve.add``, an affine operand at the singular point of a
    singular curve is refused.  The model's arithmetic mod p (``residue_law``,
    ``local_height``) runs on the same ints, and every singular-point test
    of the model, over Z or mod p, reads the partials of ``_partials``.
    """

    __slots__ = ("curve", "a1", "a2", "a3", "a4", "a6", "singular")

    def __init__(self, curve: WeierstrassCurve):
        if not curve.is_integral:
            raise ModelNotIntegralError("the integer group law requires integral coefficients")
        self.curve = curve
        self.a1, self.a2, self.a3, self.a4, self.a6 = (
            int(c) for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
        self.singular = curve.discriminant == 0

    @staticmethod
    def point(t: Triple | None) -> CurvePoint:
        if t is None:
            return INFINITY
        a, b, d = t
        return CurvePoint(Fraction(a, d * d), Fraction(b, d**3))

    def neg(self, t: Triple | None) -> Triple | None:
        if t is None:
            return None
        a, b, d = t
        return a, -b - self.a1 * a * d - self.a3 * d**3, d

    @staticmethod
    def x(t: Triple) -> Fraction:
        a, _, d = t
        return Fraction(a, d * d)

    def denominator(self, t: Triple) -> int:
        """D, after the on-curve and coprimality checks of ``decompose``,
        done in integers."""
        a, b, d = t
        d2 = d * d
        lhs = b * b + self.a1 * a * b * d + self.a3 * b * d2 * d
        rhs = a**3 + self.a2 * a * a * d2 + self.a4 * a * d2 * d2 + self.a6 * d2**3
        if lhs != rhs:
            raise PointNotOnCurveError(f"{self.point(t)} is not on the curve")
        if d < 1 or math.gcd(a, d) != 1 or math.gcd(b, d) != 1:
            raise ModelNotIntegralError("coprimality of (A, B) with D fails")
        return d

    def _partials(self, a: int, b: int, d: int) -> tuple[int, int]:
        """The partials (F_y, F_x) of the curve at (A / D^2, B / D^3),
        cleared of D: F_y D^3 = 2B + a1 A D + a3 D^3 and
        -F_x D^4 = 3A^2 + 2 a2 A D^2 + a4 D^4 - a1 B D.  Both are zero
        exactly at a singular point, and both are zero mod p exactly where
        the point reduces to the singular point mod p: where p divides D,
        2B and 3A^2 are not both zero mod p, as A and B are prime to D."""
        d2 = d * d
        return (2 * b + self.a1 * a * d + self.a3 * d2 * d,
                3 * a * a + 2 * self.a2 * a * d2 + self.a4 * d2 * d2 - self.a1 * b * d)

    def local_height(self, t: Triple, p: int) -> Fraction:
        """``neron_local_height`` of an affine point, read off its triple.

        A is prime to D, so v_p(x) = v_p(A) - 2 v_p(D), and the term
        max(-v_p(x) / 2, 0) is v_p(D).  A point that reduces to the
        singular point mod p, by ``_partials`` mod p, is refused.
        """
        fy, fx = self._partials(*t)
        if fy % p == 0 == fx % p:
            raise SingularReductionError("local height formula requires nonsingular reduction")
        return val_p(t[2], p) + Fraction(val_p(self.curve.discriminant, p), 12)

    def residue_law(self, p: int):
        """(add, neg) of the model reduced mod p, on affine points as int
        residue pairs (x, y) in [0, p), with None for infinity.

        The formulas of ``WeierstrassCurve.add``, with no
        ``PrimeFieldElement`` or ``CurvePoint``; where p divides the
        discriminant an affine operand at the singular point (``_partials``
        with D = 1, mod p) is refused, as ``add`` refuses it.
        """
        a1, a2, a3, a4 = (c % p for c in (self.a1, self.a2, self.a3, self.a4))
        singular = self.curve.discriminant % p == 0
        partials = self._partials

        def neg(P):
            return None if P is None else (P[0], (-P[1] - a1 * P[0] - a3) % p)

        def add(P, Q):
            if P is None:
                return Q
            if Q is None:
                return P
            if singular:
                for x, y in (P, Q):
                    fy, fx = partials(x, y, 1)
                    if fy % p == 0 == fx % p:
                        raise SingularCurveError("group law is undefined at a singular point")
            (x1, y1), (x2, y2) = P, Q
            if x1 == x2:
                u = 2 * y1 + a1 * x1 + a3
                if (u + y2 - y1) % p == 0:
                    return None
                s = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(u, -1, p) % p
            else:
                s = (y2 - y1) * pow(x2 - x1, -1, p) % p
            x3 = (s * s + a1 * s - a2 - x1 - x2) % p
            return x3, (-(s * (x3 - x1) + y1) - a1 * x3 - a3) % p

        return add, neg

    def add(self, P: Triple | None, Q: Triple | None) -> Triple | None:
        if P is None:
            return Q
        if Q is None:
            return P
        if self.singular and (self._partials(*P) == (0, 0) or self._partials(*Q) == (0, 0)):
            raise SingularCurveError("group law is undefined at a singular point")
        a1, a2, a3, a4 = self.a1, self.a2, self.a3, self.a4
        A1, B1, D1 = P
        A2, B2, D2 = Q
        # slope N / Z; x1z, x2z, y1z are x1 Z^2, x2 Z^2 and y1 Z^3
        if A1 == A2 and D1 == D2:  # equal x, since both are in lowest terms
            d2 = D1 * D1
            if B2 == -B1 - a1 * A1 * D1 - a3 * d2 * D1:
                return None
            u = 2 * B1 + a1 * A1 * D1 + a3 * d2 * D1
            n = 3 * A1 * A1 + 2 * a2 * A1 * d2 + a4 * d2 * d2 - a1 * B1 * D1
            z = D1 * u
            u2 = u * u
            x1z = x2z = A1 * u2
            y1z = B1 * u2 * u
        else:
            d1s, d2s = D1 * D1, D2 * D2
            u = A2 * d1s - A1 * d2s
            n = B2 * d1s * D1 - B1 * d2s * D2
            z = D1 * D2 * u
            u2 = u * u
            x1z = A1 * d2s * u2
            x2z = A2 * d1s * u2
            y1z = B1 * d2s * D2 * u2 * u
        z2 = z * z
        x = n * n + a1 * n * z - a2 * z2 - x1z - x2z
        y = -(n * (x - x1z) + y1z) - a1 * x * z - a3 * z2 * z
        g = math.gcd(x, z2)
        d = _exact_sqrt(z2 // g)
        e = z // d  # e^2 = g
        b, rem = divmod(y, g * e)
        if rem:
            raise ModelNotIntegralError("denominator of y is not the cube of D")
        return x // g, b, d


def reduce_curve(curve: WeierstrassCurve, p: int) -> WeierstrassCurve:
    """Coefficientwise reduction; the result may be singular."""
    if not curve.is_integral:
        raise ModelNotIntegralError("reduction requires integral coefficients")
    return WeierstrassCurve(
        *(PrimeFieldElement(int(c), p) for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)),
        allow_singular=True,
    )


def reduce_mod_p(curve: WeierstrassCurve, point: CurvePoint, p: int) -> CurvePoint:
    """Reduction of a rational point: infinity exactly when p divides D_P."""
    if point.is_infinity:
        return INFINITY
    dec = decompose(curve, point)
    residues = _triple_residues(dec.a, dec.b, dec.d, p)
    return INFINITY if residues is None else gf_point(*residues, p)


def _triple_residues(a: int, b: int, d: int, p: int) -> tuple[int, int] | None:
    """(A / D^2, B / D^3) mod p as int residues, None when p divides D."""
    if d % p == 0:
        return None
    inv_d = pow(d, -1, p)
    inv_d2 = inv_d * inv_d % p
    return a * inv_d2 % p, b * inv_d2 * inv_d % p


def neron_local_height(curve: WeierstrassCurve, point: CurvePoint, p: int) -> Fraction:
    """Local Neron height at p of a point with nonsingular reduction.

    lambda_p(P) = max(-v_p(x(P)) / 2, 0) + v_p(disc) / 12.
    """
    if point.is_infinity:
        raise PreconditionError("local height is not defined at infinity")
    reduced = reduce_mod_p(curve, point, p)
    # reduction to infinity is nonsingular; only a singular affine image is refused
    if not reduced.is_infinity and reduce_curve(curve, p).is_singular_point(reduced):
        raise SingularReductionError(
            "local height formula requires nonsingular reduction"
        )
    first = max(Fraction(-val_p(point.x, p), 2), Fraction(0)) if point.x else Fraction(0)
    return first + Fraction(val_p(curve.discriminant, p), 12)
