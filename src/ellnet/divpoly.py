"""Division polynomial values psi_n, phi_n at a fixed point; rank-1 nets.

Values are computed by the doubling instantiations of the division
polynomial recursion,

    psi_{2k+1} = psi_{k+2} psi_k^3 - psi_{k-1} psi_{k+1}^3,
    psi_{2k} psi_2 = psi_k (psi_{k+2} psi_{k-1}^2 - psi_{k-2} psi_{k+1}^2),

with memoized evaluation of the short windows of indices a doubling chain
needs, so sparse large indices stay cheap.  One loop serves both fields:
over F_p on int residues kept reduced with ``x % p``, over Q on ints
(``Fraction`` values on a non-integral model), and ``psi`` and ``phi``
return the field's values.  Over Q on an integral
model, with P = (A / D^2, B / D^3) in lowest terms, psi_n has weight
n^2 - 1 in x, y and the a_j, so psi'_n = D^(n^2 - 1) psi_n is psi_n of
the integral point (A, B) on the isomorphic curve with coefficients
a_j D^j: an int, whose recursion divides only in the even step, exactly.
The rescaled net of ``net`` takes Psi-hat(n e_i) = D^(n^2) psi_n =
D psi'_n from ``scaled``; in that sequence the odd step divides by D^3
and the even one by D^2 Psi-hat(2 e_i).  The even step divides by psi_2,
which divides every even psi_n as a polynomial: over F_p, and over Q on
a non-integral model (``Fraction`` values), it multiplies by 1 / psi_2,
taken once per point.  Where psi_2(P) = 0 (P of order 2 over Q, or
psi_2(P) = 0 mod p) every even value is 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curve import CurvePoint, WeierstrassCurve
from .errors import PreconditionError
from .fieldarith import PrimeFieldElement, _element

# psi_4 carries the 10*b8*x^2 term of the standard references; with it the
# fixture values match the published net tables (the E2 point (1, 3) is
# sensitive to the term since b8 != 0 there).


class DivisionPolynomials:
    """Memoized psi_n(P) and phi_n(P) for one curve point.

    Over Q the memo holds the ints psi'_n on an integral model and
    ``Fraction`` values psi_n on any other model.  Over F_p it holds int
    residues, reduced with ``% p``, and ``psi`` and ``phi`` return them as
    ``PrimeFieldElement``; ``from_residues`` builds that memo straight from
    the residues of a point and of the curve's invariants."""

    def __init__(self, curve: WeierstrassCurve, point: CurvePoint):
        if point.is_infinity:
            raise PreconditionError("division polynomials need an affine point")
        curve.require_on_curve(point)
        self.curve, self.point = curve, point
        seeds = (curve.a1, curve.a3, *curve.b_invariants()[:4], point.x, point.y)
        p = curve.gf_modulus
        if p is None and curve.is_integral:  # psi'_n at (A, B) on the curve with a_j D^j
            d = math.isqrt(point.x.denominator)
            self._start(p, *(c.numerator * d**w for c, w in zip(seeds[:6], (1, 3, 2, 4, 6, 8))),
                        point.x.numerator, point.y.numerator, d)
        else:
            self._start(p, *(seeds if p is None else
                             (c.residue if isinstance(c, PrimeFieldElement) else c for c in seeds)))

    @classmethod
    def from_residues(cls, p: int, a1: int, a3: int, b2: int, b4: int, b6: int, b8: int,
                      x: int, y: int) -> "DivisionPolynomials":
        """psi and phi at the point (x, y) mod a prime p, from int residues of
        a1, a3 and the b-invariants; the caller has checked that the point
        is on the curve.  Its ``curve`` and ``point`` are None."""
        dp = object.__new__(cls)
        dp.curve = dp.point = None
        dp._start(p, a1, a3, b2, b4, b6, b8, x, y)
        return dp

    def _start(self, p, a1, a3, b2, b4, b6, b8, x, y, d: int | None = None) -> None:
        psi2 = 2 * y + a1 * x + a3
        psi3 = 3 * x**4 + b2 * x**3 + 3 * b4 * x * x + 3 * b6 * x + b8
        psi4 = psi2 * (
            2 * x**6 + b2 * x**5 + 5 * b4 * x**4 + 10 * b6 * x**3
            + 10 * b8 * x * x + (b2 * b8 - b4 * b6) * x + (b4 * b8 - b6 * b6)
        )
        memo = {0: x - x, 1: x**0, 2: psi2, 3: psi3, 4: psi4}
        if p is not None:
            memo = {n: w % p for n, w in memo.items()}
        self.p, self._x, self._memo, self._d = p, x, memo, d
        self._top = 4  # the largest m with [0, m] wholly in the memo
        # the even step divides by psi'_2 exactly with d, and else multiplies
        # by 1 / psi_2, taken once; 0 where psi_2 = 0
        if memo[2] == 0 or d is not None:
            self._even = memo[2]
        else:
            self._even = memo[1] / memo[2] if p is None else pow(memo[2], -1, p)

    def _field(self, w, e: int):
        """A memo value in the field: over Q on an integral model w / D^e."""
        if self.p is not None:
            return _element(w, self.p)
        return w if self._d is None else Fraction(w, self._d ** e)

    def psi(self, n: int):
        """psi_n(P); odd in n.  It never raises: the odd step does not divide,
        and where psi_2(P) = 0 every even value is 0."""
        return self._field(self._value(n), n * n - 1 if n else 0)

    def scaled(self, n: int):
        """D^(n^2) psi_n = D psi'_n over Q on an integral model, and psi_n
        as the memo holds it elsewhere (F = 1)."""
        w = self._value(n)
        return w * self._d if self._d not in (None, 1) else w

    def _value(self, n: int):
        """psi_n(P) as the memo holds it: psi'_n over Q on an integral
        model, a ``Fraction`` on any other model over Q, an int residue mod
        p.

        No recursion, so no index size meets the recursion limit.  The
        doubling steps for the indices in [lo, hi] need exactly those in
        [max(lo // 2 - 2 + lo % 2, 0), hi // 2 + 2].  ``todo`` lists the
        windows top-down, from [n, n] until the next one lies wholly in the
        memo, and is filled in reverse: bottom-up, each window from the one
        below it.  A window that ends at or below ``_top``, the end of the
        memo's contiguous prefix [0, _top], is known to be there without a
        scan, so a run of consecutive indices plans no window."""
        p = self.p
        if n < 0:
            w = -self._value(-n)
            return w if p is None else w % p
        memo = self._memo
        if n in memo:
            return memo[n]
        even, exact = self._even, self._d is not None
        todo, lo, hi = [n], n // 2 - 2 + n % 2, n // 2 + 2
        while hi > self._top and not all(map(memo.__contains__, range(lo, hi + 1))):
            todo += range(hi, lo - 1, -1)
            lo, hi = max(lo // 2 - 2 + lo % 2, 0), hi // 2 + 2
        for m in reversed(todo):
            if m in memo:
                continue
            k = m // 2
            if m % 2:
                w = memo[k + 2] * memo[k] ** 3 - memo[k - 1] * memo[k + 1] ** 3
            elif even == 0:
                w = memo[0]
            else:
                w = memo[k] * (memo[k + 2] * memo[k - 1] ** 2 - memo[k - 2] * memo[k + 1] ** 2)
                w = w // even if exact else w * even
            memo[m] = w if p is None else w % p
        while self._top + 1 in memo:
            self._top += 1
        return memo[n]

    def phi(self, n: int):
        """phi_n(P) = x(P) psi_n^2 - psi_{n+1} psi_{n-1}; even in n (over Q
        on an integral model (A psi'_n^2 - psi'_{n+1} psi'_{n-1}) / D^(2 n^2))."""
        return self._field(self._x * self._value(n) ** 2 - self._value(n + 1) * self._value(n - 1),
                           2 * n * n)
