"""Division polynomial values psi_n, phi_n at a fixed point; rank-1 nets.

Values are computed by the doubling instantiations of the division
polynomial recursion,

    psi_{2k+1} = psi_{k+2} psi_k^3 - psi_{k-1} psi_{k+1}^3,
    psi_{2k} psi_2 = psi_k (psi_{k+2} psi_{k-1}^2 - psi_{k-2} psi_{k+1}^2),

with memoized evaluation of the short windows of indices a doubling chain
needs, so sparse large indices stay cheap.
The even step divides by psi_2, which divides every even psi_n as a
polynomial; so where psi_2(P) = 0 (P of order 2 over Q, or psi_2(P) = 0
mod p) every even value is 0.
"""

from __future__ import annotations

from .curve import CurvePoint, WeierstrassCurve
from .errors import PreconditionError

# psi_4 carries the 10*b8*x^2 term of the standard references; with it the
# fixture values match the published net tables (the E2 point (1, 3) is
# sensitive to the term since b8 != 0 there).


class DivisionPolynomials:
    """Memoized psi_n(P) and phi_n(P) for one curve point."""

    def __init__(self, curve: WeierstrassCurve, point: CurvePoint):
        if point.is_infinity:
            raise PreconditionError("division polynomials need an affine point")
        curve.require_on_curve(point)
        self.curve = curve
        self.point = point
        x, y = point.x, point.y
        b2, b4, b6, b8, _ = curve.b_invariants()
        one = x**0
        psi2 = 2 * y + curve.a1 * x + curve.a3
        psi3 = 3 * x**4 + b2 * x**3 + 3 * b4 * x * x + 3 * b6 * x + b8
        psi4 = psi2 * (
            2 * x**6 + b2 * x**5 + 5 * b4 * x**4 + 10 * b6 * x**3
            + 10 * b8 * x * x + (b2 * b8 - b4 * b6) * x + (b4 * b8 - b6 * b6)
        )
        self._memo = {0: x - x, 1: one, 2: psi2, 3: psi3, 4: psi4}

    def psi(self, n: int):
        """psi_n(P); odd in n.  It never raises: the odd step does not divide,
        and where psi_2(P) = 0 every even value is 0.

        No recursion, so no index size meets the recursion limit.  The
        doubling steps for the indices in [lo, hi] need exactly those in
        [lo // 2 - 2 + lo % 2, hi // 2 + 2].  ``todo`` starts as [n]; each
        pass fills it in order, and a pass that meets an index not yet known
        (KeyError) puts the next window down in front of it and starts over.
        So a value whose inputs are known takes one pass, and a chain of L
        new halvings L + 1 passes, each failed one stopping in its lowest window."""
        if n < 0:
            return -self.psi(-n)
        memo = self._memo
        if n in memo:
            return memo[n]
        todo, lo, hi = [n], n, n
        while n not in memo:
            try:
                for m in todo:
                    if m in memo:
                        continue
                    k = m // 2
                    if m % 2:
                        memo[m] = memo[k + 2] * memo[k] ** 3 - memo[k - 1] * memo[k + 1] ** 3
                    elif memo[2] == 0:
                        memo[m] = memo[0]
                    else:
                        memo[m] = memo[k] * (memo[k + 2] * memo[k - 1] ** 2
                                             - memo[k - 2] * memo[k + 1] ** 2) / memo[2]
            except KeyError:
                lo, hi = max(lo // 2 - 2 + lo % 2, 0), hi // 2 + 2
                todo[:0] = range(lo, hi + 1)
        return memo[n]

    def phi(self, n: int):
        """phi_n(P) = x(P) psi_n^2 - psi_{n+1} psi_{n-1}; even in n."""
        return self.point.x * self.psi(n) ** 2 - self.psi(n + 1) * self.psi(n - 1)
