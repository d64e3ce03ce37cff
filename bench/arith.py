"""Plain-integer curve arithmetic mod p, used only by the benchmark.

The benchmark derives its eval indices and checks the library's symmetry
answers with this code, so that neither depends on ``ellnet``'s own group
law.  Points are ``(x, y)`` tuples of residues; ``None`` is the identity.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CurveModP:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_p."""

    def __init__(self, coeffs, p: int):
        self.a1, self.a2, self.a3, self.a4, self.a6 = (c % p for c in coeffs)
        self.p = p

    def reduce(self, x, y):
        """Residues of a rational point; None when p divides a denominator."""
        x, y = Fraction(x), Fraction(y)
        p = self.p
        if x.denominator % p == 0 or y.denominator % p == 0:
            return None
        return (x.numerator * pow(x.denominator, -1, p) % p,
                y.numerator * pow(y.denominator, -1, p) % p)

    def is_singular_point(self, pt) -> bool:
        x, y = pt
        p = self.p
        fy = (2 * y + self.a1 * x + self.a3) % p
        fx = (self.a1 * y - 3 * x * x - 2 * self.a2 * x - self.a4) % p
        return fy == 0 and fx == 0

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if (y1 + y2 + self.a1 * x2 + self.a3) % p == 0:
                return None
            num = 3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1
            den = 2 * y1 + self.a1 * x1 + self.a3
        else:
            num, den = y2 - y1, x2 - x1
        s = num * pow(den % p, -1, p) % p
        x3 = (s * s + self.a1 * s - self.a2 - x1 - x2) % p
        y3 = (-(s * (x3 - x1) + y1) - self.a1 * x3 - self.a3) % p
        return (x3, y3)

    def neg(self, P):
        if P is None:
            return None
        x, y = P
        return (x, (-y - self.a1 * x - self.a3) % self.p)

    def mul(self, n: int, P):
        if n < 0:
            n, P = -n, self.neg(P)
        result = None
        while n:
            if n & 1:
                result = self.add(result, P)
            P = self.add(P, P)
            n >>= 1
        return result

    def order(self, P) -> int:
        """Order of P, found by stepping through its multiples (Hasse-bounded)."""
        bound = self.p + 2 + 2 * math.isqrt(self.p) + 2
        Q, n = P, 1
        while Q is not None:
            Q = self.add(Q, P)
            n += 1
            if n > bound:
                raise ArithmeticError("point order exceeds the Hasse bound")
        return n

    def kernel_index(self, P1, P2) -> int:
        """|Z^2 / ker(v -> v1 P1 + v2 P2)| = |<P1, P2>|."""
        rho1 = self.order(P1)
        multiples = set()
        Q = None
        for _ in range(rho1):
            multiples.add(Q)
            Q = self.add(Q, P1)
        m, Q = 1, P2
        while Q not in multiples:
            Q = self.add(Q, P2)
            m += 1
        return rho1 * m

    def in_kernel(self, v, P1, P2) -> bool:
        return self.add(self.mul(v[0], P1), self.mul(v[1], P2)) is None
