"""Exact arithmetic foundations: p-adic valuations, prime fields, factoring.

Rational numbers are plain ``fractions.Fraction`` values (already reduced,
positive denominator) and valuations plain ints, so no wrapper type is
needed for either: a caller that may meet zero, whose valuation is
infinite, tests for it before calling ``val_p``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import NonPrimeModulusError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases.

    Deterministic for every n < 3.3 * 10^24; above that bound it is a
    strong probable-prime test to those bases.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_p(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational number; zero, whose valuation
    is infinite, raises ``ValueError``."""
    _check_prime_modulus(p)
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation is infinite")
    return _int_val(x.numerator, p) - _int_val(x.denominator, p)


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: sign * product(p**e)."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


# Splits made by ``factorize``, by route: ``trial`` (a prime from the batch
# gcd), ``power`` (n = m^k), ``rho`` and ``ecm``; and ``ecm_curves``, the
# curves ECM ran.  Process-wide: callers clear it or read differences.
factor_route_counts: Counter[str] = Counter()

# Brent rho iterations per split before the cofactor goes to ECM.  The
# factored tables of Tables 1-4 and of grids up to 5x12 need at most
# 30,846 for one split (a factor of 8 or 9 digits); the budget is twice
# that, rounded up to a power of two.
RHO_BUDGET = 1 << 16

# (B1, B2, curves) per ECM level, along the usual digit ladder: about 15,
# 20 and 25 digits.  The last level (curves 0) repeats until a factor is
# found.  B1 = 2,000 and B2 = 150,000 gave the least mean time on seeded
# 14-digit x 24-digit semiprimes, among B1 of 1,200-3,000 and B2 of
# 75-500 B1.
ECM_SCHEDULE = ((2_000, 150_000, 40), (11_000, 1_100_000, 100), (50_000, 5_000_000, 0))
ECM_SEED = 0xEC
STAGE2_D = 2310  # 2*3*5*7*11: the giant step of stage 2


def _pollard_rho(n: int, rng: random.Random) -> int | None:
    """Brent-cycle Pollard rho: a nontrivial factor of composite odd n, or
    None when RHO_BUDGET iterations have not found one."""
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            steps += 2 * r
            if steps > RHO_BUDGET:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _sieve(limit: int) -> bytearray:
    """sieve[i] == 1 exactly when i < limit is prime."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return sieve


@cache
def _stage1_multiplier(b1: int) -> int:
    """The product of the largest powers of the primes up to b1 that are <= b1."""
    k = 1
    for p in _trial_primes()[0]:
        if p > b1:
            break
        q = p
        while q * p <= b1:
            q *= p
        k *= q
    return k


@cache
def _stage2_plan(b1: int, b2: int) -> tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]]:
    """Baby steps j (odd, prime to STAGE2_D, below STAGE2_D/2), the first
    giant step m0, and per giant step m = m0, m0+1, ... the indices of the
    j for which m*STAGE2_D - j or m*STAGE2_D + j is a prime in (b1, b2]."""
    d = STAGE2_D
    babies = tuple(j for j in range(1, d // 2, 2) if math.gcd(j, d) == 1)
    sieve = _sieve(b2 + d)
    m0 = max(1, (b1 + d // 2) // d)
    rows = []
    for c in range(m0 * d, b2 + d // 2 + 1, d):
        rows.append(tuple(i for i, j in enumerate(babies)
                          if (b1 < c - j <= b2 and sieve[c - j])
                          or (b1 < c + j <= b2 and sieve[c + j])))
    return babies, m0, tuple(rows)


def _xadd(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int],
          n: int) -> tuple[int, int]:
    """x(P + Q) from x(P), x(Q) and x(P - Q), projectively (X : Z) mod n."""
    u = (p[0] - p[1]) * (q[0] + q[1])
    v = (p[0] + p[1]) * (q[0] - q[1])
    s = u + v
    t = u - v
    return diff[1] * (s * s % n) % n, diff[0] * (t * t % n) % n


def _xdbl(p: tuple[int, int], a24: int, n: int) -> tuple[int, int]:
    """x(2P) on the Montgomery curve with (A + 2)/4 = a24, mod n."""
    s = p[0] + p[1]
    t = p[0] - p[1]
    s = s * s % n
    t = t * t % n
    return s * t % n, (s - t) * (t + a24 * (s - t)) % n


def _ladder(k: int, p: tuple[int, int], a24: int, n: int) -> tuple[int, int]:
    """x(k*P) for k >= 1 by the Montgomery ladder: R1 - R0 = P throughout."""
    r0, r1 = p, _xdbl(p, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            r0, r1 = _xadd(r1, r0, p, n), _xdbl(r1, a24, n)
        else:
            r0, r1 = _xdbl(r0, a24, n), _xadd(r1, r0, p, n)
    return r0


def _ecm_curve(n: int, sigma: int, b1: int, b2: int) -> int:
    """One curve of Suyama's family, stage 1 to b1 and stage 2 to b2.

    Returns gcd(n, ...) of a product that vanishes mod each prime factor p
    of n for which the curve's group mod p has order b1-smooth up to one
    prime in (b1, b2]; 1 when no such p divides n.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    den = 16 * u**3 * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    q = _ladder(_stage1_multiplier(b1), (u**3 % n, v**3 % n), a24, n)
    g = math.gcd(q[1], n)
    if g != 1:
        return g
    # Stage 2: x(j*Q) for the odd j below STAGE2_D/2, then x(m*STAGE2_D*Q)
    # for each giant step m; they agree mod p when m*STAGE2_D +- j is the
    # order of Q mod p.
    babies, m0, rows = _stage2_plan(b1, b2)
    q2 = _xdbl(q, a24, n)
    odd = [q, _xadd(q2, q, q, n)]
    while len(odd) < STAGE2_D // 4:
        odd.append(_xadd(odd[-1], q2, odd[-2], n))
    step = _ladder(STAGE2_D, q, a24, n)
    giants = [_ladder(m0 * STAGE2_D, q, a24, n), _ladder((m0 + 1) * STAGE2_D, q, a24, n)]
    while len(giants) < len(rows):
        giants.append(_xadd(giants[-1], step, giants[-2], n))
    xs = _affine([odd[j // 2] for j in babies] + giants, n)
    if isinstance(xs, int):
        return xs
    baby_x = xs[:len(babies)]
    acc = 1
    for xg, row in zip(xs[len(babies):], rows):
        for i in row:
            acc = acc * (xg - baby_x[i]) % n
    return math.gcd(acc, n)


def _affine(points: list[tuple[int, int]], n: int) -> list[int] | int:
    """X/Z mod n for every point, by one inversion (Montgomery's trick); or
    gcd(Z, n) for the first Z that is not a unit mod n."""
    prefix = [1]
    for _, z in points:
        prefix.append(prefix[-1] * z % n)
    if math.gcd(prefix[-1], n) != 1:
        return next(g for _, z in points if (g := math.gcd(z, n)) != 1)
    inv = pow(prefix[-1], -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, z = points[i]
        xs[i] = x * inv % n * prefix[i] % n
        inv = inv * z % n
    return xs


def _ecm(n: int) -> int:
    """Lenstra's elliptic curve method on Montgomery curves: a nontrivial
    factor of composite n with no prime factor below TRIAL_LIMIT.

    Curves follow ECM_SCHEDULE with Suyama parameters from a
    ``random.Random(ECM_SEED)``, so the factor depends on n alone.
    """
    rng = random.Random(ECM_SEED)
    for b1, b2, curves in ECM_SCHEDULE:
        for _ in range(curves) if curves else itertools.count():
            factor_route_counts["ecm_curves"] += 1
            g = _ecm_curve(n, rng.randrange(6, n - 1), b1, b2)
            if g != 1 and g != n:
                return g
    raise AssertionError("unreachable: the last ECM level repeats")


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(m, k) with n = m^k and k >= 2 prime, or None, for n with no prime
    factor below TRIAL_LIMIT (so m >= TRIAL_LIMIT bounds k)."""
    for k in _trial_primes()[0]:
        if TRIAL_LIMIT**k > n:
            return None
        m = _integer_root(n, k)
        if m**k == n:
            return m, k
    return None


def _factor_into(n: int, out: dict[int, int], rng: random.Random, e: int = 1) -> None:
    """Add e times the prime factorization of n, which has no prime factor
    below TRIAL_LIMIT, to out: powers first, then rho, then ECM."""
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + e
        return
    power = _perfect_power(n)
    if power is not None:
        factor_route_counts["power"] += 1
        _factor_into(power[0], out, rng, e * power[1])
        return
    d = _pollard_rho(n, rng)
    if d is not None:
        factor_route_counts["rho"] += 1
    else:
        d = _ecm(n)
        if n % d != 0 or not 1 < d < n:
            raise ArithmeticError(f"ECM returned {d}, not a proper factor of {n}")
        factor_route_counts["ecm"] += 1
    _factor_into(d, out, rng, e)
    _factor_into(n // d, out, rng, e)


TRIAL_LIMIT = 100_000


@cache
def _trial_primes() -> tuple[tuple[int, ...], int]:
    """The primes below TRIAL_LIMIT and their product, built on first use.

    A bytearray sieve, then a pairwise product tree (faster than one
    ``math.prod``): about 11 ms, kept for the process since it depends on
    no input.
    """
    primes = tuple(itertools.compress(range(TRIAL_LIMIT), _sieve(TRIAL_LIMIT)))
    level = list(primes)
    while len(level) > 1:
        level = [math.prod(level[i:i + 2]) for i in range(0, len(level), 2)]
    return primes, level[0]


def factorize(n: int) -> Factorization:
    """Factor a nonzero integer into sign and ascending prime powers.

    The route: the primes below TRIAL_LIMIT come out of one gcd with their
    product (batch trial division, as in Bernstein's "How to find smooth
    parts of integers").  A composite cofactor m^k is written as such and m
    factored once.  Otherwise Pollard-Brent rho gets RHO_BUDGET iterations,
    and what it has not split goes to Lenstra's elliptic curve method
    (Montgomery curves with Suyama's parameters, an x-only ladder to B1,
    a baby-step giant-step stage 2 to B2, along ECM_SCHEDULE).  Every
    random choice is seeded, so the work and the answer depend on n alone.
    The time follows the second-largest prime factor, not the largest: on
    a 2-vCPU VM under Python 3.11, about 0.4 s at 14 digits, 0.5-1 s at 17
    and 3-20 s at 20.  Two prime factors of 30 or more digits each still
    take unbounded time.  A factor above 3.3 * 10^24 is a strong probable
    prime (see ``is_prime``).
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if n > 0 else -1
    n = abs(n)
    powers: dict[int, int] = {}
    primes, primorial = _trial_primes()
    g = math.gcd(n, primorial)
    small: list[int] = []
    for p in primes:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            small.append(p)
    if g > 1:
        small.append(g)  # g has no prime factor up to its square root
    factor_route_counts["trial"] += len(small)
    for p in small:
        powers[p] = e = _int_val(n, p)
        n //= p**e
    if n > 1:
        _factor_into(n, powers, random.Random(0x5EED))
    return Factorization(sign, tuple(sorted(powers.items())))


_VALIDATED_PRIMES: set[int] = set()


def _check_prime_modulus(p: int) -> None:
    if p not in _VALIDATED_PRIMES:
        if not is_prime(p):
            raise NonPrimeModulusError(f"{p} is not prime")
        _VALIDATED_PRIMES.add(p)


class PrimeFieldElement:
    """An element of F_p with operator arithmetic; integers coerce freely.

    The constructor checks that p is prime.  Arithmetic results reuse the
    modulus of an operand, which was checked when that operand was made,
    so they are built by ``_element`` without the check.
    """

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        _check_prime_modulus(p)
        self.residue = residue % p
        self.p = p

    def _coerce(self, other) -> "PrimeFieldElement | None":
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return _element(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _element(self.residue + o.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _element(self.residue - o.residue, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _element(o.residue - self.residue, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _element(self.residue * o.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.residue == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return _element(self.residue * pow(o.residue, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if exponent < 0 and self.residue == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return _element(pow(self.residue, exponent, self.p), self.p)

    def __neg__(self):
        return _element(-self.residue, self.p)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.residue == other.residue
        if isinstance(other, int):
            return self.residue == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.residue, self.p))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"PrimeFieldElement({self.residue}, {self.p})"


def _element(residue: int, p: int) -> PrimeFieldElement:
    """PrimeFieldElement(residue, p) for a modulus p already known to be prime."""
    x = object.__new__(PrimeFieldElement)
    x.residue = residue % p
    x.p = p
    return x
