"""Exact arithmetic foundations: p-adic valuations, prime fields, factoring.

Rational numbers are plain ``fractions.Fraction`` values (already reduced,
positive denominator), so no wrapper type is needed for them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, total_ordering

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


@total_ordering
class Valuation:
    """Value of a discrete valuation: an integer, or infinite for zero.

    The infinite valuation compares greater than every integer one.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None):
        self._value = value

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    def unwrap(self) -> int:
        """The finite value; raises for the valuation of zero."""
        if self._value is None:
            raise ValueError("valuation is infinite")
        return self._value

    def __add__(self, other: "Valuation") -> "Valuation":
        if not isinstance(other, Valuation):
            other = Valuation(other)
        if self._value is None or other._value is None:
            return INFINITE_VALUATION
        return Valuation(self._value + other._value)

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        if isinstance(other, Valuation):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, int):
            other = Valuation(other)
        if not isinstance(other, Valuation):
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return "Valuation(INFINITY)" if self._value is None else f"Valuation({self._value})"


INFINITE_VALUATION = Valuation(None)


def _int_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_p(x: Fraction | int, p: int) -> Valuation:
    """p-adic valuation of a rational number; infinite for zero."""
    if not is_prime(p):
        raise NonPrimeModulusError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INFINITE_VALUATION
    return Valuation(_int_val(x.numerator, p) - _int_val(x.denominator, p))


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


def _pollard_rho(n: int, rng: random.Random) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
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


def _factor_into(n: int, out: dict[int, int], rng: random.Random) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n, rng)
    _factor_into(d, out, rng)
    _factor_into(n // d, out, rng)


TRIAL_LIMIT = 100_000


@cache
def _trial_primes() -> tuple[tuple[int, ...], int]:
    """The primes below TRIAL_LIMIT and their product, built on first use.

    A bytearray sieve, then a pairwise product tree (faster than one
    ``math.prod``): about 11 ms, kept for the process since it depends on
    no input.
    """
    sieve = bytearray([1]) * TRIAL_LIMIT
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(TRIAL_LIMIT - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, TRIAL_LIMIT, i)))
    primes = tuple(itertools.compress(range(TRIAL_LIMIT), sieve))
    level = list(primes)
    while len(level) > 1:
        level = [math.prod(level[i:i + 2]) for i in range(0, len(level), 2)]
    return primes, level[0]


def factorize(n: int) -> Factorization:
    """Factor a nonzero integer into sign and ascending prime powers.

    The primes below TRIAL_LIMIT come out of one gcd with their product
    (batch trial division, as in Bernstein's "How to find smooth parts of
    integers"); the cofactor goes to Pollard-Brent rho.  A factor above
    3.3 * 10^24 is a strong probable prime (see ``is_prime``).
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
