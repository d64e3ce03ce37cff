import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ellnet
from ellnet import PrimeFieldElement, factorize, is_prime, val_p
from ellnet.errors import NonPrimeModulusError
from ellnet.fieldarith import factor_route_counts


def test_val_p_examples():
    assert val_p(Fraction(3, 4), 2) == -2
    assert val_p(Fraction(45, 7), 3) == 2


def test_val_p_rejects_composite_modulus():
    with pytest.raises(NonPrimeModulusError):
        val_p(Fraction(1), 6)


@pytest.mark.parametrize("n", [0, 1, 4, 6, 91, 561, 3215031751, -7])
def test_val_p_refuses_a_non_prime_every_time(n):
    # the cached prime check admits only primes: a composite (561 is a
    # Carmichael number, 3215031751 a strong pseudoprime to the bases 2, 3,
    # 5 and 7) is refused on every call, with the same message
    assert val_p(Fraction(9, 4), 3) == 2
    for _ in range(2):
        with pytest.raises(NonPrimeModulusError, match=f"^{n} is not prime$"):
            val_p(Fraction(9, 4), n)


def test_val_p_of_zero_raises():
    # a valuation is a plain int; zero's, which is infinite, is refused
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="^valuation is infinite$"):
            val_p(zero, 7)
    assert type(val_p(Fraction(45, 7), 3)) is int


def test_val_p_multiplicative_and_ultrametric():
    rng = random.Random(1)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7, 13])
        x = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        y = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        assert val_p(x * y, p) == val_p(x, p) + val_p(y, p)
        if x + y != 0:
            vx, vy = val_p(x, p), val_p(y, p)
            vs = val_p(x + y, p)
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


def test_factorize_examples():
    f = factorize(116)
    assert f.sign == 1 and f.factors == ((2, 2), (29, 1))
    f = factorize(-153)
    assert f.sign == -1 and f.factors == ((3, 2), (17, 1))
    assert factorize(1).factors == ()
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_round_trip():
    rng = random.Random(2)
    for _ in range(1000):
        n = rng.randint(1, 2**64)
        if rng.random() < 0.5:
            n = -n
        f = factorize(n)
        assert f.value() == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)
        assert all(is_prime(p) for p in primes)


def test_factorize_large_table_entry():
    f = factorize(638022143238323743)
    assert f.value() == 638022143238323743


def test_factorize_hard_semiprimes():
    # products of two ~32-bit primes defeat trial division and force the
    # rho stage
    rng = random.Random(18)
    primes = []
    while len(primes) < 20:
        n = rng.randint(2**31, 2**32)
        if is_prime(n):
            primes.append(n)
    for a, b in zip(primes[::2], primes[1::2]):
        f = factorize(a * b)
        assert f.factors == tuple(sorted(((a, 1), (b, 1)))) if a != b else ((a, 2),)


def test_is_prime_small_cases():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_past_the_twelve_base_bound():
    # a strong pseudoprime to the twelve prime bases up to 37
    n = 399165290221 * 798330580441
    assert n == 318665857834031151167461
    assert not is_prime(n)
    assert factorize(n).factors == ((399165290221, 1), (798330580441, 1))


def _brent_rho(n: int, rng: random.Random) -> int:
    """Unbudgeted Brent-cycle Pollard rho, as factorize ran it before ECM: a
    nontrivial factor of composite odd n."""
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


def _rho_factor_into(n: int, out: dict[int, int], rng: random.Random) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n, rng)
    _rho_factor_into(d, out, rng)
    _rho_factor_into(n // d, out, rng)


def _trial_division_factorize(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The odd-divisor loop that factorize replaced, then unbudgeted rho:
    the oracle, sharing no splitting code with factorize."""
    sign = 1 if n > 0 else -1
    n = abs(n)
    powers: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            n //= p
            powers[p] = powers.get(p, 0) + 1
    d = 17
    while d * d <= n and d < 100_000:
        while n % d == 0:
            n //= d
            powers[d] = powers.get(d, 0) + 1
        d += 2
    if n > 1:
        _rho_factor_into(n, powers, random.Random(0x5EED))
    return sign, tuple(sorted(powers.items()))


def _assert_matches_trial_division(n):
    f = factorize(n)
    assert (f.sign, f.factors) == _trial_division_factorize(n), n


AT_THE_LIMIT = {
    "1": 1, "-1": -1, "2^200": 2**200, "3^100": 3**100,
    "primorial-100": math.prod(p for p in range(2, 100) if is_prime(p)),
    "99991": 99991, "100003": 100003, "99991^2": 99991**2, "99989*99991": 99989 * 99991,
    "99991*100003*2^5": 99991 * 100003 * 2**5,
    "99991*p20": 99991 * 10000000000000000051,
}


@pytest.mark.parametrize("n", AT_THE_LIMIT.values(), ids=AT_THE_LIMIT.keys())
def test_factorize_matches_trial_division_at_the_limit(n):
    assert is_prime(10000000000000000051)
    _assert_matches_trial_division(n)


def test_factorize_matches_trial_division_on_table_entries(net1, net2):
    # Tables 1-4 (denominators and values) and a 5x12 value grid per curve
    for net, (cols, rows) in ((net1, (5, 10)), (net2, (7, 10))):
        for c in range(cols):
            for r in range(rows):
                d = net.denominator((c, r))
                if d:
                    _assert_matches_trial_division(d)
    for net, (cols, rows) in ((net1, (5, 12)), (net2, (7, 10)), (net2, (5, 12))):
        for c in range(cols):
            for r in range(rows):
                value = net.value((c, r))
                if value:
                    _assert_matches_trial_division(value.numerator)
                    _assert_matches_trial_division(value.denominator)


@pytest.mark.parametrize("m, k", [(10**12 + 39, 2), (10**12 + 39, 3), (10**15 + 37, 2)],
                         ids=["p12^2", "p12^3", "p15^2"])
def test_factorize_splits_perfect_powers_at_once(m, k):
    assert is_prime(m)
    n = m**k * 7
    factor_route_counts.clear()
    start = time.perf_counter()
    f = factorize(n)
    assert time.perf_counter() - start < 0.1
    # the construction is the oracle: the rho oracle takes 1-15 s on these
    assert f.factors == ((7, 1), (m, k))
    assert factor_route_counts["power"] == 1
    assert factor_route_counts["rho"] == factor_route_counts["ecm"] == 0


def _random_prime(rng: random.Random, digits: int) -> int:
    while True:
        p = rng.randrange(10 ** (digits - 1), 10**digits)
        if is_prime(p):
            return p


def test_factorize_splits_semiprimes_past_rho_by_ecm():
    # smaller factors of 12-15 digits: far past rho's budget
    rng = random.Random(131)
    semiprimes = []
    for _ in range(10):
        semiprimes.append(sorted((_random_prime(rng, rng.randint(12, 15)),
                                  _random_prime(rng, rng.randint(18, 22)))))
    factor_route_counts.clear()
    for p, q in semiprimes:
        assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factor_route_counts["ecm"] == len(semiprimes)
    assert factor_route_counts["rho"] == 0
    n = math.prod(min(semiprimes))
    assert factorize(n) == factorize(n)


def test_factorize_w_1_13(net1):
    # W(1,13) on E1: prime factors of 14 and 21 digits; 7.1 s on rho alone
    n = net1.value((1, 13)).numerator
    f = factorize(n)
    assert f.value() == n
    assert all(is_prime(p) for p, _ in f.factors)
    assert sorted(len(str(p)) for p, _ in f.factors)[-2:] == [14, 21]


def test_plain_table_leaves_the_prime_table_unbuilt():
    src = str(Path(ellnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = (
        "import ellnet, ellnet.cli, ellnet.fieldarith as fa\n"
        "assert ellnet.cli.main(['net-table', '--curve', '0,0,0,0,-11', '--points',"
        " '(15,58);(3,4)', '--grid', '5x5']) == 0\n"
        "print([f.cache_info().currsize for f in"
        " (fa._trial_primes, fa._stage1_multiplier, fa._stage2_plan)])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0]"


def test_prime_field_arithmetic():
    a = PrimeFieldElement(3, 7)
    b = PrimeFieldElement(5, 7)
    assert a + b == 1
    assert a - b == 5
    assert a * b == 1
    assert a / b == a * b**-1
    assert 2 * a == 6
    assert (1 - a) == PrimeFieldElement(5, 7)
    assert a**-1 == 5
    assert -a == 4
    assert bool(PrimeFieldElement(0, 7)) is False


def test_prime_field_errors():
    with pytest.raises(ZeroDivisionError):
        PrimeFieldElement(1, 7) / PrimeFieldElement(0, 7)
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 7) + PrimeFieldElement(1, 11)
    with pytest.raises(NonPrimeModulusError):
        PrimeFieldElement(1, 10)
