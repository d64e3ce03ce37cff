import random
from fractions import Fraction

import pytest

from ellnet import (CurvePoint, DivisionPolynomials, INFINITY, WeierstrassCurve, rational_point,
                    reduce_curve, reduce_mod_p)
from conftest import P1, P2, Q1, Q2, assert_psi_is_exact_psi_reduced


@pytest.fixture(scope="module")
def dp1(e1):
    return DivisionPolynomials(e1, P1)


def test_psi_small_values(dp1):
    assert dp1.psi(0) == 0
    assert dp1.psi(1) == 1
    assert dp1.psi(2) == 8
    assert dp1.psi(3) == -153
    assert dp1.psi(-2) == -8
    assert dp1.psi(4) == -(2**4) * 37 * 167


def test_psi4_carries_b8_term(e2):
    # the published net table pins psi_4 at (1, 3): -13 * 55819; without the
    # 10*b8*x^2 term the value would be 13 * -48469
    dp = DivisionPolynomials(e2, Q2)
    assert dp.psi(4) == -13 * 55819
    dp_p = DivisionPolynomials(e2, P2)
    assert dp_p.psi(2) == 7
    assert dp_p.psi(3) == -735
    assert dp_p.psi(4) == -(7**4) * 127


def test_phi_values(dp1):
    assert dp1.phi(1) == 3
    assert dp1.phi(2) == 345
    assert dp1.phi(-1) == dp1.phi(1)
    assert dp1.phi(-5) == dp1.phi(5)


def multiple(dp, n):
    """n*P through phi_n / psi_n^2, the y-coordinate via the group law."""
    assert n != 0
    psin = dp.psi(n)
    group_point = dp.curve.mul(n, dp.point)
    if psin == 0:
        assert group_point.is_infinity, "psi_n vanished but n*P is affine"
        return INFINITY
    x = dp.phi(n) / psin**2
    assert not group_point.is_infinity and group_point.x == x, (
        "division polynomial x-coordinate disagrees with group law")
    return CurvePoint(x, group_point.y)


def test_multiple_examples(e1, dp1):
    assert multiple(dp1, 2) == e1.mul(2, P1)
    assert multiple(dp1, 1) == P1
    assert multiple(dp1, -3) == e1.mul(-3, P1)


def test_multiple_infinity_over_gf(e1):
    red = reduce_curve(e1, 7)
    dp = DivisionPolynomials(red, reduce_mod_p(e1, P1, 7))
    assert dp.psi(13) == 0  # 13 is the group order mod 7
    assert multiple(dp, 13) == INFINITY


def test_x_coordinate_agreement(e1, e2):
    for curve, pt in ((e1, P1), (e2, Q2)):
        dp = DivisionPolynomials(curve, pt)
        for n in range(2, 31):
            expect = curve.mul(n, pt)
            assert Fraction(expect.x) == dp.phi(n) / dp.psi(n) ** 2


def test_oddness(dp1):
    for n in range(0, 40):
        assert dp1.psi(-n) == -dp1.psi(n)


def test_full_recursion_closure(dp1):
    # the general identity, not only the doubling instantiations used to compute
    for n in range(2, 16):
        for m in range(n + 1, 16):
            lhs = dp1.psi(m + n) * dp1.psi(m - n)
            rhs = (dp1.psi(m + 1) * dp1.psi(m - 1) * dp1.psi(n) ** 2
                   - dp1.psi(n + 1) * dp1.psi(n - 1) * dp1.psi(m) ** 2)
            assert lhs == rhs


def test_elliptic_sequence_law(dp1):
    rng = random.Random(6)
    for _ in range(200):
        m = rng.randint(-20, 20)
        n = rng.randint(-20, 20)
        lhs = dp1.psi(m + n) * dp1.psi(m - n) * dp1.psi(1) ** 2
        rhs = (dp1.psi(m + 1) * dp1.psi(m - 1) * dp1.psi(n) ** 2
               - dp1.psi(n + 1) * dp1.psi(n - 1) * dp1.psi(m) ** 2)
        assert lhs == rhs


def test_degenerate_even_step_over_gf(e1, e2):
    # psi_2(P) = 0 mod p: psi_2 divides every even psi_n, so the even values
    # are 0 and psi answers at every index, equal to the exact psi reduced
    for curve, point, p in ((e1, P1, 2), (e1, Q1, 29), (e2, P2, 7)):
        dp = DivisionPolynomials(reduce_curve(curve, p), reduce_mod_p(curve, point, p))
        assert dp.psi(2) == 0
        assert dp.psi(3) is not None
        assert_psi_is_exact_psi_reduced(dp, curve, point, p)


def _plain_psi(curve, point, n_max):
    """psi_0 .. psi_{n_max} at the point by the plain recursion, one index
    after the other, in the field of the coordinates: ``Fraction`` values
    over Q, ``PrimeFieldElement`` values mod p."""
    x, y = point.x, point.y
    b2, b4, b6, b8 = curve.b_invariants()[:4]
    psi = [x - x, x**0, 2 * y + curve.a1 * x + curve.a3,
           3 * x**4 + b2 * x**3 + 3 * b4 * x**2 + 3 * b6 * x + b8]
    psi.append(psi[2] * (2 * x**6 + b2 * x**5 + 5 * b4 * x**4 + 10 * b6 * x**3 + 10 * b8 * x**2
                         + (b2 * b8 - b4 * b6) * x + b4 * b8 - b6**2))
    for m in range(5, n_max + 1):
        k = m // 2
        if m % 2:
            psi.append(psi[k + 2] * psi[k] ** 3 - psi[k - 1] * psi[k + 1] ** 3)
        elif psi[2] == 0:  # a point of order 2: every even psi_n is 0
            psi.append(psi[0])
        else:
            psi.append(psi[k] * (psi[k + 2] * psi[k - 1] ** 2 - psi[k - 2] * psi[k + 1] ** 2)
                       / psi[2])
    return psi


E1 = WeierstrassCurve(0, 0, 0, 0, -11)
TORSION_CURVE = WeierstrassCurve(0, 0, 0, 0, 1)
# (curve, point, D, the largest n checked against Fraction psi): past
# n = 150 the plain Fraction recursion at 2P takes tens of seconds, so 2P
# is checked to 300 mod three primes as well
RESCALED_PSI_CASES = {"E1-2P": (E1, E1.mul(2, P1), 8, 150),
                      "order-2": (TORSION_CURVE, rational_point(-1, 0), 1, 300),
                      "order-3": (TORSION_CURVE, rational_point(0, 1), 1, 300),
                      "order-6": (TORSION_CURVE, rational_point(2, 3), 1, 300)}


@pytest.mark.parametrize("case", sorted(RESCALED_PSI_CASES))
def test_psi_over_q_is_the_int_sequence_d_to_the_n_squared_psi(case):
    # the rescaled psi D^{n^2} psi_n (2P = (345/64, ...) has D = 8) is an
    # int, the memo holds the ints D^{n^2 - 1} psi_n, and psi divides the
    # power of D out again
    curve, point, d, n_exact = RESCALED_PSI_CASES[case]
    dp = DivisionPolynomials(curve, point)
    psi = _plain_psi(curve, point, n_exact)
    for n in range(-n_exact, n_exact + 1):
        expected = psi[n] if n >= 0 else -psi[-n]
        scaled = dp.scaled(n)
        assert type(scaled) is int and scaled == expected * d ** (n * n), n
        assert type(dp._value(n)) is int and dp._value(n) * d == scaled, n
        assert dp.psi(n) == expected, n
    for p in (1000003, 998244353, 2305843009213693951):
        reduced = _plain_psi(reduce_curve(curve, p), reduce_mod_p(curve, point, p), 300)
        for n in range(301):
            assert dp.scaled(n) * pow(d, -n * n, p) % p == reduced[n].residue, (p, n)


@pytest.mark.parametrize("modulus", [1000003, None], ids=["mod-1000003", "over-q"])
def test_psi_in_mixed_order_matches_psi_filled_in_order(modulus):
    # the window plan takes [0, _top] as known without a scan, so a memo
    # filled sparsely, then consecutively, then in random order must give
    # what a fresh memo gives when the same indices come in sorted order
    point = E1.mul(2, P1)  # D = 8
    curve = E1 if modulus is None else reduce_curve(E1, modulus)
    if modulus is not None:
        point = reduce_mod_p(E1, point, modulus)
    rng = random.Random(28)
    top = 120 if modulus is None else 10 ** 30
    asked = [rng.randrange(top // 2, top) for _ in range(3)] + list(range(-3, 60))
    asked += [rng.randrange(-top, top) for _ in range(40)] + rng.sample(range(40, 121), 81)
    mixed, in_order = DivisionPolynomials(curve, point), DivisionPolynomials(curve, point)
    expected = {n: in_order._value(n) for n in sorted(asked)}
    assert [mixed._value(n) for n in asked] == [expected[n] for n in asked]
    assert [mixed._value(n) for n in range(121)] == [in_order._value(n) for n in range(121)]
