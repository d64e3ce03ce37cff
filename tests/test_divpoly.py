import random
from fractions import Fraction

import pytest

from ellnet import CurvePoint, DivisionPolynomials, INFINITY, reduce_curve, reduce_mod_p
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
