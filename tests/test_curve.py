import itertools
import random
from fractions import Fraction

import pytest

from ellnet import (
    INFINITY,
    EllipticNet,
    IntegralModel,
    PrimeFieldElement,
    WeierstrassCurve,
    decompose,
    gf_point,
    neron_local_height,
    rational_point,
    reduce_curve,
    reduce_mod_p,
    val_p,
)
from ellnet.errors import (
    ModelNotIntegralError,
    PointNotOnCurveError,
    PreconditionError,
    SingularCurveError,
    SingularReductionError,
)
from ellnet.curve import _b_invariants
from conftest import P1, P2, Q1, Q2, reduces_to_singular_point, triple


def test_b_invariants_e1(e1):
    b2, b4, b6, b8, disc = e1.b_invariants()
    assert (b2, b4, b6, b8) == (0, 0, -44, 0)
    assert disc == -52272 == -(2**4) * 3**3 * 11**2


def test_b_invariants_e2(e2):
    # direct substitution into the b-formulas; -735 also matches psi_3((0,0))
    b2, b4, b6, b8, _ = e2.b_invariants()
    assert (b2, b4, b6, b8) == (4, 56, 49, -735)


def test_b8_identity_random_curves():
    rng = random.Random(4)
    for _ in range(100):
        coeffs = [rng.randint(-9, 9) for _ in range(5)]
        curve = WeierstrassCurve(*coeffs, allow_singular=True)
        b2, b4, b6, b8, _ = curve.b_invariants()
        assert 4 * b8 == b2 * b6 - b4 * b4


def test_singular_curve_needs_flag():
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, 0, 0, 0)
    WeierstrassCurve(0, 0, 0, 0, 0, allow_singular=True)
    # a cusp and a node, integral, not integral and over F_7: one error
    for coeffs in ((0, 0, 0, 0, 0), (0, 0, 0, -3, 2), (0, 0, 0, Fraction(-3, 4), Fraction(1, 4)),
                   tuple(PrimeFieldElement(c, 7) for c in (0, 1, 0, 0, 0))):
        with pytest.raises(ValueError) as exc:
            WeierstrassCurve(*coeffs)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "curve is singular; pass allow_singular=True for reduced models"


def test_invariants_match_field_arithmetic():
    # int invariants against the formulas evaluated in Fraction and in
    # PrimeFieldElement arithmetic; the types stay those of the field
    rng = random.Random(14)
    for _ in range(100):
        coeffs = [rng.randint(-50, 50) for _ in range(5)]
        curve = WeierstrassCurve(*coeffs, allow_singular=True)
        expected = _b_invariants(*map(Fraction, coeffs))
        assert curve.b_invariants() == expected
        assert all(type(b) is Fraction for b in curve.b_invariants())
        p = rng.choice((2, 3, 7, 101, 1000003))
        reduced = reduce_curve(curve, p)
        field = _b_invariants(*(PrimeFieldElement(c, p) for c in coeffs))
        assert [b.residue for b in reduced.b_invariants()] == [b.residue for b in field]
        assert all(type(b) is PrimeFieldElement and b.p == p for b in reduced.b_invariants())
    rational = WeierstrassCurve(Fraction(1, 2), 0, Fraction(-1, 3), 1, 5)
    assert rational.b_invariants() == _b_invariants(*map(Fraction, (Fraction(1, 2), 0,
                                                                   Fraction(-1, 3), 1, 5)))


def test_contains_matches_the_defining_polynomial(e1, e2):
    # the integer identity of an integral model against f(x, y) == 0 in
    # Fraction arithmetic, on points of the curves and perturbations of them
    rng = random.Random(15)
    for curve, gen in ((e1, P1), (e2, Q2), (WeierstrassCurve(1, -1, 0, -79, 289),
                                           rational_point(0, 17))):
        for n in range(1, 7):
            pt = curve.mul(n, gen)
            for dx, dy in [(0, 0)] + [(Fraction(rng.randint(-3, 3), rng.randint(1, 9)),
                                       Fraction(rng.randint(-3, 3), rng.randint(1, 9)))
                                      for _ in range(5)]:
                moved = rational_point(pt.x + dx, pt.y + dy)
                assert curve.contains(moved) == (curve.f(moved.x, moved.y) == 0), (n, dx, dy)
            assert curve.contains(pt)


def test_group_law_examples(e1):
    double = e1.mul(2, P1)
    assert double == rational_point(Fraction(345, 64), Fraction(-6179, 512))
    assert e1.add(P1, e1.neg(P1)) == INFINITY
    assert e1.mul(1, P1) == P1
    assert e1.mul(0, P1) == INFINITY
    assert e1.mul(-2, P1) == e1.neg(double)


def test_group_law_associativity(e1, e2):
    rng = random.Random(5)
    for curve, gen_a, gen_b in ((e1, Q1, P1), (e2, Q2, P2)):
        pts = [curve.add(curve.mul(i, gen_a), curve.mul(j, gen_b))
               for i in range(-2, 3) for j in range(-2, 3)]
        for _ in range(50):
            a, b, c = (rng.choice(pts) for _ in range(3))
            assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))


def test_decompose_examples(e1):
    dec = decompose(e1, e1.mul(2, P1))
    assert (dec.a, dec.b, dec.d) == (345, -6179, 8)
    dec = decompose(e1, P1)
    assert (dec.a, dec.b, dec.d) == (3, 4, 1)
    dec = decompose(e1, Q1)
    assert (dec.a, dec.b, dec.d) == (15, 58, 1)


def test_decompose_round_trip(e1):
    for n in range(1, 8):
        pt = e1.mul(n, P1)
        dec = decompose(e1, pt)
        assert e1.contains(rational_point(Fraction(dec.a, dec.d**2), Fraction(dec.b, dec.d**3)))


def test_off_curve_is_named_before_integrality(e1):
    # x = 1/2: its denominator is no square, so the (A, B, D) shape fails
    # too; the point is off the curve, and that is the error
    for off in (rational_point(Fraction(1, 2), 3), rational_point(Fraction(1, 2), Fraction(1, 3)),
                rational_point(Fraction(1, 4), Fraction(1, 5))):
        with pytest.raises(PointNotOnCurveError, match="is not on the curve"):
            decompose(e1, off)
        with pytest.raises(PointNotOnCurveError):
            EllipticNet(e1, (P1, off))


def test_decompose_requires_integral_model():
    curve = WeierstrassCurve(0, 0, 0, Fraction(1, 4), 0)
    with pytest.raises(ModelNotIntegralError):
        decompose(curve, rational_point(0, 0))


def test_reduce_mod_p_examples(e1):
    assert reduce_mod_p(e1, P1, 7) == gf_point(3, 4, 7)
    assert reduce_mod_p(e1, e1.mul(2, P1), 2) == INFINITY
    assert reduce_mod_p(e1, Q1, 7) == gf_point(1, 2, 7)


def test_reduction_is_homomorphism_good_primes(e1):
    for p in (5, 7, 13, 17):
        red = reduce_curve(e1, p)
        for i in range(-2, 3):
            for j in range(-2, 3):
                a, b = e1.mul(i, P1), e1.mul(j, Q1)
                lhs = reduce_mod_p(e1, e1.add(a, b), p) if not e1.add(a, b).is_infinity \
                    else INFINITY
                rhs = red.add(reduce_mod_p(e1, a, p), reduce_mod_p(e1, b, p))
                assert lhs == rhs


def test_singular_reduction_matches_psi_valuations(e1, e2):
    # Ayad (a) <=> (e): both partials vanish iff psi_2 and psi_3 have positive valuation
    from ellnet import DivisionPolynomials

    for curve, pt in ((e1, P1), (e1, Q1), (e2, P2), (e2, Q2)):
        dp = DivisionPolynomials(curve, pt)
        for p in (2, 3, 5, 7, 11, 13):
            if reduce_mod_p(curve, pt, p).is_infinity:
                continue
            by_partials = reduces_to_singular_point(curve, pt, p)
            by_psi = val_p(dp.psi(2), p) > 0 and val_p(dp.psi(3), p) > 0
            assert by_partials == by_psi


def test_smooth_part_group_law_on_singular_reduction(e1):
    # E1 mod 11 is a cusp curve; arithmetic away from the cusp still works
    red = reduce_curve(e1, 11)
    assert red.discriminant == 0
    pbar = reduce_mod_p(e1, P1, 11)
    acc = pbar
    for _ in range(10):
        acc = red.add(acc, pbar)
    assert acc == INFINITY  # the smooth part has order 11
    cusp = gf_point(0, 0, 11)
    assert red.is_singular_point(cusp)
    with pytest.raises(SingularCurveError):
        red.add(cusp, pbar)


def test_neron_local_height_examples(e1):
    assert neron_local_height(e1, P1, 5) == 0
    assert neron_local_height(e1, e1.mul(2, P1), 2) == Fraction(10, 3)
    assert neron_local_height(e1, P1, 3) == Fraction(1, 4)
    with pytest.raises(PreconditionError):
        neron_local_height(e1, INFINITY, 5)


def test_neron_refuses_singular_reduction(e2):
    with pytest.raises(SingularReductionError):
        neron_local_height(e2, P2, 7)


def quasi_parallelogram_holds(curve, a, b, p):
    lhs = (neron_local_height(curve, curve.add(a, b), p)
           + neron_local_height(curve, curve.add(a, curve.neg(b)), p))
    rhs = (2 * neron_local_height(curve, a, p) + 2 * neron_local_height(curve, b, p)
           + Fraction(val_p(Fraction(a.x) - Fraction(b.x), p))
           - Fraction(val_p(Fraction(curve.discriminant), p), 6))
    return lhs == rhs


def test_quasi_parallelogram_law(e1, e2):
    for curve, gen_a, gen_b in ((e1, Q1, P1), (e2, Q2, P2)):
        pts = [curve.add(curve.mul(i, gen_a), curve.mul(j, gen_b))
               for i in range(1, 4) for j in range(1, 4)]
        primes = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]
        for p in primes:
            for a in pts:
                for b in pts:
                    four = [a, b, curve.add(a, b), curve.add(a, curve.neg(b))]
                    if any(x.is_infinity for x in four):
                        continue
                    try:
                        for x in four:
                            if not reduce_mod_p(curve, x, p).is_infinity and \
                               reduce_curve(curve, p).is_singular_point(reduce_mod_p(curve, x, p)):
                                raise SingularReductionError
                    except SingularReductionError:
                        continue
                    if Fraction(a.x) == Fraction(b.x):
                        continue
                    assert quasi_parallelogram_holds(curve, a, b, p)


def test_enumerate_points(e1):
    points = list(reduce_curve(e1, 7).enumerate_points())
    assert len(points) == 13


def _law_multiple(law, n, t):
    """n . t by |n| single law additions, independent of curve.mul."""
    step = t if n > 0 else law.neg(t)
    total = None
    for _ in range(abs(n)):
        total = law.add(total, step)
    return total


def _small_model_with_a1_a3():
    """The first nonsingular y^2 + xy + y = x^3 + a2 x^2 + a4 x + a6 with two
    small integral points of infinite order and distinct x."""
    for a2, a4, a6 in itertools.product(range(-3, 4), repeat=3):
        curve = WeierstrassCurve(1, a2, 1, a4, a6, allow_singular=True)
        if curve.discriminant == 0:
            continue
        found = []
        for x in range(-6, 7):
            for y in range(-12, 13):
                pt = rational_point(x, y)
                if (curve.contains(pt) and all(pt.x != q.x for q in found)
                        and all(not curve.mul(k, pt).is_infinity for k in range(1, 13))):
                    found.append(pt)
        if len(found) >= 2:
            return curve, found[0], found[1]
    raise AssertionError("no model found")


def _law_cases():
    e1, e2 = WeierstrassCurve(0, 0, 0, 0, -11), WeierstrassCurve(0, 1, 7, 28, 0)
    torsion = WeierstrassCurve(0, 0, 0, 0, 1)
    t6 = rational_point(2, 3)
    model, p, q = _small_model_with_a1_a3()
    return {
        "e1-pq": (e1, P1, Q1), "e1-qp": (e1, Q1, P1),
        "e2-pq": (e2, P2, Q2), "e2-qp": (e2, Q2, P2),
        "e1-2p": (e1, e1.mul(2, P1), Q1),
        "torsion-6": (torsion, t6, t6),
        "a1-a3": (model, p, q),
    }


@pytest.mark.parametrize("case", sorted(_law_cases()))
def test_integral_law_matches_fraction_law(case):
    curve, gen_a, gen_b = _law_cases()[case]
    law = IntegralModel(curve)
    ta, tb = triple(curve, gen_a), triple(curve, gen_b)
    rng = random.Random(case)
    pairs = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (-2, 1), (12, -12)]
    pairs += [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(40)]
    def agrees(got, ref):
        if ref.is_infinity:
            return got is None
        dec = decompose(curve, ref)
        return (got == (dec.a, dec.b, dec.d) and law.denominator(got) == dec.d
                and law.x(got) == ref.x and law.point(got) == ref)

    for m, n in pairs:
        ma, ref_a = _law_multiple(law, m, ta), curve.mul(m, gen_a)
        got = law.add(ma, _law_multiple(law, n, tb))
        assert agrees(got, curve.add(ref_a, curve.mul(n, gen_b))), (m, n)
        # P + P and P + (-P) at a multiple, where D > 1
        assert agrees(law.add(ma, ma), curve.add(ref_a, ref_a)), m
        assert agrees(law.neg(ma), curve.neg(ref_a)), m
        assert law.add(ma, law.neg(ma)) is None, m


def test_integral_law_edge_cases(e1):
    law = IntegralModel(e1)
    double = decompose(e1, e1.mul(2, P1))
    p = triple(e1, P1)
    assert law.add(p, p) == (double.a, double.b, double.d) == (345, -6179, 8)
    assert law.add(p, law.neg(p)) is None
    assert law.add(None, p) == p and law.add(p, None) == p
    torsion = IntegralModel(WeierstrassCurve(0, 0, 0, 0, 1))
    t6 = triple(torsion.curve, rational_point(2, 3))
    assert _law_multiple(torsion, 6, t6) is None
    assert _law_multiple(torsion, 3, t6) == (-1, 0, 1)


def test_integral_law_refuses_singular_operands():
    node = WeierstrassCurve(0, 1, 0, 0, 0, allow_singular=True)
    law = IntegralModel(node)
    singular, smooth = triple(node, rational_point(0, 0)), triple(node, rational_point(3, 6))
    for a, b in ((singular, smooth), (smooth, singular), (singular, singular)):
        with pytest.raises(SingularCurveError):
            law.add(a, b)
        with pytest.raises(SingularCurveError):
            node.add(law.point(a), law.point(b))
    assert law.add(None, singular) == singular
    assert law.add(smooth, smooth) == triple(node, node.add(law.point(smooth), law.point(smooth)))


def test_integral_law_checks(e1):
    law = IntegralModel(e1)
    with pytest.raises(PointNotOnCurveError):
        law.denominator((3, 5, 1))
    with pytest.raises(ModelNotIntegralError):
        law.denominator((12, 32, 2))  # P1 = (3, 4) with a non-reduced D = 2
    # operands off the curve give a sum whose x denominator is no square
    with pytest.raises(ModelNotIntegralError):
        law.add((-9, 3, 4), triple(e1, P1))
    with pytest.raises(ModelNotIntegralError):
        IntegralModel(WeierstrassCurve(0, 0, 0, Fraction(1, 4), 0))
