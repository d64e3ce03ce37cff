import functools
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from ellnet import (
    INFINITY,
    DivisionPolynomials,
    EllipticNet,
    build_symmetry_data,
    eval_by_symmetry,
    QuadraticFormData,
    ReducedNet,
    WeierstrassCurve,
    decompose,
    initial_net_value,
    rational_point,
    recurrence_check,
    reduce_curve,
    reduce_mod_p,
    scaled_value,
)
from ellnet.errors import (
    DegenerateNetError,
    DegeneratePairError,
    DependentPointsError,
    EllnetError,
    PreconditionError,
    SingularCurveError,
)
from ellnet import IntegralModel
from ellnet.net import (LADDER_BASE_NORM, _LADDER, _ladder_terms, _ladder_units, _normalize,
                        _reduce_fraction, box_indices)
from conftest import E1_COEFFS, E2_COEFFS, P1, P2, Q1, Q2, points_route

E1 = WeierstrassCurve(*E1_COEFFS)
E2 = WeierstrassCurve(*E2_COEFFS)


CORNER = 23 * 103 * 340789 * 175849593114259


def test_initial_values(e1, net1):
    assert initial_net_value(e1, net1.points, (1, 0)) == 1
    assert initial_net_value(e1, net1.points, (0, 2)) == 8
    # 2e_P + e_Q in the (Q, P) ordering is the index (1, 2)
    assert initial_net_value(e1, net1.points, (1, 2)) == Fraction(3, 4)
    assert initial_net_value(e1, net1.points, (2, 1)) == Fraction(51, 4)
    assert initial_net_value(e1, net1.points, (3, 0)) is None


def test_initial_value_degenerate_pair(e1):
    with pytest.raises(DegeneratePairError):
        initial_net_value(e1, (P1, e1.neg(P1)), (2, 1))


def test_constructor_rejects_shared_x(e1):
    with pytest.raises(DegeneratePairError):
        EllipticNet(e1, (P1, e1.neg(P1)))


def test_points_strategy_examples(net1):
    assert net1.value((0, 3)) == -153
    assert net1.value((1, 1)) == 1
    assert net1.value((4, 9)) == Fraction(-CORNER, 2**36)


def test_recurrence_examples(e1):
    rec = EllipticNet(e1, (Q1, P1), strategy="recurrence")
    # the published instantiation: W(e1 - e2) = W(e1 + 2e2) - W(2e1 + e2)
    assert rec.value((1, -1)) == rec.value((1, 2)) - rec.value((2, 1))
    assert rec.value((1, -1)) == Fraction(P1.x) - Fraction(Q1.x)
    assert rec.value((0, 0)) == 0
    assert rec.value((2, 3)) == EllipticNet(e1, (Q1, P1)).value((2, 3))


def test_cross_oracle_box(e1, e2, net1, net2):
    for curve, net in ((e1, net1), (e2, net2)):
        rec = EllipticNet(curve, net.points, strategy="recurrence")
        for v in box_indices(2, 6):
            assert rec.value(v) == net.value(v), v


def test_rank_one_consistency(net1):
    dq = DivisionPolynomials(net1.curve, Q1)
    dp = DivisionPolynomials(net1.curve, P1)
    for n in range(-30, 31):
        assert net1.value((n, 0)) == dq.psi(n)
        assert net1.value((0, n)) == dp.psi(n)


def test_oddness(net1):
    rng = random.Random(7)
    for _ in range(100):
        v = (rng.randint(-8, 8), rng.randint(-8, 8))
        assert net1.value((-v[0], -v[1])) == -net1.value(v)


def test_integrality(net1, net2):
    # E1: P + Q hits infinity only at 2, so denominators are powers of two;
    # E2: all pairwise sums stay affine mod every p, so values are integers
    for v in box_indices(2, 6):
        den = net1.value(v).denominator
        assert den & (den - 1) == 0, (v, den)
        assert net2.value(v).denominator == 1


def test_denominator_net_examples(net1):
    assert net1.denominator((0, 2)) == 8
    assert net1.denominator((1, 1)) == 2
    assert net1.denominator((4, 9)) == CORNER
    assert net1.denominator((0, 0)) == 0


def test_numerator_formula_axis_independent(net1):
    # Phi_v = W(v)^2 x(P_i) - W(v+e_i) W(v-e_i) gives the same value for
    # every axis i
    for v in box_indices(2, 4):
        if not any(v):
            continue
        phis = []
        for i, e in enumerate(((1, 0), (0, 1))):
            up = (v[0] + e[0], v[1] + e[1])
            down = (v[0] - e[0], v[1] - e[1])
            phis.append(net1.value(v) ** 2 * net1.points[i].x
                        - net1.value(up) * net1.value(down))
        assert phis[0] == phis[1], v


def test_quadratic_form(e1, net1):
    q = QuadraticFormData.from_curve_points(e1, net1.points)
    assert q.value((1, 0)) == 1
    assert q.value((1, 1)) == 2
    assert q.value((0, 0)) == 1
    assert q.matrix[0][1] == 2


def exponents(rank, v):
    """Exponent array of F_v over the entries A_ij, i <= j."""
    return tuple(v[i] * v[j] for i in range(rank) for j in range(i, rank))


def test_quadratic_form_parallelogram_exponents(e1, net1):
    q = QuadraticFormData.from_curve_points(e1, net1.points)
    rng = random.Random(8)
    for _ in range(200):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        w = (rng.randint(-9, 9), rng.randint(-9, 9))
        vw = tuple(a + b for a, b in zip(v, w))
        vmw = tuple(a - b for a, b in zip(v, w))
        lhs = [a + b for a, b in zip(exponents(q.rank, vw), exponents(q.rank, vmw))]
        rhs = [2 * a + 2 * b for a, b in zip(exponents(q.rank, v), exponents(q.rank, w))]
        assert lhs == rhs


def test_scaled_net(e1, net1):
    q = QuadraticFormData.from_curve_points(e1, net1.points)
    assert scaled_value(net1, q, (1, 0)) == 1
    assert abs(scaled_value(net1, q, (1, 1))) == 2
    assert abs(scaled_value(net1, q, (4, 9))) == CORNER


def test_scaled_net_is_elliptic(e1, net1):
    q = QuadraticFormData.from_curve_points(e1, net1.points)
    value = lambda v: q.value(v) * net1.value(v)
    assert recurrence_check(value, 2, 3, 200, seed=9) == []


def test_recurrence_check(net1):
    assert recurrence_check(net1.value, 2, 4, 300, seed=10) == []
    assert recurrence_check(lambda v: Fraction(0), 2, 4, 100, seed=11) == []
    table = {v: net1.value(v) for v in box_indices(2, 12)}
    table[(1, 2)] += 1
    violations = recurrence_check(lambda v: table[v], 2, 4, 300, seed=10)
    assert violations


def test_reduced_net_matches_direct_gf(e1, net1):
    # the raw F_p points route answers the exact value or refuses at a zero
    # divisor; ReducedNet answers the exact value on the whole box
    reduced = ReducedNet(net1, 7)
    direct = EllipticNet(reduce_curve(e1, 7),
                         tuple(reduce_mod_p(e1, pt, 7) for pt in net1.points))
    answered = 0
    for v in box_indices(2, 8):
        try:
            got = direct.value(v)
        except DegenerateNetError:
            pass
        else:
            answered += 1
            assert got == reduced.exact_value(v), v
        assert reduced.value(v) == reduced.exact_value(v), v
    assert answered > 0


def test_reduced_net_fast_path_equals_exact(net1):
    # the direct-mod-p shortcut must be invisible: every value agrees with
    # exact evaluation over Q followed by reduction
    for p in (5, 7, 11, 13):
        reduced = ReducedNet(net1, p)
        for v in box_indices(2, 7):
            assert reduced.value(v) == reduced.exact_value(v), (p, v)


def test_gf_recurrence_strategy(e1, net1):
    # the pure-recurrence schedule run directly mod p: agrees with the
    # reduced net wherever it succeeds, signals degeneracy where it divides
    # by a lattice zero
    reduced = ReducedNet(net1, 7)
    direct = EllipticNet(reduce_curve(e1, 7),
                         tuple(reduce_mod_p(e1, pt, 7) for pt in net1.points),
                         strategy="recurrence")
    degenerate = 0
    for v in box_indices(2, 9):
        try:
            got = direct.value(v)
        except DegenerateNetError:
            degenerate += 1
            continue
        assert got == reduced.value(v), v
    assert degenerate > 0


def test_gf_points_strategy_signals_degeneracy(e1):
    # a rank-1 net over F_2 with psi_2 = 0 has no usable fallback
    red = reduce_curve(e1, 2)
    from ellnet import gf_point

    direct = EllipticNet(red, (gf_point(1, 0, 2),))
    with pytest.raises(DegenerateNetError):
        direct.value((6,))


def test_reduced_net_at_singular_reduction(net2):
    # E2 mod 7: P reduces to the singular point; the direct path degrades to
    # exact evaluation instead of leaking curve errors
    reduced = ReducedNet(net2, 7)
    for v in ((0, 6), (2, 5), (3, 3)):
        assert reduced.value(v) == reduced.exact_value(v)
    assert reduced.value((0, 2)) == 0  # psi_2(P) = 7


def test_reduced_net_hypothesis_gate(e1, net1):
    # P - Q = (313/36, ...) hits infinity mod 2 and mod 3
    for p in (2, 3):
        with pytest.raises(PreconditionError):
            ReducedNet(net1, p)


def test_dependent_points_detected(e1):
    dependent = EllipticNet(e1, (P1, e1.mul(2, P1)))
    from ellnet.errors import DependentPointsError

    with pytest.raises(DependentPointsError):
        for v in box_indices(2, 4):
            dependent.value(v)


def test_rank_three_points_strategy():
    # a rank-3 curve with three independent generators; the points route on
    # a fresh net is the oracle of values that psi and the ladder give
    from ellnet import WeierstrassCurve

    curve = WeierstrassCurve(0, 0, 1, -7, 6)
    pts = (rational_point(1, 0), rational_point(2, 0), rational_point(0, 2))
    net3 = EllipticNet(curve, pts)
    by_points = EllipticNet(curve, pts)
    assert net3.value((1, 0, 0)) == 1
    assert net3.value((1, 1, 1)) != 0
    assert recurrence_check(net3.value, 3, 2, 100, seed=12) == []
    dp = DivisionPolynomials(curve, pts[2])
    for n in range(-6, 7):
        assert net3.value((0, 0, n)) == points_route(by_points, (0, 0, n)) == dp.psi(n)
    # restriction to the first two axes is the rank-2 net of (P_1, P_2)
    net2d = EllipticNet(curve, pts[:2])
    for v in box_indices(2, 4):
        assert net3.value((v[0], v[1], 0)) == points_route(net2d, v)


def direct_net(reduced, strategy="points"):
    return EllipticNet(reduced.gf_curve, reduced.gf_points, strategy=strategy)


class ExactReducedNet(ReducedNet):
    """Every value exact over Q on the net it wraps, then reduced."""

    def value(self, v):
        return self.exact_value(v)


@functools.cache
def recurrence_symmetry_data(p):
    """Symmetry data of E1 (P, Q) mod p from the recurrence route over Q,
    which never takes psi mod p or the ladder."""
    net = EllipticNet(E1, (P1, Q1), strategy="recurrence")
    return build_symmetry_data(ExactReducedNet(net, p))


@pytest.mark.parametrize("p", [61, 89])
def test_direct_large_index_matches_symmetry(default_recursion_limit, net1_pq, p):
    reduced = ReducedNet(net1_pq, p)
    for v in ((600, 599), (-350, 620), (900, 3)):
        assert reduced.value(v) == eval_by_symmetry(recurrence_symmetry_data(p), v), (p, v)


def test_direct_large_index_matches_recurrence(default_recursion_limit, net1_pq):
    reduced = ReducedNet(net1_pq, 1000003)
    direct, rec = direct_net(reduced), direct_net(reduced, strategy="recurrence")
    for v in ((700, 1), (700, -1), (1, 700), (3, -700)):
        assert direct.value(v) == rec.value(v), v


def assert_group_law_identity(reduced, value, v):
    # W(v+e_i) W(v-e_i) = W(v)^2 (x(P_i) - x(v.P)), with v.P from the group law
    curve, points = reduced.gf_curve, reduced.gf_points
    total = INFINITY
    for n, point in zip(v, points):
        total = curve.add(total, curve.mul(n, point))
    w = value(v)
    for i in range(len(v)):
        up = value(v[:i] + (v[i] + 1,) + v[i + 1:])
        down = value(v[:i] + (v[i] - 1,) + v[i + 1:])
        assert up * down == w * w * (points[i].x - total.x), v
    return w


def test_direct_huge_index_finishes(default_recursion_limit, net1_pq):
    reduced = ReducedNet(net1_pq, 1000003)
    assert assert_group_law_identity(reduced, direct_net(reduced).value, (20000, 19999)) != 0


LADDER_PRIMES = (5, 7, 11, 13, 19, 29, 61, 89, 1009, 1000003)
UNITS = {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}


def test_ladder_schedule_invariants():
    for m in range(-200, 201):
        for n in range(-200, 201):
            u = (m, n)
            if max(abs(m), abs(n)) <= LADDER_BASE_NORM:
                continue
            g, c, h = _LADDER[m & 1, n & 1]
            assert {g, c, h} <= UNITS
            d = (h[0] - c[0], h[1] - c[1])
            assert ((g[0] - d[0] - m) % 2, (g[1] - d[1] - n) % 2) == (0, 0), u
            first, second = _ladder_terms(u)
            for child in first + second:
                assert max(map(abs, child)) < max(abs(m), abs(n)), (u, child)


@pytest.mark.parametrize("p", LADDER_PRIMES)
def test_ladder_matches_exact_on_box(default_recursion_limit, net1_pq, net2, p):
    # E2 mod 7 has bad reduction: (0, 0) reduces to the singular point
    for net in (net1_pq, net2):
        reduced = ReducedNet(net, p)
        for v in box_indices(2, 12):
            assert reduced.value(v) == reduced.exact_value(v), (p, v)


@pytest.mark.parametrize("p", [7, 11, 19, 61, 89])
def test_ladder_matches_symmetry_at_huge_indices(default_recursion_limit, net1_pq, p):
    # the oracle's symmetry data comes from exact values on the recurrence route
    reduced = ReducedNet(net1_pq, p)
    sd = recurrence_symmetry_data(p)
    rng = random.Random(p)
    for _ in range(100):
        v = tuple(rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30) for _ in range(2))
        assert reduced.value(v) == eval_by_symmetry(sd, v), (p, v)


def test_ladder_group_law_at_huge_indices(default_recursion_limit, net1_pq):
    reduced = ReducedNet(net1_pq, 1000003)
    rng = random.Random(1000003)
    values = []
    for _ in range(20):
        v = tuple(rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30) for _ in range(2))
        values.append(assert_group_law_identity(reduced, reduced.value, v))
    assert any(w != 0 for w in values)


def test_ladder_index_of_300_digits_finishes(default_recursion_limit, net1_pq):
    reduced = ReducedNet(net1_pq, 1000003)
    v = (10 ** 300 + 7, -3 * 10 ** 299 + 1)
    assert assert_group_law_identity(reduced, reduced.value, v) != 0


# The rank-2 table of the halving ladder, spelled out.
RANK_TWO_LADDER = {
    (0, 0): ((1, 0), (0, 1), (1, 1)),
    (0, 1): ((1, 0), (1, 0), (0, 1)),
    (1, 0): ((1, 0), (1, 0), (1, 0)),
    (1, 1): ((1, 0), (1, 0), (1, 1)),
}


def assert_ladder_step(u):
    """The units of u's parity class are some e_i or e_i + e_j and sum to u
    mod 2, and every index of the halving step is smaller in max-norm."""
    parity = tuple(c & 1 for c in u)
    units = _ladder_units(parity)
    for unit in units:
        assert set(unit) <= {0, 1} and sum(unit) in (1, 2), (u, units)
    assert tuple(sum(col) & 1 for col in zip(*units)) == parity, (u, units)
    first, second = _ladder_terms(u)
    for child in first + second:
        assert max(map(abs, child)) < max(map(abs, u)), (u, child)


def test_ladder_rule_reproduces_the_rank_two_table():
    assert _LADDER == RANK_TWO_LADDER
    for parity, units in RANK_TWO_LADDER.items():
        assert _ladder_units(parity) == units
    # a rank-1 net has no unit e_1 + e_2: its values take psi or the box
    for parity in ((0,), (1,)):
        with pytest.raises(PreconditionError):
            _ladder_units(parity)


def test_ladder_rule_rank_three():
    for u in itertools.product(range(-12, 13), repeat=3):
        if max(map(abs, u)) > LADDER_BASE_NORM:
            assert_ladder_step(u)


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_ladder_rule_ranks_four_to_six(rank):
    # every parity class at max-norm 4 and 5: each coordinate of size 4 or 5,
    # whichever has its parity, under every sign pattern
    for parity in itertools.product((0, 1), repeat=rank):
        for top in (4, 5):
            sizes = [top - ((top - b) & 1) for b in parity]
            for signs in itertools.product((1, -1), repeat=rank):
                u = tuple(s * m for s, m in zip(signs, sizes))
                if max(sizes) > LADDER_BASE_NORM:
                    assert_ladder_step(u)
    rng = random.Random(rank)
    for _ in range(3000):
        bound = rng.choice((5, 12, 1000, 10 ** 30))
        u = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if max(map(abs, u)) > LADDER_BASE_NORM:
            assert_ladder_step(u)


# Cremona 5077a with three independent generators, as in
# test_rank_three_points_strategy
CURVE_5077A = WeierstrassCurve(0, 0, 1, -7, 6)
POINTS_5077A = (rational_point(1, 0), rational_point(2, 0), rational_point(0, 2))


@pytest.fixture(scope="module")
def net_5077a():
    return EllipticNet(CURVE_5077A, POINTS_5077A)


@pytest.fixture(scope="module")
def points_5077a():
    """A 5077a net read through ``points_route`` alone."""
    return EllipticNet(CURVE_5077A, POINTS_5077A)


@pytest.mark.parametrize("p", [13, 101, 1000003])
def test_rank_three_ladder_matches_points_route(net_5077a, points_5077a, p):
    reduced = ReducedNet(net_5077a, p)
    for v in box_indices(3, 6):
        assert reduced.value(v) == _reduce_fraction(points_route(points_5077a, v), p), (p, v)
    assert reduced.route_counts["ladder"] > 0 and reduced.route_counts["psi"] > 0
    # the oracle stays on the points route
    assert points_5077a.route_counts.keys() <= {"base", "points"}


@pytest.mark.parametrize("p", [7, 13])
def test_rank_three_ladder_matches_symmetry_at_huge_indices(default_recursion_limit,
                                                            net_5077a, p):
    # the oracle's symmetry data comes from exact values on the points route
    sd = build_symmetry_data(ExactReducedNet(net_5077a, p))
    reduced = ReducedNet(net_5077a, p)
    rng = random.Random(p)
    for _ in range(5):
        v = tuple(rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30) for _ in range(3))
        assert reduced.value(v) == eval_by_symmetry(sd, v), (p, v)


def test_rank_three_ladder_group_law_at_huge_indices(default_recursion_limit, net_5077a):
    reduced = ReducedNet(net_5077a, 1000003)
    rng = random.Random(5077)
    v = tuple(rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30) for _ in range(3))
    start = time.perf_counter()
    w = reduced.value(v)
    assert time.perf_counter() - start < 1
    assert assert_group_law_identity(reduced, reduced.value, v) == w != 0


# Cremona 234446a, of rank 4, with four integral points whose box |v| <= 3
# the points route answers in full
CURVE_234446A = WeierstrassCurve(1, -1, 0, -79, 289)
POINTS_234446A = tuple(rational_point(x, y) for x, y in ((0, 17), (1, 14), (3, 7), (5, -2)))


def test_rank_four_ladder(default_recursion_limit):
    net = EllipticNet(CURVE_234446A, POINTS_234446A)
    reduced = ReducedNet(net, 101)
    by_points = EllipticNet(CURVE_234446A, POINTS_234446A)
    for v in box_indices(4, 4):
        assert reduced.value(v) == _reduce_fraction(points_route(by_points, v), 101), v
    # every coordinate odd: the top step shares four odd coordinates
    huge = ReducedNet(net, 1000003)
    v = (10 ** 29 + 1, -3 * 10 ** 28 - 7, 7 * 10 ** 29 + 3, -(10 ** 29) - 9)
    assert assert_group_law_identity(huge, huge.value, v) != 0
    assert huge.route_counts["ladder"] > 0


@pytest.mark.parametrize("curve, points, radius", [
    (CURVE_5077A, POINTS_5077A, 6),
    (CURVE_234446A, POINTS_234446A, 4),
], ids=["5077a", "234446a"])
def test_exact_ladder_matches_points_route_at_ranks_three_and_four(curve, points, radius):
    net, by_points = EllipticNet(curve, points), EllipticNet(curve, points)
    for v in box_indices(len(points), radius):
        assert net.value(v) == points_route(by_points, v), v
    # above the box the values are the ladder's and psi's
    assert net.route_counts["ladder"] > 0 and net.route_counts["psi"] > 0
    assert by_points.route_counts.keys() <= {"base", "points"}


def test_exact_rank_three_group_law_identity(default_recursion_limit):
    # W(v+e_i) W(v-e_i) = W(v)^2 (x(P_i) - x(v . P)) over Q, with v . P by
    # double-and-add on IntegralModel triples, not from the net's point cache
    v = (203, -197, 188)
    law = IntegralModel(CURVE_5077A)
    total = None
    for n, point in zip(v, POINTS_5077A):
        multiple = _triple_multiple(law, abs(n), law.triple(point))
        total = law.add(total, multiple if n > 0 else law.neg(multiple))
    net = EllipticNet(CURVE_5077A, POINTS_5077A)
    w = net.value(v)
    assert w != 0
    for i, point in enumerate(POINTS_5077A):
        up = net.value(v[:i] + (v[i] + 1,) + v[i + 1:])
        down = net.value(v[:i] + (v[i] - 1,) + v[i + 1:])
        assert up * down == w * w * (point.x - law.x(total)), i
    assert net.route_counts["ladder"] > 0


def test_exact_ladder_keeps_dependent_points_at_rank_three(default_recursion_limit):
    # every index the points route answers gets its value, and none of them
    # raises; an index it refuses may answer Psi_v(P) from the ladder or psi
    points = (P1, Q1, E1.add(P1, Q1))
    newly_answered = []
    for v in box_indices(3, 4):
        expected = _points_outcome(E1, points, v)
        got = _outcome(EllipticNet(E1, points).value, v)
        if expected is DependentPointsError and not isinstance(got, type):
            newly_answered.append(v)
        else:
            assert got == expected, v
    # v . P = 3P at both
    assert newly_answered == [(-4, -1, 1), (4, 1, -1)]


# Dependent base points on E1, with the radius of the box they are checked on
DEPENDENT_REDUCED_CASES = {"(P,Q,P+Q)": (("P", "Q", "P+Q"), 4),
                           "(P,2P)": (("P", "2P"), 8), "(2P,P)": (("2P", "P"), 8)}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("case", sorted(DEPENDENT_REDUCED_CASES))
def test_reduced_net_keeps_dependent_points(default_recursion_limit, case, p):
    # value gives exact_value's residue wherever that answers, and raises only
    # where it raises; each exact_value is taken on a fresh net, so that no
    # other index's memo enters it
    names, radius = DEPENDENT_REDUCED_CASES[case]
    named = {"P": P1, "Q": Q1, "P+Q": E1.add(P1, Q1), "2P": E1.mul(2, P1)}
    points = tuple(named[name] for name in names)
    reduced = ReducedNet(EllipticNet(E1, points), p)
    for v in box_indices(len(points), radius):
        expected = _outcome(ReducedNet(EllipticNet(E1, points), p).exact_value, v)
        got = _outcome(reduced.value, v)
        if isinstance(got, type) or not isinstance(expected, type):
            assert got == expected, v


def test_reduced_net_checks_index_length(net1_pq):
    reduced = ReducedNet(net1_pq, 7)
    for v in ((10,), (2, 3, 4), (10, 11, 12)):
        with pytest.raises(ValueError):
            reduced.value(v)


def test_direct_gf_net_is_linear():
    # E1 mod 29 meets lattice zeros: the points route over F_p takes one step
    # per unit of |v| and refuses at the first zero divisor
    reduced = ReducedNet(EllipticNet(E1, (P1, Q1)), 29)
    start = time.perf_counter()
    got = _outcome(direct_net(reduced).value, (25, 24))
    assert time.perf_counter() - start < 1
    assert got in (DegenerateNetError, reduced.exact_value((25, 24)))


# --- the integer (A, B, D) point cache of exact nets ------------------------


def _outcome(fn, v):
    try:
        return fn(v)
    except EllnetError as exc:
        return type(exc)


def _denominator_by_fraction_law(curve, points, v):
    """D_{v . P} from curve.mul, curve.add and decompose alone."""
    if not any(v):
        return 0
    total = INFINITY
    for n, point in zip(v, points):
        total = curve.add(total, curve.mul(n, point))
    if total.is_infinity:
        raise DependentPointsError(f"{v} . P is the identity")
    return decompose(curve, total).d


@pytest.mark.parametrize("curve_name", ["e1", "e2"])
@pytest.mark.parametrize("orientation", ["qp", "pq"])
def test_point_cache_matches_fraction_law_on_large_grid(default_recursion_limit,
                                                        curve_name, orientation):
    curve, gen_q, gen_p = {"e1": (E1, Q1, P1), "e2": (E2, Q2, P2)}[curve_name]
    points = (gen_q, gen_p) if orientation == "qp" else (gen_p, gen_q)
    rng = random.Random(f"{curve_name}-{orientation}")
    grid = [(c, r) for c in range(30) for r in range(30)]
    sample = rng.sample(grid, 20) + [(29, 29), (29, 0), (0, 29)]
    net = EllipticNet(curve, points)
    rec = EllipticNet(curve, points, strategy="recurrence")
    for v in sample:
        assert net.denominator(v) == _denominator_by_fraction_law(curve, points, v), v
        assert net.value(v) == rec.value(v), v
    # the public point is rebuilt from the cached triple
    v = sample[0]
    assert net.point(v) == curve.add(curve.mul(v[0], points[0]), curve.mul(v[1], points[1]))


# Outcomes on the box |v| <= 3 of the net on the node y^2 = x^3 + x^2 with
# base points (0, 0), the node, and (3, 6); every other index raises.
NODE_VALUES = {
    (-2, -1): 0, (-2, 0): 0, (-1, -2): -3, (-1, -1): -1, (-1, 0): -1, (-1, 1): -3,
    (0, -3): -351, (0, -2): -12, (0, -1): -1, (0, 0): 0, (0, 1): 1, (0, 2): 12,
    (0, 3): 351, (1, -1): 3, (1, 0): 1, (1, 1): 1, (1, 2): 3, (2, 0): 0, (2, 1): 0,
}
NODE_DENOMINATORS = {
    (-1, 0): 1, (0, -3): 13, (0, -2): 4, (0, -1): 1, (0, 0): 0, (0, 1): 1, (0, 2): 4,
    (0, 3): 13, (1, 0): 1,
}


def test_point_cache_refuses_the_node():
    node = WeierstrassCurve(0, 1, 0, 0, 0, allow_singular=True)
    points = (rational_point(0, 0), rational_point(3, 6))
    for v in box_indices(2, 3):
        value = _outcome(EllipticNet(node, points).value, v)
        assert value == NODE_VALUES.get(v, DependentPointsError), v
        den = _outcome(EllipticNet(node, points).denominator, v)
        assert den == NODE_DENOMINATORS.get(v, SingularCurveError), v
    for v in ((3, 0), (2, 2), (3, 1), (1, 3), (-2, 3)):
        with pytest.raises(DependentPointsError):
            EllipticNet(node, points).value(v)
        with pytest.raises(SingularCurveError):
            EllipticNet(node, points).denominator(v)


# (curve, points, indices whose value raises, indices whose denominator raises)
DEGENERATE_NETS = {
    "node-smooth": ((0, 1, 0, 0, 0), ((3, 6), (8, 24)), set(), set()),
    "dependent": (E1_COEFFS, ((3, 4), (Fraction(345, 64), Fraction(-6179, 512))),
                  {(-3, 1), (-3, 3), (-2, 3), (2, -3), (3, -3), (3, -1)},
                  {(-2, 1), (2, -1)}),
    "torsion-rank-2": ((0, 0, 0, 0, 1), ((2, 3), (-1, 0)),
                       {(-3, -3), (-3, -2), (-3, 2), (-3, 3), (-2, -3), (-2, -2),
                        (-2, 2), (-2, 3), (0, -3), (0, 3), (2, -3), (2, -2), (2, 2),
                        (2, 3), (3, -3), (3, -2), (3, 2), (3, 3)},
                       {(-3, -3), (-3, -1), (-3, 1), (-3, 3), (0, -2), (0, 2), (3, -3),
                        (3, -1), (3, 1), (3, 3)}),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_NETS))
def test_point_cache_keeps_degenerate_nets(case):
    coeffs, coords, bad_values, bad_denominators = DEGENERATE_NETS[case]
    curve = WeierstrassCurve(*coeffs, allow_singular=True)
    points = tuple(rational_point(x, y) for x, y in coords)
    rec = EllipticNet(curve, points, strategy="recurrence")
    for v in box_indices(2, 3):
        value = _outcome(EllipticNet(curve, points).value, v)
        assert value == (DependentPointsError if v in bad_values else rec.value(v)), v
        den = _outcome(EllipticNet(curve, points).denominator, v)
        assert den == _outcome(lambda u: _denominator_by_fraction_law(curve, points, u), v)
        assert (den is DependentPointsError) == (v in bad_denominators), v


def test_point_cache_rank_one_torsion():
    curve = WeierstrassCurve(0, 0, 0, 0, 1)
    t6 = rational_point(2, 3)  # of order 6
    psi = DivisionPolynomials(curve, t6)
    for n in range(-13, 14):
        value = _points_outcome(curve, (t6,), (n,))
        assert value == (psi.psi(n) if abs(n) <= 6 else DependentPointsError), n
        # value takes psi above the box, so the indices the points route
        # refuses answer Psi_n(P) too
        assert _outcome(EllipticNet(curve, (t6,)).value, (n,)) == psi.psi(n), n
        den = _outcome(EllipticNet(curve, (t6,)).denominator, (n,))
        assert den == (0 if n == 0 else DependentPointsError if n % 6 == 0 else 1), n
        assert den == _outcome(lambda u: _denominator_by_fraction_law(curve, (t6,), u), (n,))


# --- the halving ladder over Q -------------------------------------------------


def _points_outcome(curve, points, v):
    try:
        return points_route(EllipticNet(curve, points), v)
    except EllnetError as exc:
        return type(exc)


@pytest.mark.parametrize("curve_name", ["e1", "e2"])
@pytest.mark.parametrize("orientation", ["qp", "pq"])
def test_exact_ladder_matches_points_and_recurrence(default_recursion_limit,
                                                   curve_name, orientation):
    curve, gen_q, gen_p = {"e1": (E1, Q1, P1), "e2": (E2, Q2, P2)}[curve_name]
    points = (gen_q, gen_p) if orientation == "qp" else (gen_p, gen_q)
    net = EllipticNet(curve, points)
    by_points = EllipticNet(curve, points)
    rec = EllipticNet(curve, points, strategy="recurrence")
    grid = [(c, r) for c in range(30) for r in range(30)]
    for v in grid:
        assert net.value(v) == points_route(by_points, v) == rec.value(v), v
    # the grid above the box is the ladder's and the axes are psi's; the
    # points route serves the box alone, and the oracles never take the ladder
    box = {_normalize(u)[0] for u in box_indices(2, LADDER_BASE_NORM) if any(u)}
    counts = net.route_counts
    assert counts["ladder"] > 0 and counts["psi"] == 2 * (29 - LADDER_BASE_NORM)
    assert counts["base"] + counts["points"] <= len(box)
    assert rec.route_counts.keys() <= {"base", "recurrence"}
    assert by_points.route_counts.keys() <= {"base", "points"}


def _triple_multiple(law, n, t):
    """n . t for n >= 0 by double-and-add on IntegralModel triples."""
    acc = None
    while n:
        if n & 1:
            acc = law.add(acc, t)
        t, n = law.add(t, t), n >> 1
    return acc


def _x_by_double_and_add(v, k):
    """x(v . P) on E1, (P, Q) order, as (X, Z) with x = X / Z^2, for v >= 0.

    With v = 2^k u + r, u . P and r . P are IntegralModel triples by
    double-and-add.  A triple (A, B, D) is a point in Jacobian coordinates,
    so the k doublings of u . P and the addition of r . P are taken there
    (y^2 = x^3 - 11), with products only: no gcd, division or square root,
    which dominate the triple law on numbers of 10^5 digits.
    """
    law = IntegralModel(E1)
    base = [law.triple(P1), law.triple(Q1)]
    u = [c >> k for c in v]
    r = [c - (d << k) for c, d in zip(v, u)]
    pu, pr = ([_triple_multiple(law, n, t) for n, t in zip(w, base)] for w in (u, r))
    x, y, z = law.add(*pu)
    for _ in range(k):
        yy = y * y
        s, m = 4 * x * yy, 3 * x * x
        x3 = m * m - 2 * s
        x, y, z = x3, m * (s - x3) - 8 * yy * yy, 2 * y * z
    rest = law.add(*pr)
    if rest is None:
        return x, z
    x2, y2, z2 = rest
    u1, u2 = x * z2 * z2, x2 * z * z
    h, t = u2 - u1, y2 * z ** 3 - y * z2 ** 3
    assert h != 0
    hh = h * h
    return t * t - hh * h - 2 * u1 * hh, h * z * z2


def test_double_and_add_oracle_matches_integral_model():
    law = IntegralModel(E1)
    for v in ((7, 5), (0, 9), (13, 1), (16, 16), (33, 40)):
        expected = law.x(law.add(law.triple(E1.mul(v[0], P1)), law.triple(E1.mul(v[1], Q1))))
        for k in range(max(v).bit_length()):
            big_x, big_z = _x_by_double_and_add(v, k)
            assert Fraction(big_x, big_z ** 2) == expected, (v, k)


@pytest.mark.parametrize("v", [(320, 319), (1, 300)])
def test_exact_ladder_group_law_identity(default_recursion_limit, v):
    # W(v+e_i) W(v-e_i) = W(v)^2 (x(P_i) - x(v . P)), with v . P by
    # double-and-add, not from the net's point cache; in integers throughout
    big_x, big_z = _x_by_double_and_add(v, max(v).bit_length() - 4)
    net = EllipticNet(E1, (P1, Q1))
    w = net.value(v)
    assert w != 0
    z2 = big_z * big_z
    for i, e in enumerate(((1, 0), (0, 1))):
        up = net.value((v[0] + e[0], v[1] + e[1]))
        down = net.value((v[0] - e[0], v[1] - e[1]))
        xi = net.points[i].x
        lhs = up.numerator * down.numerator * w.denominator ** 2 * z2 * xi.denominator
        rhs = (w.numerator ** 2 * up.denominator * down.denominator
               * (xi.numerator * z2 - big_x * xi.denominator))
        assert lhs == rhs, (v, i)


def test_exact_axis_values_are_psi(default_recursion_limit):
    # every n up to 400 on the P axis; on the Q axis, whose values are
    # larger, every n up to 60 and then a spread
    net = EllipticNet(E1, (P1, Q1))
    dp, dq = DivisionPolynomials(E1, P1), DivisionPolynomials(E1, Q1)
    for n in range(-400, 401):
        assert net.value((n, 0)) == dp.psi(n), n
    for n in [*range(-60, 61), 64, 97, 128, 199, -256, 311, 399, 400]:
        assert net.value((0, n)) == dq.psi(n), n
    # the box |n| <= 3 stays on the points route
    assert net.route_counts["points"] == 2


def test_exact_ladder_large_values_finish(default_recursion_limit):
    # the ladder meets axis children such as (0, 200) here, which psi
    # answers; on the points route they took tens of seconds
    net = EllipticNet(E1, (P1, Q1))
    w = net.value((1, 400))
    assert w.denominator & (w.denominator - 1) == 0
    assert net.route_counts["ladder"] < 100


# "dependent" is (P, 2P) on E1; (2P, P) is the other orientation
DEGENERATE_LADDER_CASES = dict(
    {name: (coeffs, coords) for name, (coeffs, coords, _, _) in DEGENERATE_NETS.items()},
    **{"(2P,P)": (E1_COEFFS, ("2P", (3, 4)))})
# indices on the radius-8 box that the points route refuses with
# DependentPointsError and that now answer from the ladder or psi
DEGENERATE_NEWLY_ANSWERED = {"node-smooth": 0, "dependent": 6, "torsion-rank-2": 38,
                             "(2P,P)": 4}


@pytest.mark.parametrize("case", sorted(DEGENERATE_LADDER_CASES))
def test_ladder_keeps_degenerate_nets(default_recursion_limit, case):
    coeffs, coords = DEGENERATE_LADDER_CASES[case]
    curve = WeierstrassCurve(*coeffs, allow_singular=True)
    points = tuple(curve.mul(2, P1) if c == "2P" else rational_point(*c) for c in coords)
    rec = EllipticNet(curve, points, strategy="recurrence")
    newly_answered = 0
    for v in box_indices(2, 8):
        expected = _points_outcome(curve, points, v)
        got = _outcome(EllipticNet(curve, points).value, v)
        if isinstance(expected, type):
            if not isinstance(got, type):
                # a refused index may answer, and only from the division-free routes
                assert expected is DependentPointsError, v
                newly_answered += 1
                assert _outcome(rec.value, v) in (got, DependentPointsError), v
                continue
        assert got == expected, v
    assert newly_answered == DEGENERATE_NEWLY_ANSWERED[case]


def test_reduced_net_route_counts(net1_pq):
    reduced = ReducedNet(net1_pq, 1000003)
    reduced.value((10 ** 20 + 3, 7 * 10 ** 19))
    counts = Counter(reduced.route_counts)
    assert counts["ladder"] > 0 and counts["exact"] > 0
    assert counts["psi"] == 0
    reduced.value((0, 900))
    assert reduced.route_counts == counts + Counter(psi=1)
    # E2 mod 7 has bad reduction: psi_2(P) = 7 sends even axis values to
    # the ladder, which never divides
    bad = ReducedNet(EllipticNet(E2, (Q2, P2)), 7)
    bad.value((0, 12))
    assert bad.route_counts["ladder"] > 0


@pytest.mark.parametrize("curve, points, p, limit", [
    (E2, (Q2, P2), 7, 400),  # bad reduction, psi_2(P) = 7
    (E1, (P1, Q1), 29, 200),  # Q = (15, 58) reduces to a 2-torsion point
], ids=["E2-mod-7", "E1-mod-29"])
def test_axis_where_psi_divides_by_zero_takes_the_ladder(curve, points, p, limit):
    net = EllipticNet(curve, points)
    reduced, oracle = ReducedNet(net, p), ReducedNet(net, p)
    with pytest.raises(DegenerateNetError):
        reduced._divpolys[1].psi(limit)
    for n in range(limit + 1):
        assert reduced.value((0, n)) == oracle.exact_value((0, n)), n
    assert reduced.route_counts["ladder"] > 0
    assert reduced.route_counts["exact"] <= len(box_indices(2, LADDER_BASE_NORM))
