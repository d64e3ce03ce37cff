import functools
import itertools
import json
import math
import random
import time
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ellnet import (
    INFINITY,
    CurvePoint,
    DivisionPolynomials,
    EllipticNet,
    build_symmetry_data,
    eval_by_symmetry,
    gf_point,
    QuadraticFormData,
    ReducedNet,
    WeierstrassCurve,
    decompose,
    factorize,
    initial_net_value,
    is_prime,
    rational_point,
    recurrence_check,
    reduce_curve,
    reduce_mod_p,
)
from ellnet.errors import (
    DegenerateNetError,
    DegeneratePairError,
    DependentPointsError,
    EllnetError,
    ModelNotIntegralError,
    PointNotOnCurveError,
    PreconditionError,
    SingularCurveError,
)
from ellnet import IntegralModel, PrimeFieldElement
from ellnet import net as net_module
from ellnet.net import (EXACT_FALLBACK_MAX_NORM, LADDER_BASE_NORM, _SEED_ROWS, _box_seeds, _children,
                        _ladder_units, _net_terms, _normalize, _quotient, _reduce_fraction,
                        _seeded_box, _smooth_part, box_indices, reduce_base_points)
from conftest import (E1_COEFFS, E2_COEFFS, P1, P2, Q1, Q2, assert_psi_is_exact_psi_reduced,
                      points_route, reduces_to_singular_point, triple)

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


def test_initial_value_at_the_origin_is_the_fields_zero(e1):
    # W(0) = 0 is a base value like the others, in the field of the points
    zero = initial_net_value(e1, (P1, Q1), (0, 0))
    assert zero == 0 and type(zero) is Fraction
    points = tuple(reduce_mod_p(e1, pt, 101) for pt in (P1, Q1))
    zero = initial_net_value(reduce_curve(e1, 101), points, (0, 0))
    assert zero == PrimeFieldElement(0, 101)


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


def _parts_by_every_entry(form, v):
    """F_v as (numerator, denominator) over every A_ij, i <= j, ones included."""
    num = den = 1
    for i, j in itertools.combinations_with_replacement(range(form.rank), 2):
        a, e = form.matrix[i][j], v[i] * v[j]
        n, d = (a.numerator, a.denominator) if e >= 0 else (a.denominator, a.numerator)
        num, den = num * n ** abs(e), den * d ** abs(e)
    return num, den


@pytest.mark.parametrize("curve, points, terms", [
    (E1, (Q1, P1), ((0, 1, 2, 1),)),
    (E1, (P1, Q1), ((0, 1, 2, 1),)),
    (E2, (Q2, P2), ()),
    (WeierstrassCurve(0, 0, 1, -7, 6),
     tuple(rational_point(x, y) for x, y in ((1, 0), (2, 0), (0, 2))), None),
    (E1, (rational_point(Fraction(9, 4), Fraction(-5, 8)), Q1), None),
], ids=["e1-qp", "e1-pq", "e2", "5077a", "e1-d2"])
def test_quadratic_form_parts_skip_the_ones(curve, points, terms):
    form = QuadraticFormData.from_curve_points(curve, points)
    assert all(n != d for _, _, n, d in form._terms)
    if terms is not None:
        assert form._terms == terms
    rng = random.Random(len(points))
    for _ in range(200):
        v = tuple(rng.randint(-9, 9) for _ in points)
        assert form.parts(v) == _parts_by_every_entry(form, v), v


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
    assert q.value((1, 0)) * net1.value((1, 0)) == 1
    assert abs(q.value((1, 1)) * net1.value((1, 1))) == 2
    assert abs(q.value((4, 9)) * net1.value((4, 9))) == CORNER


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


def test_recurrence_check_asks_each_index_once(net1):
    # memoized per call: the same violations, in the same order, as one
    # value_fn call per index of each sampled term
    table = {v: net1.value(v) for v in box_indices(2, 12)}
    table[(1, 2)] += 1
    table[(-3, 2)] -= 1
    calls = Counter()

    def counted(v):
        calls[v] += 1
        return table[v]

    rng, expected = random.Random(10), []
    for _ in range(300):
        quad = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(4))
        if sum(math.prod(table[u] for u in term) for term in _net_terms(*quad)):
            expected.append(quad)
    assert expected
    assert recurrence_check(counted, 2, 4, 300, seed=10) == expected
    assert set(calls.values()) == {1}


def test_reduced_net_matches_direct_gf(e1, net1):
    # the raw F_p points route answers the exact value or refuses at a zero
    # divisor; ReducedNet answers the exact value on the whole box.  The
    # exact value is the points route over Q of a net of its own, reduced
    reduced = ReducedNet(net1, 7)
    direct = EllipticNet(reduce_curve(e1, 7),
                         tuple(reduce_mod_p(e1, pt, 7) for pt in net1.points))
    by_points = EllipticNet(e1, net1.points)
    answered = 0
    for v in box_indices(2, 8):
        exact = _reduce_fraction(points_route(by_points, v), 7)
        try:
            got = direct.value(v)
        except DegenerateNetError:
            pass
        else:
            answered += 1
            assert got == exact, v
        assert reduced.value(v) == exact, v
    assert answered > 0


def test_reduced_net_fast_path_equals_exact(net1):
    # the direct-mod-p shortcut must be invisible: every value agrees with
    # exact evaluation over Q on the points route, followed by reduction
    by_points = EllipticNet(net1.curve, net1.points)
    for p in (5, 7, 11, 13):
        reduced = ReducedNet(net1, p)
        for v in box_indices(2, 7):
            assert reduced.value(v) == _reduce_fraction(points_route(by_points, v), p), (p, v)


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


# where the recurrence route mod p and the points route on dependent points
# raise (tests/data/raise_sets.json), recorded on the explicit schedule and
# support reduction that the rows of the net recurrence replaced
RAISE_SETS = json.loads((Path(__file__).parent / "data" / "raise_sets.json").read_text())


@pytest.mark.parametrize("name", sorted(RAISE_SETS["recurrence"]))
def test_gf_recurrence_raise_set_is_pinned(name):
    config, _, p = name.split()
    curve, points = {"E1-pq": (E1, (P1, Q1)), "E1-qp": (E1, (Q1, P1)),
                     "E2-pq": (E2, (P2, Q2)), "E2-qp": (E2, (Q2, P2))}[config]
    p = int(p)
    net = EllipticNet(reduce_curve(curve, p), tuple(reduce_mod_p(curve, pt, p) for pt in points),
                      strategy="recurrence")
    marks = {DegenerateNetError: "x", PrimeFieldElement: "."}
    rows = ["".join(marks.get(_outcome(lambda v: type(net.value(v)), (a, b)), "?")
                    for b in range(-12, 13)) for a in range(-12, 13)]
    assert rows == RAISE_SETS["recurrence"][name]


def test_gf_points_strategy_signals_degeneracy(e1):
    # a rank-1 net over F_2 with psi_2 = 0 has no usable fallback
    red = reduce_curve(e1, 2)
    from ellnet import gf_point

    direct = EllipticNet(red, (gf_point(1, 0, 2),))
    with pytest.raises(DegenerateNetError):
        direct.value((6,))


def test_gf_recurrence_rank_one_where_psi_2_vanishes(e1):
    # the rank-1 recurrence route over F_2 takes psi, which no longer raises
    # where psi_2 = 0: the even values are 0, the odd ones the exact psi reduced
    direct = EllipticNet(reduce_curve(e1, 2), (reduce_mod_p(e1, P1, 2),), strategy="recurrence")
    exact = DivisionPolynomials(e1, P1)
    for n in range(-40, 41):
        assert direct.value((n,)) == _reduce_fraction(exact.psi(n), 2), n
        if n % 2 == 0:
            assert direct.value((n,)) == 0, n


def test_reduced_net_at_singular_reduction(net2):
    # E2 mod 7: P reduces to the singular point; the reduced net answers the
    # exact value, the points route over Q reduced, with no curve error
    reduced = ReducedNet(net2, 7)
    by_points = EllipticNet(net2.curve, net2.points)
    for v in ((0, 6), (2, 5), (3, 3)):
        assert reduced.value(v) == _reduce_fraction(points_route(by_points, v), 7)
    assert reduced.value((0, 2)) == 0  # psi_2(P) = 7


def test_reduced_net_hypothesis_gate(e1, net1):
    # P - Q = (313/36, ...) hits infinity mod 2 and mod 3
    for p in (2, 3):
        with pytest.raises(PreconditionError):
            ReducedNet(net1, p)


def test_dependent_points_detected(e1):
    # (P, 2P): the points route detects the relation and refuses some box
    # indices; value answers Psi_v(P) at every one, equal to the points
    # route and to the recurrence route wherever they answer
    points = (P1, e1.mul(2, P1))
    dependent = EllipticNet(e1, points)
    rec = EllipticNet(e1, points, strategy="recurrence")
    refused = 0
    for v in box_indices(2, 4):
        got = dependent.value(v)
        expected = _points_outcome(e1, points, v)
        refused += expected is DependentPointsError
        assert got == expected or expected is DependentPointsError, v
        assert _outcome(rec.value, v) in (got, DependentPointsError), v
    assert refused > 0


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


# The window of the level-block schedule: at level j every index of the
# ladder is (u >> j) + o with o in this box, per rank.
LADDER_WINDOW = {rank: [range(-2, 4), range(-1, 3)] + [range(0, 2)] * (rank - 2)
                 for rank in range(2, 7)}


def in_ladder_window(offset):
    return all(c in span for c, span in zip(offset, LADDER_WINDOW[len(offset)]))


def ladder_children(u):
    """The eight indices of the halving step at u, read off the compiled
    table with u on a level of its own: base u >> 1, offset u & 1."""
    base = tuple(c >> 1 for c in u)
    step, _, _ = _children(tuple(c & 1 for c in u))
    return [tuple(b + t for b, t in zip(base, offset)) for offset in step]


def assert_table_keeps_the_window(rank):
    """Every offset o of the window, on a level base of either parity in
    each coordinate (so r = o + bits), has its eight children inside the
    window again, and the table commutes with r -> r + 2 e_i, so a child
    index depends on the parent index alone."""
    for r in itertools.product(*(range(span.start, span.stop + 1) for span in LADDER_WINDOW[rank])):
        step, values_of, _ = _children(r)
        assert all(map(in_ladder_window, step)), (r, step)
        assert values_of({t: t for t in step}) == step, r
        for i in range(rank):
            shifted = r[:i] + (r[i] + 2,) + r[i + 1:]
            moved = tuple(t[:i] + (t[i] + 1,) + t[i + 1:] for t in step)
            assert _children(shifted)[0] == moved, (r, i)


def test_ladder_schedule_invariants():
    assert_table_keeps_the_window(2)
    for m in range(-200, 201):
        for n in range(-200, 201):
            u = (m, n)
            if max(abs(m), abs(n)) <= LADDER_BASE_NORM:
                continue
            g, c, h = _ladder_units((m & 1, n & 1))
            assert {g, c, h} <= UNITS
            d = (h[0] - c[0], h[1] - c[1])
            assert ((g[0] - d[0] - m) % 2, (g[1] - d[1] - n) % 2) == (0, 0), u
            for child in ladder_children(u):
                assert max(map(abs, child)) < max(abs(m), abs(n)), (u, child)


@functools.cache
def points_box(curve, points):
    """W on the box of radius 12 from the points route of a fresh net, which
    takes no psi and no ladder: an oracle independent of the source rule."""
    net = EllipticNet(curve, points)
    return {v: points_route(net, v) for v in box_indices(2, 12)}


@pytest.mark.parametrize("p", LADDER_PRIMES)
def test_ladder_matches_exact_on_box(default_recursion_limit, net1_pq, net2, p):
    # E2 mod 7 has bad reduction: (0, 0) reduces to the singular point
    for net in (net1_pq, net2):
        reduced = ReducedNet(net, p)
        for v, w in points_box(net.curve, net.points).items():
            assert reduced.value(v) == _reduce_fraction(w, p), (p, v)


# route_counts of the huge-index cases below, recorded on the schedule that
# the level blocks replaced (a top-down dict of steps): the same indices
# take the same routes
HUGE_INDEX_COUNTS = {7: (14, 166391), 11: (11, 166704), 19: (19, 166705), 61: (23, 166581),
                     89: (22, 166537)}


@pytest.mark.parametrize("p", [7, 11, 19, 61, 89])
def test_ladder_matches_symmetry_at_huge_indices(default_recursion_limit, net1_pq, p):
    # the oracle's symmetry data comes from exact values on the recurrence route
    reduced = ReducedNet(net1_pq, p)
    sd = recurrence_symmetry_data(p)
    rng = random.Random(p)
    for _ in range(100):
        v = tuple(rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30) for _ in range(2))
        assert reduced.value(v) == eval_by_symmetry(sd, v), (p, v)
    psi, ladder = HUGE_INDEX_COUNTS[p]
    assert reduced.route_counts == Counter(seed=25, psi=psi, ladder=ladder)


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


def test_ladder_index_of_2000_digits_finishes(default_recursion_limit):
    # about 6,600 levels of the schedule, far past the recursion limit
    reduced = ReducedNet(EllipticNet(E1, (P1, Q1)), 1000003)
    rng = random.Random(2000)
    v = (rng.randrange(10 ** 1999, 10 ** 2000), -rng.randrange(10 ** 1999, 10 ** 2000))
    start = time.perf_counter()
    assert assert_group_law_identity(reduced, reduced.value, v) != 0
    assert time.perf_counter() - start < 10


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
    for child in ladder_children(u):
        assert max(map(abs, child)) < max(map(abs, u)), (u, child)


def test_ladder_rule_reproduces_the_rank_two_table():
    for parity, units in RANK_TWO_LADDER.items():
        assert _ladder_units(parity) == units
    # a rank-1 net has no unit e_1 + e_2: its values take psi or the box
    for parity in ((0,), (1,)):
        with pytest.raises(PreconditionError):
            _ladder_units(parity)


def test_ladder_rule_rank_three():
    assert_table_keeps_the_window(3)
    for u in itertools.product(range(-12, 13), repeat=3):
        if max(map(abs, u)) > LADDER_BASE_NORM:
            assert_ladder_step(u)


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_ladder_rule_ranks_four_to_six(rank):
    assert_table_keeps_the_window(rank)
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


ROUTE_COUNT_NETS = {
    "e1-points": (E1, (P1, Q1), "points"),
    "e1-recurrence": (E1, (P1, Q1), "recurrence"),
    "5077a": (CURVE_5077A, POINTS_5077A, "points"),
    "234446a": (CURVE_234446A, tuple(rational_point(x, y) for x, y in ((0, 17), (-4, 25), (4, -7))),
                "points"),
}


@pytest.mark.parametrize("name", ROUTE_COUNT_NETS)
def test_route_counts_add_up_to_the_memo(name):
    # each value of a step route is stepped and counted once, also where
    # the box of the rule of ``_net_value`` asks for one the points route
    # already filled on its way to another
    curve, points, strategy = ROUTE_COUNT_NETS[name]
    net = EllipticNet(curve, points, strategy)
    reduced = ReducedNet(EllipticNet(curve, points), 1009)
    rng = random.Random(28)
    for _ in range(20):
        v = tuple(rng.randint(-9, 9) for _ in points)
        net.value(v)
        reduced.value(v)
    counts = net.route_counts
    assert counts["base"] + counts["points"] + counts["recurrence"] == len(net._values), counts
    assert sum(reduced.route_counts.values()) == len(reduced._residues), reduced.route_counts


# (4, 3) in place of (5, -2): a small relation among the four points
# makes some box values raise
DEPENDENT_234446A = POINTS_234446A[:3] + (rational_point(4, 3),)


def test_exact_fallback_is_bounded_by_max_norm():
    # both ladders meet a raising box value; the points route over Q
    # answers both indices, but only the first is within the bound
    within, past = (-9, 21, 28, 24), (-24, 25, 9, 29)
    assert max(map(abs, within)) == EXACT_FALLBACK_MAX_NORM < max(map(abs, past))
    by_points = EllipticNet(CURVE_234446A, DEPENDENT_234446A)
    reduced = ReducedNet(EllipticNet(CURVE_234446A, DEPENDENT_234446A), 101)
    assert reduced.value(within) == _reduce_fraction(points_route(by_points, within), 101) == 100
    assert reduced.route_counts["exact"] > 0
    _reduce_fraction(points_route(by_points, past), 101)
    with pytest.raises(DependentPointsError, match="max-norm at most 28"):
        reduced.value(past)


def test_points_route_raise_set_on_dependent_points_is_pinned():
    # the support reduction serves every index of max-norm 1 with three or
    # more nonzero coordinates
    net = EllipticNet(CURVE_234446A, DEPENDENT_234446A)
    outcomes = {v: _outcome(lambda u: points_route(net, u), v) for v in box_indices(4, 3)}
    raised = [v for v, w in outcomes.items() if isinstance(w, type)]
    assert {outcomes[v] for v in raised} == {DependentPointsError}
    assert [list(v) for v in raised] == RAISE_SETS["points"]


# seven integral points of 5077a: past LADDER_MAX_RANK, and dependent,
# since the curve has rank 3
POINTS_5077A_RANK_SEVEN = tuple(rational_point(x, y) for x, y in
                                ((1, 0), (2, 0), (0, 2), (-3, 0), (4, 6), (8, 21), (3, 3)))


def test_reduced_net_above_the_ladder_rank_is_bounded():
    # every off-axis value exact over Q, then reduced; a refusal is the
    # points route's
    by_points = EllipticNet(CURVE_5077A, POINTS_5077A_RANK_SEVEN)
    reduced = ReducedNet(EllipticNet(CURVE_5077A, POINTS_5077A_RANK_SEVEN), 101)
    rng = random.Random(7)
    indices = [tuple(rng.randint(-3, 3) for _ in range(7)) for _ in range(40)]
    indices += [(EXACT_FALLBACK_MAX_NORM, 1, 1, 1, 1, 1, 1), (3, 2, 1, 1, 1, 1, 1)]
    answered = 0
    for v in indices:
        expected = _outcome(lambda u: _reduce_fraction(points_route(by_points, u), 101), v)
        assert _outcome(reduced.value, v) == expected, v
        answered += not isinstance(expected, type)
    assert answered > 20
    assert reduced.route_counts.keys() == {"exact"}
    with pytest.raises(PreconditionError, match=f"rank 7 > 6 .* max-norm at most {EXACT_FALLBACK_MAX_NORM}"):
        reduced.value((EXACT_FALLBACK_MAX_NORM + 1, 1, 1, 1, 1, 1, 1))
    # an axis index takes psi at every rank, also past the bound
    axis = ReducedNet(EllipticNet(CURVE_5077A, POINTS_5077A_RANK_SEVEN), 101)
    oracle = DivisionPolynomials(reduce_curve(CURVE_5077A, 101),
                                 reduce_mod_p(CURVE_5077A, POINTS_5077A_RANK_SEVEN[6], 101))
    assert axis.value((0,) * 6 + (300,)) == oracle.psi(300) == 41
    assert axis.route_counts == Counter(psi=1)


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


def _psi_2(curve, pt):
    return 2 * pt.y + curve.a1 * pt.x + curve.a3


def _divided_difference(nodes):
    """y[x_0, ..., x_n] of the nodes (x, y, dy/dx); a repeated node is two
    adjacent equal entries, whose difference is its slope dy/dx."""
    if len(nodes) == 1:
        return nodes[0][1]
    (x0, _, slope), xn = nodes[0], nodes[-1][0]
    if x0 == xn:
        return slope
    return (_divided_difference(nodes[1:]) - _divided_difference(nodes[:-1])) / (xn - x0)


def _closed_form_box_values(curve, points):
    """(index, W(index)) from divided differences of y over the x_i.  At
    rank 3, W(e_i+e_j+e_k) = y[x_i, x_j, x_k] and
    W(e_i+e_j+2e_k) = -psi_2(P_k) * y[x_i, x_j, x_k, x_k]; at rank 4,
    W(e_1+e_2+e_3+e_4) = -y[x_1, x_2, x_3, x_4]."""
    nodes = [(pt.x, pt.y, (3 * pt.x ** 2 + 2 * curve.a2 * pt.x + curve.a4 - curve.a1 * pt.y)
              / _psi_2(curve, pt)) for pt in points]
    if len(points) == 4:
        yield (1, 1, 1, 1), -_divided_difference(nodes)
        return
    yield (1, 1, 1), _divided_difference(nodes)
    for k in range(3):
        i, j = (a for a in range(3) if a != k)
        yield (tuple(1 + (a == k) for a in range(3)),
               -_psi_2(curve, points[k]) * _divided_difference([nodes[i], nodes[j], nodes[k], nodes[k]]))


# integral points with distinct x-coordinates
CLOSED_FORM_POINTS = {
    "5077a": (CURVE_5077A, ((-3, 0), (-2, 3), (-1, -4), (0, 2), (1, 0), (2, -1))),
    "234446a": (CURVE_234446A, ((0, 17), (1, 14), (3, 7), (5, -2), (-4, 25), (4, -7))),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_POINTS))
def test_rank_three_and_four_box_values_have_closed_forms(name):
    # an oracle that shares no route with the points route the box takes:
    # every ordered tuple, over Q and mod each prime where the x's stay
    # distinct; a tuple the exact net refuses (dependent points) is skipped
    curve, coordinates = CLOSED_FORM_POINTS[name]
    points = [rational_point(x, y) for x, y in coordinates]
    checked = Counter()
    for rank in (3, 4):
        for tup in itertools.permutations(points, rank):
            net = EllipticNet(curve, tup)
            try:
                expected = [(v, w, net.value(v)) for v, w in _closed_form_box_values(curve, tup)]
            except DependentPointsError:
                continue
            for v, w, got in expected:
                assert got == w, (tup, v)
            checked[rank] += len(expected)
            for p in (11, 101, 1009):
                if len({pt.x % p for pt in tup}) == rank:
                    reduced = ReducedNet(net, p)
                    for v, w, _ in expected:
                        assert reduced.value(v) == _reduce_fraction(w, p), (tup, p, v)
    assert checked[3] > 400 and checked[4] > 300, checked


def test_exact_rank_three_group_law_identity(default_recursion_limit):
    # W(v+e_i) W(v-e_i) = W(v)^2 (x(P_i) - x(v . P)) over Q, with v . P by
    # double-and-add on IntegralModel triples, not from the net's point cache
    v = (203, -197, 188)
    law = IntegralModel(CURVE_5077A)
    total = None
    for n, point in zip(v, POINTS_5077A):
        multiple = _triple_multiple(law, abs(n), triple(CURVE_5077A, point))
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
    # value gives the residue of the points route over Q wherever that
    # answers, and raises only where it raises; each oracle value is taken
    # on a fresh net, so that no other index's memo enters it
    names, radius = DEPENDENT_REDUCED_CASES[case]
    named = {"P": P1, "Q": Q1, "P+Q": E1.add(P1, Q1), "2P": E1.mul(2, P1)}
    points = tuple(named[name] for name in names)
    reduced = ReducedNet(EllipticNet(E1, points), p)

    def exact(u):
        return _reduce_fraction(points_route(EllipticNet(E1, points), u), p)

    for v in box_indices(len(points), radius):
        expected = _outcome(exact, v)
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


def test_nets_without_an_integral_model_refuse_heights_and_denominators(e1):
    # (0, 1/2) has order 3 on y^2 = x^3 + 1/4, and (3, 4) mod 7 has order 13
    # on E1 mod 7: the identity checks come first, then the missing integer law
    rational = EllipticNet(WeierstrassCurve(0, 0, 0, 0, Fraction(1, 4)),
                           (rational_point(0, Fraction(1, 2)),))
    finite = EllipticNet(reduce_curve(e1, 7), (reduce_mod_p(e1, P1, 7),))
    for net, order in ((rational, 3), (finite, 13)):
        for n in range(1, 2 * order + 1):
            height = _outcome(lambda v: net.local_height(v, 5), (n,))
            assert height == (None if n % order == 0 else ModelNotIntegralError), n
    for n in range(1, 7):
        assert _outcome(rational.denominator, (n,)) == (
            DependentPointsError if n % 3 == 0 else ModelNotIntegralError), n
        assert _outcome(finite.denominator, (n,)) is PreconditionError, n


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


def _oriented(curve_name, orientation):
    curve, gen_q, gen_p = {"e1": (E1, Q1, P1), "e2": (E2, Q2, P2)}[curve_name]
    return curve, (gen_q, gen_p) if orientation == "qp" else (gen_p, gen_q)


@pytest.mark.parametrize("curve_name", ["e1", "e2"])
@pytest.mark.parametrize("orientation", ["qp", "pq"])
def test_point_cache_matches_fraction_law_on_large_grid(default_recursion_limit,
                                                        curve_name, orientation):
    # denominators are read off the net's values, with no step of the point
    # cache's chain, on seeded samples and the corners of a 30x30 and a
    # 60x60 grid; the cache still rebuilds the public point
    curve, points = _oriented(curve_name, orientation)
    rng = random.Random(f"{curve_name}-{orientation}")
    grid = [(c, r) for c in range(30) for r in range(30)]
    sample = rng.sample(grid, 20) + [(29, 29), (29, 0), (0, 29)]
    net = EllipticNet(curve, points)
    rec = EllipticNet(curve, points, strategy="recurrence")
    for v in sample:
        assert net.denominator(v) == _denominator_by_fraction_law(curve, points, v), v
        assert net.value(v) == rec.value(v), v
    large = rng.sample([(c, r) for c in range(60) for r in range(60)], 12)
    for v in large + [(59, 59), (59, 0), (0, 59), (1, 59), (59, 1)]:
        assert net.denominator(v) == _denominator_by_fraction_law(curve, points, v), v
    assert len(net._points_cache) == 1  # the origin alone
    # the public point is rebuilt from the cached triple
    v = sample[0]
    assert net.point(v) == curve.add(curve.mul(v[0], points[0]), curve.mul(v[1], points[1]))


# Nets whose denominators ``denominator`` reads off Psi-hat by the valuation
# theorem: E1 in both orders and with P_1 = (9/4, -5/8) (D_1 = 2), E2 in both
# orders (m = 7), 5077a, three curves with singular primes of the points
# (m = 12, 3, 2), one where 2 and 3 divide both D_1 = 30 and m = 6 (P_2 is
# singular there), and a rank-one net (m = 2).
VALUATION_NETS = {
    "e1-qp": (E1_COEFFS, ((15, 58), (3, 4))),
    "e1-pq": (E1_COEFFS, ((3, 4), (15, 58))),
    "e1-d2": (E1_COEFFS, ((Fraction(9, 4), Fraction(-5, 8)), (3, 4))),
    "e2-qp": (E2_COEFFS, ((1, 3), (0, 0))),
    "e2-pq": (E2_COEFFS, ((0, 0), (1, 3))),
    "5077a": ((0, 0, 1, -7, 6), ((1, 0), (2, 0))),
    "m12": ((0, 0, 0, -21, 549), ((-5, 23), (9, 33))),
    "m6-d30": ((0, 0, 0, -21, 549), ((Fraction(-2831, 900), Fraction(-652447, 27000)), (9, 33))),
    "m3": ((0, 0, 0, 198, 1495), ((-1, 36), (3, 46))),
    "m2": ((0, 0, 0, -172, 105), ((-12, 21), (-13, 12))),
    "rank-one": ((0, 0, 0, -304391, -8086649), ((-27, 335),)),
}


def _valuation_net(name):
    coeffs, coords = VALUATION_NETS[name]
    return EllipticNet(WeierstrassCurve(*coeffs), tuple(rational_point(x, y) for x, y in coords))


@pytest.mark.parametrize("name", sorted(VALUATION_NETS))
def test_denominator_matches_the_group_law_chain(name):
    # D_{v . P} read off Psi-hat equals the group-law chain's on every index
    # of the box |v| <= 12, at singular primes of the points too
    net, chain = _valuation_net(name), _valuation_net(name)
    for v in box_indices(net.rank, 12):
        if any(v):
            assert net.denominator(v) == chain._chain_denominator(v), v


@pytest.mark.parametrize("name", sorted(VALUATION_NETS))
def test_singular_modulus_names_the_primes_of_singular_reduction(name):
    # a prime of the discriminant divides m_i exactly when P_i reduces to
    # the singular point; a P_i that reduces to infinity is nonsingular
    net = _valuation_net(name)
    moduli = net._singular_moduli
    assert len(moduli) == net.rank and all(m > 0 for m in moduli)
    for q, _ in factorize(int(net.curve.discriminant)).factors:
        for m, pt in zip(moduli, net.points):
            assert (m % q == 0) == reduces_to_singular_point(net.curve, pt, q), q
    m = math.prod(moduli)
    expected = {"e1-qp": 1, "e1-pq": 1, "e1-d2": 1, "e2-qp": 7, "e2-pq": 7, "5077a": 1,
                "m6-d30": 6}
    assert m == expected.get(name, m)


@pytest.mark.parametrize("orientation", ["qp", "pq"])
def test_e1_denominators_take_no_full_size_gcd(monkeypatch, orientation):
    # on E1 m = 1 and D_i = 1, so D = |Psi-hat(v)|: every gcd that net.py
    # takes for a 28x28 table is on operands of at most 64 bits
    sizes = []

    def gcd(*args):
        sizes.extend(abs(a).bit_length() for a in args)
        return math.gcd(*args)

    names = {k: getattr(math, k) for k in dir(math) if not k.startswith("_")}
    monkeypatch.setattr(net_module, "math", types.SimpleNamespace(**{**names, "gcd": gcd}))
    curve, points = _oriented("e1", orientation)
    net = EllipticNet(curve, points)
    grid = [(c, r) for c in range(28) for r in range(28) if c or r]
    assert [net.denominator(v) for v in grid] == [abs(net.scaled_value(v)) for v in grid]
    assert sizes and max(sizes) <= 64
    assert net.denominator((27, 27)).bit_length() > 1000


@pytest.mark.parametrize("m", [1, 2, 7, 12, 210, 7 * 10**20 + 1])
def test_smooth_part(m):
    rng = random.Random(m)
    primes = [q for q in (2, 3, 5, 7, 11, 13) if m % q == 0]
    for _ in range(200):
        s = math.prod(q ** rng.randint(0, 40) for q in primes)
        rest = rng.randint(1, 10**30)
        while math.gcd(rest, m) > 1:
            rest //= math.gcd(rest, m)
        assert _smooth_part(s * rest, m) == s * _smooth_part(rest, m) == s


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
    # the points route refuses every index off NODE_VALUES; value answers
    # Psi_v(P) at every index, equal to the points route where it answers
    # and to the recurrence route, which answers the whole box
    node = WeierstrassCurve(0, 1, 0, 0, 0, allow_singular=True)
    points = (rational_point(0, 0), rational_point(3, 6))
    rec = EllipticNet(node, points, strategy="recurrence")
    for v in box_indices(2, 3):
        assert _points_outcome(node, points, v) == NODE_VALUES.get(v, DependentPointsError), v
        value = EllipticNet(node, points).value(v)
        assert value == NODE_VALUES.get(v, value) == rec.value(v), v
        den = _outcome(EllipticNet(node, points).denominator, v)
        assert den == NODE_DENOMINATORS.get(v, SingularCurveError), v
    for v in ((3, 0), (2, 2), (3, 1), (1, 3), (-2, 3)):
        assert _points_outcome(node, points, v) is DependentPointsError
        with pytest.raises(SingularCurveError):
            EllipticNet(node, points).denominator(v)


# (curve, points, indices that the points route refuses, indices whose
# denominator raises)
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
        # value answers Psi_v(P) at every index: the points route's value
        # where it answers, and the recurrence route's wherever that answers,
        # which includes every index the points route answers
        expected = _points_outcome(curve, points, v)
        assert (expected is DependentPointsError) == (v in bad_values), v
        value = EllipticNet(curve, points).value(v)
        assert value == (value if v in bad_values else expected), v
        answered = _outcome(rec.value, v)
        assert answered == value or (v in bad_values and answered is DependentPointsError), v
        den = _outcome(EllipticNet(curve, points).denominator, v)
        assert den == _outcome(lambda u: _denominator_by_fraction_law(curve, points, u), v)
        assert (den is DependentPointsError) == (v in bad_denominators), v


CURVE_TORSION = WeierstrassCurve(0, 0, 0, 0, 1)
# points of y^2 = x^3 + 1 by their order
TORSION_POINTS = {2: rational_point(-1, 0), 3: rational_point(0, 1), 6: rational_point(2, 3)}


def test_point_cache_rank_one_torsion():
    # the points route refuses the indices past the order; value takes psi
    # at every index, so those answer Psi_n(P) too, and the reduced net mod 5
    # their residues
    curve = CURVE_TORSION
    for order, point in TORSION_POINTS.items():
        psi = DivisionPolynomials(curve, point)
        net = EllipticNet(curve, (point,))
        reduced = ReducedNet(EllipticNet(curve, (point,)), 5)
        for n in range(-13, 14):
            value = _points_outcome(curve, (point,), (n,))
            assert value == (psi.psi(n) if abs(n) <= order else DependentPointsError), (order, n)
            assert net.value((n,)) == psi.psi(n), (order, n)
            assert reduced.value((n,)) == _reduce_fraction(psi.psi(n), 5), (order, n)
            den = _outcome(EllipticNet(curve, (point,)).denominator, (n,))
            assert den == (0 if n == 0 else DependentPointsError if n % order == 0 else 1), n
            assert den == _outcome(lambda u: _denominator_by_fraction_law(curve, (point,), u), (n,))
        assert net.route_counts == reduced.route_counts == Counter(psi=14)


# --- denominators read off the net ------------------------------------------


@pytest.fixture
def no_group_law(monkeypatch):
    """``IntegralModel.add`` raises: a denominator that answers is read off
    the net's values, with no step of the point cache's chain."""
    def refuse(self, P, Q):
        raise AssertionError("IntegralModel.add ran")
    monkeypatch.setattr(IntegralModel, "add", refuse)


# rank-2 nets on nonsingular integral models: E1 and E2 in both orders, the
# nonsingular entries of DEGENERATE_NETS, and E1 with 2P = (345/64, ...)
# first, where x(P_1) is not an integer, so that the sign of the correction
# term shows in D
NET_DENOMINATOR_CASES = {
    **{f"{name}-{ori}": _oriented(name, ori) for name in ("e1", "e2") for ori in ("qp", "pq")},
    **{name: (WeierstrassCurve(*coeffs), tuple(rational_point(x, y) for x, y in coords))
       for name, (coeffs, coords, _, _) in DEGENERATE_NETS.items() if name != "node-smooth"},
    "e1-(2P,Q)": (E1, (E1.mul(2, P1), Q1)),
}


@pytest.mark.parametrize("case", sorted(NET_DENOMINATOR_CASES))
def test_rank_two_denominators_take_no_group_law(default_recursion_limit, no_group_law, case):
    # the radius-8 box, negative indices included; an identity index
    # raises DependentPointsError on both sides
    curve, points = NET_DENOMINATOR_CASES[case]
    net = EllipticNet(curve, points)
    identities = 0
    for v in box_indices(2, 8):
        expected = _outcome(lambda u: _denominator_by_fraction_law(curve, points, u), v)
        assert _outcome(net.denominator, v) == expected, v
        identities += expected is DependentPointsError
    assert identities == {"dependent": 8, "torsion-rank-2": 42}.get(case, 0)
    assert len(net._points_cache) == 1  # the origin alone: no chain ran


def test_rank_one_denominators_take_no_group_law(default_recursion_limit, no_group_law):
    # x(nP) = x - psi_{n+1} psi_{n-1} / psi_n^2, on E1, E2 and the torsion
    # points, where psi_n = 0 at the identity
    for curve, point in [(E1, P1), (E1, Q1), (E2, P2), (E2, Q2),
                         *((CURVE_TORSION, pt) for pt in TORSION_POINTS.values())]:
        net = EllipticNet(curve, (point,))
        for n in range(-40, 41):
            expected = _outcome(lambda u: _denominator_by_fraction_law(curve, (point,), u), (n,))
            assert _outcome(net.denominator, (n,)) == expected, (point, n)


def test_denominator_routes_by_rank_and_model(monkeypatch):
    # ranks 1 and 2 on a nonsingular integral model read the net; rank 3,
    # the node and the recurrence strategy keep the point cache's chain
    calls = Counter()
    add = IntegralModel.add

    def counted(self, P, Q):
        calls["add"] += 1
        return add(self, P, Q)

    monkeypatch.setattr(IntegralModel, "add", counted)
    node = WeierstrassCurve(0, 1, 0, 0, 0, allow_singular=True)
    for curve, points, chain in [
        (E1, (Q1, P1), False), (E2, (P2,), False), (CURVE_5077A, POINTS_5077A, True),
        (node, (rational_point(0, 0), rational_point(3, 6)), True),
    ]:
        calls.clear()
        net = EllipticNet(curve, points)
        v = (0,) * (len(points) - 1) + (3,)
        assert net.denominator(v) == _denominator_by_fraction_law(curve, points, v), curve
        assert (calls["add"] > 0) == chain, curve
    calls.clear()
    rec = EllipticNet(E1, (Q1, P1), strategy="recurrence")
    assert rec.denominator((4, 9)) == CORNER and calls["add"] > 0
    net = EllipticNet(CURVE_5077A, POINTS_5077A)
    for v in box_indices(3, 2):
        expected = _outcome(lambda u: _denominator_by_fraction_law(CURVE_5077A, POINTS_5077A, u), v)
        assert _outcome(net.denominator, v) == expected, v


def test_int_coordinates_give_the_rational_net():
    # CurvePoint(3, 4) with int coordinates once divided into floats
    ints = EllipticNet(E1, (CurvePoint(3, 4), CurvePoint(15, 58)))
    fractions = EllipticNet(E1, (P1, Q1))
    assert all(type(c) is Fraction for pt in ints.points for c in (pt.x, pt.y))
    assert ints.value((5, 7)) == fractions.value((5, 7)) != 279100258473494.78
    for v in ((5, 7), (1, 1), (2, -1), (0, 3), (-4, 9), (12, 5)):
        assert type(ints.value(v)) is Fraction and ints.value(v) == fractions.value(v), v
        assert ints.denominator(v) == fractions.denominator(v), v
    rank_one = EllipticNet(E1, (CurvePoint(3, 4),))
    assert rank_one.value((6,)) == DivisionPolynomials(E1, P1).psi(6)
    assert rank_one.denominator((6,)) == EllipticNet(E1, (P1,)).denominator((6,))


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
    # seeded box serves the box, the points route nothing, and the oracles
    # never take the ladder
    box = {_normalize(u)[0] for u in box_indices(2, LADDER_BASE_NORM)}
    counts = net.route_counts
    assert counts["ladder"] > 0 and counts["psi"] == 2 * (29 - LADDER_BASE_NORM)
    assert counts["seed"] == len(box)
    assert counts == Counter(seed=25, psi=52, ladder=847)
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
    base = [triple(E1, P1), triple(E1, Q1)]
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
        expected = law.x(law.add(triple(E1, E1.mul(v[0], P1)), triple(E1, E1.mul(v[1], Q1))))
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
    # the box |n| <= 3 is the seeded box's, and every axis value above it psi's
    assert net.route_counts == Counter(seed=25, psi=397 + 57 + 8)


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
def _degenerate_net(case):
    coeffs, coords = DEGENERATE_LADDER_CASES[case]
    curve = WeierstrassCurve(*coeffs, allow_singular=True)
    return curve, tuple(curve.mul(2, P1) if c == "2P" else rational_point(*c) for c in coords)


# indices on the radius-8 box that the points route refuses with
# DependentPointsError and that answer from the seeded box, the ladder or psi
DEGENERATE_NEWLY_ANSWERED = {"node-smooth": 0, "dependent": 104, "torsion-rank-2": 232,
                             "(2P,P)": 110}


@pytest.mark.parametrize("case", sorted(DEGENERATE_LADDER_CASES))
def test_ladder_keeps_degenerate_nets(default_recursion_limit, case):
    curve, points = _degenerate_net(case)
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
    # the rank-2 box is seeded with the net, none of it exact over Q
    assert counts["ladder"] > 0 and counts["seed"] == 25
    assert counts["psi"] == 0 and counts["exact"] == 0
    # axis values against psi of the right point, built here
    q = DivisionPolynomials(reduced.gf_curve, reduce_mod_p(E1, Q1, 1000003))
    assert reduced.value((0, 900)) == q.psi(900)
    assert reduced.route_counts == counts + Counter(psi=1)
    # E2 mod 7 has bad reduction: psi_2(P) = 7, so psi gives 0 at even axis
    # values, with no division
    bad = ReducedNet(EllipticNet(E2, (Q2, P2)), 7)
    assert bad.value((0, 12)) == 0
    assert bad.route_counts == Counter(seed=25, psi=1)
    assert bad.value((0, 13)) == DivisionPolynomials(bad.gf_curve, reduce_mod_p(E2, P2, 7)).psi(13)
    # both points at the node of E2 mod 7: P_1 + P_2 from its cached triple,
    # so the whole box is seeded mod 7, none of it exact over Q
    node = ReducedNet(EllipticNet(E2, NODE_POINTS), 7)
    assert node.route_counts == Counter(seed=25)
    assert node.value((2, 1)) == 6 and node.route_counts["exact"] == 0
    good = ReducedNet(EllipticNet(E1, (P1, Q1)), 1009)
    good.value((150, -100))
    assert good.route_counts["exact"] == 0


@pytest.mark.parametrize("curve, points, p, limit", [
    (E2, (Q2, P2), 7, 400),  # bad reduction, psi_2(P) = 7
    (E1, (P1, Q1), 29, 200),  # Q = (15, 58) reduces to a 2-torsion point
], ids=["E2-mod-7", "E1-mod-29"])
def test_axis_where_psi_2_vanishes_takes_psi(curve, points, p, limit):
    reduced = ReducedNet(EllipticNet(curve, points), p)
    # psi mod p of the second point, built here, and psi over Q reduced
    oracle = DivisionPolynomials(reduce_curve(curve, p), reduce_mod_p(curve, points[1], p))
    for n in range(limit + 1):
        assert reduced.value((0, n)) == oracle.psi(n), n
    assert_psi_is_exact_psi_reduced(oracle, curve, points[1], p)
    assert reduced.route_counts == Counter(seed=25, psi=limit + 1 - 4)


# --- the seeded rank-2 box of ReducedNet ----------------------------------------

UNITS = {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
SEEDS = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0), (0, 2), (0, 3), (2, 1), (1, 2), (2, 2)}
# both points reduce to the node of E2 mod 7, and neither P_1 + P_2 nor
# P_1 - P_2 reduces to infinity: x_1 = x_2 mod 7, so there is no slope mod 7
NODE_POINTS = (rational_point(Fraction(153230, 121801), Fraction(-452496548, 42508549)), P2)
# the rank-2 configurations of the seeded box checks
SEEDED_CONFIGS = {
    "E1-pq": (E1, (P1, Q1)), "E1-qp": (E1, (Q1, P1)),
    "E2-pq": (E2, (P2, Q2)), "E2-qp": (E2, (Q2, P2)),
    "5077a": (CURVE_5077A, (rational_point(0, 2), rational_point(1, 0))),
    # a1 != 0: the slope enters W(2,1) and W(1,2) with its sign
    "234446a": (WeierstrassCurve(1, -1, 0, -79, 289), (rational_point(0, 17), rational_point(1, 14))),
    "E2-node": (E2, NODE_POINTS),
}


def test_seed_rows_are_well_founded():
    known = set(SEEDS)
    for quad in _SEED_ROWS:
        terms = _net_terms(*quad)
        head, *units = terms[0]
        target = _normalize(head)[0]
        assert set(units) <= UNITS, target
        assert {_normalize(t)[0] for term in terms[1:] for t in term} <= known, target
        assert all(max(map(abs, t)) <= 3 for term in terms for t in term), target
        known.add(target)
    # the seeds and the rows cover the normalized box, each index once
    assert len(known) == len(SEEDS) + len(_SEED_ROWS)
    assert known == {_normalize(v)[0] for v in box_indices(2, 3)}


@pytest.mark.parametrize("config", sorted(SEEDED_CONFIGS))
def test_seed_rows_rebuild_the_box_over_q(config):
    # the seeds from P_1 + P_2 by WeierstrassCurve.add; W(2,1) and W(1,2)
    # against the slope formula of initial_net_value
    curve, points = SEEDED_CONFIGS[config]
    psi = [DivisionPolynomials(curve, pt) for pt in points]
    total = curve.add(*points)
    seeds = _box_seeds(points[0].x, points[1].x, total.x, total.y, curve.a1, curve.a3)
    box = _seeded_box(seeds, lambda axis, n: psi[axis].psi(n), lambda x, units: x)
    for v in ((2, 1), (1, 2)):
        assert box[v] == initial_net_value(curve, points, v), v
    by_points = EllipticNet(curve, points)
    for v in box_indices(2, 3):
        key, sign = _normalize(v)
        assert sign * box[key] == points_route(by_points, v), v


def _primes(bound):
    return [n for n in range(2, bound) if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def test_seeded_box_matches_exact_value_mod_p():
    # every box residue against the points route over Q on a net of its own,
    # reduced, so that the seeded box and its oracle share no memo and no
    # seed row; a refusal against the one the Fraction reduction of the
    # points names
    box = box_indices(2, 3)
    constructed = []
    for config, (curve, points) in sorted(SEEDED_CONFIGS.items()):
        oracle = EllipticNet(curve, points)
        for p in _primes(400) + [1009, 10007, 1000003]:
            try:
                reduced = ReducedNet(EllipticNet(curve, points), p)
            except PreconditionError as exc:
                try:
                    _, defects = _reduce_base_points_by_fraction_law(curve, points, p)
                except PreconditionError as ref:
                    defects = [str(ref)]
                assert str(exc) == defects[0], (config, p)
                continue
            (r1, r2), defects = _reduce_base_points_by_fraction_law(curve, points, p)
            assert not defects, (config, p)
            for v in box:
                expected = _reduce_fraction(points_route(oracle, v), p)
                assert reduced.value(v) == expected, (config, p, v)
            # x_1 = x_2 mod p too: P_1 + P_2 comes from its cached triple
            same_x = r1.x == r2.x
            assert reduced.route_counts == Counter(seed=25), (config, p)
            constructed.append((config, p, same_x))
    assert len(constructed) * len(box) == 27342
    for p in (2, 3, 7, 11, 10007):
        assert any(q == p for _, q, _ in constructed), p
    assert [(config, p) for config, p, same_x in constructed if same_x] == [("E2-node", 7)]


def test_reduced_net_is_built_on_int_residues(monkeypatch):
    net = EllipticNet(E1, (P1, Q1))

    def refuse(*args, **kwargs):
        raise AssertionError("field arithmetic while building a ReducedNet")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__", "__neg__"):
        monkeypatch.setattr(Fraction, name, refuse)
    monkeypatch.setattr(PrimeFieldElement, "__init__", refuse)
    reduced = ReducedNet(net, 1009)
    assert "gf_curve" not in vars(reduced) and "gf_points" not in vars(reduced)
    monkeypatch.undo()
    # built on first access, as the reduction of the curve and points
    assert reduced.gf_points == tuple(reduce_mod_p(E1, pt, 1009) for pt in (P1, Q1))
    assert reduced.gf_curve.b_invariants() == reduce_curve(E1, 1009).b_invariants()
    assert reduced.gf_curve is reduced.gf_curve


@pytest.mark.parametrize("curve, points", [
    (E1, (P1, Q1)), (E1, (Q1, P1)), (E2, (P2, Q2)), (E2, (Q2, P2)),
    (CURVE_5077A, POINTS_5077A), (CURVE_234446A, POINTS_234446A),
], ids=["E1-pq", "E1-qp", "E2-pq", "E2-qp", "5077a", "234446a"])
def test_reduced_points_lie_on_the_reduced_curve(curve, points):
    # ReducedNet checks no point mod p: decompose checked each (A, B, D) on
    # the integral model in integers, and p does not divide D, so the
    # identity holds mod p after multiplying by D^-6
    net = EllipticNet(curve, points)
    built = 0
    for p in filter(is_prime, range(2, 400)):
        try:
            reduced = ReducedNet(net, p)
        except PreconditionError:
            continue
        assert all(reduced.gf_curve.contains(pt) for pt in reduced.gf_points), p
        built += 1
    assert built >= 75  # of the 78 primes below 400


@pytest.mark.parametrize("curve, points, p", [
    (E1, (P1, Q1), 61), (E1, (P1, Q1), 1000003),
    (E2, (Q2, P2), 7),  # bad reduction
    (E1, (P1, Q1), 29),  # Q reduces to a point of order 2
], ids=["E1-61", "E1-1000003", "E2-7", "E1-29"])
def test_rank_two_reduced_values_take_no_group_law_over_q(monkeypatch, curve, points, p):
    indices = box_indices(2, 3) + [(4, -5), (7, 3), (-9, 13), (10 ** 20 + 3, 7 * 10 ** 19)]
    oracle = EllipticNet(curve, points)
    expected = {v: _reduce_fraction(points_route(oracle, v), p)
                for v in indices if max(map(abs, v)) < 100}
    reduced = ReducedNet(EllipticNet(curve, points), p)
    field_add = WeierstrassCurve.add

    def refuse(*args, **kwargs):
        raise AssertionError("exact work after construction")

    def add_over_fp_only(self, *args):
        if self.gf_modulus is None:
            refuse()
        return field_add(self, *args)

    monkeypatch.setattr(ReducedNet, "exact_value", refuse)
    monkeypatch.setattr(EllipticNet, "value", refuse)
    monkeypatch.setattr(WeierstrassCurve, "add", add_over_fp_only)
    for v in indices:
        w = reduced.value(v)
        assert w == expected.get(v, w), v
    assert reduced.route_counts["exact"] == 0


# --- ranks 1 and 2 answer Psi_v(P) at every index ---------------------------------


def test_ranks_one_and_two_stay_on_psi_the_seeded_box_and_the_ladder(
        monkeypatch, default_recursion_limit):
    node = WeierstrassCurve(0, 1, 0, 0, 0, allow_singular=True)
    exact = [(E1, (P1, Q1)), (E1, (Q1, P1)), (E2, (P2, Q2)), (E2, (Q2, P2)),
             (node, (rational_point(0, 0), rational_point(3, 6))),
             *map(_degenerate_net, sorted(DEGENERATE_LADDER_CASES)),
             *((CURVE_TORSION, (point,)) for point in TORSION_POINTS.values())]
    # the node net has no ReducedNet: its base point is the singular point
    reduced = [ReducedNet(EllipticNet(curve, points), 101) for curve, points in exact
               if curve is not node] + [ReducedNet(EllipticNet(E2, NODE_POINTS), 7)]

    def refuse(*args, **kwargs):
        raise AssertionError("a value of rank 1 or 2 left psi, the seeded box and the ladder")

    monkeypatch.setattr(EllipticNet, "_run", refuse)
    monkeypatch.setattr(ReducedNet, "_exact_residue", refuse)
    monkeypatch.setattr(ReducedNet, "exact_value", refuse)
    for curve, points in exact:
        net = EllipticNet(curve, points)
        for v in box_indices(len(points), 8):
            net.value(v)
        assert net.route_counts.keys() <= {"seed", "psi", "ladder"}, points
    huge = (10 ** 20 + 3, 7 * 10 ** 19)
    for net in reduced:
        for v in box_indices(net.rank, 8) + [huge[:net.rank]]:
            net.value(v)
        assert net.route_counts.keys() <= {"seed", "psi", "ladder"}, net.net.points


RANK_TWO_CONFIGS = {**SEEDED_CONFIGS,
                    **{case: _degenerate_net(case) for case in DEGENERATE_LADDER_CASES}}


@pytest.mark.parametrize("config", sorted(RANK_TWO_CONFIGS))
def test_rank_two_values_match_both_oracles(default_recursion_limit, config):
    # exact values against the points route of a fresh net and the
    # recurrence route wherever they answer, on the radius-8 box; reduced
    # values against the points route reduced, at every prime below 400
    # where the reduced net is built
    curve, points = RANK_TWO_CONFIGS[config]
    net, by_points = EllipticNet(curve, points), EllipticNet(curve, points)
    rec = EllipticNet(curve, points, strategy="recurrence")
    answered = {}
    for v in box_indices(2, 8):
        w = net.value(v)
        expected = _outcome(lambda u: points_route(by_points, u), v)
        assert expected in (w, DependentPointsError), v
        assert _outcome(rec.value, v) in (w, DependentPointsError), v
        if expected is not DependentPointsError:
            answered[v] = w
    built = 0
    for p in _primes(400):
        try:
            reduced = ReducedNet(EllipticNet(curve, points), p)
        except PreconditionError:
            continue
        built += 1
        for v, w in answered.items():
            assert reduced.value(v) == _reduce_fraction(w, p), (p, v)
    assert built > 60 and len(answered) > 50


def _reduce_base_points_by_fraction_law(curve, points, p):
    """reduce_base_points from curve.add, curve.sub and reduce_mod_p alone."""
    reduced = []
    for i, pt in enumerate(points):
        reduced.append(reduce_mod_p(curve, pt, p))
        if reduced[i].is_infinity:
            raise PreconditionError(f"P_{i} reduces to infinity mod {p}")
    defects = [f"P_{i} {sign} P_{j} reduces to infinity mod {p}"
               for i, j in itertools.combinations(range(len(points)), 2)
               for sign, combo in (("+", curve.add(points[i], points[j])),
                                   ("-", curve.add(points[i], curve.neg(points[j]))))
               if reduce_mod_p(curve, combo, p).is_infinity]
    return tuple(reduced), defects


def _outcome_with_message(fn, *args):
    try:
        return fn(*args)
    except EllnetError as exc:
        return type(exc), str(exc)


def test_reduce_base_points_matches_fraction_law():
    configs = [(E1, (P1, Q1)), (E1, (Q1, P1)), (E2, (P2, Q2)), (E2, (Q2, P2)),
               (CURVE_5077A, (rational_point(0, 2), rational_point(1, 0))),
               (CURVE_5077A, POINTS_5077A)]
    # the Ayad fixtures of test_theorems: net1 = E1 (Q, P), net2 = E2 (Q, P)
    cases = [(curve, points, p) for curve, points in configs for p in _primes(100)]
    cases += [(E1, (Q1, P1), p) for p in (3, 5, 11, 13)]
    cases += [(E2, (Q2, P2), p) for p in (5, 7, 11)]
    defects = 0
    for curve, points, p in cases:
        got = _outcome_with_message(reduce_base_points, EllipticNet(curve, points), p)
        if isinstance(got[1], list):  # the residues as points of the reduced curve
            got = tuple(gf_point(x, y, p) for x, y in got[0]), got[1]
        assert got == _outcome_with_message(_reduce_base_points_by_fraction_law,
                                            curve, points, p), (points, p)
        defects += isinstance(got[1], list) and len(got[1])
    assert defects > 0


def test_constructor_checks_each_base_point_once(monkeypatch):
    calls = []
    on_curve = WeierstrassCurve.require_on_curve

    def counted(self, point):
        calls.append(point)
        return on_curve(self, point)

    monkeypatch.setattr(WeierstrassCurve, "require_on_curve", counted)
    rational = WeierstrassCurve(0, 0, 0, 0, Fraction(1, 4))
    finite = reduce_curve(E1, 7)
    for curve, points in ((E1, (P1, Q1)), (CURVE_5077A, POINTS_5077A),
                          (rational, (rational_point(0, Fraction(1, 2)),)),
                          (finite, (reduce_mod_p(E1, P1, 7), reduce_mod_p(E1, Q1, 7)))):
        calls.clear()
        EllipticNet(curve, points)
        assert calls == list(points)
    # one fault each: the error that names it
    monkeypatch.undo()
    off_curve = rational_point(3, 5)
    assert _outcome(lambda pts: EllipticNet(E1, pts), (P1, off_curve)) is PointNotOnCurveError
    assert _outcome(lambda pts: EllipticNet(E1, pts), (off_curve,)) is PointNotOnCurveError
    assert _outcome(lambda pts: EllipticNet(E1, pts), (P1, INFINITY)) is PreconditionError
    assert _outcome(lambda pts: EllipticNet(E1, pts), (P1, E1.neg(P1))) is DegeneratePairError
    assert _outcome(lambda pts: EllipticNet(rational, pts),
                    (rational_point(0, 1),)) is PointNotOnCurveError


# --- the rescaled net Psi-hat(v) = F_v W(v) over Q -------------------------------

E1_2P = E1.mul(2, P1)  # (345/64, ...): D = 8
RESCALED_CONFIGS = {**RANK_TWO_CONFIGS, "E1-(2P,Q)": (E1, (E1_2P, Q1))}


@pytest.mark.parametrize("config", sorted(RESCALED_CONFIGS))
def test_rescaled_net_is_f_times_the_points_route(default_recursion_limit, config):
    # F from the integer group law (QuadraticFormData.from_curve_points),
    # the net's own F from the chord; Psi-hat against F_v times the points
    # route of a fresh net wherever it answers, on the radius-8 box, and
    # every memoized Psi-hat is an int
    curve, points = RESCALED_CONFIGS[config]
    net, by_points = EllipticNet(curve, points), EllipticNet(curve, points)
    form = QuadraticFormData.from_curve_points(curve, points)
    answered = 0
    for v in box_indices(2, 8):
        expected = _outcome(lambda u: form.value(u) * points_route(by_points, u), v)
        got = net.scaled_value(v)
        assert expected in (got, DependentPointsError), v
        answered += expected == got
    assert net._form == form
    assert answered > 50 and len(net._scaled) > 100
    assert all(type(w) is int for w in net._scaled.values()), config


@pytest.mark.parametrize("order", ["(2P,Q)", "(Q,2P)"])
def test_rescaled_denominators_where_d_is_not_one(default_recursion_limit, no_group_law, order):
    # x(v . P) = (A_i Psi-hat(v)^2 - Psi-hat(v + e_i) Psi-hat(v - e_i)) /
    # (D_i^2 Psi-hat(v)^2) with D_i = 8 on the axis of 2P; |Psi-hat| = D
    points = (E1_2P, Q1) if order == "(2P,Q)" else (Q1, E1_2P)
    net = EllipticNet(E1, points)
    checked = 0
    for v in box_indices(2, 6):
        if any(v):
            d = _denominator_by_fraction_law(E1, points, v)
            assert net.denominator(v) == d == abs(net.scaled_value(v)), v
            checked += 1
    assert checked == 168


def test_rescaled_value_reduces_to_the_reduced_net_at_a_large_index(default_recursion_limit):
    # W(640, 639) = Psi-hat / F_v over Q against ReducedNet, whose residues
    # are never divided or rescaled
    v = (640, 639)
    w = EllipticNet(E1, (P1, Q1)).value(v)
    assert w.denominator == 2 ** (640 * 639)
    for p in (5, 1009, 1000003):
        assert _reduce_fraction(w, p) == ReducedNet(EllipticNet(E1, (P1, Q1)), p).value(v), p


def test_ladder_divides_exactly_or_keeps_the_fraction(default_recursion_limit):
    assert _quotient(12, 4) == 3 and type(_quotient(12, 4)) is int
    assert _quotient(-7, 2) == Fraction(-7, 2)
    assert _quotient(Fraction(9, 2), 3) == Fraction(3, 2)
    assert _quotient(Fraction(9, 1), 3) == 3
    # G_v W(v) is an elliptic net for any quadratic G; with G = 3^(v1 v2)
    # in place of F = 2^(v1 v2) on E1 (P,Q) it is not integral, so the seeded
    # box and the ladder keep Fractions where a divmod leaves a remainder,
    # value divides G out again, and where G W(v) is a Fraction denominator
    # reads D off the Fraction x(v . P) (G(e_i) = 1, so x(v . P) =
    # x(P_i) - G(v+e_i) G(v-e_i) / G(v)^2 holds for G W as for F W)
    net = EllipticNet(E1, (P1, Q1))
    net.__dict__["_form"] = QuadraticFormData(((Fraction(1), Fraction(3)),
                                               (Fraction(3), Fraction(1))))
    fresh = EllipticNet(E1, (P1, Q1))
    read_off_a_fraction = 0
    for v in [*box_indices(2, 6), (45, -31), (200, 199)]:
        assert net.value(v) == fresh.value(v), v
        if type(net.scaled_value(v)) is Fraction:
            assert net.denominator(v) == fresh.denominator(v), v
            read_off_a_fraction += 1
    kinds = Counter(type(w) for w in net._scaled.values())
    assert kinds[Fraction] > 50 and kinds[int] > 0 and read_off_a_fraction > 50
    # a net whose own F leaves a remainder: at rank three the box value
    # W(1, 1, 1) = y[x_1, x_2, x_3] of 234446a at x = 0, -4, 4 is -1/2, with
    # F = 1 (every P_i and P_i + P_j integral)
    points = tuple(rational_point(x, y) for x, y in ((0, 17), (-4, 25), (4, -7)))
    net = EllipticNet(CURVE_234446A, points)
    assert net._form.value((1, 1, 1)) == 1
    assert net.scaled_value((1, 1, 1)) == Fraction(-1, 2)
    # and the ladder above it carries the Fraction to the points route's value
    assert net.value((5, 4, -4)) == points_route(EllipticNet(CURVE_234446A, points), (5, 4, -4))
    assert net.route_counts["ladder"] > 0


def _random_integral_bases(rng):
    """A random integral model through two random integer points P and Q
    (a4 and a6 solved for, x_Q = x_P +- 1), and base tuples of multiples
    of them: D > 1 (2P) and dependent points (P, 2P)."""
    a1, a2, a3 = (rng.randint(-2, 2) for _ in range(3))
    x1, y1, y2 = rng.randint(-6, 6), rng.randint(-9, 9), rng.randint(-9, 9)
    x2 = x1 + rng.choice((1, -1))
    r1, r2 = (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x for x, y in ((x1, y1), (x2, y2)))
    a4 = (r1 - r2) // (x1 - x2)
    curve = WeierstrassCurve(a1, a2, a3, a4, r1 - a4 * x1, allow_singular=True)
    P, Q = rational_point(x1, y1), rational_point(x2, y2)
    return curve, [(P,), (curve.mul(2, P), Q), (P, curve.mul(2, P))]


# the node y^2 = x^3 + x^2 with the node (0, 0) as a base point, the cusp
# y^2 = x^3, and the torsion points of orders 6, 2 and 3 on y^2 = x^3 + 1
SINGULAR_AND_TORSION_BASES = [
    ((0, 1, 0, 0, 0), ((3, 6), (0, 0))), ((0, 1, 0, 0, 0), ((3, 6), (8, 24))),
    ((0, 0, 0, 0, 0), ((4, 8), (1, 1))),
    ((0, 0, 0, 0, 1), ((2, 3), (-1, 0))), ((0, 0, 0, 0, 1), ((0, 1), (2, 3))),
    ((0, 0, 0, 0, 1), ((-1, 0),)),
]


def test_rescaled_net_is_an_integer_net_on_random_integral_models(default_recursion_limit):
    # at ranks 1 and 2 Psi-hat = F W is an int at every index |v| <= 5 of
    # random integral nets, so the ladder's division leaves no remainder,
    # and the denominators read off it agree with the group-law chain
    rng = random.Random(23)
    cases = [(WeierstrassCurve(*coeffs, allow_singular=True),
              [tuple(rational_point(x, y) for x, y in coords)])
             for coeffs, coords in SINGULAR_AND_TORSION_BASES]
    cases += [_random_integral_bases(rng) for _ in range(24)]
    seen = Counter()
    for curve, bases in cases:
        for points in bases:
            try:
                net, chain = EllipticNet(curve, points), EllipticNet(curve, points)
            except (PreconditionError, DegeneratePairError):  # 2P = O, x(P) = x(Q)
                seen["refused"] += 1
                continue
            seen["singular" if curve.discriminant == 0 else f"rank {net.rank}"] += 1
            for v in box_indices(net.rank, 5):
                assert type(net.scaled_value(v)) is int, (points, v)
                if any(v):
                    assert _outcome(net.denominator, v) == _outcome(chain._chain_denominator, v), v
    assert seen == {"singular": 3, "rank 1": 25, "rank 2": 45, "refused": 5}


def test_quadratic_form_reads_integral_model_triples(monkeypatch):
    # no Fraction group law: D_{P_i + P_j} comes from IntegralModel.add
    def refuse(self, P, Q):
        raise AssertionError("WeierstrassCurve.add ran")

    expected = {(E1, (P1, Q1)): ((1, 2), (2, 1)), (E2, (P2, Q2)): ((1, 1), (1, 1)),
                (E1, (E1_2P, Q1)): ((8, Fraction(3, 8)), (Fraction(3, 8), 1))}
    monkeypatch.setattr(WeierstrassCurve, "add", refuse)
    for (curve, points), matrix in expected.items():
        assert QuadraticFormData.from_curve_points(curve, points).matrix == matrix
        assert EllipticNet(curve, points)._form.matrix == matrix
    assert _outcome(lambda pts: QuadraticFormData.from_curve_points(E1, pts),
                    (P1, INFINITY)) is PreconditionError
