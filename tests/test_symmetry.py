import itertools
import math
import random
from fractions import Fraction

import pytest

from ellnet import (
    INFINITY,
    CurvePoint,
    PrimeFieldElement,
    symmetry,
    EllipticNet,
    IntegralModel,
    ReducedNet,
    WeierstrassCurve,
    build_symmetry_data,
    chi,
    delta,
    eval_by_symmetry,
    gf_point,
    is_prime,
    periodicity_check,
    rank_of_apparition,
    rational_point,
    reduce_curve,
    xi,
    zero_lattice,
)
from ellnet.errors import (DependentPointsError, EllnetError, NotSubgroupError, PreconditionError,
                           SingularCurveError, SmallQuotientError)
from ellnet.lattice import lattice_from_generators
from ellnet.net import box_indices
from conftest import E1_COEFFS, E2_COEFFS, P1, P2, Q1, Q2, assert_lattice_is_kernel

# Published zero-lattice bases for E1 with generators (P, Q), P listed first.
PAPER_LATTICES = {
    7: ((1, 5), (0, 13)),
    11: ((1, 7), (0, 11)),
    19: ((1, 6), (0, 14)),
    61: ((2, 8), (0, 38)),
    89: ((9, 3), (0, 10)),
}


def test_rank_of_apparition_mod_7(reduced1_pq, e1):
    net = reduced1_pq[7]
    for axis in (0, 1):
        assert rank_of_apparition(net, axis) == 13
    # oracle: the reduced group has 13 elements
    assert len(list(reduce_curve(e1, 7).enumerate_points())) == 13


def test_rank_of_apparition_non_unique(e2):
    # the singular-reduction point has psi_3 = psi_4 = 0 mod 7
    net = ReducedNet(EllipticNet(e2, (P2,)), 7)
    message = r"^axis 0 has no unique rank of apparition \(non_unique\)$"
    with pytest.raises(NotSubgroupError, match=message):
        rank_of_apparition(net, 0)


class FakeSequenceNet:
    rank = 1
    p = 5

    def __init__(self, values):
        self.values = values

    def value(self, v):
        n = abs(v[0])
        return self.values[n] if n < len(self.values) else 1


def test_rank_of_apparition_synthetic_w3_w4():
    net = FakeSequenceNet([0, 1, 1, 0, 0])
    with pytest.raises(NotSubgroupError, match="no unique rank of apparition"):
        rank_of_apparition(net, 0)


def test_rank_of_apparition_none_within_bound():
    # no ReducedNet reaches this (rho <= #E_ns(F_p) lies within the scan);
    # a sequence with no zero up to the bound is not a subgroup rho Z either
    with pytest.raises(NotSubgroupError, match=r"zeros \[\]\.\.\. up to 13 are not the multiples"):
        rank_of_apparition(FakeSequenceNet([0, 1, 1, 2, 3]), 0)


def test_rank_of_apparition_refuses_zeros_off_a_subgroup():
    # zeros at 2 and 3 but not 4: Ward's test passes, the pattern does not
    with pytest.raises(NotSubgroupError, match=r"zeros \[2, 3\]\.\.\. up to 13"):
        rank_of_apparition(FakeSequenceNet([0, 1, 0, 0, 1]), 0)


def test_zero_lattice_matches_paper(reduced1_pq):
    for p in (7, 11, 89):
        lat = zero_lattice(reduced1_pq[p])
        assert lat.basis == PAPER_LATTICES[p]


def test_zero_lattice_agrees_with_net_zeros(reduced1_pq):
    # cross-check of the group-kernel construction against actual net zeros
    net = reduced1_pq[7]
    lat = zero_lattice(net)
    for v in box_indices(2, 15):
        assert (net.value(v) == 0) == lat.contains(v), v


def _box_scan_lattice(net):
    """Oracle: every kernel vector of v -> v . P in the box prod [0, rho_i)."""
    rhos = [rank_of_apparition(net, axis) for axis in range(net.rank)]
    curve = net.gf_curve
    multiples = [[curve.mul(n, point) for n in range(rho)]
                 for point, rho in zip(net.gf_points, rhos)]
    generators = [tuple(rhos[i] if j == i else 0 for j in range(net.rank))
                  for i in range(net.rank)]
    for v in itertools.product(*(range(r) for r in rhos)):
        total = INFINITY
        for n, row in zip(v, multiples):
            total = curve.add(total, row[n])
        if any(v) and total.is_infinity:
            generators.append(v)
    return lattice_from_generators(net.rank, generators)


CURVE_5077A = WeierstrassCurve(0, 0, 1, -7, 6)
POINTS_5077A = (rational_point(1, 0), rational_point(2, 0), rational_point(0, 2))
SMALL_PRIMES = [p for p in range(5, 90) if is_prime(p)]
LARGE_PRIMES = [1009, 10007]


def _walk_nets():
    """E1 and E2 in both orders, each of their points at rank 1, E1 at
    rank 3 with P + Q, and the three points of 5077a."""
    e1 = WeierstrassCurve(*E1_COEFFS)
    e2 = WeierstrassCurve(*E2_COEFFS)
    return {
        "E1-pq": EllipticNet(e1, (P1, Q1)),
        "E1-qp": EllipticNet(e1, (Q1, P1)),
        "E2-qp": EllipticNet(e2, (Q2, P2)),
        "E2-pq": EllipticNet(e2, (P2, Q2)),
        "E1-p": EllipticNet(e1, (P1,)),
        "E1-q": EllipticNet(e1, (Q1,)),
        "E2-p": EllipticNet(e2, (P2,)),
        "E2-q": EllipticNet(e2, (Q2,)),
        "E1-pqs": EllipticNet(e1, (P1, Q1, e1.add(P1, Q1))),
        "5077a": EllipticNet(CURVE_5077A, POINTS_5077A),
    }


WALK_NETS = _walk_nets()


def _walk_cases(primes):
    for name, net in WALK_NETS.items():
        for p in primes:
            yield pytest.param(net, p, id=f"{name}-{p}")


# the box scan takes rho_1 ... rho_r additions, so rank 3 stops at p = 13
BOX_SCAN_CASES = [case for case in _walk_cases(SMALL_PRIMES)
                  if case.values[0].rank < 3 or case.values[1] <= 13]


@pytest.mark.parametrize("net, p", BOX_SCAN_CASES)
def test_zero_lattice_walk_matches_box_scan(net, p):
    reduced = ReducedNet(net, p)
    try:
        expected = _box_scan_lattice(reduced)
    except EllnetError as exc:
        with pytest.raises(type(exc)):
            zero_lattice(reduced)
        return
    lattice = zero_lattice(reduced)
    assert lattice.basis == expected.basis
    assert_lattice_is_kernel(reduced.gf_curve, reduced.gf_points, lattice)


@pytest.mark.parametrize("net, p", _walk_cases(LARGE_PRIMES))
def test_zero_lattice_walk_is_the_kernel_at_larger_primes(net, p):
    # here the box scan is cheap at rank 1 only
    reduced = ReducedNet(net, p)
    lattice = zero_lattice(reduced)
    assert_lattice_is_kernel(reduced.gf_curve, reduced.gf_points, lattice)
    if net.rank == 1:
        assert lattice.basis == _box_scan_lattice(reduced).basis


@pytest.mark.parametrize(
    "net, p", [case for case in _walk_cases(SMALL_PRIMES + LARGE_PRIMES) if "pqs" not in case.id])
def test_tables_match_the_definitions(net, p):
    # the tables come from chi(lam_i, e_j) by bilinearity; xi and chi
    # compute each entry from its definition, through delta
    reduced = ReducedNet(net, p)
    try:
        lattice = zero_lattice(reduced)
    except NotSubgroupError:
        with pytest.raises(NotSubgroupError):
            build_symmetry_data(reduced)
        return
    if lattice.index() < 4:
        with pytest.raises(SmallQuotientError):
            build_symmetry_data(reduced)
        return
    sd = build_symmetry_data(reduced)
    basis, rank = lattice.basis, lattice.rank
    for i, lam in enumerate(basis):
        assert sd.xi_basis[i] == xi(reduced, lattice, lam), i
        for j in range(rank):
            assert sd.chi_basis[i][j] == chi(reduced, lattice, lam, basis[j]), (i, j)
            e_j = tuple(int(k == j) for k in range(rank))
            assert sd.chi_axis[i][j] == chi(reduced, lattice, lam, e_j), (i, j)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_tables_of_dependent_points_agree_with_the_net(p):
    # P + Q as a third point: the definitions of xi and chi read the net at
    # lam_i + lam_j + u, past the exact fallback's bound, so the tables are
    # checked through the symmetry formula wherever the net answers
    try:
        reduced = ReducedNet(WALK_NETS["E1-pqs"], p)
        sd = build_symmetry_data(reduced)
    except (PreconditionError, DependentPointsError):
        return
    assert sd.lattice.contains((1, 1, -1))
    checked = 0
    for v in box_indices(3, 4):
        try:
            w = reduced.value(v)
        except DependentPointsError:  # v . P is the identity on the way
            continue
        assert eval_by_symmetry(sd, v) == w, v
        checked += 1
    assert checked > 500


def _line(coeffs, p, T, U):
    """(l, v, T + U) on int residues: l the line through T and U (the
    tangent where T = U) and v the vertical through T + U, as functions of
    (x, y); where U = -T, l is the vertical through T, v = 1 and T + U = O
    (None)."""
    a1, a2, a3, a4, _ = coeffs
    (x1, y1), (x2, y2) = T, U
    if x1 == x2 and (y1 + y2 + a1 * x2 + a3) % p == 0:
        return (lambda x, y: x - x1), (lambda x, y: 1), None
    if x1 == x2:
        s = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(2 * y1 + a1 * x1 + a3, -1, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (s * s + a1 * s - a2 - x1 - x2) % p
    y3 = (-(s * (x3 - x1) + y1) - a1 * x3 - a3) % p
    return (lambda x, y: y - y1 - s * (x - x1)), (lambda x, y: x - x3), (x3, y3)


def _miller(coeffs, p, P, n, points):
    """f_{n,P}, with divisor n (P) - n (O) where n . P = O, at each of
    ``points`` by Miller's loop (f_{2i} = f_i^2 l / v, f_{i+1} = f_i l / v);
    None where a line or vertical of the loop vanishes at one of them."""
    T, f = P, [1] * len(points)
    for bit in bin(n)[3:]:
        for U, square in [(T, True)] + [(P, False)] * (bit == "1"):
            line, vertical, T = _line(coeffs, p, T, U)
            values = [(line(x, y) % p, vertical(x, y) % p) for x, y in points]
            if not all(l and v for l, v in values):
                return None
            f = [(fi * fi if square else fi) * l * pow(v, -1, p) % p
                 for fi, (l, v) in zip(f, values)]
    assert T is None, "n . P is not O"
    return f


def _tate_pairing(curve, coeffs, P, Q, rho, rng):
    """tau_rho(P, Q) = f_{rho,P}(Q + S) / f_{rho,P}(S) in F_p^* / (F_p^*)^rho,
    as an int, at the first auxiliary point S (x in a seeded random order)
    where Miller's loop meets no zero; None when no affine S of E(F_p)
    works.  Reads no net value."""
    p = curve.gf_modulus
    a1, a2, a3, a4, a6 = coeffs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    roots, half = {y * y % p: y for y in range(p)}, pow(2, -1, p)
    xs = list(range(p))
    rng.shuffle(xs)
    for x in xs:  # (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
        w = roots.get((4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % p)
        if w is None:
            continue
        for root in {w, -w % p}:
            S = gf_point(x, (root - a1 * x - a3) * half % p, p)
            if curve.is_singular_point(S):
                continue
            QS = curve.add(gf_point(*Q, p), S)
            if QS.is_infinity:
                continue
            f = _miller(coeffs, p, P, rho, [(QS.x.residue, QS.y.residue), (x, S.y.residue)])
            if f is not None:
                return f[0] * pow(f[1], -1, p) % p
    return None


TATE_NETS = {
    "E1-pq": (E1_COEFFS, (P1, Q1)),
    "E1-qp": (E1_COEFFS, (Q1, P1)),
    "E2-qp": (E2_COEFFS, (Q2, P2)),
    "E2-pq": (E2_COEFFS, (P2, Q2)),
}
# the primes where both sides are not 1, by net and axis; the second axis
# of a net is the first of the net with its points swapped
TATE_NONTRIVIAL = {("E1-pq", 0): 22, ("E1-qp", 0): 21, ("E2-qp", 0): 41, ("E2-pq", 0): 39,
                   ("E1-pq", 1): 21, ("E1-qp", 1): 22, ("E2-qp", 1): 39, ("E2-pq", 1): 41}


@pytest.mark.parametrize("name, axis", [(name, axis) for axis in (0, 1) for name in sorted(TATE_NETS)],
                         ids=[name + ("-axis-2" if axis else "")
                              for axis in (0, 1) for name in sorted(TATE_NETS)])
def test_chi_is_the_tate_pairing(name, axis):
    # Stange ("The Tate pairing via elliptic nets", 2007): with rho =
    # ord(P_1) mod p, chi(rho e_1, e_2) = W(rho + 1, 1) / W(rho + 1, 0) is
    # the reduced Tate pairing tau_rho(P_1, P_2) in F_p^* / (F_p^*)^rho, so
    # both agree in mu_g, g = gcd(rho, p - 1), after the power (p - 1) / g.
    # The table side decomposes rho e_1 on the lattice basis and multiplies
    # the chi(lambda_k, e_2) entries by bilinearity; the pairing side is
    # Miller's loop, which reads no net value.  On the second axis, since
    # Psi_(a,b)(P_1, P_2) = Psi_(b,a)(P_2, P_1), rho = ord(P_2), rho e_2
    # takes the e_1 column chi(lambda_k, e_1), and the pairing is
    # tau_rho(P_2, P_1)
    coeffs, points = TATE_NETS[name]
    net = EllipticNet(WeierstrassCurve(*coeffs), points)
    rng = random.Random(26)
    nontrivial = trivial = no_auxiliary = 0
    for p in [q for q in range(5, 398) if is_prime(q)] + LARGE_PRIMES:
        try:
            sd = build_symmetry_data(ReducedNet(net, p))
        except EllnetError:
            continue
        curve, P, Q = sd.net.gf_curve, sd.net.gf_points[axis], sd.net.gf_points[1 - axis]
        rho, T = 1, P
        while not T.is_infinity:
            rho, T = rho + 1, curve.add(T, P)
        g = math.gcd(rho, p - 1)
        if g == 1:  # both sides are 1
            trivial += 1
            continue
        on_basis, rep = sd.lattice.decompose(tuple(rho * (k == axis) for k in range(2)))
        assert rep == (0, 0), p
        table = math.prod(pow(row[1 - axis].residue, c, p)
                          for row, c in zip(sd.chi_axis, on_basis))
        tau = _tate_pairing(curve, tuple(c % p for c in coeffs), (P.x.residue, P.y.residue),
                            (Q.x.residue, Q.y.residue), rho, rng)
        if tau is None:  # E(F_p) = <P>: every S meets a zero of the loop
            no_auxiliary += 1
            continue
        e = (p - 1) // g
        assert pow(table, e, p) == pow(tau, e, p), p
        nontrivial += pow(tau, e, p) != 1
    assert nontrivial == TATE_NONTRIVIAL[name, axis], (nontrivial, trivial, no_auxiliary)


TATE_RANK_ONE = {"E1-P": (E1_COEFFS, P1), "E1-Q": (E1_COEFFS, Q1),
                 "E2-P": (E2_COEFFS, P2), "E2-Q": (E2_COEFFS, Q2)}
# the primes where both sides are not 1
TATE_RANK_ONE_NONTRIVIAL = {"E1-P": 29, "E1-Q": 25, "E2-P": 42, "E2-Q": 43}


@pytest.mark.parametrize("name", sorted(TATE_RANK_ONE))
def test_rank_one_chi_is_the_tate_pairing(name):
    # Stange ("The Tate pairing via elliptic nets", 2007) at rank 1: with
    # rho = ord(P) mod p, chi(rho e_1, e_1) = psi_{rho+2} / (psi_{rho+1}
    # psi_2) is the reduced Tate pairing tau_rho(P, P), so both agree in
    # mu_g, g = gcd(rho, p - 1), after the power (p - 1) / g.  The basis of
    # the zero lattice is rho e_1 itself, so the table side is the entry
    # chi_axis[0][0]; the pairing side is Miller's loop
    coeffs, point = TATE_RANK_ONE[name]
    net = EllipticNet(WeierstrassCurve(*coeffs), (point,))
    rng = random.Random(28)
    nontrivial = trivial = no_auxiliary = 0
    for p in [q for q in range(5, 398) if is_prime(q)] + LARGE_PRIMES:
        try:
            sd = build_symmetry_data(ReducedNet(net, p))
        except EllnetError:
            continue
        curve, P = sd.net.gf_curve, sd.net.gf_points[0]
        rho, T = 1, P
        while not T.is_infinity:
            rho, T = rho + 1, curve.add(T, P)
        assert sd.lattice.basis == ((rho,),), p
        g = math.gcd(rho, p - 1)
        if g == 1:  # both sides are 1
            trivial += 1
            continue
        P = (P.x.residue, P.y.residue)
        tau = _tate_pairing(curve, tuple(c % p for c in coeffs), P, P, rho, rng)
        if tau is None:  # E(F_p) = <P>: every S meets a zero of the loop
            no_auxiliary += 1
            continue
        e = (p - 1) // g
        assert pow(sd.chi_axis[0][0].residue, e, p) == pow(tau, e, p), p
        nontrivial += pow(tau, e, p) != 1
    assert nontrivial == TATE_RANK_ONE_NONTRIVIAL[name], (nontrivial, trivial, no_auxiliary)


def test_dependent_triple_verify_keeps_its_output(capsys):
    # the identity check calls xi at lam_i + lam_j, whose auxiliary values
    # lie past the exact fallback's bound, so it refuses as a fresh net does
    from ellnet.cli import main

    code = main(["verify", "symmetry-props", "--curve", "0,0,0,0,-11",
                 "--points", "(3,4);(15,58);(9/4,-5/8)", "--prime", "211"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (
        2, "", "error: a box value on the ladder raises (dependent points), and the exact "
               "fallback takes indices of max-norm at most 28\n")


def test_rank_three_answers_do_not_depend_on_the_memo():
    # the exact fallback's value at a ladder key is not memoized, so a
    # later ladder through that key meets the raising box value as a fresh
    # net's does: xi at (1, 1, 27) raises on a fresh net and after a build
    curve, points = WeierstrassCurve(*E1_COEFFS), (P1, Q1, rational_point(Fraction(9, 4), Fraction(-5, 8)))
    fresh = ReducedNet(EllipticNet(curve, points), 211)
    built = ReducedNet(EllipticNet(curve, points), 211)
    lattice = build_symmetry_data(built).lattice
    assert lattice == zero_lattice(fresh)
    for net in (fresh, built):
        with pytest.raises(DependentPointsError, match="max-norm at most 28"):
            xi(net, lattice, (1, 1, 27))


# the walk nets of independent points, 5077a's first pair and a rank-3
# triple on Cremona 234446a
UNIT_NETS = {name: net for name, net in WALK_NETS.items() if name != "E1-pqs"}
UNIT_NETS["5077a-pair"] = EllipticNet(CURVE_5077A, POINTS_5077A[:2])
UNIT_NETS["234446a"] = EllipticNet(WeierstrassCurve(1, -1, 0, -79, 289),
                                   (rational_point(0, 17), rational_point(-4, 25),
                                    rational_point(4, -7)))


def _unit_cases(primes):
    for name in UNIT_NETS:
        for p in primes:
            yield pytest.param(name, p, id=f"{name}-{p}")


def _symmetry_data_or_none(name, p):
    """The symmetry data of a unit net, or None where the net or the build
    refuses the prime."""
    try:
        return build_symmetry_data(ReducedNet(UNIT_NETS[name], p))
    except (PreconditionError, NotSubgroupError, SmallQuotientError):
        return None


def _shifted(*vs):
    return tuple(map(sum, zip(*vs)))


@pytest.mark.parametrize("name, p", _unit_cases(SMALL_PRIMES + LARGE_PRIMES))
def test_tables_satisfy_the_unit_identities(name, p):
    # the build reads each chi(lam, e_j) at one pair (i, j); the identities
    # hold at every pair, i = j included
    sd = _symmetry_data_or_none(name, p)
    if sd is None:
        return
    net, rank = sd.net, sd.rank
    e = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    for i, j in itertools.combinations(range(rank), 2):
        assert net.value(e[i]) == net.value(_shifted(e[i], e[j])) == 1
    for lam, x, row in zip(sd.lattice.basis, sd.xi_basis, sd.chi_axis):
        for i in range(rank):
            assert net.value(_shifted(lam, e[i])) == x * row[i], (lam, i)
            for j in range(rank):
                w_ij = net.value(_shifted(e[i], e[j]))
                assert net.value(_shifted(lam, e[i], e[j])) == x * row[i] * row[j] * w_ij, (lam, i, j)


def _definition_called(*args, **kwargs):
    raise AssertionError("the symmetry build called delta, chi or xi")


@pytest.mark.parametrize("name, p", [("E1-pq", 7), ("E1-qp", 89), ("E1-p", 11), ("E2-qp", 13),
                                     ("E2-q", 89), ("5077a-pair", 101), ("5077a", 211),
                                     ("234446a", 1009)])
def test_build_calls_no_definition(monkeypatch, name, p):
    reduced = ReducedNet(UNIT_NETS[name], p)
    for definition in ("delta", "chi", "xi"):
        monkeypatch.setattr(symmetry, definition, _definition_called)
    sd = build_symmetry_data(reduced)
    sd.to_dict()
    eval_by_symmetry(sd, (10 ** 29 + 7,) * sd.rank)
    monkeypatch.undo()
    for i, lam in enumerate(sd.lattice.basis):
        assert sd.xi_basis[i] == xi(reduced, sd.lattice, lam), i


@pytest.mark.parametrize("name, p", [("E1-pq", 1009), ("E1-qp", 7), ("E2-qp", 13), ("E1-q", 89),
                                     ("5077a", 101), ("234446a", 211)])
def test_residue_is_the_value_residue(name, p):
    rank = UNIT_NETS[name].rank
    rng = random.Random(p)
    small = [tuple(rng.randint(-9, 9) for _ in range(rank)) for _ in range(30)]
    huge = [tuple(rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30) for _ in range(rank))
            for _ in range(5)]
    values = ReducedNet(UNIT_NETS[name], p)
    residues = ReducedNet(UNIT_NETS[name], p)
    for v in small + huge:
        w = residues.residue(v)
        assert type(w) is int and 0 <= w < p, v
        assert w == values.value(v).residue == -residues.residue([-c for c in v]) % p, v


def _eval_in_field_elements(sd, v):
    """The closed formula in ``PrimeFieldElement`` arithmetic, exponents
    not reduced."""
    coeffs, rep = sd.lattice.decompose(v)
    result = sd.net.value(rep)
    if result == 0:
        return result
    for i, ni in enumerate(coeffs):
        result *= sd.xi_basis[i] ** (ni * ni)
        for j in range(i):
            result *= sd.chi_basis[i][j] ** (ni * coeffs[j])
        for j, mj in enumerate(rep):
            result *= sd.chi_axis[i][j] ** (ni * mj)
    return result


@pytest.mark.parametrize("name, p", _unit_cases([5, 7]))
def test_int_eval_matches_the_field_element_form(name, p):
    sd = _symmetry_data_or_none(name, p)
    if sd is None:
        return
    rank = sd.rank
    rng = random.Random(p)
    huge = [tuple(rng.randint(-10 ** 30, 10 ** 30) for _ in range(rank)) for _ in range(20)]
    negative_cross = 0
    for v in box_indices(rank, 12 if rank < 3 else 5) + huge:
        coeffs, rep = sd.lattice.decompose(v)
        negative_cross += any(ni * m < 0 for ni in coeffs for m in coeffs + rep)
        assert eval_by_symmetry(sd, v) == _eval_in_field_elements(sd, v), v
    assert negative_cross > 10


def _refuse(*args, **kwargs):
    raise AssertionError("the walk built a CurvePoint or a PrimeFieldElement")


@pytest.mark.parametrize("name, p",
                         [("E1-pq", 1009), ("E2-qp", 1009), ("5077a", 101), ("E1-q", 89)])
def test_walk_runs_on_int_residues(monkeypatch, name, p):
    reduced = ReducedNet(WALK_NETS[name], p)
    monkeypatch.setattr(WeierstrassCurve, "add", _refuse)
    monkeypatch.setattr(CurvePoint, "__init__", _refuse)
    monkeypatch.setattr(PrimeFieldElement, "__init__", _refuse)
    lattice = zero_lattice(reduced)
    assert "gf_curve" not in vars(reduced) and "gf_points" not in vars(reduced)
    monkeypatch.undo()
    assert_lattice_is_kernel(reduced.gf_curve, reduced.gf_points, lattice)


@pytest.mark.parametrize("coeffs, p, singular", [(E2_COEFFS, 7, True), (E1_COEFFS, 11, True),
                                                 (E1_COEFFS, 3, True), (E2_COEFFS, 13, False),
                                                 ((1, -1, 1, -3, 2), 23, False)])
def test_residue_law_matches_the_curve_law(coeffs, p, singular):
    curve = WeierstrassCurve(*coeffs)
    add, neg = IntegralModel(curve).residue_law(p)
    reduced = reduce_curve(curve, p)
    points = list(reduced.enumerate_points())

    def pair(pt):
        return None if pt.is_infinity else (pt.x.residue, pt.y.residue)

    refused = 0
    for a in points:
        assert neg(pair(a)) == pair(reduced.neg(a))
        for b in points:
            try:
                expected = pair(reduced.add(a, b))
            except SingularCurveError:
                refused += 1
                with pytest.raises(SingularCurveError, match="undefined at a singular point"):
                    add(pair(a), pair(b))
                continue
            assert add(pair(a), pair(b)) == expected, (a, b)
    # either operand affine at the one singular point, the other affine
    assert refused == (2 * len(points) - 3 if singular else 0)


# E2 at the primes of its discriminant, -7^2 * 27739
E2_PINS = {
    ("(1,3);(0,0)", 7): (2, "", "error: axis 1 has no unique rank of apparition (non_unique)\n"),
    ("(0,0);(1,3)", 7): (2, "", "error: axis 0 has no unique rank of apparition (non_unique)\n"),
    ("(1,3)", 7): (2, "", "error: |Z^r / Lambda| = 3 < 4; symmetry functions undefined\n"),
    ("(0,0)", 7): (2, "", "error: axis 0 has no unique rank of apparition (non_unique)\n"),
    ("(1,3);(0,0)", 27739): (0, "p=27739 | lambda1=[3, 2728] | lambda2=[0, 3082] | "
                             "xi(lambda1)=26938 | xi(lambda2)=9447 | chi(lambda1,lambda2)=18292 | "
                             "chi(lambda1,e1)=19704 | chi(lambda1,e2)=24349 | "
                             "chi(lambda2,e1)=23881 | chi(lambda2,e2)=9446\n", ""),
    ("(0,0);(1,3)", 27739): (0, "p=27739 | lambda1=[2, 444] | lambda2=[0, 4623] | "
                             "xi(lambda1)=4480 | xi(lambda2)=1 | chi(lambda1,lambda2)=9446 | "
                             "chi(lambda1,e1)=18689 | chi(lambda1,e2)=23576 | "
                             "chi(lambda2,e1)=18292 | chi(lambda2,e2)=1\n", ""),
    ("(1,3)", 27739): (0, "p=27739 | lambda1=[4623] | xi(lambda1)=1 | chi(lambda1,e1)=1\n", ""),
    ("(0,0)", 27739): (0, "p=27739 | lambda1=[3082] | xi(lambda1)=9447 | "
                       "chi(lambda1,e1)=9446\n", ""),
}


# P = (-30,1009) reduces to the singular point mod 1009, Q = (-27,335) does not
WARD_CURVE = "0,0,0,-304391,-8086649"
WARD_PINS = {
    "(-27,335);(-30,1009)": (2, "", "error: axis 1 has no unique rank of apparition (non_unique)\n"),
    "(-30,1009);(-27,335)": (2, "", "error: axis 0 has no unique rank of apparition (non_unique)\n"),
    "(-30,1009)": (2, "", "error: axis 0 has no unique rank of apparition (non_unique)\n"),
    "(-27,335)": (0, "p=1009 | lambda1=[168] | xi(lambda1)=1008 | chi(lambda1,e1)=1\n", ""),
}


@pytest.mark.parametrize("points, p", sorted(E2_PINS), ids=lambda x: str(x))
def test_e2_bad_primes_keep_their_answers(capsys, points, p):
    from ellnet.cli import main

    argv = ["symmetry", "--curve", "0,1,7,28,0", "--points", points, "--prime", str(p)]
    code = main([*argv, "--format", "plain"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == E2_PINS[(points, p)]


def test_zero_set_closed_under_subtraction(reduced1_pq):
    net = reduced1_pq[7]
    lat = zero_lattice(net)
    radius = 2 * 13
    zeros = [v for v in box_indices(2, radius) if lat.contains(v)]
    sample = zeros[::7]
    for u in sample:
        for v in sample:
            diff = (u[0] - v[0], u[1] - v[1])
            assert lat.contains(diff)
            assert net.value(diff) == 0 or max(map(abs, diff)) > radius


def test_zero_lattice_refuses_non_unique(e2):
    net = ReducedNet(EllipticNet(e2, (P2,)), 7)
    with pytest.raises(NotSubgroupError):
        zero_lattice(net)


def _refuse_scan(*args, **kwargs):
    raise AssertionError("the psi scan ran")


@pytest.mark.parametrize("p", [13, 61, 89, 1009])
def test_good_reduction_takes_no_scan(monkeypatch, net1_pq, p):
    monkeypatch.setattr(symmetry, "rank_of_apparition", _refuse_scan)
    sd = build_symmetry_data(ReducedNet(net1_pq, p))
    if p in PAPER_LATTICES:
        assert sd.lattice.basis == PAPER_LATTICES[p]
    assert periodicity_check(sd, samples=10)


def test_bad_reduction_takes_no_scan(monkeypatch, capsys, e2, reduced1_pq):
    # 11 divides the discriminant of E1, 7 and 27739 that of E2, 5077 that
    # of 5077a: the walk answers, or Ward's test refuses, without the scan
    monkeypatch.setattr(symmetry, "rank_of_apparition", _refuse_scan)
    assert zero_lattice(reduced1_pq[11]).basis == PAPER_LATTICES[11]
    for name, p in [("E2-qp", 27739), ("5077a", 5077)]:
        assert periodicity_check(build_symmetry_data(ReducedNet(WALK_NETS[name], p)), samples=10)
    with pytest.raises(NotSubgroupError, match="rank of apparition"):
        zero_lattice(ReducedNet(EllipticNet(e2, (P2,)), 7))
    from ellnet.cli import main

    argv = ["symmetry", "--curve", "0,1,7,28,0", "--points", "(1,3);(0,0)", "--prime", "7"]
    assert main(argv) == 2
    assert "rank of apparition" in capsys.readouterr().err


@pytest.mark.parametrize("points", sorted(WARD_PINS))
def test_ward_refuses_singular_points_at_1009(monkeypatch, capsys, points):
    from ellnet.cli import main

    monkeypatch.setattr(symmetry, "rank_of_apparition", _refuse_scan)
    argv = ["symmetry", "--curve", WARD_CURVE, "--points", points, "--prime", "1009"]
    code = main([*argv, "--format", "plain"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == WARD_PINS[points]


def _axis_period(lattice, axis):
    """Least n > 0 with n e_axis in the lattice."""
    return next(n for n in itertools.count(1)
                if lattice.contains(tuple(n if i == axis else 0 for i in range(lattice.rank))))


# bad primes: E2's, 5077a's, and those of two curves built through two
# integral points so that 4a^3 + 27b^2 has a large prime factor
BAD_PRIME_NETS = {
    "E2": (E2_COEFFS, ((0, 0), (1, 3)), 27739),
    "5077a": ((0, 0, 1, -7, 6), ((1, 0), (2, 0), (0, 2)), 5077),
    "C15791": ((0, 0, 0, -21, 549), ((-5, 23), (9, 33)), 15791),
    "C34897": ((0, 0, 0, 198, 1495), ((-1, 36), (3, 46)), 34897),
}


def _larger_prime_cases():
    """E1 (P, Q) in both orders at 1009 and 10007; at each bad prime, the
    points in both orders (5077a: all three and each pair) and each point
    alone."""
    e1 = WeierstrassCurve(*E1_COEFFS)
    for p in (1009, 10007):
        yield pytest.param(e1, (P1, Q1), p, id=f"pq-{p}")
        yield pytest.param(e1, (Q1, P1), p, id=f"qp-{p}")
    for name, (coeffs, coords, p) in BAD_PRIME_NETS.items():
        curve = WeierstrassCurve(*coeffs)
        if len(coords) == 2:
            choices = [coords, coords[::-1]]
        else:
            choices = [coords, *itertools.combinations(coords, 2)]
        for choice in choices + [(c,) for c in coords]:
            points = tuple(rational_point(*c) for c in choice)
            label = ";".join(f"({x},{y})" for x, y in choice)
            yield pytest.param(curve, points, p, id=f"{name}-{label}-{p}")


@pytest.mark.parametrize("curve, points, p", _larger_prime_cases())
def test_walk_lattice_matches_scan_at_larger_primes(curve, points, p):
    net = ReducedNet(EllipticNet(curve, points), p)
    sd = build_symmetry_data(net)
    rhos = [rank_of_apparition(net, axis) for axis in range(net.rank)]
    assert [_axis_period(sd.lattice, axis) for axis in range(net.rank)] == rhos
    for row in sd.lattice.basis:
        assert net.value(row) == 0, row
    assert periodicity_check(sd)
    if net.rank > 1:  # at rank 1 the scan alone fixes Lambda = rho Z
        assert_lattice_is_kernel(net.gf_curve, net.gf_points, sd.lattice)


def test_delta_basics(reduced1_pq):
    net = reduced1_pq[7]
    lat = zero_lattice(net)
    rng = random.Random(13)
    assert delta(net, (0, 0), (1, 0)) == 1
    for _ in range(20):
        lam_c = (rng.randint(-2, 2), rng.randint(-2, 2))
        lam = tuple(sum(c * b for c, b in zip(lam_c, col)) for col in zip(*lat.basis))
        v = (rng.randint(-6, 6), rng.randint(-6, 6))
        if lat.contains(v):
            continue
        lv = tuple(a + b for a, b in zip(lam, v))
        assert delta(net, lam, v) * net.value(v) == net.value(lv)
    with pytest.raises(ZeroDivisionError):
        delta(net, (1, 5), (1, 5))


def test_delta_factors_through_xi_chi(reduced1_pq):
    net = reduced1_pq[7]
    lat = zero_lattice(net)
    lam = (1, 5)
    assert delta(net, lam, (1, 0)) == xi(net, lat, lam) * chi(net, lat, lam, (1, 0)) == 3


def test_chi_examples(reduced1_pq):
    net = reduced1_pq[7]
    lat = zero_lattice(net)
    assert chi(net, lat, (1, 5), (1, 0)) == 3
    assert chi(net, lat, (1, 5), (0, 1)) == 3
    assert chi(net, lat, (0, 13), (0, 1)) == 2
    assert chi(net, lat, (1, 5), (0, 0)) == 1


def test_xi_examples(reduced1_pq):
    lat7 = zero_lattice(reduced1_pq[7])
    assert xi(reduced1_pq[7], lat7, (1, 5)) == 1
    assert xi(reduced1_pq[7], lat7, (0, 13)) == 4
    assert xi(reduced1_pq[7], lat7, (0, 0)) == 1
    lat61 = zero_lattice(reduced1_pq[61])
    assert xi(reduced1_pq[61], lat61, (2, 8)) == 39
    assert xi(reduced1_pq[61], lat61, (0, 38)) == 60


def test_chi_xi_well_defined(reduced1_pq):
    # chi must not depend on the auxiliary point, xi not on the probe vector
    net = reduced1_pq[7]
    lat = zero_lattice(net)
    lam = (1, 5)
    v = (1, 0)
    chis = set()
    for u in lat.representatives():
        if lat.contains(u):
            continue
        vu = (v[0] + u[0], v[1] + u[1])
        if lat.contains(vu):
            continue
        chis.add((delta(net, lam, vu) / delta(net, lam, u)).residue)
    assert len(chis) == 1
    xis = set()
    for u in list(lat.representatives())[:8]:
        if lat.contains(u):
            continue
        xis.add((delta(net, lam, u) / chi(net, lat, lam, u)).residue)
    assert len(xis) == 1


def test_build_symmetry_data_p7(symmetry_data):
    sd = symmetry_data[7]
    assert sd.lattice.basis == ((1, 5), (0, 13))
    assert [x.residue for x in sd.xi_basis] == [1, 4]
    assert sd.chi_basis[0][1] == 3
    assert sd.chi_axis[0] == (3, 3)
    assert (sd.chi_axis[1][0], sd.chi_axis[1][1]) == (6, 2)
    assert len(sd.to_dict()["reps"]) == 13


def test_build_symmetry_data_p19(symmetry_data):
    sd = symmetry_data[19]
    assert [x.residue for x in sd.xi_basis] == [8, 5]
    assert sd.chi_basis[0][1] == 4


def test_small_quotient_rejected(e1):
    # the rank-1 net of P mod 3 has apparition rank 3, so |Z/Lambda| = 3 < 4
    net = ReducedNet(EllipticNet(e1, (P1,)), 3)
    assert rank_of_apparition(net, 0) == 3
    with pytest.raises(SmallQuotientError):
        build_symmetry_data(net)


def test_eval_by_symmetry_examples(symmetry_data):
    assert eval_by_symmetry(symmetry_data[7], (101, 100)) == 1
    assert eval_by_symmetry(symmetry_data[61], (101, 100)) == 28
    sd = symmetry_data[7]
    for rep in list(sd.lattice.representatives())[:5]:
        assert eval_by_symmetry(sd, rep) == sd.net.value(rep)


def test_eval_by_symmetry_matches_direct(symmetry_data, reduced1_pq):
    for p in (7, 11):
        sd = symmetry_data[p]
        net = reduced1_pq[p]
        for v in box_indices(2, 30):
            assert eval_by_symmetry(sd, v) == net.value(v), (p, v)


def test_chi_bilinear_symmetric(symmetry_data, reduced1_pq):
    p = 7
    sd = symmetry_data[p]
    net = reduced1_pq[p]
    lat = sd.lattice
    rng = random.Random(14)
    basis = lat.basis
    for lam in basis:
        for _ in range(25):
            v1 = (rng.randint(-8, 8), rng.randint(-8, 8))
            v2 = (rng.randint(-8, 8), rng.randint(-8, 8))
            v12 = (v1[0] + v2[0], v1[1] + v2[1])
            assert chi(net, lat, lam, v12) == chi(net, lat, lam, v1) * chi(net, lat, lam, v2)
            assert chi(net, lat, lam, (-v1[0], -v1[1])) == chi(net, lat, lam, v1) ** -1
    lam_sum = tuple(a + b for a, b in zip(basis[0], basis[1]))
    for _ in range(25):
        v = (rng.randint(-8, 8), rng.randint(-8, 8))
        assert chi(net, lat, lam_sum, v) == chi(net, lat, basis[0], v) * chi(net, lat, basis[1], v)
    assert chi(net, lat, basis[0], basis[1]) == chi(net, lat, basis[1], basis[0])


def test_xi_cocycle_identities(symmetry_data, reduced1_pq):
    for p in (7, 11, 19):
        sd = symmetry_data[p]
        net = reduced1_pq[p]
        lat = sd.lattice
        basis = lat.basis
        for i, li in enumerate(basis):
            for j, lj in enumerate(basis):
                lam_sum = tuple(a + b for a, b in zip(li, lj))
                assert xi(net, lat, lam_sum) == sd.xi_basis[i] * sd.xi_basis[j] * sd.chi_basis[i][j]
            assert xi(net, lat, tuple(-a for a in li)) == sd.xi_basis[i]
            assert sd.xi_basis[i] ** 2 == sd.chi_basis[i][i]


def test_xi_of_multiples(symmetry_data, reduced1_pq):
    sd = symmetry_data[7]
    net = reduced1_pq[7]
    for i, lam in enumerate(sd.lattice.basis):
        for n in range(-5, 6):
            scaled = tuple(n * a for a in lam)
            assert xi(net, sd.lattice, scaled) == sd.xi_basis[i] ** (n * n)


def test_ward_rank_one_symmetry(e1):
    # W(m rho + n) = a^(m^2) b^(mn) W(n) on the psi-sequence of P mod 5 and 11
    for p in (5, 11):
        net = ReducedNet(EllipticNet(e1, (P1,)), p)
        sd = build_symmetry_data(net)
        rho = sd.lattice.basis[0][0]
        a = sd.xi_basis[0]
        b = sd.chi_axis[0][0]
        for m in range(-4, 5):
            for n in range(0, rho):
                lhs = net.value((m * rho + n,))
                rhs = a ** (m * m) * b ** (m * n) * net.value((n,))
                assert lhs == rhs, (p, m, n)


def test_periodicity(symmetry_data):
    assert periodicity_check(symmetry_data[7], samples=50, seed=15)
    assert periodicity_check(symmetry_data[11], samples=50, seed=16)


def test_periodicity_detects_corruption(symmetry_data):
    sd = symmetry_data[7]
    from dataclasses import replace

    bad_axis = tuple(
        tuple(c * 3 for c in row) for row in sd.chi_axis
    )
    corrupted = replace(sd, chi_axis=bad_axis)
    assert not periodicity_check(corrupted, samples=50, seed=15)


def test_symmetry_data_p13_properties(e1, net1_pq):
    # a prime outside the published example: the property suite is the oracle
    net = ReducedNet(net1_pq, 13)
    sd = build_symmetry_data(net)
    lat = sd.lattice
    assert lat.index() >= 4
    for i, lam in enumerate(lat.basis):
        assert sd.xi_basis[i] ** 2 == sd.chi_basis[i][i]
        for n in range(-3, 4):
            assert xi(net, lat, tuple(n * a for a in lam)) == sd.xi_basis[i] ** (n * n)
    for v in box_indices(2, 15):
        assert eval_by_symmetry(sd, v) == net.value(v)
    assert periodicity_check(sd, samples=25, seed=17)


@pytest.mark.parametrize("p", [401, 1009])
def test_symmetry_data_large_prime(default_recursion_limit, net1_pq, p):
    sd = build_symmetry_data(ReducedNet(net1_pq, p))
    assert_lattice_is_kernel(sd.net.gf_curve, sd.net.gf_points, sd.lattice)
    assert periodicity_check(sd)


def test_symmetry_json_round_trip(symmetry_data):
    import json

    sd = symmetry_data[7]
    blob = json.loads(json.dumps(sd.to_dict()))
    assert blob["p"] == 7
    assert blob["lattice"] == [[1, 5], [0, 13]]
    assert blob["xi"] == [1, 4]
    assert all(0 <= e["value"] < 7 for e in blob["reps"])


def test_symmetry_data_reads_representatives_on_demand(net1_pq):
    # xi and chi take a few net values; the representatives are read from
    # the net only when asked for, all of them by the export, in
    # lexicographic order
    reduced = ReducedNet(net1_pq, 10007)
    sd = build_symmetry_data(reduced)
    assert sum(reduced.route_counts.values()) * 10 < sd.lattice.index() == 1668
    reps = sd.to_dict()["reps"]
    assert [tuple(r["index"]) for r in reps] == sorted(sd.lattice.representatives())
    assert sum(reduced.route_counts.values()) > sd.lattice.index()
