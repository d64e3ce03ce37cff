"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from ellnet import (
    DivisionPolynomials,
    EllipticNet,
    QuadraticFormData,
    ReducedNet,
    ayad_equivalence_report,
    build_symmetry_data,
    chi,
    decompose,
    epsilon_quadratic_check,
    eval_by_symmetry,
    factorize,
    lattice_from_generators,
    neron_local_height,
    periodicity_check,
    recurrence_check,
    val_p,
    valuation_match_report,
    xi,
    zero_lattice,
)
from ellnet.cli import main
from ellnet.net import box_indices
from conftest import P1, Q1, reduces_to_singular_point

DATA = Path(__file__).parent / "data"

E1_ARGS = ["--curve", "0,0,0,0,-11", "--points", "(15,58);(3,4)"]
E2_ARGS = ["--curve", "0,1,7,28,0", "--points", "(1,3);(0,0)"]

# Example 4.6 symmetry scalars for y^2 = x^3 - 11 with generators (P, Q):
# lambda_1, lambda_2, xi(l1), xi(l2), chi(l1,l2), chi(l1,e1), chi(l1,e2),
# chi(l2,e1), chi(l2,e2).
PAPER_SYMMETRY_TABLE = {
    7: ((1, 5), (0, 13), 1, 4, 3, 3, 3, 6, 2),
    11: ((1, 7), (0, 11), 4, 9, 9, 4, 9, 9, 6),
    19: ((1, 6), (0, 14), 8, 5, 4, 1, 3, 6, 2),
    61: ((2, 8), (0, 38), 39, 60, 19, 34, 6, 43, 41),
    89: ((9, 3), (0, 10), 87, 43, 80, 62, 58, 52, 33),
}

# Three printed chi entries contradict the symmetry identities satisfied by
# the rest of their own rows (see criterion 5): the values forced by the
# defining relation W(lam + v) = xi(lam) chi(lam, v) W(v) are asserted
# instead, and the inconsistency of the printed ones is machine-checked.
PAPER_TYPOS = {
    (11, "chi_l2_e1"): (9, 4),
    (11, "chi_l2_e2"): (6, 4),
    (61, "chi_l2_e2"): (41, 1),
}

W_101_100 = {7: 1, 11: 5, 19: 12, 61: 28, 89: 52}


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def report(name, elapsed, budget):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget}s)")


def test_criterion_1_table1(capsys):
    start = time.monotonic()
    code, out = run_cli(capsys, ["denom-table", *E1_ARGS, "--grid", "5x10",
                                 "--format", "factored"])
    assert code == 0
    assert out == (DATA / "table1.txt").read_text()
    elapsed = time.monotonic() - start
    assert elapsed < 5
    with capsys.disabled():
        report("1 (Table 1, 50 denominator entries exact)", elapsed, 5)


def test_criterion_2_table2(capsys):
    start = time.monotonic()
    code, out = run_cli(capsys, ["net-table", *E1_ARGS, "--grid", "5x10",
                                 "--format", "factored"])
    assert code == 0
    golden = (DATA / "table2.txt").read_text()
    assert out == golden
    assert "-2^-36 · 23 · 103 · 340789 · 175849593114259" in out
    elapsed = time.monotonic() - start
    assert elapsed < 10
    with capsys.disabled():
        report("2 (Table 2, 50 net entries exact incl. 2-power denominators)", elapsed, 10)


def test_criterion_3_tables_3_and_4(capsys):
    start = time.monotonic()
    code, out3 = run_cli(capsys, ["denom-table", *E2_ARGS, "--grid", "7x10",
                                  "--format", "factored"])
    assert code == 0
    assert out3 == (DATA / "table3.txt").read_text()
    code, out4 = run_cli(capsys, ["net-table", *E2_ARGS, "--grid", "7x10",
                                  "--format", "factored"])
    assert code == 0
    assert out4 == (DATA / "table4.txt").read_text()
    assert "7^20" in out4.splitlines()[0]
    elapsed = time.monotonic() - start
    assert elapsed < 30
    with capsys.disabled():
        report("3 (Tables 3 and 4, 70 entries each exact)", elapsed, 30)


def test_criterion_4_valuation_identity(net1, net2):
    start = time.monotonic()
    grids = ((net1, (4, 9), 2), (net2, (6, 9), 7))
    for net, grid, excluded in grids:
        primes = set()
        qdata = QuadraticFormData.from_curve_points(net.curve, net.points)
        for c in range(grid[0] + 1):
            for r in range(grid[1] + 1):
                if (c, r) == (0, 0):
                    continue
                for value in (Fraction(net.denominator((c, r))),
                              net.value((c, r)) * qdata.value((c, r))):
                    primes.update(p for p, _ in factorize(value.numerator).factors)
                    primes.update(p for p, _ in factorize(value.denominator).factors)
        assert excluded in primes
        for p in sorted(primes - {excluded}):
            rep = valuation_match_report(net, p, grid, require_nonsingular=False)
            assert rep.ok, (net.points, p, rep.mismatches)
        # the excluded prime exhibits a mismatch: for E2 the singular prime
        # breaks the rescaled identity itself; for E1 at p = 2 the rescaling
        # carries exactly the 2-powers, so the raw comparison breaks
        if excluded == 7:
            rep = valuation_match_report(net, excluded, grid, require_nonsingular=False)
        else:
            rep = valuation_match_report(net, excluded, grid, scaled=False)
        assert not rep.ok
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report("4 (valuation identity over both grids, mismatch at excluded primes)",
           elapsed, 30)


def test_criterion_5_symmetry_example(reduced1_pq, symmetry_data, net1_pq):
    start = time.monotonic()
    for p, row in PAPER_SYMMETRY_TABLE.items():
        net = reduced1_pq[p]
        lam1, lam2 = row[0], row[1]
        # (i) the published basis generates exactly the computed zero lattice
        lat = zero_lattice(net)
        assert lattice_from_generators(2, [lam1, lam2]).basis == lat.basis
        # (ii) the seven scalars of the row
        names = ("xi_l1", "xi_l2", "chi_l1_l2", "chi_l1_e1", "chi_l1_e2",
                 "chi_l2_e1", "chi_l2_e2")
        computed = (
            xi(net, lat, lam1), xi(net, lat, lam2), chi(net, lat, lam1, lam2),
            chi(net, lat, lam1, (1, 0)), chi(net, lat, lam1, (0, 1)),
            chi(net, lat, lam2, (1, 0)), chi(net, lat, lam2, (0, 1)),
        )
        for name, got, printed in zip(names, computed, row[2:]):
            if (p, name) in PAPER_TYPOS:
                misprint, corrected = PAPER_TYPOS[(p, name)]
                assert printed == misprint
                assert got == corrected, (p, name)
            else:
                assert got == printed, (p, name)
        # the defining relation decides the disputed entries: the printed
        # value fails it, the computed one satisfies it on every probe
        xi2 = xi(net, lat, lam2)
        for (tp, name), (misprint, corrected) in PAPER_TYPOS.items():
            if tp != p:
                continue
            e = (1, 0) if name.endswith("e1") else (0, 1)
            shifted = net.value((lam2[0] + e[0], lam2[1] + e[1]))
            assert shifted == xi2 * corrected * net.value(e)
            assert shifted != xi2 * misprint * net.value(e)
        # (iii) W(101, 100) by the symmetry formula and by exact reduction
        assert eval_by_symmetry(symmetry_data[p], (101, 100)) == W_101_100[p]
        assert net.exact_value((101, 100)) == W_101_100[p]
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report("5 (Example 4.6: lattices, 35 scalars, W(101,100) both routes)",
           elapsed, 60)


def test_criterion_6_ayad_suite(net1, net2):
    start = time.monotonic()
    cases = {(1, 3): False, (1, 5): False, (1, 11): False, (1, 13): False,
             (2, 5): False, (2, 7): True, (2, 11): False}
    nets = {1: net1, 2: net2}
    assert len(cases) >= 6
    for (fixture, p), expected in cases.items():
        net = nets[fixture]
        rep = ayad_equivalence_report(net, p, box_radius=3, n_max=12)
        assert rep.all_equivalent, (fixture, p, rep.properties)
        assert rep.properties["e"] is expected, (fixture, p)
        # (e) by partial derivatives agrees with the psi_2/psi_3 valuation test
        for pt in net.points:
            dp = DivisionPolynomials(net.curve, pt)
            by_psi = val_p(dp.psi(2), p) > 0 and val_p(dp.psi(3), p) > 0
            assert reduces_to_singular_point(net.curve, pt, p) == by_psi
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report("6 (Ayad equivalences on 7 fixture triples)", elapsed, 10)


def test_criterion_7_property_suites(e1, net1, net2, net1_pq, reduced1_pq, symmetry_data):
    start = time.monotonic()

    # net recurrence over Q and over F_p
    assert recurrence_check(net1.value, 2, 4, 500, seed=100) == []
    for p in (5, 7, 11):
        reduced = ReducedNet(net1, p)
        assert recurrence_check(reduced.value, 2, 4, 500, seed=100 + p) == []

    # oddness
    rng = random.Random(101)
    for _ in range(200):
        v = (rng.randint(-10, 10), rng.randint(-10, 10))
        assert net1.value((-v[0], -v[1])) == -net1.value(v)

    # rank-1 specialization
    for pt, axis in ((Q1, 0), (P1, 1)):
        dp = DivisionPolynomials(e1, pt)
        for n in range(-30, 31):
            idx = (n, 0) if axis == 0 else (0, n)
            assert net1.value(idx) == dp.psi(n)

    # cross-oracle between the two evaluation strategies
    rec = EllipticNet(e1, net1.points, strategy="recurrence")
    for v in box_indices(2, 6):
        assert rec.value(v) == net1.value(v)

    # chi bilinearity / symmetry and the xi cocycle identities
    for p in (7, 11):
        net = reduced1_pq[p]
        lat = zero_lattice(net)
        basis = lat.basis
        xis = [xi(net, lat, lam) for lam in basis]
        for i, li in enumerate(basis):
            for j, lj in enumerate(basis):
                lam_sum = tuple(a + b for a, b in zip(li, lj))
                assert chi(net, lat, li, lj) == chi(net, lat, lj, li)
                assert xi(net, lat, lam_sum) == xis[i] * xis[j] * chi(net, lat, li, lj)
            assert xi(net, lat, tuple(-a for a in li)) == xis[i]
            assert xis[i] ** 2 == chi(net, lat, li, li)
            for n in range(-5, 6):
                assert xi(net, lat, tuple(n * a for a in li)) == xis[i] ** (n * n)
        for _ in range(30):
            v1 = (rng.randint(-8, 8), rng.randint(-8, 8))
            v2 = (rng.randint(-8, 8), rng.randint(-8, 8))
            v12 = (v1[0] + v2[0], v1[1] + v2[1])
            lam = basis[0]
            assert chi(net, lat, lam, v12) == chi(net, lat, lam, v1) * chi(net, lat, lam, v2)

    # (q - 1)-periodicity
    for p in (7, 11):
        assert periodicity_check(symmetry_data[p], samples=50, seed=102)

    # quasi-parallelogram law of the local height (spot instances) and the
    # epsilon parallelogram law on the fixture boxes
    for p in (2, 3, 5):
        a, b = e1.mul(2, P1), e1.add(P1, Q1)
        lhs = neron_local_height(e1, e1.add(a, b), p) + neron_local_height(e1, e1.add(a, e1.neg(b)), p)
        rhs = (2 * neron_local_height(e1, a, p) + 2 * neron_local_height(e1, b, p)
               + Fraction(val_p(Fraction(a.x) - Fraction(b.x), p))
               - Fraction(val_p(Fraction(e1.discriminant), p), 6))
        assert lhs == rhs
    assert epsilon_quadratic_check(net1, 2, 3)
    assert epsilon_quadratic_check(net1, 5, 3)
    assert epsilon_quadratic_check(net2, 3, 3)

    # Ward rank-1 symmetry on psi-sequences mod 5 and mod 11
    for p in (5, 11):
        net = ReducedNet(EllipticNet(e1, (P1,)), p)
        sd = build_symmetry_data(net)
        rho = sd.lattice.basis[0][0]
        a, b = sd.xi_basis[0], sd.chi_axis[0][0]
        for m in range(-4, 5):
            for n in range(rho):
                assert net.value((m * rho + n,)) == a ** (m * m) * b ** (m * n) * net.value((n,))

    # Remark on the scaled rank-1 net at a point with denominator 8
    pprime = e1.mul(2, P1)
    assert decompose(e1, pprime).d == 8
    dp = DivisionPolynomials(e1, pprime)
    for n in range(1, 9):
        assert Fraction(decompose(e1, e1.mul(n, pprime)).d) == abs(
            Fraction(8) ** (n * n) * dp.psi(n))

    elapsed = time.monotonic() - start
    assert elapsed < 120
    report("7 (property suites, fixed seeds)", elapsed, 120)


def test_criterion_8_denominator_grid_60x60(capsys, e1):
    # the whole E1 table of D_{v.P} through main; a seeded sample and the
    # corners against decompose of the Fraction group law
    start = time.monotonic()
    code, out = run_cli(capsys, ["denom-table", *E1_ARGS, "--grid", "60x60"])
    elapsed = time.monotonic() - start
    assert code == 0
    rows = [line.split(" | ") for line in out.splitlines()]
    assert [len(row) for row in rows] == [60] * 60
    table = {(c, 59 - k): int(cell) for k, row in enumerate(rows) for c, cell in enumerate(row)}
    sample = random.Random(60).sample(sorted(table), 10) + [(59, 59), (59, 0), (0, 59), (1, 1)]
    for c, r in sample:
        point = e1.add(e1.mul(c, Q1), e1.mul(r, P1))
        assert table[c, r] == (decompose(e1, point).d if (c, r) != (0, 0) else 0), (c, r)
    assert elapsed < 5
    with capsys.disabled():
        report("8 (denom-table 60x60 on E1, sampled against the Fraction group law)", elapsed, 5)
