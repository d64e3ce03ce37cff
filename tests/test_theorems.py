from fractions import Fraction

import pytest

import ellnet.curve
import ellnet.net
from ellnet import (
    DivisionPolynomials,
    EllipticNet,
    QuadraticFormData,
    ReducedNet,
    WeierstrassCurve,
    ayad_equivalence_report,
    decompose,
    epsilon_quadratic_check,
    epsilon_value,
    neron_local_height,
    rational_point,
    unique_apparition_test,
    val_p,
    valuation_match_report,
)
from ellnet.errors import (EllnetError, ModelNotIntegralError, NotEllipticSequenceError,
                           PreconditionError)
from ellnet.net import box_indices
from conftest import P1, P2, Q1, Q2


def test_ayad_singular_case(e2, net2):
    report = ayad_equivalence_report(net2, 7, box_radius=3, n_max=12)
    assert report.all_equivalent and report.properties["e"] is True
    assert report.witnesses["e"] == 1  # P = (0, 0) is the second point
    assert report.properties == {k: True for k in "abcde"}


def test_ayad_good_and_bad_nonsingular_cases(net1, net2):
    # E1 at 3 and 11 divides the discriminant but both points stay smooth
    for net, p in ((net1, 3), (net1, 5), (net1, 11), (net1, 13),
                   (net2, 5), (net2, 11)):
        report = ayad_equivalence_report(net, p, box_radius=3, n_max=12)
        assert report.all_equivalent, (p, report.properties)
        assert report.properties["e"] is False


def test_ayad_equivalence_closure_suite(net1, net2):
    cases = [(net1, 3), (net1, 5), (net1, 11), (net1, 13), (net2, 5), (net2, 7), (net2, 11)]
    assert len(cases) >= 6
    for net, p in cases:
        report = ayad_equivalence_report(net, p, box_radius=3, n_max=12)
        assert report.all_equivalent, (p, report.properties)


def test_ayad_hypothesis_warning_recorded(net1):
    # P - Q hits infinity mod 3; the report notes it instead of refusing
    report = ayad_equivalence_report(net1, 3, box_radius=3, n_max=8)
    assert any("infinity" in w for w in report.hypothesis_warnings)
    report5 = ayad_equivalence_report(net1, 5, box_radius=3, n_max=8)
    assert report5.hypothesis_warnings == []


def test_ayad_counts_a_vanishing_value_as_divisible(capsys):
    # P = (-1, 0) has order 2 on y^2 = x^3 + 1, so W(2 e_1) = 0 is divisible
    # by every p: mod 3 (a) holds with val_3(W(3 e_1)) = val_3(-9) = 2, and
    # P is the singular point; mod 2 and 5 W(3 e_1) is a unit and (a) fails
    from ellnet.cli import main

    curve, point = WeierstrassCurve(0, 0, 0, 0, 1), rational_point(-1, 0)
    net = EllipticNet(curve, (point,))
    assert net.value((2,)) == 0
    for p in (2, 3, 5):
        report = ayad_equivalence_report(net, p)
        singular = p == 3
        assert report.properties == {k: singular for k in "abcde"}, p
        assert report.witnesses == ({"a": 0, "b": 0, "c": ((-3,), 0), "d": (-3,), "e": 0}
                                    if singular else {}), p
        assert main(["verify", "ayad", "--curve", "0,0,0,0,1", "--points", "(-1,0)",
                     "--prime", str(p)]) == 0
        flag = "true" if singular else "false"
        assert capsys.readouterr() == (
            "PASS ayad all-equivalent: {" + ", ".join(f'"{k}": {flag}' for k in "abcde") + "}\n", "")


def test_ayad_report_serializes(net2):
    blob = ayad_equivalence_report(net2, 7).to_dict()
    assert blob["properties"]["e"] is True
    assert blob["bounds"]["n_max"] == 12


def test_valuation_match_example_51(net1):
    report = valuation_match_report(net1, 3, (4, 9))
    assert report.ok
    assert len(report.entries) == 5 * 10 - 1


def test_valuation_match_gate(net2):
    with pytest.raises(PreconditionError):
        valuation_match_report(net2, 7, (2, 2))
    report = valuation_match_report(net2, 7, (6, 9), require_nonsingular=False)
    assert not report.ok
    assert (0, 2) in report.mismatches  # psi_2(P) = 7 while D_{2P} = 1


def test_valuation_gate_refuses_singular_reduction_only(e1):
    # 2P reduces to infinity mod 2, a nonsingular point: the gate passes it
    # and the identity holds on all 80 entries of the radius-4 box; a net
    # with no integral model is refused by the gate, by Ayad's checker and
    # by ReducedNet alike
    report = valuation_match_report(EllipticNet(e1, (e1.mul(2, P1), Q1)), 2, 4)
    assert report.ok and len(report.entries) == 80
    rational = EllipticNet(WeierstrassCurve(0, 0, 0, 0, Fraction(1, 4)),
                           (rational_point(0, Fraction(1, 2)),))
    for check in (lambda: valuation_match_report(rational, 5, 2),
                  lambda: ayad_equivalence_report(rational, 5),
                  lambda: ReducedNet(rational, 5)):
        with pytest.raises(ModelNotIntegralError):
            check()


def test_valuation_match_axis_units(net1):
    report = valuation_match_report(net1, 5, 2)
    assert report.ok
    for v, dval, nval in report.entries:
        if v in ((1, 0), (0, 1)):
            assert dval == nval == 0


def test_unscaled_comparison_breaks_at_two(net1):
    # the rescaling F carries exactly the 2-powers: scaled matches, raw does not
    scaled = valuation_match_report(net1, 2, (4, 9))
    assert scaled.ok
    raw = valuation_match_report(net1, 2, (4, 9), scaled=False)
    assert not raw.ok
    assert (1, 1) in raw.mismatches


@pytest.mark.parametrize("points, p, grid, gate", [((Q1, P1), 3, (4, 9), True),
                                                  ((P1, Q1), 2, 3, True),
                                                  ((Q2, P2), 7, (6, 9), False)],
                         ids=["E1-3", "E1-pq-2", "E2-7"])
def test_valuation_report_reads_denominators_off_the_group_law(monkeypatch, e1, e2, points, p,
                                                              grid, gate):
    # the theorem check compares the net with the group law: with
    # EllipticNet.denominator refused, the report keeps every entry
    curve = e1 if points[0] in (P1, Q1) else e2
    expected = valuation_match_report(EllipticNet(curve, points), p, grid,
                                      require_nonsingular=gate)
    net = EllipticNet(curve, points)
    assert expected.entries == [(v, val_p(net.denominator(v), p), n)
                                for v, _, n in expected.entries]

    def refuse(self, v):
        raise AssertionError("EllipticNet.denominator ran")

    monkeypatch.setattr(EllipticNet, "denominator", refuse)
    report = valuation_match_report(EllipticNet(curve, points), p, grid, require_nonsingular=gate)
    assert (report.entries, report.mismatches) == (expected.entries, expected.mismatches)


def test_unique_apparition_psi_sequences(e1, e2):
    dp = DivisionPolynomials(e2, P2)
    values = [dp.psi(n) for n in range(0, 15)]
    assert unique_apparition_test(values, p=7) is False
    dp1 = DivisionPolynomials(e1, P1)
    values1 = [dp1.psi(n) for n in range(0, 15)]
    assert unique_apparition_test(values1, p=5) is True


def test_unique_apparition_synthetic():
    assert unique_apparition_test([0, 1, 1, 0, 0, 0, 0], p=5) is False
    with pytest.raises(NotEllipticSequenceError):
        unique_apparition_test([0, 1, 1, 1, 2, 3, 4], p=5)


def test_prop_12_rank_one_valuations(e1):
    # val_p(D_nP) = val_p(psi_n(P)) at primes of nonsingular reduction
    dp = DivisionPolynomials(e1, P1)
    for p in (3, 5, 7, 13):
        for n in range(2, 21):
            dval = val_p(decompose(e1, e1.mul(n, P1)).d, p)
            assert dval == val_p(dp.psi(n), p), (p, n)


def test_remark_12a_scaled_divpoly(e1):
    # P' = 2P has D = 8; D_{nP'} = |8^(n^2) psi_n(P')|
    pprime = e1.mul(2, P1)
    assert decompose(e1, pprime).d == 8
    dp = DivisionPolynomials(e1, pprime)
    for n in range(1, 9):
        lhs = Fraction(decompose(e1, e1.mul(n, pprime)).d)
        rhs = abs(Fraction(8) ** (n * n) * dp.psi(n))
        assert lhs == rhs, n


def test_epsilon_values_and_parallelogram(net1):
    assert epsilon_quadratic_check(net1, 2, 3)
    assert epsilon_quadratic_check(net1, 5, 3)
    from ellnet.net import box_indices

    for v in box_indices(2, 3):
        if any(v):
            assert epsilon_value(net1, 5, v) == 0


def test_epsilon_at_bad_reduction_primes(net1):
    # 3 and 11 divide the discriminant but every combination stays smooth,
    # so the quadratic-form law still holds with nonzero epsilon values
    assert epsilon_quadratic_check(net1, 3, 3)
    assert epsilon_quadratic_check(net1, 11, 3)


def test_epsilon_fault_injection(monkeypatch, e1):
    net = EllipticNet(e1, (Q1, P1))
    value = net.value
    monkeypatch.setattr(net, "value", lambda v: value(v) * (2 if v == (1, 2) else 1))
    assert not epsilon_quadratic_check(net, 2, 2)


def test_epsilon_reads_heights_off_the_point_cache(monkeypatch, e1, net1, net2):
    # local heights come from the cached (A, B, D) triple: lambda_p = v_p(D)
    # + v_p(disc) / 12, equal to neron_local_height of the rebuilt point
    def outcome(fn, *args):
        try:
            return fn(*args)
        except EllnetError as exc:
            return type(exc)

    torsion = EllipticNet(WeierstrassCurve(0, 0, 0, 0, 1),
                          (rational_point(2, 3), rational_point(-1, 0)))
    for net, primes in ((net1, (2, 3, 5, 11)), (net2, (2, 3, 5, 7)), (torsion, (2, 3, 5))):
        for p in primes:
            for v in box_indices(2, 4):
                if not any(v):
                    continue
                pt = net.point(v)
                expected = None if pt.is_infinity else outcome(neron_local_height, net.curve, pt, p)
                assert outcome(net.local_height, v, p) == expected, (p, v)

    calls = []
    original = ellnet.curve.decompose

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ellnet.curve, "decompose", counting)
    monkeypatch.setattr(ellnet.net, "decompose", counting)
    net = EllipticNet(e1, net1.points)
    assert len(calls) == 2  # the triples of the base points
    # 170 decompose calls in all when each height rebuilt its point
    assert epsilon_quadratic_check(net, 5, 3)
    assert len(calls) == 2
    for v in box_indices(2, 3):
        if any(v):
            assert epsilon_value(net, 5, v) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("points, p", [((Q1, P1), 2), ((Q1, P1), 23), ((P2, Q2), 7), ((Q2, P2), 13)],
                         ids=["E1-2", "E1-23", "E2-pq-7", "E2-13"])
def test_valuation_report_reads_the_rescaled_net(monkeypatch, e1, e2, points, p):
    # val_p of Psi-hat comes off the net's int Psi-hat, equal to F_v W(v)
    # with F from the integer group law; neither QuadraticFormData nor
    # EllipticNet.value runs for the report
    curve = e1 if points[0] in (P1, Q1) else e2
    net = EllipticNet(curve, points)
    form = QuadraticFormData.from_curve_points(curve, points)
    grid = [v for v in box_indices(2, 4) if any(v)]
    expected = [val_p(form.value(v) * net.value(v), p) for v in grid]

    def refuse(*args):
        raise AssertionError("the report ran it")

    monkeypatch.setattr(QuadraticFormData, "from_curve_points", refuse)
    monkeypatch.setattr(QuadraticFormData, "value", refuse)
    monkeypatch.setattr(EllipticNet, "value", refuse)
    report = valuation_match_report(EllipticNet(curve, points), p, 4, require_nonsingular=False)
    assert [v for v, _, _ in report.entries] == grid
    assert [n for _, _, n in report.entries] == expected
