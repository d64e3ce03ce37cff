import sys

import pytest

from ellnet import (INFINITY, DivisionPolynomials, EllipticNet, ReducedNet, WeierstrassCurve,
                    rational_point, reduce_curve, reduce_mod_p)
from ellnet.curve import decompose
from ellnet.net import _normalize, _reduce_fraction

# Fixture curves and generators; the table convention lists Q before P.
E1_COEFFS = (0, 0, 0, 0, -11)
E2_COEFFS = (0, 1, 7, 28, 0)
P1 = rational_point(3, 4)
Q1 = rational_point(15, 58)
P2 = rational_point(0, 0)
Q2 = rational_point(1, 3)
DEFAULT_RECURSION_LIMIT = 1000


def assert_lattice_is_kernel(curve, points, lattice):
    """Lambda is the kernel of v -> v . P, checked with the group law of
    ``curve`` alone.

    Every basis row maps to infinity, and the canonical representatives,
    the box prod [0, pivot_i), have pairwise distinct images, so no other
    kernel vector exists.  The images of the box take one addition each.
    """
    def image(v):
        total = INFINITY
        for n, point in zip(v, points):
            total = curve.add(total, curve.mul(n, point))
        return total

    for row in lattice.basis:
        assert image(row).is_infinity, row
    images = [INFINITY]
    for i, point in enumerate(points):
        multiples = [INFINITY]
        for _ in range(1, lattice.basis[i][i]):
            multiples.append(curve.add(multiples[-1], point))
        images = [curve.add(h, m) for h in images for m in multiples]
    assert len(set(images)) == lattice.index()


def assert_psi_is_exact_psi_reduced(divpoly, curve, point, p, limit=300):
    """psi_n mod p from ``divpoly`` equals psi_n(point) over Q reduced mod p
    for every |n| <= limit."""
    exact = DivisionPolynomials(curve, point)
    for n in range(-limit, limit + 1):
        assert divpoly.psi(n) == _reduce_fraction(exact.psi(n), p), n


def triple(curve, point):
    """The (A, B, D) triple of an affine point, the operand form of
    ``IntegralModel``, read off ``decompose``; None at infinity."""
    if point.is_infinity:
        return None
    dec = decompose(curve, point)
    return dec.a, dec.b, dec.d


def reduces_to_singular_point(curve, point, p):
    """Whether a rational point reduces to the singular point mod p, on the
    reduced curve in ``PrimeFieldElement`` arithmetic: the reference that
    the net's ``_singular_moduli`` is compared with.  A point that reduces
    to infinity is nonsingular."""
    return reduce_curve(curve, p).is_singular_point(reduce_mod_p(curve, point, p))


def points_route(net, v):
    """W(v) on the points route alone, with no ladder, seeded box or psi:
    the oracle that exact values are compared with.  It reads the memo that
    ``value`` fills too, so the net must be one that never answered
    ``value``."""
    assert net.route_counts.keys() <= {"base", "points"}, net.route_counts
    key, sign = _normalize(tuple(v))
    if key not in net._values:
        net._run("points", key)
    return net._values[key] * sign


@pytest.fixture
def default_recursion_limit():
    """Large inputs must not depend on a raised recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    yield
    sys.setrecursionlimit(limit)


@pytest.fixture(scope="session")
def e1():
    return WeierstrassCurve(*E1_COEFFS)


@pytest.fixture(scope="session")
def e2():
    return WeierstrassCurve(*E2_COEFFS)


@pytest.fixture(scope="session")
def net1(e1):
    """E1 net in table orientation (Q, P); shared memo across tests."""
    return EllipticNet(e1, (Q1, P1))


@pytest.fixture(scope="session")
def net1_pq(e1):
    """E1 net in the symmetry-example orientation (P, Q)."""
    return EllipticNet(e1, (P1, Q1))


@pytest.fixture(scope="session")
def net2(e2):
    return EllipticNet(e2, (Q2, P2))


@pytest.fixture(scope="session")
def reduced1_pq(net1_pq):
    """Cached reductions of the (P, Q) net at the symmetry-example primes."""
    return {p: ReducedNet(net1_pq, p) for p in (7, 11, 19, 61, 89)}


@pytest.fixture(scope="session")
def symmetry_data(reduced1_pq):
    from ellnet import build_symmetry_data

    return {p: build_symmetry_data(net) for p, net in reduced1_pq.items()}
