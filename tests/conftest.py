import sys

import pytest

from ellnet import INFINITY, EllipticNet, ReducedNet, WeierstrassCurve, rational_point
from ellnet.net import _normalize

# Fixture curves and generators; the table convention lists Q before P.
E1_COEFFS = (0, 0, 0, 0, -11)
E2_COEFFS = (0, 1, 7, 28, 0)
P1 = rational_point(3, 4)
Q1 = rational_point(15, 58)
P2 = rational_point(0, 0)
Q2 = rational_point(1, 3)
DEFAULT_RECURSION_LIMIT = 1000


def assert_lattice_is_kernel(curve, points, lattice):
    """Lambda is the kernel of v -> v . P, checked with curve.mul alone.

    Every basis row maps to infinity, and the canonical representatives
    have pairwise distinct images, so no other kernel vector exists.
    """
    def image(v):
        total = INFINITY
        for n, point in zip(v, points):
            total = curve.add(total, curve.mul(n, point))
        return total

    for row in lattice.basis:
        assert image(row).is_infinity, row
    assert len({image(m) for m in lattice.representatives()}) == lattice.index()


def points_route(net, v):
    """W(v) on the points route alone, with no ladder or psi: the oracle
    that exact values are compared with."""
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
