"""Zero sets of reduced nets and the symmetry functions delta, chi, xi.

For a net W over F_p whose zero set Lambda is a full-rank subgroup with
|Z^r / Lambda| >= 4, the translation action of Lambda factors as

    W(lambda + v) = xi(lambda) * chi(lambda, v) * W(v),

with chi bilinear and xi a quadratic cocycle.  ``SymmetryData`` stores a
canonical basis of Lambda, the xi and chi tables on that basis, and W on
the canonical coset representatives; ``eval_by_symmetry`` then computes
any W(v) from the closed product formula without touching the recursion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .curve import INFINITY, CurvePoint
from .errors import NotSubgroupError, SmallQuotientError
from .fieldarith import PrimeFieldElement
from .lattice import IntegerLattice, Vector, lattice_from_generators
from .net import ReducedNet

UNIQUE = "unique"
NONE_FOUND = "none"
NON_UNIQUE = "non_unique"


@dataclass(frozen=True)
class ApparitionResult:
    """Rank of apparition along one axis: a modulus, NONE or NON_UNIQUE."""

    status: str
    rho: int | None = None
    bound: int | None = None

    @property
    def is_unique(self) -> bool:
        return self.status == UNIQUE


def _axis_index(rank: int, axis: int, n: int) -> Vector:
    v = [0] * rank
    v[axis] = n
    return tuple(v)


def default_search_bound(p: int) -> int:
    """p + 1 + 2 ceil(sqrt(p)) + 1: a zero must occur within the group order."""
    return p + 1 + 2 * math.isqrt(p - 1) + 3


def rank_of_apparition(net: ReducedNet, axis: int, bound: int | None = None) -> ApparitionResult:
    """Least n > 0 with W(n e_axis) = 0, with the divisibility law verified.

    Returns NON_UNIQUE when W(3 e_axis) = W(4 e_axis) = 0 (the Ward
    criterion), NONE when no zero occurs within the bound.
    """
    if bound is None:
        bound = default_search_bound(net.p)
    e = lambda n: _axis_index(net.rank, axis, n)
    if net.value(e(3)) == 0 and net.value(e(4)) == 0:
        return ApparitionResult(NON_UNIQUE, bound=bound)
    zeros = [n for n in range(1, bound + 1) if net.value(e(n)) == 0]
    if not zeros:
        return ApparitionResult(NONE_FOUND, bound=bound)
    rho = zeros[0]
    if rho == 1 or zeros != [n for n in range(1, bound + 1) if n % rho == 0]:
        raise NotSubgroupError(
            f"axis {axis}: zeros {zeros[:8]}... are not the multiples of {rho}"
        )
    return ApparitionResult(UNIQUE, rho=rho, bound=bound)


def apparition_profile(net: ReducedNet, bound: int | None = None) -> list[ApparitionResult]:
    return [rank_of_apparition(net, axis, bound) for axis in range(net.rank)]


def zero_lattice(net: ReducedNet, bound: int | None = None) -> IntegerLattice:
    """Canonical basis of Lambda = W^{-1}(0).

    Requires a unique rank of apparition rho_i on every axis.  Lambda is
    built as the kernel of v -> v . P on the reduced curve group by a
    walk in the style of Shanks' baby-step giant-step.  The generators
    are rho_i e_i, and the points P_k are taken one at a time: a table
    maps each point of H = <P_1, ..., P_{k-1}> to a coefficient vector c,
    the walk steps b . P_k for b = 1, ..., rho_k - 1 and stops at the
    first b with -b . P_k = c . P in the table, which adds the generator
    (c, b, 0, ...).  The cosets H + j . P_k for j < b then extend the
    table to <P_1, ..., P_k>.  Every table entry and every step costs one
    group addition, so the whole walk takes O(#E(F_p)) additions for any
    rank, against the rho_1 x ... x rho_r box of kernel candidates.  The
    tests compare it with two oracles at small p: a scan of that box
    through the group law, and a scan of the net zeros themselves.
    """
    profile = apparition_profile(net, bound)
    for axis, entry in enumerate(profile):
        if not entry.is_unique:
            raise NotSubgroupError(
                f"axis {axis} has no unique rank of apparition ({entry.status})"
            )
    rhos = [entry.rho for entry in profile]
    curve, points = net.gf_curve, net.gf_points
    rank = net.rank
    generators: list[Vector] = [_axis_index(rank, i, rhos[i]) for i in range(rank)]
    table: dict[CurvePoint, tuple[int, ...]] = {INFINITY: ()}
    for k, point in enumerate(points):
        multiples = [INFINITY]
        for b in range(1, rhos[k]):
            step = curve.add(multiples[-1], point)
            hit = table.get(curve.neg(step))
            if hit is not None:
                generators.append(hit + (b,) + (0,) * (rank - k - 1))
                break
            multiples.append(step)
        if k + 1 < rank:
            table = {
                curve.add(h, m): c + (j,)
                for j, m in enumerate(multiples)
                for h, c in table.items()
            }
    return lattice_from_generators(rank, generators)


def delta(net: ReducedNet, lam: Vector, v: Vector) -> PrimeFieldElement:
    """W(lam + v) / W(v); requires W(v) != 0."""
    wv = net.value(v)
    if wv == 0:
        raise ZeroDivisionError(f"delta is undefined at v = {v} (W(v) = 0)")
    return net.value(tuple(a + b for a, b in zip(lam, v))) / wv


def _require_large_quotient(lattice: IntegerLattice) -> None:
    if lattice.index() < 4:
        raise SmallQuotientError(
            f"|Z^r / Lambda| = {lattice.index()} < 4; symmetry functions undefined"
        )


def chi(net: ReducedNet, lattice: IntegerLattice, lam: Vector, v: Vector) -> PrimeFieldElement:
    """The bilinear symbol chi(lam, v) = delta(lam, v + u) / delta(lam, u).

    The auxiliary u is the first canonical representative (lexicographic
    order) with u and v + u both outside Lambda; the result does not
    depend on the choice.
    """
    _require_large_quotient(lattice)
    for u in lattice.representatives():
        if lattice.contains(u):
            continue
        vu = tuple(a + b for a, b in zip(v, u))
        if lattice.contains(vu):
            continue
        return delta(net, lam, vu) / delta(net, lam, u)
    raise SmallQuotientError("no admissible auxiliary representative found")


def xi(net: ReducedNet, lattice: IntegerLattice, lam: Vector) -> PrimeFieldElement:
    """The quadratic cocycle xi(lam) = delta(lam, v) / chi(lam, v)."""
    _require_large_quotient(lattice)
    for u in lattice.representatives():
        if lattice.contains(u):
            continue
        return delta(net, lam, u) / chi(net, lattice, lam, u)
    raise SmallQuotientError("no representative outside the lattice")


@dataclass(frozen=True)
class SymmetryData:
    """Everything needed to evaluate W anywhere from finitely many scalars."""

    p: int
    lattice: IntegerLattice
    xi_basis: tuple[PrimeFieldElement, ...]
    chi_basis: tuple[tuple[PrimeFieldElement, ...], ...]
    chi_axis: tuple[tuple[PrimeFieldElement, ...], ...]
    rep_values: dict[Vector, PrimeFieldElement]
    net: ReducedNet

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "lattice": [list(row) for row in self.lattice.basis],
            "xi": [x.residue for x in self.xi_basis],
            "chi": {
                "basis": [[c.residue for c in row] for row in self.chi_basis],
                "axis": [[c.residue for c in row] for row in self.chi_axis],
            },
            "reps": [
                {"index": list(m), "value": w.residue}
                for m, w in sorted(self.rep_values.items())
            ],
        }


def build_symmetry_data(net: ReducedNet, bound: int | None = None) -> SymmetryData:
    """Zero lattice, xi/chi tables on its basis, and W on the coset reps."""
    lattice = zero_lattice(net, bound)
    _require_large_quotient(lattice)
    rank = lattice.rank
    basis = lattice.basis
    xi_basis = tuple(xi(net, lattice, lam) for lam in basis)
    chi_basis = tuple(
        tuple(chi(net, lattice, basis[i], basis[j]) for j in range(rank))
        for i in range(rank)
    )
    chi_axis = tuple(
        tuple(chi(net, lattice, basis[i], _axis_index(rank, j, 1)) for j in range(rank))
        for i in range(rank)
    )
    rep_values = {m: net.value(m) for m in lattice.representatives()}
    return SymmetryData(net.p, lattice, xi_basis, chi_basis, chi_axis, rep_values, net)


def eval_by_symmetry(sd: SymmetryData, v) -> PrimeFieldElement:
    """W(v) through the closed formula for W(sum n_i lambda_i + m)."""
    coeffs, rep = sd.lattice.decompose(tuple(int(c) for c in v))
    w = sd.rep_values[rep]
    if w == 0:
        return w
    result = w
    for i in range(sd.rank):
        ni = coeffs[i]
        if ni == 0:
            continue
        result = result * sd.xi_basis[i] ** (ni * ni)
        for j in range(i):
            nj = coeffs[j]
            if nj:
                result = result * sd.chi_basis[i][j] ** (ni * nj)
        for j in range(sd.rank):
            mj = rep[j]
            if mj:
                result = result * sd.chi_axis[i][j] ** (ni * mj)
    return result


def periodicity_check(sd: SymmetryData, samples: int = 50, seed: int = 0,
                      radius: int = 12) -> bool:
    """Spot-check W(v + (q - 1) lambda) = W(v) for basis lambda.

    The shifted side goes through the symmetry tables and the unshifted
    side through direct evaluation, so a corrupted table is detected.
    """
    rng = random.Random(seed)
    q = sd.p
    for _ in range(samples):
        v = tuple(rng.randint(-radius, radius) for _ in range(sd.rank))
        direct = sd.net.value(v)
        for lam in sd.lattice.basis:
            shifted = tuple(a + (q - 1) * b for a, b in zip(v, lam))
            if eval_by_symmetry(sd, shifted) != direct:
                return False
    return True
