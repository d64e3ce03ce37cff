"""Zero sets of reduced nets and the symmetry functions delta, chi, xi.

For a net W over F_p whose zero set Lambda is a full-rank subgroup with
|Z^r / Lambda| >= 4, the translation action of Lambda factors as

    W(lambda + v) = xi(lambda) * chi(lambda, v) * W(v),

with chi bilinear and xi a quadratic cocycle.  ``SymmetryData`` stores a
canonical basis of Lambda and the xi and chi tables on that basis, and
reads W on the canonical coset representatives from the reduced net, which
memoizes them; ``eval_by_symmetry`` then computes any W(v) from the closed
product formula and the value of one representative.

Lambda is the kernel of v -> v . P on the reduced curve group, found by a
group walk on int residues (``zero_lattice``) at every prime, good or bad.
Ward's O(1) test, W(3 e_i) = W(4 e_i) = 0 (``_refuse_ward``), guards it:
it refuses an axis whose point reduces to the singular point.
``rank_of_apparition`` returns rho, the least n > 0 with W(n e_i) = 0, or
raises ``NotSubgroupError`` where the zeros on the axis are not rho Z; its
psi scan (O(p) net values) is the definition and the tests' oracle, and no
build calls it.

A net is normalized so that W(e_i) = 1 and W(e_i + e_j) = 1 for i != j
(Stange; Ward at rank 1), so the theorem at v = e_i and v = e_i + e_j reads

    W(lambda + e_i) = xi(lambda) * chi(lambda, e_i),
    W(lambda + e_i + e_j) = xi(lambda) * chi(lambda, e_i) * chi(lambda, e_j) * W(e_i + e_j),

and the tables come straight off the net: for each basis vector lambda and
each axis j, with i = j + 1 mod r,

    chi(lambda, e_j) = W(lambda + e_i + e_j) / (W(lambda + e_i) * W(e_i + e_j)),
    xi(lambda) = W(lambda + e_1) / chi(lambda, e_1),

that is 2r - 1 net values per basis vector, or 2 at rank 1, where i = j
and W(2 e_1) = psi_2 stays in the formula.  A vector v with v_k >= 0 gives

    chi(lambda_i, v) = prod_k chi(lambda_i, e_k)^(v_k),

so chi(lambda_i, lambda_j) needs no net value (HNF entries are >= 0).
``delta``, ``chi`` and ``xi`` stay the definitions, through one auxiliary
representative u (``_auxiliary``); the tests compare the tables with
them, and no build calls them.  The tables, the representatives' values
and ``eval_by_symmetry`` run on int residues (``ReducedNet.residue``);
``PrimeFieldElement`` appears only in the ``SymmetryData`` fields and in
return values.  Reading the tables off the units, in place of about ten
delta quotients of ``PrimeFieldElement``s at a searched u, took the
bench's fp-symmetry workload from 1,552 to 1,939 ops/s and its median op
from 0.62 to 0.49 ms (medians of ten alternating 33 s runs, 2-vCPU VM,
Python 3.11).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import NotSubgroupError, SmallQuotientError
from .fieldarith import PrimeFieldElement, _element
from .lattice import IntegerLattice, Vector, lattice_from_generators
from .net import ReducedNet

def _plus(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _axis_index(rank: int, axis: int, n: int) -> Vector:
    v = [0] * rank
    v[axis] = n
    return tuple(v)


def default_search_bound(p: int) -> int:
    """p + 1 + 2 ceil(sqrt(p)) + 1: a zero must occur within the group order."""
    return p + 1 + 2 * math.isqrt(p - 1) + 3


def _refuse_ward(net: ReducedNet, axis: int) -> None:
    """Ward's criterion: W(3 e_axis) = W(4 e_axis) = 0 leaves the axis no
    unique rank of apparition, and raises ``NotSubgroupError``."""
    if all(net.value(_axis_index(net.rank, axis, n)) == 0 for n in (3, 4)):
        raise NotSubgroupError(f"axis {axis} has no unique rank of apparition (non_unique)")


def rank_of_apparition(net: ReducedNet, axis: int) -> int:
    """rho, the least n > 0 with W(n e_axis) = 0, with the divisibility law
    verified on a scan of ``default_search_bound(p)`` values.

    Raises ``NotSubgroupError`` under Ward's criterion (``_refuse_ward``),
    and where the zeros of the scan are not the multiples of a rho > 1,
    none included.  On a ``ReducedNet`` a zero always occurs: rho is at
    most #E_ns(F_p) <= p + 1 + 2 sqrt(p), and a P_i that reduces to the
    singular point fails Ward's test first.  This O(p) scan of the axis is
    the definition of rho and the tests' oracle; ``zero_lattice`` does not
    call it, at any prime.
    """
    _refuse_ward(net, axis)
    bound = default_search_bound(net.p)
    zeros = [n for n in range(1, bound + 1) if net.value(_axis_index(net.rank, axis, n)) == 0]
    if not zeros or zeros[0] == 1 or zeros != list(range(zeros[0], bound + 1, zeros[0])):
        raise NotSubgroupError(
            f"axis {axis}: zeros {zeros[:8]}... up to {bound} are not the multiples of a rho > 1"
        )
    return zeros[0]


def zero_lattice(net: ReducedNet) -> IntegerLattice:
    """Canonical basis of Lambda = W^{-1}(0), the kernel of v -> v . P.

    Lambda is built on the reduced curve group by a walk in the style of
    Shanks' baby-step giant-step, on affine points as int residue pairs
    (``IntegralModel.residue_law`` of the reduced net's model).  The points
    P_k are taken one at a time: a table maps each point of
    H = <P_1, ..., P_{k-1}> to a coefficient vector c, the walk steps
    -b . P_k for b = 1, 2, ... and stops at the first b with
    -b . P_k = c . P in the table, which adds the generator (c, b, 0, ...).
    The cosets H - j . P_k for j < b then extend the table to
    <P_1, ..., P_k>.  Every table entry and every step costs
    one int addition, so the whole walk takes O(#E(F_p)) additions for any
    rank.

    The paper's theorem makes the zeros of W exactly this kernel wherever
    the P_i reduce to nonsingular points, at good and bad primes alike, so
    the walk alone gives Lambda: infinity is in the table, so P_k's walk
    ends by b = ord(P_k), and for k = 0 it yields rho_1 e_1.  Where some
    P_i reduces to the singular point (p divides the discriminant), Ayad's
    theorem gives W(3 e_i) = W(4 e_i) = 0, Ward's test, which is checked on
    every axis first and raises ``NotSubgroupError``; at good reduction it
    cannot fire, as 3P = 4P = O would force P = O and the base points
    reduce to affine points.  On E1 (P, Q) the walk on int residues, in
    place of ``CurvePoint``s of ``PrimeFieldElement``s, took ``ellnet
    symmetry --format plain`` from 2.2 to 0.3 s (57 to 45 MB) at
    p = 100003 and from 5.8 to 0.9 s (138 to 97 MB) at p = 1000003
    (in-process, median of three, 2-vCPU VM, Python 3.11).  The tests
    compare the walk with four oracles: a scan of the rho_1 x ... x rho_r
    box and a kernel check, both through ``WeierstrassCurve.add``, the psi
    scan of ``rank_of_apparition`` and a scan of the net zeros themselves.
    """
    add, neg = net.net._law.residue_law(net.p)
    rank = net.rank
    for axis in range(rank):
        _refuse_ward(net, axis)
    generators: list[Vector] = []
    limit = default_search_bound(net.p) + 1
    table: dict[tuple[int, int] | None, tuple[int, ...]] = {None: ()}
    for k, point in enumerate(net._points):
        step, minus = None, neg(point)
        multiples = [step]  # -j . P_k
        for b in range(1, limit):
            step = add(step, minus)
            hit = table.get(step)
            if hit is not None:
                generators.append(hit + (b,) + (0,) * (rank - k - 1))
                break
            multiples.append(step)
        if k + 1 < rank:
            table = {
                add(h, m): c + (-j,)
                for h, c in table.items()
                for j, m in enumerate(multiples)
            }
    return lattice_from_generators(rank, generators)


def delta(net: ReducedNet, lam: Vector, v: Vector) -> PrimeFieldElement:
    """W(lam + v) / W(v); requires W(v) != 0."""
    wv = net.value(v)
    if wv == 0:
        raise ZeroDivisionError(f"delta is undefined at v = {v} (W(v) = 0)")
    return net.value(_plus(lam, v)) / wv


def _require_large_quotient(lattice: IntegerLattice) -> None:
    if lattice.index() < 4:
        raise SmallQuotientError(
            f"|Z^r / Lambda| = {lattice.index()} < 4; symmetry functions undefined"
        )


def _auxiliary(lattice: IntegerLattice, v: Vector) -> Vector:
    """The first canonical representative u (lexicographic order) with u
    and v + u both outside Lambda.  The index is at least 4, and the two
    conditions exclude at most two cosets, so one is always left."""
    _require_large_quotient(lattice)
    return next(u for u in lattice.representatives()
                if not lattice.contains(u) and not lattice.contains(_plus(v, u)))


def chi(net: ReducedNet, lattice: IntegerLattice, lam: Vector, v: Vector) -> PrimeFieldElement:
    """The bilinear symbol chi(lam, v) = delta(lam, v + u) / delta(lam, u)
    at the auxiliary u of v (``_auxiliary``); the result does not depend on
    the choice."""
    u = _auxiliary(lattice, v)
    return delta(net, lam, _plus(v, u)) / delta(net, lam, u)


def xi(net: ReducedNet, lattice: IntegerLattice, lam: Vector) -> PrimeFieldElement:
    """The quadratic cocycle xi(lam) = delta(lam, u) / chi(lam, u), at the
    auxiliary u of v = 0."""
    u = _auxiliary(lattice, (0,) * lattice.rank)
    return delta(net, lam, u) / chi(net, lattice, lam, u)


@dataclass(frozen=True)
class SymmetryData:
    """Everything needed to evaluate W anywhere from finitely many scalars:
    the zero lattice, xi and chi on its basis, and the reduced net, which
    gives W on the coset representatives when they are asked for."""

    p: int
    lattice: IntegerLattice
    xi_basis: tuple[PrimeFieldElement, ...]
    chi_basis: tuple[tuple[PrimeFieldElement, ...], ...]
    chi_axis: tuple[tuple[PrimeFieldElement, ...], ...]
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
                {"index": list(m), "value": self.net.residue(m)}
                for m in self.lattice.representatives()
            ],
        }


def build_symmetry_data(net: ReducedNet) -> SymmetryData:
    """Zero lattice and xi/chi tables on its basis, read off the net at
    lambda + e_i and lambda + e_i + e_j on int residues (see the module
    docstring); W on the coset representatives is left to the net.

    No divisor is 0.  ``ReducedNet`` refuses a P_i or a P_i + P_j (i != j)
    that reduces to infinity, so e_i and e_i + e_j lie outside Lambda, and
    so do lambda + e_i and lambda + e_i + e_j: W is a unit there, and so is
    every chi(lambda, e_j).  At rank 1 the index check gives rho >= 4, so
    e_1 and 2 e_1 lie outside Lambda too.
    """
    lattice = zero_lattice(net)
    _require_large_quotient(lattice)
    p, rank, basis = net.p, lattice.rank, lattice.basis

    def w(lam, *axes):  # W(lam + e_a + ...) as an int
        return net.residue([c + axes.count(k) for k, c in enumerate(lam)])

    chi_axis, xi_basis = [], []
    for lam in basis:
        row = []
        for j in range(rank):
            i = (j + 1) % rank
            row.append(w(lam, i, j) * pow(w(lam, i) * w((0,) * rank, i, j), -1, p) % p)
        chi_axis.append(row)
        xi_basis.append(w(lam, 0) * pow(row[0], -1, p) % p)
    chi_basis = [[math.prod(pow(c, n, p) for c, n in zip(row, lam)) % p for lam in basis]
                 for row in chi_axis]
    units = lambda row: tuple(_element(c, p) for c in row)
    return SymmetryData(p, lattice, units(xi_basis), tuple(map(units, chi_basis)),
                        tuple(map(units, chi_axis)), net)


def eval_by_symmetry(sd: SymmetryData, v) -> PrimeFieldElement:
    """W(v) through the closed formula for W(sum n_i lambda_i + m), on int
    residues; every table entry is a unit, so exponents are taken mod p - 1."""
    coeffs, rep = sd.lattice.decompose(tuple(int(c) for c in v))
    p = sd.p
    w = sd.net.residue(rep)
    for i, ni in enumerate(coeffs):
        if w and ni:
            terms = [(sd.xi_basis[i], ni * ni)]
            terms += [(sd.chi_basis[i][j], ni * coeffs[j]) for j in range(i)]
            terms += [(sd.chi_axis[i][j], ni * mj) for j, mj in enumerate(rep)]
            for c, e in terms:
                w = w * pow(c.residue, e % (p - 1), p) % p
    return _element(w, p)


def periodicity_check(sd: SymmetryData, samples: int = 50, seed: int = 0) -> bool:
    """Spot-check W(v + (q - 1) lambda) = W(v) for basis lambda, at random
    v with every |v_k| <= 12.

    The shifted side goes through the symmetry tables and the unshifted
    side through direct evaluation, so a corrupted table is detected.
    """
    rng = random.Random(seed)
    q = sd.p
    for _ in range(samples):
        v = tuple(rng.randint(-12, 12) for _ in range(sd.rank))
        direct = sd.net.value(v)
        for lam in sd.lattice.basis:
            shifted = tuple(a + (q - 1) * b for a, b in zip(v, lam))
            if eval_by_symmetry(sd, shifted) != direct:
                return False
    return True
