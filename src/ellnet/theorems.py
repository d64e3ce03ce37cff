"""Executable instance checkers for the valuation and apparition theorems.

These confirm theorem statements on concrete fixtures with bounded
searches; the bounds used are always part of the report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

from .errors import NotEllipticSequenceError, PreconditionError, SingularReductionError
from .fieldarith import PrimeFieldElement, val_p
from .net import EllipticNet, box_indices, reduce_base_points
from .lattice import Vector
from .symmetry import _axis_index, _plus


@dataclass
class AyadReport:
    """Truth values and witnesses for the five equivalent properties.

    (a) some axis has val(W(2 e_i)) > 0 and val(W(3 e_i)) > 0;
    (b) some axis has val(W(n e_i)) > 0 for all 2 <= n <= n_max;
    (c) some v in the box has val(W(v)) > 0 and val(W(v + e_i)) > 0;
    (d) some v in the box has val(W(v)) > 0 and val(Phi_v) > 0;
    (e) some P_i has singular reduction.
    """

    p: int
    box_radius: int
    n_max: int
    properties: dict[str, bool]
    witnesses: dict[str, object]
    hypothesis_warnings: list[str] = field(default_factory=list)

    @property
    def all_equivalent(self) -> bool:
        return len(set(self.properties.values())) == 1

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "bounds": {"box_radius": self.box_radius, "n_max": self.n_max},
            "properties": dict(self.properties),
            "witnesses": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in self.witnesses.items()},
            "all_equivalent": self.all_equivalent,
            "hypothesis_warnings": list(self.hypothesis_warnings),
        }


def ayad_equivalence_report(net: EllipticNet, p: int, box_radius: int = 3,
                            n_max: int = 12) -> AyadReport:
    """Evaluate properties (a)-(e) with bounded searches over an exact net.

    A P_i that reduces to infinity mod p is refused, and so is a net with
    no integral model; each P_i +- P_j that reduces to infinity is recorded
    as a warning rather than refused (``reduce_base_points``): the
    bad-reduction fixtures exercise exactly those edges.  A value that is
    zero counts as divisible by p.  (e) reads the net's
    ``_singular_moduli``.
    """
    _, warnings = reduce_base_points(net, p)

    rank = net.rank
    divides = lambda x: x == 0 or val_p(x, p) > 0  # p divides 0
    divides_w = lambda idx: divides(net.value(idx))
    props: dict[str, bool] = {}
    wit: dict[str, object] = {}

    def search(name: str, candidates, holds: Callable) -> None:
        """Property ``name`` holds when some candidate passes; the first is its witness."""
        found = next((c for c in candidates if holds(c)), None)
        props[name] = found is not None
        if props[name]:
            wit[name] = found

    axes = range(rank)
    search("a", axes, lambda i: divides_w(_axis_index(rank, i, 2)) and divides_w(_axis_index(rank, i, 3)))
    search("b", axes, lambda i: all(divides_w(_axis_index(rank, i, n)) for n in range(2, n_max + 1)))
    divisible = lambda: (v for v in box_indices(rank, box_radius) if divides_w(v))
    search("c", ((v, i) for v in divisible() for i in axes),
           lambda vi: divides_w(_plus(vi[0], _axis_index(rank, vi[1], 1))))
    x1, e1 = net.points[0].x, _axis_index(rank, 0, 1)
    search("d", divisible(), lambda v: divides(net.value(v) ** 2 * x1 - net.value(_plus(v, e1))
                                               * net.value(tuple(a - b for a, b in zip(v, e1)))))
    search("e", axes, lambda i: net._singular_moduli[i] % p == 0)
    return AyadReport(p, box_radius, n_max, props, wit, warnings)


@dataclass
class ValuationReport:
    """Grid comparison of val_p(D_{v.P}) against val_p of the rescaled net."""

    p: int
    scaled: bool
    entries: list[tuple[Vector, int, int]]
    mismatches: list[Vector]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _grid(rank: int, shape) -> list[Vector]:
    if isinstance(shape, int):
        return [v for v in box_indices(rank, shape) if any(v)]
    if rank != len(shape):
        raise ValueError("grid shape does not match rank")
    return [v for v in itertools.product(*(range(s + 1) for s in shape)) if any(v)]


def valuation_match_report(net: EllipticNet, p: int, grid,
                           scaled: bool = True,
                           require_nonsingular: bool = True) -> ValuationReport:
    """Compare val_p(D_{v.P}) with val_p(Psi-hat_v) over a grid of indices.

    ``grid``: an int radius (max-norm box) or per-axis upper bounds.  With
    ``scaled=False`` the raw net value is compared instead, which is the
    comparison that breaks at the finitely many exceptional primes.
    Psi-hat is read off the net (``scaled_value``).  D comes from the
    group-law chain (``EllipticNet._chain_denominator``),
    not from ``denominator``, which reads it off the net at ranks 1 and 2:
    so the check compares the net with the group law.  With
    ``require_nonsingular`` a P_i that reduces to the singular point mod p
    (the net's ``_singular_moduli``) is refused; one that reduces to
    infinity is nonsingular and passes.
    """
    if require_nonsingular:
        for i, m in enumerate(net._singular_moduli):
            if m % p == 0:
                raise PreconditionError(
                    f"P_{i} has singular reduction mod {p}; "
                    "pass require_nonsingular=False to inspect anyway"
                )
    entries = []
    mismatches = []
    for v in _grid(net.rank, grid):
        dval = val_p(net._chain_denominator(v), p)
        nval = val_p(net.scaled_value(v) if scaled else net.value(v), p)
        entries.append((v, dval, nval))
        if dval != nval:
            mismatches.append(v)
    return ValuationReport(p, scaled, entries, mismatches)


def unique_apparition_test(values: Sequence, p: int | None = None) -> bool:
    """Ward's criterion on a finite elliptic sequence W_0..W_N.

    Validates the defining recurrence on every index pair first, then
    returns True exactly when W_3 and W_4 are not both zero; the answer is
    cross-checked against the zero pattern of the supplied values.
    """
    w = list(values)
    if p is not None:
        w = [x if isinstance(x, PrimeFieldElement) else PrimeFieldElement(int(x), p) for x in w]
    if len(w) < 5 or w[0] != 0:
        raise PreconditionError("need values W_0 = 0 .. W_N with N >= 4")
    n_max = len(w) - 1
    for m in range(1, n_max):
        for n in range(1, m + 1):
            if m + n > n_max:
                break
            lhs = w[m + n] * w[m - n] * w[1] ** 2
            rhs = w[m + 1] * w[m - 1] * w[n] ** 2 - w[n + 1] * w[n - 1] * w[m] ** 2
            if lhs != rhs:
                raise NotEllipticSequenceError(f"recurrence fails at (m, n) = ({m}, {n})")
    unique = not (w[3] == 0 and w[4] == 0)
    zeros = [n for n in range(1, n_max + 1) if w[n] == 0]
    if zeros:
        rho = zeros[0]
        pattern_unique = rho > 1 and zeros == list(range(rho, n_max + 1, rho))
        if pattern_unique != unique:
            raise AssertionError("Ward criterion disagrees with the zero pattern")
    return unique


def _epsilon(net: EllipticNet, p: int, v: Vector) -> Fraction | None:
    """eps(v) = lambda_p(v.P) - val_p(disc)/12 - val_p(W(v)); eps(0) = 0,
    and None where v.P is the identity."""
    if not any(v):
        return Fraction(0)
    height = net.local_height(v, p)
    if height is None:
        return None
    return height - Fraction(val_p(net.curve.discriminant, p), 12) - val_p(net.value(v), p)


def epsilon_value(net: EllipticNet, p: int, v: Vector) -> Fraction:
    """eps(v) = lambda_p(v.P) - val_p(disc)/12 - val_p(W(v)); eps(0) = 0."""
    eps = _epsilon(net, p, v)
    if eps is None:
        raise SingularReductionError(f"{v} . P is the identity; eps undefined")
    return eps


def epsilon_quadratic_check(net: EllipticNet, p: int, box_radius: int) -> bool:
    """Parallelogram law and integrality of eps over a box of index pairs.

    Pairs whose epsilon is undefined (a combination hits the identity) are
    skipped.
    """
    eps = cache(lambda v: _epsilon(net, p, v))
    box = box_indices(net.rank, box_radius)
    for v in box:
        ev = eps(v)
        if ev is not None and ev.denominator != 1:
            return False
    for v in box:
        for w in box:
            needed = [eps(v), eps(w), eps(_plus(v, w)),
                      eps(tuple(a - b for a, b in zip(v, w)))]
            if any(e is None for e in needed):
                continue
            if needed[2] + needed[3] != 2 * needed[0] + 2 * needed[1]:
                return False
    return True
