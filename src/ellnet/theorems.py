"""Executable instance checkers for the valuation and apparition theorems.

These confirm theorem statements on concrete fixtures with bounded
searches; the bounds used are always part of the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .curve import is_singular_reduction, reduce_mod_p
from .errors import NotEllipticSequenceError, PreconditionError, SingularReductionError
from .fieldarith import PrimeFieldElement, Valuation, val_p
from .net import EllipticNet, QuadraticFormData, box_indices
from .lattice import Vector


def _axis(rank: int, i: int, n: int = 1) -> Vector:
    v = [0] * rank
    v[i] = n
    return tuple(v)


def _plus(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


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

    @property
    def verdict(self) -> bool:
        return self.properties["e"]

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


def _positive(v: Valuation) -> bool:
    return v > 0


def ayad_equivalence_report(net: EllipticNet, p: int, box_radius: int = 3,
                            n_max: int = 12) -> AyadReport:
    """Evaluate properties (a)-(e) with bounded searches over an exact net.

    The standing hypotheses P_i != infinity and P_i +- P_j != infinity
    mod p are recorded as warnings when violated rather than refused: the
    bad-reduction fixtures exercise exactly those edges.
    """
    curve = net.curve
    if not curve.is_integral:
        raise PreconditionError("Ayad checker requires an integral model")
    warnings = []
    for i, pt in enumerate(net.points):
        if reduce_mod_p(curve, pt, p).is_infinity:
            raise PreconditionError(f"P_{i} reduces to infinity mod {p}")
    for i in range(net.rank):
        for j in range(i + 1, net.rank):
            for sign, combo in (("+", curve.add(net.points[i], net.points[j])),
                                ("-", curve.sub(net.points[i], net.points[j]))):
                if combo.is_infinity or reduce_mod_p(curve, combo, p).is_infinity:
                    warnings.append(f"P_{i} {sign} P_{j} = infinity (mod {p})")

    rank = net.rank
    vp = lambda idx: val_p(net.value(idx), p)
    props: dict[str, bool] = {}
    wit: dict[str, object] = {}

    props["a"] = False
    for i in range(rank):
        if _positive(vp(_axis(rank, i, 2))) and _positive(vp(_axis(rank, i, 3))):
            props["a"], wit["a"] = True, i
            break
    props["b"] = False
    for i in range(rank):
        if all(_positive(vp(_axis(rank, i, n))) for n in range(2, n_max + 1)):
            props["b"], wit["b"] = True, i
            break
    props["c"] = False
    for v in box_indices(rank, box_radius):
        if not _positive(vp(v)):
            continue
        for i in range(rank):
            if _positive(vp(_plus(v, _axis(rank, i)))):
                props["c"], wit["c"] = True, (v, i)
                break
        if props["c"]:
            break
    props["d"] = False
    x1 = net.points[0].x
    for v in box_indices(rank, box_radius):
        if not _positive(vp(v)):
            continue
        phi = net.value(v) ** 2 * x1 - net.value(_plus(v, _axis(rank, 0))) * net.value(
            tuple(a - b for a, b in zip(v, _axis(rank, 0))))
        if _positive(val_p(phi, p)):
            props["d"], wit["d"] = True, v
            break
    props["e"] = False
    for i, pt in enumerate(net.points):
        if is_singular_reduction(curve, pt, p):
            props["e"], wit["e"] = True, i
            break
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

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "scaled": self.scaled,
            "entries": [{"index": list(v), "denominator": a, "net": b}
                        for v, a, b in self.entries],
            "mismatches": [list(v) for v in self.mismatches],
        }


def _grid(rank: int, shape) -> list[Vector]:
    if isinstance(shape, int):
        return [v for v in box_indices(rank, shape) if any(v)]
    if rank != len(shape):
        raise ValueError("grid shape does not match rank")
    import itertools
    return [v for v in itertools.product(*(range(s + 1) for s in shape)) if any(v)]


def valuation_match_report(net: EllipticNet, p: int, grid,
                           scaled: bool = True,
                           require_nonsingular: bool = True) -> ValuationReport:
    """Compare val_p(D_{v.P}) with val_p(Psi-hat_v) over a grid of indices.

    ``grid``: an int radius (max-norm box) or per-axis upper bounds.  With
    ``scaled=False`` the raw net value is compared instead, which is the
    comparison that breaks at the finitely many exceptional primes.
    """
    curve = net.curve
    if require_nonsingular:
        for i, pt in enumerate(net.points):
            if is_singular_reduction(curve, pt, p):
                raise PreconditionError(
                    f"P_{i} has singular reduction mod {p}; "
                    "pass require_nonsingular=False to inspect anyway"
                )
    qdata = QuadraticFormData.from_curve_points(curve, net.points) if scaled else None
    entries = []
    mismatches = []
    for v in _grid(net.rank, grid):
        dval = val_p(net.denominator(v), p).unwrap()
        w = net.value(v)
        if scaled:
            w = w * qdata.value(v)
        nval = val_p(w, p).unwrap()
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


def _epsilon(net: EllipticNet, p: int, v: Vector, value: Callable) -> Fraction | None:
    """eps(v) = lambda_p(v.P) - val_p(disc)/12 - val_p(W(v)), with W(v) from
    ``value``; eps(0) = 0, and None where v.P is the identity."""
    if not any(v):
        return Fraction(0)
    height = net.local_height(v, p)
    if height is None:
        return None
    vdisc = val_p(Fraction(net.curve.discriminant), p).unwrap()
    return height - Fraction(vdisc, 12) - val_p(value(v), p).unwrap()


def epsilon_value(net: EllipticNet, p: int, v: Vector) -> Fraction:
    """eps(v) = lambda_p(v.P) - val_p(disc)/12 - val_p(W(v)); eps(0) = 0."""
    eps = _epsilon(net, p, v, net.value)
    if eps is None:
        raise SingularReductionError(f"{v} . P is the identity; eps undefined")
    return eps


def epsilon_quadratic_check(net: EllipticNet, p: int, box_radius: int,
                            value_fn: Callable | None = None) -> bool:
    """Parallelogram law and integrality of eps over a box of index pairs.

    Pairs whose epsilon is undefined (a combination hits the identity) are
    skipped.  ``value_fn`` overrides net evaluation, which the fault
    injection tests use.
    """
    value = value_fn or net.value
    cache: dict[Vector, Fraction | None] = {}

    def eps(v: Vector) -> Fraction | None:
        if v not in cache:
            cache[v] = _epsilon(net, p, v, value)
        return cache[v]

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
