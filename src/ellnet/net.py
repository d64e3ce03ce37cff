"""Elliptic nets of rank r: net polynomial values, denominators, rescaling.

One rule, ``_net_value``, gives each value its source, over Q and over
F_p alike: the box |u| <= 3 from the net's box callback, an axis index
from the division polynomial (``DivisionPolynomials.psi``, Shipsey's
doubling), and every other index from one halving ladder, ``_ladder``,
whose leaves are that box and psi on the axes.  A recurrence instance
(``_ladder_terms``) writes W(u) as a difference of two products of four
values near u / 2, with no division, so O(log |u|) levels of a bounded
number of values each reach the leaves.  One parity rule
(``_ladder_units``) picks the instance at every rank from 2 to
LADDER_MAX_RANK.  Where the ladder raises, and on a net of rank above
LADDER_MAX_RANK, the box callback answers.  The nets differ only in their
callbacks, the box, psi and the combine step:

* an exact net over Q on the points strategy: the points route, psi over
  Q, and the identity on exact values.  So rank 1 takes psi above the box
  and ranks 2 to 6 the ladder.
* ``ReducedNet``: ``exact_value`` (exact over Q, then reduced), psi of the
  reduced point, and ``x % p`` on int residues.

The box of an exact net, and every value of a net on the recurrence
strategy or over F_p, comes from ``EllipticNet._run``: an explicit stack of
steps, each a generator that asks for the values it needs on its route, so
the depth of an evaluation is bounded by memory, not by the interpreter's
recursion limit.  There are two routes.

* ``points``: the base values, then the addition identity
  ``W(v+u) = W(v)^2 W(u)^2 (X_u - X_v) / W(v-u)`` with ``u = +-e_i`` and the
  x-coordinates supplied by the curve group law.  The step axis is the one
  with the largest coordinate, so the max-norm shrinks toward the initial
  values, one step per unit of |v|.  An exact net on an integral model
  caches v . P as the integer triple (A, B, D) with
  v . P = (A / D^2, B / D^3) in lowest terms, filled by the integer group
  law of ``curve.IntegralModel``; the step reads x = A / D^2 from it, and
  ``denominator`` reads D_{v . P} off it.  Other nets cache ``CurvePoint``
  values from ``WeierstrassCurve.add``.  Over Q this route serves the box
  of the rule, the index where the ladder raises, every value of a net of
  rank above LADDER_MAX_RANK, and the group-law oracle of the tests; over
  F_p it is a linear oracle, which no library caller takes.
* ``recurrence``: pure recurrence instantiations grounded in the initial
  values, with no group-law input.  Rank 1 delegates to the division
  polynomial doubling identities; rank 2 uses a fixed well-founded schedule
  of instantiations of the four-index recurrence (axis, adjacent-line and
  interior formulas), validated against the points strategy.  It never
  takes the ladder, so it stays an independent oracle.

The strategy of a net names the route its values start on.  Exact values
over Q never divide by zero when the base points are independent; a zero
divisor there raises ``DependentPointsError``.  For dependent points the
contract is: every index the points route answers gets the same value, and
no such index raises, since an index whose ladder box raises is evaluated
on the points route instead.  An index the points route refuses with
``DependentPointsError`` may get Psi_v(P) from the division-free ladder or
psi, at any rank.  Over a prime field a zero divisor on either route raises
``DegenerateNetError``; ``ReducedNet`` meets none on the ladder.

``route_counts`` on a net counts its memoized values by route (base, psi,
ladder, points, recurrence), and on a ``ReducedNet`` its residues by
source (exact, psi, ladder).
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from operator import add, mul, sub
from typing import Callable, Sequence

from .curve import (INFINITY, CurvePoint, IntegralModel, WeierstrassCurve, decompose,
                    neron_local_height, reduce_curve, reduce_mod_p)
from .divpoly import DivisionPolynomials
from .errors import (
    DegenerateNetError,
    DegeneratePairError,
    DependentPointsError,
    EllnetError,
    NonIntegralReductionError,
    PreconditionError,
    SingularCurveError,
)
from .fieldarith import PrimeFieldElement

Index = tuple[int, ...]

POINTS = "points"
RECURRENCE = "recurrence"


def initial_net_value(curve: WeierstrassCurve, points: Sequence[CurvePoint], v: Sequence[int]):
    """Net value for v in {e_i, 2e_i, e_i + e_j, 2e_i + e_j}, else None."""
    nonzero = [(i, c) for i, c in enumerate(v) if c]
    one = points[0].x ** 0
    if len(nonzero) == 1:
        i, c = nonzero[0]
        if c == 1:
            return one
        if c == 2:
            x, y = points[i].x, points[i].y
            return 2 * y + curve.a1 * x + curve.a3
    elif len(nonzero) == 2:
        (i, ci), (j, cj) = nonzero
        if ci == cj == 1:
            return one
        if {ci, cj} == {1, 2}:
            if ci == 1:
                i, j = j, i
            xi, yi = points[i].x, points[i].y
            xj, yj = points[j].x, points[j].y
            if xi == xj:
                raise DegeneratePairError("base points share an x-coordinate")
            s = (yj - yi) / (xj - xi)
            return 2 * xi + xj - s * s - curve.a1 * s + curve.a2
    return None


def _recurrence_terms(m: int, n: int):
    """The schedule entry (first, second, sign, divisor) for W(m, n), m >= 0.

    W(m, n) = (prod W(first) + sign * prod W(second)) / prod W(divisor),
    each an instantiation of the four-index recurrence (axis, adjacent-line
    and interior formulas) on indices that are smaller in the schedule.
    """
    if m == 0:  # n >= 4; the swapped axis formula
        return (((1, n - 1), (-1, n - 2), (0, 2)),
                ((1, 2), (-1, 1), (0, n - 1), (0, n - 2)), -1, ((0, n - 3),))
    if n == 0:
        return (((m - 1, 1), (m - 2, -1), (2, 0)),
                ((2, 1), (1, -1), (m - 1, 0), (m - 2, 0)), -1, ((m - 3, 0),))
    if n == 1:
        return (((m - 1, 1), (m - 1, -1)),
                ((1, 2), (m - 1, 0), (m - 1, 0)), -1, ((m - 2, -1),))
    if n == -1:
        return (((m - 1, 1), (m - 1, -1), (1, -1), (1, -1)),
                ((1, -2), (m - 1, 0), (m - 1, 0)), -1, ((m - 2, 1),))
    if n >= 2 and m == 1:
        return (((0, 2), (1, n - 1), (0, n - 1)),
                ((0, n), (1, n - 2)), -1, ((0, n - 2), (1, -1)))
    if n >= 2:
        return (((m, n - 1), (m - 2, n)),
                ((2, 0), (m - 1, n), (m - 1, n - 1)), -1, ((m - 2, n - 1), (1, -1)))
    if m == 1:  # n <= -2
        return (((0, 2), (1, n + 1), (0, n + 1)),
                ((1, -1), (0, n), (1, n + 2)), -1, ((0, n + 2),))
    return (((2, 0), (m - 1, n), (m - 1, n + 1)),
            ((1, -1), (m, n + 1), (m - 2, n)), 1, ((m - 2, n + 1),))


LADDER_BASE_NORM = 3
LADDER_MAX_RANK = 6


@cache
def _ladder_units(parity: Index) -> tuple[Index, Index, Index]:
    """(g, c, h) of the halving ladder for the indices u of one parity class:
    units e_i or e_i + e_j, where W = 1, with g + c + h = u (mod 2).  The
    odd coordinates of u are shared out over the three units, singly and
    then in pairs, so at most six can be odd; one or two odd coordinates
    are padded with e1, e1, and none gives e1, e2, e1 + e2, so the rank
    must be at least 2."""
    odd = [i for i, b in enumerate(parity) if b]
    singles = 6 - len(odd)
    if len(parity) < 2 or singles < 0:
        raise PreconditionError("the halving ladder takes two axes and at most six odd coordinates")
    if not odd:
        groups = [[0], [1], [0, 1]]
    elif len(odd) <= 2:
        groups = [[0], [0], odd]
    else:
        groups = [[i] for i in odd[:singles]] + [odd[k:k + 2] for k in range(singles, len(odd), 2)]
    return tuple(tuple(int(i in group) for i in range(len(parity))) for group in groups)


# the rank-2 table that the unrolled step of _ladder_terms reads
_LADDER = {parity: _ladder_units(parity) for parity in itertools.product((0, 1), repeat=2)}


def _ladder_terms(u: Index) -> tuple[tuple[Index, ...], tuple[Index, ...]]:
    """The halving step (first, second) with W(u) = prod W(first) - prod W(second).

    The net recurrence at p = v + a, q = v + b, r = c, s = d, with g = a - b,
    c and h = c + d units from ``_ladder_units``, where W = 1, reads

        W(u) = W(A+h) W(A-c) W(B+d) W(B) - W(B+h) W(B-c) W(A+d) W(A)

    for u = 2v + a + b + d, A = (u + g - d) / 2 and B = A - g.  The parity
    of u fixes (g, c, h) so that u + g - d is even; for max-norm above
    LADDER_BASE_NORM every index on the right is then smaller in max-norm.
    It is a halving step in the spirit of Shipsey's EDS doubling and
    Stange's double-and-add on elliptic nets ("The Tate pairing via
    elliptic nets").  Rank 2 is unrolled, about four times faster than the
    tuple arithmetic that serves the higher ranks.
    """
    if len(u) == 2:
        (g1, g2), (c1, c2), (h1, h2) = _LADDER[u[0] & 1, u[1] & 1]
        d1, d2 = h1 - c1, h2 - c2
        a1, a2 = (u[0] + g1 - d1) // 2, (u[1] + g2 - d2) // 2
        b1, b2 = a1 - g1, a2 - g2
        return (((a1 + h1, a2 + h2), (a1 - c1, a2 - c2), (b1 + d1, b2 + d2), (b1, b2)),
                ((b1 + h1, b2 + h2), (b1 - c1, b2 - c2), (a1 + d1, a2 + d2), (a1, a2)))
    g, c, h = _ladder_units(tuple(x & 1 for x in u))
    d = tuple(map(sub, h, c))
    a = tuple((x + y - z) // 2 for x, y, z in zip(u, g, d))
    b = tuple(map(sub, a, g))
    return ((tuple(map(add, a, h)), tuple(map(sub, a, c)), tuple(map(add, b, d)), b),
            (tuple(map(add, b, h)), tuple(map(sub, b, c)), tuple(map(add, a, d)), a))


def _max_norm(v: Index) -> int:
    return max(map(abs, v))


def _ladder(target: Index, memo: dict, leaf: Callable[[Index], object],
            combine: Callable[[object], object], counts: Counter):
    """Memoize W(target) for a normalized index by the halving ladder.

    ``leaf(u)`` gives W(u) for an index the ladder does not split and None
    for one it splits; it must answer every u of max-norm at most
    LADDER_BASE_NORM, where ``_ladder_terms`` does not shrink.  The indices
    the target needs are collected top-down, then ``memo`` (keyed by
    normalized index) is filled in increasing max-norm with
    ``combine(prod W(first) - prod W(second))``: ``x % p`` keeps residues
    reduced, the identity keeps exact values.  The step multiplies and
    subtracts but never divides, so it meets no zero divisor, and the
    target is reached in O(log |target|) levels of a bounded number of
    values each.  ``counts["ladder"]`` counts the values the steps memoize.
    """
    steps: dict[Index, list[tuple[Index, int]]] = {}
    stack = [target]
    while stack:
        u = stack.pop()
        if u in memo or u in steps:
            continue
        w = leaf(u)
        if w is not None:
            memo[u] = w
            continue
        steps[u] = [_normalize(t) for t in itertools.chain(*_ladder_terms(u))]
        stack.extend(key for key, _ in steps[u])
    for u in sorted(steps, key=_max_norm):
        w = [memo[key] if s > 0 else -memo[key] for key, s in steps[u]]
        memo[u] = combine(w[0] * w[1] * w[2] * w[3] - w[4] * w[5] * w[6] * w[7])
    counts["ladder"] += len(steps)


def _net_value(key: Index, memo: dict, box: Callable[[Index], object],
               psi: Callable[[int, int], object], combine: Callable[[object], object],
               counts: Counter):
    """Memoize W(key) for a normalized index by the source rule of the
    module docstring.  ``leaf`` answers the box from ``box(u)`` and an axis
    index from ``psi(axis, n)``, counted in ``counts["psi"]``; the ladder
    splits every other index, and an axis index where psi raises."""
    def leaf(u: Index):
        if _max_norm(u) <= LADDER_BASE_NORM:
            return box(u)
        axes = [i for i, c in enumerate(u) if c]
        if len(axes) > 1:
            return None
        try:
            w = psi(axes[0], u[axes[0]])
        except EllnetError:
            return None
        counts["psi"] += 1
        return w

    w = leaf(key) if len(key) <= LADDER_MAX_RANK else box(key)
    if w is None:
        try:
            _ladder(key, memo, leaf, combine, counts)
            return
        except EllnetError:
            w = box(key)
    memo[key] = w


def _exact(x):
    return x


def _normalize(v: Index) -> tuple[Index, int]:
    """Oddness normalization: first nonzero coordinate made positive."""
    for c in v:
        if c > 0:
            return v, 1
        if c < 0:
            return tuple(-a for a in v), -1
    return v, 1


class EllipticNet:
    """Memoized elliptic net W(v) = Psi_v(P) for a fixed curve and point tuple."""

    def __init__(self, curve: WeierstrassCurve, points: Sequence[CurvePoint],
                 strategy: str = POINTS):
        if strategy not in (POINTS, RECURRENCE):
            raise ValueError(f"unknown strategy {strategy!r}")
        points = tuple(points)
        if not points:
            raise PreconditionError("at least one base point is required")
        for pt in points:
            if pt.is_infinity:
                raise PreconditionError("base points must be affine")
            curve.require_on_curve(pt)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if points[i].x == points[j].x:
                    raise DegeneratePairError(
                        f"points {i} and {j} share an x-coordinate"
                    )
        self.curve = curve
        self.points = points
        self.rank = len(points)
        self.strategy = strategy
        self._zero = points[0].x - points[0].x
        self._one = points[0].x ** 0
        self._values: dict[Index, object] = {}
        law = self._law = IntegralModel(curve) if curve.is_integral else None
        if law is None:
            cached, neg, origin = points, curve.neg, INFINITY
        else:
            cached, neg, origin = [law.triple(pt) for pt in points], law.neg, None
        # (P_i, -P_i) in the cache's form
        self._steps = tuple((pt, neg(pt)) for pt in cached)
        self._points_cache: dict[Index, object] = {(0,) * self.rank: origin}
        self._recurrence_base: dict[Index, object] | None = None
        self._axis_divpoly: dict[int, DivisionPolynomials] = {}
        # memoized values by the route that produced them
        self.route_counts: Counter = Counter()

    @property
    def is_rational(self) -> bool:
        return self.curve.gf_modulus is None

    # ------------------------------------------------------------------
    # point cache
    # ------------------------------------------------------------------

    def point(self, v: Sequence[int]) -> CurvePoint:
        """v . P = v_1 P_1 + ... + v_r P_r."""
        pt = self._cached_point(self._key(v))
        return pt if self._law is None else self._law.point(pt)

    def _cached_point(self, v: Index):
        """v . P from the point cache, via cached single additions: an
        (A, B, D) triple (None at the identity) on an integral rational
        model, else a ``CurvePoint``.

        The chain toward the origin decrements the same axis the evaluation
        step uses, so successive queries along the evaluation path reuse the
        cached predecessor instead of rebuilding whole rows.
        """
        cache = self._points_cache
        chain = []
        t = v
        while t not in cache:
            chain.append(t)
            i = self._step_axis(t)
            s = 1 if t[i] > 0 else -1
            t = t[:i] + (t[i] - s,) + t[i + 1:]
        add_points = self.curve.add if self._law is None else self._law.add
        for t in reversed(chain):
            i = self._step_axis(t)
            s = 1 if t[i] > 0 else -1
            parent = t[:i] + (t[i] - s,) + t[i + 1:]
            cache[t] = add_points(cache[parent], self._steps[i][s < 0])
        return cache[v]

    def local_height(self, v: Sequence[int], p: int) -> Fraction | None:
        """lambda_p(v . P) as ``neron_local_height``, None at the identity.

        On an integral model it is read off the cached (A, B, D) triple.
        """
        pt = self._cached_point(self._key(v))
        if self._is_identity(pt):
            return None
        if self._law is None:
            return neron_local_height(self.curve, pt, p)
        return self._law.local_height(pt, p)

    def _is_identity(self, pt) -> bool:
        return pt.is_infinity if self._law is None else pt is None

    def _key(self, v: Sequence[int]) -> Index:
        v = tuple(int(c) for c in v)
        if len(v) != self.rank:
            raise ValueError(f"index length {len(v)} does not match rank {self.rank}")
        return v

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def value(self, v: Sequence[int]):
        """W(v) in the base field: on the points strategy over Q from the
        rule of ``_net_value``, else on the strategy's route."""
        v = self._key(v)
        key, sign = _normalize(v)
        if key not in self._values:
            if self.strategy == POINTS and self.is_rational:
                _net_value(key, self._values, self._points_value, self._axis_psi, _exact,
                           self.route_counts)
            else:
                self._run(self.strategy, key)
        result = self._values[key]
        return -result if sign < 0 else result

    def _points_value(self, u: Index):
        self._run(POINTS, u)
        return self._values[u]

    def _run(self, route: str, target: Index) -> None:
        """Evaluate W(target) on an explicit stack of steps on one route.

        A step is a generator for one index.  It yields each index whose
        value it needs, is sent the signed W(index), and returns
        ``(label, value)`` for its own index: the value is memoized and
        counted in ``route_counts`` under the label.  Every step asks for
        indices that are smaller in a well-founded order, so the stack
        never meets an index twice, and an error raised by a step (a zero
        divisor) ends the evaluation.
        """
        values = self._values
        make = self._solve if route == POINTS else self._recurrence
        stack = [(target, 1, make(target))]
        reply = None
        while stack:
            key, sign, step = stack[-1]
            try:
                index = step.send(reply)
            except StopIteration as done:
                label, value = done.value
                values[key] = value
                self.route_counts[label] += 1
                reply = -value if sign < 0 else value
                stack.pop()
                continue
            key, sign = _normalize(index)
            if key in values:
                reply = values[key] if sign > 0 else -values[key]
            else:
                stack.append((key, sign, make(key)))
                reply = None

    def _degenerate(self, what: str) -> EllnetError:
        """The error for a zero divisor, chosen by the field: over Q it
        means the base points are dependent, over F_p it is a zero of the
        reduced net."""
        if self.is_rational:
            return DependentPointsError(f"{what}: base points are dependent")
        return DegenerateNetError(f"{what} mod {self.curve.gf_modulus}")

    def _base_value(self, v: Index):
        if not any(v):
            return self._zero
        return initial_net_value(self.curve, self.points, v)

    def _solve(self, v: Index):
        """The points route: a base value, the support reduction, or one
        point step on the axis with the largest coordinate."""
        base = self._base_value(v)
        if base is not None:
            return "base", base
        if self._is_small_support(v):
            return "points", (yield from self._support_reduce(v))
        return "points", (yield from self._point_step(v, self._step_axis(v)))

    def _point_step(self, v: Index, axis: int):
        """W(v) = W(w)^2 (x(P_i) - x(w . P)) / W(w - s e_i), w = v - s e_i."""
        s = 1 if v[axis] > 0 else -1
        w = v[:axis] + (v[axis] - s,) + v[axis + 1:]
        w_val = yield w
        wmu_val = yield w[:axis] + (w[axis] - s,) + w[axis + 1:]
        if wmu_val == 0:
            raise self._degenerate(f"zero divisor in the point step at {v}")
        try:
            pw = self._cached_point(w)
        except SingularCurveError as exc:
            # combinations through the singular point have no usable x-step
            raise self._degenerate(str(exc)) from exc
        if self._is_identity(pw):
            raise self._degenerate(f"{w} . P is the identity")
        xw = pw.x if self._law is None else self._law.x(pw)
        return w_val * w_val * (self.points[axis].x - xw) / wmu_val

    def _support_reduce(self, v: Index):
        """W(v) for an index with every coordinate in {-1, 0, 1} and at
        least three nonzero entries.

        The axis step does not shrink such indices, so they are resolved by
        the recurrence instantiation (p, q, r, s) =
        (e_i + w, e_i + s_k e_k, -e_i, -e_i) with v = e_i + w + s_k e_k,
        which only references indices of smaller support.
        """
        i = next(k for k, c in enumerate(v) if c == 1)
        k = next(k for k, c in enumerate(v) if c and k != i)
        sk = v[k]
        w = list(v)
        w[i] = 0
        w[k] = 0
        w = tuple(w)

        def shift(base: Index, *moves: tuple[int, int]) -> Index:
            out = list(base)
            for axis, delta in moves:
                out[axis] += delta
            return tuple(out)

        zero = (0,) * self.rank
        psi2_i = yield shift(zero, (i, 2))
        divisor = (yield shift(w, (k, -sk))) * psi2_i
        if divisor == 0:
            raise self._degenerate(f"zero divisor in the support reduction at {v}")
        t2 = ((yield shift(zero, (k, sk), (i, -1)))
              * (yield shift(zero, (i, 2), (k, sk)))
              * (yield w)
              * (yield shift(w, (i, 1))))
        t3 = ((yield shift(w, (i, -1)))
              * (yield shift(tuple(-c for c in w), (i, -2)))
              * sk
              * (yield shift(zero, (i, 1), (k, sk))))
        return -(t2 + t3) / divisor

    @staticmethod
    def _is_small_support(v: Index) -> bool:
        return max(abs(c) for c in v) == 1 and sum(1 for c in v if c) >= 3

    @staticmethod
    def _step_axis(v: Index) -> int:
        """The axis of the point step: the first with the largest |coordinate|."""
        return max(range(len(v)), key=lambda i: abs(v[i]))

    def _axis_psi(self, axis: int, n: int):
        """Axis values through the division polynomial doubling identities."""
        if axis not in self._axis_divpoly:
            self._axis_divpoly[axis] = DivisionPolynomials(self.curve, self.points[axis])
        return self._axis_divpoly[axis].psi(n)

    # ------------------------------------------------------------------
    # recurrence (rank <= 2)
    # ------------------------------------------------------------------

    def _recurrence_bases(self) -> dict[Index, object]:
        if self._recurrence_base is not None:
            return self._recurrence_base
        if self.rank != 2:
            raise PreconditionError("recurrence schedule is defined for rank <= 2")
        init = {}
        for v in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)):
            init[v] = initial_net_value(self.curve, self.points, v)
        init[(0, 0)] = self._zero
        # instantiations of the net recurrence published with the initial data:
        #   W(e1-e2)   = W(e1+2e2) - W(2e1+e2)
        #   W(2e1-e2)  = W(2e1) W(2e2) - W(2e1+e2) W(e1-e2)^2   (and swapped)
        init[(1, -1)] = init[(1, 2)] - init[(2, 1)]
        init[(2, -1)] = init[(2, 0)] * init[(0, 2)] - init[(2, 1)] * init[(1, -1)] ** 2
        init[(1, -2)] = -(init[(0, 2)] * init[(2, 0)] - init[(1, 2)] * init[(1, -1)] ** 2)
        init[(3, 0)] = init[(2, 1)] * init[(2, -1)] - init[(2, 0)] ** 2 * init[(1, -1)]
        init[(0, 3)] = -init[(1, 2)] * init[(1, -2)] + init[(0, 2)] ** 2 * init[(1, -1)]
        self._recurrence_base = init
        return init

    def _recurrence(self, v: Index):
        """W(v) from the recurrence schedule alone; the values it needs are
        asked on this route too, never through the points route."""
        if self.rank == 1:
            return "recurrence", self._axis_psi(0, v[0])
        base = self._recurrence_bases()
        if v in base:
            return "base", base[v]
        first, second, sign, divisor = _recurrence_terms(*v)
        vals = []
        for index in first + second + divisor:
            vals.append((yield index))
        a, b = len(first), len(first) + len(second)
        den = reduce(mul, vals[b:])
        if den == 0:
            raise self._degenerate(f"zero divisor in the recurrence at {v}")
        num1, num2 = reduce(mul, vals[:a]), reduce(mul, vals[a:b])
        return "recurrence", (num1 + num2 if sign > 0 else num1 - num2) / den

    # ------------------------------------------------------------------
    # denominators
    # ------------------------------------------------------------------

    def denominator(self, v: Sequence[int]) -> int:
        """D_{v . P}; zero for v = 0 by the table convention."""
        v = self._key(v)
        if not any(v):
            return 0
        if not self.is_rational:
            raise PreconditionError("denominator net requires a rational curve")
        pt = self._cached_point(v)
        if self._is_identity(pt):
            raise DependentPointsError(f"{v} . P is the identity")
        if self._law is None:
            return decompose(self.curve, pt).d
        return self._law.denominator(pt)


def _reduce_fraction(x: Fraction, p: int) -> PrimeFieldElement:
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NonIntegralReductionError(f"value has negative {p}-adic valuation")
    return PrimeFieldElement(x.numerator * pow(x.denominator, -1, p), p)


class ReducedNet:
    """Reduction mod p of an exact net.

    Valid whenever every P_i and every P_i +- P_j stays away from infinity
    mod p, which the constructor verifies; net values are then p-integral.
    Each index v takes its residue from one source, by the rule of
    ``_net_value`` that exact nets follow too:

    * max-norm at most 3: ``exact_value``, exact over Q and reduced;
    * one nonzero coordinate: psi_n of the reduced point P_i
      (``DivisionPolynomials``, Shipsey's doubling);
    * any other index: the halving ladder over int residues, whose leaves
      are that box and psi on the axes, at every rank up to
      LADDER_MAX_RANK.  It never divides, so it meets no zero divisor, and
      it takes O(log |v|) levels.

    Where psi raises (psi_2 = 0 mod p under an even axis value), the
    ladder splits the axis index instead, from rank 2 up (its units need
    two axes).  Where the ladder raises (dependent points in the box, or
    psi on a rank-1 net), and at every index of a net of rank above
    LADDER_MAX_RANK, the index takes ``exact_value``.  So ``value`` agrees
    with ``exact_value`` wherever that answers, and raises only where it
    raises.

    ``route_counts`` counts the memoized residues by source: ``exact``,
    ``psi`` and ``ladder`` (halving steps).
    """

    def __init__(self, net: EllipticNet, p: int):
        if not net.is_rational:
            raise PreconditionError("ReducedNet wraps an exact rational net")
        if not net.curve.is_integral:
            raise PreconditionError("reduction requires an integral model")
        self.net = net
        self.p = p
        self.rank = net.rank
        self.gf_curve = reduce_curve(net.curve, p)
        self.gf_points = tuple(reduce_mod_p(net.curve, pt, p) for pt in net.points)
        for i, pt in enumerate(self.gf_points):
            if pt.is_infinity:
                raise PreconditionError(f"P_{i} reduces to infinity mod {p}")
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                for combo in (net.curve.add(net.points[i], net.points[j]),
                              net.curve.sub(net.points[i], net.points[j])):
                    if reduce_mod_p(net.curve, combo, p).is_infinity:
                        raise PreconditionError(
                            f"P_{i} +- P_{j} reduces to infinity mod {p}"
                        )
        self._residues: dict[Index, int] = {}
        self._divpolys = tuple(DivisionPolynomials(self.gf_curve, pt) for pt in self.gf_points)
        self.route_counts: Counter = Counter()

    def value(self, v: Sequence[int]) -> PrimeFieldElement:
        key, sign = _normalize(self.net._key(v))
        if key not in self._residues:
            _net_value(key, self._residues, self._exact_residue, self._psi, self._residue,
                       self.route_counts)
        w = self._residues[key]
        return PrimeFieldElement(w if sign > 0 else -w, self.p)

    def exact_value(self, v: Sequence[int]) -> PrimeFieldElement:
        """Force the exact-over-Q-then-reduce path."""
        return _reduce_fraction(self.net.value(v), self.p)

    def _exact_residue(self, u: Index) -> int:
        w = self.exact_value(u).residue
        self.route_counts["exact"] += 1
        return w

    def _psi(self, axis: int, n: int) -> int:
        return self._divpolys[axis].psi(n).residue

    def _residue(self, x: int) -> int:
        return x % self.p


@dataclass(frozen=True)
class QuadraticFormData:
    """Symmetric matrix A with A_ii = D_{P_i} and A_ij = D_{P_i+P_j}/(D_i D_j)."""

    matrix: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_curve_points(cls, curve: WeierstrassCurve,
                          points: Sequence[CurvePoint]) -> "QuadraticFormData":
        r = len(points)
        dens = [decompose(curve, pt).d for pt in points]
        rows = []
        for i in range(r):
            row = []
            for j in range(r):
                if i == j:
                    row.append(Fraction(dens[i]))
                else:
                    s = curve.add(points[i], points[j])
                    if s.is_infinity:
                        raise DegeneratePairError("P_i + P_j is the identity")
                    row.append(Fraction(decompose(curve, s).d, dens[i] * dens[j]))
            rows.append(tuple(row))
        return cls(tuple(rows))

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def value(self, v: Sequence[int]) -> Fraction:
        """F_v = prod over i <= j of A_ij ** (v_i v_j)."""
        result = Fraction(1)
        for i in range(self.rank):
            for j in range(i, self.rank):
                e = v[i] * v[j]
                if e:
                    result *= self.matrix[i][j] ** e
        return result


def scaled_value(net: EllipticNet | ReducedNet, qdata: QuadraticFormData, v: Sequence[int]):
    """The rescaled net value F_v * W(v) (reduced mod p for a ReducedNet)."""
    if isinstance(net, ReducedNet):
        return _reduce_fraction(qdata.value(v) * net.net.value(v), net.p)
    return qdata.value(v) * net.value(v)


def recurrence_check(value_fn: Callable[[Index], object], rank: int,
                     box_radius: int, trials: int, seed: int = 0) -> list:
    """Sample quadruples and test the four-index net recurrence exactly.

    Returns the violating quadruples (empty means every sample passed).
    """
    rng = random.Random(seed)
    violations = []

    def rand_index() -> Index:
        return tuple(rng.randint(-box_radius, box_radius) for _ in range(rank))

    def plus(*vs: Index) -> Index:
        return tuple(sum(cs) for cs in zip(*vs))

    def minus(a: Index, b: Index) -> Index:
        return tuple(x - y for x, y in zip(a, b))

    for _ in range(trials):
        p, q, r, s = rand_index(), rand_index(), rand_index(), rand_index()
        total = (
            value_fn(plus(p, q, s)) * value_fn(minus(p, q)) * value_fn(plus(r, s)) * value_fn(r)
            + value_fn(plus(q, r, s)) * value_fn(minus(q, r)) * value_fn(plus(p, s)) * value_fn(p)
            + value_fn(plus(r, p, s)) * value_fn(minus(r, p)) * value_fn(plus(q, s)) * value_fn(q)
        )
        if total != 0:
            violations.append((p, q, r, s))
    return violations


def box_indices(rank: int, radius: int) -> list[Index]:
    """All integer vectors with max-norm at most radius."""
    return list(itertools.product(range(-radius, radius + 1), repeat=rank))
