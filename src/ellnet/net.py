"""Elliptic nets of rank r: net polynomial values, denominators, rescaling.

One rule, ``_net_value``, gives each value its source, over Q and over
F_p alike, in one function that stores each index once.  W(0) = 0 and an
index with one nonzero coordinate take the division polynomial
(``DivisionPolynomials.psi``, Shipsey's doubling, which never raises), at
every n and every rank.  At rank 2 every other index of the box |u| <= 3
comes from one seeded box (``_seeded_box``): eleven seeds, read off the
coordinates of P_1, P_2 and P_1 + P_2 and psi on the axes, and fourteen
recurrence rows that multiply their target only by units (+-e_i and
+-(e_i + e_j), where W = +-1), so no step divides by a net value.  At
ranks 3 to 6 the box comes from the net's box callback.  Every other
index takes one halving ladder.  A recurrence instance writes W(u) times
three units as a difference of two products of four values near u / 2,
so O(log |u|) levels of a bounded number of values each reach the box and
the axes.  One parity rule (``_ladder_units``) picks the
instance at every rank from 2 to LADDER_MAX_RANK.  The ladder runs on a
level-block schedule: at level j every index is (u >> j) + o for a small
offset o, the children of o depend only on ((u >> j) & 1) + o, and one
cached table (``_children``) gives them; a top-down pass over the offsets
of each level and a bottom-up fill replace any recursion.  Where a box
value raises, and on a net of rank above LADDER_MAX_RANK off the axes, the
box callback answers the index itself.  The nets differ only in their
callbacks, the box, psi and the combine step, which divides by the
units' values:

* an exact net over Q on the points strategy runs the rule on the
  rescaled net Psi-hat(v) = F_v W(v), with F_v = prod over i <= j of
  A_ij^(v_i v_j) (``QuadraticFormData``: A_ii = D_{P_i},
  A_ij = D_{P_i+P_j} / (D_{P_i} D_{P_j})).  Each term of the net
  recurrence carries the same power of every A_ij, since F is quadratic,
  so Psi-hat is an elliptic net too, with Psi-hat(e_i) = D_{P_i} and
  Psi-hat(e_i + e_j) = D_{P_i+P_j}; on an integral model it is an
  integer net (its valuations are those of D_{v . P} where the points
  reduce well), so the memo holds ints and no step takes a gcd.  The
  seeded box is built on the first ``value`` call from the seeds scaled
  by F_u (D_{P_1+P_2} and P_1 + P_2 from the chord, no group law), the
  points route scaled by F_u serves ranks 3 to 6, psi is the int sequence
  D_{P_i}^(n^2) psi_n (``DivisionPolynomials.scaled``, D_{P_i} times psi
  of the integral point (A_i, B_i) on the curve with coefficients
  a_j D_{P_i}^j), and the combine step divides exactly by the product
  of Psi-hat over the three units of its step (``_quotient``, cached per
  units): a checked divmod, which keeps the exact ``Fraction`` where it
  leaves a remainder.  At ranks 3 and up one does: a box value need not be
  integral (Psi-hat(1, 1, 1) = -1/2 on 234446a with x_i = 0, -4, 4, where
  F = 1).  At ranks 1 and 2 none has been seen on some 3,700 integral
  nets.  ``value`` returns W(v) = Psi-hat(v) / F_v.  Off an
  integral model F = 1 and the values stay ``Fraction``s.
* ``ReducedNet``: the seeded box built by the constructor from int residues
  (P_1 + P_2 read off the cached (A, B, D) triple mod p, with no group law
  over Q), ``_exact_residue`` (exact over Q, then reduced) at ranks 3 to 6,
  psi of the reduced point, and ``x % p`` on int residues: W = 1 on the
  units, so nothing is divided.

So ranks 1 and 2 answer Psi_v(P) at every index, from psi, the seeded box
and the ladder alone, and an exact net and its ``ReducedNet`` agree there.
On a nonsingular integral model ``denominator`` reads D_{v . P} off the
rescaled values too, by x(v . P) = x(P_i) - W(v + e_i) W(v - e_i) / W(v)^2
= (A_i Psi-hat(v)^2 - Psi-hat(v + e_i) Psi-hat(v - e_i)) /
(D_{P_i}^2 Psi-hat(v)^2), with no group law, and by the paper's valuation
theorem (ord_q Psi-hat(v) = ord_q D_{v . P} where every P_i reduces to a
nonsingular point) it reduces that fraction with a gcd taken mod
D_{P_i}^2 s^2 only, s the part of Psi-hat(v) at the primes of singular
reduction: D_{v . P} = |Psi-hat(v)| on E1.

Every use of the net recurrence is one row (p, q, r, s) of
``_net_terms``, T0 + T1 + T2 = 0, and ``_instance`` solves a row for the
first index of T0: the other three indices of T0 divide, the eight of T1
and T2 multiply.  The seeded box and the recurrence route's derived
bases take rows whose divisors are units (``_unit_steps``, the units'
signs folded in at import), the two routes below take a row per step
(``_row_step``), and ``_children`` reads the ladder's offsets off
``_net_terms`` of its row.

The box of an exact net at ranks 3 to 6, and every value of a net on the
recurrence strategy or over F_p, comes from ``EllipticNet._run``: an
explicit stack of steps, each a generator that asks for the values it
needs on its route, so the depth of an evaluation is bounded by memory,
not by the interpreter's recursion limit.  ``_run`` is the one entry to
their memo: it returns a memoized value at once, so each value is stepped
and counted once.  There are two routes.

* ``points``: the base values (``initial_net_value``, W(0) among them),
  then the addition identity
  ``W(v+u) = W(v)^2 W(u)^2 (X_u - X_v) / W(v-u)`` with ``u = +-e_i`` and the
  x-coordinates supplied by the curve group law.  The step axis is the one
  with the largest coordinate, so the max-norm shrinks toward the initial
  values, one step per unit of |v|.  An index with every coordinate in
  {-1, 0, 1} and three or more nonzero, which that step does not shrink,
  takes the row of ``_support_row`` instead.  An exact net on an integral model
  caches v . P as the integer triple (A, B, D) with
  v . P = (A / D^2, B / D^3) in lowest terms, filled by the integer group
  law of ``curve.IntegralModel``; the step reads x = A / D^2 from it, and
  ``_chain_denominator`` reads D_{v . P} off it.  Other nets cache
  ``CurvePoint`` values from ``WeierstrassCurve.add``.  Over Q this route
  serves the box of ranks 3 to 6, the index whose ladder meets a box value
  that raises, every off-axis value of a net of rank above LADDER_MAX_RANK,
  the denominators that ``denominator`` does not read off the net, the
  group-law side of ``valuation_match_report`` and the group-law oracle of
  the tests; over F_p it is a linear oracle, which no library caller takes.
* ``recurrence``: pure recurrence instantiations grounded in the initial
  values, with no group-law input.  Rank 1 delegates to the division
  polynomial doubling identities.  Rank 2 starts from eight base
  values, W(0) among them, and five unit rows (``_recurrence_bases``), and takes every
  other index by the row of ``_recurrence_row``, one row affine in the
  index per region of the plane (axis, adjacent-line and interior
  formulas): a fixed well-founded schedule, validated against the points
  strategy.  It never takes the ladder, so it stays an independent oracle.

The strategy of a net names the route its values start on.  Exact values
over Q never divide by zero when the base points are independent; a zero
divisor there raises ``DependentPointsError``.  For dependent points the
contract is: every index the points route answers gets the same value, and
no such index raises, since an index whose ladder box raises is evaluated
on the points route instead; that value is returned and not memoized, so
no answer depends on what the memo already holds.  An index the points
route refuses with ``DependentPointsError`` may get Psi_v(P) from the
division-free ladder, the seeded box or psi; at ranks 1 and 2 every index
does.
``ReducedNet`` bounds every value it takes over Q at max-norm
EXACT_FALLBACK_MAX_NORM: above it the detour raises
``DependentPointsError``, and a net of rank above LADDER_MAX_RANK raises
``PreconditionError``.  Over a prime field a zero divisor on either route
raises ``DegenerateNetError``; ``ReducedNet`` meets none, since its seeded
box, the ladder and psi never divide by a zero.

``route_counts`` on a net counts its memoized values by route (base, seed,
psi, ladder, points, recurrence), and on a ``ReducedNet`` its residues by
source (seed, exact, psi, ladder).
"""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from operator import add, itemgetter, mul, sub
from typing import Callable, Sequence

from .curve import (INFINITY, CurvePoint, IntegralModel, WeierstrassCurve, _exact_sqrt,
                    _triple_residues, decompose, gf_point, rational_point, reduce_curve)
from .divpoly import DivisionPolynomials
from .errors import (
    DegenerateNetError,
    DegeneratePairError,
    DependentPointsError,
    EllnetError,
    ModelNotIntegralError,
    NonIntegralReductionError,
    PreconditionError,
    SingularCurveError,
)
from .fieldarith import PrimeFieldElement, _check_prime_modulus, _element

Index = tuple[int, ...]

POINTS = "points"
RECURRENCE = "recurrence"


def initial_net_value(curve: WeierstrassCurve, points: Sequence[CurvePoint], v: Sequence[int]):
    """Net value for v in {0, e_i, 2e_i, e_i + e_j, 2e_i + e_j}, else None."""
    nonzero = [(i, c) for i, c in enumerate(v) if c]
    one = points[0].x ** 0
    if not nonzero:
        return one - one
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
            if points[i].x == points[j].x:
                raise DegeneratePairError("base points share an x-coordinate")
            return points[i].x - _chord(curve, points[i], points[j])[0]
    return None


def _chord(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> tuple:
    """P + Q = (x3, y3) by the chord through P and Q, x_P != x_Q."""
    s = (q.y - p.y) / (q.x - p.x)
    x3 = s * s + curve.a1 * s - curve.a2 - p.x - q.x
    return x3, s * (p.x - x3) - p.y - curve.a1 * x3 - curve.a3


def _recurrence_row(m: int, n: int) -> tuple[Index, Index, Index, Index]:
    """The row (p, q, r, s) of W(m, n), m >= 0, on the rank-2 recurrence
    schedule: T0 of ``_net_terms`` is W(m, n) times three divisors, and
    every other index of the row comes earlier in the schedule (the axis,
    adjacent-line and interior formulas, by the region of (m, n))."""
    if m == 0:  # n >= 4
        p, q, r = (0, 1), (-1, 1), (-1, -1)
    elif n == 0:  # m >= 4
        p, q, r = (1, 0), (1, -1), (-1, -1)
    elif abs(n) == 1:  # m >= 3
        p, q, r = (1, 0), (1, n), (0, -n)
    else:
        t = 1 if n > 0 else -1
        p, q, r = (0, t), (1, 0), ((0, -t) if m == 1 else (-1, 0))
    return p, q, r, (m - p[0] - q[0], n - p[1] - q[1])


LADDER_BASE_NORM = 3
LADDER_MAX_RANK = 6
# the largest max-norm of an index that ``ReducedNet`` takes exact over Q
# (the points route is linear in |v|, with values of size quadratic in |v|)
EXACT_FALLBACK_MAX_NORM = 28


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


@cache
def _children(r: Index) -> tuple[tuple[Index, ...], Callable[[dict], tuple], tuple[Index, ...]]:
    """The eight child offsets t of the halving step at an index 2m + r,
    relative to m, a getter of their values from a dict keyed by offset,
    and the step's units (g, c, h): W(2m + r) W(g) W(c) W(h) = prod
    W(m + t) over the first four minus prod W(m + t) over the last four.

    The step is the row (m + a, m + b, c, d) of ``_net_terms``, with
    g = a - b, c and h = c + d units from ``_ladder_units``, where W = 1:
    T0 = W(2m + r) W(g) W(c) W(h) (W(g) = W(c) = W(h) = 1, so only
    Psi-hat divides by them) is minus T1 and T2.  Relative to m, the
    indices of T1 and T2 are those of the row (a, b, c, d), but for T2's
    second index c - (m + a), which enters as -W(m + (a - c)).  The parity
    of r fixes (g, c, h) so that a = (r + g - d) / 2 is integral, so the
    offsets depend on r alone; for max-norm above LADDER_BASE_NORM every
    index on the right is then smaller in max-norm.  It is a halving step
    in the spirit of Shipsey's EDS doubling and Stange's double-and-add on
    elliptic nets ("The Tate pairing via elliptic nets").
    """
    g, c, h = _ladder_units(tuple(x & 1 for x in r))
    d = tuple(map(sub, h, c))
    a = tuple((x + y - z) // 2 for x, y, z in zip(r, g, d))
    _, t1, (t20, t21, t22, t23) = _net_terms(a, tuple(map(sub, a, g)), c, d)
    step = (t20, tuple(-x for x in t21), t22, t23, *t1)
    return step, itemgetter(*step), (g, c, h)


def _max_norm(v: Index) -> int:
    return max(map(abs, v))


def _net_value(key: Index, memo: dict, box: Callable[[Index], object],
               psi: Callable[[int, int], object], combine: Callable[[object, Index], object],
               counts: Counter):
    """W(key) for a normalized index by the source rule of the module
    docstring, on the level-block schedule of the halving ladder,
    memoized in ``memo`` with every value on its way.

    At level j every index the key needs is (key >> j) + o for a small
    offset o (per-coordinate floor halving), and the children of offset o
    at level j + 1 are ``_children(((key >> j) & 1) + o)``.  A top-down
    pass takes the offsets of each level once: an index whose normalized
    form is in ``memo`` (a rank-2 memo holds the whole seeded box from the
    start, so ``box`` serves ranks 3 and up), on an axis or 0 (from
    ``psi(axis, n)``, counted in ``counts["psi"]``), or in the box
    (max-norm at most LADDER_BASE_NORM, from ``box(u)``) is a known value,
    stored in ``memo``; every other
    index is an inner node, and its children make up the next level.  A
    bottom-up pass then fills the inner nodes deepest level first with
    ``combine(+-(prod W(first) - prod W(second)), units)`` for the units
    of the step's ``_children``, stored in ``memo`` under the normalized
    index and counted in ``counts["ladder"]``: ``x % p`` keeps residues
    reduced, and an exact net divides Psi-hat by the Psi-hat of the units.  An
    index that an earlier fill stored (its mirror on the same level, or the
    same index on a deeper one) is read from ``memo``, so each index is
    counted once.  The step divides by no net value, only by the units'
    constant values, so it meets no zero divisor, and the key is reached in O(log |key|) levels
    of a bounded number of offsets each.  Where a box value on the way
    raises (dependent points), the key takes ``box(key)``, and so does an
    off-axis key of rank above LADDER_MAX_RANK, at once; that value is
    returned but not memoized, so a later ladder through the key meets the
    raising box value too, and no answer depends on what ``memo`` held.
    """
    rank = len(key)
    levels, base, offsets = [], key, {(0,) * rank}
    while offsets:
        if rank == 2:
            b0, b1 = base
            c0, c1 = b0 & 1, b1 & 1
        else:
            bits = tuple(x & 1 for x in base)
        known, inner, below = {}, [], set()
        for o in offsets:
            if rank == 2:  # unrolled: the index and its normalized form
                o0, o1 = o
                x0, x1 = b0 + o0, b1 + o1
                u, s = ((x0, x1), 1) if x0 > 0 or not x0 and x1 >= 0 else ((-x0, -x1), -1)
                r = (c0 + o0, c1 + o1)
            else:
                u, s = _normalize(tuple(map(add, base, o)))
                r = tuple(map(add, bits, o))
            if u in memo:
                w = memo[u]
            elif u.count(0) >= rank - 1:  # an axis, or 0 = psi_0
                n = sum(u)
                w = memo[u] = psi(u.index(n), n)
                counts["psi"] += 1
            elif rank > 2 and (rank > LADDER_MAX_RANK or _max_norm(u) <= LADDER_BASE_NORM):
                try:
                    w = memo[u] = box(u)
                except EllnetError:
                    if u == key:
                        raise
                    return box(key)
            else:
                step, values_of, units = _children(r)
                inner.append((o, u, s, units, values_of))
                below.update(step)
                continue
            known[o] = w if s > 0 else -w
        levels.append((known, inner))
        base = (b0 >> 1, b1 >> 1) if rank == 2 else tuple(x >> 1 for x in base)
        offsets = below
    filled, new = None, 0
    for known, inner in reversed(levels):
        for o, u, s, units, values_of in inner:
            w = memo.get(u)  # set already by u's mirror on this level or u on a deeper one
            if w is None:
                t0, t1, t2, t3, t4, t5, t6, t7 = values_of(filled)
                first, second = t0 * t1 * t2 * t3, t4 * t5 * t6 * t7
                w = memo[u] = combine(first - second if s > 0 else second - first, units)
                new += 1
            known[o] = w if s > 0 else -w
        filled = known
    if new:
        counts["ladder"] += new
    return filled[(0,) * rank]


def _quotient(x, d: int):
    """x / d: the int quotient where a checked divmod leaves no remainder,
    else the exact ``Fraction``, so no value depends on x being integral
    (at ranks 3 and up a box value may not be)."""
    if d == 1:
        return x
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def _smooth_part(w: int, m: int) -> int:
    """The largest divisor of w > 0 whose primes all divide m; 1 at once
    where gcd(w mod m, m) = 1.  Each round divides out the highest power
    of g = gcd(w, m) that divides w, by the binary digits of its exponent
    (powers g^(2^j), largest first), so the cost is a few divisions by
    powers no larger than s, not one division per factor.  Every prime of
    m left in w then divides g, so the gcds stay the size of m."""
    s, g = 1, math.gcd(w % m, m)
    while g > 1:
        powers = [g]
        while w % (q := powers[-1] * powers[-1]) == 0:
            powers.append(q)
        for q in reversed(powers):
            quotient, r = divmod(w, q)
            if not r:
                s, w = s * q, quotient
        g = math.gcd(w % g, g)
    return s


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
        if curve.gf_modulus is None:  # int coordinates would divide into floats
            points = tuple(pt if pt.is_infinity else rational_point(pt.x, pt.y) for pt in points)
        if not points:
            raise PreconditionError("at least one base point is required")
        law = IntegralModel(curve) if curve.is_integral else None
        cached = []
        for pt in points:
            if pt.is_infinity:
                raise PreconditionError("base points must be affine")
            if law is None:
                curve.require_on_curve(pt)
                cached.append(pt)
            else:  # decompose checks that pt is on the curve
                dec = decompose(curve, pt)
                cached.append((dec.a, dec.b, dec.d))
        for i, j in itertools.combinations(range(len(points)), 2):
            if points[i].x == points[j].x:
                raise DegeneratePairError(f"points {i} and {j} share an x-coordinate")
        self.curve = curve
        self.points = points
        self.rank = len(points)
        self.strategy = strategy
        self._values: dict[Index, object] = {}  # W on the step routes of ``_run``
        self._scaled: dict[Index, object] = {}  # Psi-hat on the rule of ``_net_value``
        self._divisors: dict[tuple, object] = {}  # by a step's units
        self._law = law
        neg, origin = (curve.neg, INFINITY) if law is None else (law.neg, None)
        # (P_i, -P_i) in the cache's form
        self._steps = tuple((pt, neg(pt)) for pt in cached)
        self._points_cache: dict[Index, object] = {(0,) * self.rank: origin}
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
        """lambda_p(v . P) as ``neron_local_height``, None at the identity,
        read off the cached (A, B, D) triple; a net with no integral model
        raises ``ModelNotIntegralError``."""
        pt = self._cached_point(self._key(v))
        if self._is_identity(pt):
            return None
        if self._law is None:
            raise ModelNotIntegralError("local heights need an integral rational model")
        return self._law.local_height(pt, p)

    def _is_identity(self, pt) -> bool:
        return pt.is_infinity if self._law is None else pt is None

    def _key(self, v: Sequence[int]) -> Index:
        v = tuple(map(int, v))
        if len(v) != self.rank:
            raise ValueError(f"index length {len(v)} does not match rank {self.rank}")
        return v

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def value(self, v: Sequence[int]):
        """W(v) in the base field: on the points strategy over Q
        Psi-hat(v) / F_v from ``scaled_value``, else on the strategy's
        route."""
        v = self._key(v)
        if self.strategy == POINTS and self.is_rational:
            num, den = self._form.parts(v)
            return Fraction(self._hat(v) * den, num)
        key, sign = _normalize(v)
        result = self._run(self.strategy, key)
        return -result if sign < 0 else result

    def scaled_value(self, v: Sequence[int]):
        """Psi-hat(v) = F_v W(v), an int wherever it is integral: on the
        points strategy over Q from the rule of ``_net_value`` on Psi-hat,
        else F_v ``value(v)``.  F = 1 off an integral model."""
        v = self._key(v)
        if self.strategy == POINTS and self.is_rational:
            return self._hat(v)
        return self._scale(v, self.value(v)) if self.is_rational else self.value(v)

    def _hat(self, v: Index):
        """Psi-hat(v) on the points strategy over Q, for an index of the
        net's rank."""
        key, sign = _normalize(v)
        w = self._scaled.get(key)
        if w is None:
            if self.rank == 2 and not self._scaled:
                self._seed_box()
            w = _net_value(key, self._scaled, self._points_value, self._axis_psi, self._divide,
                           self.route_counts)
        return -w if sign < 0 else w

    @cached_property
    def _form(self) -> QuadraticFormData:
        """The form of F over Q: D_{P_i} off the cached triples and
        D_{P_i+P_j} off the denominator of the chord's x, with no group law;
        all ones (F = 1) off an integral model."""
        law, c, pts = self._law is not None, self.curve, self.points
        return QuadraticFormData.from_denominators(
            [pt[2] if law else 1 for pt, _ in self._steps],
            lambda i, j: math.isqrt(_chord(c, pts[i], pts[j])[0].denominator) if law else 1)

    def _scale(self, v: Index, w):
        """F_v w over Q, an int where it is integral."""
        num, den = self._form.parts(v)
        return _quotient(w.numerator * num, w.denominator * den)

    def _seed_box(self) -> None:
        """Start the memo of Psi-hat at rank 2 with the seeded box, from
        the seeds scaled by F_u with P_1 + P_2 by the chord; its values are
        counted under ``seed``."""
        c, (p1, p2) = self.curve, self.points
        seeds = _box_seeds(p1.x, p2.x, *_chord(c, p1, p2), c.a1, c.a3)
        self._scaled = _seeded_box({u: self._scale(u, w) for u, w in seeds.items()},
                                   self._axis_psi, self._divide)
        self.route_counts["seed"] = len(self._scaled)

    def _points_value(self, u: Index):
        """Psi-hat(u) off the points route: the box of ranks 3 to 6."""
        return self._scale(u, self._run(POINTS, u))

    def _divide(self, x, units: tuple[Index, ...]):
        """x / prod Psi-hat(u) = x / prod F_u over the three units u of a
        step (a seed row's, or those of a halving step), where W = 1,
        cached by the units.  The quotient is an int, or the exact
        ``Fraction`` where a checked divmod leaves a remainder."""
        d = self._divisors.get(units)
        if d is None:
            d = self._divisors[units] = math.prod(self._scale(u, 1) for u in units)
        return _quotient(x, d)

    def _run(self, route: str, target: Index):
        """W(target) for a normalized index: from the memo ``_values`` if
        it holds it, else evaluated on an explicit stack of steps on one
        route.

        A step is a generator for one index.  It yields each index whose
        value it needs, is sent the signed W(index), and returns
        ``(label, value)`` for its own index: the value is memoized and
        counted in ``route_counts`` under the label.  Every step asks for
        indices that are smaller in a well-founded order, so the stack
        never meets an index twice, and an error raised by a step (a zero
        divisor) ends the evaluation.
        """
        values = self._values
        if target in values:
            return values[target]
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
        return reply

    def _degenerate(self, what: str) -> EllnetError:
        """The error for a zero divisor, chosen by the field: over Q it
        means the base points are dependent, over F_p it is a zero of the
        reduced net."""
        if self.is_rational:
            return DependentPointsError(f"{what}: base points are dependent")
        return DegenerateNetError(f"{what} mod {self.curve.gf_modulus}")

    def _solve(self, v: Index):
        """The points route: a base value, the support reduction, or one
        point step on the axis with the largest coordinate."""
        base = initial_net_value(self.curve, self.points, v)
        if base is not None:
            return "base", base
        if self._is_small_support(v):
            return "points", (yield from self._row_step(self._support_row(v)))
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

    def _row_step(self, row: tuple[Index, Index, Index, Index]):
        """W at the target of ``_instance(*row)`` on the route of ``_run``:
        the three divisors are asked first, and a zero product raises,
        then the eight factors."""
        target, sign, factors, divisors = _instance(*row)
        w = []
        for u, s in divisors:
            x = yield u
            w.append(x if s > 0 else -x)
        den = w[0] * w[1] * w[2]
        if den == 0:
            raise self._degenerate(f"zero divisor in the net recurrence at {target}")
        for u, s in factors:
            x = yield u
            w.append(x if s > 0 else -x)
        x = w[3] * w[4] * w[5] * w[6] + w[7] * w[8] * w[9] * w[10]
        return (x if sign > 0 else -x) / den

    @staticmethod
    def _support_row(v: Index) -> tuple[Index, Index, Index, Index]:
        """The row (e_i + w, e_i + s_k e_k, -e_i, -e_i) of an index
        v = e_i + w + s_k e_k with every coordinate in {-1, 0, 1} and at
        least three nonzero entries, which the axis step does not shrink:
        every other index of the row has smaller support."""
        i = v.index(1)
        k = next(k for k, c in enumerate(v) if c and k != i)
        minus_i = tuple(-int(j == i) for j in range(len(v)))
        s_k = tuple(v[k] * (j == k) for j in range(len(v)))
        return tuple(map(sub, v, s_k)), tuple(map(sub, s_k, minus_i)), minus_i, minus_i

    @staticmethod
    def _is_small_support(v: Index) -> bool:
        return max(abs(c) for c in v) == 1 and sum(1 for c in v if c) >= 3

    @staticmethod
    def _step_axis(v: Index) -> int:
        """The axis of the point step: the first with the largest |coordinate|."""
        return max(range(len(v)), key=lambda i: abs(v[i]))

    @cached_property
    def _divpolys(self) -> tuple[DivisionPolynomials, ...]:
        return tuple(DivisionPolynomials(self.curve, pt) for pt in self.points)

    def _axis_psi(self, axis: int, n: int):
        """Psi-hat(n e_i) = D_i^{n^2} psi_n over Q (psi_n off an integral
        model)."""
        return self._divpolys[axis].scaled(n)

    # ------------------------------------------------------------------
    # recurrence (rank <= 2)
    # ------------------------------------------------------------------

    @cached_property
    def _recurrence_bases(self) -> dict[Index, object]:
        """The initial values of the rank-2 recurrence schedule, and the
        rows of ``_RECURRENCE_BASE_STEPS``, which divide only by units."""
        if self.rank != 2:
            raise PreconditionError("recurrence schedule is defined for rank <= 2")
        init = {v: initial_net_value(self.curve, self.points, v)
                for v in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2))}
        return _apply_steps(init, _RECURRENCE_BASE_STEPS, lambda x, units: x)

    def _recurrence(self, v: Index):
        """W(v) from the recurrence schedule alone (``_recurrence_row``);
        the values it needs are asked on this route too, never through the
        points route."""
        if self.rank == 1:
            return "recurrence", self._divpolys[0].psi(v[0])
        base = self._recurrence_bases
        if v in base:
            return "base", base[v]
        return "recurrence", (yield from self._row_step(_recurrence_row(*v)))

    # ------------------------------------------------------------------
    # denominators
    # ------------------------------------------------------------------

    def denominator(self, v: Sequence[int]) -> int:
        """D_{v . P}; zero for v = 0 by the table convention.

        At ranks 1 and 2 on a nonsingular integral model, where ``value``
        answers Psi_v(P) at every index, D is read off the net: with an axis
        i where v_i != 0 (W(e_i) = 1; Stange; at rank 1 the classical
        x(nP) = x - psi_{n+1} psi_{n-1} / psi_n^2),

            x(v . P) = x(P_i) - W(v + e_i) W(v - e_i) / W(v)^2
                     = N / (D_i^2 w^2),  N = A_i w^2 - Psi-hat(v + e_i) Psi-hat(v - e_i),

        with w = Psi-hat(v), so D = D_i |w| / sqrt(gcd(N, D_i^2 w^2)).  By
        the valuation theorem ord_q w = ord_q D at every prime q where each
        P_i reduces to a nonsingular point, so there the q-part of that gcd
        is q^(2 ord_q D_i), which is also the q-part of gcd(N, M) for
        M = D_i^2 s^2, s the part of w built from the primes of
        ``_singular_moduli`` (the primes of singular reduction); at those
        primes M holds all of w^2, so the gcd is taken in full.  gcd(N, M)
        is formed from residues mod M, with no full-size product or gcd;
        where M = 1 (D_i = 1 and w has no prime of singular reduction, as
        everywhere on E1) D = |w|, and N is not formed.  W(v) = 0 exactly
        when v . P is the identity.
        A Psi-hat value that is not an int takes the reduced denominator of
        the exact ``Fraction`` x instead; at ranks 1 and 2 no integral model
        is known to give one, and the tests reach this branch only with a
        rescaling that is not F.  No group law runs.  Ranks above
        2, singular and non-integral models and the recurrence strategy take
        ``_chain_denominator``.
        """
        v = self._key(v)
        if not any(v):
            return 0
        if self._law is None or self._law.singular or self.rank > 2 or self.strategy != POINTS:
            return self._chain_denominator(v)
        w = self._hat(v)
        if w == 0:
            raise DependentPointsError(f"{v} . P is the identity")
        i = next(k for k, c in enumerate(v) if c)
        a, _, d = self._steps[i][0]
        if type(w) is int:
            mod = (d * _smooth_part(abs(w), math.prod(self._singular_moduli))) ** 2
            if mod == 1:  # D_i = 1 and no prime of singular reduction divides w
                return abs(w)
        up = self._hat(v[:i] + (v[i] + 1,) + v[i + 1:])
        down = self._hat(v[:i] + (v[i] - 1,) + v[i + 1:])
        if type(w) is not int or type(up) is not int or type(down) is not int:
            return _exact_sqrt(Fraction(a * w * w - up * down, d * d * w * w).denominator)
        n = (a * (w % mod) ** 2 - up % mod * (down % mod)) % mod
        return d * abs(w) // _exact_sqrt(math.gcd(n, mod))

    @cached_property
    def _singular_moduli(self) -> tuple[int, ...]:
        """m_i = gcd(F_y, F_x) of the partials of the curve at P_i, cleared
        of D (``IntegralModel._partials`` on the cached triple): a prime p
        divides m_i exactly when P_i reduces to the singular point mod p (a
        P_i that reduces to infinity is nonsingular).  The one source of
        the primes of singular reduction, for ``denominator``, the
        valuation gate and Ayad's property (e); a net with no integral
        model raises ``ModelNotIntegralError``."""
        if self._law is None:
            raise ModelNotIntegralError("singular reduction needs an integral model")
        return tuple(math.gcd(*self._law._partials(*pt)) for pt, _ in self._steps)

    def _chain_denominator(self, v: Index) -> int:
        """D_{v . P} for a nonzero index off the point cache's group-law
        chain, the (A, B, D) triple of ``IntegralModel``; also the
        group-law side of ``valuation_match_report``."""
        if not self.is_rational:
            raise PreconditionError("denominator net requires a rational curve")
        pt = self._cached_point(v)
        if self._is_identity(pt):
            raise DependentPointsError(f"{v} . P is the identity")
        if self._law is None:
            raise ModelNotIntegralError("the denominator net needs an integral model")
        return self._law.denominator(pt)


def _net_terms(p: Index, q: Index, r: Index, s: Index) -> tuple[tuple[Index, ...], ...]:
    """The indices of the three terms of the net recurrence T0 + T1 + T2 = 0,

        T0 = W(p+q+s) W(p-q) W(r+s) W(r),  T1 = W(q+r+s) W(q-r) W(p+s) W(p),
        T2 = W(r+p+s) W(r-p) W(q+s) W(q)."""
    def term(a: Index, b: Index, c: Index) -> tuple[Index, ...]:
        return (tuple(x + y + z for x, y, z in zip(a, b, s)), tuple(map(sub, a, b)),
                tuple(map(add, c, s)), c)
    return term(p, q, r), term(q, r, p), term(r, p, q)


def _instance(p: Index, q: Index, r: Index, s: Index) -> tuple[Index, int, tuple, tuple]:
    """The net recurrence on the row (p, q, r, s) solved for the first
    index of T0 of ``_net_terms``: (target, sign, factors, divisors) with

        W(target) = sign * (prod W(factors[:4]) + prod W(factors[4:])) / prod W(divisors),

    the factors the indices of T1 and T2 and the divisors the other three
    of T0, each a (normalized index, sign) pair.  T_k of a row is T0 of the
    row with p, q, r turned k places, so T0 serves every instance."""
    (head, *divisors), t1, t2 = _net_terms(p, q, r, s)
    target, sign = _normalize(head)
    return target, -sign, tuple(map(_normalize, t1 + t2)), tuple(map(_normalize, divisors))


def _unit_steps(rows) -> tuple[tuple[Index, int, tuple, tuple[Index, ...]], ...]:
    """The ``_instance`` of each row whose divisors are units, where
    W = +-1, as (target, sign, factors, units): the units' signs folded
    into the sign, and the units their normalized indices."""
    steps = []
    for row in rows:
        target, sign, factors, divisors = _instance(*row)
        steps.append((target, sign * math.prod(s for _, s in divisors), factors,
                      tuple(u for u, _ in divisors)))
    return tuple(steps)


def _apply_steps(values: dict[Index, object], steps, combine: Callable[[object, tuple], object]):
    """``values`` with the target of each of ``steps`` (``_unit_steps``)
    added in turn, as ``combine(x, units)`` for x = sign * (T1 + T2):
    ``combine`` divides by the units' values or, where W = 1 on the units,
    keeps x."""
    for target, sign, factors, units in steps:
        w = [values[t] if s > 0 else -values[t] for t, s in factors]
        values[target] = combine(sign * (w[0] * w[1] * w[2] * w[3] + w[4] * w[5] * w[6] * w[7]), units)
    return values


# The rank-2 box |u| <= 3 from its eleven seeds W(0), W(e1) = W(e2) =
# W(e1+e2) = 1, psi_2 and psi_3 on each axis, W(2,1), W(1,2) and W(2,2):
# rows whose divisors are units, each new target (in the comment) from
# seeds and earlier targets only.
_SEED_ROWS = (
    ((-1, 0), (-2, -1), (-1, -1), (2, 2)),  # (1, -1)
    ((-1, 0), (-2, 0), (-1, -1), (2, 2)),  # (1, -2)
    ((-1, -1), (-1, 0), (0, -1), (0, 2)),  # (2, -1)
    ((-2, 0), (-2, 1), (-1, -1), (2, 1)),  # (2, -2)
    ((-1, 1), (-2, 1), (-1, -1), (2, 1)),  # (1, -3)
    ((-2, -2), (-1, -2), (-1, -1), (2, 1)),  # (1, 3)
    ((-2, 1), (-2, 2), (-1, 0), (2, 0)),  # (2, -3)
    ((-2, -2), (-2, -1), (-1, 0), (2, 0)),  # (2, 3)
    ((-3, 0), (-2, 1), (-1, -1), (2, 2)),  # (3, -3)
    ((-2, 0), (-2, 1), (-1, 0), (1, 1)),  # (3, -2)
    ((-2, -1), (-2, 0), (-1, -1), (1, 2)),  # (3, -1)
    ((-2, -2), (-2, -1), (-1, -1), (1, 2)),  # (3, 1)
    ((-2, -2), (-2, -1), (-1, 0), (1, 1)),  # (3, 2)
    ((-3, -2), (-2, -2), (-1, -1), (2, 1)),  # (3, 3)
)
_SEED_STEPS = _unit_steps(_SEED_ROWS)
# the values the rank-2 recurrence schedule derives from its eight initial
# ones: W(1,-1), W(2,-1), W(1,-2), W(3,0) and W(0,3), in that order
_RECURRENCE_BASE_STEPS = _unit_steps((((0, -1), (1, 0), (1, 1), (0, 0)),
                                      ((1, 0), (0, -1), (0, 1), (1, 0)),
                                      ((0, -1), (1, 0), (-1, 0), (0, -1)),
                                      ((1, 0), (2, 0), (0, -1), (0, 0)),
                                      ((0, 1), (0, 2), (-1, 0), (0, 0))))


def _box_seeds(x1, x2, x3, y3, a1, a3) -> dict[Index, object]:
    """W(1,1) = 1 and, with (x3, y3) = P_1 + P_2, W(2,1) = x_1 - x3,
    W(1,2) = x_2 - x3 and W(2,2) = psi_2(P_1 + P_2)."""
    return {(1, 1): 1, (2, 1): x1 - x3, (1, 2): x2 - x3, (2, 2): 2 * y3 + a1 * x3 + a3}


def _seeded_box(seeds: dict[Index, object], psi: Callable[[int, int], object],
                combine: Callable[[object, tuple], object]) -> dict[Index, object]:
    """The rank-2 box |u| <= 3 from its eleven seeds: W(0), psi_1 to psi_3
    on each axis from ``psi(axis, n)``, and ``seeds``, the values at (1,1),
    (2,1), (1,2) and (2,2) (``_box_seeds``).  The rows of ``_SEED_ROWS``
    give the rest, each new value as ``combine(x, units)``: a row
    multiplies its target only by three units, so ``combine`` divides by
    their values or, where W = 1 on the units, keeps x."""
    box = {(0, 0): psi(0, 0), **seeds}
    for n in (1, 2, 3):
        box[n, 0], box[0, n] = psi(0, n), psi(1, n)
    return _apply_steps(box, _SEED_STEPS, combine)


def reduce_base_points(net: EllipticNet, p: int) -> tuple[tuple[tuple[int, int], ...], list[str]]:
    """The base points reduced mod p, each as its int residues (x, y), and
    the standing hypotheses of reduction checked: a P_i that reduces to
    infinity raises ``PreconditionError``, and each P_i +- P_j that does is
    named.

    Both are read off the net's cached (A, B, D) triples: a point reduces
    to infinity when it is the identity or p divides D, and P_i +- P_j is
    the cached point at e_i +- e_j, formed by ``IntegralModel.add``."""
    if net._law is None:
        raise ModelNotIntegralError("reduction requires an integral model")
    reduced = []
    for i, (pt, _) in enumerate(net._steps):
        reduced.append(_triple_residues(*pt, p))
        if reduced[i] is None:
            raise PreconditionError(f"P_{i} reduces to infinity mod {p}")
    defects = []
    for i, j in itertools.combinations(range(net.rank), 2):
        for sign, s in (("+", 1), ("-", -1)):
            combo = net._cached_point(tuple((k == i) + s * (k == j) for k in range(net.rank)))
            if combo is None or combo[2] % p == 0:
                defects.append(f"P_{i} {sign} P_{j} reduces to infinity mod {p}")
    return tuple(reduced), defects


def _reduce_fraction(x: Fraction, p: int) -> PrimeFieldElement:
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NonIntegralReductionError(f"value has negative {p}-adic valuation")
    return PrimeFieldElement(x.numerator * pow(x.denominator, -1, p), p)


class ReducedNet:
    """Reduction mod p of an exact net.

    Valid whenever every P_i and every P_i +- P_j stays away from infinity
    mod p, which the constructor verifies; net values are then p-integral.
    Net values are integer polynomials in the x_i, y_i, the a_j and the
    (x_i - x_j)^-1 (Stange), so reduction mod p is a ring map and the
    reduced seeds fix the reduced net.  The constructor works on int
    residues throughout: the reduced points come from the net's cached
    (A, B, D) triples, which ``decompose`` checked on the integral model in
    integers, so with p not dividing D (``reduce_base_points``) they lie on
    the reduced curve; ``gf_curve`` and ``gf_points``, in
    ``PrimeFieldElement`` form, are built on first access.  Each index v
    takes its residue from one source, by the rule of ``_net_value`` that
    exact nets follow too:

    * 0 and one nonzero coordinate: psi_n of the reduced point P_i
      (``DivisionPolynomials`` on int residues, Shipsey's doubling; 0 at
      an even n where psi_2 = 0 mod p), at every rank;
    * any other index of max-norm at most 3: at rank 2 the box seeded by
      the constructor, with no group law over Q.  The seeds are read off
      the reduced points and P_1 + P_2, which the net's cached (A, B, D)
      triple gives mod p (affine by the checks above, also where
      x_1 = x_2 mod p): W(2,1) = x_1 - x(P_1 + P_2),
      W(1,2) = x_2 - x(P_1 + P_2) and W(2,2) = psi_2(P_1 + P_2), with the
      units and psi on the axes; the rows of ``_SEED_ROWS`` give the rest,
      multiplying only by units, so no step divides.  At ranks 3 to 6 the
      box is exact over Q and reduced: no division-free derivation of
      those boxes is known here;
    * any other index: the halving ladder over int residues, down to that
      box and psi on the axes, at every rank up to LADDER_MAX_RANK.  It
      never divides, so it meets no zero divisor, and it takes O(log |v|)
      levels.

    So at ranks 1 and 2 ``value`` answers Psi_v(P) mod p at every index,
    and never reaches Q.  At ranks 3 to 6, where an exact box value on the
    way raises (dependent points), the index itself is taken exact over Q
    each time it is asked (that residue is not memoized, so no answer
    depends on what the net evaluated before), and so is every off-axis
    index of a net of rank above LADDER_MAX_RANK.
    Every value exact over Q comes from ``_exact_residue``, ``exact_value``
    bounded at max-norm EXACT_FALLBACK_MAX_NORM, since the points route
    over Q is linear in |v| with values of size quadratic in |v|: above the
    bound the detour raises ``DependentPointsError`` and a net of rank
    above LADDER_MAX_RANK ``PreconditionError``.  So ``value`` agrees with
    ``exact_value`` wherever it answers, and raises where that raises or
    past the bound.  ``residue`` gives W(v) as an int in [0, p), which the
    symmetry tables, exports and evaluator work on; ``value`` wraps it in a
    ``PrimeFieldElement``.

    ``route_counts`` counts the memoized residues by source: ``seed``
    (the seeded box), ``exact`` (exact over Q and reduced), ``psi`` and
    ``ladder`` (halving steps).
    """

    def __init__(self, net: EllipticNet, p: int):
        if not net.is_rational:
            raise PreconditionError("ReducedNet wraps an exact rational net")
        _check_prime_modulus(p)
        self.net = net
        self.p = p
        self.rank = net.rank
        self._points, defects = reduce_base_points(net, p)
        if defects:
            raise PreconditionError(defects[0])
        law = net._law
        b2, b4, b6, b8, _ = (b.numerator for b in net.curve.b_invariants())
        self._divpolys = tuple(DivisionPolynomials.from_residues(p, law.a1, law.a3, b2, b4, b6, b8, x, y)
                               for x, y in self._points)
        self.route_counts: Counter = Counter()
        self._residues: dict[Index, int] = {}
        if self.rank == 2:  # P_1 + P_2 is affine mod p, by the checks above
            (x1, _), (x2, _) = self._points
            seeds = _box_seeds(x1, x2, *_triple_residues(*net._cached_point((1, 1)), p), law.a1, law.a3)
            self._residues = _seeded_box({u: w % p for u, w in seeds.items()}, self._psi, self._residue)
            self.route_counts["seed"] = len(self._residues)

    @cached_property
    def gf_curve(self) -> WeierstrassCurve:
        """The curve reduced mod p (possibly singular)."""
        return reduce_curve(self.net.curve, self.p)

    @cached_property
    def gf_points(self) -> tuple[CurvePoint, ...]:
        """The base points reduced mod p."""
        return tuple(gf_point(x, y, self.p) for x, y in self._points)

    def residue(self, v: Sequence[int]) -> int:
        """W(v) mod p as an int in [0, p)."""
        key, sign = _normalize(self.net._key(v))
        w = self._residues.get(key)
        if w is None:
            w = _net_value(key, self._residues, self._exact_residue, self._psi, self._residue,
                           self.route_counts)
        return (w if sign > 0 else -w) % self.p

    def value(self, v: Sequence[int]) -> PrimeFieldElement:
        return _element(self.residue(v), self.p)

    def exact_value(self, v: Sequence[int]) -> PrimeFieldElement:
        """Force the exact-over-Q-then-reduce path."""
        return _reduce_fraction(self.net.value(v), self.p)

    def _exact_residue(self, u: Index) -> int:
        """W(u) exact over Q and reduced, counted under ``exact``: the one
        way this net reaches Q (ranks 3 and up), bounded at max-norm
        EXACT_FALLBACK_MAX_NORM."""
        if _max_norm(u) > EXACT_FALLBACK_MAX_NORM:
            if self.rank > LADDER_MAX_RANK:
                raise PreconditionError(
                    f"a net of rank {self.rank} > {LADDER_MAX_RANK} takes every off-axis value "
                    f"exact over Q, at indices of max-norm at most {EXACT_FALLBACK_MAX_NORM}")
            raise DependentPointsError(
                "a box value on the ladder raises (dependent points), and the exact fallback "
                f"takes indices of max-norm at most {EXACT_FALLBACK_MAX_NORM}")
        w = self.exact_value(u).residue
        self.route_counts["exact"] += 1
        return w

    def _psi(self, axis: int, n: int) -> int:
        return self._divpolys[axis]._value(n)

    def _residue(self, x: int, units) -> int:
        return x % self.p


@dataclass(frozen=True)
class QuadraticFormData:
    """Symmetric matrix A with A_ii = D_{P_i} and A_ij = D_{P_i+P_j}/(D_i D_j)."""

    matrix: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_denominators(cls, dens: Sequence[int],
                          pair: Callable[[int, int], int]) -> "QuadraticFormData":
        """A from D_{P_i} = ``dens[i]`` and D_{P_i+P_j} = ``pair(i, j)``, i < j."""
        a = [[Fraction(d)] * len(dens) for d in dens]
        for i, j in itertools.combinations(range(len(dens)), 2):
            a[i][j] = a[j][i] = Fraction(pair(i, j), dens[i] * dens[j])
        return cls(tuple(map(tuple, a)))

    @classmethod
    def from_curve_points(cls, curve: WeierstrassCurve,
                          points: Sequence[CurvePoint]) -> "QuadraticFormData":
        """A off (A, B, D) triples of ``IntegralModel``: the net's cached
        triples of the points (the constructor checks them and refuses
        x_i = x_j), and P_i + P_j by the integer group law."""
        net = EllipticNet(curve, points)
        if net._law is None:
            raise ModelNotIntegralError("the rescaling F needs an integral model")
        t = [pt for pt, _ in net._steps]
        return cls.from_denominators([x[2] for x in t], lambda i, j: net._law.add(t[i], t[j])[2])

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def value(self, v: Sequence[int]) -> Fraction:
        """F_v = prod over i <= j of A_ij ** (v_i v_j)."""
        return Fraction(*self.parts(v))

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """(i, j, numerator, denominator) of each A_ij != 1, i <= j."""
        return tuple((i, j, a.numerator, a.denominator)
                     for i, j in itertools.combinations_with_replacement(range(self.rank), 2)
                     if (a := self.matrix[i][j]) != 1)

    def parts(self, v: Sequence[int]) -> tuple[int, int]:
        """F_v as an int numerator and denominator, not in lowest terms."""
        num = den = 1
        for i, j, n, d in self._terms:
            e = v[i] * v[j]
            if e < 0:
                n, d, e = d, n, -e
            num, den = num * n ** e, den * d ** e
        return num, den


def recurrence_check(value_fn: Callable[[Index], object], rank: int,
                     box_radius: int, trials: int, seed: int = 0) -> list:
    """Sample quadruples and test the four-index net recurrence exactly.

    Returns the violating quadruples (empty means every sample passed).
    ``value_fn`` is called once per distinct index (memoized per call).
    """
    rng = random.Random(seed)
    value = cache(value_fn)
    violations = []
    for _ in range(trials):
        quad = tuple(tuple(rng.randint(-box_radius, box_radius) for _ in range(rank))
                     for _ in range(4))
        if sum(reduce(mul, map(value, term)) for term in _net_terms(*quad)) != 0:
            violations.append(quad)
    return violations


def box_indices(rank: int, radius: int) -> list[Index]:
    """All integer vectors with max-norm at most radius."""
    return list(itertools.product(range(-radius, radius + 1), repeat=rank))
