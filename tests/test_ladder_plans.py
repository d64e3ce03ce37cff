"""The level plans of the halving ladder (``_net_value``) against a
reference schedule that keeps each level in a dict keyed by offset, and the
size of the process-global plan cache."""

import random
from collections import Counter
from operator import add, itemgetter

import pytest

from ellnet import EllipticNet, ReducedNet, WeierstrassCurve, rational_point
from ellnet import net as net_module
from ellnet.errors import EllnetError
from ellnet.net import LADDER_BASE_NORM, LADDER_MAX_RANK, _children, _max_norm, _normalize, box_indices
from conftest import E1_COEFFS, E2_COEFFS, P1, P2, Q1, Q2


def reference_net_value(key, memo, box, psi, combine, counts):
    """W(key) by the rule of ``_net_value`` on a dict-of-offsets schedule:
    a top-down pass keeps each level's offsets in a set and its known
    values in a dict keyed by offset, and a bottom-up pass fills the inner
    nodes from the dict of the level below.  None where a box value on the
    way raises, as ``_net_value``."""
    rank = len(key)
    levels, base, offsets = [], key, {(0,) * rank}
    while offsets:
        bits = tuple(x & 1 for x in base)
        known, inner, below = {}, [], set()
        for o in offsets:
            u, s = _normalize(tuple(map(add, base, o)))
            r = tuple(map(add, bits, o))
            if u in memo:
                w = memo[u]
            elif u.count(0) >= rank - 1:
                n = sum(u)
                w = memo[u] = psi(u.index(n), n)
                counts["psi"] += 1
            elif rank > 2 and (rank > LADDER_MAX_RANK or _max_norm(u) <= LADDER_BASE_NORM):
                try:
                    w = memo[u] = box(u)
                except EllnetError:
                    if u == key:
                        raise
                    return None
            else:
                step, _, units = _children(r)
                inner.append((o, u, s, units, itemgetter(*step)))
                below.update(step)
                continue
            known[o] = w if s > 0 else -w
        levels.append((known, inner))
        base = tuple(x >> 1 for x in base)
        offsets = below
    filled, new = None, 0
    for known, inner in reversed(levels):
        for o, u, s, units, values_of in inner:
            w = memo.get(u)
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


E1 = WeierstrassCurve(*E1_COEFFS)
E2 = WeierstrassCurve(*E2_COEFFS)
CURVE_5077A = WeierstrassCurve(0, 0, 1, -7, 6)
POINTS_5077A = (rational_point(1, 0), rational_point(2, 0), rational_point(0, 2))
CURVE_234446A = WeierstrassCurve(1, -1, 0, -79, 289)
POINTS_234446A = tuple(rational_point(x, y) for x, y in ((0, 17), (1, 14), (3, 7), (5, -2)))
# (4, 3) in place of (5, -2): some box values raise (tests/test_net.py)
DEPENDENT_234446A = POINTS_234446A[:3] + (rational_point(4, 3),)

NETS = {"E1": (E1, (P1, Q1)), "E2": (E2, (Q2, P2)), "5077a": (CURVE_5077A, POINTS_5077A),
        "234446a": (CURVE_234446A, POINTS_234446A), "dependent": (CURVE_234446A, DEPENDENT_234446A)}


def deep_key(rank, digits, seed):
    rng = random.Random(f"{rank}:{digits}:{seed}")
    return tuple(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                 for _ in range(rank))


def snapshot(obj):
    """The memos (keys, values and value types) and route counts of a net,
    or of a ``ReducedNet`` and its exact net."""
    nets = [obj, obj.net] if isinstance(obj, ReducedNet) else [obj]
    state = []
    for net in nets:
        memos = [net._residues] if isinstance(net, ReducedNet) else [net._scaled, net._values]
        state.append(([{k: (type(w), w) for k, w in memo.items()} for memo in memos],
                      Counter(net.route_counts)))
    return state


def _answer(value, v):
    try:
        return value(v)
    except EllnetError as exc:
        return type(exc), str(exc)


def run_phases(monkeypatch, name, p, phases, kernel):
    """The answers to each phase of indices on a fresh net (mod p, or over Q
    where p is None), with the state after each phase."""
    with monkeypatch.context() as patch:
        patch.setattr(net_module, "_net_value", kernel)
        net = EllipticNet(*NETS[name])
        obj = net if p is None else ReducedNet(net, p)
        return [([_answer(obj.value, v) for v in phase], snapshot(obj)) for phase in phases]


def assert_plans_match_the_reference(monkeypatch, name, p, phases):
    ours = run_phases(monkeypatch, name, p, phases, net_module._net_value)
    assert ours == run_phases(monkeypatch, name, p, phases, reference_net_value)
    # the exact net counts each memoized value once, by route: a value
    # answered off the box route where a box value raises is not memoized
    for _, state in ours:
        (scaled, values), counts = state[-1]
        assert counts["seed"] + counts["psi"] + counts["ladder"] + counts["box"] == len(scaled)
        assert counts["base"] + counts["points"] == len(values)
    return ours


@pytest.mark.parametrize("p", [None, 7, 61, 1000003], ids=["Q", "7", "61", "1000003"])
@pytest.mark.parametrize("name", ["E1", "E2"])
def test_rank_two_plans_match_the_reference(monkeypatch, name, p):
    if p is None:
        deep = [(97, -61), (-40, 123)]
    else:
        deep = [deep_key(2, 30, p), deep_key(2, 300, p)]
    fresh = assert_plans_match_the_reference(monkeypatch, name, p, [deep])
    warm = assert_plans_match_the_reference(monkeypatch, name, p, [box_indices(2, 9), deep])
    assert fresh[0][0] == warm[1][0]
    assert warm[1][1][0][1]["ladder"] > 0


@pytest.mark.parametrize("name, p", [("5077a", None), ("5077a", 1009), ("5077a", 1000003),
                                     ("234446a", None), ("234446a", 101)])
def test_rank_three_and_four_plans_match_the_reference(monkeypatch, name, p):
    rank = len(NETS[name][1])
    if p is None:
        deep = [(11, -6, 9, 7)[:rank], (-5, 13, 2, 10)[:rank]]
    else:
        deep = [deep_key(rank, 30, p), deep_key(rank, 300 if rank == 3 else 40, p)]
    fresh = assert_plans_match_the_reference(monkeypatch, name, p, [deep])
    warm = assert_plans_match_the_reference(monkeypatch, name, p,
                                            [box_indices(rank, 4 if rank == 3 else 2), deep])
    assert fresh[0][0] == warm[1][0]
    counts = fresh[0][1][0][1]
    assert counts["ladder"] > 0 and counts["box" if p is None else "exact"] > 0


@pytest.mark.parametrize("p", [None, 101])
def test_plans_match_the_reference_where_a_box_value_raises(monkeypatch, p):
    # the index on the points route and past the bound of the exact fallback,
    # then a grid in which some box values raise
    phases = [[(-9, 21, 28, 24), (-24, 25, 9, 29)], box_indices(4, 2)]
    if p is None:
        phases[0].pop()
    ours = assert_plans_match_the_reference(monkeypatch, "dependent", p, phases)
    answers = [w for phase, _ in ours for w in phase]
    assert any(isinstance(w, tuple) for w in answers)
    assert sum(not isinstance(w, tuple) for w in answers) > 50


# ----------------------------------------------------------------------
# the plan cache
# ----------------------------------------------------------------------

# The plans that the first sweep below builds on an empty cache number
# 1,216 (273, 421 and 522 at ranks 2, 3 and 4); a bound this close to the
# count fails as soon as plans stop being shared, or stop being keyed by
# offsets alone.
PLAN_BOUND = 1300
# plans hold no value of a net, so the same keys on other nets and primes
# may add only a few, where their memos differ (none differ here)
NEW_PLANS_BOUND = 5
SWEEP_KEYS = {2: 300, 3: 40, 4: 8}


def sweep(cases, seed):
    """Values at keys up to 10^40 on nets of ranks 2 to 4, on fresh and on
    warm memos: per net, a fresh ``ReducedNet`` for each of the first half
    of the keys, then one for a grid and the second half."""
    values = []
    for curve, points, p in cases:
        rank = len(points)
        rng = random.Random(f"{seed}:{rank}")
        keys = [tuple(rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 40))
                      for _ in range(rank)) for _ in range(SWEEP_KEYS[rank])]
        net = EllipticNet(curve, points)
        half = len(keys) // 2
        values += [ReducedNet(net, p).value(v) for v in keys[:half]]
        warm = ReducedNet(net, p)
        values += [warm.value(v) for v in box_indices(rank, 6 if rank == 2 else 2) + keys[half:]]
    return values


FIRST_SWEEP = [(E1, (P1, Q1), 1000003), (CURVE_5077A, POINTS_5077A, 1009),
               (CURVE_234446A, POINTS_234446A, 1000003)]
SECOND_SWEEP = [(E2, (Q2, P2), 61),
                (CURVE_234446A, tuple(rational_point(x, y) for x, y in ((0, 17), (-4, 25), (4, -7))), 13),
                (CURVE_234446A, POINTS_234446A, 101)]


def test_plan_cache_stays_bounded(monkeypatch):
    monkeypatch.setattr(net_module, "_PLANS", {})
    sweep(FIRST_SWEEP, seed=1)
    first = len(net_module._PLANS)
    sweep(SECOND_SWEEP, seed=1)
    total = len(net_module._PLANS)
    assert total - first <= NEW_PLANS_BOUND, (first, total)
    assert total <= PLAN_BOUND, total
    # one plan object per offset tuple, reached again through the cache
    assert all(plan[0] == offsets for offsets, plan in net_module._PLANS.items())


def test_a_full_plan_cache_keeps_the_values(monkeypatch):
    # a full cache is emptied, and the plans are built again
    monkeypatch.setattr(net_module, "_PLANS", {})
    expected = sweep(FIRST_SWEEP[1:2], seed=3)
    assert len(net_module._PLANS) > 400
    monkeypatch.setattr(net_module, "_PLANS", {})
    monkeypatch.setattr(net_module, "PLAN_CACHE_MAX", 100)
    assert sweep(FIRST_SWEEP[1:2], seed=3) == expected
    assert 0 < len(net_module._PLANS) <= 100
