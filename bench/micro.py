"""Layer micro-benchmarks on fixed inputs (described in spec.json "micro").

Each returns the median over REPEATS of a timed batch, per call, in the
unit its metric name ends with.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from ellnet import (EllipticNet, IntegerLattice, PrimeFieldElement, ReducedNet,
                    build_symmetry_data, eval_by_symmetry, factorize,
                    lattice_from_generators)
from ellnet.cli import parse_curve, parse_points
from ellnet.curve import reduce_mod_p, reduce_curve

from workloads import E1, E1_PQ_POINTS, E1_TABLE_POINTS, TABLES

REPEATS = 5
P = 1000003
HUGE = (10 ** 30 + 12345, -(10 ** 30) + 67890)


def _median_per_call(fn, calls: int, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def run_all() -> dict:
    m = {}
    a, b, c = (PrimeFieldElement(n, P) for n in (123456, 654321, 777))
    m["fieldarith.fp_mul_add_ns"] = _median_per_call(lambda: a * b + c, 20000) * 1e9
    m["fieldarith.fp_div_ns"] = _median_per_call(lambda: a / b, 20000) * 1e9

    e1 = parse_curve(E1)
    pt = parse_points(E1_PQ_POINTS)[0]
    pt20 = e1.mul(20, pt)
    m["curve.add_q_us"] = _median_per_call(lambda: e1.add(pt, pt20), 2000) * 1e6
    gf = reduce_curve(e1, P)
    gpt, gpt20 = reduce_mod_p(e1, pt, P), reduce_mod_p(e1, pt20, P)
    m["curve.add_fp_us"] = _median_per_call(lambda: gf.add(gpt, gpt20), 5000) * 1e6
    m["curve.mul_fp_us"] = _median_per_call(lambda: gf.mul(999983, gpt), 50) * 1e6

    table_pts = parse_points(E1_TABLE_POINTS)

    def grid30():
        net = EllipticNet(e1, table_pts)
        for i in range(30):
            for j in range(30):
                net.value((i, j))
    m["net.grid_q_us_per_value"] = _median_per_call(grid30, 1, 3) * 1e6 / 900

    pq_pts = parse_points(E1_PQ_POINTS)
    m["net.direct_fp_us_per_step"] = _median_per_call(
        lambda: ReducedNet(EllipticNet(e1, pq_pts), P).value((200, 199)), 1) * 1e6 / 399

    numbers = []
    for _, command, curve, points, grid in TABLES:
        net = EllipticNet(parse_curve(curve), parse_points(points))
        cols, rows = (int(s) for s in grid.split("x"))
        for i in range(cols):
            for j in range(rows):
                value = Fraction(net.denominator((i, j)) if command == "denom-table"
                                 else net.value((i, j)))
                if value:
                    numbers += [abs(value.numerator), value.denominator]

    def factor_all():
        for n in numbers:
            factorize(n)
    m["fieldarith.factorize_ms"] = _median_per_call(factor_all, 1, 3) * 1e3 / len(numbers)

    gens = [(38, 0), (0, 38), (2, 8), (4, 16), (1, 23)]
    m["lattice.hnf_us"] = _median_per_call(lambda: lattice_from_generators(2, gens), 2000) * 1e6
    lat = IntegerLattice(2, ((9, 3), (0, 10)))
    m["lattice.decompose_us"] = _median_per_call(lambda: lat.decompose(HUGE), 20000) * 1e6

    sd = build_symmetry_data(ReducedNet(EllipticNet(e1, pq_pts), 89))
    m["symmetry.eval_by_symmetry_us"] = _median_per_call(
        lambda: eval_by_symmetry(sd, HUGE), 2000) * 1e6
    return m
