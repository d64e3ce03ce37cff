"""Seeded op lists for the three workloads.

An op is one ``ellnet.cli.main(argv)`` call.  A workload is one *pass*: a
fixed plan of op classes whose parameters the seed draws from narrow,
cost-stratified ranges, so every seed costs about the same while no two
seeds send the same inputs.  The runner repeats the pass, each time in a
fresh seeded order.  Probes are ops at known limits of the library;
they run once per run under a time limit, count toward ``error_rate`` and
are never timed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from arith import CurveModP

E1 = "0,0,0,0,-11"
E2 = "0,1,7,28,0"
# Table convention lists Q before P; the symmetry example lists P first.
E1_TABLE_POINTS = "(15,58);(3,4)"
E1_PQ_POINTS = "(3,4);(15,58)"
E2_POINTS = "(1,3);(0,0)"

TIMED_LIMIT_S = 30.0

WORKLOADS = ("q-tables", "fp-symmetry", "fp-eval")

SPEC = json.loads((Path(__file__).parent / "spec.json").read_text())


@dataclass
class Op:
    """One CLI call, with what its oracle needs to know about it."""

    cls: str
    argv: list[str]
    meta: dict = field(default_factory=dict)
    probe: bool = False
    limit_s: float = TIMED_LIMIT_S

    @property
    def key(self) -> tuple:
        return tuple(self.argv)


def as_probe(op: Op, limit_s: float) -> Op:
    return replace(op, probe=True, limit_s=limit_s)


def curve_coeffs(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(","))


def point_pairs(text: str) -> list[tuple[Fraction, Fraction]]:
    out = []
    for part in text.split(";"):
        x, y = part.strip()[1:-1].split(",")
        out.append((Fraction(x), Fraction(y)))
    return out


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------

TABLES = (
    # (fixture, command, curve, points, grid)
    ("table1.txt", "denom-table", E1, E1_TABLE_POINTS, "5x10"),
    ("table2.txt", "net-table", E1, E1_TABLE_POINTS, "5x10"),
    ("table3.txt", "denom-table", E2, E2_POINTS, "7x10"),
    ("table4.txt", "net-table", E2, E2_POINTS, "7x10"),
)

_FACTOR_BASE = re.compile(r"(\d+)(?:\^-?\d+)?")


def load_fixtures(root: Path) -> dict:
    """Golden tables, and the primes printed in them (per curve)."""
    data = root / "tests" / "data"
    golden = {}
    primes = {E1: set(), E2: set()}
    for name, _, curve, _, _ in TABLES:
        text = (data / name).read_text()
        golden[name] = text
        for entry in re.split(r"[|\n]", text):
            for factor in entry.replace("-", " ").split("·"):
                m = _FACTOR_BASE.fullmatch(factor.strip())
                if m and int(m.group(1)) > 1:
                    primes[curve].add(int(m.group(1)))
    return {"golden": golden, "table_primes": {c: sorted(s) for c, s in primes.items()}}


# ----------------------------------------------------------------------
# q-tables
# ----------------------------------------------------------------------

# Largest factored row count per (curve, orientation) whose every entry
# factors within ~0.1 s; the factoring wall itself is the q-tables probe.
FACTORED_MAX_ROWS = {(E1, "qp"): 11, (E2, "qp"): 12, (E1, "pq"): 9, (E2, "pq"): 8}

# Grid side length and the seed's jitter on it, per size class.
GRID_SIDES = {"S": (9, 1), "M": (19, 1), "L": (28, 1)}


def q_tables_pass(rng: random.Random, fixtures: dict) -> list[Op]:
    ops = []
    for name, command, curve, points, grid in TABLES:
        ops.append(Op("table", [command, "--curve", curve, "--points", points,
                                "--grid", grid, "--format", "factored"],
                      {"golden": name}))
    combos = [(kind, curve, ori) for kind in ("net-table", "denom-table")
              for curve in (E1, E2) for ori in ("qp", "pq")]
    points_of = {E1: E1_TABLE_POINTS, E2: E2_POINTS}
    for size, (side, jitter) in GRID_SIDES.items():
        for kind, curve, ori in combos:
            for fmt in ("plain", "json"):
                cols = side + rng.randint(-jitter, jitter)
                rows = side + rng.randint(-jitter, jitter)
                ops.append(_grid_op(f"grid-{size}", kind, curve, points_of[curve], ori,
                                    cols, rows, fmt))
    for kind, curve, ori in combos:
        top = FACTORED_MAX_ROWS[(curve, ori)]
        ops.append(_grid_op("grid-factored", kind, curve, points_of[curve], ori,
                            rng.randint(4, 5), rng.randint(top - 2, top), "factored"))
    for curve in (E1, E2):
        for p in rng.sample(fixtures["table_primes"][curve], 10):
            ops.append(Op("valuation", ["verify", "valuation", "--curve", curve,
                                        "--points", points_of[curve], "--prime", str(p)],
                          {"curve": curve, "points": points_of[curve], "p": p}))
        for _ in range(10):
            seed = rng.randrange(10 ** 6)
            ops.append(Op("recurrence", ["verify", "recurrence", "--curve", curve,
                                         "--points", points_of[curve], "--radius", "4",
                                         "--trials", "200", "--seed", str(seed)],
                          {"trials": 200}))
    return ops


def _grid_op(cls, kind, curve, points, ori, cols, rows, fmt) -> Op:
    argv = [kind, "--curve", curve, "--points", points, "--orientation", ori,
            "--grid", f"{cols}x{rows}", "--format", fmt]
    return Op(cls, argv, {"kind": kind, "curve": curve, "points": points, "ori": ori,
                          "cols": cols, "rows": rows, "fmt": fmt})


def q_tables_probes() -> list[Op]:
    limit = SPEC["probes"]["factoring_wall"]["limit_s"]
    op = _grid_op("probe-factoring", "net-table", E1, E1_TABLE_POINTS, "qp", 1, 14,
                  "factored")
    return [as_probe(op, limit)]


# ----------------------------------------------------------------------
# fp-symmetry
# ----------------------------------------------------------------------

SYMMETRY_LADDER = primes_between(5, SPEC["fp_symmetry_ladder_max"])
SYMMETRY_EVALS = 2
# The primes of the paper's Example 4.6 (E1, generators P, Q).
EXAMPLE_PRIMES_ABOVE_LADDER = [p for p in (7, 11, 19, 61, 89) if p > SYMMETRY_LADDER[-1]]


def reduction_facts(curve: str, points: str, p: int) -> dict:
    """Apparition ranks and the subgroup index mod p, from plain integers.

    ``refused`` marks the documented precondition refusals: a base point
    that reduces to infinity or to the singular point.
    """
    cp = CurveModP(curve_coeffs(curve), p)
    pts = [cp.reduce(x, y) for x, y in point_pairs(points)]
    if any(pt is None or cp.is_singular_point(pt) for pt in pts):
        return {"refused": True}
    return {"refused": False, "rho": [cp.order(pt) for pt in pts],
            "index": cp.kernel_index(*pts)}


def _huge_multiple(rng: random.Random, unit: int) -> int:
    return rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30) // unit


def _symmetry_eval_op(rng: random.Random, base: list[str], meta: dict) -> Op:
    """eval --method symmetry at v0 + (p - 1)(a rho1, b rho2), |v| ~ 1e30."""
    p = meta["p"]
    if meta["refused"]:
        v0 = None
        v = (_huge_multiple(rng, 1), _huge_multiple(rng, 1))
    else:
        v0 = (0, 0)
        while v0 == (0, 0):
            v0 = (rng.randint(-20, 20), rng.randint(-20, 20))
        r1, r2 = meta["rho"]
        a = _huge_multiple(rng, (p - 1) * r1)
        b = _huge_multiple(rng, (p - 1) * r2)
        v = (v0[0] + (p - 1) * a * r1, v0[1] + (p - 1) * b * r2)
    return Op("eval-symmetry", ["eval", *base, f"--index={v[0]},{v[1]}", "--method", "symmetry"],
              {**meta, "method": "symmetry", "v": v, "v0": v0})


def fp_symmetry_pass(rng: random.Random, facts: dict) -> list[Op]:
    """Per (curve, ladder prime): symmetry as JSON and plain, and
    SYMMETRY_EVALS evals; then the E1 JSON build at each Example 4.6 prime
    above the ladder, so every published row is checked."""
    ops = []
    for curve, points in ((E1, E1_PQ_POINTS), (E2, E2_POINTS)):
        for p in SYMMETRY_LADDER:
            base = ["--curve", curve, "--points", points, "--prime", str(p)]
            meta = {"curve": curve, "points": points, "p": p, **facts[(curve, p)]}
            ops.append(Op("symmetry", ["symmetry", *base], {**meta, "fmt": "json"}))
            ops.append(Op("symmetry", ["symmetry", *base, "--format", "plain"],
                          {**meta, "fmt": "plain"}))
            ops += [_symmetry_eval_op(rng, base, meta) for _ in range(SYMMETRY_EVALS)]
    for p in EXAMPLE_PRIMES_ABOVE_LADDER:
        base = ["--curve", E1, "--points", E1_PQ_POINTS, "--prime", str(p)]
        meta = {"curve": E1, "points": E1_PQ_POINTS, "p": p, "fmt": "json", **facts[(E1, p)]}
        ops.append(Op("symmetry", ["symmetry", *base], meta))
    return ops


def symmetry_facts() -> dict:
    primes = (SYMMETRY_LADDER + EXAMPLE_PRIMES_ABOVE_LADDER
              + [SPEC["probes"]["lattice_wall"]["prime"]])
    return {(curve, p): reduction_facts(curve, points, p)
            for curve, points in ((E1, E1_PQ_POINTS), (E2, E2_POINTS)) for p in primes}


def fp_symmetry_probes(facts: dict) -> list[Op]:
    probe = SPEC["probes"]["lattice_wall"]
    p = probe["prime"]
    argv = ["symmetry", "--curve", E1, "--points", E1_PQ_POINTS, "--prime", str(p)]
    # no --format: the CLI prints JSON by default
    meta = {"curve": E1, "points": E1_PQ_POINTS, "p": p, "fmt": "json", **facts[(E1, p)]}
    return [as_probe(Op("probe-lattice-wall", argv, meta), probe["limit_s"])]


# ----------------------------------------------------------------------
# fp-eval
# ----------------------------------------------------------------------

GOOD_PRIMES = (11, 19, 61, 89, 1009, 1000003)
RINGS = (50, 100, 150, 200)
DIRECTION_BINS = 3
JITTER_MIN_PRIME = 1000
BAD_MAX = 9


def _orient(rng: random.Random, major: int, minor: int) -> tuple[int, int]:
    v = (major * rng.choice((-1, 1)), minor * rng.choice((-1, 1)))
    return v if rng.random() < 0.5 else (v[1], v[0])


def _eval_op(cls, curve, points, p, v) -> Op:
    argv = ["eval", "--curve", curve, "--points", points, "--prime", str(p),
            f"--index={v[0]},{v[1]}", "--method", "direct"]
    return Op(cls, argv, {"curve": curve, "points": points, "p": p, "v": v})


def fp_eval_pass(rng: random.Random) -> list[Op]:
    """Good reduction: every (curve, p) gets an index in every |v| ring and
    direction bin, jittered by the seed for p >= JITTER_MIN_PRIME and else
    negated or not.  Bad reduction (E2 mod 7): every index (a, b) of the
    |v| <= 9 box with a >= |b|, or its negative."""
    ops = []
    for curve, points in ((E1, E1_PQ_POINTS), (E2, E2_POINTS)):
        for p in GOOD_PRIMES:
            for ring in RINGS:
                for b in range(DIRECTION_BINS):
                    if p < JITTER_MIN_PRIME:
                        # the exact fallbacks of a small prime make cost jump
                        # with the index; v and -v cost the same (W is odd)
                        major, minor = ring, ring * (2 * b + 1) // (2 * DIRECTION_BINS)
                        sign = rng.choice((-1, 1))
                        v = (sign * major, sign * minor)
                    else:
                        major = rng.randint(ring - 4, ring)
                        share = (b + 0.25 + 0.5 * rng.random()) / DIRECTION_BINS
                        v = _orient(rng, major, min(major, int(major * share)))
                    ops.append(_eval_op("eval-good", curve, points, p, v))
    for major in range(1, BAD_MAX + 1):
        for minor in range(-major, major + 1):
            sign = rng.choice((-1, 1))
            ops.append(_eval_op("eval-bad", E2, E2_POINTS, 7, (sign * major, sign * minor)))
    return ops


def fp_eval_probes(rng: random.Random) -> list[Op]:
    spec = SPEC["probes"]
    deep = spec["recursion_cap"]
    ops = []
    for _ in range(deep["count"]):
        major = rng.randint(*deep["major_range"])
        minor = rng.randint(major - major // 10, major)
        op = _eval_op("probe-recursion-cap", E1, E1_PQ_POINTS, deep["prime"],
                      _orient(rng, major, minor))
        ops.append(as_probe(op, deep["limit_s"]))
    blowup = spec["bad_reduction_blowup"]
    for v in blowup["indices"]:
        op = _eval_op("probe-bad-reduction", E2, E2_POINTS, 7, tuple(v))
        ops.append(as_probe(op, blowup["limit_s"]))
    return ops


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def build(workload: str, seed: int, root: Path) -> dict:
    """The seeded pass, probes and warm-up ops of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    fixtures = load_fixtures(root)
    if workload == "q-tables":
        ops = q_tables_pass(rng, fixtures)
        probes = q_tables_probes()
        warmup = [_grid_op("warmup", "net-table", E1, E1_TABLE_POINTS, "qp", 4, 4, "plain")]
    elif workload == "fp-symmetry":
        facts = symmetry_facts()
        ops = fp_symmetry_pass(rng, facts)
        probes = fp_symmetry_probes(facts)
        warmup = [Op("warmup", ["symmetry", "--curve", E1, "--points", E1_PQ_POINTS,
                                "--prime", "5"])]
    elif workload == "fp-eval":
        ops = fp_eval_pass(rng)
        probes = fp_eval_probes(rng)
        warmup = [_eval_op("warmup", E1, E1_PQ_POINTS, 1009, (5, 4))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"ops": ops, "probes": probes, "warmup": warmup, "fixtures": fixtures}
