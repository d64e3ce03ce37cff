"""Answer checks, run after the timed region.

Each check returns ``(verdict, detail)`` with verdict ``"ok"``,
``"no-oracle"`` (the answer could not be checked; listed in the run record)
or ``"wrong"``.  The routes used here differ from the ones the CLI op took:
golden files, the recurrence strategy, exact-then-reduce values, the
(p - 1)-periodicity of the symmetry formula, plain-integer group arithmetic
(``arith``) and the published Example 4.6 data.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

from ellnet import (EllipticNet, ReducedNet, build_symmetry_data, decompose,
                    eval_by_symmetry, is_prime)
from ellnet.cli import parse_curve, parse_points
from ellnet.errors import EllnetError

from arith import CurveModP
from workloads import E1, E1_PQ_POINTS, curve_coeffs, point_pairs

# Example 4.6 for E1 with generators (P, Q): lambda_1, lambda_2, xi(l1),
# xi(l2), chi(l1,l2), chi(l1,e1), chi(l1,e2), chi(l2,e1), chi(l2,e2).
EXAMPLE_4_6 = {
    7: ((1, 5), (0, 13), 1, 4, 3, 3, 3, 6, 2),
    11: ((1, 7), (0, 11), 4, 9, 9, 4, 9, 9, 6),
    19: ((1, 6), (0, 14), 8, 5, 4, 1, 3, 6, 2),
    61: ((2, 8), (0, 38), 39, 60, 19, 34, 6, 43, 41),
    89: ((9, 3), (0, 10), 87, 43, 80, 62, 58, 52, 33),
}
# Printed entries that contradict W(lam + v) = xi(lam) chi(lam, v) W(v);
# the value that relation forces replaces them (as in the acceptance suite).
EXAMPLE_4_6_MISPRINTS = {(11, 7): 4, (11, 8): 4, (61, 8): 1}

EXACT_MAX_NORM = 40
SYMMETRY_ORACLE_MAX_P = 101
GRID_SAMPLES = 4

ORACLE_OF = {
    "table": "table",
    "grid-S": "grid", "grid-M": "grid", "grid-L": "grid", "grid-factored": "grid",
    "probe-factoring": "grid",
    "valuation": "valuation",
    "recurrence": "recurrence",
    "symmetry": "symmetry", "probe-lattice-wall": "symmetry",
    "eval-symmetry": "eval", "eval-good": "eval", "eval-bad": "eval",
    "probe-recursion-cap": "eval", "probe-bad-reduction": "eval",
}
# The recurrence strategy recurses once per step; only the oracles get this
# limit, the timed ops run at the interpreter's default.
ORACLE_RECURSION_LIMIT = 20000


class Oracles:
    def __init__(self, fixtures: dict, seed: int):
        self.golden = fixtures["golden"]
        self.rng = random.Random(f"oracle:{seed}")
        self._nets = {}

    # -- cached reference objects ----------------------------------------

    def _cached(self, key, make):
        if key not in self._nets:
            self._nets[key] = make()
        return self._nets[key]

    def _points(self, points: str, ori: str = "qp"):
        pts = parse_points(points)
        return tuple(reversed(pts)) if ori == "pq" else pts

    def exact_net(self, curve: str, points: str, ori: str = "qp") -> EllipticNet:
        return self._cached(("points", curve, points, ori),
                            lambda: EllipticNet(parse_curve(curve), self._points(points, ori)))

    def recurrence_net(self, curve: str, points: str, ori: str = "qp") -> EllipticNet:
        return self._cached(("recurrence", curve, points, ori),
                            lambda: EllipticNet(parse_curve(curve), self._points(points, ori),
                                                strategy="recurrence"))

    def reduced(self, curve: str, points: str, p: int) -> ReducedNet:
        return self._cached(("reduced", curve, points, p),
                            lambda: ReducedNet(self.exact_net(curve, points), p))

    def symmetry_data(self, curve: str, points: str, p: int):
        return self._cached(("symmetry", curve, points, p),
                            lambda: build_symmetry_data(self.reduced(curve, points, p)))

    def recurrence_mod_p(self, curve: str, points: str, p: int) -> EllipticNet:
        def make():
            red = self.reduced(curve, points, p)
            return EllipticNet(red.gf_curve, red.gf_points, strategy="recurrence")
        return self._cached(("recurrence-mod-p", curve, points, p), make)

    # -- dispatch -----------------------------------------------------------

    def check(self, op, code, out: str, err: str):
        """Verdict on one answer; a failed op (no answer) is never passed here."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, ORACLE_RECURSION_LIMIT))
        try:
            return getattr(self, "_check_" + ORACLE_OF[op.cls])(op, code, out, err)
        finally:
            sys.setrecursionlimit(limit)

    # -- q-tables -------------------------------------------------------------

    def _check_table(self, op, code, out, err):
        golden = self.golden[op.meta["golden"]]
        if code == 0 and out == golden:
            return "ok", "byte-exact"
        return "wrong", f"differs from {op.meta['golden']}"

    def _check_grid(self, op, code, out, err):
        m = op.meta
        if code != 0:
            return "wrong", f"exit {code}: {err.strip()[:120]}"
        try:
            entries = parse_grid(out, m["cols"], m["rows"], m["fmt"])
        except ValueError as exc:
            return "wrong", f"unparsable grid: {exc}"
        net = self.exact_net(m["curve"], m["points"], m["ori"])
        denom = m["kind"] == "denom-table"
        if m["fmt"] == "factored":
            for v, (value, bases) in entries.items():
                if not all(is_prime(b) for b in bases):
                    return "wrong", f"non-prime factor at {v}"
                expected = Fraction(net.denominator(v)) if denom else net.value(v)
                if value != expected:
                    return "wrong", f"factors at {v} do not multiply back"
            entries = {v: value for v, (value, _) in entries.items()}
        sample = self.rng.sample(sorted(entries), min(GRID_SAMPLES, len(entries)))
        for v in sample:
            if denom:
                expected = self._denominator_by_group_law(m, v)
            else:
                expected = self.recurrence_net(m["curve"], m["points"], m["ori"]).value(v)
            if entries[v] != expected:
                return "wrong", f"entry {v} disagrees with the independent route"
        return "ok", f"{len(sample)} sampled entries"

    def _denominator_by_group_law(self, m, v) -> Fraction:
        if v == (0, 0):
            return Fraction(0)
        net = self.exact_net(m["curve"], m["points"], m["ori"])
        curve = net.curve
        pt = curve.add(curve.mul(v[0], net.points[0]), curve.mul(v[1], net.points[1]))
        return Fraction(decompose(curve, pt).d)

    def _check_valuation(self, op, code, out, err):
        curve, p = op.meta["curve"], op.meta["p"]
        cp = CurveModP(curve_coeffs(curve), p)
        reduced = [cp.reduce(x, y) for x, y in point_pairs(op.meta["points"])]
        if any(pt is not None and cp.is_singular_point(pt) for pt in reduced):
            ok = code == 2 and "singular reduction" in err
            return ("ok", "documented refusal") if ok else ("wrong", "expected a refusal")
        expected = f"PASS valuation match mod {p}: 0 mismatches\n"
        return ("ok", "identity holds") if code == 0 and out == expected else (
            "wrong", out.strip()[:120] or err.strip()[:120])

    def _check_recurrence(self, op, code, out, err):
        expected = f"PASS net recurrence: 0 violations / {op.meta['trials']} trials\n"
        return ("ok", "recurrence holds") if code == 0 and out == expected else (
            "wrong", out.strip()[:120] or err.strip()[:120])

    # -- fp-symmetry ------------------------------------------------------

    def _check_symmetry(self, op, code, out, err):
        m = op.meta
        if m["refused"]:
            ok = code == 2 and "rank of apparition" in err
            return ("ok", "documented refusal") if ok else ("wrong", "expected a refusal")
        if code != 0:
            return "wrong", f"exit {code}: {err.strip()[:120]}"
        data = json.loads(out) if m["fmt"] == "json" else parse_symmetry_plain(out)
        basis = [tuple(row) for row in data["lattice"]]
        xi = data["xi"]
        chi_basis, chi_axis = data["chi"]["basis"], data["chi"]["axis"]
        p = m["p"]
        if data["p"] != p or len(basis) != 2:
            return "wrong", "malformed symmetry data"
        if m["curve"] == E1 and m["points"] == E1_PQ_POINTS and p in EXAMPLE_4_6:
            row = list(EXAMPLE_4_6[p])
            for slot, value in EXAMPLE_4_6_MISPRINTS.items():
                if slot[0] == p:
                    row[slot[1]] = value
            got = [basis[0], basis[1], xi[0], xi[1], chi_basis[0][1],
                   chi_axis[0][0], chi_axis[0][1], chi_axis[1][0], chi_axis[1][1]]
            if got != [tuple(row[0]), tuple(row[1]), *row[2:]]:
                return "wrong", "differs from Example 4.6"
            return "ok", "Example 4.6"
        # the lattice is the kernel of v -> v.P: basis in the kernel, same index
        cp = CurveModP(curve_coeffs(m["curve"]), p)
        pts = [cp.reduce(x, y) for x, y in point_pairs(m["points"])]
        (a, b), (zero, d) = basis
        if zero != 0 or not 0 <= b < d or a * d != m["index"]:
            return "wrong", "lattice basis is not the HNF of the kernel"
        if not all(cp.in_kernel(lam, *pts) for lam in basis):
            return "wrong", "lattice basis vector outside the kernel"
        reps = data.get("reps", [])
        if m["fmt"] == "json" and len(reps) != m["index"]:
            return "wrong", "representative count differs from the index"
        # W(lam + v) = xi(lam) chi(lam, v) W(v), by direct evaluation
        net = self.reduced(m["curve"], m["points"], p)
        for i, lam in enumerate(basis):
            for j, e in enumerate(((1, 0), (0, 1))):
                lhs = net.value((lam[0] + e[0], lam[1] + e[1]))
                if lhs != xi[i] * chi_axis[i][j] % p:
                    return "wrong", f"xi/chi relation fails at lambda{i + 1} + e{j + 1}"
        l0, l1 = basis
        lhs = net.value((l0[0] + l1[0] + 1, l0[1] + l1[1]))
        rhs = xi[0] * chi_basis[0][1] * chi_axis[0][0] * xi[1] * chi_axis[1][0] % p
        if lhs != rhs:
            return "wrong", "chi(lambda1, lambda2) relation fails"
        small = [r for r in reps if max(map(abs, r["index"])) <= 25]
        for r in self.rng.sample(small, min(3, len(small))):
            if net.exact_value(tuple(r["index"])) != r["value"]:
                return "wrong", f"representative {r['index']} differs from exact"
        return "ok", "kernel lattice, xi/chi relations, exact reps"

    def _check_eval(self, op, code, out, err):
        m = op.meta
        if m.get("method") == "symmetry":
            if m["refused"]:
                ok = code == 2 and "rank of apparition" in err
                return ("ok", "documented refusal") if ok else ("wrong", "expected a refusal")
            expected = self.reduced(m["curve"], m["points"], m["p"]).exact_value(m["v0"])
            route = "exact W(v0), (p-1)-periodicity"
        else:
            expected, route = self._direct_reference(m["curve"], m["points"], m["p"], m["v"])
            if expected is None:
                return ("no-oracle", route) if code == 0 and out.strip().isdigit() else (
                    "wrong", f"exit {code}")
        if code != 0:
            return "wrong", f"exit {code}: {err.strip()[:120]}"
        return ("ok", route) if out == f"{expected.residue}\n" else (
            "wrong", f"{out.strip()} != {expected.residue} ({route})")

    def _direct_reference(self, curve, points, p, v):
        """A value for W(v) mod p by a route other than the direct one."""
        if p <= SYMMETRY_ORACLE_MAX_P:
            try:
                return eval_by_symmetry(self.symmetry_data(curve, points, p), v), "symmetry"
            except EllnetError:
                pass
        if max(map(abs, v)) <= EXACT_MAX_NORM:
            return self.reduced(curve, points, p).exact_value(v), "exact"
        try:
            return self.recurrence_mod_p(curve, points, p).value(v), "recurrence mod p"
        except EllnetError as exc:
            return None, f"recurrence mod p raised {type(exc).__name__}"


def parse_symmetry_plain(out: str) -> dict:
    """The ``--format plain`` symmetry line, in the JSON export's shape (no reps)."""
    cells = dict(cell.split("=", 1) for cell in out.strip().split(" | "))
    c12 = int(cells["chi(lambda1,lambda2)"])
    return {
        "p": int(cells["p"]),
        "lattice": [json.loads(cells["lambda1"]), json.loads(cells["lambda2"])],
        "xi": [int(cells["xi(lambda1)"]), int(cells["xi(lambda2)"])],
        "chi": {"basis": [[None, c12], [c12, None]],
                "axis": [[int(cells[f"chi(lambda{i},e{j})"]) for j in (1, 2)] for i in (1, 2)]},
    }


def parse_grid(out: str, cols: int, rows: int, fmt: str) -> dict:
    """Grid text/JSON -> {(c, r): value}; factored values carry their bases."""
    order = [(c, r) for r in range(rows - 1, -1, -1) for c in range(cols)]
    if fmt == "json":
        items = json.loads(out)
        if [tuple(it["index"]) for it in items] != order:
            raise ValueError("index order")
        return {tuple(it["index"]): Fraction(int(it["value"]["num"]), int(it["value"]["den"]))
                for it in items}
    lines = out.rstrip("\n").split("\n")
    cells = [cell.strip() for line in lines for cell in line.split(" | ")]
    if len(lines) != rows or len(cells) != len(order):
        raise ValueError("shape")
    if fmt == "plain":
        return {v: Fraction(cell) for v, cell in zip(order, cells)}
    return {v: parse_factored(cell) for v, cell in zip(order, cells)}


def parse_factored(cell: str) -> tuple[Fraction, list[int]]:
    sign = -1 if cell.startswith("-") else 1
    value, bases = Fraction(sign), []
    for part in cell.lstrip("-").split(" · "):
        base, _, exp = part.partition("^")
        base = int(base)
        if base in (0, 1):
            return Fraction(sign * base), []
        bases.append(base)
        value *= Fraction(base) ** int(exp or 1)
    return value, bases
