"""Layer spans recorded from outside the library.

``Tracer.install`` replaces public callables of ``ellnet`` modules with
wrappers that open a span per call; ``uninstall`` puts the originals back.
Span names are ``<module>.<callable>``, tagged ``_q``/``_fp`` by the field
the curve is defined over.  Spans are aggregated in memory per (op, span,
parent span) with count, total and self time, and written out at the end of
the run.  A span's self time is its duration minus its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import ellnet.cli
import ellnet.curve
import ellnet.divpoly
import ellnet.lattice
import ellnet.net
import ellnet.render
import ellnet.symmetry
import ellnet.theorems
from ellnet.fieldarith import PrimeFieldElement

MODULES = ("cli", "render", "fieldarith", "curve", "divpoly", "net", "lattice",
           "symmetry", "theorems")


def _field(curve) -> str:
    return "fp" if isinstance(curve.a1, PrimeFieldElement) else "q"


# (owner, attribute, span name or a function of the call's first argument)
TARGETS = (
    (ellnet.curve.WeierstrassCurve, "add", lambda c: "curve.add_" + _field(c)),
    (ellnet.curve.WeierstrassCurve, "mul", lambda c: "curve.mul_" + _field(c)),
    (ellnet.curve, "decompose", "curve.decompose"),
    (ellnet.net, "decompose", "curve.decompose"),
    (ellnet.net.EllipticNet, "value", lambda n: "net.value_" + _field(n.curve)),
    (ellnet.net.EllipticNet, "point", "net.point"),
    (ellnet.net.EllipticNet, "denominator", "net.denominator"),
    (ellnet.net.ReducedNet, "value", "net.reduced_value"),
    (ellnet.net.ReducedNet, "exact_value", "net.exact_value"),
    (ellnet.cli, "recurrence_check", "net.recurrence_check"),
    (ellnet.divpoly.DivisionPolynomials, "psi", "divpoly.psi"),
    (ellnet.symmetry, "build_symmetry_data", "symmetry.build"),
    (ellnet.symmetry, "zero_lattice", "symmetry.zero_lattice"),
    (ellnet.symmetry, "rank_of_apparition", "symmetry.apparition"),
    (ellnet.symmetry, "xi", "symmetry.xi_chi"),
    (ellnet.symmetry, "chi", "symmetry.xi_chi"),
    (ellnet.symmetry, "eval_by_symmetry", "symmetry.eval_by_symmetry"),
    (ellnet.symmetry, "lattice_from_generators", "lattice.hnf"),
    (ellnet.lattice.IntegerLattice, "decompose", "lattice.decompose"),
    (ellnet.render, "factorize", "fieldarith.factorize"),
    (ellnet.render, "factor_string", "render.factor_string"),
    (ellnet.render, "table_text", "render.table"),
    (ellnet.render, "table_json", "render.table"),
    (ellnet.theorems, "valuation_match_report", "theorems.valuation_match_report"),
    (ellnet.theorems, "ayad_equivalence_report", "theorems.ayad_equivalence_report"),
    (ellnet.theorems, "epsilon_quadratic_check", "theorems.epsilon_quadratic_check"),
)

ROOT = "cli.main"
FALLBACK_CHILD, FALLBACK_PARENT = "net.value_q", "net.reduced_value"


class Tracer:
    def __init__(self):
        self._stack = []  # [name, start, child_time, saw_fallback]
        self._saved = []
        self.op = -1
        # (op, name, parent) -> [count, total_s, self_s]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.fallback_parents = 0

    # -- span bookkeeping ----------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, False])

    def exit(self) -> None:
        name, start, child, _ = self._stack.pop()
        dur = time.perf_counter() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
            if name == FALLBACK_CHILD and parent[0] == FALLBACK_PARENT and not parent[3]:
                parent[3] = True
                self.fallback_parents += 1
        rec = self.spans[(self.op, name, parent[0] if parent else None)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child

    def wrap(self, orig, name):
        tracer = self
        if callable(name):
            namer = name

            def wrapper(*args, **kwargs):
                tracer.enter(namer(args[0]))
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer.exit()
        else:
            def wrapper(*args, **kwargs):
                tracer.enter(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer.exit()
        wrapper.__wrapped__ = orig
        return wrapper

    # -- install / remove ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """name -> [count, total_s, self_s] summed over ops and parents."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name, _), (count, total, self_s) in self.spans.items():
            rec = out[name]
            rec[0] += count
            rec[1] += total
            rec[2] += self_s
        return out

    def write(self, path) -> None:
        rows = [{"op": op, "span": name, "parent": parent, "count": c,
                 "total_s": t, "self_s": s}
                for (op, name, parent), (c, t, s) in sorted(
                    self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2])))]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


def layer_metrics(tracer: Tracer, traced_op_s: float, untraced_op_s: float) -> dict:
    """Per-layer metric values from the traced pass."""
    t = tracer.totals()

    def calls(name):
        return t[name][0] if name in t else 0

    def self_s(name):
        return t[name][2] if name in t else 0.0

    m = {}
    for name in ("curve.add_q", "curve.mul_fp", "curve.add_fp", "fieldarith.factorize",
                 "net.value_fp", "net.reduced_value", "divpoly.psi", "lattice.decompose"):
        m[name + ".calls"] = calls(name)
    for name in ("curve.add_q", "curve.decompose", "net.value_q", "fieldarith.factorize",
                 "render.factor_string", "symmetry.zero_lattice", "curve.mul_fp",
                 "lattice.hnf", "symmetry.apparition", "symmetry.xi_chi", "symmetry.build",
                 "curve.add_fp", "net.value_fp", "net.point", "divpoly.psi",
                 "symmetry.eval_by_symmetry", "cli.main"):
        m[name + ".self_s"] = self_s(name)
    for name in ("symmetry.zero_lattice", "symmetry.apparition", "symmetry.xi_chi"):
        m[name + ".total_s"] = t[name][1] if name in t else 0.0
    m["net.exact_fallback.calls"] = tracer.fallback_parents
    reduced = calls("net.reduced_value")
    m["net.direct_ratio"] = (reduced - tracer.fallback_parents) / reduced if reduced else 0.0
    module_self = defaultdict(float)
    for name, (_, _, s) in t.items():
        module_self[name.split(".")[0]] += s
    for module in MODULES[1:]:  # cli's total is cli.main.self_s
        m[module + ".self_s"] = module_self[module]
    covered = sum(module_self.values())
    m["trace.op_s"] = traced_op_s
    m["trace.covered_s"] = covered
    m["trace.uncovered_s"] = traced_op_s - covered
    m["trace.overhead_ratio"] = untraced_op_s / traced_op_s if traced_op_s else 0.0
    return m
