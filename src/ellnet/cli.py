"""Command-line front end: table reproduction, symmetry data, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import render, symmetry, theorems
from .curve import CurvePoint, INFINITY, WeierstrassCurve, rational_point
from .errors import EllnetError
from .fieldarith import _check_prime_modulus
from .net import EllipticNet, ReducedNet, recurrence_check

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def parse_curve(text: str) -> WeierstrassCurve:
    try:
        a1, a2, a3, a4, a6 = (int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f'curve {text!r} is not "a1,a2,a3,a4,a6"') from None
    return WeierstrassCurve(a1, a2, a3, a4, a6)


def parse_point(text: str) -> CurvePoint:
    text = text.strip()
    if text == "inf":
        return INFINITY
    parts = text[1:-1].split(",")
    if text.startswith("(") and text.endswith(")") and len(parts) == 2:
        with contextlib.suppress(ValueError, ZeroDivisionError):  # "a", "1/0"
            return rational_point(*parts)
    raise ValueError(f'point {text!r} is not "(x,y)" or "inf"')


def parse_points(text: str) -> tuple[CurvePoint, ...]:
    return tuple(parse_point(s) for s in text.split(";") if s.strip())


def parse_grid(text: str) -> tuple[int, int]:
    try:
        cols, rows = (int(s) for s in text.lower().split("x"))
    except ValueError:
        raise ValueError(f'grid {text!r} is not "COLSxROWS"') from None
    if min(cols, rows) < 1:
        raise ValueError(f"grid {text!r} needs at least one column and one row")
    return cols, rows


def parse_index(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.strip().lstrip("(").rstrip(")").split(","))
    except ValueError:
        raise ValueError(f'index {text!r} is not "v1,v2,..."') from None


def _oriented_points(args) -> tuple[CurvePoint, ...]:
    points = parse_points(args.points)
    if getattr(args, "orientation", "qp") == "pq":
        points = tuple(reversed(points))
    return points


def _build_net(args) -> EllipticNet:
    return EllipticNet(parse_curve(args.curve), _oriented_points(args))


def cmd_table(args) -> int:
    """Print a COLSxROWS grid of ``args.entries``: every entry is computed
    first, column by column, so an error prints no partial table."""
    cols, rows = parse_grid(args.grid)
    entry = args.entries(_build_net(args), args)
    values = {(c, r): entry((c, r)) for c in range(cols) for r in range(rows)}
    if args.format == render.JSON_FORMAT:
        print(json.dumps(render.table_json(values.__getitem__, cols, rows)))
    else:
        print(render.table_text(values.__getitem__, cols, rows, args.format))
    return 0


def cmd_symmetry(args) -> int:
    net = ReducedNet(_build_net(args), args.prime)
    sd = symmetry.build_symmetry_data(net)
    if args.format == render.JSON_FORMAT:
        print(json.dumps(sd.to_dict()))
        return 0
    basis = sd.lattice.basis
    cells = [f"p={sd.p}"]
    cells += [f"lambda{i + 1}={list(basis[i])}" for i in range(sd.rank)]
    cells += [f"xi(lambda{i + 1})={sd.xi_basis[i].residue}" for i in range(sd.rank)]
    for i in range(sd.rank):
        for j in range(i + 1, sd.rank):
            cells.append(f"chi(lambda{i + 1},lambda{j + 1})={sd.chi_basis[i][j].residue}")
    for i in range(sd.rank):
        for j in range(sd.rank):
            cells.append(f"chi(lambda{i + 1},e{j + 1})={sd.chi_axis[i][j].residue}")
    print(" | ".join(cells))
    return 0


def cmd_eval(args) -> int:
    v = parse_index(args.index)
    points = _oriented_points(args)
    if len(v) != len(points):
        raise ValueError(f"index length {len(v)} does not match the {len(points)} base points")
    net = ReducedNet(EllipticNet(parse_curve(args.curve), points), args.prime)
    if args.method == "direct":
        print(net.value(v).residue)
    else:
        sd = symmetry.build_symmetry_data(net)
        print(symmetry.eval_by_symmetry(sd, v).residue)
    return 0


def cmd_verify(args) -> int:
    for flag, value, least in (("--radius", args.radius, 1), ("--n-max", args.n_max, 3),
                               ("--trials", args.trials, 1)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, not {value}")
    net = _build_net(args)
    if args.check != "recurrence":
        if args.prime is None:
            raise ValueError(f"--prime is required for the {args.check} check")
        _check_prime_modulus(args.prime)
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f": {detail}"
        print(line)
        if not ok:
            failures += 1

    if args.check == "ayad":
        rep = theorems.ayad_equivalence_report(net, args.prime, args.radius, args.n_max)
        for warning in rep.hypothesis_warnings:
            print(f"warning: {warning}", file=sys.stderr)
        report("ayad all-equivalent", rep.all_equivalent,
               json.dumps(rep.to_dict()["properties"]))
    elif args.check == "valuation":
        rep = theorems.valuation_match_report(
            net, args.prime, args.radius,
            require_nonsingular=not args.allow_singular)
        report(f"valuation match mod {args.prime}", rep.ok,
               f"{len(rep.mismatches)} mismatches")
    elif args.check == "recurrence":
        bad = recurrence_check(net.scaled_value, net.rank, args.radius, args.trials, args.seed)
        report("net recurrence", not bad, f"{len(bad)} violations / {args.trials} trials")
    elif args.check == "epsilon":
        ok = theorems.epsilon_quadratic_check(net, args.prime, args.radius)
        report(f"epsilon parallelogram mod {args.prime}", ok)
    elif args.check == "symmetry-props":
        reduced = ReducedNet(net, args.prime)
        sd = symmetry.build_symmetry_data(reduced)
        basis = sd.lattice.basis
        ok = True
        for i in range(sd.rank):
            for j in range(sd.rank):
                ok &= sd.chi_basis[i][j] == sd.chi_basis[j][i]
        for i in range(sd.rank):
            for j in range(sd.rank):
                lam = tuple(a + b for a, b in zip(basis[i], basis[j]))
                lhs = symmetry.xi(reduced, sd.lattice, lam)
                ok &= lhs == sd.xi_basis[i] * sd.xi_basis[j] * sd.chi_basis[i][j]
            ok &= sd.xi_basis[i] ** 2 == sd.chi_basis[i][i]
        report(f"chi/xi identities mod {args.prime}", bool(ok))
        report(f"(q-1)-periodicity mod {args.prime}",
               symmetry.periodicity_check(sd, samples=args.trials // 10 or 10, seed=args.seed))
    return VERIFY_FAILURE if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellnet",
        description="Elliptic nets, net polynomials and their symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False, prime=False, prime_required=False):
        p.add_argument("--curve", required=True, help='coefficients "a1,a2,a3,a4,a6"')
        p.add_argument("--points", required=True, help='points "(x,y);(x,y)"')
        p.add_argument("--orientation", choices=("qp", "pq"), default="qp",
                       help="qp uses the points as given (table convention), pq swaps them")
        if grid:
            p.add_argument("--grid", required=True, help='"COLSxROWS"')
            p.add_argument("--format", choices=(render.PLAIN, render.FACTORED,
                                                render.JSON_FORMAT), default=render.PLAIN)
        if prime:
            p.add_argument("--prime", type=int, required=prime_required)

    p = sub.add_parser("denom-table", help="denominator net grid")
    common(p, grid=True)
    p.set_defaults(func=cmd_table, entries=lambda net, args: net.denominator)

    p = sub.add_parser("net-table", help="net polynomial value grid")
    common(p, grid=True)
    p.set_defaults(func=cmd_table, entries=lambda net, args: net.value)

    p = sub.add_parser("reduced-table", help="net values reduced mod p")
    common(p, grid=True, prime=True, prime_required=True)
    p.set_defaults(func=cmd_table,
                   entries=lambda net, args: ReducedNet(net, args.prime).residue)

    p = sub.add_parser("symmetry", help="zero lattice and xi/chi tables mod p")
    common(p, prime=True, prime_required=True)
    p.add_argument("--format", choices=(render.PLAIN, render.JSON_FORMAT),
                   default=render.JSON_FORMAT)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("eval", help="single net value mod p")
    common(p, prime=True, prime_required=True)
    p.add_argument("--index", required=True, help='"v1,v2"')
    p.add_argument("--method", choices=("symmetry", "direct"), default="symmetry")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run an instance checker")
    p.add_argument("check", choices=("ayad", "valuation", "recurrence",
                                     "symmetry-props", "epsilon"))
    common(p, prime=True)
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-singular", action="store_true",
                   help="disable the nonsingular-reduction gate of the valuation check")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _unlimited_int_digits():
        try:
            return args.func(args)
        except (EllnetError, ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the limit on int <-> str conversion (Python >= 3.10.7) for the
    duration: exact answers run past its default of 4,300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
