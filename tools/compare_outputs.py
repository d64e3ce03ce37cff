"""Compare the CLI of this tree with the CLI of another tree, argv by argv.

Every warm-up, op and probe of seeds 1 and 2 of the three bench workloads
(``bench/workloads.py`` of this tree) runs through ``ellnet.cli.main``,
together with a fixed list of ``verify``, table and ``eval --method
direct`` argv and of argv that end in a usage error (``fixed_argv``).
Each tree runs the whole list in one subprocess, with its own ``src`` on
the path.  Every argv whose exit code, stdout or stderr differs is listed;
the exit code is 1 if there is any, else 0.

    python tools/compare_outputs.py OTHER_TREE
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)

CURVES = {
    "E1": ("0,0,0,0,-11", ("(15,58);(3,4)", "(3,4);(15,58)", "(345/64,-6179/512);(15,58)")),
    "E2": ("0,1,7,28,0", ("(1,3);(0,0)", "(0,0);(1,3)")),
    "5077a": ("0,0,1,-7,6", ("(1,0);(2,0);(0,2)",)),
}
PRIMES = (2, 3, 5, 7, 11, 13, 17)
VERIFY = (
    ["ayad", "--radius", "2", "--n-max", "6"],
    ["valuation", "--radius", "3"],
    ["valuation", "--radius", "3", "--allow-singular"],
    ["epsilon", "--radius", "2"],
    ["symmetry-props", "--trials", "50"],
)
# eval --method direct where the bench's indices do not reach the ladder:
# (curve, points, prime, digits, rank, count) of seeded indices, deep at
# ranks 2 and 3, and on 234446a with a small relation among the points
# (tests/test_net.py, DEPENDENT_234446A) within max-norm 28, where some box
# values raise and the index takes the exact fallback, and one index past
# that bound, which the exact fallback refuses
DIRECT_EVALS = (
    ("0,0,1,-7,6", "(1,0);(2,0);(0,2)", 1009, 30, 3, 3),
    ("0,0,0,0,-11", "(3,4);(15,58)", 1000003, 300, 2, 1),
)
# tables past the bench's grid sizes on the rank-2 point sets of CURVES:
# (grid, formats) of net-table and denom-table, and reduced-table's grid
# at its primes
BIG_TABLES = (("40x40", ("plain", "json")), ("1x40", ("plain",)), ("40x1", ("plain",)))
REDUCED_GRID, REDUCED_PRIMES = "12x12", (7, 61, 1000003)
DEPENDENT = ("1,-1,0,-79,289", "(0,17);(1,14);(3,7);(4,3)", 101)
DEPENDENT_INDICES = [(-9, 21, 28, 24), (-24, 25, 9, 29)]
# the arguments each subcommand needs besides --curve and --points
SUBCOMMAND_ARGS = {
    "denom-table": ["--grid", "2x2"],
    "net-table": ["--grid", "2x2"],
    "reduced-table": ["--grid", "2x2", "--prime", "7"],
    "symmetry": ["--prime", "7"],
    "eval": ["--prime", "7", "--index", "3,2"],
    "verify": ["recurrence"],
}

# Run in the child: read the argv list as JSON on stdin, answer one
# [exit code, stdout, stderr] per argv as JSON on stdout.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from ellnet.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except BaseException as exc:
        code = f"exception {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def usage_argv() -> list[list[str]]:
    """argv that end in argparse's usage error or help text: at the top
    level an unknown command, ``--help`` and ``-h`` before a command; for
    each subcommand a missing required option, a bad choice of
    ``--format``, ``--method`` and ``--orientation``, a non-int
    ``--prime``, an unknown option and ``-h``."""
    argvs = [["bogus"], ["--help"], ["-h", "eval"]]
    points = ["--points", "(3,4);(15,58)"]
    for command, rest in SUBCOMMAND_ARGS.items():
        full = [command, *rest, "--curve", "0,0,0,0,-11", *points]
        argvs.append([command, *rest, *points])
        argvs += [full + extra for extra in (["--format", "bogus"], ["--method", "bogus"],
                                             ["--orientation", "bogus"], ["--prime", "x"],
                                             ["--bogus", "1"])]
        argvs.append([command, *rest, "-h"])
    return argvs


def fixed_argv() -> list[list[str]]:
    """``verify`` checks and tables on E1, E2 and 5077a, at small primes,
    the larger tables of ``BIG_TABLES`` at rank 2, the ``eval --method
    direct`` argv of ``DIRECT_EVALS`` and ``DEPENDENT``,
    and ``usage_argv``."""
    argvs = usage_argv()
    for curve, point_sets in CURVES.values():
        for points in point_sets:
            base = ["--curve", curve, "--points", points]
            argvs.append(["verify", "recurrence", *base, "--radius", "3", "--trials", "50"])
            for kind in ("denom-table", "net-table"):
                argvs.append([kind, *base, "--grid", "4x4"])
            for p in PRIMES:
                argvs.append(["reduced-table", *base, "--grid", "4x4", "--prime", str(p)])
                argvs += [["verify", check, *base, "--prime", str(p), *rest]
                          for check, *rest in VERIFY]
            if points.count(";") == 1:
                argvs += [[kind, *base, "--grid", grid, "--format", fmt] for grid, formats in BIG_TABLES
                          for kind in ("net-table", "denom-table") for fmt in formats]
                argvs += [["reduced-table", *base, "--grid", REDUCED_GRID, "--prime", str(p)]
                          for p in REDUCED_PRIMES]
    rng = random.Random(29)
    evals = [(curve, points, p, tuple(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                                      for _ in range(rank)))
             for curve, points, p, digits, rank, count in DIRECT_EVALS for _ in range(count)]
    small = [tuple(rng.randint(-28, 28) for _ in range(4)) for _ in range(6)]
    evals += [(*DEPENDENT, v) for v in DEPENDENT_INDICES + small]
    argvs += [["eval", "--curve", curve, "--points", points, "--prime", str(p),
               f"--index={','.join(map(str, v))}", "--method", "direct"] for curve, points, p, v in evals]
    return argvs


def bench_argv() -> list[list[str]]:
    """Every warm-up, op and probe of seeds 1-2 of the bench workloads."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    argvs = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            plan = workloads.build(workload, seed, ROOT)
            argvs += [op.argv for op in plan["warmup"] + plan["ops"] + plan["probes"]]
    return argvs


def all_argv() -> list[list[str]]:
    """The bench argv and ``fixed_argv``, each once, in first-seen order."""
    seen = {}
    for argv in bench_argv() + fixed_argv():
        seen.setdefault(tuple(argv), list(argv))
    return list(seen.values())


def run_tree(tree: Path, argvs: list[list[str]]) -> list[list]:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(Path(tree).resolve() / "src")],
                          input=json.dumps(argvs), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _short(x) -> str:
    text = repr(x)
    return text if len(text) <= 200 else f"{text[:200]}... ({len(text)} chars)"


def differences(argvs, ours, theirs) -> list[str]:
    """One report per argv whose exit code, stdout or stderr differs: the
    argv, then each field that differs, the other tree's value first."""
    reports = []
    for argv, a, b in zip(argvs, ours, theirs):
        fields = [f"  {name}: {_short(y)} -> {_short(x)}"
                  for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        if fields:
            reports.append("\n".join([" ".join(argv), *fields]))
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the tree to compare with")
    args = parser.parse_args(argv)
    argvs = all_argv()
    reports = differences(argvs, run_tree(ROOT, argvs), run_tree(args.other, argvs))
    for report in reports:
        print(report)
    print(f"{len(reports)} of {len(argvs)} argv differ")
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
