"""Compare the CLI of this tree with the CLI of another tree, argv by argv.

Every warm-up, op and probe of seeds 1 and 2 of the three bench workloads
(``bench/workloads.py`` of this tree) runs through ``ellnet.cli.main``,
together with a fixed list of ``verify`` and table argv (``fixed_argv``).
Each tree runs the whole list in one subprocess, with its own ``src`` on
the path.  Every argv whose exit code, stdout or stderr differs is listed;
the exit code is 1 if there is any, else 0.

    python tools/compare_outputs.py OTHER_TREE
"""

from __future__ import annotations

import argparse
import json
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


def fixed_argv() -> list[list[str]]:
    """``verify`` checks and tables on E1, E2 and 5077a, at small primes."""
    argvs = []
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
