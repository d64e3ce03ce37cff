import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import ellnet
from ellnet import EllipticNet, ReducedNet
from ellnet.cli import (MAX_GRID_CELLS, MAX_GRID_SIDE, _parsers, build_parser, main, parse_curve, parse_grid,
                        parse_index, parse_point, parse_points)
from ellnet.lattice import lattice_from_generators
from ellnet.net import EXACT_FALLBACK_MAX_NORM, _reduce_fraction
from ellnet.fieldarith import is_prime
from ellnet.render import (DECIMAL_SPLIT_BITS, SEPARATOR, decimal_string, factor_string, plain_string,
                           table_json)

from conftest import assert_lattice_is_kernel, points_route

DATA = Path(__file__).parent / "data"

E1_ARGS = ["--curve", "0,0,0,0,-11", "--points", "(15,58);(3,4)"]
E2_ARGS = ["--curve", "0,1,7,28,0", "--points", "(1,3);(0,0)"]
PQ_ARGS = ["--curve", "0,0,0,0,-11", "--points", "(3,4);(15,58)"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor_string_values():
    assert factor_string(116) == "2^2 · 29"
    assert factor_string(-153) == "-3^2 · 17"
    assert factor_string(1) == "1"
    assert factor_string(-1) == "-1"
    assert factor_string(0) == "0"
    assert factor_string(Fraction(51, 4)) == "2^-2 · 3 · 17"
    assert factor_string(Fraction(-23 * 103, 2**36)) == "-2^-36 · 23 · 103"


def test_plain_string():
    assert plain_string(Fraction(345, 64)) == "345/64"
    assert plain_string(Fraction(-8)) == "-8"


@pytest.mark.parametrize("value", [Fraction(0), Fraction(1), Fraction(-1), Fraction(116), Fraction(-153),
                                   Fraction(51, 4), Fraction(-23 * 103, 2**36), Fraction(345, 64),
                                   Fraction(-(3**40 + 2), 7**13)], ids=str)
def test_renderers_read_an_int_pair_as_the_equal_fraction(value):
    # net-table hands the renderers coprime int pairs (num, den), den > 0,
    # and denom-table and reduced-table hand them ints
    pair = (value.numerator, value.denominator)
    assert plain_string(pair) == plain_string(value)
    assert factor_string(pair) == factor_string(value)
    assert table_json(lambda v: pair, 1, 1) == table_json(lambda v: value, 1, 1)
    if value.denominator == 1:
        n = value.numerator
        assert (plain_string(n), factor_string(n)) == (plain_string(value), factor_string(value))
        assert table_json(lambda v: n, 1, 1) == table_json(lambda v: value, 1, 1)


def test_parsers():
    curve = parse_curve("0,1,7,28,0")
    assert curve.a4 == 28
    pt = parse_point("(345/64, -6179/512)")
    assert pt.x == Fraction(345, 64)
    assert parse_point("inf").is_infinity
    assert parse_index("101,100") == (101, 100)
    with pytest.raises(ValueError):
        parse_curve("1,2,3")
    with pytest.raises(ValueError):
        parse_point("15,58")
    for text in ("(a,4)", "(1/0,2)", "(3,)", "(,4)"):
        with pytest.raises(ValueError, match=r'is not "\(x,y\)" or "inf"'):
            parse_point(text)
    assert parse_grid("60X1") == (60, 1)
    for text in ("0x0", "-1x3", "3x0"):
        with pytest.raises(ValueError, match="at least one column and one row"):
            parse_grid(text)


def test_grid_is_bounded_before_any_net_is_built(capsys, monkeypatch):
    # the bound admits every grid the tests and the bench run (1x120,
    # 40x40, 60x60) and refuses one cell or one row past it
    assert (MAX_GRID_SIDE, MAX_GRID_CELLS) == (128, 4096)
    for cols, rows in ((1, 128), (128, 1), (64, 64), (32, 128), (128, 32), (1, 120), (60, 60)):
        assert parse_grid(f"{cols}x{rows}") == (cols, rows)
    monkeypatch.setattr(ellnet.cli, "EllipticNet", None)  # building a net would raise TypeError
    for grid in ("129x1", "1x129", "65x64", "64x65", "33x128", "100000x100000"):
        for command, extra in (("net-table", []), ("denom-table", []), ("reduced-table", ["--prime", "7"])):
            assert run_cli(capsys, [command, *E1_ARGS, "--grid", grid, *extra]) == (
                2, "", f"error: grid '{grid}' is past the bound of 128 per side and 4096 cells\n")


# The costliest grids at the bound on the paper's points (README, "Command
# line"), each run as its own interpreter: (argv, seconds, MB) with the time
# and peak RSS measured on a 2-core VM under Python 3.11 (2.6 s / 28 MB and
# 1.9 s / 73 MB), and the limits the test states, with room for a slower
# machine
BOUND_GRIDS = {
    "denom-table-e2-32x128": (["denom-table", *E2_ARGS, "--grid", "32x128"], 15, 100),
    "net-table-e1-128x32-json": (["net-table", *E1_ARGS, "--grid", "128x32", "--format", "json"], 15, 150),
}
MEASURE_CHILD = """
import contextlib, io, resource, sys, time
from ellnet.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


@pytest.mark.parametrize("name", BOUND_GRIDS)
def test_grid_at_the_bound_answers_within_its_budget(name):
    argv, seconds, megabytes = BOUND_GRIDS[name]
    src = str(Path(ellnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", MEASURE_CHILD, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    code, elapsed, rss = proc.stdout.split()
    assert (code, proc.stderr) == ("0", "")
    assert float(elapsed) < seconds and float(rss) < megabytes, (elapsed, rss)


def test_denom_table_golden(capsys):
    code, out, _ = run_cli(capsys, ["denom-table", *E1_ARGS, "--grid", "5x10",
                                    "--format", "factored"])
    assert code == 0
    assert out == (DATA / "table1.txt").read_text()


def test_net_table_golden(capsys):
    code, out, _ = run_cli(capsys, ["net-table", *E1_ARGS, "--grid", "5x10",
                                    "--format", "factored"])
    assert code == 0
    assert out == (DATA / "table2.txt").read_text()


def test_tables_are_deterministic(capsys):
    argv = ["net-table", *E2_ARGS, "--grid", "3x4", "--format", "factored"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_orientation_flag_swaps_points(capsys):
    _, qp, _ = run_cli(capsys, ["net-table", *E1_ARGS, "--grid", "3x3"])
    _, pq, _ = run_cli(capsys, ["net-table", *PQ_ARGS, "--grid", "3x3",
                                "--orientation", "pq"])
    assert qp == pq


def test_tiny_grid_corner(capsys):
    code, out, _ = run_cli(capsys, ["denom-table", *E1_ARGS, "--grid", "1x1"])
    assert code == 0 and out.strip() == "0"


def test_table_json_schema(capsys):
    code, out, _ = run_cli(capsys, ["net-table", *E1_ARGS, "--grid", "3x3",
                                    "--format", "json"])
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 9
    by_index = {tuple(e["index"]): e["value"] for e in entries}
    assert by_index[(1, 2)] == {"num": "3", "den": "4"}
    assert by_index[(0, 0)] == {"num": "0", "den": "1"}


def test_reduced_table(capsys):
    code, out, _ = run_cli(capsys, ["reduced-table", *E1_ARGS, "--grid", "3x3",
                                    "--prime", "5"])
    assert code == 0
    rows = [line.split(" | ") for line in out.strip().splitlines()]
    assert rows[2][0] == "0"  # the (0, 0) corner, bottom-left
    assert all(int(cell) in range(5) for row in rows for cell in row)


def test_symmetry_command_plain(capsys):
    code, out, _ = run_cli(capsys, ["symmetry", *PQ_ARGS, "--prime", "7",
                                    "--format", "plain"])
    assert code == 0
    assert "lambda1=[1, 5]" in out and "xi(lambda1)=1" in out
    assert "chi(lambda1,lambda2)=3" in out


def test_symmetry_command_json(capsys):
    code, out, _ = run_cli(capsys, ["symmetry", *PQ_ARGS, "--prime", "7"])
    assert code == 0
    blob = json.loads(out)
    assert blob["lattice"] == [[1, 5], [0, 13]]
    assert blob["xi"] == [1, 4]
    assert blob["chi"]["basis"][0][1] == 3


def test_eval_command(capsys):
    code, out, _ = run_cli(capsys, ["eval", *PQ_ARGS, "--prime", "19",
                                    "--index", "101,100"])
    assert code == 0 and out.strip() == "12"
    code, out, _ = run_cli(capsys, ["eval", *PQ_ARGS, "--prime", "89",
                                    "--index", "101,100"])
    assert code == 0 and out.strip() == "52"
    code, out, _ = run_cli(capsys, ["eval", *PQ_ARGS, "--prime", "7",
                                    "--index", "0,0"])
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, ["eval", *PQ_ARGS, "--prime", "7",
                                    "--index", "101,100", "--method", "direct"])
    assert code == 0 and out.strip() == "1"


def test_verify_commands(capsys):
    code, out, _ = run_cli(capsys, ["verify", "valuation", *E1_ARGS, "--prime", "3",
                                    "--radius", "3"])
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run_cli(capsys, ["verify", "ayad", *E2_ARGS, "--prime", "7"])
    assert code == 0 and "PASS" in out
    code, out, _ = run_cli(capsys, ["verify", "recurrence", *E1_ARGS,
                                    "--radius", "4", "--trials", "100"])
    assert code == 0
    code, out, _ = run_cli(capsys, ["verify", "epsilon", *E1_ARGS, "--prime", "5",
                                    "--radius", "2"])
    assert code == 0
    code, out, _ = run_cli(capsys, ["verify", "symmetry-props", *PQ_ARGS,
                                    "--prime", "7", "--trials", "100"])
    assert code == 0


@pytest.mark.parametrize("args", [E1_ARGS, E2_ARGS, PQ_ARGS], ids=["e1", "e2", "e1-pq"])
def test_verify_recurrence_checks_the_rescaled_net(monkeypatch, capsys, args):
    # the recurrence is checked on the int net Psi-hat = F_v W(v), whose
    # terms all carry the same power of F, so the report is W's
    def refuse(self, v):
        raise AssertionError("EllipticNet.value ran")

    monkeypatch.setattr(EllipticNet, "value", refuse)
    code, out, _ = run_cli(capsys, ["verify", "recurrence", *args, "--radius", "6",
                                    "--trials", "200"])
    assert (code, out) == (0, "PASS net recurrence: 0 violations / 200 trials\n")


def test_verify_failure_exit_code(capsys):
    # gate disabled at the singular prime: mismatches exist, exit code 1
    code, out, _ = run_cli(capsys, ["verify", "valuation", *E2_ARGS, "--prime", "7",
                                    "--radius", "3", "--allow-singular"])
    assert code == 1 and out.startswith("FAIL")
    code, _, err = run_cli(capsys, ["verify", "valuation", *E2_ARGS, "--prime", "7",
                                    "--radius", "3"])
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, ["verify", "ayad", *E2_ARGS])
    assert code == 2


def test_precondition_exit_code(capsys):
    # P - Q reduces to infinity mod 3: symmetry data cannot be built
    code, _, err = run_cli(capsys, ["symmetry", *PQ_ARGS, "--prime", "3"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["net-table", *E1_ARGS, "--grid", "3"], 'grid \'3\' is not "COLSxROWS"'),
    (["net-table", *E1_ARGS, "--grid", "3x4x5"], 'grid \'3x4x5\' is not "COLSxROWS"'),
    (["net-table", "--curve", "0,0,0,0,-11", "--points", "(3,4,5)", "--grid", "2x2"],
     'point \'(3,4,5)\' is not "(x,y)" or "inf"'),
    # refused before the symmetry data of p = 1000003 is built
    (["eval", *PQ_ARGS, "--prime", "1000003", "--index", "5"],
     "index length 1 does not match the 2 base points"),
    (["verify", "recurrence", *E1_ARGS, "--trials=-5"], "--trials must be at least 1, not -5"),
    (["verify", "ayad", *E2_ARGS, "--prime=7", "--radius=0"], "--radius must be at least 1, not 0"),
    (["verify", "ayad", *E2_ARGS, "--prime=7", "--n-max=2"], "--n-max must be at least 3, not 2"),
    (["eval", *PQ_ARGS, "--prime", "7", "--index=a,b"], 'index \'a,b\' is not "v1,v2,..."'),
    (["eval", "--curve", "0,0,0,a,-11", "--points", "(3,4);(15,58)", "--prime", "7", "--index=1,2"],
     'curve \'0,0,0,a,-11\' is not "a1,a2,a3,a4,a6"'),
    (["net-table", "--curve", "0,0,0,-11", "--points", "(3,4);(15,58)", "--grid", "2x2"],
     'curve \'0,0,0,-11\' is not "a1,a2,a3,a4,a6"'),
    (["denom-table", *E1_ARGS, "--grid", "0x0"],
     "grid '0x0' needs at least one column and one row"),
    (["denom-table", *E1_ARGS, "--grid=-1x3"],
     "grid '-1x3' needs at least one column and one row"),
    (["net-table", "--curve", "0,0,0,0,-11", "--points", "(a,4);(15,58)", "--grid", "2x2"],
     'point \'(a,4)\' is not "(x,y)" or "inf"'),
    (["net-table", "--curve", "0,0,0,0,-11", "--points", "(1/0,2);(15,58)", "--grid", "2x2"],
     'point \'(1/0,2)\' is not "(x,y)" or "inf"'),
], ids=["grid-one-value", "grid-three-values", "point-three-coordinates", "eval-short-index",
        "verify-trials", "verify-radius", "verify-n-max", "eval-index-not-int", "curve-not-int",
        "curve-four-values", "grid-empty", "grid-negative", "point-not-a-number",
        "point-zero-denominator"])
def test_input_errors_name_the_argument(capsys, argv, message):
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["eval", "symmetry"])
@pytest.mark.parametrize("prime", [91, 1, 0, -7])
def test_non_prime_modulus_is_refused_first(capsys, command, prime):
    # refused before any reduction: mod 1 every point would reduce to
    # infinity, and mod 0 the reduction would divide by zero
    argv = [command, *PQ_ARGS, f"--prime={prime}"]
    if command == "eval":
        argv += ["--method", "direct", "--index=5,4"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {prime} is not prime\n")


@pytest.mark.parametrize("check", ["ayad", "valuation", "epsilon"])
@pytest.mark.parametrize("prime", [0, 1, 4, 91, -7])
def test_verify_refuses_a_non_prime_modulus(capsys, check, prime):
    # checked before any report: mod 0 the reduction would divide by zero,
    # and mod 1 every point would reduce to infinity
    code, out, err = run_cli(capsys, ["verify", check, *E2_ARGS, f"--prime={prime}"])
    assert (code, out, err) == (2, "", f"error: {prime} is not prime\n")


@pytest.mark.parametrize("prime", [561, 3215031751])
def test_verify_valuation_refuses_a_pseudoprime_after_a_prime(capsys, prime):
    # a prime checked once is cached; a composite is still refused, exit 2
    code, out, _ = run_cli(capsys, ["verify", "valuation", *E1_ARGS, "--prime", "5",
                                    "--radius", "2"])
    assert code == 0 and out.startswith("PASS")
    assert run_cli(capsys, ["verify", "valuation", *E1_ARGS, f"--prime={prime}"]) == (
        2, "", f"error: {prime} is not prime\n")


def test_table_error_prints_no_partial_table(capsys):
    # P = (2, 3) has order 6, so D_{6P} does not exist: the last entry of
    # the grid raises after six entries have answered
    code, out, err = run_cli(capsys, ["denom-table", "--curve", "0,0,0,0,1",
                                      "--points", "(2,3);(0,1)", "--grid", "7x1"])
    assert code == 2 and out == "" and "(6, 0)" in err


def test_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["denom-table", "--curve", "0,0,0,0,-11"])
    assert exc.value.code == 2


def _parse_exit(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_usage_errors_and_help_are_the_full_parsers(monkeypatch):
    # main hands the arguments after a subcommand's name to its parser;
    # every usage error and help text stays the full parser's, also where
    # the subcommand's parser leaves an argument over (ellnet: error:
    # unrecognized arguments, not ellnet eval: error)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    import compare_outputs

    argvs = [[], *compare_outputs.usage_argv()]
    assert {a[0] for a in argvs if a} >= {"bogus", "--help", "-h", *_parsers()[1]}
    for argv in argvs:
        assert _parse_exit(main, argv) == _parse_exit(build_parser().parse_args, argv), argv


# One argv per subcommand, each run as its own interpreter at the default
# recursion limit, including inputs that end in a precondition error (2) or a
# verification failure (1).
CLI_MATRIX = [
    ["denom-table", *E1_ARGS, "--grid", "2x2"],
    ["net-table", *E2_ARGS, "--grid", "3x3", "--format", "factored"],
    ["reduced-table", *E2_ARGS, "--grid", "4x4", "--prime", "7"],
    ["symmetry", *PQ_ARGS, "--prime", "3"],
    ["eval", *PQ_ARGS, "--prime", "19", "--index", "101,100"],
    ["verify", "valuation", *E2_ARGS, "--prime", "7", "--allow-singular"],
]
DEEP_EVAL = ["eval", *PQ_ARGS, "--method", "direct", "--prime", "1000003",
             "--index=600,599"]
HUGE_INDEX = "--index=738495061837265019283746501923,-401928374650192837465019283746"
HUGE_EVAL = ["eval", *PQ_ARGS, "--method", "direct", "--prime", "89", HUGE_INDEX]
# psi at an axis index of 400 digits, alone and inside the ladder: far more
# halvings than the default recursion limit allows frames
AXIS_HUGE_EVAL = HUGE_EVAL[:-1] + [f"--index=0,{10 ** 400}"]
NEAR_AXIS_HUGE_EVAL = HUGE_EVAL[:-1] + [f"--index={10 ** 400},1"]
# indices whose length is not the rank of the net: a usage error
SHORT_INDEX_EVAL = ["eval", *PQ_ARGS, "--method", "direct", "--prime", "19", "--index=10"]
LONG_INDEX_EVAL = ["eval", *PQ_ARGS, "--method", "direct", "--prime", "19",
                   "--index=10,11,12"]
# W(0, 119) has about 4,700 digits, past Python's default limit of 4,300 on
# int <-> str conversion
LONG_TABLE = ["net-table", *E1_ARGS, "--grid", "1x120"]
LONG_TABLE_JSON = [*LONG_TABLE, "--format", "json"]
# a rank-1 net at bad reduction: psi_2(P) = 7, so psi mod 7 answers 0 at
# every even index, with no exact detour over Q
RANK_ONE_ARGS = ["--curve", "0,1,7,28,0", "--points", "(0,0)"]
RANK_ONE_EVAL = ["eval", *RANK_ONE_ARGS, "--prime", "7", "--method", "direct", "--index=500"]
RANK_ONE_HUGE_EVAL = RANK_ONE_EVAL[:-1] + ["--index=20000"]
# Cremona 234446a: a small relation among the four points makes box values
# raise, and this 30-digit index meets one on its ladder; the exact
# fallback over Q refuses it at once (it ran without bound before)
DEPENDENT_HUGE_EVAL = ["eval", "--curve", "1,-1,0,-79,289", "--points", "(0,17);(1,14);(3,7);(4,3)",
                       "--prime", "101", "--method", "direct",
                       "--index=-265783037852160943273754885714,466805709061477868516227043218,"
                       "923920153035226986328788032806,154573337950570872618040279639"]

# seven points of 5077a, past the ladder's rank: every value is exact over
# Q, which is linear in |v|, so an index past its bound is refused at once
RANK_SEVEN_EVAL = ["eval", "--curve", "0,0,1,-7,6", "--points", "(1,0);(2,0);(0,2);(-3,0);(4,6);(8,21);(3,3)",
                   "--prime", "101", "--method", "direct", "--index=300,200,1,1,1,1,1"]
# inputs that once ran with exit 0 or passed on a message of Fraction, by id,
# each with the text its error names
SILENT_INPUTS = {
    "denom-table-grid-0x0": (["denom-table", *E1_ARGS, "--grid", "0x0"], "grid '0x0'"),
    "denom-table-grid-minus-1x3": (["denom-table", *E1_ARGS, "--grid=-1x3"], "grid '-1x3'"),
    "net-table-point-not-a-number": (["net-table", "--curve", "0,0,0,0,-11", "--points",
                                      "(a,4);(15,58)", "--grid", "2x2"], "point '(a,4)'"),
    "net-table-point-zero-denominator": (["net-table", "--curve", "0,0,0,0,-11", "--points",
                                          "(1/0,2);(15,58)", "--grid", "2x2"], "point '(1/0,2)'"),
}
# bounds of verify that leave nothing to check, by id, each with the flag it names
AYAD_ARGS = ["verify", "ayad", *E2_ARGS, "--prime=7"]
RECURRENCE_ARGS = ["verify", "recurrence", *E1_ARGS]
DEGENERATE_VERIFY = {
    "verify-ayad-radius-0": ([*AYAD_ARGS, "--radius=0"], "--radius"),
    "verify-ayad-radius-minus-1": ([*AYAD_ARGS, "--radius=-1"], "--radius"),
    "verify-ayad-n-max-2": ([*AYAD_ARGS, "--n-max=2"], "--n-max"),
    "verify-recurrence-radius-minus-1": ([*RECURRENCE_ARGS, "--radius=-1"], "--radius"),
    "verify-recurrence-trials-minus-5": ([*RECURRENCE_ARGS, "--trials=-5"], "--trials"),
    "verify-valuation-radius-minus-1": (["verify", "valuation", *E1_ARGS, "--prime=3", "--radius=-1"],
                                        "--radius"),
}

# a modulus that is not prime, one per verify check that reduces mod p
NON_PRIME_VERIFY = [["verify", "ayad", *E2_ARGS, "--prime=0"],
                    ["verify", "valuation", *E2_ARGS, "--prime=1"],
                    ["verify", "epsilon", *E2_ARGS, "--prime=-7"]]


def run_subprocess(argv):
    src = str(Path(ellnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "ellnet.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", CLI_MATRIX + [DEEP_EVAL, HUGE_EVAL, LONG_TABLE, LONG_TABLE_JSON,
                                              SHORT_INDEX_EVAL, LONG_INDEX_EVAL, RANK_ONE_EVAL,
                                              RANK_ONE_HUGE_EVAL, AXIS_HUGE_EVAL,
                                              NEAR_AXIS_HUGE_EVAL, DEPENDENT_HUGE_EVAL,
                                              *NON_PRIME_VERIFY, RANK_SEVEN_EVAL,
                                              *(argv for argv, _ in DEGENERATE_VERIFY.values()),
                                              *(argv for argv, _ in SILENT_INPUTS.values())],
                         ids=[argv[0] for argv in CLI_MATRIX]
                         + ["eval-direct-deep", "eval-direct-huge", "net-table-1x120",
                            "net-table-1x120-json", "eval-direct-short-index",
                            "eval-direct-long-index", "eval-direct-rank-one",
                            "eval-direct-rank-one-huge", "eval-direct-axis-huge",
                            "eval-direct-near-axis-huge", "eval-direct-dependent-huge",
                            "verify-ayad-prime-0", "verify-valuation-prime-1",
                            "verify-epsilon-prime-minus-7", "eval-direct-rank-seven",
                            *DEGENERATE_VERIFY, *SILENT_INPUTS])
def test_cli_matrix_never_tracebacks(argv):
    start = time.monotonic()
    proc = run_subprocess(argv)
    elapsed = time.monotonic() - start
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    if argv in (SHORT_INDEX_EVAL, LONG_INDEX_EVAL):
        assert proc.returncode == 2 and "index length" in proc.stderr, proc.stderr
    if argv is DEEP_EVAL:
        net = ReducedNet(EllipticNet(parse_curve(PQ_ARGS[1]), parse_points(PQ_ARGS[3])),
                         1000003)
        assert proc.returncode == 0
        assert proc.stdout.strip() == str(net.value((600, 599)).residue)
    if argv in (HUGE_EVAL, AXIS_HUGE_EVAL, NEAR_AXIS_HUGE_EVAL):
        symmetry = run_subprocess(["eval", *PQ_ARGS, "--method", "symmetry", "--prime", "89",
                                   argv[-1]])
        assert proc.returncode == symmetry.returncode == 0, symmetry.stderr
        assert proc.stdout == symmetry.stdout
    if argv is RANK_ONE_EVAL:
        assert proc.returncode == 0 and elapsed < 2, (proc.stderr, elapsed)
        curve, points = parse_curve(RANK_ONE_ARGS[1]), parse_points(RANK_ONE_ARGS[3])
        reduced = ReducedNet(EllipticNet(curve, points), 7)
        assert proc.stdout.strip() == str(reduced.value((500,)).residue)
        by_points = EllipticNet(curve, points)
        for n in range(151):
            assert reduced.value((n,)) == _reduce_fraction(points_route(by_points, (n,)), 7), n
    if argv is RANK_ONE_HUGE_EVAL:
        assert proc.returncode == 0 and elapsed < 2, (proc.stderr, elapsed)
        curve, points = parse_curve(RANK_ONE_ARGS[1]), parse_points(RANK_ONE_ARGS[3])
        reduced = ReducedNet(EllipticNet(curve, points), 7)
        assert proc.stdout.strip() == str(reduced.value((20000,)).residue) == "0"
        for n in (999, 1000):
            assert reduced.value((n,)) == reduced.exact_value((n,)), n
    if argv in NON_PRIME_VERIFY:
        prime = argv[-1].split("=")[1]
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {prime} is not prime\n")
    if argv is DEPENDENT_HUGE_EVAL:
        # interpreter start included; the unbounded fallback ran past 3 s
        assert proc.returncode == 2 and elapsed < 3, (proc.stderr, elapsed)
        assert proc.stderr.startswith("error: a box value on the ladder raises (dependent points)")
        assert f"max-norm at most {EXACT_FALLBACK_MAX_NORM}" in proc.stderr
    if argv is RANK_SEVEN_EVAL:
        assert proc.returncode == 2 and elapsed < 1, (proc.stderr, elapsed)
        assert proc.stderr.startswith("error: a net of rank 7 > 6"), proc.stderr
    for flagged, flag in (*DEGENERATE_VERIFY.values(), *SILENT_INPUTS.values()):
        if argv is flagged:
            assert (proc.returncode, proc.stdout) == (2, "") and flag in proc.stderr, proc.stderr


# The seeded argv fuzzer: curves, points, primes, grids, indices and every
# verify check, drawn mostly from valid input, each run in-process through
# main at sizes that finish quickly.  Valid point sets are listed per curve.
FUZZ_CURVES = {
    "0,0,0,0,-11": ["(3,4);(15,58)", "(15,58);(3,4)", "(345/64,-6179/512);(15,58)", "(3,4)"],
    "0,1,7,28,0": ["(1,3);(0,0)", "(0,0);(1,3)", "(0,0)"],
    "0,0,1,-7,6": ["(1,0);(2,0);(0,2)", "(0,2);(2,0);(1,0)", "(2,0);(0,2)"],
    "1,-1,0,-79,289": ["(0,17);(-4,25);(4,-7)", "(4,-7);(0,17)", "(-4,25)"],
    "0,0,0,-1,0": ["(0,0)", "(1,0);(-1,0)", "(-1,0)"],  # y^2 = x^3 - x: 2-torsion
    "0,0,0,0,1": ["(2,3)", "(2,3);(0,1)", "(-1,0)"],  # y^2 = x^3 + 1: torsion
}
FUZZ_PAIRS = [(curve, points) for curve, sets in FUZZ_CURVES.items()
              for points in sets if points.count(";") == 1]
# malformed, singular (a cusp, a node) and non-integral curves
FUZZ_BAD_CURVES = ["0,0,0,-11", "a,0,0,0,1", "", "0,0,0,0,0", "0,0,0,-3,2", "0,0,0,1/2,0"]
# infinity, off the curve, malformed, and a repeated x
FUZZ_BAD_POINTS = ["inf", "(3,4);inf", "(1,1);(15,58)", "(a,4)", "(3,4,5)", "(1/0,2)",
                   "(3,4);(3,-4)", "(15,58);(15,58)", ";"]
FUZZ_PRIMES = [q for q in range(2, 1010) if is_prime(q)]
FUZZ_BAD_MODULI = [0, 1, -7, 4, 91]
FUZZ_BAD_GRIDS = ["0x0", "3", "axb", "-1x3", "2x2x2", "x"]
FUZZ_CHECKS = ["ayad", "valuation", "recurrence", "symmetry-props", "epsilon"]


def _fuzz_argv(rng):
    """One argv, weighted toward input that parses: tables mostly on two
    points (a grid is rank 2), and more than half the primes below 50."""
    command = rng.choice(["denom-table", "net-table", "reduced-table", "symmetry", "eval",
                          "verify", "verify"])
    if command.endswith("table") and rng.random() < 0.8:
        curve, points = rng.choice(FUZZ_PAIRS)
    elif rng.random() < 0.9:
        curve = rng.choice(list(FUZZ_CURVES))
        points = rng.choice(FUZZ_CURVES[curve] if rng.random() < 0.85 else FUZZ_BAD_POINTS)
    else:
        curve = rng.choice(FUZZ_BAD_CURVES)
        points = rng.choice(FUZZ_CURVES["0,0,0,0,-11"])
    base = ["--curve", curve, "--points", points,
            "--orientation", rng.choice(["qp", "pq"])]
    modulus = (rng.choice(FUZZ_PRIMES[:15] if rng.random() < 0.6 else FUZZ_PRIMES)
               if rng.random() < 0.92 else rng.choice(FUZZ_BAD_MODULI))
    prime = f"--prime={modulus}"
    if command.endswith("table"):
        grid = (f"{rng.randint(1, 4)}x{rng.randint(1, 4)}" if rng.random() < 0.9
                else rng.choice(FUZZ_BAD_GRIDS))
        argv = [command, *base, f"--grid={grid}", "--format", rng.choice(["plain", "factored",
                                                                       "json"])]
        return argv + [prime] if command == "reduced-table" else argv
    if command == "symmetry":
        return [command, *base, prime, "--format", rng.choice(["plain", "json"])]
    if command == "eval":
        rank = points.count(";") + 1
        length = rank if rng.random() < 0.9 else rng.choice([1, 2, 3, 4])
        index = ",".join(str(rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30)))
                         for _ in range(length))
        return [command, *base, prime, f"--index={index}",
                "--method", rng.choice(["symmetry", "direct"])]
    argv = ["verify", rng.choice(FUZZ_CHECKS), *base, "--radius", str(rng.randint(1, 2)),
            "--n-max", str(rng.randint(3, 6)), "--trials", str(rng.randint(1, 30)),
            "--seed", str(rng.randint(0, 9))]
    if rng.random() < 0.9:
        argv.append(prime)
    return argv + ["--allow-singular"] * (rng.random() < 0.3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_argv_fuzzer_never_raises(seed):
    # every draw ends in exit 0, 1 or 2, with no exception out of main, and
    # an exit 2 names its error on stderr
    rng = random.Random(seed)
    codes = Counter()
    for _ in range(1500):
        argv = _fuzz_argv(rng)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert code != 2 or err.getvalue().startswith("error: "), (argv, err.getvalue())
        codes[code] += 1
    # most draws get past parsing and answer
    assert codes[0] > codes[2], codes


def test_eval_direct_takes_psi_on_an_axis_of_rank_seven(capsys):
    # psi_300 of the seventh point mod 101: an axis index takes psi at every
    # rank, where the off-axis index of RANK_SEVEN_EVAL exits 2
    start = time.monotonic()
    assert run_cli(capsys, RANK_SEVEN_EVAL[:-1] + ["--index=0,0,0,0,0,0,300"]) == (0, "41\n", "")
    assert time.monotonic() - start < 1


# Indices where the points route over F_p meets zero divisors: E2 mod 7 has
# bad reduction, and E1 mod 29 meets lattice zeros.
@pytest.mark.parametrize("args, prime, index", [
    (E2_ARGS, 7, (11, 11)),
    (E2_ARGS, 7, (12, 12)),
    (PQ_ARGS, 29, (25, 24)),
])
def test_eval_direct_matches_exact(capsys, args, prime, index):
    code, out, _ = run_cli(capsys, ["eval", *args, "--method", "direct", "--prime", str(prime),
                                    f"--index={index[0]},{index[1]}"])
    by_points = EllipticNet(parse_curve(args[1]), parse_points(args[3]))
    expected = _reduce_fraction(points_route(by_points, index), prime)
    assert code == 0 and out.strip() == str(expected.residue)


def test_eval_direct_on_bad_reduction_axis_is_bounded(capsys):
    # psi_2 = 0 mod 7 on this axis; psi answers without the exact fallback,
    # whose cost is cubic in the index
    start = time.monotonic()
    code, out, err = run_cli(capsys, ["eval", *E2_ARGS, "--method", "direct", "--prime", "7",
                                      "--index=0,20001"])
    assert code == 0, err
    assert time.monotonic() - start < 2
    assert 0 <= int(out) < 7


def test_cli_symmetry_at_p241():
    # the input of the bench's lattice_wall probe
    proc = run_subprocess(["symmetry", *PQ_ARGS, "--prime", "241"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    rows = json.loads(proc.stdout)["lattice"]
    lattice = lattice_from_generators(2, rows)
    assert [list(row) for row in lattice.basis] == rows
    reduced = ReducedNet(EllipticNet(parse_curve(PQ_ARGS[1]), parse_points(PQ_ARGS[3])), 241)
    assert_lattice_is_kernel(reduced.gf_curve, reduced.gf_points, lattice)


@pytest.mark.parametrize("p", [10007, 100003])
@pytest.mark.parametrize("points", [PQ_ARGS[3], E1_ARGS[3]], ids=["pq", "qp"])
def test_eval_by_symmetry_matches_direct_at_the_frontier(capsys, points, p):
    # the walk is linear in p: about 0.01 and 0.35 s a build at these primes
    rng = random.Random(f"{points}:{p}")
    base = ["eval", "--curve", PQ_ARGS[1], "--points", points, "--prime", str(p)]
    for _ in range(3):
        index = ",".join(str(rng.choice((-1, 1)) * rng.randrange(10 ** 29, 10 ** 30))
                         for _ in range(2))
        by_symmetry, direct = (run_cli(capsys, [*base, f"--index={index}", "--method", method])
                               for method in ("symmetry", "direct"))
        assert by_symmetry == direct and by_symmetry[0] == 0, index


@pytest.fixture
def unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [LONG_TABLE, LONG_TABLE_JSON], ids=["plain", "json"])
def test_net_table_prints_answers_of_any_size(unlimited_int_digits, argv):
    proc = run_subprocess(argv)
    assert proc.returncode == 0, proc.stderr
    net = EllipticNet(parse_curve(E1_ARGS[1]), parse_points(E1_ARGS[3]))
    expected = [net.value((0, r)) for r in range(119, -1, -1)]
    assert len(str(expected[0].numerator)) > 4300
    if argv is LONG_TABLE:
        got = [Fraction(line) for line in proc.stdout.splitlines()]
    else:
        got = [Fraction(int(e["value"]["num"]), int(e["value"]["den"]))
               for e in json.loads(proc.stdout)]
    assert got == expected


def _decimal_cases():
    rng = random.Random(7)
    for digits in (10**3, 10**4, 3 * 10**4, 10**5):
        yield f"{digits}-digits", rng.randrange(10 ** (digits - 1), 10**digits)
    for bits in (DECIMAL_SPLIT_BITS, DECIMAL_SPLIT_BITS + 1):
        yield f"{bits}-bits-low", 1 << (bits - 1)
        yield f"{bits}-bits-high", (1 << bits) - 1
    yield "power-of-ten", 10**20000
    yield "negative", -rng.randrange(1 << 60000)


DECIMAL_CASES = dict(_decimal_cases())


@pytest.mark.parametrize("n", DECIMAL_CASES.values(), ids=DECIMAL_CASES.keys())
def test_decimal_string_matches_str(unlimited_int_digits, n):
    assert decimal_string(n) == str(n)
    assert plain_string(Fraction(2 * n + 1, 2)) == f"{2 * n + 1}/2"


def test_net_table_1x14_factored(capsys):
    # W(0,13) has prime factors of 14 and 24 digits: past rho, found by ECM
    code, out, err = run_cli(capsys, ["net-table", *E1_ARGS, "--grid", "1x14",
                                      "--format", "factored"])
    assert code == 0, err
    net = EllipticNet(parse_curve(E1_ARGS[1]), parse_points(E1_ARGS[3]))
    lines = out.splitlines()
    assert len(lines) == 14
    for r, line in zip(range(13, -1, -1), lines):
        value = Fraction(-1 if line.startswith("-") else 1)
        for part in line.lstrip("-").split(SEPARATOR):
            if part == "0":
                value = Fraction(0)
                break
            base, _, exp = part.partition("^")
            if base != "1":
                assert is_prime(int(base)), base
            value *= Fraction(int(base)) ** int(exp or 1)
        assert value == net.value((0, r)), r


def test_main_restores_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["net-table", *E1_ARGS, "--grid", "1x2"]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert main(["symmetry", *PQ_ARGS, "--prime", "3"]) == 2
    assert sys.get_int_max_str_digits() == limit
    capsys.readouterr()


def test_consecutive_main_calls_match_fresh_processes(capsys):
    # one parser serves every call in a process; a call must not see the
    # subcommand, options or defaults of the call before it
    argvs = [
        ["eval", *PQ_ARGS, "--prime", "13", "--method", "direct", "--index=5,7"],
        ["eval", *PQ_ARGS, "--prime", "13", "--index=5,7"],
        ["symmetry", *PQ_ARGS, "--prime", "13", "--format", "plain"],
        ["symmetry", *PQ_ARGS, "--prime", "13"],
        ["denom-table", *E1_ARGS, "--grid", "2x2"],
        ["symmetry", *PQ_ARGS, "--prime", "3"],
    ]
    for argv in argvs:
        code, out, _ = run_cli(capsys, argv)
        proc = run_subprocess(argv)
        assert (code, out) == (proc.returncode, proc.stdout), argv


TWO_P_ARGS = ["--curve", "0,0,0,0,-11", "--points", "(345/64,-6179/512);(15,58)"]


@pytest.mark.parametrize("gate", [[], ["--allow-singular"]], ids=["gated", "allow-singular"])
def test_valuation_gate_passes_a_point_that_reduces_to_infinity(capsys, gate):
    # 2P on E1 reduces to infinity mod 2, a nonsingular point: the gate
    # lets it through, and the valuation identity holds on the box
    assert run_cli(capsys, ["verify", "valuation", *TWO_P_ARGS, "--prime", "2",
                            "--radius", "4", *gate]) == (
        0, "PASS valuation match mod 2: 0 mismatches\n", "")


def test_valuation_gate_refuses_singular_reduction(capsys):
    assert run_cli(capsys, ["verify", "valuation", *E2_ARGS, "--prime", "7"]) == (
        2, "", "error: P_1 has singular reduction mod 7; "
               "pass require_nonsingular=False to inspect anyway\n")


def test_verify_ayad_prints_the_hypothesis_warnings(capsys):
    # P_0 +- P_1 both reduce to infinity mod 2; stdout and the exit code
    # are the report's alone
    assert run_cli(capsys, ["verify", "ayad", *PQ_ARGS, "--prime", "2"]) == (
        1, 'FAIL ayad all-equivalent: {"a": false, "b": false, "c": true, "d": true, '
           '"e": false}\n',
        "warning: P_0 + P_1 reduces to infinity mod 2\n"
        "warning: P_0 - P_1 reduces to infinity mod 2\n")


def test_off_curve_point_prints_its_coordinates(capsys):
    assert run_cli(capsys, ["net-table", "--curve", "0,0,0,0,-11", "--points",
                            "(1,1);(15,58)", "--grid", "2x2"]) == (
        2, "", "error: (1, 1) is not on the curve\n")
    assert run_cli(capsys, ["denom-table", "--curve", "0,0,0,0,-11", "--points",
                            "(1/2,3)", "--grid", "2x1"]) == (
        2, "", "error: (1/2, 3) is not on the curve\n")


def _fp_curve_free_argv():
    """Every subcommand on E1 and E2, at a good prime and at a prime of
    singular or bad reduction."""
    argvs = []
    for args, primes in ((E1_ARGS, (5, 11)), (PQ_ARGS, (13, 2)), (E2_ARGS, (5, 7)),
                         (TWO_P_ARGS, (2, 5))):
        argvs += [["denom-table", *args, "--grid", "3x3"],
                  ["net-table", *args, "--grid", "3x3", "--format", "factored"],
                  ["verify", "recurrence", *args, "--radius", "3", "--trials", "30"]]
        for p in map(str, primes):
            argvs += [["reduced-table", *args, "--grid", "3x3", "--prime", p],
                      ["symmetry", *args, "--prime", p],
                      ["symmetry", *args, "--prime", p, "--format", "plain"],
                      ["eval", *args, "--prime", p, "--index=7,5"],
                      ["eval", *args, "--prime", p, "--index=7,5", "--method", "direct"],
                      ["verify", "ayad", *args, "--prime", p, "--radius", "2", "--n-max", "6"],
                      ["verify", "valuation", *args, "--prime", p, "--radius", "3"],
                      ["verify", "valuation", *args, "--prime", p, "--radius", "3",
                       "--allow-singular"],
                      ["verify", "epsilon", *args, "--prime", p, "--radius", "2"],
                      ["verify", "symmetry-props", *args, "--prime", p, "--trials", "30"]]
    return argvs


def test_no_cli_command_reduces_the_curve_over_f_p(monkeypatch, capsys):
    # the primes of singular reduction and the reduced points come from the
    # net's cached (A, B, D) triples: no command builds the F_p curve or an
    # F_p point, and every output is the same with those patched to raise
    argvs = _fp_curve_free_argv()
    expected = [run_cli(capsys, argv) for argv in argvs]
    assert {code for code, _, _ in expected} == {0, 1, 2}

    def refuse(*args, **kwargs):
        raise AssertionError("the F_p curve code ran")

    for module in [m for name, m in sys.modules.items() if name.startswith("ellnet")]:
        for name in ("reduce_curve", "reduce_mod_p", "gf_point"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [run_cli(capsys, argv) for argv in argvs] == expected
