import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ellnet
from ellnet import EllipticNet, ReducedNet
from ellnet.cli import main, parse_curve, parse_index, parse_point, parse_points
from ellnet.lattice import lattice_from_generators
from ellnet.net import _reduce_fraction
from ellnet.render import factor_string, normalized, plain_string

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


def test_denom_table_golden(capsys):
    code, out, _ = run_cli(capsys, ["denom-table", *E1_ARGS, "--grid", "5x10",
                                    "--format", "factored"])
    assert code == 0
    assert normalized(out) == normalized((DATA / "table1.txt").read_text())


def test_net_table_golden(capsys):
    code, out, _ = run_cli(capsys, ["net-table", *E1_ARGS, "--grid", "5x10",
                                    "--format", "factored"])
    assert code == 0
    assert normalized(out) == normalized((DATA / "table2.txt").read_text())


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


def test_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["denom-table", "--curve", "0,0,0,0,-11"])
    assert exc.value.code == 2


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
# indices whose length is not the rank of the net: a usage error
SHORT_INDEX_EVAL = ["eval", *PQ_ARGS, "--method", "direct", "--prime", "19", "--index=10"]
LONG_INDEX_EVAL = ["eval", *PQ_ARGS, "--method", "direct", "--prime", "19",
                   "--index=10,11,12"]
# W(0, 119) has about 4,700 digits, past Python's default limit of 4,300 on
# int <-> str conversion
LONG_TABLE = ["net-table", *E1_ARGS, "--grid", "1x120"]
LONG_TABLE_JSON = [*LONG_TABLE, "--format", "json"]
# a rank-1 net at bad reduction: psi divides by psi_2 = 0 mod 7, so the
# value is exact over Q, where psi answers above the box
RANK_ONE_ARGS = ["--curve", "0,1,7,28,0", "--points", "(0,0)"]
RANK_ONE_EVAL = ["eval", *RANK_ONE_ARGS, "--prime", "7", "--method", "direct", "--index=500"]


def run_subprocess(argv):
    src = str(Path(ellnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "ellnet.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", CLI_MATRIX + [DEEP_EVAL, HUGE_EVAL, LONG_TABLE, LONG_TABLE_JSON,
                                              SHORT_INDEX_EVAL, LONG_INDEX_EVAL, RANK_ONE_EVAL],
                         ids=[argv[0] for argv in CLI_MATRIX]
                         + ["eval-direct-deep", "eval-direct-huge", "net-table-1x120",
                            "net-table-1x120-json", "eval-direct-short-index",
                            "eval-direct-long-index", "eval-direct-rank-one"])
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
    if argv is HUGE_EVAL:
        symmetry = run_subprocess(["eval", *PQ_ARGS, "--method", "symmetry", "--prime", "89",
                                   HUGE_INDEX])
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
    net = ReducedNet(EllipticNet(parse_curve(args[1]), parse_points(args[3])), prime)
    assert code == 0 and out.strip() == str(net.exact_value(index).residue)


def test_eval_direct_on_bad_reduction_axis_is_bounded(capsys):
    # psi divides by psi_2 = 0 mod 7 on this axis; the exact fallback is
    # cubic in the index, the ladder logarithmic
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


def test_main_restores_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["net-table", *E1_ARGS, "--grid", "1x2"]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert main(["symmetry", *PQ_ARGS, "--prime", "3"]) == 2
    assert sys.get_int_max_str_digits() == limit
    capsys.readouterr()
