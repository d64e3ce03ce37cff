"""tools/compare_outputs.py runs one argv list through the CLI of two
trees and lists every argv whose exit code, stdout or stderr differs."""

import shutil
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
E1 = ["--curve", "0,0,0,0,-11", "--points", "(15,58);(3,4)"]
ARGV = [
    ["denom-table", *E1, "--grid", "2x2"],
    ["verify", "valuation", *E1, "--prime", "3", "--radius", "2"],
    ["net-table", *E1, "--grid", "3"],
]


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import compare_outputs

    return compare_outputs


def test_argv_list_holds_the_bench_seeds_and_the_fixed_list(compare):
    argvs = compare.all_argv()
    assert len({tuple(a) for a in argvs}) == len(argvs)
    bench = compare.bench_argv()
    assert {tuple(a) for a in bench} | {tuple(a) for a in compare.fixed_argv()} == {
        tuple(a) for a in argvs}
    # warm-ups of the three workloads, and every verify check
    assert ["symmetry", "--curve", "0,0,0,0,-11", "--points", "(3,4);(15,58)",
            "--prime", "5"] in bench
    assert {a[1] for a in argvs if a[0] == "verify"} == {
        "ayad", "valuation", "recurrence", "epsilon", "symmetry-props"}
    # tables past the bench's sizes, on every rank-2 point set
    grids = Counter(a[a.index("--grid") + 1] for a in argvs if a[0].endswith("table"))
    assert (grids["40x40"], grids["1x40"], grids["40x1"], grids["12x12"]) == (20, 10, 10, 15)


def test_a_tree_matches_itself(compare, monkeypatch, capsys):
    monkeypatch.setattr(compare, "all_argv", lambda: ARGV)
    assert compare.main([str(ROOT)]) == 0
    assert capsys.readouterr().out == "0 of 3 argv differ\n"


def test_every_differing_argv_is_listed(compare, monkeypatch, capsys, tmp_path):
    # a copy whose verify prints OK for PASS: one argv differs, in stdout
    shutil.copytree(ROOT / "src" / "ellnet", tmp_path / "src" / "ellnet",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ellnet" / "cli.py"
    cli.write_text(cli.read_text().replace("'PASS' if ok", "'OK' if ok"))
    monkeypatch.setattr(compare, "all_argv", lambda: ARGV)
    assert compare.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        " ".join(ARGV[1]) + "\n"
        "  stdout: 'OK valuation match mod 3: 0 mismatches\\n'"
        " -> 'PASS valuation match mod 3: 0 mismatches\\n'\n"
        "1 of 3 argv differ\n")


def test_differences_name_each_field(compare):
    reports = compare.differences([["a"], ["b"]], [[0, "x", ""], [2, "", "e"]],
                                  [[0, "x", ""], [1, "y", "e"]])
    assert reports == ["b\n  exit code: 1 -> 2\n  stdout: 'y' -> ''"]
    assert compare._short("z" * 300).endswith("... (302 chars)")
