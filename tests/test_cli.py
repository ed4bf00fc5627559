"""End-to-end tests for the command line front end."""

import json

import pytest

from ckoc import cli
from ckoc.graph_core import InternalError, parse_instance
from ckoc.tree_solver import solve_unweighted_tree

PATH3 = "p ckoc 3 2 2 0\ne 1 2 1\ne 2 3 1\n"
WEDGE2 = "p ckoc 2 1 2 1\nv 1 2\nv 2 1\ne 1 2 6\n"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_path3(tmp_path, capsys):
    f = tmp_path / "path3.ckoc"
    f.write_text(PATH3)
    code, out, err = run(capsys, ["solve", str(f)])
    assert code == 0 and err == ""
    got = json.loads(out)
    assert got["lambda_star"] == "1/2"
    assert got["center"] == {"edge": [1, 2], "t": "1/2"}
    assert got["subtree"] == [1, 2]


def test_solve_algos_agree(tmp_path, capsys):
    f = tmp_path / "i.ckoc"
    f.write_text(PATH3)
    values = set()
    for algo in ("auto", "weighted-graph", "unweighted-graph", "weighted-tree", "unweighted-tree"):
        code, out, _ = run(capsys, ["solve", str(f), "--algo", algo])
        assert code == 0
        values.add(json.loads(out)["lambda_star"])
    assert values == {"1/2"}


def test_solve_k_override(tmp_path, capsys):
    f = tmp_path / "i.ckoc"
    f.write_text(PATH3)
    code, out, _ = run(capsys, ["solve", str(f), "--k", "3"])
    assert code == 0
    assert json.loads(out)["lambda_star"] == "1"


def test_solve_timing_keeps_stdout(tmp_path, capsys):
    f = tmp_path / "i.ckoc"
    f.write_text(PATH3)
    _, plain, _ = run(capsys, ["solve", str(f)])
    _, timed, err = run(capsys, ["solve", str(f), "--timing"])
    assert plain == timed
    assert "solved in" in err
    assert "parsed in" in err
    assert "MB" in err


def test_feasible_wedge(tmp_path, capsys):
    f = tmp_path / "w.ckoc"
    f.write_text(WEDGE2)
    code, out, _ = run(capsys, ["feasible", str(f), "--lambda", "4/1"])
    assert code == 0
    got = json.loads(out)
    assert got["feasible"] is True
    # 2 * t <= 4 and 1 * (6 - t) <= 4 leave the single center t = 2
    assert got["witness"] == {"center": {"edge": [1, 2], "t": "2"}, "subtree": [1, 2]}
    code, out, _ = run(capsys, ["feasible", str(f), "--lambda", "3"])
    assert json.loads(out)["feasible"] is False


def test_feasible_tree_reports_whole_covered_subtree(tmp_path, capsys):
    _, text, _ = run(capsys, ["gen", "--seed", "7", "--n", "6", "--tree"])
    f = tmp_path / "t.ckoc"
    f.write_text(text)
    code, out, _ = run(capsys, ["feasible", str(f), "--lambda", "100", "--k", "2"])
    assert code == 0
    # every vertex is covered at this radius, not only the k nearest
    assert json.loads(out)["witness"]["subtree"] == [1, 2, 3, 4, 5, 6]


def test_feasible_rejects_k_out_of_range_below_zero_radius(tmp_path, capsys):
    _, text, _ = run(capsys, ["gen", "--seed", "7", "--n", "6", "--density", "0.4"])
    assert not parse_instance(text)[0].is_tree
    f = tmp_path / "g.ckoc"
    f.write_text(text)
    for lam in ("-1", "1"):
        code, out, err = run(capsys, ["feasible", str(f), "--k", "0", "--lambda=" + lam])
        assert code == 1 and out == ""
        assert "out of range" in err


def test_gen_deterministic(capsys):
    a = run(capsys, ["gen", "--seed", "1", "--n", "5", "--tree"])
    b = run(capsys, ["gen", "--seed", "1", "--n", "5", "--tree"])
    assert a == b
    assert a[0] == 0
    g, k = parse_instance(a[1])
    assert g.is_tree and g.n == 5 and 1 <= k <= 5


def test_gen_density_full(capsys):
    code, out, _ = run(capsys, ["gen", "--seed", "1", "--n", "5", "--density", "1.0"])
    assert code == 0
    g, _k = parse_instance(out)
    assert g.m == 10  # complete graph on 5 vertices


def test_gen_weighted(capsys):
    code, out, _ = run(capsys, ["gen", "--seed", "4", "--n", "6", "--weighted"])
    assert code == 0
    g, _k = parse_instance(out)
    assert not g.unit_weights


def test_gen_rejects_small_n(capsys):
    code, _out, err = run(capsys, ["gen", "--seed", "1", "--n", "1"])
    assert code == 1
    assert "n >= 2" in err


def test_gen_rejects_bad_density(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["gen", "--seed", "1", "--n", "4", "--density", "1.5"])
    captured = capsys.readouterr()
    assert ei.value.code == 1
    assert captured.out == ""
    assert "--density" in captured.err


def test_verify_clean(capsys):
    code, out, err = run(capsys, ["verify", "--seed", "7", "--count", "6", "--n-max", "7"])
    assert code == 0 and err == ""
    assert out.startswith("verified 6 instances")


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--count", "0"], "--count"),
        (["--count", "-3"], "--count"),
        (["--n-max", "1"], "--n-max"),
    ],
)
def test_verify_rejects_empty_runs(capsys, flags, name):
    # a run that checks no instance, or draws n from an empty range, is
    # a bad flag, not a success
    code, out, err = run(capsys, ["verify", "--seed", "1", *flags])
    assert code == 1 and out == ""
    assert name in err


def test_verify_reports_divergence(capsys, monkeypatch):
    from fractions import Fraction
    from ckoc.graph_core import Solution, vertex_point

    def wrong(g, k, search="auto"):
        return Solution(Fraction(12345), vertex_point(g, 1), frozenset({1}))

    monkeypatch.setattr("ckoc.cli.solve_weighted_graph", wrong)
    code, _out, err = run(capsys, ["verify", "--seed", "7", "--count", "3", "--n-max", "6"])
    assert code == 2
    assert "divergence" in err and "p ckoc" in err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    f = tmp_path / "i.ckoc"
    f.write_text(PATH3)

    def boom(g, k):
        raise InternalError("forced")

    monkeypatch.setattr("ckoc.cli.solve_unweighted_tree", boom)
    code, _out, err = run(capsys, ["solve", str(f)])
    assert code == 3
    assert "internal error" in err


def test_klevel_dump_matches_api(tmp_path, capsys):
    from ckoc.graph_core import all_pairs_distances
    from ckoc.klevel_geometry import build_chains, kth_level

    f = tmp_path / "i.ckoc"
    f.write_text(PATH3)
    code, out, _ = run(capsys, ["klevel", str(f), "--edge", "0", "--dump"])
    assert code == 0
    got = json.loads(out)
    g, k = parse_instance(PATH3)
    level = kth_level(build_chains(g, all_pairs_distances(g), 0), k)
    assert got["lowest"] == [str(v) for v in level.lowest()]
    assert got["level"] == level.to_json()
    assert len(got["chains"]) == 3
    code, out, _ = run(capsys, ["klevel", str(f)])
    assert json.loads(out)["chains"] == 3


def test_klevel_edge_out_of_range(tmp_path, capsys):
    f = tmp_path / "i.ckoc"
    f.write_text(PATH3)
    code, _out, err = run(capsys, ["klevel", str(f), "--edge", "9"])
    assert code == 1


def test_bench_csv(capsys):
    code, out, _ = run(capsys, ["bench", "--sizes", "8,12", "--seed", "3", "--tree"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,k,algo,seconds"
    assert len(lines) == 3
    n, m, k, algo, secs = lines[1].split(",")
    assert (int(n), int(m)) == (8, 7)
    float(secs)


@pytest.mark.parametrize("sizes", ["5,x", "1", "5,1", ""])
def test_bench_checks_every_size_before_output(capsys, sizes):
    with pytest.raises(SystemExit) as ei:
        cli.main(["bench", "--sizes", sizes, "--tree"])
    captured = capsys.readouterr()
    assert ei.value.code == 1
    assert captured.out == ""
    assert "--sizes" in captured.err


@pytest.mark.parametrize(
    "flags",
    [
        ["--density", "2"],
        ["--density", "-0.5"],
        ["--density", "nan"],
        ["--k", "0"],
        ["--k", "9", "--sizes", "5,6"],
    ],
)
def test_bench_rejects_bad_flags_before_output(capsys, flags):
    try:
        code = cli.main(["bench", "--seed", "1", *flags])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert capsys.readouterr().out == ""


def test_solve_from_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, ["solve", "-"], stdin=PATH3, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["lambda_star"] == "1/2"


def test_missing_file(capsys):
    code, _out, err = run(capsys, ["solve", "/no/such/file.ckoc"])
    assert code == 1
    assert "cannot read" in err


def test_bad_instance_text(capsys, monkeypatch):
    code, _out, err = run(
        capsys, ["solve", "-"], stdin="p ckoc 2 1 5 0\ne 1 2 1\n", monkeypatch=monkeypatch
    )
    assert code == 1
    assert "out of range" in err


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["solve", "--bogus"])
    assert ei.value.code == 1


def test_auto_picks_tree_solver(tmp_path, capsys):
    f = tmp_path / "i.ckoc"
    f.write_text(PATH3)
    _, out, _ = run(capsys, ["solve", str(f), "--algo", "auto"])
    g, k = parse_instance(PATH3)
    direct = solve_unweighted_tree(g, k)
    assert json.loads(out)["lambda_star"] == str(direct.lambda_star)
