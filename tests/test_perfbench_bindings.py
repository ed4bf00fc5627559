"""The benchmark's tracer and runner bind program names by string; a
rename there shows only as a "not found" line in a traced run.  This
checks that every name they look up still resolves."""

import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from ckoc import arrangement_search, cli, graph_core, tree_solver

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402


def _resolve(owner, path: str):
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_names_resolve():
    missing = []
    for module, path, _ in spans._WRAPPED:
        try:
            target = _resolve(module, path)
        except AttributeError:
            missing.append(f"{module.__name__}.{path}")
            continue
        assert callable(target), f"{module.__name__}.{path}"
    assert missing == []
    for module in (arrangement_search, tree_solver):
        assert callable(module.lowest_feasible_vertex)


def test_runner_names_resolve():
    # perfbench/run.py parses with graph_core.parse_instance and solves
    # through cli._dispatch(g, k, cli._pick_algo(g, "auto"), "auto")
    g, k = graph_core.parse_instance("p ckoc 3 2 2 0\ne 1 2 1\ne 2 3 1\n")
    algo = cli._pick_algo(g, "auto")
    assert algo == "unweighted-tree"
    assert cli._dispatch(g, k, algo, "auto").lambda_star == F(1, 2)


def test_solve_path_reaches_traced_names():
    # a traced name that resolves but no longer sits on the solve path
    # reads 0 in every run; one small weighted graph, one weighted tree
    # and one unit tree must pass through each of these spans.  The
    # weighted tree has more than tree_solver._WALK_MAX vertices, as
    # smaller ones probe by walks and build no coverage arrays, and the
    # unit tree more than tree_solver._UNIT_WALK_MAX, as smaller ones go
    # to the weighted solver and build no unit-tree engine
    tree = cli.generate_instance(3, tree_solver._WALK_MAX + 16, 0.0, True, True)
    unit_tree = cli.generate_instance(5, tree_solver._UNIT_WALK_MAX + 8, 0.0, False, True)
    tracer = spans.Tracer()
    algos = []
    tracer.install()
    try:
        for text in (
            "p ckoc 4 4 3 1\nv 1 2\nv 2 1\nv 3 3/2\nv 4 1\n"
            "e 1 2 1\ne 2 3 2\ne 3 4 1/2\ne 1 4 3\n",
            tree,
            unit_tree,
        ):
            g, k = graph_core.parse_instance(text)
            algos.append(cli._pick_algo(g, "auto"))
            cli._dispatch(g, k, algos[-1], "auto")
    finally:
        tracer.uninstall()
    assert algos == ["weighted-graph", "weighted-tree", "unweighted-tree"]
    calls = {span[0] for span in tracer.spans}
    for name in (
        "general_feasibility.feasible",
        "general_feasibility.profile",
        "graph_core.edge_profile",
        "arrangement_search.explicit",
        "tree_engine.build_coverage_arrays",
        "tree_solver.engine_build",
        "tree_solver.counts",
    ):
        assert name in calls, name
    assert cli.solve_weighted_graph is arrangement_search.solve_weighted_graph


def test_blocked_counts_keep_one_span_per_probe(monkeypatch):
    # the unit-tree engine counts in blocks within one counts call, so the
    # traced probes (tree_solver.counts_calls) do not depend on the block
    # size
    rng = random.Random(7)
    n = 60
    g = graph_core.Graph.unit(n, [(rng.randint(max(1, v - 5), v - 1), v) for v in range(2, n + 1)])
    runs = []
    for block in (n, 7):
        monkeypatch.setattr(tree_solver, "_COUNTS_BLOCK", block)
        tracer = spans.Tracer()
        tracer.install()
        try:
            sol = cli._dispatch(g, n // 2, "unweighted-tree", "auto")
        finally:
            tracer.uninstall()
        probes = sum(span[0] == "tree_solver.counts" for span in tracer.spans)
        runs.append((probes, sol))
    assert runs[0][0] > 1
    assert runs[1] == runs[0]


def test_benchmark_selftest_passes():
    # an idle traced layer or an unresolved binding otherwise shows only
    # when the benchmark runs; the selftest runs every workload in smoke mode
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 0, out
    assert "selftest passed" in proc.stdout, out
    assert "not found" not in out, out
