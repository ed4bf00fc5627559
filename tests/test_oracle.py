import random
from fractions import Fraction as F

import pytest

from conftest import random_graph, random_tree
from ckoc.graph_core import EdgePoint, all_pairs_distances, vertex_point
from ckoc.oracle import (
    brute_coverage_count,
    brute_covered_set,
    brute_feasible,
    brute_kth_level,
    brute_lambda,
    brute_min_diameter_ksubtree,
    candidate_values,
)


def test_coverage_fixtures(path3):
    dm = all_pairs_distances(path3)
    assert brute_coverage_count(path3, dm, EdgePoint(0, F(1, 2)), F(1, 2)) == 2
    # interior point at radius zero covers nothing
    assert brute_coverage_count(path3, dm, EdgePoint(0, F(1, 2)), F(0)) == 0
    # generous radius at a vertex covers everything
    assert brute_coverage_count(path3, dm, vertex_point(path3, 2), F(5)) == 3


def test_coverage_blocking(wedge2):
    # vertex 1 (weight 2) goes heavy before vertex 2: standing just past the
    # lambda crossing of vertex 1 still covers only vertex 2's side
    dm = all_pairs_distances(wedge2)
    assert brute_covered_set(wedge2, dm, EdgePoint(0, F(3)), F(4)) == {2}
    assert brute_covered_set(wedge2, dm, EdgePoint(0, F(2)), F(4)) == {1, 2}


def test_coverage_descendant_removal():
    # path 1-2-3 with x at vertex 1: a heavy middle vertex disconnects 3
    import ckoc.graph_core as gc

    g = gc.Graph(3, [1, 10, 1], [(1, 2, 1), (2, 3, 1)])
    dm = all_pairs_distances(g)
    x = vertex_point(g, 1)
    assert brute_covered_set(g, dm, x, F(3)) == {1}
    assert brute_covered_set(g, dm, x, F(10)) == {1, 2, 3}


def test_feasible_fixtures(path3):
    assert brute_feasible(path3, 2, F(1, 2)) is True
    assert brute_feasible(path3, 3, F(1, 2)) is False
    assert brute_feasible(path3, 1, F(0)) is True


def test_feasible_needs_lambda_crossing_probes(wedge2):
    # the only feasible point at the optimum is t=2, a lambda crossing
    assert brute_feasible(wedge2, 2, F(4)) is True
    assert brute_feasible(wedge2, 2, F(4) - F(1, 100)) is False


def test_lambda_fixtures(path3, wedge2, cycle4, path5):
    assert brute_lambda(path3, 2) == F(1, 2)
    assert brute_lambda(path3, 3) == 1
    assert brute_lambda(wedge2, 2) == 4
    assert brute_lambda(cycle4, 3) == 1
    assert brute_lambda(path5, 3) == 1
    assert brute_lambda(path5, 4) == F(3, 2)
    assert brute_lambda(path5, 5) == 2


def test_lambda_in_candidates(path3, cycle4):
    for g, k in ((path3, 2), (cycle4, 3)):
        assert brute_lambda(g, k) in candidate_values(g)


def test_lambda_cap():
    rng = random.Random(0)
    g = random_graph(rng, 15)
    with pytest.raises(ValueError, match="capped"):
        brute_lambda(g, 2)


def test_feasible_monotone_random():
    rng = random.Random(23)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 7), extra=rng.randint(0, 3), weighted=rng.random() < 0.5)
        k = rng.randint(1, g.n)
        dm = all_pairs_distances(g)
        vals = candidate_values(g, dm)
        sample = sorted(rng.sample(vals, min(8, len(vals))))
        flags = [brute_feasible(g, k, lam, dm) for lam in sample]
        assert flags == sorted(flags)  # False... then True...


class _Line:
    def __init__(self, fn):
        self.fn = fn

    def value_at(self, x):
        return self.fn(x)


def test_kth_level_examples():
    chains = [_Line(lambda x: x), _Line(lambda x: 2 - x)]
    assert brute_kth_level(chains, 2, F(1)) == 1
    assert brute_kth_level(chains, 1, F(0)) == 0
    with pytest.raises(ValueError):
        brute_kth_level(chains, 3, F(0))


def test_min_diameter_fixtures(path5, star3, wedge2):
    w, vs = brute_min_diameter_ksubtree(path5, 3)
    assert w == 1 and vs == {1, 2, 3}
    w, vs = brute_min_diameter_ksubtree(star3, 2)
    assert w == F(1, 2)
    w, vs = brute_min_diameter_ksubtree(wedge2, 2)
    assert w == 4 and vs == {1, 2}


def test_min_diameter_requires_connected(path5):
    # k=2 must pick an edge pair, never the two endpoints of the path
    w, vs = brute_min_diameter_ksubtree(path5, 2)
    assert w == F(1, 2)
    sub = sorted(vs)
    assert sub[1] - sub[0] == 1


def test_min_diameter_matches_lambda_unweighted():
    rng = random.Random(31)
    for _ in range(6):
        g = random_graph(rng, rng.randint(3, 8), extra=rng.randint(0, 3))
        k = rng.randint(2, min(g.n, 5))
        w, _ = brute_min_diameter_ksubtree(g, k)
        assert w == brute_lambda(g, k)


def test_min_diameter_matches_lambda_weighted_trees():
    rng = random.Random(37)
    for _ in range(6):
        g = random_tree(rng, rng.randint(3, 8), weighted=True)
        k = rng.randint(2, min(g.n, 5))
        w, _ = brute_min_diameter_ksubtree(g, k)
        assert w == brute_lambda(g, k)


def test_oracle_imports_no_production_function():
    # the oracle shares the model with production, never an algorithm, so
    # a production fault cannot hide behind the same fault in the reference
    import ast
    import importlib
    import inspect
    from pathlib import Path

    from ckoc import oracle

    tree = ast.parse(Path(oracle.__file__).read_text())
    shared = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "ckoc" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ckoc")):
            module = importlib.import_module("ckoc." + node.module.split(".")[-1])
            for alias in node.names:
                shared[alias.name] = getattr(module, alias.name)
    assert set(shared) == {"Graph", "EdgePoint", "DistanceMatrix", "ZERO"}
    assert not any(inspect.isfunction(obj) for obj in shared.values())
