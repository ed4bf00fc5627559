import random
from fractions import Fraction

import pytest

from ckoc import tree_solver
from ckoc.graph_core import DistanceMatrix, EdgePoint, Graph
from ckoc.tree_engine import CoverageArrays, SpineTree, _position, query_at_least_k_at


@pytest.fixture
def path3() -> Graph:
    return Graph.unit(3, [(1, 2), (2, 3)])


@pytest.fixture
def wedge2() -> Graph:
    # single edge of length 6, weights 2 and 1
    return Graph(2, [2, 1], [(1, 2, 6)])


@pytest.fixture
def triangle() -> Graph:
    return Graph.unit(3, [(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def cycle4() -> Graph:
    return Graph.unit(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


@pytest.fixture
def path5() -> Graph:
    return Graph.unit(5, [(1, 2), (2, 3), (3, 4), (4, 5)])


@pytest.fixture
def star3() -> Graph:
    return Graph.unit(4, [(1, 2), (1, 3), (1, 4)])


def rand_rational(rng: random.Random, lo: int = 1, hi: int = 8, dens=(1, 1, 2, 4)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def random_tree_edges(rng: random.Random, n: int):
    return [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]


def random_graph(rng: random.Random, n: int, extra: int = 0, weighted: bool = False) -> Graph:
    """Random connected graph: spanning tree plus `extra` chords."""
    tree = random_tree_edges(rng, n)
    present = {tuple(sorted(e)) for e in tree}
    pool = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in present
    ]
    chords = rng.sample(pool, min(extra, len(pool)))
    edges = [(u, v, rand_rational(rng)) for u, v in tree + chords]
    if weighted:
        weights = [rand_rational(rng) for _ in range(n)]
    else:
        weights = [Fraction(1)] * n
    return Graph(n, weights, edges)


def random_tree(rng: random.Random, n: int, weighted: bool = False) -> Graph:
    return random_graph(rng, n, extra=0, weighted=weighted)


def tree_probes():
    """Run the body of `for probe in tree_probes():` twice: first at
    tree_solver's size limits, where small trees probe by covered walks
    ("walk"), then with both limits at 0, where every tree goes to a
    coverage engine ("engine")."""
    yield "walk"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_solver, "_WALK_MAX", 0)
        mp.setattr(tree_solver, "_UNIT_WALK_MAX", 0)
        yield "engine"


# Exact reference forms that only the tests need: the solvers read the
# integer distance rows and locate points on the transformed tree directly.


def exact_d(dm: DistanceMatrix, u: int, v: int) -> Fraction:
    """d(u, v) as a Fraction, from the integer distance rows."""
    return Fraction(dm.rows[u][v], dm.scale)


def point_distance(g: Graph, dm: DistanceMatrix, x: EdgePoint, v: int) -> Fraction:
    """Shortest-path distance from the point x to vertex v."""
    if x.edge < 0:
        return Fraction(0)
    # both routes in units of 1/(scale*q) for x.t = p/q
    p, q = x.t.numerator, x.t.denominator
    ps = p * dm.scale
    via_u = ps + q * dm.rows[g.eu[x.edge]][v]
    via_v = q * (g.lengths_int[x.edge] + dm.rows[g.ev[x.edge]][v]) - ps
    return Fraction(min(via_u, via_v), dm.scale * q)


def query_at_least_k(st: SpineTree, ca: CoverageArrays, x: EdgePoint, k: int) -> bool:
    """Whether the point x covers at least k vertices, x given as an EdgePoint."""
    return query_at_least_k_at(st, ca, *_position(st.bt, x), k)
