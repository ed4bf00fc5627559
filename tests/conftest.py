import heapq
import random
from fractions import Fraction

import pytest

from ckoc import tree_solver
from ckoc.graph_core import DistanceMatrix, EdgePoint, Graph, shortest_path_dag
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


def banned_dijkstra(g: Graph, source: int, banned: int) -> list[int | None]:
    """Distances from source in units of 1/g.length_scale with the vertex
    banned deleted from g; None where unreachable (and at index 0)."""
    dist: list[int | None] = [None] * (g.n + 1)
    if source == banned:
        return dist
    dist[source] = 0
    pq = [(0, source)]
    while pq:
        dv, v = heapq.heappop(pq)
        if dv != dist[v]:
            continue
        for u, eid in g.adj[v]:
            nd = dv + g.lengths_int[eid]
            if u != banned and (dist[u] is None or nd < dist[u]):
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return dist


def edge_profile_reference(g: Graph, dm: DistanceMatrix, edge: int) -> list[int | None]:
    """graph_core.edge_profile by two Dijkstra runs, each with one endpoint
    deleted: a vertex rising over the whole edge has its semicircular
    point at s when it is r or its distance from s without r is the true
    one, and a falling vertex at r likewise."""
    r, s, l = g.eu[edge], g.ev[edge], g.lengths_int[edge]
    from_s, from_r = banned_dijkstra(g, s, r), banned_dijkstra(g, r, s)
    d_r, d_s = dm.rows[r], dm.rows[s]
    out: list[int | None] = [None] * (g.n + 1)
    for v in g.vertices():
        dr, ds = d_r[v], d_s[v]
        if ds == dr + l:
            if v == r or from_s[v] == ds:
                out[v] = 2 * l
        elif dr == ds + l:
            if v == s or from_r[v] == dr:
                out[v] = 0
        else:
            out[v] = ds - dr + l
    return out


def side_scan_reference(tester, edge: int, from_r: bool, lam: Fraction):
    """FeasibilityTester._side_scan over the side's vertices alone: the
    vertices rising from the endpoint over the whole edge or with a
    semicircular point (from edge_profile_reference), in a DAG where only
    predecessors inside the side count, so a vertex whose predecessors
    all lie outside it is a root of its own."""
    g, rows, s = tester.g, tester.dm.rows, tester._shift
    l_int = g.lengths_int[edge]
    root, far = (g.eu[edge], g.ev[edge]) if from_r else (g.ev[edge], g.eu[edge])
    d_root, d_far = rows[root], rows[far]
    offsets = edge_profile_reference(g, tester.dm, edge)
    side = [v for v in g.vertices() if offsets[v] is not None or d_far[v] == d_root[v] + l_int]
    order = sorted(side, key=d_root.__getitem__)
    pos = {v: i for i, v in enumerate(order)}
    _, q, lo, hi = tester._bases(lam)
    base = lo if from_r else hi
    xs, tau, flagged = [], [], {}
    for i, v in enumerate(order):
        off = offsets[v]
        if off is None:
            cap = q * (2 * l_int << s)
        else:
            cap = q * ((off if from_r else 2 * l_int - off) << s)
        x = base[v] - q * (d_root[v] << (s + 1))
        xs.append(cap if x > cap else x if x >= 0 else -1)
        ps = [pos[u] for u, eid in g.adj[v]
              if u in pos and d_root[u] + g.lengths_int[eid] == d_root[v]]
        tau.append(min(xs[i], max(tau[j] for j in ps)) if ps else xs[i])
        if off is not None and tau[i] == cap:
            flagged[v] = cap
    thresholds = sorted(set(xs) - {-1})
    values = [sum(t >= th for t in tau) for th in thresholds]
    return thresholds, values, flagged


def vertex_dags(g: Graph, dm: DistanceMatrix):
    """The DAG source edge_profile reads: v -> the shortest-path DAG
    toward vertex v."""
    return lambda v: shortest_path_dag(g, dm.rows[v])


def query_at_least_k(st: SpineTree, ca: CoverageArrays, x: EdgePoint, k: int) -> bool:
    """Whether the point x covers at least k vertices, x given as an EdgePoint."""
    return query_at_least_k_at(st, ca, *_position(st.bt, x), k)
