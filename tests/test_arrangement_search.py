import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckoc.arrangement_search import (
    ArrangementAnswer,
    Line,
    LineSet,
    candidate_lines,
    count_inversions,
    inversion_pairs,
    lowest_feasible_vertex,
    solve_weighted_graph,
    _explicit_ordinates,
    _min_x_at,
    _pair_abscissa,
    _pair_ordinate,
)
from ckoc.graph_core import (
    EdgePoint,
    Graph,
    all_pairs_distances,
    edge_profile,
    parse_instance,
    point_distance,
)
from ckoc.oracle import brute_lambda, _piece_lines, edge_probe_points
from ckoc import arrangement_search

from conftest import random_graph


def _real_oracle(g, k):
    from ckoc.general_feasibility import is_feasible_graph

    dm = all_pairs_distances(g)
    memo = {}

    def oracle(lam):
        if lam not in memo:
            memo[lam] = is_feasible_graph(g, dm, k, lam).feasible
        return memo[lam]

    return oracle


# ---------------------------------------------------------------------------
# candidate line construction


def test_candidate_lines_wedge(wedge2):
    dm = all_pairs_distances(wedge2)
    ls = candidate_lines(wedge2, dm)
    affine = {(l.slope, l.intercept) for l in ls.affine}
    vertical = {l.intercept for l in ls.vertical}
    assert affine == {(F(2), F(0)), (F(-1), F(6))}
    assert vertical == {F(0), F(6)}
    assert len(ls) == 4


def test_candidate_lines_path3(path3):
    dm = all_pairs_distances(path3)
    ls = candidate_lines(path3, dm)
    affine = {(l.slope, l.intercept) for l in ls.affine}
    assert affine == {(F(1), F(0)), (F(-1), F(1)), (F(-1), F(2)), (F(1), F(1))}
    assert {l.intercept for l in ls.vertical} == {F(0), F(1)}


def test_candidate_lines_triangle_peak(triangle):
    # vertex 3 seen from edge (1,2) contributes both a rising and a falling line
    dm = all_pairs_distances(triangle)
    ls = candidate_lines(triangle, dm)
    affine = {(l.slope, l.intercept) for l in ls.affine}
    assert (F(1), F(1)) in affine
    assert (F(-1), F(2)) in affine


def test_candidate_lines_semicircular_vertical():
    # odd cycle: the vertex opposite an edge peaks at its midpoint, which
    # must appear as a vertical line
    g = Graph.unit(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    dm = all_pairs_distances(g)
    ls = candidate_lines(g, dm)
    semis = [l for l in ls.vertical if l.origin[0] == "semicircular"]
    assert semis
    assert any(0 < l.intercept < F(1) for l in semis)


# ---------------------------------------------------------------------------
# inversion counting utilities


def _brute_inversions(a):
    return sum(
        1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j]
    )


def test_count_inversions_examples():
    assert count_inversions(np.array([0, 1, 2, 3], dtype=np.int64)) == 0
    assert count_inversions(np.array([3, 2, 1, 0], dtype=np.int64)) == 6
    assert count_inversions(np.array([1, 0, 3, 2], dtype=np.int64)) == 2
    assert count_inversions(np.array([2, 0, 1], dtype=np.int64)) == 2
    assert count_inversions(np.array([0], dtype=np.int64)) == 0
    assert count_inversions(np.array([], dtype=np.int64)) == 0


def test_count_inversions_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 60)
        perm = list(range(n))
        rng.shuffle(perm)
        a = np.array(perm, dtype=np.int64)
        assert count_inversions(a) == _brute_inversions(perm)


def test_inversion_pairs_random():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randrange(2, 40)
        perm = list(range(n))
        rng.shuffle(perm)
        ids = [100 + v for v in range(n)]
        I, J = inversion_pairs(
            np.array(perm, dtype=np.int64), np.array(ids, dtype=np.int64)
        )
        got = {(int(a), int(b)) for a, b in zip(I, J)}
        want = {
            (ids[i], ids[j])
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        }
        assert got == want


# ---------------------------------------------------------------------------
# search over a constructed line set


def _toy_lineset():
    affine = [
        Line(F(1), F(0), ("a",)),
        Line(F(-1), F(2), ("b",)),
    ]
    vertical = [Line(None, F(0), ("v0",)), Line(None, F(2), ("v2",))]
    return LineSet(affine, vertical, 1, 1)


@pytest.mark.parametrize("strategy", ["explicit", "counting"])
def test_constructed_lineset_search(strategy):
    ls = _toy_lineset()
    ans = lowest_feasible_vertex(ls, lambda lam: lam >= 1, strategy=strategy)
    assert ans.v1 == (F(1), F(1))
    assert ans.v2 is not None and ans.v2[1] == F(0)


@pytest.mark.parametrize("strategy", ["explicit", "counting"])
def test_no_feasible_ordinate_raises(strategy):
    ls = _toy_lineset()
    with pytest.raises(ValueError):
        lowest_feasible_vertex(ls, lambda lam: False, strategy=strategy)


def test_lowest_ordinate_has_no_v2():
    ls = _toy_lineset()
    ans = lowest_feasible_vertex(ls, lambda lam: True, strategy="explicit")
    assert ans.v1[1] == F(0)
    assert ans.v2 is None


# ---------------------------------------------------------------------------
# full solver on fixtures


def test_wedge_answer(wedge2):
    oracle = _real_oracle(wedge2, 2)
    dm = all_pairs_distances(wedge2)
    ls = candidate_lines(wedge2, dm)
    ans = lowest_feasible_vertex(ls, oracle)
    assert ans.v1 == (F(2), F(4))
    assert ans.v2 is not None and ans.v2[1] < F(4)
    sol = solve_weighted_graph(wedge2, 2)
    assert sol.lambda_star == F(4)
    assert sol.center == EdgePoint(0, F(2))
    assert sol.subtree == frozenset({1, 2})


def test_path3_answer(path3):
    sol = solve_weighted_graph(path3, 2)
    assert sol.lambda_star == F(1, 2)
    assert sol.center == EdgePoint(0, F(1, 2))
    assert sol.subtree == frozenset({1, 2})
    sol3 = solve_weighted_graph(path3, 3)
    assert sol3.lambda_star == F(1)
    assert len(sol3.subtree) == 3


def test_k1_short_circuit(path5):
    sol = solve_weighted_graph(path5, 1)
    assert sol.lambda_star == F(0)
    assert sol.subtree == frozenset({1})


def test_frozen_values_fixtures(cycle4, path5):
    assert solve_weighted_graph(cycle4, 3).lambda_star == F(1)
    assert solve_weighted_graph(path5, 3).lambda_star == F(1)
    assert solve_weighted_graph(path5, 4).lambda_star == F(3, 2)
    assert solve_weighted_graph(path5, 5).lambda_star == F(2)


# ---------------------------------------------------------------------------
# invariants on random instances


def _all_ordinates(ls):
    lines = ls.lines
    out = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            y = _pair_ordinate(lines[i], lines[j])
            if y is not None:
                out.add(y)
    return out



def _read(ordinates):
    num, den = ordinates
    assert all(b > 0 and math.gcd(int(a), int(b)) == 1 for a, b in zip(num, den))
    return [F(int(a), int(b)) for a, b in zip(num, den)]


@st.composite
def _tied_line_sets(draw):
    """Hand-built int_ok line sets whose lines all pass near (0, y0):
    pairwise ordinates repeat, and for large |y0| distinct ones are equal
    or one ulp apart as float64 (y0 + 1/3 and y0 + 2/5 round alike at
    2**52, while 5*y0 + 2 > 2*y0 + 1 orders their numerators wrongly)."""
    sw = draw(st.sampled_from([1, 2, 3]))
    sl = draw(st.sampled_from([1, 2, 5]))
    y0 = draw(st.sampled_from([0, 7, -(2**50), 2**52, -(2**52) - 3, 2**53 + 1]))
    slopes = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=7))
    affine = [
        Line(F(m, sw), F(y0 * sw * sl + draw(st.integers(-5, 5)), sw * sl), ("a", t))
        for t, m in enumerate(slopes)
    ]
    verts = draw(st.lists(st.integers(-6, 6), max_size=3, unique=True))
    vertical = [Line(None, F(a, 2 * sl), ("v", a)) for a in verts]
    return LineSet(affine, vertical, sw, sl)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tied_line_sets())
def test_explicit_ordinates_sort_exactly(ls):
    assert ls.int_ok
    assert _read(_explicit_ordinates(ls)) == sorted(_all_ordinates(ls))


# two prime denominators near 2**14 keep int_ok, yet the cross products
# num * q of a pair ordinate num/den and a probe y = p/q exceed int64
_WIDE = (
    "p ckoc 6 6 2 1\nv 1 1192\nv 2 2861\nv 3 256\nv 4 1106/5\nv 5 1646/5\n"
    "v 6 2912/3\ne 1 2 12582/16381\ne 1 3 11959/16369\ne 3 4 9580/16381\n"
    "e 2 5 8513/16369\ne 5 6 9650/16381\ne 1 6 13079/16369\n"
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_x_at_exact_beyond_int64_products():
    g, _ = parse_instance(_WIDE)
    ls = candidate_lines(g, all_pairs_distances(g))
    assert ls.int_ok
    lines = ls.lines
    want: dict = {}
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            y = _pair_ordinate(lines[a], lines[b])
            if y is not None:
                x = _pair_abscissa(lines[a], lines[b])
                want[y] = min(want.get(y, x), x)
    assert max(abs(y.numerator) * y.denominator for y in want) >= 2**63
    assert _read(_explicit_ordinates(ls)) == sorted(want)
    assert _min_x_at(ls, list(want)) == list(want.values())

def test_sandwich_and_gap_random():
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randrange(3, 7)
        g = random_graph(rng, n, extra=rng.randrange(0, 3), weighted=bool(trial % 2))
        k = rng.randrange(2, n + 1)
        lam_true = brute_lambda(g, k)
        dm = all_pairs_distances(g)
        ls = candidate_lines(g, dm)
        if len(ls) > 40:
            continue
        ans = lowest_feasible_vertex(ls, _real_oracle(g, k))
        assert ans.v1[1] == lam_true
        ys = _all_ordinates(ls)
        if ans.v2 is None:
            assert not any(y < ans.v1[1] for y in ys)
        else:
            assert ans.v2[1] < lam_true
            assert not any(ans.v2[1] < y < ans.v1[1] for y in ys)


def _check_solution(g, k, sol):
    dm = all_pairs_distances(g)
    assert len(sol.subtree) == k
    for v in sol.subtree:
        assert g.weights[v] * point_distance(g, dm, sol.center, v) <= sol.lambda_star
    # connected block
    sub = set(sol.subtree)
    seen = {min(sub)}
    stack = [min(sub)]
    while stack:
        v = stack.pop()
        for u, _ in g.adj[v]:
            if u in sub and u not in seen:
                seen.add(u)
                stack.append(u)
    assert seen == sub


def test_solver_matches_brute_random():
    rng = random.Random(47)
    for trial in range(30):
        n = rng.randrange(2, 8)
        g = random_graph(rng, n, extra=rng.randrange(0, 3), weighted=bool(trial % 2))
        k = rng.randrange(1, n + 1)
        sol = solve_weighted_graph(g, k)
        assert sol.lambda_star == brute_lambda(g, k)
        _check_solution(g, k, sol)


def _classical_one_center(g):
    # reference: minimize max weighted vertex distance over all edge points
    dm = all_pairs_distances(g)
    best = None
    for e in g.edges:
        ts = {F(0), e.length}
        profile = edge_profile(g, dm, e.id)
        flat = [
            ln for v in g.vertices() for ln in _piece_lines(profile[v])
        ]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                m1, b1 = flat[i]
                m2, b2 = flat[j]
                if m1 == m2:
                    continue
                t = (b2 - b1) / (m1 - m2)
                if 0 <= t <= e.length:
                    ts.add(t)
        for t in ts:
            x = EdgePoint(e.id, t)
            val = max(
                g.weights[v] * point_distance(g, dm, x, v) for v in g.vertices()
            )
            if best is None or val < best:
                best = val
    return best


def test_k_equals_n_is_classical_one_center():
    rng = random.Random(53)
    for trial in range(12):
        n = rng.randrange(2, 7)
        g = random_graph(rng, n, extra=rng.randrange(0, 3), weighted=bool(trial % 2))
        sol = solve_weighted_graph(g, g.n)
        assert sol.lambda_star == _classical_one_center(g)


def test_probe_points_cover_optimum(path5):
    # the optimal radius always appears among per-edge probe ordinates
    lam = solve_weighted_graph(path5, 4).lambda_star
    dm = all_pairs_distances(path5)
    found = False
    for e in path5.edges:
        for t in edge_probe_points(path5, dm, e.id, lam):
            x = EdgePoint(e.id, t)
            vals = [
                path5.weights[v] * point_distance(path5, dm, x, v)
                for v in path5.vertices()
            ]
            if lam in vals:
                found = True
    assert found


# ---------------------------------------------------------------------------
# strategy agreement


def test_counting_agrees_with_explicit_random():
    rng = random.Random(61)
    for trial in range(20):
        n = rng.randrange(2, 8)
        g = random_graph(rng, n, extra=rng.randrange(0, 3), weighted=bool(trial % 2))
        k = rng.randrange(1, n + 1)
        if k == 1:
            continue
        dm = all_pairs_distances(g)
        ls = candidate_lines(g, dm)
        a = lowest_feasible_vertex(ls, _real_oracle(g, k), strategy="explicit")
        b = lowest_feasible_vertex(ls, _real_oracle(g, k), strategy="counting")
        assert a.v1[1] == b.v1[1]
        assert (a.v2 is None) == (b.v2 is None)
        if a.v2 is not None:
            assert a.v2[1] == b.v2[1]


def test_counting_forced_pivoting(monkeypatch):
    # tiny enumeration threshold forces the sampling/narrowing loop
    monkeypatch.setattr(arrangement_search, "_ENUM_THRESHOLD", 2)
    rng = random.Random(71)
    for trial in range(8):
        n = rng.randrange(3, 7)
        g = random_graph(rng, n, extra=rng.randrange(0, 3), weighted=bool(trial % 2))
        k = rng.randrange(2, n + 1)
        dm = all_pairs_distances(g)
        ls = candidate_lines(g, dm)
        ans = lowest_feasible_vertex(ls, _real_oracle(g, k), strategy="counting")
        assert ans.v1[1] == brute_lambda(g, k)


def test_solve_counting_strategy(path5, wedge2):
    assert solve_weighted_graph(path5, 4, search="counting").lambda_star == F(3, 2)
    assert solve_weighted_graph(wedge2, 2, search="counting").lambda_star == F(4)
    assert solve_weighted_graph(path5, 3, search="auto").lambda_star == F(1)


# lengths 8/p for primes p near 10**6: the scaled intercepts exceed int64
_BIG_PATH = (
    "p ckoc 6 5 3 0\ne 1 2 8/999983\ne 2 3 8/1000003\ne 3 4 8/1000033\n"
    "e 4 5 8/1000037\ne 5 6 8/999983\n"
)
_BIG_CYCLE = (
    "p ckoc 6 6 3 1\nv 1 1\nv 2 2\nv 3 3\nv 4 1\nv 5 1\nv 6 1\n"
    "e 1 2 8/999983\ne 2 3 8/1000003\ne 3 4 8/1000033\ne 4 5 8/1000037\n"
    "e 5 6 8/999983\ne 6 1 8/1000037\n"
)
# the same cycle with unit weights: the k-level sweep of unweighted-graph
# runs on ints at scale 2 * length_scale, far beyond int64
_BIG_UNIT_CYCLE = (
    "p ckoc 6 6 3 0\n"
    "e 1 2 8/999983\ne 2 3 8/1000003\ne 3 4 8/1000033\ne 4 5 8/1000037\n"
    "e 5 6 8/999983\ne 6 1 8/1000037\n"
)


@pytest.mark.parametrize(
    "text", [_BIG_PATH, _BIG_CYCLE, _BIG_UNIT_CYCLE], ids=["path", "cycle", "unit-cycle"]
)
def test_coefficients_beyond_int64_take_the_exact_path(text):
    from ckoc import cli
    from ckoc.graph_core import parse_instance

    g, _ = parse_instance(text)
    ls = candidate_lines(g, all_pairs_distances(g))
    assert not ls.int_ok and ls.maxB >= arrangement_search._INT_LIMIT
    for k in g.vertices():
        want = brute_lambda(g, k)
        for algo in ["auto"] + cli._solvers_for(g):
            assert cli._dispatch(g, k, cli._pick_algo(g, algo), "auto").lambda_star == want, (algo, k)
