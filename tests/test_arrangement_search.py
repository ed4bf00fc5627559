import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckoc.arrangement_search import (
    LineSet,
    candidate_lines,
    lowest_feasible_vertex,
    merge_inversions,
    solve_weighted_graph,
    _CountingSearch,
    _explicit_ordinates,
    _int_pair_ordinates,
    _sorted_ordinates,
)
from ckoc.graph_core import (
    EdgePoint,
    Graph,
    all_pairs_distances,
    edge_profile,
    emit_instance,
    parse_instance,
)
from ckoc.oracle import brute_lambda, edge_probe_points
from ckoc import arrangement_search, oracle, tree_solver

from conftest import point_distance, random_graph, vertex_dags


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


def _affine(ls):
    """(slope, intercept) of every affine line, read off the integer arrays."""
    return [(F(int(m), ls.SW), F(int(b), ls.SW * ls.SL)) for m, b in zip(ls.M, ls.B)]


def _verticals(ls):
    return [F(int(a), 2 * ls.SL) for a in ls.A]


def test_candidate_lines_wedge(wedge2):
    dm = all_pairs_distances(wedge2)
    ls = candidate_lines(wedge2, dm)
    assert set(_affine(ls)) == {(F(2), F(0)), (F(-1), F(6))}
    assert set(_verticals(ls)) == {F(0), F(6)}
    assert len(ls) == 4


def test_candidate_lines_path3(path3):
    dm = all_pairs_distances(path3)
    ls = candidate_lines(path3, dm)
    affine = set(_affine(ls))
    assert affine == {(F(1), F(0)), (F(-1), F(1)), (F(-1), F(2)), (F(1), F(1))}
    assert set(_verticals(ls)) == {F(0), F(1)}


def test_candidate_lines_triangle_peak(triangle):
    # vertex 3 seen from edge (1,2) contributes both a rising and a falling line
    dm = all_pairs_distances(triangle)
    ls = candidate_lines(triangle, dm)
    affine = set(_affine(ls))
    assert (F(1), F(1)) in affine
    assert (F(-1), F(2)) in affine


def test_candidate_lines_semicircular_vertical():
    # odd cycle: the vertex opposite an edge peaks at its midpoint, which
    # must appear as a vertical line
    g = Graph.unit(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    dm = all_pairs_distances(g)
    ls = candidate_lines(g, dm)
    dags = vertex_dags(g, dm)
    semis = {
        F(off, 2 * g.length_scale)
        for edge in range(g.m)
        for off in edge_profile(g, dm, edge, dags)[1:]
        if off is not None
    }
    assert any(0 < t < F(1) for t in semis)
    assert semis <= set(_verticals(ls))
    assert len(_verticals(ls)) == len(set(_verticals(ls)))


_SCALE_DENS = (1, 999983, 1000003, 2**61 - 1)


@st.composite
def _prime_scale_graphs(draw):
    """Small graphs, some chords, weights and lengths over denominators
    from 1 to 2**61 - 1, so the line coefficients fall on both sides of
    int64."""
    n = draw(st.integers(2, 6))

    def rat():
        return F(draw(st.integers(1, 9)), draw(st.sampled_from(_SCALE_DENS)))

    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    absent = [(u, v) for v in range(2, n + 1) for u in range(1, v) if (u, v) not in pairs]
    if absent:
        pairs += draw(st.lists(st.sampled_from(absent), max_size=3, unique=True))
    return Graph(n, [rat() for _ in range(n)], [(u, v, rat()) for u, v in pairs])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_prime_scale_graphs())
def test_candidate_lines_are_the_oracles_edge_lines(g):
    # production reads the lines off its rows; the oracle derives each
    # edge's lines from its own distances; in integer units they agree
    ls = candidate_lines(g, all_pairs_distances(g))
    odm = oracle.distances(g)
    sw, sl = g.weight_scale, g.length_scale
    aff, vert = set(), set()
    for edge in range(g.m):
        lines, offsets = oracle._edge_lines(g, odm, edge)
        for m, b in (ln for pieces in lines for ln in pieces):
            aff.add((m * sw, b * sw * sl))
        vert |= {t * 2 * sl for t in offsets}
    pairs = list(zip(ls.M.tolist(), ls.B.tolist()))
    assert len(pairs) == len(set(pairs)) and set(pairs) == aff
    verticals = ls.A.tolist()
    assert len(verticals) == len(set(verticals)) and set(verticals) == vert


# ---------------------------------------------------------------------------
# the merge pass over inversions


def _brute_inversions(a):
    return sum(
        1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j]
    )


def _count(values):
    rng = np.random.default_rng(0)
    return merge_inversions(np.array(values, dtype=np.int64), rng, 0, -1)[0]


def test_count_inversions_examples():
    assert _count([0, 1, 2, 3]) == 0
    assert _count([3, 2, 1, 0]) == 6
    assert _count([1, 0, 3, 2]) == 2
    assert _count([2, 0, 1]) == 2
    assert _count([0]) == 0
    assert _count([]) == 0


def test_count_inversions_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 60)
        perm = list(range(n))
        rng.shuffle(perm)
        assert _count(perm) == _brute_inversions(perm)


def test_inversion_pairs_random():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randrange(2, 40)
        perm = list(range(n))
        rng.shuffle(perm)
        ids = [100 + v for v in range(n)]
        # pairs come back as values; each value names its position
        pos = {v: i for i, v in enumerate(perm)}
        _, _, (hi, lo) = merge_inversions(
            np.array(perm, dtype=np.int64), np.random.default_rng(0), 0, n * n
        )
        got = {(ids[pos[int(a)]], ids[pos[int(b)]]) for a, b in zip(hi, lo)}
        want = {
            (ids[i], ids[j])
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        }
        assert got == want


@settings(derandomize=True, max_examples=150, deadline=None)
@example(list(range(70))[::-1], 1)
@example(random.Random(33).sample(range(33), 33), 2)
@given(st.integers(0, 70).flatmap(lambda n: st.permutations(range(n))), st.integers(0, 2**32))
def test_merge_pass_counts_draws_and_lists(perm, seed):
    want = {(a, b) for i, a in enumerate(perm) for b in perm[i + 1 :] if a > b}
    draws = 4000 if len(perm) <= 8 else 300
    values = np.array(perm, dtype=np.int64)
    total, (hi, lo), listed = merge_inversions(values, np.random.default_rng(seed), draws, len(want))
    assert total == len(want)
    pairs = list(zip(listed[0].tolist(), listed[1].tolist()))
    assert len(pairs) == len(want) and set(pairs) == want
    drawn = set(zip(hi.tolist(), lo.tolist()))
    assert len(hi) == len(lo) == (draws if want else 0)
    assert drawn <= want
    if len(perm) <= 8:
        assert drawn == want
    # one short of the total, the pass lists nothing
    if want:
        assert merge_inversions(values, np.random.default_rng(seed), 0, len(want) - 1)[2] is None


# ---------------------------------------------------------------------------
# search over a constructed line set


def _toy_lineset():
    # y = x, y = 2 - x, and verticals at x = 0 and x = 2
    return LineSet([1, -1], [0, 2], [0, 4], 1, 1)


@pytest.mark.parametrize("strategy", ["explicit", "counting"])
def test_constructed_lineset_search(strategy):
    ls = _toy_lineset()
    lam = lowest_feasible_vertex(ls, lambda lam: lam >= 1, strategy=strategy)
    assert lam == F(1)


@pytest.mark.parametrize("strategy", ["explicit", "counting"])
def test_no_feasible_ordinate_raises(strategy):
    ls = _toy_lineset()
    with pytest.raises(ValueError):
        lowest_feasible_vertex(ls, lambda lam: False, strategy=strategy)


def test_lowest_ordinate_when_all_feasible():
    ls = _toy_lineset()
    assert lowest_feasible_vertex(ls, lambda lam: True, strategy="explicit") == F(0)


# ---------------------------------------------------------------------------
# full solver on fixtures


def test_wedge_answer(wedge2):
    oracle = _real_oracle(wedge2, 2)
    dm = all_pairs_distances(wedge2)
    ls = candidate_lines(wedge2, dm)
    assert lowest_feasible_vertex(ls, oracle) == F(4)
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
    """Every crossing ordinate, in Fraction arithmetic on the coefficients."""
    aff = _affine(ls)
    out = {m * x + b for m, b in aff for x in _verticals(ls)}
    for i, (m1, b1) in enumerate(aff):
        for m2, b2 in aff[i + 1 :]:
            if m1 != m2:
                out.add((m1 * b2 - m2 * b1) / (m1 - m2))
    return out


def _read(ordinates):
    num, den = ordinates
    assert all(b > 0 and math.gcd(int(a), int(b)) == 1 for a, b in zip(num, den))
    return [F(int(a), int(b)) for a, b in zip(num, den)]


@st.composite
def _tied_line_sets(draw):
    """Hand-built line sets whose lines all pass near (0, y0): pairwise
    ordinates repeat, and for large |y0| distinct ones are equal or one ulp
    apart as float64 (y0 + 1/3 and y0 + 2/5 round alike at 2**52, while
    5*y0 + 2 > 2*y0 + 1 orders their numerators wrongly).  The wide
    scales, beyond 2**62, give object-dtype sets (int_ok False), and
    |y0| = 2**1100 puts every ordinate past the float range."""
    sw = draw(st.sampled_from([1, 2, 3, 3**41]))
    sl = draw(st.sampled_from([1, 2, 5, 2**63 + 29]))
    y0 = draw(
        st.sampled_from(
            [0, 7, -(2**50), 2**52, -(2**52) - 3, 2**53 + 1, 2**1100, -(2**1100) - 1]
        )
    )
    slopes = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=7))
    b = [y0 * sw * sl + draw(st.integers(-5, 5)) for _ in slopes]
    verts = draw(st.lists(st.integers(-6, 6), max_size=3, unique=True))
    return LineSet(slopes, b, verts, sw, sl)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tied_line_sets())
def test_explicit_ordinates_sort_exactly(ls):
    assert ls.M.dtype == (np.int64 if ls.int_ok else object)
    assert _read(_explicit_ordinates(ls)) == sorted(_all_ordinates(ls))
    # each input's rank names its value among the sorted distinct ones
    num, den = _int_pair_ordinates(ls)
    inputs = [F(int(a), int(b)) for a, b in zip(num, den)]
    num, den, ranks = _sorted_ordinates(num, den)
    values = _read((num, den))
    assert [values[r] for r in ranks] == inputs


def test_sorted_ordinates_across_blocks(monkeypatch):
    # in blocks of 5 entries, duplicates meet across block ends and runs
    # of equal floats hold distinct values (2**53 + 1 and 2**53 round
    # alike), at int64 and Python-int scales; values and ranks still match
    # Fraction arithmetic, with and without the ranks
    monkeypatch.setattr(arrangement_search, "_BLOCK", 5)
    rng = random.Random(5)
    for big in (1, 2**70):
        def draw():
            return rng.randint(-9, 9) * big, rng.choice((1, 2, 3, -6))

        pool = [(2**53 * big + rng.randint(0, 2), 1), draw()]
        pairs = [rng.choice(pool) if rng.random() < 0.5 else draw() for _ in range(60)]
        pairs += [(2**53 * big + t, 1) for t in (0, 1, 2, 1, 0)]
        rng.shuffle(pairs)
        dt = np.int64 if big == 1 else object
        inputs = [F(a, b) for a, b in pairs]
        want = sorted(set(inputs))
        for ranked in (True, False):
            num, den = (np.array(c, dtype=dt) for c in zip(*pairs))
            num, den, ranks = _sorted_ordinates(num, den, ranked)
            assert _read((num, den)) == want
            if ranked:
                assert [want[r] for r in ranks] == inputs
            else:
                assert ranks is None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tied_line_sets(), st.data())
def test_explicit_window_keeps_every_ordinate_inside(ls, data):
    # the float filter may keep a few ordinates just outside the window,
    # never drops one inside it, at int64 and Python-int scales alike, and
    # past the float range; the window's ends are integers over SW * SL
    full = sorted(_all_ordinates(ls))
    scale = ls.SW * ls.SL
    ends = [math.floor(y * scale) for y in full] + [math.ceil(y * scale) for y in full]
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(ends or [0]), min_size=2, max_size=2)))
    got = _read(_explicit_ordinates(ls, (lo, hi)))
    assert got == sorted(set(got)) and set(got) <= set(full)
    inside = [y for y in full if lo <= y * scale <= hi]
    assert [y for y in got if lo <= y * scale <= hi] == inside


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_tied_line_sets())
def test_slope_ranks_order_inverse_slopes(ls):
    # the counting search ranks lines by dx/dy among its distinct values:
    # SW/M for affine lines, 0 for verticals
    inv = [F(ls.SW, int(m)) for m in ls.M] + [F(0)] * ls.n_vert
    rank = {s: r for r, s in enumerate(sorted(set(inv)))}
    got = _CountingSearch(ls, lambda lam: True).rank_asc
    assert got.tolist() == [rank[s] for s in inv]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tied_line_sets())
def test_window_of_everything_is_explicit(ls):
    # a counting window from below every crossing to above every one
    # enumerates the same sorted ordinates as the explicit strategy
    top = max(_all_ordinates(ls), default=F(0)) + 1
    cs = _CountingSearch(ls, lambda lam: True)
    seq = cs.rank_inf[cs.order_at(top)]
    _, _, listed = merge_inversions(seq, cs.rng, 0, len(ls) ** 2)
    num, den = cs._ordinates(cs.order_inf, listed)
    want_num, want_den = _explicit_ordinates(ls)
    assert num.tolist() == want_num.tolist() and den.tolist() == want_den.tolist()
    assert _read((num, den)) == sorted(_all_ordinates(ls))


# two prime denominators near 2**14 keep int_ok, yet the cross products
# num * q of a pair ordinate num/den and a probe y = p/q exceed int64
_WIDE = (
    "p ckoc 6 6 2 1\nv 1 1192\nv 2 2861\nv 3 256\nv 4 1106/5\nv 5 1646/5\n"
    "v 6 2912/3\ne 1 2 12582/16381\ne 1 3 11959/16369\ne 3 4 9580/16381\n"
    "e 2 5 8513/16369\ne 5 6 9650/16381\ne 1 6 13079/16369\n"
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_explicit_ordinates_exact_beyond_int64_products():
    g, _ = parse_instance(_WIDE)
    ls = candidate_lines(g, all_pairs_distances(g))
    assert ls.int_ok
    want = _all_ordinates(ls)
    assert max(abs(y.numerator) * y.denominator for y in want) >= 2**63
    assert _read(_explicit_ordinates(ls)) == sorted(want)


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
        oracle = _real_oracle(g, k)
        lam = lowest_feasible_vertex(ls, oracle)
        assert lam == lam_true
        ys = _all_ordinates(ls)
        assert lam in ys
        below = [y for y in ys if y < lam]
        if below:
            assert not oracle(max(below))


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
    odm = oracle.distances(g)
    best = None
    for edge in range(g.m):
        length = g.length(edge)
        ts = {F(0), length}
        lines, _ = oracle._edge_lines(g, odm, edge)
        flat = [ln for pieces in lines for ln in pieces]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                m1, b1 = flat[i]
                m2, b2 = flat[j]
                if m1 == m2:
                    continue
                t = (b2 - b1) / (m1 - m2)
                if 0 <= t <= length:
                    ts.add(t)
        for t in ts:
            x = EdgePoint(edge, t)
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
    for edge in range(path5.m):
        for t in edge_probe_points(path5, dm, edge, lam):
            x = EdgePoint(edge, t)
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
        assert a == b


def test_counting_forced_pivoting(monkeypatch):
    # tiny enumeration threshold forces the sampling/narrowing loop, and
    # with it rounds whose every draw sits at y_hi, which draw again from
    # the window open at y_hi
    monkeypatch.setattr(arrangement_search, "_ENUM_THRESHOLD", 2)
    open_tops = []
    real = _CountingSearch.order_at

    def order_at(self, y, strict=False):
        open_tops.append(strict)
        return real(self, y, strict)

    monkeypatch.setattr(_CountingSearch, "order_at", order_at)
    rng = random.Random(71)
    for trial in range(8):
        n = rng.randrange(3, 7)
        g = random_graph(rng, n, extra=rng.randrange(0, 3), weighted=bool(trial % 2))
        k = rng.randrange(2, n + 1)
        dm = all_pairs_distances(g)
        ls = candidate_lines(g, dm)
        lam = lowest_feasible_vertex(ls, _real_oracle(g, k), strategy="counting")
        assert lam == brute_lambda(g, k)
    assert True in open_tops


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


# weights 1/(2**115 + i): their lcm, the weight scale, passes 2**1024, so
# an ordinate bound taken without the least slope gap, and the floats
# below it, would overflow
_THOUSAND_BIT_TREE = emit_instance(
    Graph(
        10,
        [F(1, 2**115 + i) for i in range(10)],
        [(v // 2, v, 1 + v % 3) for v in range(2, 11)],
    ),
    5,
)


# integer weights W and W + 1 for W = 10**160: the lines (W+1)x and
# Wx + W cross at y = W(W+1), past the float range, so every float the
# searches take of such an ordinate saturates
_W = 10**160
_HUGE_ORDINATE_TREE = emit_instance(Graph(3, [_W, _W + 1, 1], [(1, 2, 1), (2, 3, 1)]), 2)
_HUGE_ORDINATE_CYCLE = emit_instance(
    Graph(5, [_W, _W + 1, _W + 3, 2, 1], [(1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 3), (5, 1, 1)]),
    3,
)


@pytest.mark.parametrize(
    "text",
    [
        _BIG_PATH,
        _BIG_CYCLE,
        _BIG_UNIT_CYCLE,
        _THOUSAND_BIT_TREE,
        _HUGE_ORDINATE_TREE,
        _HUGE_ORDINATE_CYCLE,
    ],
    ids=["path", "cycle", "unit-cycle", "thousand-bit-tree", "huge-tree", "huge-cycle"],
)
def test_coefficients_beyond_int64_take_the_exact_path(text):
    from ckoc import cli
    from ckoc.graph_core import parse_instance

    g, _ = parse_instance(text)
    ls = candidate_lines(g, all_pairs_distances(g))
    assert not ls.int_ok and ls.maxB >= arrangement_search._INT_LIMIT
    assert ls.M.dtype == object
    for k in g.vertices():
        want = brute_lambda(g, k)
        for algo in ["auto"] + cli._solvers_for(g):
            for search in ("auto", "explicit", "counting"):
                got = cli._dispatch(g, k, cli._pick_algo(g, algo), search).lambda_star
                assert got == want, (algo, search, k)


@pytest.mark.parametrize("text", [_HUGE_ORDINATE_TREE, _HUGE_ORDINATE_CYCLE], ids=["tree", "cycle"])
def test_ordinates_past_the_float_range(text, monkeypatch):
    g, _ = parse_instance(text)
    ls = candidate_lines(g, all_pairs_distances(g))
    want = _all_ordinates(ls)
    assert max(abs(y) for y in want) > 2**1024
    assert _read(_explicit_ordinates(ls)) == sorted(want)
    # a tiny enumeration threshold sends the counting search through its
    # sampled pivots and exact narrowing at these heights
    monkeypatch.setattr(arrangement_search, "_ENUM_THRESHOLD", 2)
    for k in range(2, g.n + 1):
        lam = lowest_feasible_vertex(ls, _real_oracle(g, k), strategy="counting")
        assert lam == brute_lambda(g, k)


def test_auto_counts_on_large_object_dtype_sets(monkeypatch):
    # 501 lines through (0, b): explicit under auto as an int64 set,
    # counting once the same lines need Python ints
    slopes, verts = list(range(1, 302)), list(range(200))
    small = LineSet(slopes, [3] * 301, verts)
    wide = LineSet(slopes, [2**70 + 3] * 301, verts)
    assert small.int_ok and not wide.int_ok and len(wide) == 501
    ran = []
    real = arrangement_search._search_explicit
    monkeypatch.setattr(arrangement_search, "_search_explicit", lambda *a: ran.append(a) or real(*a))
    assert lowest_feasible_vertex(small, lambda y: y > 1, "auto") == 3
    assert lowest_feasible_vertex(wide, lambda y: y > 1, "auto") == 2**70 + 3
    assert [a[0] for a in ran] == [small]


def test_library_solvers_default_to_auto_search(path5, monkeypatch):
    # the library entry points search as the CLI does unless told otherwise:
    # the graph solver passes "auto" on, and the tree solver resolves it by
    # its pair count (path5 has 10), bisecting the pair radii while the
    # enumeration threshold admits them and counting above it
    seen = []
    real = arrangement_search.lowest_feasible_vertex
    real_pairs = tree_solver._pair_radii

    def spy(ls, oracle, strategy="explicit", bracket=None):
        seen.append(strategy)
        return real(ls, oracle, strategy, bracket)

    def pairs_spy(ctx):
        seen.append("pairs")
        return real_pairs(ctx)

    monkeypatch.setattr(arrangement_search, "lowest_feasible_vertex", spy)
    monkeypatch.setattr(tree_solver, "lowest_feasible_vertex", spy)
    monkeypatch.setattr(tree_solver, "_pair_radii", pairs_spy)
    assert solve_weighted_graph(path5, 3).lambda_star == F(1)
    assert tree_solver.solve_weighted_tree(path5, 3).lambda_star == F(1)
    for threshold in (10, 9):
        monkeypatch.setattr(arrangement_search, "_ENUM_THRESHOLD", threshold)
        assert tree_solver.solve_weighted_tree(path5, 3).lambda_star == F(1)
    assert seen == ["auto", "pairs", "pairs", "counting"]


def test_bracket_keeps_answers_with_fewer_feasibility_tests(monkeypatch):
    # seeded weighted graphs at every k: the explicit search over the
    # bracket's radii gives the JSON of the search over every crossing,
    # with at most 0.75x its feasibility tests
    from ckoc import cli
    from ckoc.general_feasibility import FeasibilityTester

    calls = [0]
    real_feasible = FeasibilityTester.feasible

    def counted(self, k, lam):
        calls[0] += 1
        return real_feasible(self, k, lam)

    monkeypatch.setattr(FeasibilityTester, "feasible", counted)
    real = arrangement_search.lowest_feasible_vertex

    def unbracketed(ls, oracle, strategy="explicit", bracket=None):
        return real(ls, oracle, strategy)

    graphs = []
    for seed in range(12):
        n = 4 + seed % 7
        text = cli.generate_instance(seed, n, (0.2, 0.5)[seed % 2], True, False)
        graphs.append(parse_instance(text)[0])
    counts = []
    for lowest in (real, unbracketed):
        monkeypatch.setattr(arrangement_search, "lowest_feasible_vertex", lowest)
        calls[0] = 0
        out = [
            solve_weighted_graph(g, k, search="explicit").to_json(g)
            for g in graphs
            for k in range(2, g.n + 1)
        ]
        counts.append((calls[0], out))
    (bracketed, got), (whole, want) = counts
    assert got == want
    assert bracketed <= 0.75 * whole, (bracketed, whole)
