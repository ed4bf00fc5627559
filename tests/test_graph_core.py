import copy
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_tree
from ckoc import cli, oracle
from ckoc.general_feasibility import coverage_profile, is_feasible_graph
from ckoc.graph_core import (
    EdgePoint,
    Graph,
    InstanceError,
    all_pairs_distances,
    canonical_point,
    dijkstra_scaled,
    edge_profile,
    emit_instance,
    parse_instance,
    point_distance,
    vertex_of_point,
    vertex_point,
)
from ckoc.klevel_geometry import solve_unweighted_graph

PATH3_TEXT = "p ckoc 3 2 2 0\ne 1 2 1\ne 2 3 1\n"
WEDGE2_TEXT = "p ckoc 2 1 2 1\nv 1 2\nv 2 1\ne 1 2 6\n"


def test_parse_path3():
    g, k = parse_instance(PATH3_TEXT)
    assert (g.n, g.m, k) == (3, 2, 2)
    assert g.unit_weights and g.is_tree
    assert [(e.u, e.v, e.length) for e in g.edges] == [(1, 2, F(1)), (2, 3, F(1))]


def test_parse_wedge2():
    g, k = parse_instance(WEDGE2_TEXT)
    assert (g.n, g.m, k) == (2, 1, 2)
    assert g.weights[1] == 2 and g.weights[2] == 1
    assert g.edges[0].length == 6


def test_parse_rejects_self_loop():
    with pytest.raises(InstanceError, match="self-loop"):
        parse_instance("p ckoc 2 2 1 0\ne 1 2 1\ne 1 1 5\n")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(InstanceError, match="duplicate edge"):
        parse_instance("p ckoc 2 2 1 0\ne 1 2 1\ne 2 1 3\n")


def test_parse_rejects_disconnected():
    with pytest.raises(InstanceError, match="disconnected"):
        parse_instance("p ckoc 4 2 1 0\ne 1 2 1\ne 3 4 1\n")


def test_parse_rejects_bad_k():
    with pytest.raises(InstanceError, match="out of range"):
        parse_instance("p ckoc 2 1 3 0\ne 1 2 1\n")


def test_parse_rejects_nonpositive():
    with pytest.raises(InstanceError, match="nonpositive length"):
        parse_instance("p ckoc 2 1 1 0\ne 1 2 0\n")
    with pytest.raises(InstanceError, match="nonpositive weight"):
        parse_instance("p ckoc 2 1 1 1\nv 1 0\nv 2 1\ne 1 2 1\n")


def test_parse_weight_record_rules():
    with pytest.raises(InstanceError, match="unweighted"):
        parse_instance("p ckoc 2 1 1 0\nv 1 2\ne 1 2 1\n")
    with pytest.raises(InstanceError, match="missing weight"):
        parse_instance("p ckoc 2 1 1 1\nv 1 2\ne 1 2 1\n")
    with pytest.raises(InstanceError, match="line 2"):
        parse_instance("p ckoc 2 1 1 0\ne 1 2 x\n")


def test_parse_rejects_impossible_header_before_building():
    with pytest.raises(InstanceError, match=r"^graph is disconnected \(vertex 2 unreachable\)$"):
        parse_instance("p ckoc 3000000 0 1 0\n")
    # nothing of size n is built before the header is rejected
    for text, msg in (
        ("p ckoc 200000 0 1 0\n", "disconnected"),
        ("p ckoc 200000 0 1 1\n", "missing weight for vertex 1"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(InstanceError, match=msg):
                parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (text, peak)


def test_parse_short_edge_list_names_first_unreached_vertex():
    # fewer than n - 1 records: the first vertex that vertex 1 does not
    # reach, as the Graph's own connectivity check names it
    with pytest.raises(InstanceError, match=r"\(vertex 4 unreachable\)"):
        parse_instance("p ckoc 5 2 1 0\ne 1 3 1\ne 3 2 1\n")
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(3, 9)
        tree = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
        kept = rng.sample(tree, rng.randint(0, n - 3))
        text = f"p ckoc {n} {len(kept)} 1 0\n" + "".join(f"e {u} {v} 1\n" for u, v in kept)
        with pytest.raises(InstanceError) as via_parse:
            parse_instance(text)
        with pytest.raises(InstanceError) as via_graph:
            Graph.unit(n, kept)
        assert str(via_parse.value) == str(via_graph.value)


def test_parse_checks_k_before_building():
    with pytest.raises(InstanceError, match=r"^k=0 out of range 1\.\.3$"):
        parse_instance("p ckoc 3 2 0 0\ne 1 2 1\ne 2 3 1\n")
    g, k = parse_instance("p ckoc 1 0 1 0\n")
    assert (g.n, g.m, k, g.min_edge) == (1, 0, 1, [None, None])
    with pytest.raises(InstanceError, match="at least one vertex"):
        parse_instance("p ckoc 0 0 1 0\n")


def test_parse_errors_keep_their_own_line():
    # a token's parsed value is shared by every record that spells it;
    # the checks on it are not, and neither is anything across calls
    with pytest.raises(InstanceError, match=r"^edge \(1,2\) has nonpositive length 0$"):
        parse_instance("p ckoc 2 2 1 0\ne 1 2 0\ne 1 2 0\n")
    with pytest.raises(InstanceError, match=r"^line 3: bad rational '1/0'$"):
        parse_instance("p ckoc 2 1 1 1\nv 1 1\nv 2 1/0\ne 1 2 1\n")
    with pytest.raises(InstanceError, match=r"^line 5: bad rational '1/0'$"):
        parse_instance("p ckoc 2 1 1 1\nv 1 1/2\nv 2 1/2\nc x\ne 1 2 1/0\n")
    with pytest.raises(InstanceError, match=r"^line 2: bad rational '1/0'$"):
        parse_instance("p ckoc 2 1 1 0\ne 1 2 1/0\n")
    with pytest.raises(InstanceError, match=r"^line 4: bad rational '1/0'$"):
        parse_instance("p ckoc 3 2 1 0\n\ne 1 2 1\ne 2 3 1/0\n")
    with pytest.raises(InstanceError, match=r"^line 4: invalid literal"):
        parse_instance("p ckoc 3 2 1 0\ne 1 2 1/2\ne 2 3 1/2\ne 2 x 1/2\n")
    # a sign flip is a different token; a negative token met first as a
    # length is still rejected as a weight, weights being checked first
    with pytest.raises(InstanceError, match=r"^vertex 2 has nonpositive weight -1/2$"):
        parse_instance("p ckoc 2 1 1 1\nv 1 1/2\nv 2 -1/2\ne 1 2 1/2\n")
    with pytest.raises(InstanceError, match=r"^vertex 2 has nonpositive weight -3$"):
        parse_instance("p ckoc 2 1 1 1\ne 1 2 -3\nv 1 3\nv 2 -3\n")


def test_parse_calls_share_no_state():
    text = "p ckoc 3 2 1 1\nv 1 1/2\nv 2 1/2\nv 3 2/4\ne 1 2 1/2\ne 2 3 0.5\n"
    g1, _ = parse_instance(text)
    with pytest.raises(InstanceError, match="^line 3: bad rational"):
        parse_instance("p ckoc 2 1 1 0\n\ne 1 2 1/2x\n")
    g2, _ = parse_instance(text)
    assert g1 == g2
    # one value per spelling within a call, a fresh one in every call
    assert g1.weights[1] is g1.weights[2] is g1.edges[0].length
    assert g1.weights[3] is not g1.weights[1]
    assert g2.weights[1] is not g1.weights[1]
    with pytest.raises(InstanceError, match="^line 2: bad rational"):
        parse_instance("p ckoc 2 1 1 0\ne 1 2 1/2x\n")


# spellings of rationals: non-reduced forms, decimals, leading zeros, and
# coprime denominators near 10**6, four of which take a scale past 2**63
_PRIMES = (999983, 999979, 999961, 999959, 999953, 999931, 999917)
_SPELLINGS = ("1", "3", "03", "2/4", "6/3", "10/20", "0.25", "1.5", "7/8", "1/2")
_WIDE = tuple(
    s for i, p in enumerate(_PRIMES) for s in (f"{i + 1}/{p}", f"{2 * i + 2}/{2 * p}", f"{p + 2}/{p}")
)


@st.composite
def _spelled_instances(draw):
    """(n, k, weight tokens or None, [(u, v, token)]) of a connected
    graph, edges in any order and orientation."""
    n = draw(st.integers(2, 8))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    others = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) not in pairs]
    pairs += draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(pairs))]
    tok = st.sampled_from(draw(st.sampled_from((_SPELLINGS, _SPELLINGS + _WIDE, _WIDE))))
    edges = [(a, b, draw(tok)) for a, b in pairs]
    weights = [draw(tok) for _ in range(n)] if draw(st.booleans()) else None
    return n, draw(st.integers(1, n)), weights, edges


def _reference_fields(n, weights, edges):
    """Graph's derived fields by the plain Fraction formulas."""
    ws = [F(w) for w in weights]
    es = [(i, min(u, v), max(u, v), F(l)) for i, (u, v, l) in enumerate(edges)]
    sl = math.lcm(*(l.denominator for *_, l in es)) if es else 1
    sw = math.lcm(*(w.denominator for w in ws))
    adj = [[] for _ in range(n + 1)]
    min_edge = [None] * (n + 1)
    for i, a, b, _ in es:
        adj[a].append((b, i))
        adj[b].append((a, i))
        for x in (a, b):
            if min_edge[x] is None or i < min_edge[x]:
                min_edge[x] = i
    return {
        "length_scale": sl,
        "lengths_int": [int(l * sl) for *_, l in es],
        "weight_scale": sw,
        "weights_int": [0] + [int(w * sw) for w in ws],
        "unit_weights": all(w == 1 for w in ws),
        "min_edge": min_edge,
        "edges": es,
        "adj": adj,
        "weights": [F(0)] + ws,
    }


def _fields(g):
    for e in g.edges:
        assert type(e.length) is F
    for nb in g.adj:
        for _, e in nb:
            assert e is g.edges[e.id]
    assert all(type(w) is F for w in g.weights)
    assert all(type(x) is int for x in g.lengths_int + g.weights_int)
    return {
        "length_scale": g.length_scale,
        "lengths_int": g.lengths_int,
        "weight_scale": g.weight_scale,
        "weights_int": g.weights_int,
        "unit_weights": g.unit_weights,
        "min_edge": g.min_edge,
        "edges": [(e.id, e.u, e.v, e.length) for e in g.edges],
        "adj": [[(u, e.id) for u, e in nb] for nb in g.adj],
        "weights": g.weights,
    }


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_spelled_instances(), st.data())
def test_integer_scaling_matches_fraction_reference(inst, data):
    n, k, wtoks, etoks = inst
    values = {t: F(t) for t in _SPELLINGS + _WIDE}
    weights = [values[t] for t in wtoks] if wtoks else [F(1)] * n
    edges = [(u, v, values[t]) for u, v, t in etoks]
    want = _reference_fields(n, weights, edges)

    lines = [f"p ckoc {n} {len(etoks)} {k} {0 if wtoks is None else 1}"]
    records = [f"e {u} {v} {t}" for u, v, t in etoks]
    # v records in any order, anywhere among the e records
    for i, t in data.draw(st.permutations(list(enumerate(wtoks or [], start=1)))):
        records.insert(data.draw(st.integers(0, len(records))), f"v {i} {t}")
    g, k_read = parse_instance("\n".join(lines + records) + "\n")
    assert k_read == k
    assert _fields(g) == want

    # int, Fraction or mixed values into the constructor
    mode = data.draw(st.sampled_from(("int", "fraction", "mixed")))

    def as_given(x):
        if x.denominator != 1 or mode == "fraction":
            return x
        return int(x) if mode == "int" or data.draw(st.booleans()) else x

    g2 = Graph(n, [as_given(w) for w in weights], [(u, v, as_given(l)) for u, v, l in edges])
    assert _fields(g2) == want
    assert g == g2
    g3, k3 = parse_instance(emit_instance(g2, k))
    assert g3 == g2 and k3 == k
    assert _fields(g3) == want


def test_roundtrip_fixtures(path3, wedge2, cycle4):
    for g, k in ((path3, 2), (wedge2, 1), (cycle4, 3)):
        g2, k2 = parse_instance(emit_instance(g, k))
        assert g2 == g and k2 == k


def test_roundtrip_random():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, extra=rng.randint(0, 4), weighted=rng.random() < 0.5)
        g2, _ = parse_instance(emit_instance(g, 1))
        assert g2 == g


def test_distances_fixtures(path3, triangle, cycle4):
    dm = all_pairs_distances(path3)
    assert dm.d(1, 3) == 2
    dt = all_pairs_distances(triangle)
    assert all(dt.d(u, v) == 1 for u in (1, 2, 3) for v in (1, 2, 3) if u != v)
    dc = all_pairs_distances(cycle4)
    assert dc.d(1, 3) == 2 and dc.d(2, 4) == 2


def _dijkstra_rows(g):
    return [[0] * (g.n + 1)] + [
        [d if d is not None else 0 for d in dijkstra_scaled(g, s)] for s in g.vertices()
    ]


def test_distances_match_per_source_dijkstra():
    rng = random.Random(29)
    for i in range(60):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, extra=rng.randint(0, 2 * n), weighted=bool(i % 2))
        dm = all_pairs_distances(g)
        assert dm.scale == g.length_scale
        assert dm.rows == _dijkstra_rows(g) == oracle.distances(g).rows, i
        assert all(type(d) is int for row in dm.rows for d in row)


def _wide_unit_graph():
    """Unit-weight graph whose scaled lengths sum past 2**62: lengths
    q + a/p over three primes p near 10**6 make the length scale ~10**18."""
    primes = (999983, 1000003, 999979)
    rng = random.Random(31)
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5), (1, 4)]
    return Graph.unit(6, [(u, v, rng.randint(4, 9) + F(rng.randint(1, 9), primes[i % 3]))
                          for i, (u, v) in enumerate(edges)])


def test_distances_past_int64_take_exact_path():
    g = _wide_unit_graph()
    assert sum(g.lengths_int) >= 2**62
    dm = all_pairs_distances(g)
    assert dm.rows == _dijkstra_rows(g) == oracle.distances(g).rows
    assert max(map(max, dm.rows)) >= 2**63  # no int64 could hold them
    for k in range(1, g.n + 1):
        assert solve_unweighted_graph(g, k).lambda_star == oracle.brute_lambda(g, k), k


def test_distances_certificate_random():
    # every distance is witnessed by a tight relaxation through some neighbor
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 9), extra=rng.randint(0, 5))
        dm = all_pairs_distances(g)
        for s in g.vertices():
            assert dm.d(s, s) == 0
            for v in g.vertices():
                assert dm.d(s, v) == dm.d(v, s)
                if v != s:
                    assert any(
                        dm.d(s, u) + e.length == dm.d(s, v) for u, e in g.adj[v]
                    )
        for e in g.edges:
            assert dm.d(e.u, e.v) <= e.length


def _case(dm, e, v):
    """The shape of v's distance along e, read off the rows as the solvers do."""
    l, dr, ds = e.length, dm.d(v, e.u), dm.d(v, e.v)
    return "increasing" if ds == dr + l else "decreasing" if dr == ds + l else "peak"


def test_edge_distance_fn_cases(path3, triangle, cycle4):
    # offsets in units of 1/(2 * SL), and SL = 1 on these graphs
    dt = all_pairs_distances(triangle)
    assert _case(dt, triangle.edges[0], 3) == "peak"  # apex vertex vs opposite edge
    assert edge_profile(triangle, dt, 0)[3] == 1  # t = 1/2

    dp = all_pairs_distances(path3)
    assert _case(dp, path3.edges[1], 1) == "increasing"  # vertex 1 against edge (2,3)
    assert edge_profile(path3, dp, 1)[1] is None  # every path from 3 to 1 passes 2
    lines, _ = oracle._edge_lines(path3, oracle.distances(path3), 1)
    assert lines[1] == ((1, 1),)  # 1 at t = 0, 2 at t = 1

    dc = all_pairs_distances(cycle4)
    assert _case(dc, cycle4.edges[0], 3) == "decreasing"  # vertex 3 against edge (1,2)
    assert edge_profile(cycle4, dc, 0)[3] == 0  # two distance-2 paths meet at vertex 1


def _at(pieces, t):
    return min(m * t + b for m, b in pieces)


def test_edge_distance_fn_endpoint_values_random():
    # production's offsets against the oracle's lines, derived from its own
    # distances: both endpoint values, and every peak where the two
    # pieces meet
    rng = random.Random(7)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 8), extra=rng.randint(0, 4), weighted=True)
        dm = all_pairs_distances(g)
        odm = oracle.distances(g)
        half = 2 * g.length_scale
        for e in g.edges:
            offs = edge_profile(g, dm, e.id)
            lines, fixed = oracle._edge_lines(g, odm, e.id)
            peaks = set()
            for v in g.vertices():
                assert _at(lines[v], 0) == g.weights[v] * dm.d(v, e.u)
                assert _at(lines[v], e.length) == g.weights[v] * dm.d(v, e.v)
                case = _case(dm, e, v)
                assert len(lines[v]) == (2 if case == "peak" else 1)
                if case == "peak":
                    t = F(offs[v], half)
                    assert 0 < t < e.length
                    (m1, b1), (m2, b2) = lines[v]
                    assert m1 * t + b1 == m2 * t + b2
                    peaks.add(t)
                else:
                    assert offs[v] in (None, {"increasing": 2 * g.lengths_int[e.id],
                                              "decreasing": 0}[case])
            assert fixed == {F(0), e.length} | peaks


def _sides(g, dm, x):
    """(neutral, by_r, by_s) at x from the distance rows: a vertex is
    reached through r while its distance rises, through s once it falls,
    and through both at its apex (d_s - d_r + l) / 2, which is l for a
    rising distance and 0 for a falling one."""
    e = g.edges[x.edge]
    out = (set(), set(), set())
    for v in g.vertices():
        apex = (dm.d(v, e.v) - dm.d(v, e.u) + e.length) / 2
        out[0 if x.t == apex else 1 if x.t < apex else 2].add(v)
    return out


def test_classify_fixtures(path3, triangle, cycle4):
    dt = all_pairs_distances(triangle)
    assert _sides(triangle, dt, EdgePoint(0, F(1, 2))) == ({3}, {1}, {2})

    dp = all_pairs_distances(path3)
    assert _sides(path3, dp, EdgePoint(0, F(1, 2))) == (set(), {1}, {2, 3})

    # at vertex 1 of the 4-cycle the opposite vertex is neutral (two equal
    # paths); the far endpoint of the carrying edge is degenerately neutral too
    dc = all_pairs_distances(cycle4)
    assert _sides(cycle4, dc, EdgePoint(0, F(0))) == ({2, 3}, {1, 4}, set())


def test_classify_partition_and_monotonicity_random():
    rng = random.Random(13)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 8), extra=rng.randint(0, 4), weighted=True)
        dm = all_pairs_distances(g)
        for e in g.edges:
            t1 = e.length * F(rng.randint(0, 8), 8)
            t2 = e.length * F(rng.randint(0, 8), 8)
            if t1 > t2:
                t1, t2 = t2, t1
            p1 = _sides(g, dm, EdgePoint(e.id, t1))
            p2 = _sides(g, dm, EdgePoint(e.id, t2))
            for t, (neutral, by_r, by_s) in ((t1, p1), (t2, p2)):
                assert neutral | by_r | by_s == set(g.vertices())
                assert not (neutral & by_r or neutral & by_s or by_r & by_s)
                for v in g.vertices():
                    via_r = dm.d(e.u, v) + t
                    via_s = dm.d(e.v, v) + e.length - t
                    assert (v in neutral, v in by_r) == (via_r == via_s, via_r < via_s)
            if t1 < t2:
                # moving right only sheds r-side vertices
                assert p2[0] | p2[1] <= p1[1]
                assert p1[0] | p1[2] <= p2[2]


def test_canonical_point(path3, cycle4):
    # interior points pass through
    assert canonical_point(path3, 1, F(1, 3)) == EdgePoint(1, F(1, 3))
    # endpoint offsets snap to the vertex's smallest incident edge
    assert canonical_point(path3, 1, F(0)) == EdgePoint(0, F(1))  # vertex 2
    assert canonical_point(cycle4, 3, F(0)) == EdgePoint(0, F(0))  # vertex 1
    assert canonical_point(cycle4, 3, F(1)) == EdgePoint(2, F(1))  # vertex 4
    assert vertex_of_point(cycle4, vertex_point(cycle4, 4)) == 4
    with pytest.raises(ValueError):
        canonical_point(path3, 0, F(3, 2))


def test_point_distance(path3, wedge2):
    dp = all_pairs_distances(path3)
    x = EdgePoint(0, F(1, 2))
    assert point_distance(path3, dp, x, 3) == F(3, 2)
    dw = all_pairs_distances(wedge2)
    assert point_distance(wedge2, dw, EdgePoint(0, F(2)), 1) == 2
    assert point_distance(wedge2, dw, EdgePoint(0, F(2)), 2) == 4


def test_solving_leaves_the_graph_unchanged():
    # Graph is pure input: per-instance caches live on the DistanceMatrix
    rng = random.Random(17)
    for g in (random_tree(rng, 7), random_graph(rng, 7, extra=4, weighted=True)):
        before = copy.deepcopy(vars(g))
        for algo in cli._solvers_for(g):
            for k in (2, 4, 7):
                cli._dispatch(g, k, algo, "auto")
        dm = all_pairs_distances(g)
        assert is_feasible_graph(g, dm, 4, F(3)).feasible
        coverage_profile(g, dm, 0, F(1))
        assert vars(g) == before
