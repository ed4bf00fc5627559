"""Brute-force reference implementations.

Everything here recomputes answers from first principles with naive
algorithms, so tests can compare the two sides.  It shares only the model
with production (Graph, EdgePoint, DistanceMatrix and ZERO), no function:
its distances come from its own Floyd-Warshall (distances), and the lines
and offsets on each edge from those distances (_edge_lines).  Caps keep
runtimes sane; these are not meant to scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from .graph_core import ZERO, DistanceMatrix, EdgePoint, Graph

Line = tuple[Fraction, Fraction]  # (m, b) of y = m*t + b


def distances(g: Graph) -> DistanceMatrix:
    """All-pairs shortest distances by Floyd-Warshall on Python ints: each
    parsed edge length times the graph's length scale."""
    n, scale = g.n, g.length_scale
    d: list[list[int | None]] = [[0 if i == j else None for j in range(n + 1)]
                                 for i in range(n + 1)]
    for e in g.edges:
        q = e.length * scale
        if q.denominator != 1:
            raise AssertionError(f"length {e.length} off the length scale {scale}")
        d[e.u][e.v] = d[e.v][e.u] = q.numerator
    r = range(1, n + 1)
    for w in r:
        dw = d[w]
        for i in r:
            di = d[i]
            a = di[w]
            if a is None:
                continue
            for j in r:
                b = dw[j]
                if b is not None and (di[j] is None or a + b < di[j]):
                    di[j] = a + b
    d[0] = [0] * (n + 1)
    for row in d:
        row[0] = 0
    return DistanceMatrix(d, scale)


def _point_data(g: Graph, dm: DistanceMatrix, x: EdgePoint):
    """Radius-independent data at x, in integers: w_v * d(x, v) scaled by f
    times the weight scale (f clears the denominators of x.t and the
    lengths), whether x's edge reaches v directly, and v's neighbors on
    shortest paths from x."""
    e = g.edges[x.edge]
    q, sc = x.t.denominator, dm.scale
    f = q * sc
    at = x.t.numerator * sc  # x.t * f
    back = g.lengths_int[e.id] * q - at  # (length - x.t) * f
    ru, rv = dm.rows[e.u], dm.rows[e.v]
    d_x = [min(at + q * ru[v], back + q * rv[v]) for v in range(g.n + 1)]
    wd = [g.weights_int[v] * d_x[v] for v in range(g.n + 1)]
    direct = [False] * (g.n + 1)
    direct[e.u] = at == d_x[e.u]
    direct[e.v] = back == d_x[e.v]
    li = g.lengths_int
    preds = [[u for u, ev in g.adj[v] if d_x[u] + q * li[ev.id] == d_x[v]] for v in range(g.n + 1)]
    return f * g.weight_scale, wd, direct, preds


def _covered(g: Graph, data, lam: Fraction) -> frozenset[int]:
    """Shrinking fixpoint: start from all light vertices, then repeatedly
    drop any vertex with no surviving predecessor."""
    unit, wd, direct, preds = data
    alive = {v for v in g.vertices() if wd[v] * lam.denominator <= lam.numerator * unit}
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if direct[v]:
                continue  # reached directly along the edge segment
            if not any(u in alive for u in preds[v]):
                alive.discard(v)
                changed = True
    return frozenset(alive)


def brute_covered_set(g: Graph, dm: DistanceMatrix, x: EdgePoint, lam: Fraction) -> frozenset[int]:
    """Vertices covered from x at radius lam: light vertices reachable from x
    along some shortest path whose every vertex is itself light."""
    if lam < 0:
        return frozenset()
    if x.edge < 0:  # single-vertex graph
        return frozenset({1})
    return _covered(g, _point_data(g, dm, x), lam)


def brute_coverage_count(g: Graph, dm: DistanceMatrix, x: EdgePoint, lam: Fraction) -> int:
    return len(brute_covered_set(g, dm, x, lam))


def _edge_lines(g: Graph, dm: DistanceMatrix, edge: int) -> tuple[list[tuple[Line, ...]], set[Fraction]]:
    """The lines on one edge, t measured from its smaller endpoint r: per
    vertex id, the one or two lines whose minimum on [0, l] is v's
    weighted distance, and the fixed offsets, both endpoints and every
    interior apex.

    The distance to v is min(d_r + t, d_s + l - t).  When d_s = d_r + l
    it rises over the whole edge, when d_r = d_s + l it falls, and
    otherwise it peaks at (d_s - d_r + l) / 2.  Any other semicircular
    point of v sits at an endpoint, which is among the offsets anyway.
    """
    e = g.edges[edge]
    l, sc = e.length, dm.scale
    offsets = {ZERO, l}
    lines: list[tuple[Line, ...]] = [()]
    for v in g.vertices():
        w = g.weights[v]
        dr = Fraction(dm.rows[v][e.u], sc)
        ds = Fraction(dm.rows[v][e.v], sc)
        if ds == dr + l:
            lines.append(((w, w * dr),))
        elif dr == ds + l:
            lines.append(((-w, w * (ds + l)),))
        else:
            lines.append(((w, w * dr), (-w, w * (ds + l))))
            offsets.add((ds - dr + l) / 2)
    return lines, offsets


def _fixed_probes(g: Graph, dm: DistanceMatrix, edge: int):
    """The radius-independent data of one edge: its probe offsets
    (endpoints, semicircular points, pairwise crossings of the distance
    functions), the lines of those functions, and every ordinate where
    two of them cross or one meets the vertical at an offset."""
    l = g.edges[edge].length
    lines, offsets = _edge_lines(g, dm, edge)
    flat = [ln for pieces in lines for ln in pieces]
    ts = set(offsets)
    ys = {m * t + b for t in offsets for m, b in flat}
    for (m1, b1), (m2, b2) in itertools.combinations(flat, 2):
        if m1 != m2:
            t = (b2 - b1) / (m1 - m2)
            if 0 <= t <= l:
                ts.add(t)
                ys.add(m1 * t + b1)
    return ts, flat, ys


def _probes_at(fixed, l: Fraction, lam: Fraction) -> list[Fraction]:
    ts, all_lines, _ = fixed
    ts = set(ts)
    if lam >= 0:
        for m, b in all_lines:
            if m != 0:
                t = (lam - b) / m
                if 0 <= t <= l:
                    ts.add(t)
    out = sorted(ts)
    mids = [(a + b) / 2 for a, b in zip(out, out[1:])]
    return sorted(set(out + mids))


def edge_probe_points(g: Graph, dm: DistanceMatrix, edge: int, lam: Fraction) -> list[Fraction]:
    """Probe offsets on one edge that are guaranteed to include every
    breakpoint of the coverage-size function at radius lam: endpoints,
    semicircular points, pairwise crossings of the distance functions,
    crossings with the horizontal line y = lam, and interval midpoints.
    """
    return _probes_at(_fixed_probes(g, dm, edge), g.edges[edge].length, lam)


def _feasible(g: Graph, dm: DistanceMatrix, k: int, lam: Fraction, fixed: list, data: dict) -> bool:
    """brute_feasible on the radius-independent data of every edge (fixed,
    by edge id), keeping the point data (data, by point) for later radii."""
    if lam < 0:
        return False
    if g.n == 1:
        return k <= 1
    for e in g.edges:
        for t in _probes_at(fixed[e.id], e.length, lam):
            x = EdgePoint(e.id, t)
            if x not in data:
                data[x] = _point_data(g, dm, x)
            if len(_covered(g, data[x], lam)) >= k:
                return True
    return False


def brute_feasible(g: Graph, k: int, lam: Fraction, dm: DistanceMatrix | None = None) -> bool:
    """True iff some point of the graph covers at least k vertices at radius lam."""
    if dm is None:
        dm = distances(g)
    return _feasible(g, dm, k, lam, [_fixed_probes(g, dm, e.id) for e in g.edges], {})


def _candidates(fixed: list) -> list[Fraction]:
    vals = {ZERO}
    for _, _, ys in fixed:
        vals.update(y for y in ys if y >= 0)
    return sorted(vals)


def candidate_values(g: Graph, dm: DistanceMatrix | None = None) -> list[Fraction]:
    """Sorted candidate optimal values: every pairwise intersection ordinate of
    the per-edge line family (distance-function pieces plus verticals at the
    endpoints and semicircular points).  The optimum is always in this set.
    """
    if dm is None:
        dm = distances(g)
    return _candidates([_fixed_probes(g, dm, e.id) for e in g.edges])


def brute_lambda(g: Graph, k: int, n_cap: int = 14) -> Fraction:
    """Smallest feasible candidate value, by binary search over the candidate set."""
    if g.n > n_cap:
        raise ValueError(f"brute_lambda capped at n={n_cap}, got {g.n}")
    if k == 1 or g.n == 1:
        return ZERO
    dm = distances(g)
    fixed = [_fixed_probes(g, dm, e.id) for e in g.edges]
    vals = _candidates(fixed)
    data: dict = {}
    lo, hi = 0, len(vals) - 1
    if not _feasible(g, dm, k, vals[hi], fixed, data):
        raise AssertionError("largest candidate must be feasible")
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(g, dm, k, vals[mid], fixed, data):
            hi = mid
        else:
            lo = mid + 1
    return vals[lo]


def brute_kth_level(chains: Iterable, k: int, x: Fraction) -> Fraction:
    """k-th smallest chain value at abscissa x (chains expose value_at)."""
    vals = sorted(c.value_at(x) for c in chains)
    if not 1 <= k <= len(vals):
        raise ValueError(f"k={k} out of range for {len(vals)} chains")
    return vals[k - 1]


def brute_min_diameter_ksubtree(
    g: Graph, k: int, n_cap: int = 12, k_cap: int = 6
) -> tuple[Fraction, frozenset[int]]:
    """Minimum weighted diameter over all k-vertex tree subgraphs of g, by
    enumerating vertex subsets and every spanning tree of each induced
    subgraph.  The diameter is measured inside the chosen tree, not in g;
    on trees the two coincide.  Lexicographically smallest witness on ties.
    """
    if g.n > n_cap or k > k_cap:
        raise ValueError(f"capped at n={n_cap}, k={k_cap}; got n={g.n}, k={k}")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range")
    best: tuple[Fraction, tuple[int, ...]] | None = None
    for combo in itertools.combinations(g.vertices(), k):
        inset = set(combo)
        pool = [e for e in g.edges if e.u in inset and e.v in inset]
        if len(pool) < k - 1:
            continue
        for pick in itertools.combinations(pool, k - 1):
            root = {v: v for v in combo}

            def find(v):
                while root[v] != v:
                    root[v] = root[root[v]]
                    v = root[v]
                return v

            acyclic = True
            for e in pick:
                ru, rv = find(e.u), find(e.v)
                if ru == rv:
                    acyclic = False
                    break
                root[ru] = rv
            if not acyclic:
                continue
            # k-1 acyclic edges on k vertices form a spanning tree
            adj: dict[int, list[tuple[int, Fraction]]] = {v: [] for v in combo}
            for e in pick:
                adj[e.u].append((e.v, e.length))
                adj[e.v].append((e.u, e.length))
            w = ZERO
            for s in combo:
                dist = {s: ZERO}
                stack = [s]
                while stack:
                    v = stack.pop()
                    for u, l in adj[v]:
                        if u not in dist:
                            dist[u] = dist[v] + l
                            stack.append(u)
                for u in combo:
                    if u <= s:
                        continue
                    val = g.weights[u] * g.weights[s] * dist[u] / (
                        g.weights[u] + g.weights[s])
                    if val > w:
                        w = val
            cand = (w, combo)
            if best is None or cand < best:
                best = cand
    assert best is not None  # the graph is connected, some k-subtree works
    return best[0], frozenset(best[1])
