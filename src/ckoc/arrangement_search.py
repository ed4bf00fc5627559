"""Candidate-line arrangement and optimal-radius search for weighted graphs.

The optimal radius is always the y-coordinate of an intersection of two
candidate lines drawn in a shared (t, y) plane: per edge, the rising and
falling pieces of each vertex distance function, plus vertical lines at
the edge endpoints and at semicircular points.  Feasibility of a radius
is monotone, so the answer is the lowest intersection ordinate at which
the supplied oracle says yes.

Two interchangeable strategies:

* explicit: enumerate every pairwise ordinate, sort, binary search.
  Simple and exact; quadratic in the number of lines.  With int64
  coefficients the ordinates stay reduced int64 pairs (num, den): they are
  sorted by float value, duplicates dropped, and every run of neighbours
  too close to trust as floats re-sorted exactly.  Only the O(log N)
  ordinates the search probes or returns, and those in such a run, become
  Fractions.
* counting: never materializes the full ordinate set.  The number of
  intersections below a height y equals the number of inversions between
  the left-to-right order of the lines at y = -inf and at y, so a window
  (y_lo, y_hi] around the answer is narrowed by probing sampled in-window
  ordinates until few enough intersections remain to enumerate directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .graph_core import (
    DECREASING,
    INCREASING,
    PEAK,
    ZERO,
    DistanceMatrix,
    Graph,
    InternalError,
    Solution,
    all_pairs_distances,
    edge_profile,
    vertex_point,
)
from .general_feasibility import FeasibilityResult, FeasibilityTester, trim_witness

_INT_LIMIT = 1 << 62
_SEED = 0xC0C5EED
_ENUM_THRESHOLD = 50_000
_SAMPLE_BATCH = 1 << 17


@dataclass(frozen=True)
class Line:
    """A candidate line.  slope None means a vertical line at x = intercept;
    otherwise y = slope * x + intercept."""

    slope: Optional[Fraction]
    intercept: Fraction
    origin: tuple

    @property
    def vertical(self) -> bool:
        return self.slope is None


@dataclass(frozen=True)
class ArrangementAnswer:
    """v1 is the lowest intersection point with a feasible ordinate, v2 the
    highest one strictly below it (None when no ordinate lies below)."""

    v1: tuple[Fraction, Fraction]
    v2: Optional[tuple[Fraction, Fraction]]


class LineSet:
    """Candidate lines with integer-scaled coefficient arrays.

    Affine lines store slope*SW and intercept*SW*SL; verticals store
    position*2*SL (semicircular points may sit at half-integer grid
    offsets).  int_ok reports whether every pairwise computation fits
    comfortably in int64; when it does not, callers fall back to exact
    Fraction arithmetic.  The arrays are int64 only when every coefficient
    fits; otherwise they hold Python ints and int_ok is False.
    """

    def __init__(self, affine: list[Line], vertical: list[Line], sw: int = 1, sl: int = 1):
        self.affine = affine
        self.vertical = vertical
        self.SW = sw
        self.SL = sl
        def as_int(x: Fraction, scale: int) -> int:
            """x * scale, which must be an integer."""
            q, r = divmod(scale, x.denominator)
            if r:
                raise InternalError(f"scales {sw},{sl} do not make {x} integral")
            return x.numerator * q

        swl = sw * sl
        m = [as_int(ln.slope, sw) for ln in affine]
        b = [as_int(ln.intercept, swl) for ln in affine]
        a = [as_int(ln.intercept, 2 * sl) for ln in vertical]
        self.n_aff = len(affine)
        self.n_vert = len(vertical)
        maxM = max(map(abs, m), default=0)
        maxB = max(map(abs, b), default=0)
        maxA = max(map(abs, a), default=0)
        self.maxM, self.maxB, self.maxA = maxM, maxB, maxA
        fits = max(maxM, maxB, maxA) < _INT_LIMIT
        dtype = np.int64 if fits else object
        self.M = np.array(m, dtype=dtype)
        self.B = np.array(b, dtype=dtype)
        self.A = np.array(a, dtype=dtype)
        big = max(
            2 * maxM * maxB + 1,
            maxM * maxA + 2 * maxB,
            2 * self.SW * self.SL * max(2 * maxM, 2 * self.SL),
        )
        self.int_ok = fits and big < _INT_LIMIT

    def __len__(self) -> int:
        return self.n_aff + self.n_vert

    def line(self, i: int) -> Line:
        if i < self.n_aff:
            return self.affine[i]
        return self.vertical[i - self.n_aff]

    @property
    def lines(self) -> list[Line]:
        return list(self.affine) + list(self.vertical)


def candidate_lines(g: Graph, dm: DistanceMatrix) -> LineSet:
    """Collect the candidate lines of every edge, deduplicated globally.

    Coinciding lines from different (edge, vertex) pairs produce the same
    intersections, so only the first origin is kept.  Insertion order is
    edges ascending, then vertices ascending, which keeps the arrays
    deterministic.
    """
    aff_seen: dict[tuple[Fraction, Fraction], tuple] = {}
    vert_seen: dict[Fraction, tuple] = {}
    for e in g.edges:
        vert_seen.setdefault(ZERO, ("endpoint", e.id, e.u))
        vert_seen.setdefault(e.length, ("endpoint", e.id, e.v))
        profile = edge_profile(g, dm, e.id)
        for v in g.vertices():
            fn = profile[v]
            w = g.weights[v]
            if fn.case in (INCREASING, PEAK):
                aff_seen.setdefault((w, w * fn.d_r), ("rising", v, e.id))
            if fn.case in (DECREASING, PEAK):
                aff_seen.setdefault((-w, w * (fn.d_s + e.length)), ("falling", v, e.id))
            if fn.semicircular_t is not None:
                vert_seen.setdefault(fn.semicircular_t, ("semicircular", v, e.id))
    affine = [Line(m, b, org) for (m, b), org in aff_seen.items()]
    vertical = [Line(None, a, org) for a, org in vert_seen.items()]
    return LineSet(affine, vertical, g.weight_scale, g.length_scale)


# ---------------------------------------------------------------------------
# inversion counting between two left-to-right orders


def count_inversions(values: np.ndarray) -> int:
    """Number of pairs i < j with values[i] > values[j].  values must be
    distinct int64 entries in [0, n)."""
    n = len(values)
    if n <= 1:
        return 0
    n2 = 1 << (n - 1).bit_length()
    a = np.full(n2, n, dtype=np.int64)
    a[:n] = values
    total = 0
    width = 1
    while width < n2:
        v = a.reshape(-1, 2 * width)
        nb = v.shape[0]
        left = v[:, :width]
        right = v[:, width:]
        off = (np.arange(nb, dtype=np.int64) * np.int64(2 * n + 2))[:, None]
        lo = (left + off).ravel()
        ro = (right + off).ravel()
        # count of left-block entries <= each right entry, within its row
        le = np.searchsorted(lo, ro, side="right")
        base = np.repeat(np.arange(nb, dtype=np.int64) * width, width)
        total += int((width - (le - base)).sum())
        a = np.sort(v, axis=1).ravel()
        width *= 2
    return total


def inversion_pairs(values: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate every inversion of values, reporting the parallel ids as
    (earlier-but-larger, later-but-smaller) pairs.  Caller must ensure the
    total inversion count is small enough to materialize."""
    n = len(values)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    if n <= 1:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    n2 = 1 << (n - 1).bit_length()
    vals = np.full(n2, n, dtype=np.int64)
    vals[:n] = values
    pids = np.full(n2, -1, dtype=np.int64)
    pids[:n] = ids
    width = 1
    while width < n2:
        v = vals.reshape(-1, 2 * width)
        d = pids.reshape(-1, 2 * width)
        nb = v.shape[0]
        left = v[:, :width]
        lid = d[:, :width]
        right = v[:, width:]
        rid = d[:, width:]
        off = (np.arange(nb, dtype=np.int64) * np.int64(2 * n + 2))[:, None]
        lo = (left + off).ravel()
        ro = (right + off).ravel()
        gt_start = np.searchsorted(lo, ro, side="right")
        row = np.repeat(np.arange(nb, dtype=np.int64), width)
        row_end = (row + 1) * width
        cnt = row_end - gt_start
        real = rid.ravel() >= 0
        cnt = np.where(real, cnt, 0)
        total = int(cnt.sum())
        if total:
            starts = np.repeat(gt_start, cnt)
            csum = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            offs = np.arange(total, dtype=np.int64) - np.repeat(csum, cnt)
            src = starts + offs
            out_i.append(lid.ravel()[src])
            out_j.append(np.repeat(rid.ravel(), cnt))
        order = np.argsort(v, axis=1, kind="stable")
        vals = np.take_along_axis(v, order, axis=1).ravel()
        pids = np.take_along_axis(d, order, axis=1).ravel()
        width *= 2
    if not out_i:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_i), np.concatenate(out_j)


# ---------------------------------------------------------------------------
# explicit strategy


def _pair_ordinate(l1: Line, l2: Line) -> Optional[Fraction]:
    if l1.vertical and l2.vertical:
        return None
    if l1.vertical or l2.vertical:
        vert, aff = (l1, l2) if l1.vertical else (l2, l1)
        return aff.slope * vert.intercept + aff.intercept
    if l1.slope == l2.slope:
        return None
    return (l1.slope * l2.intercept - l2.slope * l1.intercept) / (l1.slope - l2.slope)


def _pair_abscissa(l1: Line, l2: Line) -> Fraction:
    if l1.vertical:
        return l1.intercept
    if l2.vertical:
        return l2.intercept
    return (l2.intercept - l1.intercept) / (l1.slope - l2.slope)


def _reduce(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """num/den in lowest terms with den > 0, computed in place."""
    neg = den < 0
    np.negative(num, out=num, where=neg)
    np.negative(den, out=den, where=neg)
    gg = np.gcd(num, den)
    num //= gg
    den //= gg
    return num, den


def _equal_to(num: np.ndarray, den: np.ndarray, y: Fraction) -> np.ndarray:
    """Mask of num/den == y (den != 0), exact and free of int64 wrap,
    which the cross products num*q and den*p are not: with y = p/q in
    lowest terms, num/den = p/q exactly when den = g*q and num = g*p for
    one integer g."""
    p, q = y.numerator, y.denominator
    if p == 0:
        return num == 0
    return (den % q == 0) & (num % p == 0) & (num // p == den // q)


def _repair_runs(order: np.ndarray, f: np.ndarray, key: Callable[[int], object]) -> np.ndarray:
    """Exact fixup of a float sort.  order is sorted by the float values f
    (f[t] belongs to order[t]); each run of neighbours whose float gaps are
    too small to trust is re-sorted in place by the exact key."""
    gap = f[1:] - f[:-1]
    thr = 1e-12 * np.maximum(np.abs(f[:-1]), np.abs(f[1:])) + 1e-15
    susp = np.nonzero(gap <= thr)[0]
    if len(susp):
        cut = np.nonzero(np.diff(susp) > 1)[0]
        starts = np.concatenate(([susp[0]], susp[cut + 1]))
        ends = np.concatenate((susp[cut], [susp[-1]])) + 1
        for a, b in zip(starts.tolist(), ends.tolist()):
            order[a : b + 1] = sorted(order[a : b + 1].tolist(), key=key)
    return order


def _int_pair_ordinates(
    ls: LineSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ordinates num/den (den != 0, not reduced) of every crossing of an
    int_ok line set: first the affine pairs i < j with distinct slopes,
    listed by the returned i and j, then every (affine, vertical) pair,
    row-major."""
    i = j = np.empty(0, dtype=np.int64)
    nums = [i]
    dens = [i]
    if ls.n_aff >= 2:
        r = np.arange(ls.n_aff)
        i, j = np.nonzero((ls.M[:, None] != ls.M[None, :]) & (r[:, None] < r[None, :]))
        nums.append(ls.M[i] * ls.B[j] - ls.M[j] * ls.B[i])
        dens.append(np.int64(ls.SW * ls.SL) * (ls.M[i] - ls.M[j]))
    if ls.n_aff and ls.n_vert:
        num = (ls.M[:, None] * ls.A[None, :] + 2 * ls.B[:, None]).ravel()
        nums.append(num)
        dens.append(np.full(num.shape, 2 * ls.SW * ls.SL, dtype=np.int64))
    return np.concatenate(nums), np.concatenate(dens), i, j


def _explicit_ordinates(ls: LineSet) -> tuple[np.ndarray, np.ndarray]:
    """Distinct y-coordinates of all pairwise intersections, ascending, as
    parallel sequences of reduced numerators and positive denominators."""
    if ls.int_ok:
        num, den = _reduce(*_int_pair_ordinates(ls)[:2])
        f = num / den
        # equal pairs sit side by side under (float, num, den): drop them
        # first, so the exact repair only sees distinct near-equal values
        order = np.lexsort((den, num, f))
        num, den, f = num[order], den[order], f[order]
        new = np.ones(len(num), dtype=bool)
        new[1:] = (num[1:] != num[:-1]) | (den[1:] != den[:-1])
        num, den, f = num[new], den[new], f[new]
        order = _repair_runs(
            np.arange(len(num)), f, key=lambda t: Fraction(int(num[t]), int(den[t]))
        )
        return num[order], den[order]
    lines = ls.lines
    seen = set()
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            y = _pair_ordinate(lines[a], lines[b])
            if y is not None:
                seen.add(y)
    ys = sorted(seen)
    return (
        np.array([y.numerator for y in ys], dtype=object),
        np.array([y.denominator for y in ys], dtype=object),
    )


def _min_x_at(ls: LineSet, ys: list[Fraction]) -> list[Fraction]:
    """Smallest abscissa among intersections whose ordinate equals y, for
    each y of ys, from one pass over the pairs."""
    best: dict[Fraction, Fraction] = {}
    if ls.int_ok:
        num, den, i, j = _int_pair_ordinates(ls)
        for y in ys:
            hit = np.nonzero(_equal_to(num, den, y))[0]
            aff = hit[hit < len(i)]
            xs = [
                Fraction(int(ls.B[b] - ls.B[a]), int(ls.SL * (ls.M[a] - ls.M[b])))
                for a, b in zip(i[aff], j[aff])
            ]
            vert = hit[hit >= len(i)] - len(i)
            if len(vert):
                # a crossing with a vertical line lies on it, at x = A / (2*SL)
                xs.append(Fraction(int(ls.A[vert % ls.n_vert].min()), 2 * ls.SL))
            if xs:
                best[y] = min(xs)
    else:
        lines = ls.lines
        wanted = set(ys)
        for a in range(len(lines)):
            for b in range(a + 1, len(lines)):
                y = _pair_ordinate(lines[a], lines[b])
                if y in wanted:
                    x = _pair_abscissa(lines[a], lines[b])
                    if y not in best or x < best[y]:
                        best[y] = x
    for y in ys:
        if y not in best:
            raise InternalError(f"no intersection at ordinate {y}")
    return [best[y] for y in ys]


def _search_explicit(
    ls: LineSet, oracle: Callable[[Fraction], bool]
) -> ArrangementAnswer:
    num, den = _explicit_ordinates(ls)
    if not len(num):
        raise ValueError("candidate lines have no intersection ordinates")
    memo: dict[int, bool] = {}

    def ordinate(t: int) -> Fraction:
        return Fraction(int(num[t]), int(den[t]))

    def probe(t: int) -> bool:
        if t not in memo:
            memo[t] = bool(oracle(ordinate(t)))
        return memo[t]

    if not probe(len(num) - 1):
        raise ValueError("no intersection ordinate is feasible")
    lo, hi = 0, len(num) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid + 1
    ys = [ordinate(t) for t in (lo, lo - 1) if t >= 0]
    xs = _min_x_at(ls, ys)
    v1 = (xs[0], ys[0])
    return ArrangementAnswer(v1, (xs[1], ys[1]) if lo else None)


# ---------------------------------------------------------------------------
# counting strategy


class _CountingSearch:
    """Narrows a window (y_lo, y_hi] around the lowest feasible ordinate by
    counting intersections below probe heights with inversion counts."""

    def __init__(self, ls: LineSet, oracle: Callable[[Fraction], bool]):
        self.ls = ls
        self.oracle_raw = oracle
        self.oracle_memo: dict[Fraction, bool] = {}
        n = len(ls)
        self.N = n
        # per-line dx/dy: affine 1/m = SW/M, verticals 0
        inv_slopes: list[Fraction] = [
            Fraction(ls.SW, int(m)) for m in ls.M
        ] + [ZERO] * ls.n_vert
        distinct = sorted(set(inv_slopes))
        rank_of = {s: r for r, s in enumerate(distinct)}
        self.rank_asc = np.array([rank_of[s] for s in inv_slopes], dtype=np.int64)
        rank_desc = np.int64(len(distinct) - 1) - self.rank_asc
        # order at y = -inf: 1/m descending; parallel lines by their fixed
        # left-to-right order (consistent at every height); verticals by x
        sec = np.concatenate(
            [np.where(ls.M > 0, -ls.B, ls.B), ls.A]
        ).astype(np.int64)
        self.sec = sec
        idx = np.arange(n, dtype=np.int64)
        sigma_inf = np.lexsort((idx, sec, rank_desc))
        self.rank_inf = np.empty(n, dtype=np.int64)
        self.rank_inf[sigma_inf] = idx
        self.count_memo: dict[tuple[Fraction, bool], int] = {}
        self.pivot_pair: dict[Fraction, tuple[int, int]] = {}
        self.rng = np.random.default_rng(_SEED)

    def probe(self, y: Fraction) -> bool:
        if y not in self.oracle_memo:
            self.oracle_memo[y] = bool(self.oracle_raw(y))
        return self.oracle_memo[y]

    # -- exact left-to-right order of all lines at height y (ties = crossed)

    def _positions(self, y: Fraction) -> tuple[np.ndarray, np.ndarray]:
        ls = self.ls
        p, q = y.numerator, y.denominator
        lim = _INT_LIMIT
        if (
            abs(p) * ls.SW * ls.SL + q * ls.maxB >= lim
            or q * ls.SL * max(ls.maxM, 1) >= lim
        ):
            raise OverflowError
        num_aff = np.int64(p * ls.SW * ls.SL) - np.int64(q) * ls.B
        den_aff = np.int64(q * ls.SL) * ls.M
        neg = den_aff < 0
        num_aff = np.where(neg, -num_aff, num_aff)
        den_aff = np.where(neg, -den_aff, den_aff)
        num = np.concatenate([num_aff, ls.A])
        den = np.concatenate(
            [den_aff, np.full(ls.n_vert, 2 * ls.SL, dtype=np.int64)]
        )
        return num, den

    def order_at(self, y: Fraction, strict: bool = False) -> np.ndarray:
        """Left-to-right line order at height y.  Lines meeting exactly at y
        are ordered as just above the meeting point (their crossing counts as
        passed) unless strict, which orders them as just below it."""
        try:
            num, den = self._positions(y)
        except OverflowError:
            return self._order_exact(y, strict)
        tie = -self.rank_asc if strict else self.rank_asc
        f = num.astype(np.float64) / den.astype(np.float64)
        idx = np.arange(self.N, dtype=np.int64)
        order = np.lexsort((idx, tie, f))
        return _repair_runs(
            order,
            f[order],
            key=lambda i: (Fraction(int(num[i]), int(den[i])), int(tie[i]), i),
        )

    def _order_exact(self, y: Fraction, strict: bool = False) -> np.ndarray:
        ls = self.ls
        sign = -1 if strict else 1
        pos: list[Fraction] = []
        for i in range(ls.n_aff):
            m = Fraction(int(ls.M[i]), ls.SW)
            b = Fraction(int(ls.B[i]), ls.SW * ls.SL)
            pos.append((y - b) / m)
        for j in range(ls.n_vert):
            pos.append(Fraction(int(ls.A[j]), 2 * ls.SL))
        order = sorted(
            range(self.N),
            key=lambda i: (pos[i], sign * int(self.rank_asc[i]), i),
        )
        return np.array(order, dtype=np.int64)

    def count(self, y: Fraction, strict: bool = False) -> int:
        """Crossings with ordinate <= y, or < y when strict."""
        key = (y, strict)
        if key not in self.count_memo:
            seq = self.rank_inf[self.order_at(y, strict)]
            self.count_memo[key] = count_inversions(seq)
        return self.count_memo[key]

    # -- ordinates of specific line pairs, as int64 fractions

    def _pair_ordinates(
        self, I: np.ndarray, J: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ls = self.ls
        na = ls.n_aff
        n = len(I)
        num = np.zeros(n, dtype=np.int64)
        den = np.ones(n, dtype=np.int64)
        valid = np.zeros(n, dtype=bool)
        ai = I < na
        aj = J < na
        both = ai & aj
        if both.any():
            i = I[both]
            j = J[both]
            dmm = ls.M[i] - ls.M[j]
            ok = dmm != 0
            nb = ls.M[i] * ls.B[j] - ls.M[j] * ls.B[i]
            num[both] = np.where(ok, nb, 0)
            den[both] = np.where(ok, np.int64(ls.SW * ls.SL) * dmm, 1)
            valid[both] = ok
        mixed = ai ^ aj
        if mixed.any():
            i = np.where(ai[mixed], I[mixed], J[mixed])
            j = np.where(ai[mixed], J[mixed], I[mixed]) - na
            num[mixed] = ls.M[i] * ls.A[j] + 2 * ls.B[i]
            den[mixed] = 2 * ls.SW * ls.SL
            valid[mixed] = True
        return num, den, valid

    def _sample_pivot(
        self, y_lo: Optional[Fraction], y_hi: Fraction
    ) -> Optional[tuple[Fraction, tuple[int, int]]]:
        """Roughly the median of sampled pairwise ordinates strictly inside
        (y_lo, y_hi).  Floats prefilter; the returned pivot is verified
        exactly so a probe at it always shrinks the window."""
        fl_lo = float(y_lo) if y_lo is not None else -math.inf
        fl_hi = float(y_hi)
        for _ in range(4):
            I = self.rng.integers(0, self.N, size=_SAMPLE_BATCH)
            J = self.rng.integers(0, self.N, size=_SAMPLE_BATCH)
            keep = I != J
            I, J = I[keep].astype(np.int64), J[keep].astype(np.int64)
            num, den, valid = self._pair_ordinates(I, J)
            f = num.astype(np.float64) / den.astype(np.float64)
            mask = valid & (f >= np.nextafter(fl_lo, -math.inf)) & (
                f <= np.nextafter(fl_hi, math.inf)
            )
            if not mask.any():
                continue
            num, den = num[mask], den[mask]
            I, J = I[mask], J[mask]
            order = np.argsort(
                num.astype(np.float64) / den.astype(np.float64), kind="stable"
            )
            mid = len(order) // 2
            # walk outward from the median until a candidate verifies exactly
            for step in range(len(order)):
                for pos in {mid - step, mid + step}:
                    if not 0 <= pos < len(order):
                        continue
                    t = int(order[pos])
                    y = Fraction(int(num[t]), int(den[t]))
                    if (y_lo is None or y > y_lo) and y < y_hi:
                        return y, (int(I[t]), int(J[t]))
                if step > 64:
                    break
        return None

    def _window_ordinates(
        self, y_lo: Optional[Fraction], y_hi: Fraction, open_top: bool = False
    ) -> dict[Fraction, tuple[int, int]]:
        """All distinct ordinates in (y_lo, y_hi] (or (y_lo, y_hi) when
        open_top), each with one crossing pair.  y_lo None means a window
        floor below every intersection."""
        order_hi = self.order_at(y_hi, strict=open_top)
        if y_lo is None:
            seq = self.rank_inf[order_hi]
            ids = order_hi
        else:
            order_lo = self.order_at(y_lo)
            rank_lo = np.empty(self.N, dtype=np.int64)
            rank_lo[order_lo] = np.arange(self.N, dtype=np.int64)
            seq = rank_lo[order_hi]
            ids = order_hi
        I, J = inversion_pairs(seq, ids)
        if not len(I):
            return {}
        num, den, valid = self._pair_ordinates(I, J)
        if not valid.all():
            raise InternalError("swapped pair without a crossing")
        num, den = _reduce(num, den)
        out: dict[Fraction, tuple[int, int]] = {}
        for t in range(len(num)):
            y = Fraction(int(num[t]), int(den[t]))
            if y not in out:
                out[y] = (int(I[t]), int(J[t]))
        return out

    def run(self) -> ArrangementAnswer:
        ls = self.ls
        if not len(ls) or (ls.n_aff == 0):
            raise ValueError("candidate lines have no intersection ordinates")
        # loose upper bound on every ordinate magnitude
        yb = Fraction(
            max(
                2 * ls.maxM * ls.maxB,
                ls.maxM * ls.maxA + 2 * ls.maxB,
            ),
            ls.SW * ls.SL,
        ) + 1
        if not self.probe(yb):
            raise ValueError("no intersection ordinate is feasible")
        y_lo: Optional[Fraction] = None
        y_hi: Fraction = yb
        for _ in range(300):
            c_hi = self.count(y_hi)
            c_lo = self.count(y_lo) if y_lo is not None else 0
            if c_hi - c_lo <= _ENUM_THRESHOLD:
                return self._finish(y_lo, y_hi)
            picked = self._sample_pivot(y_lo, y_hi)
            if picked is None:
                picked = self._interior_pivot(y_lo, y_hi, c_lo)
                if picked is None:
                    # every in-window crossing sits exactly at y_hi
                    return self._finish_at(y_lo, y_hi)
            y_p, pair = picked
            self.pivot_pair[y_p] = pair
            if self.probe(y_p):
                y_hi = y_p
            else:
                y_lo = y_p
        raise InternalError("ordinate window failed to converge")

    def _interior_pivot(
        self, y_lo: Optional[Fraction], y_hi: Fraction, c_lo: int
    ) -> Optional[tuple[Fraction, tuple[int, int]]]:
        """Exact fallback when sampling finds nothing strictly inside the
        window.  Returns an ordinate strictly between y_lo and y_hi with a
        crossing pair, or None when every in-window crossing is at y_hi.
        Uses only counting, never the oracle."""
        top = y_hi
        for _ in range(500):
            w_strict = self.count(y_hi, strict=True) - c_lo
            if w_strict == 0:
                if y_hi == top:
                    return None
                # all inner mass sits exactly at the bisected ceiling, which
                # therefore is an ordinate strictly inside the real window
                return y_hi, self._pair_at(y_hi)
            if w_strict <= 4 * _ENUM_THRESHOLD:
                ords = self._window_ordinates(y_lo, y_hi, open_top=True)
                if not ords:
                    raise InternalError("interior crossings exist but none found")
                ys = sorted(ords)
                y_p = ys[len(ys) // 2]
                return y_p, ords[y_p]
            floor = y_lo if y_lo is not None else min(ZERO, y_hi - 1)
            mid = (floor + y_hi) / 2
            if self.count(mid) == c_lo:
                y_lo = mid
            else:
                y_hi = mid
        raise InternalError("interior pivot search failed to converge")

    def _pair_at(self, y: Fraction) -> tuple[int, int]:
        """One crossing pair whose ordinate is exactly y, smallest abscissa
        first when the at-y crossings are few enough to enumerate."""
        at_count = self.count(y) - self.count(y, strict=True)
        if at_count == 0:
            raise InternalError(f"no crossing at ordinate {y}")
        if at_count > 4 * _ENUM_THRESHOLD:
            return self._sample_at(y)
        order_strict = self.order_at(y, strict=True)
        rank_s = np.empty(self.N, dtype=np.int64)
        rank_s[order_strict] = np.arange(self.N, dtype=np.int64)
        order_cross = self.order_at(y)
        I, J = inversion_pairs(rank_s[order_cross], order_cross)
        if not len(I):
            raise InternalError(f"no crossing found at ordinate {y}")
        best = None
        for a, b in zip(I, J):
            pair = (int(a), int(b))
            x = self._pair_x(pair)
            if best is None or x < best[0]:
                best = (x, pair)
        return best[1]

    def _finish_at(
        self, y_lo: Optional[Fraction], y_hi: Fraction
    ) -> ArrangementAnswer:
        """The lowest feasible ordinate is exactly y_hi; recover one crossing
        pair at it for the representative point."""
        pair = self.pivot_pair.get(y_hi)
        if pair is None:
            pair = self._pair_at(y_hi)
        v1 = (self._pair_x(pair), y_hi)
        if y_lo is None:
            return ArrangementAnswer(v1, None)
        low_pair = self.pivot_pair.get(y_lo)
        if low_pair is None:
            raise InternalError("window floor is not a known ordinate")
        return ArrangementAnswer(v1, (self._pair_x(low_pair), y_lo))

    def _sample_at(self, y: Fraction) -> tuple[int, int]:
        for _ in range(64):
            I = self.rng.integers(0, self.N, size=_SAMPLE_BATCH)
            J = self.rng.integers(0, self.N, size=_SAMPLE_BATCH)
            keep = I != J
            I, J = I[keep].astype(np.int64), J[keep].astype(np.int64)
            num, den, valid = self._pair_ordinates(I, J)
            hit = valid & _equal_to(num, den, y)
            if hit.any():
                t = int(np.nonzero(hit)[0][0])
                return int(I[t]), int(J[t])
        raise InternalError("failed to sample a crossing at the answer ordinate")

    def _finish(self, y_lo: Optional[Fraction], y_hi: Fraction) -> ArrangementAnswer:
        ords = self._window_ordinates(y_lo, y_hi)
        for y, pair in self.pivot_pair.items():
            if (y_lo is None or y > y_lo) and y <= y_hi:
                ords.setdefault(y, pair)
        ys = sorted(ords)
        if not ys:
            raise InternalError("empty ordinate window at finish")
        lo, hi = 0, len(ys) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.probe(ys[mid]):
                hi = mid
            else:
                lo = mid + 1
        if not self.probe(ys[lo]):
            raise InternalError("window lost the lowest feasible ordinate")
        y1 = ys[lo]
        v1 = (self._pair_x(ords[y1]), y1)
        if lo > 0:
            y2 = ys[lo - 1]
            return ArrangementAnswer(v1, (self._pair_x(ords[y2]), y2))
        if y_lo is not None:
            pair = self.pivot_pair.get(y_lo)
            if pair is None:
                raise InternalError("window floor is not a known ordinate")
            return ArrangementAnswer(v1, (self._pair_x(pair), y_lo))
        return ArrangementAnswer(v1, None)

    def _pair_x(self, pair: tuple[int, int]) -> Fraction:
        return _pair_abscissa(self.ls.line(pair[0]), self.ls.line(pair[1]))


def lowest_feasible_vertex(
    ls: LineSet,
    oracle: Callable[[Fraction], bool],
    strategy: str = "explicit",
) -> ArrangementAnswer:
    """Lowest intersection of the line set whose ordinate the monotone
    oracle accepts, plus the highest intersection strictly below it."""
    if strategy == "auto":
        strategy = "counting" if len(ls) > 3000 else "explicit"
    if strategy == "explicit" or not ls.int_ok:
        return _search_explicit(ls, oracle)
    if strategy == "counting":
        return _CountingSearch(ls, oracle).run()
    raise ValueError(f"unknown search strategy {strategy!r}")


def solve_weighted_graph(g: Graph, k: int, search: str = "explicit") -> Solution:
    """Optimal radius, center point and k-vertex witness block for a
    weighted graph."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    if k == 1 or g.n == 1:
        return Solution(ZERO, vertex_point(g, 1), frozenset({1}))
    dm = all_pairs_distances(g)
    tester = FeasibilityTester(g, dm)
    memo: dict[Fraction, FeasibilityResult] = {}

    def oracle(lam: Fraction) -> bool:
        if lam not in memo:
            memo[lam] = tester.feasible(k, lam)
        return memo[lam].feasible

    ls = candidate_lines(g, dm)
    ans = lowest_feasible_vertex(ls, oracle, strategy=search)
    lam = ans.v1[1]
    # every search probes the ordinate it returns
    res = memo.get(lam)
    if res is None or not res.feasible or res.witness is None:
        raise InternalError(f"search returned unprobed or infeasible radius {lam}")
    x, covered = res.witness
    subtree = trim_witness(g, dm, x, covered, k)
    return Solution(lam, x, subtree)
