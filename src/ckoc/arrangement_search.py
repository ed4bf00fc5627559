"""Candidate-line arrangement and optimal-radius search for weighted graphs.

The optimal radius is always the y-coordinate of an intersection of two
candidate lines drawn in a shared (t, y) plane: per edge, the rising and
falling pieces of each vertex distance function, plus vertical lines at
the edge endpoints and at semicircular points.  Feasibility of a radius
is monotone, so the answer is the lowest intersection ordinate at which
the supplied oracle says yes; the center comes from the oracle's own
witness, so the search returns that ordinate alone.

Two interchangeable strategies:

* explicit: enumerate every pairwise ordinate, sort, binary search.
  Simple and exact; quadratic in the number of lines.
* counting: never materializes the full ordinate set.  The number of
  intersections below a height y equals the number of inversions between
  the left-to-right order of the lines at y = -inf and at y, so a window
  (y_lo, y_hi] around the answer is narrowed by probing sampled in-window
  ordinates until few enough intersections remain to enumerate directly.

The lines are integer coefficient arrays (LineSet): int64 when every
pairwise product fits, Python ints in object arrays otherwise, through the
same code.  Both strategies end the same way: the ordinates (all of them,
or the window's) stay reduced integer pairs (num, den), sorted by float
value (saturated to +-inf past the float range) with duplicates dropped
and every run of neighbours too close to trust as floats re-sorted
exactly, and one binary search over them builds a Fraction only for the
O(log N) ordinates it probes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .graph_core import (
    ZERO,
    DistanceMatrix,
    Graph,
    InternalError,
    Solution,
    all_pairs_distances,
    edge_profile,  # noqa: F401  only perfbench/spans.py binds it here
    vertex_point,
)
from .general_feasibility import FeasibilityResult, FeasibilityTester, trim_witness

_INT_LIMIT = 1 << 62
_SEED = 0xC0C5EED
_ENUM_THRESHOLD = 50_000
_SAMPLE_BATCH = 1 << 17
_PIVOT_CHUNK = 1 << 14


class LineSet:
    """Candidate lines as integer coefficient arrays.

    Affine line i is y = M[i]/SW * x + B[i]/(SW*SL), so M holds slope*SW
    and B intercept*SW*SL; vertical line j is x = A[j]/(2*SL), since
    semicircular points may sit at half-integer grid offsets.  int_ok
    reports whether every pairwise product the searches form fits in
    int64.  The arrays are int64 exactly when it does and numpy object
    arrays of Python ints otherwise, so int_ok picks a dtype, and every
    computation on the set is the same at any scale.
    """

    def __init__(self, m: list[int], b: list[int], a: list[int], sw: int = 1, sl: int = 1):
        self.SW = sw
        self.SL = sl
        self.n_aff = len(m)
        self.n_vert = len(a)
        maxM = max(map(abs, m), default=0)
        maxB = max(map(abs, b), default=0)
        maxA = max(map(abs, a), default=0)
        self.maxM, self.maxB, self.maxA = maxM, maxB, maxA
        big = max(
            2 * maxM * maxB + 1,
            maxM * maxA + 2 * maxB,
            2 * sw * sl * max(2 * maxM, 2 * sl),
        )
        self.int_ok = max(maxM, maxB, maxA, big) < _INT_LIMIT
        dtype = np.int64 if self.int_ok else object
        self.M = np.array(m, dtype=dtype)
        self.B = np.array(b, dtype=dtype)
        self.A = np.array(a, dtype=dtype)

    def __len__(self) -> int:
        return self.n_aff + self.n_vert


def candidate_lines(g: Graph, dm: DistanceMatrix) -> LineSet:
    """Collect the candidate lines of every edge, deduplicated globally.

    Everything comes from the distance rows.  Measured from the smaller
    endpoint r, vertex v's distance rises over the whole edge when
    d_s = d_r + l, falls over it when d_r = d_s + l, and otherwise has
    both pieces and peaks at 2t = d_s - d_r + l.  A semicircular point
    that is not a peak sits at an endpoint, whose vertical every edge
    contributes anyway, so the verticals are the endpoints and the peaks.
    Coinciding lines from different (edge, vertex) pairs produce the same
    intersections, so each is kept once, keyed on its integer
    coefficients.  Insertion order is edges ascending, then vertices
    ascending, which keeps the arrays deterministic.
    """
    aff: dict[tuple[int, int], None] = {}
    vert: dict[int, None] = {}
    rows, wi = dm.rows, g.weights_int
    for r, s, l in zip(g.eu, g.ev, g.lengths_int):
        d_r, d_s = rows[r], rows[s]
        vert[0] = vert[2 * l] = None
        for v in g.vertices():
            w, dr, ds = wi[v], d_r[v], d_s[v]
            rises = dr != ds + l
            falls = ds != dr + l
            if rises:
                aff[(w, w * dr)] = None
            if falls:
                aff[(-w, w * (ds + l))] = None
            if rises and falls:
                vert[ds - dr + l] = None
    return LineSet(
        [m for m, _ in aff], [b for _, b in aff], list(vert), g.weight_scale, g.length_scale
    )


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


def _reduce(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """num/den in lowest terms with den > 0, computed in place."""
    neg = den < 0
    np.negative(num, out=num, where=neg)
    np.negative(den, out=den, where=neg)
    gg = np.gcd(num, den)
    num //= gg
    den //= gg
    return num, den


def _repair_runs(order: np.ndarray, f: np.ndarray, key: Callable[[int], object]) -> np.ndarray:
    """Exact fixup of a float sort.  order is sorted by the float values f
    (f[t] belongs to order[t]); each run of neighbours whose float gaps are
    too small to trust is re-sorted in place by the exact key."""
    with np.errstate(invalid="ignore"):
        gap = f[1:] - f[:-1]
    thr = 1e-12 * np.maximum(np.abs(f[:-1]), np.abs(f[1:])) + 1e-15
    # the NaN gap between two equal saturated infinities is suspect too
    susp = np.nonzero(~(gap > thr))[0]
    if len(susp):
        cut = np.nonzero(np.diff(susp) > 1)[0]
        starts = np.concatenate(([susp[0]], susp[cut + 1]))
        ends = np.concatenate((susp[cut], [susp[-1]])) + 1
        for a, b in zip(starts.tolist(), ends.tolist()):
            order[a : b + 1] = sorted(order[a : b + 1].tolist(), key=key)
    return order


def _div(num: int, den: int) -> float:
    """num/den correctly rounded, saturating to +-inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den as float64.  Python-int entries divide correctly rounded,
    and quotients past the float range saturate to +-inf, which
    _repair_runs then orders exactly."""
    try:
        return np.asarray(num / den, dtype=np.float64)
    except OverflowError:
        return np.fromiter(map(_div, num.tolist(), den.tolist()), np.float64, len(num))


def _sorted_ordinates(
    num: np.ndarray, den: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values num/den (den != 0, reduced in place), ascending,
    as reduced numerators and positive denominators, and the rank of each
    input value among them."""
    num, den = _reduce(num, den)
    f = _ratio(num, den)
    # equal values have equal floats, so after a float sort equal pairs
    # share a run of equal floats; a run holding two distinct values is
    # sorted by (num, den) to put equal pairs side by side.  Duplicates
    # go first, so the exact repair only sees distinct near-equal values
    perm = np.argsort(f)
    num, den, f = num[perm], den[perm], f[perm]
    same = (num[1:] == num[:-1]) & (den[1:] == den[:-1])
    mixed = np.nonzero((f[1:] == f[:-1]) & ~same)[0]
    if len(mixed):
        run = np.concatenate(([0], np.cumsum(f[1:] != f[:-1])))
        for r in np.unique(run[mixed]).tolist():
            a, b = np.searchsorted(run, [r, r + 1]).tolist()
            idx = sorted(range(a, b), key=lambda t: (int(num[t]), int(den[t])))
            num[a:b], den[a:b], perm[a:b] = num[idx], den[idx], perm[idx]
        same = (num[1:] == num[:-1]) & (den[1:] == den[:-1])
    new = np.ones(len(num), dtype=bool)
    new[1:] = ~same
    num, den, f = num[new], den[new], f[new]
    order = _repair_runs(
        np.arange(len(num)), f, key=lambda t: Fraction(int(num[t]), int(den[t]))
    )
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    ranks = np.empty(len(perm), dtype=np.int64)
    ranks[perm] = rank[np.cumsum(new) - 1]
    return num[order], den[order], ranks


def _lowest_accepted(
    num: np.ndarray, den: np.ndarray, probe: Callable[[Fraction], bool]
) -> Optional[Fraction]:
    """Lowest of the ascending ordinates num/den that the monotone probe
    accepts, or None when it rejects the highest.  Only probed ordinates
    become Fractions, and the one returned has been probed."""

    def at(t: int) -> Fraction:
        return Fraction(int(num[t]), int(den[t]))

    lo, hi = 0, len(num) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(at(mid)):
            hi = mid
        else:
            lo = mid + 1
    y = at(lo)
    return y if probe(y) else None


def _int_pair_ordinates(ls: LineSet) -> tuple[np.ndarray, np.ndarray]:
    """Ordinates num/den (den != 0, not reduced) of every crossing: the
    affine pairs with distinct slopes, then every (affine, vertical) pair.
    Its own function, so the parts and pair indices are freed before the
    sort."""
    nums = [np.empty(0, dtype=ls.M.dtype)]
    dens = [np.empty(0, dtype=ls.M.dtype)]
    if ls.n_aff >= 2:
        r = np.arange(ls.n_aff)
        i, j = np.nonzero((ls.M[:, None] != ls.M[None, :]) & (r[:, None] < r[None, :]))
        nums.append(ls.M[i] * ls.B[j] - ls.M[j] * ls.B[i])
        dens.append(ls.SW * ls.SL * (ls.M[i] - ls.M[j]))
    if ls.n_aff and ls.n_vert:
        num = (ls.M[:, None] * ls.A[None, :] + 2 * ls.B[:, None]).ravel()
        nums.append(num)
        dens.append(np.full(num.shape, 2 * ls.SW * ls.SL, dtype=ls.M.dtype))
    return np.concatenate(nums), np.concatenate(dens)


def _explicit_ordinates(ls: LineSet) -> tuple[np.ndarray, np.ndarray]:
    """Distinct y-coordinates of all pairwise intersections, ascending, as
    reduced numerators and positive denominators."""
    return _sorted_ordinates(*_int_pair_ordinates(ls))[:2]


def _search_explicit(ls: LineSet, oracle: Callable[[Fraction], bool]) -> Fraction:
    num, den = _explicit_ordinates(ls)
    if not len(num):
        raise ValueError("candidate lines have no intersection ordinates")
    memo: dict[Fraction, bool] = {}

    def probe(y: Fraction) -> bool:
        if y not in memo:
            memo[y] = bool(oracle(y))
        return memo[y]

    if not probe(Fraction(int(num[-1]), int(den[-1]))):
        raise ValueError("no intersection ordinate is feasible")
    return _lowest_accepted(num, den, probe)


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
        # rank of each line's dx/dy (affine SW/M, verticals 0) among the
        # distinct values: negative slopes, verticals, then positive
        # slopes, each group ascending in -M
        group = np.concatenate([np.where(ls.M > 0, 2, 0), np.ones(ls.n_vert, dtype=np.int64)])
        neg_m = np.concatenate([-ls.M, np.zeros(ls.n_vert, dtype=ls.M.dtype)])
        by_slope = np.lexsort((neg_m, group))
        g_s, m_s = group[by_slope], neg_m[by_slope]
        new = np.ones(n, dtype=bool)
        new[1:] = (g_s[1:] != g_s[:-1]) | (m_s[1:] != m_s[:-1])
        self.rank_asc = np.empty(n, dtype=np.int64)
        self.rank_asc[by_slope] = np.cumsum(new) - 1
        rank_desc = np.int64(new.sum() - 1) - self.rank_asc
        # order at y = -inf: 1/m descending; parallel lines by their fixed
        # left-to-right order (consistent at every height); verticals by x
        sec = np.concatenate([np.where(ls.M > 0, -ls.B, ls.B), ls.A])
        idx = np.arange(n, dtype=np.int64)
        sigma_inf = np.lexsort((idx, sec, rank_desc))
        self.rank_inf = np.empty(n, dtype=np.int64)
        self.rank_inf[sigma_inf] = idx
        self.count_memo: dict[tuple[Fraction, bool], int] = {}
        self.rng = np.random.default_rng(_SEED)

    def probe(self, y: Fraction) -> bool:
        if y not in self.oracle_memo:
            self.oracle_memo[y] = bool(self.oracle_raw(y))
        return self.oracle_memo[y]

    # -- exact left-to-right order of all lines at height y (ties = crossed)

    def _positions(self, y: Fraction) -> tuple[np.ndarray, np.ndarray]:
        """Every line's x at height y as num/den, den > 0: int64 when
        every product fits, Python ints otherwise."""
        ls = self.ls
        p, q = y.numerator, y.denominator
        M, B, A = ls.M, ls.B, ls.A
        if (
            abs(p) * ls.SW * ls.SL + q * ls.maxB >= _INT_LIMIT
            or q * ls.SL * max(ls.maxM, 1) >= _INT_LIMIT
        ):
            M, B, A = M.astype(object), B.astype(object), A.astype(object)
        num_aff = p * ls.SW * ls.SL - q * B
        den_aff = q * ls.SL * M
        neg = den_aff < 0
        vert_den = np.full(ls.n_vert, 2 * ls.SL, dtype=A.dtype)
        num = np.concatenate([np.where(neg, -num_aff, num_aff), A])
        den = np.concatenate([np.where(neg, -den_aff, den_aff), vert_den])
        return num, den

    def order_at(self, y: Fraction, strict: bool = False) -> np.ndarray:
        """Left-to-right line order at height y.  Lines meeting exactly at y
        are ordered as just above the meeting point (their crossing counts as
        passed) unless strict, which orders them as just below it."""
        num, den = self._positions(y)
        tie = -self.rank_asc if strict else self.rank_asc
        f = _ratio(num, den)
        idx = np.arange(self.N, dtype=np.int64)
        order = np.lexsort((idx, tie, f))
        return _repair_runs(
            order,
            f[order],
            key=lambda i: (Fraction(int(num[i]), int(den[i])), int(tie[i]), i),
        )

    def count(self, y: Fraction, strict: bool = False) -> int:
        """Crossings with ordinate <= y, or < y when strict."""
        key = (y, strict)
        if key not in self.count_memo:
            seq = self.rank_inf[self.order_at(y, strict)]
            self.count_memo[key] = count_inversions(seq)
        return self.count_memo[key]

    # -- ordinates of specific line pairs, as integer fractions

    def _pair_ordinates(
        self, I: np.ndarray, J: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ls = self.ls
        na = ls.n_aff
        n = len(I)
        num = np.zeros(n, dtype=ls.M.dtype)
        den = np.ones(n, dtype=ls.M.dtype)
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
            den[both] = np.where(ok, ls.SW * ls.SL * dmm, 1)
            valid[both] = ok
        mixed = ai ^ aj
        if mixed.any():
            i = np.where(ai[mixed], I[mixed], J[mixed])
            j = np.where(ai[mixed], J[mixed], I[mixed]) - na
            num[mixed] = ls.M[i] * ls.A[j] + 2 * ls.B[i]
            den[mixed] = 2 * ls.SW * ls.SL
            valid[mixed] = True
        return num, den, valid

    def _sample_pivot(self, y_lo: Optional[Fraction], y_hi: Fraction) -> Optional[Fraction]:
        """Roughly the median of sampled pairwise ordinates strictly inside
        (y_lo, y_hi).  Floats prefilter; the returned pivot is verified
        exactly so a probe at it always shrinks the window."""
        fl_lo = _div(y_lo.numerator, y_lo.denominator) if y_lo is not None else -math.inf
        fl_hi = _div(y_hi.numerator, y_hi.denominator)
        for _ in range(4):
            I = self.rng.integers(0, self.N, size=_SAMPLE_BATCH)
            J = self.rng.integers(0, self.N, size=_SAMPLE_BATCH)
            keep = I != J
            I, J = I[keep], J[keep]
            # in-window ordinates a chunk of pairs at a time, so the
            # temporaries stay small and reuse the same pages
            parts = []
            for a in range(0, len(I), _PIVOT_CHUNK):
                num, den, valid = self._pair_ordinates(
                    I[a : a + _PIVOT_CHUNK], J[a : a + _PIVOT_CHUNK]
                )
                f = _ratio(num, den)
                mask = valid & (f >= np.nextafter(fl_lo, -math.inf)) & (
                    f <= np.nextafter(fl_hi, math.inf)
                )
                parts.append((num[mask], den[mask], f[mask]))
            if not sum(len(p[2]) for p in parts):
                continue
            num, den, f = (np.concatenate(col) for col in zip(*parts))
            order = np.argsort(f, kind="stable")
            mid = len(order) // 2
            # walk outward from the median until a candidate verifies exactly
            for step in range(len(order)):
                for pos in {mid - step, mid + step}:
                    if not 0 <= pos < len(order):
                        continue
                    t = int(order[pos])
                    y = Fraction(int(num[t]), int(den[t]))
                    if (y_lo is None or y > y_lo) and y < y_hi:
                        return y
                if step > 64:
                    break
        return None

    def _window_ordinates(
        self, y_lo: Optional[Fraction], y_hi: Fraction, open_top: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """All distinct ordinates in (y_lo, y_hi] (or (y_lo, y_hi) when
        open_top), ascending, as reduced numerators and positive
        denominators.  y_lo None means a window floor below every
        intersection."""
        order_hi = self.order_at(y_hi, strict=open_top)
        if y_lo is None:
            seq = self.rank_inf[order_hi]
        else:
            order_lo = self.order_at(y_lo)
            rank_lo = np.empty(self.N, dtype=np.int64)
            rank_lo[order_lo] = np.arange(self.N, dtype=np.int64)
            seq = rank_lo[order_hi]
        I, J = inversion_pairs(seq, order_hi)
        num, den, valid = self._pair_ordinates(I, J)
        if not valid.all():
            raise InternalError("swapped pair without a crossing")
        return _sorted_ordinates(num, den)[:2]

    def run(self) -> Fraction:
        ls = self.ls
        if not len(ls) or (ls.n_aff == 0):
            raise ValueError("candidate lines have no intersection ordinates")
        # upper bound on every ordinate magnitude; two affine lines with
        # distinct slopes differ in M by at least the least gap, which
        # keeps the bound near the largest ordinate at any scale
        ms = np.unique(ls.M)
        gap = int((ms[1:] - ms[:-1]).min()) if len(ms) > 1 else 1
        yb = Fraction(
            max(
                2 * ls.maxM * ls.maxB,
                (ls.maxM * ls.maxA + 2 * ls.maxB) * gap,
            ),
            ls.SW * ls.SL * gap,
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
            y_p = self._sample_pivot(y_lo, y_hi)
            if y_p is None:
                y_p = self._interior_pivot(y_lo, y_hi, c_lo)
                if y_p is None:
                    # every in-window crossing sits exactly at y_hi, which
                    # was probed feasible and is the answer
                    return y_hi
            if self.probe(y_p):
                y_hi = y_p
            else:
                y_lo = y_p
        raise InternalError("ordinate window failed to converge")

    def _interior_pivot(
        self, y_lo: Optional[Fraction], y_hi: Fraction, c_lo: int
    ) -> Optional[Fraction]:
        """Exact fallback when sampling finds nothing strictly inside the
        window.  Returns an ordinate strictly between y_lo and y_hi, or None
        when every in-window crossing is at y_hi.  Uses only counting, never
        the oracle."""
        top = y_hi
        for _ in range(500):
            w_strict = self.count(y_hi, strict=True) - c_lo
            if w_strict == 0:
                if y_hi == top:
                    return None
                # all inner mass sits exactly at the bisected ceiling, which
                # therefore is an ordinate strictly inside the real window
                return y_hi
            if w_strict <= 4 * _ENUM_THRESHOLD:
                num, den = self._window_ordinates(y_lo, y_hi, open_top=True)
                if not len(num):
                    raise InternalError("interior crossings exist but none found")
                t = len(num) // 2
                return Fraction(int(num[t]), int(den[t]))
            floor = y_lo if y_lo is not None else min(ZERO, y_hi - 1)
            mid = (floor + y_hi) / 2
            if self.count(mid) == c_lo:
                y_lo = mid
            else:
                y_hi = mid
        raise InternalError("interior pivot search failed to converge")

    def _finish(self, y_lo: Optional[Fraction], y_hi: Fraction) -> Fraction:
        num, den = self._window_ordinates(y_lo, y_hi)
        if not len(num):
            raise InternalError("empty ordinate window at finish")
        y = _lowest_accepted(num, den, self.probe)
        if y is None:
            raise InternalError("window lost the lowest feasible ordinate")
        return y


def lowest_feasible_vertex(
    ls: LineSet,
    oracle: Callable[[Fraction], bool],
    strategy: str = "explicit",
) -> Fraction:
    """Lowest intersection ordinate of the line set that the monotone oracle
    accepts, always one the oracle was asked about.  Either strategy serves
    every coefficient scale; "auto" picks counting above 3000 lines, or
    above 500 on object-dtype sets, whose quadratic Python-int enumeration
    costs more.  The name, kept from when the intersection point itself
    was returned, is one that perfbench's tracer rebinds."""
    if strategy == "auto":
        limit = 3000 if ls.int_ok else 500
        strategy = "counting" if len(ls) > limit else "explicit"
    if strategy == "explicit":
        return _search_explicit(ls, oracle)
    if strategy == "counting":
        return _CountingSearch(ls, oracle).run()
    raise ValueError(f"unknown search strategy {strategy!r}")


def solve_weighted_graph(g: Graph, k: int, search: str = "auto") -> Solution:
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
    lam = lowest_feasible_vertex(ls, oracle, strategy=search)
    # every search probes the ordinate it returns
    res = memo.get(lam)
    if res is None or not res.feasible or res.witness is None:
        raise InternalError(f"search returned unprobed or infeasible radius {lam}")
    x, covered = res.witness
    subtree = trim_witness(g, dm, x, covered, k)
    return Solution(lam, x, subtree)
