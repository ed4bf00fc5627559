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
  Simple and exact; quadratic in the number of lines.  The weighted graph
  solver first brackets the answer without a probe, between the least
  per-edge k-th-distance bound (below it no point covers k) and the
  least radius at which some vertex covers k as a center
  (FeasibilityTester.bracket), and only the ordinates inside the bracket
  are sorted and bisected: on sweep-small, about 8% of them.
* counting: never materializes the full ordinate set.  The crossings in
  a window (y_lo, y_hi] are the inversions between the left-to-right
  orders of the lines at its two ends, so one merge pass per round counts
  them and draws a uniform sample of them; the window is narrowed by
  probing the median sampled ordinate until few enough crossings remain
  for the same pass to list them all.

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
from functools import cmp_to_key
from itertools import repeat
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
_DRAWS = 1 << 10
_BLOCK = 1 << 16  # entries _sorted_ordinates gathers at a time


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
# inversions between two left-to-right orders


def merge_inversions(
    values: np.ndarray, rng: np.random.Generator, draws: int, limit: int
) -> tuple[int, tuple[np.ndarray, np.ndarray], Optional[tuple[np.ndarray, np.ndarray]]]:
    """One bottom-up merge pass over values, distinct int64 entries in
    [0, n).  An inversion is a pair i < j with values[i] > values[j],
    reported as (values[i], values[j]).  Returns the number of inversions;
    `draws` of them drawn uniformly with replacement (none when there are
    none); and all of them when there are at most limit, else None.

    At each level a right entry's inversions with its sorted left block are
    the tail of that block above the entry, one contiguous run, so a level
    counts them with one searchsorted, draws `draws` of them among its runs
    and lists them while the running total stays within limit.  The levels'
    draws are mixed by their totals at the end, so at most draws per level
    are kept and no level's arrays outlive it."""
    n = len(values)
    n2 = 1 << max(n - 1, 0).bit_length()
    a = np.full(n2, n, dtype=np.int64)
    a[:n] = values
    total = 0
    totals: list[int] = []
    drawn: list[tuple[np.ndarray, np.ndarray]] = []
    listed: Optional[list[tuple[np.ndarray, np.ndarray]]] = [] if limit >= 0 else None
    # row r is shifted by r*(n+1), so one searchsorted serves every row
    shift = np.int64(n + 1)
    width = 1
    while width < n2:
        v = a.reshape(-1, 2 * width)
        rows = v.shape[0]
        off = np.arange(rows, dtype=np.int64)[:, None] * shift
        left = (v[:, :width] + off).ravel()
        right = (v[:, width:] + off).ravel()
        gt = np.searchsorted(left, right, side="right")
        ends = np.arange(width, rows * width + 1, width, dtype=np.int64)[:, None]
        cnt = (ends - gt.reshape(rows, width)).ravel()
        level = int(cnt.sum())
        if level:
            # inversion t of the level pairs right entry r with left entry
            # gt[r] + t - before[r], where before[r] counts those of r's
            # predecessors
            before = np.cumsum(cnt) - cnt
            u = rng.integers(0, level, size=draws)
            r = np.searchsorted(before, u, side="right") - 1
            pos = gt[r] + u - before[r]
            drawn.append((left[pos] - pos // width * shift, right[r] - r // width * shift))
            totals.append(level)
            if listed is not None and total + level <= limit:
                pos = np.repeat(gt - before, cnt) + np.arange(level)
                lo = np.repeat(right - np.arange(len(right)) // width * shift, cnt)
                listed.append((left[pos] - pos // width * shift, lo))
            else:
                listed = None
            total += level
        a = np.sort(v, axis=1).ravel()
        width *= 2
    empty = np.empty(0, dtype=np.int64)
    take = [0] * len(totals)
    if total and draws:
        # each draw picks a level in proportion to its total
        pick = np.searchsorted(np.cumsum(totals), rng.integers(0, total, size=draws), side="right")
        take = np.bincount(pick, minlength=len(totals)).tolist()
    hi = np.concatenate([empty] + [h[:m] for (h, _), m in zip(drawn, take)])
    lo = np.concatenate([empty] + [x[:m] for (_, x), m in zip(drawn, take)])
    if listed is not None:
        listed = (
            np.concatenate([empty] + [h for h, _ in listed]),
            np.concatenate([empty] + [x for _, x in listed]),
        )
    return total, (hi, lo), listed


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


def _exact_cmp(x: tuple, y: tuple) -> int:
    """Compare (num, den, tie, index) tuples of Python ints, den > 0, by
    the value num/den, then by tie, then by index, by cross-multiplying."""
    d = x[0] * y[1] - y[0] * x[1]
    if d:
        return -1 if d < 0 else 1
    return (x[2] > y[2]) - (x[2] < y[2]) or (x[3] > y[3]) - (x[3] < y[3])


_EXACT = cmp_to_key(_exact_cmp)


def _repair_runs(
    order: np.ndarray,
    f: np.ndarray,
    num: np.ndarray,
    den: np.ndarray,
    tie: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact fixup of a float sort.  order is sorted by the float values f
    (f[t] belongs to order[t]); each run of neighbours whose float gaps are
    too small to trust is re-sorted in place by the exact value
    num[i]/den[i] (den > 0) of its entries i, then by tie[i] and by i."""
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
            run = order[a : b + 1]
            ties = repeat(0) if tie is None else tie[run].tolist()
            items = zip(num[run].tolist(), den[run].tolist(), ties, run.tolist())
            order[a : b + 1] = [i for *_, i in sorted(items, key=_EXACT)]
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


def _distinct(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from their predecessor."""
    new = np.ones(len(num), dtype=bool)
    new[1:] = (num[1:] != num[:-1]) | (den[1:] != den[:-1])
    return new


def _sorted_ordinates(
    num: np.ndarray, den: np.ndarray, ranked: bool = True
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The distinct values num/den (den != 0, reduced in place), ascending,
    as reduced numerators and positive denominators, and the rank of each
    input value among them (None unless ranked)."""
    num, den = _reduce(num, den)
    f = _ratio(num, den)
    perm = np.argsort(f)
    # equal values have equal floats, so in float order an entry equal to
    # the one before it is a duplicate.  Those go first, gathered _BLOCK
    # entries at a time, so with many duplicates no permuted copy of the
    # whole input is ever alive; at[i] is input i's index among the rest
    at = np.empty(len(f), dtype=np.int64) if ranked else None
    parts = [(num[:0], den[:0], f[:0])]
    kept = 0
    for s in range(0, len(f), _BLOCK):
        p = perm[s : s + _BLOCK]
        bn, bd = num[p], den[p]
        new = _distinct(bn, bd)
        if ranked:
            at[p] = np.cumsum(new) + (kept - 1)
        kept += int(np.count_nonzero(new))
        parts.append((bn[new], bd[new], f[p[new]]))
    del perm
    num, den, f = (np.concatenate(part) for part in zip(*parts))
    del parts
    # a run of equal floats left now holds distinct values, or equal ones
    # apart (a, b, a) or across a block end; sorted by (num, den) it puts
    # equal pairs side by side, so the exact repair only sees distinct
    # near-equal values
    merged = None
    tied = np.nonzero(f[1:] == f[:-1])[0]
    if len(tied):
        pos = np.arange(len(num))
        run = np.concatenate(([0], np.cumsum(f[1:] != f[:-1])))
        for r in np.unique(run[tied]).tolist():
            a, b = np.searchsorted(run, [r, r + 1]).tolist()
            idx = sorted(range(a, b), key=lambda t: (int(num[t]), int(den[t])))
            num[a:b], den[a:b], pos[a:b] = num[idx], den[idx], pos[idx]
        new = _distinct(num, den)
        merged = np.empty(len(num), dtype=np.int64)
        merged[pos] = np.cumsum(new) - 1
        num, den, f = num[new], den[new], f[new]
    order = _repair_runs(np.arange(len(num)), f, num, den)
    if not ranked:
        return num[order], den[order], None
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    if merged is not None:
        rank = rank[merged]
    return num[order], den[order], rank[at]


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


def _explicit_ordinates(
    ls: LineSet, window: Optional[tuple[int, int]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct y-coordinates of all pairwise intersections, ascending, as
    reduced numerators and positive denominators.  With window = (lo, hi),
    integers, only those y with lo <= y * SW * SL <= hi, and perhaps a few
    just outside: the float quotients are compared with a margin of 1e-9
    on either side.  int64 quotients are within 1e-15 of their values, and
    Python-int quotients round correctly, saturating past the float range,
    so no y of the window is ever dropped."""
    num, den = _int_pair_ordinates(ls)
    if window is not None:
        lo, hi = (_div(b, ls.SW * ls.SL) for b in window)
        f = _ratio(num, den)
        keep = (f >= lo * (1 - math.copysign(1e-9, lo))) & (f <= hi * (1 + math.copysign(1e-9, hi)))
        num, den = num[keep], den[keep]
    return _sorted_ordinates(num, den, ranked=False)[:2]


def _search_explicit(
    ls: LineSet,
    oracle: Callable[[Fraction], bool],
    bracket: Optional[Callable[[], tuple[int, int]]] = None,
) -> Fraction:
    """Bisect the sorted crossing ordinates.  bracket(), when given, names
    a window (lo, hi) known to hold the answer (see _explicit_ordinates),
    and only the ordinates inside it are sorted and probed."""
    window = bracket() if bracket is not None else None
    num, den = _explicit_ordinates(ls, window)
    memo: dict[Fraction, bool] = {}

    def probe(y: Fraction) -> bool:
        if y not in memo:
            memo[y] = bool(oracle(y))
        return memo[y]

    if window is not None:
        if not len(num) or not probe(Fraction(int(num[-1]), int(den[-1]))):
            raise InternalError(f"no feasible ordinate in the bracket {window}")
    elif not len(num):
        raise ValueError("candidate lines have no intersection ordinates")
    elif not probe(Fraction(int(num[-1]), int(den[-1]))):
        raise ValueError("no intersection ordinate is feasible")
    return _lowest_accepted(num, den, probe)


# ---------------------------------------------------------------------------
# counting strategy


class _CountingSearch:
    """Narrows a window (y_lo, y_hi] around the lowest feasible ordinate,
    keeping the left-to-right line order at both ends (y = -inf, with its
    order rank_inf, before the first infeasible probe).  Two lines cross
    inside the window exactly when the two orders disagree on them, so the
    window's crossings are the inversions of seq = rank_lo[order_hi]: each
    round one merge pass over seq counts them, draws _DRAWS of them
    uniformly (Matousek's randomized slope selection samples its window
    the same way) and, once at most _ENUM_THRESHOLD remain, lists them all
    for the final bisection.  The probe pivot is the median of the distinct
    drawn ordinates below y_hi."""

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
        self.order_inf = sigma_inf
        self.rank_inf = np.empty(n, dtype=np.int64)
        self.rank_inf[sigma_inf] = idx
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
        return _repair_runs(order, f[order], num, den, tie)

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

    def _window(self, rank_lo: np.ndarray, order_hi: np.ndarray):
        """One merge pass over the window between the orders rank_lo and
        order_hi: its crossing count, _DRAWS drawn crossings, and every
        crossing once at most _ENUM_THRESHOLD remain, each crossing a pair
        of ranks at the window floor."""
        return merge_inversions(rank_lo[order_hi], self.rng, _DRAWS, _ENUM_THRESHOLD)

    def _ordinates(
        self, order_lo: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ordinates of the crossings named by pairs of ranks at
        the window floor, ascending, as reduced numerators and positive
        denominators."""
        num, den, valid = self._pair_ordinates(order_lo[pairs[0]], order_lo[pairs[1]])
        if not valid.all():
            raise InternalError("swapped pair without a crossing")
        return _sorted_ordinates(num, den, ranked=False)[:2]

    def _pivot(
        self, order_lo: np.ndarray, drawn: tuple[np.ndarray, np.ndarray], y_hi: Fraction
    ) -> Optional[Fraction]:
        """Median of the distinct drawn ordinates below y_hi, or None when
        every draw sits at y_hi."""
        num, den = self._ordinates(order_lo, drawn)
        if len(num) and Fraction(int(num[-1]), int(den[-1])) == y_hi:
            num, den = num[:-1], den[:-1]
        if not len(num):
            return None
        t = len(num) // 2
        return Fraction(int(num[t]), int(den[t]))

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
        y_hi = yb
        order_lo, rank_lo = self.order_inf, self.rank_inf
        order_hi = self.order_at(y_hi)
        for _ in range(300):
            _, drawn, listed = self._window(rank_lo, order_hi)
            if listed is not None:
                return self._finish(order_lo, listed)
            y_p = self._pivot(order_lo, drawn, y_hi)
            if y_p is None:
                # draw again from the crossings strictly below y_hi; with
                # none, every in-window crossing sits at y_hi, which was
                # probed feasible and is the answer
                inside, drawn, _ = self._window(rank_lo, self.order_at(y_hi, strict=True))
                if not inside:
                    return y_hi
                y_p = self._pivot(order_lo, drawn, y_hi)
            if self.probe(y_p):
                y_hi, order_hi = y_p, self.order_at(y_p)
            else:
                order_lo = self.order_at(y_p)
                rank_lo = np.empty(self.N, dtype=np.int64)
                rank_lo[order_lo] = np.arange(self.N, dtype=np.int64)
        raise InternalError("ordinate window failed to converge")

    def _finish(self, order_lo: np.ndarray, listed: tuple[np.ndarray, np.ndarray]) -> Fraction:
        num, den = self._ordinates(order_lo, listed)
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
    bracket: Optional[Callable[[], tuple[int, int]]] = None,
) -> Fraction:
    """Lowest intersection ordinate of the line set that the monotone oracle
    accepts, always one the oracle was asked about.  bracket, a callable
    giving integers (lo, hi) with lo <= answer * SW * SL <= hi, narrows the
    explicit strategy, which alone calls it.  Either strategy serves
    every coefficient scale; "auto" picks counting above 700 lines, or
    above 500 on object-dtype sets, whose quadratic Python-int enumeration
    costs more.  On int64 weighted graphs of 560-2,527 lines (k = n/2,
    median solve CPU time of three fresh processes each, 2-core machine)
    explicit took 0.61-0.98x of counting's time up to 670 lines, 1.03-2.71x
    from 682 lines and 3.5-6.7x from 1,691, with up to 4.4x the peak
    memory.  The name, kept from when the intersection point itself was
    returned, is one that perfbench's tracer rebinds."""
    if strategy == "auto":
        limit = 700 if ls.int_ok else 500
        strategy = "counting" if len(ls) > limit else "explicit"
    if strategy == "explicit":
        return _search_explicit(ls, oracle, bracket)
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
    lam = lowest_feasible_vertex(ls, oracle, search, lambda: tester.bracket(k))
    # every search probes the ordinate it returns
    res = memo.get(lam)
    if res is None or not res.feasible or res.witness is None:
        raise InternalError(f"search returned unprobed or infeasible radius {lam}")
    x, covered = res.witness
    subtree = trim_witness(g, dm, x, covered, k)
    return Solution(lam, x, subtree)
