"""Grid-sampled Holder seminorms and the approximate-diagonal decay
experiment.

Grid estimates are lower bounds of the true suprema; growth under grid
refinement is the operational test for non-membership in a Holder class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .series import FourierSeries

__all__ = [
    "SampledMetricSpace", "DecayFitReport",
    "SeminormEstimate", "estimate_holder_seminorm",
    "diagonal_decay_experiment", "chi_profile",
]

PAIR_CAP_DEFAULT = 10_000_000
# a pruning bound is widened to bound * _MARGIN + _SLACK before it is
# compared (see estimate_holder_seminorm)
_MARGIN = 1.0 + 1e-9
_SLACK = 1e-300

# A grid's sample array holds one complex128 per point, m on the circle and
# m^2 on the product grid (64 MiB at this budget), so a grid with more
# points than this is refused before any array is made.  The decay
# experiment holds only the band of its cutoffs, about M/pi rows of M at most,
# and the product-grid scan a table of its shifts, six numbers (48 B) each:
# a few hundred shifts at the catalog's pair_cap, and at most (M/2 + 1)(M + 1),
# 2.1 million or about 100 MB at M = 2048, when pair_cap admits every offset.
# The budget admits the product grid of M = 2048, twice the catalog default.
MAX_GRID_POINTS = 1 << 22


@dataclass(frozen=True)
class SampledMetricSpace:
    """A uniform grid on the circle or on the product of two circles.

    kind 'circle_grid': M points theta_k = 2 pi k / M with the geodesic
    arc metric.  kind 'torus_grid': the M x M product grid with the max of
    the two arc distances.
    """

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in ("circle_grid", "torus_grid"):
            raise ValueError(f"unknown metric space kind {self.kind!r}")
        if self.size < 2:
            raise ValueError("grid needs at least 2 points")
        points = self.size if self.kind == "circle_grid" else self.size ** 2
        if points > MAX_GRID_POINTS:
            raise ValueError(f"a {self.kind} of size {self.size} has {points} points, "
                             f"more than MAX_GRID_POINTS = {MAX_GRID_POINTS}; "
                             f"use a smaller grid")

    @staticmethod
    def circle(m: int) -> "SampledMetricSpace":
        return SampledMetricSpace("circle_grid", m)

    @staticmethod
    def torus(m: int) -> "SampledMetricSpace":
        return SampledMetricSpace("torus_grid", m)

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size

    def arc(self, offset) -> np.ndarray:
        """Geodesic distance for a grid offset (vectorized)."""
        o = np.mod(np.asarray(offset), self.size)
        o = np.minimum(o, self.size - o)
        return 2.0 * np.pi * o / self.size


def chi_profile(t) -> np.ndarray:
    """The fixed cutoff profile: 1 on [0, 0.1], then (1 - s^2)^3 with
    s = (t - 0.1)/0.9 on (0.1, 1), and 0 from 1 on.  Decreasing, smooth
    enough for the decay experiment, identical across runs."""
    t = np.asarray(t, dtype=float)
    s = np.clip((t - 0.1) / 0.9, 0.0, 1.0)
    return np.where(t <= 0.1, 1.0, np.where(t >= 1.0, 0.0, (1.0 - s * s) ** 3))


@dataclass(frozen=True)
class SeminormEstimate:
    value: float
    truncated: bool
    pairs_used: int
    # work done, not part of the result: an exponent list prunes less than
    # a single exponent, and both estimates compare equal
    pairs_differenced: int = field(compare=False)


def _offset_ladder(max_off: int, budget: int) -> tuple:
    """Offsets 1..max_off if they fit the budget, else all small offsets
    plus a geometric ladder reaching max_off (near-diagonal prioritized)."""
    if max_off <= budget:
        return list(range(1, max_off + 1)), False
    near = max(budget // 2, 1)
    offs = set(range(1, near + 1))
    o = float(near)
    while len(offs) < budget and o < max_off:
        o *= 1.25
        offs.add(min(int(math.ceil(o)), max_off))
    return sorted(offs), True


def _values_on_grid(f, x: SampledMetricSpace) -> np.ndarray:
    if isinstance(f, FourierSeries):
        if f.domain != "circle":
            raise ValueError("only circle series are evaluated on a grid; pass a "
                             "torus function as its sampled values, an (m, m) "
                             "array on the product grid")
        if x.kind != "circle_grid":
            raise ValueError("series domain does not match the grid")
        return f.evaluate_grid(x.angles())
    vals = np.asarray(f, dtype=complex)
    m = x.size
    if x.kind == "circle_grid":
        if vals.shape != (m,):
            raise ValueError(f"sampled values have shape {vals.shape}, expected ({m},)")
    elif vals.ndim != 2 or vals.shape[0] > m or vals.shape[1] != m:
        raise ValueError(f"sampled values have shape {vals.shape}, expected ({m}, {m}) "
                         f"or a band (w, {m}) with w < {m}")
    return vals


def _live_window(live: np.ndarray) -> tuple:
    """(c0, w) such that diagonals c0 .. c0+w-1 (mod m) hold every live
    diagonal: the complement of the longest cyclic run of dead ones, given
    the length-m mask of live diagonals (w = 0 when none is live)."""
    m = live.size
    live = np.flatnonzero(live)
    if live.size == 0:
        return 0, 0
    gaps = np.diff(live, append=live[0] + m)
    g = int(np.argmax(gaps))
    return int(live[(g + 1) % live.size]), m - int(gaps[g]) + 1


def _skewed_band(vals: np.ndarray) -> np.ndarray:
    """Rows c0 .. c0+w-1 (mod m) of s[k, a] = vals[a, (a + k) mod m] as a
    (w, m) array, one contiguous row per diagonal, for the _live_window of
    the diagonals of vals that are not identically zero."""
    m = vals.shape[0]
    rows, cols = np.nonzero(vals)
    live = np.zeros(m, dtype=bool)
    live[(cols - rows) % m] = True
    c0, w = _live_window(live)
    a = np.arange(m)
    return vals[a, (a + c0 + np.arange(w)[:, None]) % m]


def _peak(vals: np.ndarray, axis=None):
    """max |vals| (per row for axis=1); ValueError on a nan or infinite
    sample, which max() would otherwise drop from the search or keep as inf."""
    peak = np.abs(vals).max(axis=axis, initial=0.0)
    if not np.all(np.isfinite(peak)):
        raise ValueError("the grid values hold a nan or infinite sample")
    return peak


def _pruned(bound: float, powers: list, best: list) -> bool:
    """Whether a shift with this widened bound on its difference and these
    distance powers d^alpha cannot raise the best of any exponent."""
    return all(bound / p <= b for p, b in zip(powers, best))


def _updated_best(best: list, diff, powers: list) -> list:
    return [max(b, diff / p) for b, p in zip(best, powers)]


def _circle_scan(vals: np.ndarray, x: SampledMetricSpace, alphas: list,
                 pair_cap: int) -> tuple:
    """max |f(a) - f(a + o)| / arc(o)^alpha over the scanned offsets o, per
    exponent; whether the cap truncated the offsets; the pairs covered and
    the pairs differenced."""
    m = x.size
    offsets, truncated = _offset_ladder(m // 2, max(1, pair_cap // m))
    # twice[o:o + m][a] = vals[(a + o) mod m]: one slice per offset
    twice = np.concatenate([vals, vals])
    # D(p + q) <= D(p) + D(q) for the offset maxima D; a skipped offset
    # keeps its bound in place of D
    seen = {}
    cap = 2.0 * _peak(vals)
    best, differenced = [0.0] * len(alphas), 0
    for o, arc in zip(offsets, x.arc(offsets).tolist()):
        powers = [arc ** a for a in alphas]
        bound = cap
        if o - 1 in seen:
            bound = min(bound, seen[1] + seen[o - 1])
        if o // 2 in seen and o - o // 2 in seen:
            bound = min(bound, seen[o // 2] + seen[o - o // 2])
        bound = bound * _MARGIN + _SLACK
        if _pruned(bound, powers, best):
            seen[o] = bound
            continue
        seen[o] = diff = np.abs(vals - twice[o:o + m]).max()
        best = _updated_best(best, diff, powers)
        differenced += 1
    return best, truncated, len(offsets) * m, differenced * m


def _ranked(order: np.ndarray, *columns, size: int = 64):
    """The columns' entries at each index of order, as one tuple of Python
    values per index, converted size indices at a time: a scan that stops
    early makes Python values only for the indices it reaches."""
    for start in range(0, len(order), size):
        idx = order[start:start + size]
        yield from zip(*(c[idx].tolist() for c in columns))


def _torus_scan(vals: np.ndarray, x: SampledMetricSpace, alphas: list,
                pair_cap: int) -> tuple:
    """As _circle_scan for the shifts (o1, o2) of the product grid, in
    skewed band coordinates, visited best-first (see
    estimate_holder_seminorm)."""
    m = x.size
    budget = max(1, pair_cap // (m * m))
    per_axis = max(2, int(math.isqrt(budget)))
    offs, truncated = _offset_ladder(m // 2, per_axis)
    ladder = np.array([0] + offs)
    # every shift (o1, o2), o1 in the ladder and o2 in it or its negative,
    # but (0, 0) and (0, -o), in ladder order
    o1, o2 = (g.ravel() for g in np.meshgrid(ladder, np.r_[ladder, -ladder[1:]],
                                             indexing="ij"))
    keep = (o1 > 0) | (o2 > 0)
    o1, o2 = o1[keep], o2[keep]
    e = (o2 - o1) % m
    # arc is increasing on 0..m/2, so max(arc(o1), arc(o2)) is the arc of
    # the larger offset, ladder entry far, and its power is taken once per
    # ladder entry
    far = np.searchsorted(ladder, np.maximum(o1, np.abs(o2)))
    arcs = x.arc(ladder).tolist()
    powers = np.array([[arc ** a for arc in arcs] for a in alphas])
    band = vals if vals.shape[0] < m else _skewed_band(vals)
    w = band.shape[0]
    rowmax = _peak(band, axis=1)
    # band row i meets row i + e (mod m) of the row-shifted band; a row
    # whose partner falls outside the band meets zeros, so dead[e] is the
    # largest max |s| over the rows i with (i + e) or (i - e) mod m >= w
    rows, shifts = np.arange(w), np.arange(m)[:, None]
    partner = (rows + shifts) % m
    dead = np.where((partner >= w) | ((rows - shifts) % m >= w),
                    rowmax, 0.0).max(axis=1, initial=0.0)
    # |s - t| <= |s| + |t|, so bound[e] caps the difference at shift e; a
    # dead partner's max |s| is 0 and each live row's term is at least its
    # own max |s|, so the bound covers dead[e] too
    padded = np.zeros(m)
    padded[:w] = rowmax
    bound = (rowmax + padded[partner]).max(axis=1, initial=0.0)
    bound = bound * _MARGIN + _SLACK
    # the shifts by their largest bound quotient over the exponents, ties in
    # ladder order; the quotients are the same floats as the prune's
    # bound / d^alpha
    top = (bound[e] / powers[:, far]).max(axis=0)
    order = np.argsort(-top, kind="stable")
    bounds, pw_table = bound.tolist(), list(zip(*powers.tolist()))
    # twice[:, o1:o1 + m][i, a] = band[i, (a + o1) mod m]: one slice per o1
    twice = np.concatenate([band, band], axis=1)
    best, differenced = [0.0] * len(alphas), 0
    for t, s1, se, sf in _ranked(order, top, o1, e, far):
        if t <= min(best):
            break  # no quotient from this rank on exceeds any exponent's best
        pw = pw_table[sf]
        if _pruned(bounds[se], pw, best):
            continue
        rolled = twice[:, s1:s1 + m]
        diff = dead[se]
        if se < w:
            diff = max(diff, np.abs(band[:w - se] - rolled[se:]).max())
        if m - se < w:
            diff = max(diff, np.abs(band[m - se:] - rolled[:w + se - m]).max())
        best = _updated_best(best, diff, pw)
        differenced += 1
    return best, truncated, len(e) * m * m, differenced * m * m


def estimate_holder_seminorm(f, x: SampledMetricSpace,
                             alpha: float | Sequence[float],
                             pair_cap: int = PAIR_CAP_DEFAULT,
                             details: bool = False):
    """Grid maximum of |f(a) - f(b)| / d(a,b)^alpha.

    f is a circle FourierSeries on the circle grid, or sampled values: shape
    (m,) on the circle grid, and (m, m) or a band (w, m) on the product grid
    (see below).  A torus series raises ValueError; sample it first.

    alpha is one exponent, or a sequence of them: a sequence gives a list
    with one result per exponent, all from one scan, since the maxima of
    |f(a) - f(b)| per grid offset do not depend on the exponent.  Each
    equals the single-exponent call bit for bit.  A nan or infinite grid
    value raises ValueError.

    Enumerates all pairs when they fit under pair_cap, otherwise samples
    near-diagonal-prioritized offsets; the estimate reports whether the cap
    truncated the search.  pairs_used counts every grid pair of every
    offset covered; pairs_differenced counts those of the offsets whose
    differences were taken (see the pruning below).

    On the product grid the scan runs in skewed coordinates
    s[k, a] = f(a, a + k), where the shift (o1, o2) moves each diagonal
    by o1 along itself and pairs diagonal k with diagonal k + e,
    e = o2 - o1.  Only the band of live diagonals (those of f that are not
    identically zero) is stored, one contiguous row each.  A diagonal whose
    partner is live too is differenced; one whose partner is dead
    contributes its max |s|, read for each e from one table, which equals
    the dense maximum exactly because a - 0 and 0 - b are exact.  A
    function supported near the diagonal thus costs its band width, not m,
    per shift, and gives the same value as the dense scan bit for bit.
    Sampled values of shape (m, m) are f on the grid, and their band is cut
    out here.  An array of shape (w, m) with w < m is taken as the band
    itself: rows s[c0 + i, a] for diagonals c0 .. c0+w-1 (mod m) that hold
    every live one (c0 itself does not enter the scan).

    Pruning: each scan keeps the running best of diff / d^alpha per
    exponent and, before differencing a shift, bounds its difference from
    above: on the product grid by the largest max|s| on a band row plus
    max|s| on its partner row (0 on a dead one), a table over e computed
    once per scan that also covers dead[e]; on the circle by subadditivity,
    D(o) <= D(1) + D(o - 1) and D(o) <= D(floor(o/2)) + D(ceil(o/2)) over
    offsets already visited (a skipped offset keeps its bound in place of
    D), capped at 2 max|f|.  A shift is skipped when its bound, over d^alpha,
    cannot exceed the running best of any exponent.  The bound carries a
    relative margin of 1e-9 and an absolute one of 1e-300, far above the
    rounding of the differences, the sums and the abs (a few units in the
    last place, absolute ones among subnormals), so a skipped shift's
    quotient, computed, is at most its bound's.

    The circle scan visits its offsets in ascending order, which its
    subadditive bounds need.  The product-grid bounds are known before the
    scan, so it visits its shifts best-first: by the largest of their bound
    quotients bound[e] / d^alpha over the exponents, ties in ladder order,
    and it stops at the first shift whose largest quotient is at most the
    smallest running best, since no later shift has a larger one.  The
    seminorm is a max, which does not depend on the order; the quotients
    still computed are the same floats as without pruning, and max is
    exact, so every value, truncated and pairs_used is unchanged bit for
    bit.  Only pairs_differenced depends on the order.
    """
    single = np.ndim(alpha) == 0
    alphas = [alpha] if single else list(alpha)
    if not alphas:
        raise ValueError("no exponent alpha given")
    if not all(0 < a <= 1 for a in alphas):
        raise ValueError("alpha must lie in (0, 1]")
    if pair_cap < 1:
        raise ValueError(f"pair_cap={pair_cap} must be at least 1")
    vals = _values_on_grid(f, x)
    scan_grid = _circle_scan if x.kind == "circle_grid" else _torus_scan
    best, truncated, used, differenced = scan_grid(vals, x, alphas, pair_cap)
    out = [SeminormEstimate(b, truncated, used, differenced) if details else b
           for b in best]
    return out[0] if single else out


@dataclass(frozen=True)
class DecayFitReport:
    alpha: float
    beta: float
    gamma: float
    js: List[int]
    norms: List[float]
    slope: float
    residual: float
    trivial: bool = False

    def to_csv(self) -> str:
        lines = [f"# alpha={self.alpha} beta={self.beta} gamma={self.gamma}",
                 "j,norm"]
        lines += [f"{j},{n:.12g}" for j, n in zip(self.js, self.norms)]
        return "\n".join(lines) + "\n"


def diagonal_decay_experiment(f: FourierSeries, alpha: float, beta: float,
                              j_schedule: Sequence[int] | None = None,
                              x: SampledMetricSpace | None = None,
                              pair_cap: int = PAIR_CAP_DEFAULT) -> DecayFitReport:
    """Norms of Delta_j (1 tensor f - f tensor 1) in the alpha-Holder norm
    on the product grid, with a log-log decay fit against j.  The cutoff
    Delta_j(x, y) = chi_profile(j d(x, y)) is a bump concentrating on d < 1/j.

    Each cutoff is built only on its live diagonals, as the skewed band
    s[k, a] = chi(j arc(k)) (f(a + k) - f(a)) that estimate_holder_seminorm
    scans, with the same window and the same floats as the dense M x M
    array; the sup norm is max |s| over the band.  So no M x M array is
    made, and every norm equals the dense build's bit for bit.

    The fitted slope is compared by callers against -(gamma - 0.1) with
    gamma = min(1 - alpha/beta, beta - alpha).  j_schedule=None means
    j = 2, 4, ..., 64.  A schedule with fewer than two distinct j, or with
    a j < 1, raises ValueError before any work, and so does a j whose
    cutoff already vanishes at the nearest grid distance 2 pi/m: its
    Delta_j is zero off the diagonal and would enter the fit as log 0.
    A nan or infinite sample of f raises ValueError.
    """
    if beta <= alpha:
        raise ValueError("the decay exponent is trivial unless beta > alpha")
    x = x or SampledMetricSpace.circle(1024)
    if x.kind != "circle_grid":
        raise ValueError("the decay experiment runs on a circle grid (the "
                         "product grid is built internally)")
    j_schedule = [2, 4, 8, 16, 32, 64] if j_schedule is None else list(j_schedule)
    if any(j < 1 for j in j_schedule):
        raise ValueError("cutoff index j must be >= 1")
    if len(set(j_schedule)) < 2:
        raise ValueError(f"the decay fit needs at least two distinct cutoffs j, "
                         f"got {j_schedule}")
    gamma = min(1.0 - alpha / beta, beta - alpha)
    m = x.size
    product = SampledMetricSpace.torus(m)
    empty = [j for j in j_schedule if chi_profile(j * x.arc(1)) == 0]
    if empty:
        raise ValueError(f"cutoffs j={empty} vanish at the nearest grid "
                         f"distance 2 pi/{m}, so Delta_j is zero off the "
                         f"diagonal; refine the grid or lower j")
    fv = _values_on_grid(f, x)
    if _peak(fv) == 0 or np.max(np.abs(fv - fv[0])) == 0:
        return DecayFitReport(alpha, beta, gamma, j_schedule,
                              [0.0] * len(j_schedule), float("nan"),
                              float("nan"), trivial=True)
    # each cutoff is evaluated once per folded grid offset, the same floats
    # as on each pair's distance; it vanishes from arc 1/j on, so it lives
    # on the diagonals k = -r .. r with r < m/(2 pi)
    arcs = x.arc(np.arange(m // 2 + 1))
    cutoffs = [chi_profile(j * arcs) for j in j_schedule]
    radii = [int(np.flatnonzero(chi)[-1]) for chi in cutoffs]
    widest = max(radii)
    # diffs[widest + k, a] = f(a + k) - f(a): the skewed rows of
    # 1 tensor f - f tensor 1 on every diagonal of the widest cutoff
    ext = fv[(np.arange(m + 2 * widest) - widest) % m]
    diffs = np.lib.stride_tricks.sliding_window_view(ext, m)[:2 * widest + 1] - fv
    norms = []
    for chi, r in zip(cutoffs, radii):
        ks = np.arange(-r, r + 1)
        rows = chi[np.abs(ks)][:, None] * diffs[widest - r:widest + r + 1]
        live = np.zeros(m, dtype=bool)
        live[ks[rows.any(axis=1)] % m] = True
        c0, w = _live_window(live)
        # the run of dead diagonals outside -r .. r is longer than any run
        # inside, so the window lies inside and diagonal c0 is row (c0 + r) mod m
        band = rows[(c0 + r) % m:][:w]
        semi = estimate_holder_seminorm(band, product, alpha, pair_cap=pair_cap)
        norms.append(float(_peak(band)) + semi)
    logs = np.log(np.maximum(norms, 1e-300))
    design = np.column_stack([np.ones(len(j_schedule)), np.log(j_schedule)])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    fit = design @ coef
    residual = float(np.sqrt(np.mean((logs - fit) ** 2)))
    return DecayFitReport(alpha, beta, gamma, j_schedule, norms,
                          float(coef[1]), residual)
