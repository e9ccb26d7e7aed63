"""Grid seminorms, the cutoff profile, and the two-point difference
quotient, kept here as a pointwise oracle."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chernlab.series import BoundedSequence, FourierSeries, lacunary_series
from chernlab.metric import (MAX_GRID_POINTS, PAIR_CAP_DEFAULT, SampledMetricSpace,
                             _offset_ladder, _skewed_band, chi_profile,
                             diagonal_decay_experiment, estimate_holder_seminorm)


def _distance(x, a, b) -> float:
    """The grid's metric between points given as angles (circle) or angle
    pairs (torus): the geodesic arc, and on the torus the max of the two."""
    def arc(s, t):
        d = abs(float(s) - float(t)) % (2 * np.pi)
        return min(d, 2 * np.pi - d)
    if x.kind == "circle_grid":
        return arc(a, b)
    return max(arc(a[0], b[0]), arc(a[1], b[1]))


def _evaluate(f, point) -> complex:
    """sum a_k e^{i k.theta} at one point, an angle (circle) or an angle
    pair (torus), one coefficient at a time."""
    coeffs = f.to_float().coeffs.items()
    if f.domain == "circle":
        return sum((c * np.exp(1j * k * float(point)) for k, c in coeffs), 0j)
    t1, t2 = float(point[0]), float(point[1])
    return sum((c * np.exp(1j * (k1 * t1 + k2 * t2)) for (k1, k2), c in coeffs), 0j)


def delta_alpha(f, x, alpha, pair) -> complex:
    """The two-point difference quotient (f(a) - f(b)) / d(a,b)^alpha.

    It obeys the product rule d(fg)(a,b) = d(f)(a,b) g(b) + f(a) d(g)(a,b)
    exactly at every pair, and is odd under swapping the pair.
    """
    a, b = pair
    dist = _distance(x, a, b)
    if dist == 0:
        raise ValueError("the difference quotient needs two distinct points")
    return (_evaluate(f, a) - _evaluate(f, b)) / dist ** alpha


class TestCutoff:
    def test_profile_shape(self):
        t = np.linspace(0, 2, 2001)
        v = chi_profile(t)
        assert v[0] == 1.0
        assert np.all(v[t <= 0.1] == 1.0)
        assert np.all(v[t >= 1.0] == 0.0)
        assert np.all(np.diff(v) <= 1e-15)
        assert np.all((0.0 <= v) & (v <= 1.0))

    def test_cutoff_scales_with_j(self):
        # Delta_j(d) = chi(j d) is 1 for j d <= 0.1 and 0 from j d >= 1 on
        assert chi_profile(10 * 0.005) == 1.0
        assert chi_profile(10 * 0.2) == 0.0


class TestSeminorm:
    def test_constant_has_zero_seminorm(self):
        f = FourierSeries("circle", {0: 2.5}, False)
        assert estimate_holder_seminorm(
            f, SampledMetricSpace.circle(256), 0.5) == 0.0

    def test_coordinate_is_lipschitz_one(self):
        z = FourierSeries.monomial(1, exact=False)
        est = estimate_holder_seminorm(z, SampledMetricSpace.circle(2048), 1.0)
        assert est == pytest.approx(1.0, abs=1e-3)

    def test_scaling_is_homogeneous(self):
        f = FourierSeries("circle", {1: 1.0, 3: 0.5}, False)
        x = SampledMetricSpace.circle(256)
        a = estimate_holder_seminorm(f, x, 0.5)
        b = estimate_holder_seminorm(f.scale(3.0), x, 0.5)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_grid_estimate_is_monotone_in_alpha_for_small_distances(self):
        ones = BoundedSequence.constant(1.0)
        f = lacunary_series(ones, 0.5, 8)
        x = SampledMetricSpace.circle(512)
        lo = estimate_holder_seminorm(f, x, 0.4)
        hi = estimate_holder_seminorm(f, x, 0.9)
        assert hi > lo

    def test_torus_grid_path(self):
        # f(a, b) = e^{i a}, sampled on the product grid
        x = SampledMetricSpace.torus(64)
        vals = np.repeat(np.exp(1j * x.angles())[:, None], x.size, axis=1)
        est = estimate_holder_seminorm(vals, x, 1.0)
        assert est == pytest.approx(1.0, abs=5e-2)

    @pytest.mark.parametrize("x", [SampledMetricSpace.torus(8), SampledMetricSpace.circle(8)],
                             ids=["torus", "circle"])
    def test_torus_series_is_refused(self, x):
        # a torus function enters as its samples; no grid evaluates a torus series
        f = FourierSeries("torus", {(1, 0): 1.0}, False)
        with pytest.raises(ValueError, match="only circle series are evaluated on a "
                                             "grid; pass a torus function as its sampled"):
            estimate_holder_seminorm(f, x, 0.5)

    def test_alternating_lacunary_quarter_exponent_regression(self):
        # the grid estimate stabilizes once the truncation level passes the
        # grid resolution; the stabilized value is pinned as a regression
        # constant for the alternating-sign series at its own exponent
        alt = BoundedSequence(lambda j: (-1.0) ** j, 1.0)
        x = SampledMetricSpace.circle(4096)
        values = [estimate_holder_seminorm(lacunary_series(alt, 0.25, lv), x, 0.25)
                  for lv in (16, 18, 20)]
        assert values[0] == pytest.approx(values[1], rel=1e-9)
        assert values[1] == pytest.approx(values[2], rel=1e-9)
        assert values[2] == pytest.approx(7.766781, abs=1e-3)

    def test_details_report_truncation(self):
        f = FourierSeries("circle", {1: 1.0}, False)
        est = estimate_holder_seminorm(f, SampledMetricSpace.circle(4096), 1.0,
                                       pair_cap=8192, details=True)
        assert est.truncated
        assert est.pairs_used <= 3 * 8192


def _rolled_scan(vals, x, alpha, pair_cap):
    """Brute-force reference: every shift of the ladder differenced in full,
    by one roll on the circle and by rolling both axes on the product grid,
    with no band and no pruning."""
    m = x.size
    if x.kind == "circle_grid":
        offs, truncated = _offset_ladder(m // 2, max(1, pair_cap // m))
        shifts = [((o,), float(x.arc(o))) for o in offs]
    else:
        per_axis = max(2, int(math.isqrt(max(1, pair_cap // (m * m)))))
        offs1, t1 = _offset_ladder(m // 2, per_axis)
        offs2, t2 = _offset_ladder(m // 2, per_axis)
        truncated = t1 or t2
        shifts = [((o1, o2), max(float(x.arc(o1)), float(x.arc(abs(o2)))))
                  for o1 in [0] + offs1 for o2 in [0] + offs2 + [-o for o in offs2]
                  if o1 > 0 or o2 > 0]
    best = 0.0
    for shift, dist in shifts:
        shifted = np.roll(vals, [-o for o in shift], axis=tuple(range(len(shift))))
        best = max(best, np.max(np.abs(vals - shifted)) / dist ** alpha)
    return best, truncated, len(shifts) * vals.size


def _on_diagonals(m, ks, seed):
    """Random complex values on the diagonals b - a = k (mod m), k in ks."""
    rng = np.random.default_rng(seed)
    idx = np.arange(m)
    vals = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    keep = np.isin((idx[None, :] - idx[:, None]) % m, np.asarray(ks) % m)
    return np.where(keep, vals, 0.0)


def _constant_diagonals(m, consts):
    """vals[a, a + k] = consts[k].  With nearly equal neighbours the largest
    quotient comes from the peak diagonal meeting a dead one."""
    vals = np.zeros((m, m), dtype=complex)
    for k, c in consts.items():
        vals[np.arange(m), (np.arange(m) + k) % m] = c
    return vals


def _decay_series():
    return lacunary_series(BoundedSequence.constant(1.0), 0.9, 6)


def _cutoff_difference(m, j, f=None):
    """Delta_j (1 tensor f - f tensor 1) on the dense M x M distance matrix,
    for f = _decay_series() unless given (a series or its samples)."""
    f = _decay_series() if f is None else f
    fv = f.evaluate_grid(SampledMetricSpace.circle(m).angles()) \
        if isinstance(f, FourierSeries) else f
    idx = np.arange(m)
    off = np.abs(idx[None, :] - idx[:, None])
    dmat = 2.0 * np.pi * np.minimum(off, m - off) / m
    return chi_profile(j * dmat) * (fv[None, :] - fv[:, None])


# a palette with exact ties, both zeros and values differing in the
# last bit, so that a wrong operand or a misplaced max shows
_PALETTE = (0.0, -0.0, complex(-0.0, -0.0), 1.0, -1.0, 1j, 1.0 + 1j,
            1.0 + 2.220446049250313e-16, 0.5 - 0.25j)


@st.composite
def _banded_grid(draw):
    """A torus grid of m <= 40 points whose live diagonals are none, all,
    a run across the seam, a run wider than m/2, any run or any set, and a
    pair cap that is either untruncated or tiny."""
    m = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["empty", "full", "seam", "wide", "run", "any"]))
    if kind == "empty":
        ks = []
    elif kind == "full":
        ks = list(range(m))
    elif kind == "seam":
        # a run through diagonal 0: rows on both sides of the band's wrap
        lo = draw(st.integers(-(m - 1) // 2, 0))
        ks = list(range(lo, draw(st.integers(lo + 1, lo + m))))
    elif kind == "wide":
        # wider than m/2, so that both e < w and m - e < w hold for some e
        c0 = draw(st.integers(0, m - 1))
        ks = list(range(c0, c0 + draw(st.integers(m // 2 + 1, m))))
    elif kind == "run":
        c0 = draw(st.integers(0, m - 1))
        ks = list(range(c0, c0 + draw(st.integers(1, m))))
    else:
        ks = sorted(draw(st.sets(st.integers(0, m - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = np.array(_PALETTE)
    idx = np.arange(m)
    values = draw(st.sampled_from(["palette", "normal", "per diagonal"]))
    if values == "palette":
        vals = palette[rng.integers(len(palette), size=(m, m))]
    elif values == "normal":
        vals = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    else:
        # one peak near an end of the live diagonals, the rest nearly
        # equal: the largest quotient may come from the peak meeting a dead
        # diagonal at a shift whose e is not its nearest one (see
        # _constant_diagonals)
        consts = np.full(m, 9.9)
        consts[draw(st.sampled_from(ks[:2] + ks[-2:] or [0])) % m] = 10.0
        vals = consts[(idx[None, :] - idx[:, None]) % m]
    live = np.isin((idx[None, :] - idx[:, None]) % m, np.asarray(ks, int) % m)
    zeros = palette[rng.integers(3, size=(m, m))]  # signed zeros off the band
    vals = np.where(live, vals, zeros)
    cap = draw(st.one_of(st.just(10_000_000), st.integers(1, 8 * m * m)))
    return vals, cap


class TestBandedTorusScan:
    """The live-diagonal scan equals the full double-roll scan bit for bit."""

    CASES = {
        "full support": (24, lambda m: _on_diagonals(m, range(m), 0), None),
        "full support odd": (63, lambda m: _on_diagonals(m, range(m), 1), None),
        "band across the seam": (32, lambda m: _on_diagonals(m, range(-3, 4), 2), None),
        "band off the diagonal": (32, lambda m: _on_diagonals(m, range(5, 9), 3), None),
        "two clusters": (40, lambda m: _on_diagonals(m, [-9, -8, 2, 3, 17], 4), None),
        "single diagonal": (32, lambda m: _on_diagonals(m, [7], 5), None),
        "single diagonal odd": (97, lambda m: _on_diagonals(m, [0], 6), None),
        "peak diagonal against a dead shift":
            (32, lambda m: _constant_diagonals(m, {-1: 9.9, 0: 10, 1: 9.9, 2: 9.9}), None),
        "shifted peak against a dead diagonal":
            (32, lambda m: _constant_diagonals(m, {-1: 9.9, 0: 9.9, 1: 10, 2: 9.9}), None),
        "all zero": (32, lambda m: np.zeros((m, m), dtype=complex), None),
        "cutoff band odd": (97, lambda m: _cutoff_difference(m, 4), None),
        "cutoff band truncated": (64, lambda m: _cutoff_difference(m, 2), 200_000),
        "full support truncated": (48, lambda m: _on_diagonals(m, range(m), 7), 50_000),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_matches_rolled_scan(self, case, alpha):
        m, build, cap = self.CASES[case]
        cap = cap or 10_000_000
        vals = build(m)
        x = SampledMetricSpace.torus(m)
        est = estimate_holder_seminorm(vals, x, alpha, pair_cap=cap, details=True)
        value, truncated, used = _rolled_scan(vals, x, alpha, cap)
        assert est.value == value
        assert est.truncated == truncated
        assert est.pairs_used == used
        if "truncated" in case:
            assert est.truncated

    # the peak second from the band's upper end, beside a near-equal end
    # diagonal, meets a dead diagonal at a shift whose e is not its nearest:
    # only the (i - e) % m >= w half of the dead-partner table sees it
    @given(_banded_grid(),
           st.lists(st.sampled_from([0.05, 0.3, 0.7, 1.0]), min_size=1, max_size=3))
    @example((_constant_diagonals(40, {5: 9.9, 6: 9.9, 7: 9.9, 8: 9.9, 9: 10, 10: 9.9}),
              10_000_000), [1.0])
    # equal diagonals give every shift with a live partner one bound, so
    # the shifts at one distance tie on their quotient in the best-first order
    @example((_constant_diagonals(40, {k: 9.9 for k in range(-3, 4)}), 10_000_000),
             [1.0, 0.3])
    # exponents far apart: the scan may stop only once the largest quotient
    # left is at most the smallest of their bests, not the largest
    @example((np.random.default_rng(0).normal(size=(8, 8)).astype(complex), 10_000_000),
             [1.0, 0.05])
    @settings(max_examples=200, deadline=None)
    def test_random_bands_match_rolled_scan(self, grid, alphas):
        vals, cap = grid
        x = SampledMetricSpace.torus(vals.shape[0])
        ests = _assert_matches_rolled(vals, x, alphas, cap)
        band = _skewed_band(vals)
        if band.shape[0] < vals.shape[0]:
            # the band itself as the input: the same scan, bit for bit
            by_band = estimate_holder_seminorm(band, x, alphas, pair_cap=cap, details=True)
            for b, est in zip(by_band, ests):
                assert float(b.value).hex() == float(est.value).hex()
                assert (b.truncated, b.pairs_used) == (est.truncated, est.pairs_used)

    @pytest.mark.parametrize("shape", [(9, 8), (3, 9), (8,), (2, 8, 8)])
    def test_array_shape_is_checked(self, shape):
        # (8, 8) is the grid and (w, 8) with w < 8 a band; nothing else
        with pytest.raises(ValueError, match="sampled values have shape"):
            estimate_holder_seminorm(np.ones(shape), SampledMetricSpace.torus(8), 0.5)

    @pytest.mark.parametrize("m, cap", [
        (96, 10_000_000),  # even: offset m/2, where the two halves meet
        (97, 10_000_000),
        (97, 97 * 20),     # a truncated ladder: 1..10, then geometric to 48
    ], ids=["even", "odd", "truncated"])
    def test_circle_scan_matches_rolled_scan(self, m, cap):
        x = SampledMetricSpace.circle(m)
        vals = _on_diagonals(m, range(m), 8)[0]
        vals[0], vals[-1] = 5.0, -5.0  # the largest jump straddles the seam
        offsets, truncated = _offset_ladder(m // 2, cap // m)
        assert m // 2 in offsets and truncated == (len(offsets) < m // 2)
        ref = max(np.max(np.abs(vals - np.roll(vals, -o))) / float(x.arc(o)) ** 0.4
                  for o in offsets)
        est = estimate_holder_seminorm(vals, x, 0.4, pair_cap=cap, details=True)
        assert est.value == ref
        assert est.truncated == truncated
        assert est.pairs_used == len(offsets) * m


def _tent(m):
    """0, 1, ..., m/2, ..., 1 around the circle: D(o) = o for o <= m/2, so
    below alpha = 1 every offset's quotient beats the last and none can be
    pruned, and the maximum sits at the largest offset."""
    idx = np.arange(m)
    return np.minimum(idx, m - idx).astype(complex)


def _decay_inputs(js=(2, 4, 8, 16)):
    """The benchmark's decay inputs (grid 256, j <= 16): the cutoff
    differences of both catalog (alpha, beta) pairs at level cap 12, each
    with its alpha."""
    for alpha, beta in ((0.3, 0.9), (0.2, 0.5)):
        f = lacunary_series(BoundedSequence.constant(1.0), beta, 12)
        for j in js:
            yield alpha, _cutoff_difference(256, j, f)


def _assert_matches_rolled(vals, x, alphas, cap):
    ests = estimate_holder_seminorm(vals, x, alphas, pair_cap=cap, details=True)
    for a, est in zip(alphas, ests):
        value, truncated, used = _rolled_scan(vals, x, a, cap)
        assert float(est.value).hex() == float(value).hex()
        assert (est.truncated, est.pairs_used) == (truncated, used)
        assert 0 < est.pairs_differenced <= est.pairs_used
    return ests


_TINY = 5e-324  # the smallest subnormal


class TestPruning:
    """The scans skip the shifts whose bounded difference cannot raise the
    running best of any exponent; every result equals the unpruned
    _rolled_scan bit for bit."""

    @pytest.mark.parametrize("kind, m, cap", [
        ("circle", 97, 97 * 20), ("circle", 1000, 1000 * 30),
        ("torus", 48, 50_000), ("torus", 64, 200_000),
    ])
    @pytest.mark.parametrize("alphas", [[0.3, 0.5, 1.0], [1.0, 0.05], [0.7]])
    def test_truncated_ladders_with_exponent_lists(self, kind, m, cap, alphas):
        vals = _on_diagonals(m, range(-3, 4), 10)
        x = SampledMetricSpace.torus(m)
        if kind == "circle":
            vals, x = vals[0] + np.cumsum(vals[1].real), SampledMetricSpace.circle(m)
        ests = _assert_matches_rolled(vals, x, alphas, cap)
        assert all(e.truncated for e in ests)

    @pytest.mark.parametrize("alphas", [[0.5], [1.0], [0.25, 1.0]])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_ties(self, alphas, seed):
        # integer samples and monomials: many shifts share one difference
        # and one quotient, so a bound can equal the best exactly
        rng = np.random.default_rng(seed)
        circle, torus = SampledMetricSpace.circle(64), SampledMetricSpace.torus(24)
        th = torus.angles()
        for vals, x in [
            (rng.integers(-2, 3, 64).astype(complex), circle),
            (rng.integers(-2, 3, (24, 24)).astype(complex), torus),
            (FourierSeries.monomial(3, exact=False).evaluate_grid(circle.angles()),
             circle),
            (np.outer(np.exp(1j * th), np.exp(-2j * th)), torus),
            (np.exp(1j * th)[None, :] + 0 * th[:, None], torus),
        ]:
            _assert_matches_rolled(vals, x, alphas, 10_000_000)

    @pytest.mark.parametrize("kind", ["circle", "torus"])
    def test_maximum_at_the_largest_offset(self, kind):
        m, a = 40, 0.5
        x = SampledMetricSpace.circle(m) if kind == "circle" else SampledMetricSpace.torus(m)
        vals = _tent(m) if kind == "circle" else np.repeat(_tent(m)[:, None], m, axis=1)
        est, = _assert_matches_rolled(vals, x, [a], 10_000_000)
        assert est.value == (m // 2) / float(x.arc(m // 2)) ** a

    def test_decay_inputs(self):
        for alpha, g in _decay_inputs():
            _assert_matches_rolled(g, SampledMetricSpace.torus(256), [alpha], 12_000_000)

    def test_witness_grids(self):
        f = lacunary_series(BoundedSequence.constant(1.0), 0.5, 12)
        for m in (1024, 2048, 4096):
            x = SampledMetricSpace.circle(m)
            _assert_matches_rolled(f.evaluate_grid(x.angles()), x, [0.5, 0.6],
                                   PAIR_CAP_DEFAULT)
        x = SampledMetricSpace.circle(4096)
        z = FourierSeries.monomial(1, exact=False).evaluate_grid(x.angles())
        _assert_matches_rolled(z, x, [1.0], PAIR_CAP_DEFAULT)

    @pytest.mark.parametrize("vals, alpha", [
        # among subnormals |s - t| can round above |s| + |t|: the bound's
        # absolute slack, not its relative margin, keeps these exact
        (np.array([0, 0, 0, -_TINY - _TINY * 1j, -_TINY, _TINY + _TINY * 1j, -_TINY]),
         0.05),
        (np.array([[_TINY + _TINY * 1j, _TINY * 1j], [0, -_TINY - _TINY * 1j]]), 0.05),
        (np.array([[_TINY * 1j, _TINY + _TINY * 1j], [-_TINY - _TINY * 1j, _TINY]]), 0.3),
    ], ids=["circle", "torus", "torus-2"])
    def test_subnormal_differences(self, vals, alpha):
        m = vals.shape[0]
        x = SampledMetricSpace.circle(m) if vals.ndim == 1 else SampledMetricSpace.torus(m)
        _assert_matches_rolled(vals.astype(complex), x, [alpha], 10_000_000)

    @pytest.mark.parametrize("m, slope", [
        (20, -0.02822662277018505 - 1.315175421045781j),
        (15, -0.9270452203121909 - 0.8470392205548865j),
    ])
    def test_rounding_ties_at_alpha_one(self, m, slope):
        # a tent of complex slope: at alpha = 1 every quotient is |slope|
        # up to rounding, and without the bound's relative margin a bound a
        # few units in the last place low skips the maximum
        _assert_matches_rolled(_tent(m) * slope, SampledMetricSpace.circle(m),
                               [1.0], 10_000_000)

    @pytest.mark.parametrize("seed", [569, 966])
    def test_skipped_offsets_keep_their_bound(self, seed):
        # a noisy wave: a skipped offset enters later circle bounds, and a
        # skipped offset taken as D = 0 makes one of them too low
        rng = np.random.default_rng(seed)
        m = int(rng.integers(8, 60))
        vals = (np.exp(2j * np.pi * np.arange(m) * rng.integers(1, 4) / m)
                + 0.3 * rng.normal(size=m))
        _assert_matches_rolled(vals, SampledMetricSpace.circle(m), [0.1], 10_000_000)

    @given(st.integers(2, 64), st.sampled_from(["palette", "normal", "wave"]),
           st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from([0.05, 0.3, 0.7, 1.0]), min_size=1, max_size=3),
           st.one_of(st.just(10_000_000), st.integers(1, 2000)))
    @settings(max_examples=200, deadline=None)
    def test_random_circles_match_rolled_scan(self, m, values, seed, alphas, cap):
        rng = np.random.default_rng(seed)
        if values == "palette":
            vals = np.array(_PALETTE)[rng.integers(len(_PALETTE), size=m)]
        elif values == "normal":
            vals = rng.normal(size=m) + 1j * rng.normal(size=m)
        else:
            vals = (np.exp(2j * np.pi * np.arange(m) * rng.integers(1, 4) / m)
                    + 0.3 * rng.normal(size=m))
        _assert_matches_rolled(vals, SampledMetricSpace.circle(m), alphas, cap)

    def test_pruning_skips_shifts_on_the_decay_input(self):
        # a regression of the bound, the skip or the best-first order shows
        # as a larger count: scanned in ladder order, this input (M = 256,
        # j = 4, alpha = 0.3) had 32 of its 364 shifts differenced
        _, g = next(_decay_inputs(js=(4,)))
        est = estimate_holder_seminorm(g, SampledMetricSpace.torus(256), 0.3,
                                       pair_cap=12_000_000, details=True)
        assert est.pairs_used == 364 * 256 ** 2
        assert est.pairs_differenced < 32 * 256 ** 2
        f = lacunary_series(BoundedSequence.constant(1.0), 0.5, 12)
        x = SampledMetricSpace.circle(4096)
        est = estimate_holder_seminorm(f, x, 0.5, details=True)
        assert est.pairs_differenced < est.pairs_used // 2

    @pytest.mark.parametrize("kind", ["circle", "torus"])
    def test_unprunable_input_differences_every_shift(self, kind):
        m = 32
        if kind == "circle":
            vals, x = _tent(m), SampledMetricSpace.circle(m)
        else:
            vals, x = np.repeat(_tent(m)[:, None], m, axis=1), SampledMetricSpace.torus(m)
        est = estimate_holder_seminorm(vals, x, 0.5, details=True)
        assert est.pairs_differenced == est.pairs_used

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf),
                                     complex(np.nan, 1.0)])
    @pytest.mark.parametrize("kind, where", [
        ("circle", 0), ("circle", 3), ("circle", 15), ("torus", (0, 0)),
        ("torus", (5, 2)),
    ])
    def test_non_finite_sample_is_rejected(self, bad, kind, where):
        # max(0.0, nan) is 0.0: a nan used to read as a zero seminorm
        m = 16 if kind == "circle" else 8
        vals = _on_diagonals(m, range(m), 11)
        x = SampledMetricSpace.torus(m)
        if kind == "circle":
            vals, x = vals[0], SampledMetricSpace.circle(m)
        vals[where] = bad
        with pytest.raises(ValueError, match="nan or infinite"):
            estimate_holder_seminorm(vals, x, [0.5, 1.0])


class TestGridBudget:
    def test_catalog_defaults_fit(self):
        assert SampledMetricSpace.circle(4096).size == 4096
        assert SampledMetricSpace.torus(1024).size == 1024
        assert SampledMetricSpace.circle(MAX_GRID_POINTS).size == MAX_GRID_POINTS

    @pytest.mark.parametrize("kind, m", [
        ("circle_grid", MAX_GRID_POINTS + 1), ("circle_grid", 10 ** 8),
        ("torus_grid", math.isqrt(MAX_GRID_POINTS) + 1), ("torus_grid", 10 ** 6),
    ])
    def test_oversized_grid_is_refused(self, kind, m):
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            SampledMetricSpace(kind, m)

    def test_decay_experiment_refuses_before_any_grid_array(self, monkeypatch):
        import chernlab.metric as metric
        monkeypatch.setattr(metric, "_values_on_grid", None)
        f = lacunary_series(BoundedSequence.constant(1.0), 0.9, 5)
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            diagonal_decay_experiment(f, 0.3, 0.9, [2, 4],
                                      SampledMetricSpace.circle(10 ** 6))


class TestSeveralExponents:
    """A sequence of exponents shares one scan and gives, for each
    exponent, the single-exponent result bit for bit."""

    ALPHAS = (0.3, 0.5, 1.0, 0.5)

    @pytest.mark.parametrize("kind, m, cap, truncated", [
        ("circle", 97, 10_000_000, False),
        ("circle", 97, 97 * 20, True),
        ("torus", 40, 10_000_000, False),
        ("torus", 48, 50_000, True),
    ])
    def test_matches_single_exponent_calls(self, kind, m, cap, truncated):
        vals = _on_diagonals(m, range(-3, 4), 9)
        if kind == "circle":
            vals, x = vals[0], SampledMetricSpace.circle(m)
        else:
            x = SampledMetricSpace.torus(m)
        many = estimate_holder_seminorm(vals, x, self.ALPHAS, pair_cap=cap,
                                        details=True)
        singles = [estimate_holder_seminorm(vals, x, a, pair_cap=cap, details=True)
                   for a in self.ALPHAS]
        assert [e.value.hex() for e in many] == [e.value.hex() for e in singles]
        assert many == singles
        assert all(e.truncated == truncated for e in many)

    def test_series_values_without_details(self):
        f = lacunary_series(BoundedSequence.constant(1.0), 0.5, 8)
        x = SampledMetricSpace.circle(512)
        many = estimate_holder_seminorm(f, x, np.array(self.ALPHAS))
        assert many == [estimate_holder_seminorm(f, x, a) for a in self.ALPHAS]
        assert estimate_holder_seminorm(f, x, [0.5]) == [many[1]]

    @pytest.mark.parametrize("alphas", [[], [0.5, 0.0], [1.5]])
    def test_bad_exponents_are_rejected(self, alphas):
        with pytest.raises(ValueError):
            estimate_holder_seminorm(FourierSeries.monomial(1, exact=False),
                                     SampledMetricSpace.circle(64), alphas)


class TestDeltaAlpha:
    def test_odd_under_swap(self):
        f = FourierSeries("circle", {2: 1.0 + 0.5j}, False)
        x = SampledMetricSpace.circle(64)
        v1 = delta_alpha(f, x, 0.5, (0.3, 1.1))
        v2 = delta_alpha(f, x, 0.5, (1.1, 0.3))
        assert v1 == pytest.approx(-v2)

    @given(st.floats(0.1, 6.0), st.floats(0.1, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_product_rule_exact_at_every_pair(self, a, b):
        if abs(a - b) < 1e-6 or abs(abs(a - b) - 2 * math.pi) < 1e-6:
            return
        f = FourierSeries("circle", {1: 1.0, -2: 0.25j}, False)
        g = FourierSeries("circle", {3: 0.5}, False)
        from chernlab.series import multiply
        x = SampledMetricSpace.circle(64)
        lhs = delta_alpha(multiply(f, g), x, 0.5, (a, b))
        rhs = delta_alpha(f, x, 0.5, (a, b)) * _evaluate(g, b) \
            + _evaluate(f, a) * delta_alpha(g, x, 0.5, (a, b))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_torus_pair_uses_the_max_arc(self):
        f = FourierSeries("torus", {(1, 0): 1.0, (0, -2): 0.5j}, False)
        x = SampledMetricSpace.torus(16)
        a, b = (0.1, 1.0), (6.2, 4.0)  # arcs 2 pi - 6.1 and 3.0

        def value(p):
            return np.exp(1j * p[0]) + 0.5j * np.exp(-2j * p[1])

        expected = (value(a) - value(b)) / 3.0 ** 0.5
        assert delta_alpha(f, x, 0.5, (a, b)) == pytest.approx(expected, abs=1e-12)

    def test_coincident_points_rejected(self):
        f = FourierSeries.monomial(1, exact=False)
        with pytest.raises(ValueError):
            delta_alpha(f, SampledMetricSpace.circle(64), 0.5, (0.3, 0.3))


class TestDecayExperiment:
    def test_trivial_for_constants(self):
        f = FourierSeries("circle", {0: 1.0}, False)
        rep = diagonal_decay_experiment(f, 0.3, 0.9, [2, 4, 8],
                                        SampledMetricSpace.circle(128))
        assert rep.trivial

    def test_norms_decrease_with_j(self):
        ones = BoundedSequence.constant(1.0)
        f = lacunary_series(ones, 0.9, 7)
        rep = diagonal_decay_experiment(f, 0.3, 0.9, [2, 4, 8, 16],
                                        SampledMetricSpace.circle(256),
                                        pair_cap=20_000_000)
        assert all(a >= b for a, b in zip(rep.norms, rep.norms[1:]))
        assert rep.slope < 0

    def test_requires_regularity_gap(self):
        f = FourierSeries.monomial(1, exact=False)
        with pytest.raises(ValueError):
            diagonal_decay_experiment(f, 0.9, 0.5)

    def test_cutoff_empty_on_the_grid_is_rejected(self):
        # 64 * 2 pi / 128 = pi: the cutoff is 0 at every off-diagonal pair
        f = FourierSeries.monomial(1, exact=False)
        x = SampledMetricSpace.circle(128)
        assert chi_profile(64 * x.arc(1)) == 0
        with pytest.raises(ValueError, match="j=\\[64\\]"):
            diagonal_decay_experiment(f, 0.3, 0.9, [2, 64], x)

    def test_csv_is_deterministic(self):
        ones = BoundedSequence.constant(1.0)
        f = lacunary_series(ones, 0.9, 5)
        x = SampledMetricSpace.circle(128)
        r1 = diagonal_decay_experiment(f, 0.3, 0.9, [2, 4], x)
        r2 = diagonal_decay_experiment(f, 0.3, 0.9, [2, 4], x)
        assert r1.to_csv() == r2.to_csv()

    @pytest.mark.parametrize("f, m, alpha, beta, js, cap, truncated", [
        (_decay_series(), 64, 0.3, 0.9, (2, 4), PAIR_CAP_DEFAULT, False),
        (_decay_series(), 97, 0.3, 0.9, (2, 4), PAIR_CAP_DEFAULT, True),
        (lacunary_series(BoundedSequence.constant(1.0), 0.9, 12), 256, 0.3, 0.9,
         (2, 4, 8, 16), 12_000_000, True),
        (lacunary_series(BoundedSequence.constant(1.0), 0.5, 12), 256, 0.2, 0.5,
         (2, 4, 8, 16), 12_000_000, True),
        (_decay_series(), 45, 0.3, 0.9, (2, 3, 5), PAIR_CAP_DEFAULT, False),
        (_decay_series(), 64, 0.2, 0.5, (2, 4, 8), 200_000, True),
        ((-1.0) ** np.arange(64) + 0j, 64, 0.3, 0.9, (2, 4), PAIR_CAP_DEFAULT, False),
    ], ids=["64", "97", "holder-grid-a0.3-b0.9", "holder-grid-a0.2-b0.5", "odd",
            "truncated", "dead-diagonals"])
    def test_norms_match_the_dense_cutoff_build(self, f, m, alpha, beta, js, cap,
                                                truncated):
        # each cutoff is built in band form on its live diagonals; the norms
        # equal those of the dense M x M build, sup norm and seminorm of the
        # dense g, bit for bit: complete scans (64 and the odd 45), truncated
        # ladders (97 at the default cap, 64 at a small one, and the
        # benchmark's grid 256 with both catalog exponent pairs), and
        # (-1)^a = z^(m/2) sampled exactly, whose even diagonals are zero
        # inside every cutoff's support
        rep = diagonal_decay_experiment(f, alpha, beta, list(js),
                                        SampledMetricSpace.circle(m), pair_cap=cap)
        dense = []
        for j in js:
            g = _cutoff_difference(m, j, f)
            est = estimate_holder_seminorm(g, SampledMetricSpace.torus(m), alpha,
                                           pair_cap=cap, details=True)
            dense.append(float(np.max(np.abs(g))) + est.value)
            assert est.truncated == truncated
        assert [n.hex() for n in rep.norms] == [n.hex() for n in dense]
        if isinstance(f, np.ndarray):
            a = np.arange(m)
            assert not g[a, (a + 2) % m].any() and g[a, (a + 1) % m].all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("where", [0, 5])
    def test_non_finite_sample_is_rejected(self, bad, where):
        x = SampledMetricSpace.circle(64)
        vals = _decay_series().evaluate_grid(x.angles())
        vals[where] = bad
        with pytest.raises(ValueError, match="nan or infinite"):
            diagonal_decay_experiment(vals, 0.3, 0.9, [2, 4], x)

    def test_no_product_grid_sized_array(self):
        # M = 1024, j >= 4: the widest cutoff lives on 81 diagonals, and the
        # peak, its difference rows, one cutoff's band and the scan's doubled
        # band and per-shift difference, measured 7.7 MiB, under half of one
        # M x M complex128 array (16 MiB); the bound leaves 2.3 MiB of
        # headroom, and the dense build peaked at 72 MiB
        x = SampledMetricSpace.circle(1024)
        f = lacunary_series(BoundedSequence.constant(1.0), 0.9, 12)
        tracemalloc.start()
        try:
            diagonal_decay_experiment(f, 0.3, 0.9, [4, 8, 16, 32, 64], x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20

    def test_nonpositive_pair_cap_is_rejected(self, monkeypatch):
        # rejected before the grid is evaluated
        import chernlab.metric as metric
        monkeypatch.setattr(metric, "_values_on_grid", None)
        for cap in (0, -1):
            with pytest.raises(ValueError, match="pair_cap"):
                estimate_holder_seminorm(FourierSeries.monomial(1, exact=False),
                                         SampledMetricSpace.torus(8), 0.5,
                                         pair_cap=cap)

    @pytest.mark.parametrize("js, match", [
        ([0, 2, 4], "j must be >= 1"),
        ([2, -1, 4], "j must be >= 1"),
        ([4], "at least two distinct"),
        ([4, 4], "at least two distinct"),
        ([], "at least two distinct"),
    ])
    def test_schedule_without_two_cutoffs_is_rejected(self, monkeypatch, js, match):
        # rejected before any seminorm scan: an empty schedule is not the
        # default one, and j = 0 is caught by the schedule check, not by LAPACK
        import chernlab.metric as metric
        monkeypatch.setattr(metric, "estimate_holder_seminorm", None)
        f = lacunary_series(BoundedSequence.constant(1.0), 0.9, 5)
        with pytest.raises(ValueError, match=match):
            diagonal_decay_experiment(f, 0.3, 0.9, js, SampledMetricSpace.circle(256))
