"""Cocycle evaluators: exact traces, the fast-path double sum against the
operator diagonal, the closed-form projector product, and torus grading."""
import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernlab.scalars import QGauss
from chernlab.series import BoundedSequence, FourierSeries, lacunary_series
from chernlab.operators import (OperatorModel, SparseOperator, commutator, compose,
                                multiplication_operator, torus_shells)
from chernlab.cocycles import (CocycleConsistencyError, FredholmModuleSpec,
                               check_cyclicity, check_hochschild_cocycle,
                               connes_chern_constant, eval_c_omega,
                               eval_c_omega_wedge, eval_ch_CC, eval_h_omega,
                               fast_path_partial_sums, holomorphy_type,
                               pairing_normalization, szego_pair_diagonal,
                               torus_diagonal_kernel, torus_diagonal_operator)
from chernlab.experiments import _sequence_by_name
from chernlab.tracemean import diagonal_of, dyadic_schedule, log_mean

Z = FourierSeries.monomial(1)
ZI = FourierSeries.monomial(-1)
ONE = FourierSeries.one()
SPEC1 = FredholmModuleSpec("circle_F", 1)
SPEC3 = FredholmModuleSpec("circle_F", 3)


class TestModuleSpec:
    def test_parity_constraints(self):
        with pytest.raises(ValueError):
            FredholmModuleSpec("circle_F", 2)
        with pytest.raises(ValueError):
            FredholmModuleSpec("torus_F", 3)
        assert FredholmModuleSpec("torus_F", 2).domain == "torus"

    def test_normalization_constant(self):
        assert pairing_normalization(1) == 0.25
        assert pairing_normalization(3) == 0.0625


class TestExactCirclePairing:
    def test_generator_pairing_is_minus_four(self):
        ev = eval_c_omega(SPEC1, [Z, ZI])
        assert ev.exact_value == QGauss.of(-4)

    def test_powers_scale_with_winding(self):
        for n in (2, 3):
            zn = FourierSeries.monomial(n)
            zin = FourierSeries.monomial(-n)
            ev = eval_c_omega(SPEC1, [zn, zin])
            assert ev.exact_value == QGauss.of(-4 * n)

    def test_central_input_kills_the_value(self):
        ev = eval_c_omega(SPEC1, [ONE, Z])
        assert ev.exact_value.is_zero()

    def test_log_mean_saturates_to_trace_over_log(self):
        ev = eval_c_omega(SPEC1, [Z, ZI], dyadic_schedule(4, 12))
        n, v = ev.series.checkpoints[-1]
        assert v.real == pytest.approx(-4 / math.log(2 + n), rel=1e-12)


def _sign(k: int) -> int:
    return 1 if k >= 0 else -1


def dense_exact_trace(inputs, leading, window: int) -> QGauss:
    """Tr(F [leading] [F,b0]...[F,bp]) from dense QGauss matrices on
    |k| <= window, with entries a_(r-c) (sign r - sign c) for [F,a].

    [F,b] maps e_c into |k| <= max_frequency(b), and zero unless |c| is
    that small too, so a window of the summed bandwidths holds every path
    that reaches the trace.
    """
    idx = range(-window, window + 1)

    def matrix(a, commutes):
        return [[a.coeff(r - c) * ((_sign(r) - _sign(c)) if commutes else 1)
                 for c in idx] for r in idx]

    def product(x, y):
        n = len(idx)
        out = [[QGauss() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if x[i][k]:
                    for j in range(n):
                        if y[k][j]:
                            out[i][j] += x[i][k] * y[k][j]
        return out

    right = matrix(inputs[0], True)
    for b in inputs[1:]:
        right = product(right, matrix(b, True))
    left = [[QGauss.of(_sign(r) if r == c else 0) for c in idx] for r in idx]
    if leading is not None:
        left = product(left, matrix(leading, False))
    n = len(idx)
    return sum((left[i][j] * right[j][i] for i in range(n) for j in range(n)
                if left[i][j] and right[j][i]), QGauss())


def float_trace(inputs, leading, bound: int) -> complex:
    model = OperatorModel("circle_F")
    ops = [SparseOperator.diagonal_phase(model, bound)]
    if leading is not None:
        ops.append(multiplication_operator(leading, bound))
    ops += [commutator(model, b, bound) for b in inputs]
    return compose(ops).trace()


# non-dyadic rationals, so a float product of these is not exact; a
# nonzero real part keeps every drawn frequency in the support
_DENOMINATOR = st.sampled_from([3, 5, 7])
_COEFF = st.builds(QGauss,
                   st.builds(Fraction, st.integers(1, 3) | st.integers(-3, -1), _DENOMINATOR),
                   st.builds(Fraction, st.integers(-3, 3), _DENOMINATOR))
_EXACT_TRIG = st.dictionaries(st.integers(-2, 2), _COEFF, min_size=2, max_size=4).map(
    lambda c: FourierSeries("circle", c, True))


class TestExactTraceOracle:
    """The exact value of c and h on exact trigonometric polynomials is the
    trace of the untruncated finite-rank operator."""

    @given(st.sampled_from([1, 3]), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_exact_product_and_float_trace(self, p, with_leading, data):
        spec = FredholmModuleSpec("circle_F", p)
        a = data.draw(st.lists(_EXACT_TRIG, min_size=p + 1 + with_leading,
                               max_size=p + 1 + with_leading))
        schedule = dyadic_schedule(4, 6)
        if with_leading:
            leading, inputs = a[0], a[1:]
            got = eval_h_omega(spec, a, schedule).exact_value
            prefactor = p
        else:
            leading, inputs = None, a
            got = eval_c_omega(spec, a, schedule).exact_value
            prefactor = 1
        total = sum(s.max_frequency() for s in a)
        want = dense_exact_trace(inputs, leading, total)
        assert got == want * prefactor
        approx = float_trace(inputs, leading, 2 * total + 4) * prefactor
        assert abs(approx - got.to_complex()) <= 1e-12 * max(1.0, abs(approx))


class TestHochschild:
    def test_leading_one_reduces_to_p_times_cyclic(self):
        h = eval_h_omega(SPEC1, [ONE, Z, ZI])
        c = eval_c_omega(SPEC1, [Z, ZI])
        assert h.exact_value == c.exact_value * 1
        assert np.array_equal(h.diagonal.values, c.diagonal.values)

    def test_coboundary_probe_vanishes_on_polynomials(self):
        inputs = [FourierSeries("circle", {1: 0.3, -2: 0.1j}, False)
                  for _ in range(4)]
        ev = check_hochschild_cocycle(SPEC1, inputs, dyadic_schedule(4, 18))
        assert abs(ev.series.last()) < 1e-3

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            eval_h_omega(SPEC1, [Z, ZI])

    def test_domain_checked(self):
        torus_one = FourierSeries.one("torus")
        with pytest.raises(ValueError, match="input domain does not match the module"):
            eval_h_omega(SPEC1, [torus_one, Z, ZI])
        with pytest.raises(ValueError, match="input domain does not match the module"):
            eval_c_omega(SPEC1, [torus_one, Z])


class TestCyclicity:
    def test_exact_defect_sums_to_zero(self):
        ev = check_cyclicity(SPEC1, [Z, ZI])
        assert complex(np.sum(ev.diagonal.values)) == 0


class TestFastPath:
    def test_holomorphy_classifier(self):
        assert holomorphy_type(Z) == "analytic"
        assert holomorphy_type(ZI) == "anti"
        assert holomorphy_type(FourierSeries("circle", {1: 1.0, -1: 1.0},
                                             False)) == "mixed"

    def test_adjacent_same_side_patterns_vanish(self):
        a = lacunary_series(BoundedSequence.constant(1.0), 0.25, 5)
        sums = fast_path_partial_sums([a, a, a.star(), a.star()], [64])
        assert np.all(sums == 0)

    def test_mixed_inputs_rejected(self):
        mixed = FourierSeries("circle", {1: 1.0, -1: 1.0}, False)
        with pytest.raises(ValueError):
            fast_path_partial_sums([mixed, ZI, Z, ZI], [16])

    def test_double_sum_matches_brute_force(self):
        rng = np.random.default_rng(2)
        mk = lambda sgn: FourierSeries(
            "circle", {sgn * int(k): complex(*rng.standard_normal(2))
                       for k in rng.integers(1, 9, size=4)}, False)
        b = [mk(1), mk(-1), mk(1), mk(-1)]
        c = [dict(s.coeffs) for s in b]
        for n in (4, 16, 64):
            brute = 0j
            for k, b0k in c[0].items():
                if k >= n:
                    continue
                for m, b2m in c[2].items():
                    if m < k:
                        continue
                    brute += k * b0k * b2m * (
                        c[1].get(-m, 0) * c[3].get(-k, 0)
                        - c[1].get(-k, 0) * c[3].get(-m, 0))
            got = fast_path_partial_sums(b, [n])[0]
            assert got == pytest.approx(brute, abs=1e-12)

    def test_wedge_limit_on_lacunary_quadruple(self):
        alt = BoundedSequence.from_function(lambda j: (-1.0) ** j, 1.0)
        a0 = lacunary_series(alt, 0.25, 40)
        a2 = lacunary_series(BoundedSequence.constant(1.0), 0.25, 40)
        ev = eval_c_omega_wedge(SPEC3, [a0, a0.star(), a2, a2.star()],
                                dyadic_schedule(8, 20))
        target = -2 * math.sqrt(2) / math.log(2)
        assert ev.probe_result.extrap == pytest.approx(target, rel=0.02)
        assert not ev.probe_result.oscillating


class TestWedgeOperatorPath:
    def test_small_window_paths_share_normalization(self):
        # at tiny level caps both paths see the same truncated inputs; they
        # still disagree, with a cause that is open (ROADMAP.md item 2,
        # check 2b), so only the order of magnitude is pinned here
        alt = BoundedSequence.from_function(lambda j: (-1.0) ** j, 1.0)
        a0 = lacunary_series(alt, 0.25, 6)
        a2 = lacunary_series(BoundedSequence.constant(1.0), 0.25, 6)
        quad = [a0, a0.star(), a2, a2.star()]
        sched = dyadic_schedule(4, 8)
        fast = eval_c_omega_wedge(SPEC3, quad, sched, method="fast")
        oper = eval_c_omega_wedge(SPEC3, quad, sched, method="operator")
        assert np.max(np.abs(oper.series.values())) < 10
        assert np.max(np.abs(fast.series.values())) < 10

    def test_shared_products_equal_per_permutation_diagonals(self):
        # the evaluator forms each sparse product once; summing diagonal_of
        # over the six full five-factor products must give the same bits
        alt = BoundedSequence.from_function(lambda j: (-1.0) ** j, 1.0)
        a0 = lacunary_series(alt, 0.25, 6)
        a2 = lacunary_series(BoundedSequence.constant(1.0), 0.25, 6)
        quad = [a0, a0.star(), a2, a2.star()]
        sched = dyadic_schedule(4, 8)
        oper = eval_c_omega_wedge(SPEC3, quad, sched, method="operator")
        max_n = max(sched)
        bound = sum(s.max_frequency() for s in quad) + max_n + 4
        f_model = OperatorModel("circle_F")
        f_diag = SparseOperator.diagonal_phase(f_model, bound)
        comms = [commutator(f_model, s, bound) for s in quad]
        total = None
        for perm in permutations((1, 2, 3)):
            inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
            ops = [f_diag, comms[0]] + [comms[j] for j in perm]
            term = diagonal_of(ops, range(max_n)).scale((-1) ** inversions)
            total = term if total is None else total + term
        want = total.scale(0.5 * pairing_normalization(3)).values
        assert np.any(want != 0)
        assert np.array_equal(oper.diagonal.values, want)


class TestChCC:
    def test_constants(self):
        assert connes_chern_constant(1) == pytest.approx(
            (1 + 1j) * math.gamma(1.5))
        assert connes_chern_constant(2) == pytest.approx(-math.gamma(2.0))

    def test_value_and_stability(self):
        ev = eval_ch_CC(SPEC1, [Z, ZI])
        assert ev.exact_value == pytest.approx(connes_chern_constant(1) * -4)
        assert ev.window_drift == 0.0
        assert ev.raw_trace == -4


class TestSzegoClosedForm:
    def test_matches_brute_double_sum(self):
        c1 = BoundedSequence.from_function(lambda j: (-1.0) ** j, 1.0)
        c2 = BoundedSequence.constant(1.0)
        d = szego_pair_diagonal(c1, c2, 8, 300)
        for k in (0, 1, 2, 5, 17, 128, 299):
            want = sum((-1.0) ** j * 2.0 ** -j
                       for j in range(9) if (1 << j) > k)
            assert d.dense()[k].real == pytest.approx(want, abs=1e-14)

    def test_finite_tail_flag(self):
        ones = BoundedSequence.constant(1.0)
        assert szego_pair_diagonal(ones, ones, 4, 16).finite_tail
        assert not szego_pair_diagonal(ones, ones, 8, 16).finite_tail

    @pytest.mark.parametrize("name", ["ones", "half-after-8", "two-plus-geometric",
                                      "threequarter-alternating",
                                      "dyadic-block-alternating"])
    def test_run_sums_equal_fsum_of_dense(self, name):
        seq, _ = _sequence_by_name(name)
        d = szego_pair_diagonal(seq, BoundedSequence.constant(1.0), 20, 1 << 14)
        assert d.lengths is not None
        dense = d.dense()
        for n, v in log_mean(d, dyadic_schedule(4, 14)).checkpoints:
            assert v.real == math.fsum(dense.real[:n]) / math.log(2 + n)
            assert v.imag == math.fsum(dense.imag[:n]) / math.log(2 + n)

    def test_run_sums_inside_a_run(self):
        c1 = BoundedSequence.from_function(lambda j: (0.5 + 1j) ** (j % 3), 1.3)
        d = szego_pair_diagonal(c1, BoundedSequence.constant(1.0), 20, 300)
        dense = d.dense()
        for n, v in log_mean(d, [100, 257]).checkpoints:
            want = complex(math.fsum(dense.real[:n]), math.fsum(dense.imag[:n]))
            assert v == pytest.approx(want / math.log(2 + n), abs=1e-15)
        with pytest.raises(ValueError):
            log_mean(d, [301])

    def test_finite_tail_sums_past_cap(self):
        ones = BoundedSequence.constant(1.0)
        d = szego_pair_diagonal(ones, ones, 4, 16)
        v = log_mean(d, [1000]).last()
        assert v == math.fsum(d.dense().real) / math.log(1002)

    def test_long_cap_is_held_in_runs(self):
        ones = BoundedSequence.constant(1.0)
        tracemalloc.start()
        try:
            d = szego_pair_diagonal(ones, ones, 50, 1 << 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.cap == 1 << 24
        assert len(d.values) <= 52
        assert peak < 1 << 20

    @pytest.mark.parametrize("alpha", [0.45, 0.5, 0.55])
    def test_prefix_sums_match_closed_form(self, alpha):
        # sum_{k<N} d_k = sum_j gamma_j 2^(-2 alpha j) min(2^j, N)
        ones = BoundedSequence.constant(1.0)
        d = szego_pair_diagonal(ones, ones, 50, 1 << 24, alpha)
        for n, v in log_mean(d, dyadic_schedule(4, 24)).checkpoints:
            want = math.fsum(2.0 ** (-2 * alpha * j) * min(1 << j, n) for j in range(51))
            assert v.real == pytest.approx(want / math.log(2 + n), rel=1e-15)
            assert v.imag == 0.0


class TestTorusGrading:
    def test_operator_equals_kernel_on_small_shells(self):
        rng = np.random.default_rng(9)
        mk = lambda: FourierSeries(
            "torus", {(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))):
                      complex(*rng.standard_normal(2)) for _ in range(4)}, False)
        a0, a1, a2 = mk(), mk(), mk()
        pts = torus_shells(30)
        d_op = torus_diagonal_operator([a0, a1, a2], pts)
        d_ker = torus_diagonal_kernel(a0, a1, a2, pts)
        assert np.max(np.abs(d_op - d_ker)) < 1e-12

    def test_torus_eval_uses_shell_order(self):
        spec = FredholmModuleSpec("torus_F", 2)
        f = FourierSeries("torus", {(1, 0): 1.0, (-1, 0): 1.0,
                                    (0, 1): 0.5}, False)
        ev = eval_c_omega(spec, [f, f, f], n_shells=12)
        assert ev.series is not None
        assert len(ev.diagonal.values) == len(torus_shells(12))
