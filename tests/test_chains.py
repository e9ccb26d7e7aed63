"""Exact chain algebra: boundary, rotation, wedge, and pairing."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chernlab.scalars import QGauss
from chernlab.series import FourierSeries
from chernlab.chains import (LaurentChain, boundary_b, cyclic_lambda, pair,
                             wedge)
from chernlab.cocycles import FredholmModuleSpec, eval_c_omega

Z = FourierSeries.monomial(1)
ZI = FourierSeries.monomial(-1)
ONE = FourierSeries.one()


def exact_series():
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    entry = st.tuples(st.integers(-3, 3), coeff)
    return st.lists(entry, min_size=1, max_size=3).map(
        lambda items: FourierSeries(
            "circle", {k: QGauss(c, Fraction(0)) for k, c in items}, True))


def chains(degree):
    return st.lists(st.tuples(st.lists(exact_series(), min_size=degree + 1,
                                       max_size=degree + 1),
                              st.integers(-2, 2)),
                    min_size=1, max_size=3).map(
        lambda terms: sum((LaurentChain.elementary(t, w) for t, w in terms),
                          LaurentChain.zero(degree)))


class TestBoundary:
    def test_two_term_example_by_hand(self):
        x = LaurentChain.elementary([Z, ZI])
        bx = boundary_b(x)
        # b(z (x) z^-1) = z z^-1 - z^-1 z = 0
        assert bx.is_zero()

    def test_non_commutative_pattern_survives(self):
        x = LaurentChain.elementary([Z, Z, ZI])
        bx = boundary_b(x)
        # terms: z^2 (x) z^-1 - z (x) 1 + z^-1 z (x) z = z^2 (x) z^-1
        # - z (x) 1 + 1 (x) z
        assert len(bx.terms) == 3

    @given(chains(2))
    @settings(max_examples=40, deadline=None)
    def test_boundary_squares_to_zero(self, x):
        assert boundary_b(boundary_b(x)).is_zero()

    @given(chains(3))
    @settings(max_examples=20, deadline=None)
    def test_boundary_squares_to_zero_degree_three(self, x):
        assert boundary_b(boundary_b(x)).is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            boundary_b(LaurentChain.elementary([Z]))


class TestRotation:
    @given(chains(1))
    @settings(max_examples=25, deadline=None)
    def test_two_fold_rotation_is_identity_degree_one(self, x):
        assert cyclic_lambda(cyclic_lambda(x)) == x

    @given(chains(2))
    @settings(max_examples=25, deadline=None)
    def test_three_fold_rotation_is_identity_degree_two(self, x):
        y = x
        for _ in range(3):
            y = cyclic_lambda(y)
        assert y == x

    def test_sign_convention(self):
        x = LaurentChain.elementary([Z, ZI])
        assert cyclic_lambda(x) == LaurentChain.elementary([ZI, Z], -1)


class TestWedge:
    def test_swap_flips_sign(self):
        a = [ONE, Z, ZI, FourierSeries.monomial(2)]
        swapped = [ONE, ZI, Z, FourierSeries.monomial(2)]
        assert wedge(a) == wedge(swapped).scale(-1)

    def test_repeated_factor_kills_the_wedge(self):
        assert wedge([ONE, Z, Z, ZI]).is_zero()

    @given(st.lists(exact_series(), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_wedge_is_a_cycle(self, a):
        assert boundary_b(wedge(a)).is_zero()


class TestPairing:
    def test_exact_combination(self):
        spec = FredholmModuleSpec("circle_F", 1)
        chain = LaurentChain.elementary([Z, ZI], 2) + \
            LaurentChain.elementary([FourierSeries.monomial(2),
                                     FourierSeries.monomial(-2)], -1)
        res = pair(lambda t: eval_c_omega(spec, list(t)), chain)
        # 2 * (-4) - (-8) = 0
        assert res.exact_value.is_zero()

    def test_zero_chain_pairs_to_zero(self):
        res = pair(lambda t: 1.0, LaurentChain.zero(1))
        assert res.exact_value.is_zero()

    def test_wedge_chain_pairing_matches_antisymmetrized_evaluator(self):
        import math
        import numpy as np
        from chernlab.series import BoundedSequence, lacunary_series
        from chernlab.cocycles import (eval_c_omega_wedge,
                                       fast_path_partial_sums)
        from chernlab.tracemean import LogMeanSeries, dyadic_schedule

        alt = BoundedSequence(lambda j: (-1.0) ** j, 1.0)
        # every double is a dyadic rational, so the exact copies are lossless
        a0, a2 = (FourierSeries("circle", dict(lacunary_series(c, 0.25, 10).coeffs), True)
                  for c in (alt, BoundedSequence.constant(1.0)))
        quad = [a0, a0.star(), a2, a2.star()]
        schedule = dyadic_schedule(4, 12)

        def recipe(tensor):
            vals = fast_path_partial_sums(list(tensor), schedule)
            return LogMeanSeries([(n, v / math.log(2 + n))
                                  for n, v in zip(schedule, vals)])

        paired = pair(recipe, wedge(quad))
        spec = FredholmModuleSpec("circle_F", 3)
        direct = eval_c_omega_wedge(spec, quad, schedule, method="fast")
        # the evaluator reports half the wedge sum
        assert np.allclose(paired.series.values(),
                           direct.series.scale(2.0).values(), atol=1e-12)
