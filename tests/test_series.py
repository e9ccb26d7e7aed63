"""Series algebra, exact scalars, and text serialization."""
import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from chernlab.scalars import QGauss, format_rational
from chernlab.series import (BoundedSequence, FourierSeries, cross,
                             lacunary_series, multiply, series_to_text)


def small_series(max_support=4, max_freq=5):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entry = st.tuples(st.integers(-max_freq, max_freq), coeff, coeff)
    return st.lists(entry, min_size=0, max_size=max_support).map(
        lambda items: FourierSeries(
            "circle", {k: QGauss(re, im) for k, re, im in items}, True))


class TestScalars:
    def test_arithmetic(self):
        a = QGauss(Fraction(1, 2), Fraction(-3))
        b = QGauss(Fraction(2), Fraction(1, 3))
        assert (a + b).re == Fraction(5, 2)
        assert (a * b).re == Fraction(1, 2) * 2 - Fraction(-3) * Fraction(1, 3)
        assert (a - a).is_zero()
        assert a.conjugate().im == Fraction(3)
        assert complex(a.to_complex()) == 0.5 - 3j

    @given(*[st.integers(-10**6, 10**6)] * 4)
    @settings(max_examples=100, deadline=None)
    def test_int_components_agree_with_fractions(self, a, b, c, d):
        # an int component is a cheap stand-in for the equal Fraction
        x, y = QGauss(a, b), QGauss(c, d)
        fx, fy = QGauss(Fraction(a), Fraction(b)), QGauss(Fraction(c), Fraction(d))
        for got, want in [(x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy),
                          (-x, -fx), (x.conjugate(), fx.conjugate()),
                          (x + 3, fx + 3), (2 * x, 2 * fx)]:
            assert got == want and hash(got) == hash(want)
            assert str(got.re) == str(want.re) and str(got.im) == str(want.im)
            assert got.to_complex() == want.to_complex()
        assert (x == y) == (fx == fy)

    def test_components_stay_int_until_a_fraction_enters(self):
        assert type(QGauss.of(3).re) is int and type(QGauss().im) is int
        assert type((QGauss.of(3) * QGauss(2, -1)).im) is int
        prod = QGauss.of(3) * Fraction(1, 3)
        assert type(prod.re) is Fraction and type(prod.im) is Fraction
        assert prod == QGauss.of(1)
        # bool, numpy integers and floats still become Fractions
        for value in (True, np.int64(3), 0.5):
            assert type(QGauss.of(value).re) is Fraction

    def test_rational_text(self):
        assert format_rational(Fraction(-7, 3)) == "-7/3"
        assert format_rational(-7) == "-7"


class TestSeriesAlgebra:
    def test_monomial_and_coeff(self):
        z = FourierSeries.monomial(1)
        assert z.coeffs.get(1, QGauss()) == QGauss.of(1)
        assert z.coeffs.get(2, QGauss()).is_zero()
        assert z.max_frequency() == 1

    def test_star_conjugates_and_flips(self):
        f = FourierSeries("circle", {2: QGauss(Fraction(1), Fraction(1))}, True)
        g = f.star()
        assert g.coeffs.get(-2, QGauss()) == QGauss(Fraction(1), Fraction(-1))

    def test_multiply_matches_dense_convolution(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            fa = {int(k): complex(*rng.standard_normal(2))
                  for k in rng.integers(-6, 7, size=5)}
            fb = {int(k): complex(*rng.standard_normal(2))
                  for k in rng.integers(-6, 7, size=5)}
            a = FourierSeries("circle", fa, False)
            b = FourierSeries("circle", fb, False)
            prod = multiply(a, b)
            for k in range(-15, 16):
                direct = sum(v * fb.get(k - i, 0) for i, v in fa.items())
                assert prod.coeffs.get(k, 0j) == pytest.approx(direct, abs=1e-12)

    @given(small_series(), small_series())
    @settings(max_examples=40, deadline=None)
    def test_multiply_commutative(self, a, b):
        assert multiply(a, b) == multiply(b, a)

    @given(small_series(2, 3), small_series(2, 3), small_series(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_multiply_associative(self, a, b, c):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @given(small_series())
    @settings(max_examples=30, deadline=None)
    def test_star_is_involutive(self, a):
        assert a.star().star() == a

    def test_evaluate_consistent_with_coeffs(self):
        f = FourierSeries("circle", {1: 1.0, -2: 0.5j}, False)
        th = 0.7
        expected = np.exp(1j * th) + 0.5j * np.exp(-2j * th)
        assert f.evaluate_grid(np.array([th]))[0] == pytest.approx(expected)

    @given(small_series())
    @settings(max_examples=30, deadline=None)
    def test_stored_key_ignores_insertion_order(self, a):
        rebuilt = FourierSeries(a.domain, dict(reversed(list(a.coeffs.items()))), a.exact)
        assert rebuilt == a and hash(rebuilt) == hash(a)

    def test_torus_cross(self):
        assert cross((1, 0), (0, 1)) == 1
        assert cross((2, 3), (4, 6)) == 0
        assert cross((1, 2), (3, 4)) == -cross((3, 4), (1, 2))


class TestLacunary:
    def test_coefficients_sit_on_powers_of_two(self):
        c = BoundedSequence(lambda j: (-1.0) ** j, 1.0)
        f = lacunary_series(c, 0.5, 6)
        assert sorted(f.support()) == [2 ** j for j in range(7)]
        assert f.coeffs.get(8, 0j) == pytest.approx((-1) ** 3 * 2 ** -1.5)

    def test_rejects_bad_exponent(self):
        ones = BoundedSequence.constant(1.0)
        with pytest.raises(ValueError):
            lacunary_series(ones, 0.0, 4)
        with pytest.raises(ValueError):
            lacunary_series(ones, 1.0, 4)
        with pytest.raises(ValueError):
            lacunary_series(ones, 0.5, 70)

    def test_bounded_sequence_enforces_bound(self):
        seq = BoundedSequence(lambda j: float(j), 4.0)
        with pytest.raises(ValueError):
            seq(10)

    def test_bounded_sequence_constructors(self):
        const = BoundedSequence.constant(-0.5j)
        assert [const(k) for k in (0, 7, 1000)] == [-0.5j] * 3
        assert const.bound == 0.5
        vals = [1.0, -3.0, 2.0j]
        listed = BoundedSequence(lambda k: vals[k] if k < len(vals) else 0.0, 3.0)
        assert [listed(k) for k in range(5)] == [1.0, -3.0, 2.0j, 0.0, 0.0]
        alt = BoundedSequence(lambda j: (-1.0) ** j, 1.0)
        assert [alt(k) for k in range(4)] == [1.0, -1.0, 1.0, -1.0]
        with pytest.raises(IndexError):
            listed(-1)


def _series_from_text(text: str) -> FourierSeries:
    """Parse series_to_text's format: the header line, then one line per
    coefficient, the frequency and the real and imaginary parts."""
    header, *lines = text.strip().splitlines()
    if not header.startswith("#"):
        raise ValueError("missing series header line")
    fields = dict(tok.split("=") for tok in header.lstrip("# ").split())
    domain, exact = fields["domain"], fields["exact"] == "1"
    width = 1 if domain == "circle" else 2
    coeffs = {}
    for line in lines:
        parts = line.split()
        k = int(parts[0]) if width == 1 else (int(parts[0]), int(parts[1]))
        re_s, im_s = parts[width:]
        coeffs[k] = (QGauss(Fraction(re_s), Fraction(im_s)) if exact
                     else complex(float(re_s), float(im_s)))
    return FourierSeries(domain, coeffs, exact)


class TestSerialization:
    def test_round_trip_exact(self):
        f = FourierSeries("circle",
                          {3: QGauss(Fraction(1, 2), Fraction(-2, 3)),
                           -1: QGauss(Fraction(4), Fraction(0))}, True)
        g = _series_from_text(series_to_text(f))
        assert g == f and g.exact

    def test_round_trip_float_torus(self):
        f = FourierSeries("torus", {(1, -2): 0.25 + 0.5j, (0, 3): -1.0}, False)
        g = _series_from_text(series_to_text(f))
        assert g.domain == "torus" and not g.exact
        for k, v in f.coeffs.items():
            assert g.coeffs.get(k, 0j) == pytest.approx(v, abs=1e-12)

    def test_header_carries_domain_and_exactness(self):
        f = FourierSeries.monomial(1)
        text = series_to_text(f)
        assert text.splitlines()[0] == "# domain=circle exact=1"
