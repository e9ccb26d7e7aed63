"""Log-mean checkpoints, compensated prefix sums, and the limit probe."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernlab.tracemean import (DiagonalSequence, LogMeanSeries,
                                NORMALIZATION_TAG, dyadic_schedule, log_mean,
                                probe)


class TestLogMean:
    def test_prefix_convention_on_ones(self):
        d = DiagonalSequence(np.ones(1 << 10))
        series = log_mean(d, dyadic_schedule(4, 10))
        for n, v in series.checkpoints:
            assert v.real == pytest.approx(n / math.log(2 + n), rel=1e-12)
        assert series.normalization == NORMALIZATION_TAG

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        d = DiagonalSequence(vals)
        series = log_mean(d, [100, 1000, 5000])
        for n, v in series.checkpoints:
            want = (math.fsum(vals.real[:n]) + 1j * math.fsum(vals.imag[:n])) \
                / math.log(2 + n)
            assert v == pytest.approx(want, abs=1e-13)

    def test_cap_without_finite_tail_raises(self):
        d = DiagonalSequence(np.ones(100))
        with pytest.raises(ValueError):
            log_mean(d, [1000])

    @pytest.mark.parametrize("schedule", [[], [1 << 15, 1 << 14], [16, 16], [0, 16]])
    def test_schedule_must_be_positive_and_strictly_increasing(self, schedule):
        # the prefix sums advance a chunk cursor forward only, so a decreasing
        # schedule would read a later prefix sum at an earlier N
        d = DiagonalSequence(np.ones(1 << 16))
        with pytest.raises(ValueError, match="strictly increasing"):
            log_mean(d, schedule)

    def test_dyadic_schedule(self):
        assert dyadic_schedule(4, 6) == [16, 32, 64]
        assert dyadic_schedule(3, 3) == [8]
        with pytest.raises(ValueError, match="empty dyadic schedule"):
            dyadic_schedule(8, 3)

    def test_finite_tail_extends_past_cap(self):
        d = DiagonalSequence(np.ones(100), finite_tail=True)
        series = log_mean(d, [1000])
        assert series.last().real == pytest.approx(100 / math.log(1002))

    def test_add_requires_finite_tail_on_shorter(self):
        a = DiagonalSequence(np.ones(10))
        b = DiagonalSequence(np.ones(20))
        with pytest.raises(ValueError):
            a + b
        c = DiagonalSequence(np.ones(10), finite_tail=True) + b
        assert c.cap == 20
        assert c.values[5] == 2.0 and c.values[15] == 1.0


class TestRunForm:
    RUNS = DiagonalSequence([1.0, 2.0 - 1.0j, 0.5j, 0.0], True, [1, 4, 3, 2])

    def test_dense_expands_runs(self):
        assert self.RUNS.cap == 10
        assert np.array_equal(self.RUNS.dense(),
                              [1, 2 - 1j, 2 - 1j, 2 - 1j, 2 - 1j, 0.5j, 0.5j, 0.5j, 0, 0])

    def test_add_and_scale_match_dense(self):
        dense = DiagonalSequence(self.RUNS.dense(), True)
        other = DiagonalSequence(np.arange(12.0) * (1 - 0.25j))
        assert np.array_equal((self.RUNS + other).values, (dense + other).values)
        assert np.array_equal((other + self.RUNS).values, (other + dense).values)
        scaled = self.RUNS.scale(1.5 - 2.0j)
        assert scaled.lengths is not None
        assert np.array_equal(scaled.dense(), dense.scale(1.5 - 2.0j).values)

    def test_lengths_must_match_values(self):
        with pytest.raises(ValueError):
            DiagonalSequence([1.0, 2.0], lengths=[3])
        with pytest.raises(ValueError):
            DiagonalSequence([1.0, 2.0], lengths=[3, -1])


class TestProbe:
    def test_recovers_linear_in_inverse_m(self):
        cps = [(1 << m, 3.0 + 5.0 / m) for m in range(4, 21)]
        pr = probe(LogMeanSeries(cps))
        assert pr.extrap == pytest.approx(3.0, abs=1e-9)
        assert pr.residual < 1e-9
        assert not pr.oscillating and not pr.diverging

    def test_flags_oscillation(self):
        cps = [(1 << m, 1.0 + 0.5 * (-1) ** m) for m in range(4, 21)]
        pr = probe(LogMeanSeries(cps))
        assert pr.oscillating
        assert pr.max - pr.min == pytest.approx(1.0)

    def test_flags_divergence(self):
        cps = [(1 << m, float(2 ** m)) for m in range(4, 21)]
        pr = probe(LogMeanSeries(cps))
        assert pr.diverging

    def test_component_selection(self):
        cps = [(1 << m, 1.0 + 2.0j) for m in range(4, 12)]
        pr = probe(LogMeanSeries(cps))
        assert pr.component == "abs"
        assert pr.last == pytest.approx(abs(1 + 2j))

    def test_json_round_trip_keys(self):
        import json
        cps = [(1 << m, 1.0) for m in range(4, 12)]
        d = json.loads(probe(LogMeanSeries(cps)).to_json())
        assert set(d) >= {"min", "max", "mean", "last", "extrap",
                          "residual", "oscillating"}


class TestSeriesContainer:
    def test_csv_format_and_determinism(self):
        cps = [(16, 0.123456789012345), (32, 1e-13 + 2.0j * 0), (48, 1.5)]
        s = LogMeanSeries(cps)
        out = s.to_csv()
        assert out == s.to_csv()
        lines = out.splitlines()
        assert lines[0] == f"# normalization={NORMALIZATION_TAG}"
        assert lines[1] == "m,N,value"
        assert lines[2] == "4,16,0.123456789012"
        # a label is log2(N), also where N is not a power of two
        assert lines[4] == "5.58496,48,1.5"
        assert np.array_equal(s.labels(), [4.0, 5.0, math.log2(48)])

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_add_and_scale_are_pointwise(self, vals):
        cps = [(1 << (m + 4), v) for m, v in enumerate(vals)]
        s = LogMeanSeries(cps)
        doubled = (s + s).values()
        assert np.allclose(doubled, s.scale(2.0).values())
