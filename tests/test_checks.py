"""Library argument checks: a bad call raises with a clear message before
any work."""
import numpy as np
import pytest

from chernlab.chains import LaurentChain, wedge
from chernlab.cocycles import (FredholmModuleSpec, check_cyclicity,
                               check_hochschild_cocycle, eval_c_omega,
                               eval_c_omega_wedge, eval_ch_CC, fast_path_partial_sums)
from chernlab.metric import SampledMetricSpace, estimate_holder_seminorm
from chernlab.operators import (OperatorModel, SingularValueSequence, commutator,
                                compose, multiplication_operator, product_diagonal,
                                weak_quasinorm)
from chernlab.series import FourierSeries
from chernlab.tracemean import LogMeanSeries, probe

Z = FourierSeries.monomial(1)
ZI = FourierSeries.monomial(-1)
TORUS_Z = FourierSeries.monomial((1, 0), domain="torus")
SPEC1 = FredholmModuleSpec("circle_F", 1)
SPEC3 = FredholmModuleSpec("circle_F", 3)
SV = SingularValueSequence(np.array([2.0, 1.0]), "test")

CHECKS = {
    "compose across domains": (
        lambda: compose([multiplication_operator(Z, 4),
                         multiplication_operator(TORUS_Z, 4)]),
        ValueError, "domain mismatch in composition"),
    "compose across bounds": (
        lambda: compose([multiplication_operator(Z, 4), multiplication_operator(Z, 8)]),
        ValueError, "bounds 4 vs 8"),
    "product_diagonal of one operator": (
        lambda: product_diagonal([multiplication_operator(Z, 4)], range(2)),
        ValueError, "at least two operators"),
    "commutator across domains": (
        lambda: commutator(OperatorModel("szego_P"), TORUS_Z, 4),
        ValueError, "domain mismatch: operator circle vs series torus"),
    "negative singular value": (
        lambda: SingularValueSequence(np.array([1.0, -0.5]), "test"),
        ValueError, "nonnegative"),
    "increasing singular values": (
        lambda: SingularValueSequence(np.array([1.0, 2.0]), "test"),
        ValueError, "nonincreasing"),
    "weak quasinorm at p = 0": (
        lambda: weak_quasinorm(SV, 0.0), ValueError, "exponent must be positive"),
    "weak quasinorm at p < 0": (
        lambda: weak_quasinorm(SV, -2.0), ValueError, "exponent must be positive"),
    "weak quasinorm of no values": (
        lambda: weak_quasinorm(SingularValueSequence(np.zeros(0), "test"), 2.0),
        ValueError, "empty singular value sequence"),
    "probe of two checkpoints": (
        lambda: probe(LogMeanSeries([(16, 1.0), (32, 1.0)])),
        ValueError, "at least 3 checkpoints"),
    "log-means across schedules": (
        lambda: LogMeanSeries([(16, 1.0)]) + LogMeanSeries([(32, 1.0)]),
        ValueError, "schedules differ"),
    "module of unknown kind": (
        lambda: FredholmModuleSpec("sphere_F", 1), ValueError, "unsupported module"),
    "module at p = 0": (
        lambda: FredholmModuleSpec("circle_F", 0), ValueError, "p must be positive"),
    "c_omega input count": (
        lambda: eval_c_omega(SPEC1, [Z]), ValueError, "takes 2 inputs, got 1"),
    "ch_CC input count": (
        lambda: eval_ch_CC(SPEC1, [Z, ZI, Z]), ValueError, "ch_CC at p=1 takes 2 inputs, got 3"),
    "ch_CC of no inputs": (
        lambda: eval_ch_CC(SPEC1, []), ValueError, "ch_CC at p=1 takes 2 inputs, got 0"),
    "coboundary input count": (
        lambda: check_hochschild_cocycle(SPEC1, [Z, ZI]), ValueError, "takes 4 inputs"),
    "cyclicity input count": (
        lambda: check_cyclicity(SPEC1, [Z]), ValueError, r"takes p\+1 inputs"),
    "wedge input count": (
        lambda: eval_c_omega_wedge(SPEC3, [Z, ZI, Z]), ValueError, "4-input form"),
    "wedge method": (
        lambda: eval_c_omega_wedge(SPEC3, [Z, ZI, Z, ZI], method="dense"),
        ValueError, "unknown wedge method 'dense'"),
    "fast path of a zero input": (
        lambda: fast_path_partial_sums([Z, FourierSeries("circle", {}, True), Z, ZI], [4]),
        ValueError, "mixed holomorphy"),
    "fast path pattern": (
        lambda: fast_path_partial_sums([ZI, Z, ZI, Z], [4]),
        ValueError, "undefined for holomorphy pattern"),
    "chain of a float factor": (
        lambda: LaurentChain.elementary([FourierSeries.monomial(1, exact=False), Z]),
        ValueError, "exact circle series"),
    "chain tensor length": (
        lambda: LaurentChain(1, {(Z,): 1}), ValueError, "does not match degree 1"),
    "wedge of one factor": (
        lambda: wedge([Z]), ValueError, "at least two factors"),
    "metric space of unknown kind": (
        lambda: SampledMetricSpace("sphere_grid", 8), ValueError, "unknown metric space"),
    "grid of one point": (
        lambda: SampledMetricSpace.circle(1), ValueError, "at least 2 points"),
    "sampled values of the wrong shape": (
        lambda: estimate_holder_seminorm(np.zeros(5), SampledMetricSpace.circle(8), 0.5),
        ValueError, r"shape \(5,\), expected \(8,\)"),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_bad_call_raises(case):
    call, error, message = CHECKS[case]
    with pytest.raises(error, match=message):
        call()
