"""chernlab: a numerical verification laboratory for singular Chern
characters on Holder function algebras over the circle and the torus."""

from .scalars import QGauss
from .series import (BoundedSequence, FourierSeries, cross, lacunary_series,
                     multiply, series_to_text)
from .operators import (OperatorModel, SingularValueSequence, SparseOperator,
                        WindowLeakageError, commutator, compose,
                        multiplication_operator, product_diagonal,
                        singular_values, symmetric_order, torus_shells,
                        weak_quasinorm)
from .tracemean import (DiagonalSequence, ExtendedLimitProbe, LogMeanSeries,
                        diagonal_of, dyadic_schedule, log_mean, probe)
from .cocycles import (CochainEvaluation, CocycleConsistencyError,
                       FredholmModuleSpec, check_cyclicity,
                       check_hochschild_cocycle, eval_c_omega,
                       eval_c_omega_wedge, eval_ch_CC, eval_h_omega,
                       fast_path_partial_sums, pairing_normalization,
                       szego_pair_diagonal, torus_diagonal_kernel,
                       torus_diagonal_operator)
from .chains import LaurentChain, boundary_b, cyclic_lambda, pair, wedge
from .metric import (DecayFitReport, SampledMetricSpace, chi_profile,
                     diagonal_decay_experiment, estimate_holder_seminorm)
from .experiments import (REGISTRY, Assertion, ConfigError, ExperimentReport,
                          ExperimentSpec, run_experiment)

__version__ = "0.1.0"
