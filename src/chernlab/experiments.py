"""Named, configurable experiments binding the laboratory modules together.

Every experiment validates a flat key=value config against its schema,
runs deterministically for a given seed, writes machine-readable
artifacts (report.json plus CSVs), and returns per-assertion pass/fail.
"""
from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from .scalars import QGauss
from .series import BoundedSequence, FourierSeries, lacunary_series, series_to_text
from .operators import (OperatorModel, SparseOperator, commutator,
                        multiplication_operator, rho_exact_terms,
                        singular_values, torus_shells, weak_quasinorm)
from .tracemean import diagonal_of, dyadic_schedule, log_mean, probe
from .cocycles import (CocycleConsistencyError, FredholmModuleSpec,
                       check_cyclicity, check_hochschild_cocycle,
                       connes_chern_constant, eval_c_omega, eval_c_omega_wedge,
                       eval_ch_CC, eval_h_omega, pairing_normalization,
                       szego_pair_diagonal, torus_diagonal_kernel,
                       torus_diagonal_operator)
from .chains import LaurentChain, boundary_b, cyclic_lambda, pair, wedge
from .metric import (SampledMetricSpace, chi_profile, diagonal_decay_experiment,
                     estimate_holder_seminorm)

__all__ = ["REGISTRY", "Assertion", "ExperimentReport", "ExperimentSpec",
           "run_experiment", "ConfigError"]

KAPPA_REFERENCE = 1.0 / math.log(2.0)
WEDGE_TARGET = -2.0 * math.sqrt(2.0) / math.log(2.0)

ONES = BoundedSequence.constant(1.0)
ALTERNATING = BoundedSequence.from_function(lambda j: (-1.0) ** j, 1.0)
Z = FourierSeries.monomial(1)
ZI = FourierSeries.monomial(-1)
ONE = FourierSeries.one()


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class Assertion:
    name: str
    passed: bool
    measured: object
    expected: object
    tolerance: object = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "measured": _jsonable(self.measured),
                "expected": _jsonable(self.expected),
                "tolerance": _jsonable(self.tolerance), "detail": self.detail}


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, QGauss):
        return {"re": str(v.re), "im": str(v.im)}
    return v


@dataclass
class ExperimentReport:
    name: str
    anchor: str
    module: str
    config: dict
    assertions: List[Assertion] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_json(self) -> str:
        return json.dumps({
            "experiment": self.name, "anchor": self.anchor, "module": self.module,
            "config": {k: _jsonable(v) for k, v in self.config.items()},
            "passed": self.passed,
            "assertions": [a.to_dict() for a in self.assertions],
            "artifacts": self.artifacts,
            "wall_time_seconds": round(self.wall_time, 3),
        }, indent=2)


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    module: str
    anchor: str
    description: str
    defaults: Dict[str, object]
    runner: Callable


REGISTRY: Dict[str, ExperimentSpec] = {}


def register(name: str, module: str, anchor: str, description: str,
             defaults: Dict[str, object]):
    def wrap(fn):
        REGISTRY[name] = ExperimentSpec(name, module, anchor, description,
                                        dict(defaults), fn)
        return fn
    return wrap


# a count below 1 or a nonpositive scale would test nothing and pass
_COUNT_KEYS = ("tuples", "triples", "samples", "n_random", "n_wedges", "support")


def _check_range(key: str, value) -> None:
    if key in _COUNT_KEYS and value < 1:
        raise ConfigError(f"{key}={value} must be at least 1")
    if key == "l1_scale" and value <= 0:
        raise ConfigError(f"l1_scale={value} must be positive")
    if (key == "tolerance" or key.endswith("_tol")) and value < 0:
        raise ConfigError(f"{key}={value} must be >= 0")


def validate_config(spec: ExperimentSpec, overrides: Dict[str, str]) -> dict:
    """Typed merge of overrides into the experiment defaults; unknown keys,
    unparseable values, non-finite floats, counts below 1, a nonpositive
    l1_scale and negative tolerances are rejected."""
    config = dict(spec.defaults)
    for key, raw in overrides.items():
        if key not in config:
            raise ConfigError(f"unknown config key {key!r} for experiment "
                              f"{spec.name!r}; known keys: {sorted(config)}")
        default = config[key]
        try:
            if isinstance(default, bool):
                if str(raw).lower() not in ("true", "false", "0", "1"):
                    raise ValueError(raw)
                config[key] = str(raw).lower() in ("true", "1")
            elif isinstance(default, int):
                config[key] = int(raw)
            elif isinstance(default, float):
                config[key] = float(raw)
            else:
                config[key] = str(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse {key}={raw!r} as "
                              f"{type(default).__name__}") from exc
        if isinstance(default, float) and not math.isfinite(config[key]):
            # a comparison with nan is false, so a nan gate would pass
            raise ConfigError(f"{key}={raw!r} is not a finite number")
        _check_range(key, config[key])
    return config


def run_experiment(name: str, overrides: Dict[str, str] | None = None,
                   out_dir: str | Path | None = None) -> ExperimentReport:
    if name not in REGISTRY:
        raise ConfigError(f"unknown experiment {name!r}; see `chernlab list`")
    spec = REGISTRY[name]
    config = validate_config(spec, overrides or {})
    out = Path(out_dir) if out_dir else Path("chernlab_out") / name
    created = next((d for d in (*reversed(out.parents), out) if not d.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    report = ExperimentReport(name, spec.anchor, spec.module, config)
    start = time.time()
    try:
        spec.runner(config, out, report)
    except BaseException:
        # a run that raises leaves behind no directory that it created
        if created is not None:
            shutil.rmtree(created)
        raise
    report.wall_time = time.time() - start
    (out / "report.json").write_text(report.to_json() + "\n")
    report.artifacts.append(str(out / "report.json"))
    return report


def _write(out: Path, report: ExperimentReport, filename: str, text: str):
    path = out / filename
    path.write_text(text)
    report.artifacts.append(str(path))


def _assert_close(report, name, measured, expected, tol, detail=""):
    passed = abs(measured - expected) <= tol
    report.assertions.append(Assertion(name, passed, measured, expected, tol, detail))
    return passed


def _assert_true(report, name, condition, measured, expected="true", detail=""):
    report.assertions.append(Assertion(name, bool(condition), measured, expected,
                                       None, detail))
    return bool(condition)


def random_trig_poly(rng: np.random.Generator, degree: int, terms: int,
                     l1_scale: float, domain: str = "circle") -> FourierSeries:
    """A random trigonometric polynomial with complex Gaussian coefficients
    rescaled to the given l1 coefficient mass."""
    side = max(0, 2 * degree + 1)
    frequencies = side if domain == "circle" else side * side
    if not 1 <= terms <= frequencies:
        # the draw below needs `terms` distinct frequencies to stop
        raise ValueError(f"terms={terms} must lie in [1, {frequencies}], the number "
                         f"of {domain} frequencies of degree <= {degree}")
    coeffs: dict = {}
    while len(coeffs) < terms:
        if domain == "circle":
            k = int(rng.integers(-degree, degree + 1))
        else:
            k = (int(rng.integers(-degree, degree + 1)),
                 int(rng.integers(-degree, degree + 1)))
        coeffs[k] = complex(rng.standard_normal(), rng.standard_normal())
    mass = sum(abs(v) for v in coeffs.values())
    return FourierSeries(domain, {k: v * (l1_scale / mass) for k, v in coeffs.items()},
                         False)


def _sequence_by_name(name: str) -> tuple:
    """Named bounded test sequences with their limits."""
    table = {
        "ones": (ONES, 1.0),
        "half-after-8": (BoundedSequence.from_function(
            lambda j: 0.5 if j >= 8 else 1.0, 1.0), 0.5),
        "two-plus-geometric": (BoundedSequence.from_function(
            lambda j: 2.0 + 4.0 * 2.0 ** (-j), 6.0), 2.0),
        "threequarter-alternating": (BoundedSequence.from_function(
            lambda j: 0.75 + (-0.5) ** j, 2.0), 0.75),
        "dyadic-block-alternating": (BoundedSequence.from_function(
            lambda j: 1.0 if int(math.log2(j + 1)) % 2 == 0 else 0.0, 1.0), None),
    }
    if name not in table:
        raise ConfigError(f"unknown sequence name {name!r}; known: {sorted(table)}")
    return table[name]


def _lacunary_quadruple(alpha: float, level_cap: int) -> list:
    """[a0, a0*, a2, a2*] for lacunary a0 (alternating) and a2 (constant)."""
    a0 = lacunary_series(ALTERNATING, alpha, level_cap)
    a2 = lacunary_series(ONES, alpha, level_cap)
    return [a0, a0.star(), a2, a2.star()]


def _szego_log_mean(seq: BoundedSequence, config):
    """Dyadic log-means of the closed-form pair diagonal of seq against ONES."""
    schedule = dyadic_schedule(config["m_min"], config["m_max"])
    d = szego_pair_diagonal(seq, ONES, config["level_cap"], 1 << config["m_max"])
    return log_mean(d, schedule)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@register("lkandapdn-pairing", "cocycle_engine", "lkandapdn",
          "Exact finite-rank pairing of the degree-1 cocycle with z (x) z^-1",
          {})
def _exp_lkandapdn(config, out, report):
    spec = FredholmModuleSpec("circle_F", 1)
    ev = eval_c_omega(spec, [Z, ZI])
    raw = ev.exact_value
    _assert_true(report, "raw trace Tr(F[F,z][F,1/z]) = -4 exactly",
                 raw == QGauss.of(-4), _jsonable(raw), "-4")
    norm = pairing_normalization(1)
    reported = raw.to_complex() * norm
    _assert_close(report, "pairing value under the quarter normalization",
                  reported.real, -1.0, 0.0,
                  detail="raw trace times (1/2)^(p+1) = 1/4")
    chain = LaurentChain.elementary([Z, ZI])
    result = pair(lambda t: eval_c_omega(spec, list(t)), chain)
    paired = result.exact_value.to_complex() * norm
    _assert_close(report, "chain pairing agrees", paired.real, -1.0, 0.0)
    _write(out, report, "inputs.txt", series_to_text(Z) + series_to_text(ZI))
    _write(out, report, "checkpoints.csv", ev.series.to_csv())


@register("compmpmpnpanf-calibration", "trace_lab", "compmpmpnpanf",
          "Dyadic log-mean calibration of the lacunary pair diagonal: the "
          "measured constant kappa and proportionality across sequences",
          {"level_cap": 50, "m_min": 4, "m_max": 24, "kappa_rel_tol": 0.01,
           "proportionality_rel_tol": 0.02})
def _exp_calibration(config, out, report):
    series = _szego_log_mean(ONES, config)
    kappa = probe(series).extrap
    _write(out, report, "calibration_ones.csv", series.to_csv())
    _assert_close(report, "measured kappa within 1% of 1/log 2",
                  kappa, KAPPA_REFERENCE, config["kappa_rel_tol"] * KAPPA_REFERENCE,
                  detail="extrapolated dyadic log-mean for the constant sequence")
    for name in ("half-after-8", "two-plus-geometric", "threequarter-alternating"):
        seq, limit = _sequence_by_name(name)
        series = _szego_log_mean(seq, config)
        value = probe(series).extrap
        _write(out, report, f"calibration_{name}.csv", series.to_csv())
        _assert_close(report, f"proportionality for sequence {name}",
                      value, kappa * limit,
                      config["proportionality_rel_tol"] * abs(kappa * limit),
                      detail=f"limit {limit}, fitted kappa {kappa:.6f}")


@register("szego-diagonal-dense-check", "trace_lab", "compmpmpnpanf",
          "Closed-form lacunary pair diagonal against the assembled "
          "operator product at window 512",
          {"window": 512, "level_cap": 9, "tolerance": 1e-12})
def _exp_szego_dense(config, out, report):
    w = config["window"]
    p_model = OperatorModel("szego_P")
    bound = w + 4 * (1 << config["level_cap"]) + 4
    pd = SparseOperator.diagonal_phase(p_model, bound)
    # Q = 1 - P as an explicit diagonal
    qent = {(k, k): (0.0 if k >= 0 else 1.0) for k in range(-bound, bound + 1)}
    qd = SparseOperator.from_dict("circle", bound, qent, bound, 0)
    worst = 0.0
    for name, c1 in (("ones", ONES), ("alternating", ALTERNATING)):
        w1 = lacunary_series(c1, 0.5, config["level_cap"])
        w2 = lacunary_series(ONES, 0.5, config["level_cap"])
        ops = [pd, multiplication_operator(w1, bound), qd,
               multiplication_operator(w2.star(), bound), pd]
        d_op = diagonal_of(ops, range(w)).values
        d_closed = szego_pair_diagonal(c1, ONES, config["level_cap"], w).dense()
        err = float(np.max(np.abs(d_op - d_closed)))
        worst = max(worst, err)
        _assert_close(report, f"operator product matches closed form ({name})",
                      err, 0.0, config["tolerance"])
    report.assertions.append(Assertion("worst deviation", True, worst, 0.0,
                                       config["tolerance"]))


@register("fourtedo-limit", "cocycle_engine", "fourtedo",
          "Antisymmetrized fast-path limit of half the degree-3 cocycle on "
          "the lacunary quadruple",
          {"alpha": 0.25, "level_cap": 40, "m_min": 8, "m_max": 20,
           "rel_tol": 0.02})
def _exp_fourtedo(config, out, report):
    spec = FredholmModuleSpec("circle_F", 3)
    schedule = dyadic_schedule(config["m_min"], config["m_max"])
    ev = eval_c_omega_wedge(spec, _lacunary_quadruple(config["alpha"], config["level_cap"]),
                            schedule, method="fast")
    _write(out, report, "wedge_fast.csv", ev.series.to_csv())
    pr = ev.probe_result
    _assert_close(report, "extrapolated value within 2% of -2*sqrt(2)/log 2",
                  pr.extrap, WEDGE_TARGET, config["rel_tol"] * abs(WEDGE_TARGET))
    _assert_true(report, "oscillation flag off", not pr.oscillating,
                 pr.oscillating, "false")


@register("fourtedo-operator-crosscheck", "cocycle_engine", "fourtedo",
          "Operator-path evaluation of the antisymmetrized wedge against "
          "the fast path, checkpointwise",
          {"alpha": 0.25, "level_cap_fast": 40, "level_cap_operator": 16,
           "m_min": 8, "m_max": 14, "tolerance": 1e-8})
def _exp_fourtedo_crosscheck(config, out, report):
    spec = FredholmModuleSpec("circle_F", 3)
    schedule = dyadic_schedule(config["m_min"], config["m_max"])
    fast, oper = (eval_c_omega_wedge(
        spec, _lacunary_quadruple(config["alpha"], config[f"level_cap_{method}"]),
        schedule, method=method) for method in ("fast", "operator"))
    _write(out, report, "wedge_fast.csv", fast.series.to_csv())
    _write(out, report, "wedge_operator.csv", oper.series.to_csv())
    diff = float(np.max(np.abs(fast.series.values() - oper.series.values())))
    _assert_close(report, "operator path matches fast path at every checkpoint",
                  diff, 0.0, config["tolerance"],
                  detail="the cause of the discrepancy is open: at equal level "
                         "caps the two paths have opposite signs at every "
                         "checkpoint (ROADMAP.md, check 2b); see the series "
                         "artifacts")


@register("adnaodnaond-kernel-equivalence", "op_core", "adnaodnaond",
          "Torus phase kernel: exact homogeneity/antisymmetry, the "
          "modulus-1 identity, and operator-vs-kernel diagonal equality",
          {"n_shells": 200, "degree": 3, "terms": 5, "triples": 100,
           "samples": 1000, "seed": 20260823, "tolerance": 1e-10,
           "identity_tol": 1e-12})
def _exp_torus_kernel(config, out, report):
    pts = torus_shells(config["n_shells"])
    rng = np.random.default_rng(config["seed"])

    def rand_index():
        return (int(rng.integers(-20, 21)), int(rng.integers(-20, 21)))

    def valid_triple():
        while True:
            k, m, n = rand_index(), rand_index(), rand_index()
            try:
                rho_exact_terms(k, m, n)
                return k, m, n
            except ZeroDivisionError:
                continue

    # sqrt(s) over distinct squarefree s are linearly independent over Q, so
    # two surd sums are equal exactly when their {s: coefficient} dicts are
    hom_ok = anti_ok = True
    for _ in range(config["triples"]):
        k, m, n = valid_triple()
        base = rho_exact_terms(k, m, n)
        for t in (2, 3, 7):
            scaled = rho_exact_terms((t * k[0], t * k[1]), (t * m[0], t * m[1]),
                                     (t * n[0], t * n[1]))
            hom_ok = hom_ok and base == scaled
        swapped = rho_exact_terms(k, n, m)
        anti_ok = anti_ok and {s: -c for s, c in base.items()} == swapped
    _assert_true(report, "homogeneity of degree 0 (exact surd arithmetic)",
                 hom_ok, hom_ok)
    _assert_true(report, "antisymmetry in the last two slots (exact)",
                 anti_ok, anti_ok)

    worst_ident = 0.0
    for _ in range(config["samples"]):
        z, w_, u = (np.exp(2j * np.pi * rng.random()) for _ in range(3))
        def xp(p, q):
            return (np.conj(p) * q).imag
        lhs = w_ * (np.conj(w_) - np.conj(z)) * (z - u) * (np.conj(u) - np.conj(w_))
        rhs = 2j * (xp(z, w_) + xp(w_, u) + xp(u, z))
        worst_ident = max(worst_ident, abs(lhs - rhs))
    _assert_close(report, "modulus-1 identity", worst_ident, 0.0,
                  config["identity_tol"])

    a1, a2 = (random_trig_poly(rng, config["degree"], config["terms"],
                               1.0, domain="torus") for _ in range(2))
    # close the frequency triples so the diagonal is not identically zero
    f1s = list(a1.support())
    f2s = list(a2.support())
    coeffs0 = {}
    while len(coeffs0) < config["terms"]:
        f1 = f1s[int(rng.integers(len(f1s)))]
        f2 = f2s[int(rng.integers(len(f2s)))]
        key = (-(f1[0] + f2[0]), -(f1[1] + f2[1]))
        coeffs0[key] = complex(rng.standard_normal(), rng.standard_normal())
    a0 = FourierSeries("torus", coeffs0, False)
    d_op = torus_diagonal_operator([a0, a1, a2], pts)
    d_ker = torus_diagonal_kernel(a0, a1, a2, pts)
    err = float(np.max(np.abs(d_op - d_ker)))
    scale = float(np.max(np.abs(d_op)))
    _assert_true(report, "diagonal is not identically zero", scale > 0.01, scale)
    _assert_close(report, "operator diagonal equals kernel sum on the shells",
                  err, 0.0, config["tolerance"])
    rows = ["k1,k2,operator_re,operator_im,kernel_re,kernel_im"]
    rows += [f"{k[0]},{k[1]},{o.real:.12g},{o.imag:.12g},{v.real:.12g},{v.imag:.12g}"
             for k, o, v in zip(pts, d_op, d_ker)]
    _write(out, report, "diagonal_comparison.csv", "\n".join(rows) + "\n")


@register("svd-decay-szego", "op_core", "adpnapkdnasp",
          "Singular value decay of the lacunary commutator with the "
          "projector; slope -1/2 in log-log over the stated range",
          {"window_log2": 13, "level_cap": 13, "count": 2048, "fit_lo": 32,
           "fit_hi": 2048, "slope_target": -0.5, "slope_tol": 0.1})
def _exp_svd(config, out, report):
    lo, hi = config["fit_lo"], min(config["fit_hi"], config["count"])
    if lo < 1 or hi - lo < 2:
        raise ValueError(f"the slope fit needs at least two ranks k >= 1 in "
                         f"[fit_lo, min(fit_hi, count)) = [{lo}, {hi})")
    a = lacunary_series(ONES, 0.5, config["level_cap"])
    p_model = OperatorModel("szego_P")
    c = commutator(p_model, a, 1 << config["window_log2"])
    sv = singular_values(c, config["count"])
    if not sv.mu[lo:hi].all():
        # mu_k is exactly zero past the operator's rank, where log mu_k is -inf
        raise ValueError(f"the slope fit over [{lo}, {hi}) reaches past the "
                         f"commutator's rank {np.count_nonzero(sv.mu)}")
    _write(out, report, "singular_values.csv", sv.to_csv())
    ks = np.arange(lo, hi)
    design = np.column_stack([np.ones(len(ks)), np.log(ks)])
    coef, *_ = np.linalg.lstsq(design, np.log(sv.mu[lo:hi]), rcond=None)
    _assert_close(report, "log-log slope of mu_k", float(coef[1]),
                  config["slope_target"], config["slope_tol"])
    sup, tail = weak_quasinorm(sv, 2.0)
    report.assertions.append(Assertion("weak quasinorm (p=2) reported", True,
                                       {"sup": sup, "tail_sup": tail}, None))
    trig = FourierSeries("circle", {1: 1.0, -1: 1.0}, False)
    c_trig = commutator(p_model, trig, 64)
    sv_trig = singular_values(c_trig, 64)
    _, tail_trig = weak_quasinorm(sv_trig, 2.0)
    _assert_close(report, "finite-rank tail quasinorm is exactly zero",
                  tail_trig, 0.0, 0.0)


def _worst_vanishing_probe(config, out, report, evaluator, degree: int, label: str,
                           detail: str, csv_name: str):
    """The worst last probe of `evaluator` over random trig polynomial tuples,
    gated at zero, and the 1/log N tail rate of that worst series."""
    rng = np.random.default_rng(config["seed"])
    spec = FredholmModuleSpec("circle_F", degree)
    schedule = dyadic_schedule(4, config["m_max"])
    worst = 0.0
    worst_series = None
    for _ in range(config["tuples"]):
        inputs = [random_trig_poly(rng, config["degree"], config["terms"],
                                   config["l1_scale"]) for _ in range(4)]
        series = evaluator(spec, inputs, schedule).series
        last = abs(series.last())
        if last > worst:
            worst, worst_series = last, series
    _assert_close(report, f"worst |{label} probe last| over {config['tuples']} tuples",
                  worst, 0.0, config["last_tol"])
    if worst_series is not None:
        scaled = np.abs(worst_series.values()) * np.log(2 + worst_series.ns())
        envelope = float(scaled[-6:].max() / max(scaled[-6:].min(), 1e-300))
        _assert_true(report, "tail decays at the 1/log N rate",
                     envelope <= 1.01, envelope, "<= 1.01", detail=detail)
        _write(out, report, csv_name, worst_series.to_csv())


@register("hochschild-cocycle-vanishing", "cocycle_engine", "caomoamdao",
          "Coboundary of the Hochschild cocycle on random trig tuples: "
          "probes trend to zero at the trace-class rate",
          {"tuples": 20, "degree": 8, "terms": 6, "l1_scale": 0.25,
           "seed": 20260823, "m_max": 20, "last_tol": 1e-2})
def _exp_bh_vanishing(config, out, report):
    _worst_vanishing_probe(config, out, report, check_hochschild_cocycle, 1, "b h",
                           "|value| * log(2+N) stable over the last 6 checkpoints",
                           "worst_bh_series.csv")


@register("smooth-vanishing-comega", "cocycle_engine", "adpomopknad",
          "Degree-3 cocycle probes vanish on random trig polynomial tuples",
          {"tuples": 20, "degree": 8, "terms": 6, "l1_scale": 0.25,
           "seed": 20260823, "m_max": 20, "last_tol": 1e-2})
def _exp_c_vanishing(config, out, report):
    _worst_vanishing_probe(config, out, report, eval_c_omega, 3, "c", "",
                           "worst_c_series.csv")


@register("chain-identities", "chain_alg", "somsdonadona",
          "Exact chain identities: squared boundary, rotation periodicity, "
          "wedge cycles, and the coboundary relation with identical diagonals",
          {"n_random": 50, "n_wedges": 25, "seed": 20260823, "max_degree": 4,
           "support": 3})
def _exp_chains(config, out, report):
    rng = np.random.default_rng(config["seed"])

    def rand_series():
        coeffs = {}
        for _ in range(config["support"]):
            coeffs[int(rng.integers(-3, 4))] = QGauss.of(int(rng.integers(-3, 4)))
        return FourierSeries("circle", coeffs, True)

    def rand_chain(degree):
        chain = LaurentChain.zero(degree)
        for _ in range(int(rng.integers(1, 4))):
            tensor = [rand_series() for _ in range(degree + 1)]
            chain = chain + LaurentChain.elementary(tensor, int(rng.integers(-2, 3)))
        return chain

    bb_ok = True
    for _ in range(config["n_random"]):
        x = rand_chain(int(rng.integers(2, config["max_degree"] + 1)))
        if not boundary_b(boundary_b(x)).is_zero():
            bb_ok = False
    _assert_true(report, "b(b(x)) = 0 on random chains (exact)", bb_ok, bb_ok)

    lam_ok = True
    for _ in range(20):
        k = int(rng.integers(1, config["max_degree"] + 1))
        x = rand_chain(k)
        y = x
        for _ in range(k + 1):
            y = cyclic_lambda(y)
        if y != x:
            lam_ok = False
    _assert_true(report, "(k+1)-fold rotation is the identity (exact)",
                 lam_ok, lam_ok)

    wedge_ok = True
    for _ in range(config["n_wedges"]):
        quad = [rand_series() for _ in range(4)]
        if not boundary_b(wedge(quad)).is_zero():
            wedge_ok = False
    _assert_true(report, "b(wedge) = 0 on random quadruples (exact)",
                 wedge_ok, wedge_ok)

    spec = FredholmModuleSpec("circle_F", 1)
    schedule = dyadic_schedule(4, 12)
    h = eval_h_omega(spec, [ONE, Z, ZI], schedule)
    c = eval_c_omega(spec, [Z, ZI], schedule)
    diff = float(np.max(np.abs(h.diagonal.values - spec.p * c.diagonal.values)))
    _assert_close(report, "h(1, a) = p c(a) with identical diagonal sequences",
                  diff, 0.0, 0.0)
    _assert_true(report, "exact values agree",
                 h.exact_value == c.exact_value * spec.p,
                 _jsonable(h.exact_value), _jsonable(c.exact_value))


@register("cyclicity-check", "cocycle_engine", "lkandapdn",
          "Cyclic symmetry of the cocycle: exact at finite rank, probed on "
          "lacunary wedge inputs",
          {"alpha": 0.25, "level_cap": 10, "m_max": 20, "last_tol": 1e-2})
def _exp_cyclicity(config, out, report):
    schedule = dyadic_schedule(4, config["m_max"])
    spec1 = FredholmModuleSpec("circle_F", 1)
    ev = check_cyclicity(spec1, [Z, ZI])
    total = complex(np.sum(ev.diagonal.values))
    _assert_close(report, "finite-rank cyclic defect sums to zero exactly",
                  abs(total), 0.0, 0.0,
                  detail="the full windowed traces cancel; individual "
                         "diagonal entries need not")
    spec3 = FredholmModuleSpec("circle_F", 3)
    ev3 = check_cyclicity(spec3, _lacunary_quadruple(config["alpha"], config["level_cap"]),
                          schedule)
    _write(out, report, "cyclicity_defect.csv", ev3.series.to_csv())
    _assert_close(report, "lacunary cyclic defect probe at the last checkpoint",
                  abs(ev3.series.last()), 0.0, config["last_tol"])


@register("ch-cc-normalization", "cocycle_engine", "conoancoand",
          "The normalized character cochain: exact traces, the degree "
          "constants, and stability under window doubling",
          {"stability_tol": 1e-10, "seed": 20260823})
def _exp_chcc(config, out, report):
    spec = FredholmModuleSpec("circle_F", 1)
    ev = eval_ch_CC(spec, [Z, ZI], stability_tol=config["stability_tol"])
    c1 = connes_chern_constant(1)
    _assert_close(report, "raw trace is -4", abs(ev.raw_trace + 4), 0.0, 0.0)
    _assert_close(report, "normalized value is c_1 * (-4)",
                  abs(ev.exact_value - c1 * (-4)), 0.0, 0.0,
                  detail=f"c_1 = sqrt(2i) Gamma(3/2) = {c1}")
    ev0 = eval_ch_CC(spec, [ONE, Z], stability_tol=config["stability_tol"])
    _assert_close(report, "value vanishes when an input is central",
                  abs(ev0.exact_value), 0.0, 0.0)
    rng = np.random.default_rng(config["seed"])
    drift_ok = True
    worst = 0.0
    for _ in range(3):
        f = random_trig_poly(rng, 4, 4, 1.0)
        g = random_trig_poly(rng, 4, 4, 1.0)
        try:
            evr = eval_ch_CC(spec, [f, g], stability_tol=config["stability_tol"])
            worst = max(worst, float(evr.window_drift))
        except CocycleConsistencyError:
            drift_ok = False
    _assert_true(report, "degree-4 windowed traces stable under doubling",
                 drift_ok and worst <= config["stability_tol"], worst,
                 f"<= {config['stability_tol']}")


@register("extended-limit-sensitivity", "trace_lab", "dsomaodand",
          "Dyadic-block alternating sequence: the probe oscillates with "
          "checkpoint separation of at least a fifth of the calibration "
          "constant, demonstrating dependence on the extended limit",
          {"level_cap": 50, "m_min": 4, "m_max": 24, "separation_factor": 0.2})
def _exp_sensitivity(config, out, report):
    seq, _ = _sequence_by_name("dyadic-block-alternating")
    series = _szego_log_mean(seq, config)
    pr = probe(series)
    _write(out, report, "oscillating_sequence.csv", series.to_csv())
    _assert_true(report, "oscillation flag on", pr.oscillating, pr.oscillating)
    vals = series.values().real
    separation = float(vals.max() - vals.min())
    _assert_true(report,
                 "checkpoint min/max separation at least 0.2 kappa",
                 separation >= config["separation_factor"] * KAPPA_REFERENCE,
                 separation, f">= {config['separation_factor'] * KAPPA_REFERENCE:.4f}")


@register("approxomtienri-decay", "metric_lab", "approxomtienri",
          "Approximate-diagonal cutoff decay on the product grid with the "
          "closed-form exponent bound",
          {"grid": 1024, "alpha1": 0.3, "beta1": 0.9, "alpha2": 0.2,
           "beta2": 0.5, "level_cap": 12, "slope_slack": 0.1,
           "j_max_log2": 6, "pair_cap": 300_000_000})
def _exp_decay(config, out, report):
    x = SampledMetricSpace.circle(config["grid"])
    # past j ~ grid/(2 pi * 10) the cutoff support holds too few grid
    # offsets and the norms cliff; j <= 64 at grid 1024 stays resolved
    js = [2 ** t for t in range(1, config["j_max_log2"] + 1)]
    for alpha, beta in ((config["alpha1"], config["beta1"]),
                        (config["alpha2"], config["beta2"])):
        f = lacunary_series(ONES, beta, config["level_cap"])
        rep = diagonal_decay_experiment(f, alpha, beta, js, x,
                                        pair_cap=config["pair_cap"])
        _write(out, report, f"decay_a{alpha}_b{beta}.csv", rep.to_csv())
        bound = -(rep.gamma - config["slope_slack"])
        _assert_true(report,
                     f"fitted slope <= -(gamma - 0.1) for alpha={alpha}, beta={beta}",
                     rep.slope <= bound and rep.residual <= 0.2 and not rep.trivial,
                     rep.slope, f"<= {bound:.4f} with RMS residual <= 0.2",
                     detail=f"gamma = {rep.gamma:.4f}, residual {rep.residual:.3g}")
    # cutoff properties on the grid
    j = 16
    dists = np.linspace(0, 2, 4097)
    vals = chi_profile(j * dists)
    _assert_true(report, "cutoff equals 1 on the diagonal", vals[0] == 1.0, vals[0], 1.0)
    _assert_true(report, "cutoff supported where j d < 1",
                 bool(np.all(vals[dists >= 1.0 / j] == 0.0)), True)
    steps = np.abs(np.diff(chi_profile(j * dists))) / np.diff(dists)
    lip_const = float(steps.max()) / j
    _assert_true(report, "cutoff Lipschitz seminorm grows linearly in j",
                 lip_const <= 3.0, lip_const, "<= 3.0 after dividing by j",
                 detail="measured |Delta_j|_Lip / j on the grid")


@register("holder-seminorm-witness", "metric_lab", "asifnaoidnadi0n",
          "Grid Holder seminorms: the coordinate function, stabilization of "
          "the lacunary witness at its own exponent, growth above it",
          {"grid": 4096, "level_cap": 12, "alpha_match": 0.5,
           "alpha_above": 0.6, "stabilization_rel": 0.05})
def _exp_seminorm(config, out, report):
    z = FourierSeries.monomial(1, exact=False)
    est = estimate_holder_seminorm(z, SampledMetricSpace.circle(config["grid"]), 1.0)
    _assert_close(report, "Lipschitz seminorm of the coordinate function",
                  est, 1.0, 1e-3)
    f = lacunary_series(ONES, 0.5, config["level_cap"])
    grids = [config["grid"] // 4, config["grid"] // 2, config["grid"]]
    at_match = [estimate_holder_seminorm(f, SampledMetricSpace.circle(m),
                                         config["alpha_match"]) for m in grids]
    at_above = [estimate_holder_seminorm(f, SampledMetricSpace.circle(m),
                                         config["alpha_above"]) for m in grids]
    rel = abs(at_match[-1] - at_match[-2]) / at_match[-1]
    _assert_true(report, "estimate stabilizes at the matching exponent",
                 rel <= config["stabilization_rel"], rel,
                 f"<= {config['stabilization_rel']}",
                 detail=f"estimates {at_match}")
    growth = at_above[-1] / at_above[0]
    _assert_true(report, "estimate grows with refinement above the exponent",
                 growth > 1.15, growth, "> 1.15",
                 detail=f"estimates {at_above}")
    rows = ["grid,alpha,estimate"]
    for m, v in zip(grids, at_match):
        rows.append(f"{m},{config['alpha_match']},{v:.12g}")
    for m, v in zip(grids, at_above):
        rows.append(f"{m},{config['alpha_above']},{v:.12g}")
    _write(out, report, "seminorms.csv", "\n".join(rows) + "\n")
