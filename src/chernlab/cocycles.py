"""Evaluation of the singular cocycles and the Connes-Chern cochain.

Raw values use F-commutators throughout.  The reported pairing numbers of
the source computations correspond to the halved-commutator convention
([F,a] = 2[P,a]), so named experiments apply the documented constant
(1/2)^(p+1) (pairing_normalization); the evaluators themselves always
return raw values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .scalars import QGauss
from .series import FourierSeries, multiply
from .operators import (OperatorModel, SparseOperator, commutator, compose,
                        multiplication_operator, product_diagonal,
                        symmetric_order, torus_phase_kernel_rho, torus_shells)
from .tracemean import (DiagonalSequence, ExtendedLimitProbe, LogMeanSeries,
                        diagonal_of, dyadic_schedule, log_mean, probe)

__all__ = [
    "FredholmModuleSpec", "CochainEvaluation", "CharacterCochainValue",
    "CocycleConsistencyError",
    "pairing_normalization", "eval_c_omega", "eval_h_omega", "eval_ch_CC",
    "check_hochschild_cocycle", "check_cyclicity", "holomorphy_type",
    "fast_path_partial_sums", "eval_c_omega_wedge",
    "szego_pair_diagonal", "torus_diagonal_operator", "torus_diagonal_kernel",
    "connes_chern_constant",
]


class CocycleConsistencyError(RuntimeError):
    """Two evaluation paths for the same cocycle disagree beyond tolerance."""


def pairing_normalization(p: int) -> float:
    """(1/2)^(p+1): one factor 1/2 per commutator, reconciling raw
    F-commutator traces with the halved-commutator pairing convention."""
    return 0.5 ** (p + 1)


@dataclass(frozen=True)
class FredholmModuleSpec:
    """The phase operator and summability bookkeeping of a Fredholm module.

    circle_F is odd parity with odd p; the torus block phase is even
    parity with even p.
    """

    operator_kind: str
    p: int

    def __post_init__(self):
        if self.operator_kind not in ("circle_F", "torus_F"):
            raise ValueError(f"unsupported module operator {self.operator_kind!r}")
        if self.p < 1:
            raise ValueError("summability exponent p must be positive")
        if self.operator_kind == "circle_F" and self.p % 2 == 0:
            raise ValueError("the circle phase is odd parity: p must be odd")
        if self.operator_kind == "torus_F" and self.p % 2 == 1:
            raise ValueError("the torus phase is even parity: p must be even")

    @property
    def domain(self) -> str:
        return "circle" if self.operator_kind == "circle_F" else "torus"


@dataclass
class CochainEvaluation:
    """Result record of one multilinear cocycle evaluation, or of a chain
    pairing (chains.pair), which has no diagonal."""

    diagonal: DiagonalSequence | None = None
    series: LogMeanSeries | None = None
    probe_result: ExtendedLimitProbe | None = None
    exact_value: object = None


@dataclass(frozen=True)
class CharacterCochainValue:
    """The normalized character cochain c_n * raw_trace, with the drift of
    the windowed trace under window doubling."""

    exact_value: complex
    raw_trace: complex
    window_drift: float


# ---------------------------------------------------------------------------
# circle operator path
# ---------------------------------------------------------------------------

def _circle_ops(inputs: Sequence[FourierSeries], bound: int,
                leading: FourierSeries | None = None) -> list:
    f_model = OperatorModel("circle_F")
    ops = [SparseOperator.diagonal_phase(f_model, bound)]
    if leading is not None:
        ops.append(multiplication_operator(leading, bound))
    ops.extend(commutator(f_model, a, bound) for a in inputs)
    return ops


def _bandwidths(inputs, leading=None):
    bws = [a.max_frequency() for a in inputs]
    lead_bw = leading.max_frequency() if leading is not None else 0
    total = sum(bws) + lead_bw
    support = max(bws + [1])  # diagonal entries vanish beyond the widest corner
    return total, support


def _circle_diagonal(inputs, schedule, leading=None, prefactor=1) -> DiagonalSequence:
    """Diagonal of F [a0] [F,a1]...[F,ap] in symmetric canonical order."""
    total, support = _bandwidths(inputs, leading)
    cap = min(2 * support + 3, max(max(schedule), 8))
    bound = total + (cap + 1) // 2 + 4
    ops = _circle_ops(inputs, bound, leading)
    d = diagonal_of(ops, symmetric_order(cap), finite_tail=True)
    return d if prefactor == 1 else d.scale(prefactor)


def _exact_circle_trace(inputs, leading=None) -> QGauss:
    """Tr(F [leading] [F,b0]...[F,bp]) of the untruncated operator, exactly.

    [F,b] e_c = sum_f b_f (sign(c+f) - sign(c)) e_(c+f) vanishes unless
    |c| <= max_frequency(b), so the operator has finite rank and its trace
    is a finite sum over those c.  Each e_c is pushed through the factors,
    right to left, as a sparse {frequency: QGauss} vector; no window is
    involved.
    """
    sign = OperatorModel("circle_F").phase
    factors = [(b, True) for b in reversed(inputs)]
    if leading is not None:
        factors.append((leading, False))
    last = inputs[-1].max_frequency()
    total = QGauss()
    for c in range(-last, last + 1):
        vec = {c: QGauss.of(1)}
        for b, is_commutator in factors:
            out: dict = {}
            for k, v in vec.items():
                for f, coeff in b.coeffs.items():
                    s = sign(k + f) - sign(k) if is_commutator else 1
                    if s:
                        out[k + f] = out.get(k + f, 0) + coeff * v * s
            vec = out
        if c in vec:
            total += sign(c) * vec[c]
    return total


# ---------------------------------------------------------------------------
# torus operator path (graded: difference of the two block diagonals)
# ---------------------------------------------------------------------------

def torus_diagonal_operator(inputs: Sequence[FourierSeries], points,
                            leading: FourierSeries | None = None) -> np.ndarray:
    """Pointwise diagonal of the graded product at the given lattice points.

    For the block phase F = [[0, U], [U*, 0]] an even-length commutator
    product is block diagonal and the supertrace diagonal is
    <e_k, U [a0] [U*,a1][U,a2]... e_k> - <e_k, U* [a0] [U,a1][U*,a2]... e_k>.
    """
    max_pt = max((max(abs(k[0]), abs(k[1])) for k in points), default=0)
    bound = max_pt + _bandwidths(inputs, leading)[0] + 2
    u = OperatorModel("torus_U")
    us = OperatorModel("torus_U_star")
    out = np.zeros(len(points), dtype=np.complex128)
    for lead_model, sign in ((u, 1.0), (us, -1.0)):
        ops = [SparseOperator.diagonal_phase(lead_model, bound)]
        if leading is not None:
            ops.append(multiplication_operator(leading, bound))
        model = lead_model.adjoint()
        for a in inputs:
            ops.append(commutator(model, a, bound))
            model = model.adjoint()
        out += sign * product_diagonal(ops, points)
    return out


def torus_diagonal_kernel(a0: FourierSeries, a1: FourierSeries,
                          a2: FourierSeries, points) -> np.ndarray:
    """The same diagonal from the degree-zero kernel:
    d(k) = 4i * sum_{m,n} rho(k, m, n) a0_{-n} a1_{n-m} a2_{m},
    where m is the offset after the first (rightmost) commutator and n
    after the second.  Triples hitting the zero frequency fall outside the
    generic kernel formula; there rho is evaluated as half the imaginary
    part of the phase product with the zero-frequency phase set to 1, the
    same convention the operator model uses, so the identity is exact
    everywhere."""
    sup0, sup1, sup2 = (s.to_float().coeffs for s in (a0, a1, a2))
    phase = OperatorModel("torus_U").phase
    out = np.zeros(len(points), dtype=np.complex128)
    for i, k in enumerate(points):
        total = 0j
        for f2, c2 in sup2.items():
            m = f2
            for f1, c1 in sup1.items():
                n = (f1[0] + f2[0], f1[1] + f2[1])
                c0 = sup0.get((-n[0], -n[1]))
                if c0 is None:
                    continue
                try:
                    r = torus_phase_kernel_rho(k, m, n)
                except ZeroDivisionError:
                    z = phase(k)
                    w = phase((k[0] + m[0], k[1] + m[1]))
                    v = phase((k[0] + n[0], k[1] + n[1]))
                    r = 0.5 * (z * (z.conjugate() - v.conjugate())
                               * (v - w) * (w.conjugate() - z.conjugate())).imag
                total += r * c0 * c1 * c2
        out[i] = 4j * total
    return out


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def _finish(diag, schedule, exact_value=None) -> CochainEvaluation:
    series = log_mean(diag, schedule)
    pr = probe(series) if len(series.checkpoints) >= 3 else None
    return CochainEvaluation(diag, series, pr, exact_value)


def _circle_schedule(schedule):
    """The circle evaluators' checkpoints: N = 2^4..2^20 unless given."""
    return dyadic_schedule(4, 20) if schedule is None else schedule


def _torus_schedule(n_points):
    """N = 4, 8, ... up to the shell point count, ending at that count."""
    ns = [1 << m for m in range(2, 24) if (1 << m) <= n_points]
    if not ns or ns[-1] != n_points:
        ns.append(n_points)
    return ns


def _eval_cochain(spec, a, leading, prefactor, schedule, n_shells) -> CochainEvaluation:
    """prefactor times the diagonal of F [leading] [F,b0]...[F,bp], where b
    is a without its leading input when one is given."""
    if any(s.domain != spec.domain for s in a):
        raise ValueError("input domain does not match the module")
    inputs = list(a[1:] if leading is not None else a)
    if spec.domain == "circle":
        schedule = _circle_schedule(schedule)
        diag = _circle_diagonal(inputs, schedule, leading, prefactor)
        exact_value = None
        if all(s.exact for s in a):
            exact_value = _exact_circle_trace(inputs, leading) * prefactor
        return _finish(diag, schedule, exact_value)
    points = torus_shells(n_shells)
    vals = torus_diagonal_operator(inputs, points, leading)
    # skip a unit prefactor: a complex multiply by 1 can flip the sign of a zero
    diag = DiagonalSequence(vals if prefactor == 1 else prefactor * vals)
    return _finish(diag, _torus_schedule(len(points)) if schedule is None else schedule)


def eval_c_omega(spec: FredholmModuleSpec, a: Sequence[FourierSeries],
                 schedule=None, n_shells: int = 64) -> CochainEvaluation:
    """The cyclic cocycle: log-means of the diagonal of F [F,a0]...[F,ap]
    (circle) or its graded torus analogue, plus the limit probe.

    Exact inputs also get the exact trace of the untruncated finite-rank
    operator.
    """
    if len(a) != spec.p + 1:
        raise ValueError(f"c_omega at p={spec.p} takes {spec.p + 1} inputs, got {len(a)}")
    return _eval_cochain(spec, a, None, 1, schedule, n_shells)


def eval_h_omega(spec: FredholmModuleSpec, a: Sequence[FourierSeries],
                 schedule=None, n_shells: int = 64) -> CochainEvaluation:
    """The Hochschild cocycle: p * log-means of F a0 [F,a1]...[F,a_{p+1}].

    The prefactor p is folded into the diagonal sequence, so the
    coboundary relation h(1, a...) = p * c(a...) holds with identical
    diagonals, not just equal limits.
    """
    if len(a) != spec.p + 2:
        raise ValueError(f"h_omega at p={spec.p} takes {spec.p + 2} inputs, got {len(a)}")
    return _eval_cochain(spec, a, a[0], spec.p, schedule, n_shells)


def connes_chern_constant(n: int) -> complex:
    """c_n = (-1)^(n(n-1)/2) Gamma(n/2+1), times sqrt(2i) = 1+i for odd n."""
    c = (-1) ** ((n * (n - 1) // 2) % 2) * math.gamma(n / 2 + 1)
    if n % 2 == 1:
        return (1 + 1j) * c
    return complex(c)


def eval_ch_CC(spec: FredholmModuleSpec, a: Sequence[FourierSeries],
               stability_tol: float = 1e-10) -> CharacterCochainValue:
    """The normalized character cochain: c_n * Tr(F [F,a0]...[F,a_n]) from a
    float windowed trace, with a window-doubling stability report."""
    n = len(a) - 1
    if spec.domain != "circle":
        raise NotImplementedError("the character cochain is implemented on the circle")
    if stability_tol < 0:
        raise ValueError(f"stability_tol={stability_tol} must be >= 0")
    bound = 2 * sum(s.max_frequency() for s in a) + 4
    traces = [compose(_circle_ops(a, b)).trace() for b in (bound, 2 * bound)]
    drift = abs(traces[1] - traces[0])
    if drift > stability_tol * max(1.0, abs(traces[1])):
        raise CocycleConsistencyError(
            f"windowed trace drifts under doubling: {traces[0]} vs {traces[1]}")
    return CharacterCochainValue(connes_chern_constant(n) * traces[1], traces[1], drift)


def check_hochschild_cocycle(spec: FredholmModuleSpec, a: Sequence[FourierSeries],
                             schedule=None) -> CochainEvaluation:
    """The coboundary of the Hochschild cocycle, summed at the diagonal level.

    (b h)(a0,...,a_{p+2}) = sum_i (-1)^i h(..., a_i a_{i+1}, ...)
                           + (-1)^(p+2) h(a_{p+2} a0, a1, ..., a_{p+1});
    its probe is expected to trend to zero (the product is trace class).
    """
    if len(a) != spec.p + 3:
        raise ValueError(f"b h_omega at p={spec.p} takes {spec.p + 3} inputs")
    if spec.domain != "circle":
        raise NotImplementedError("coboundary checks are implemented on the circle")
    schedule = _circle_schedule(schedule)
    total = None
    for i in range(spec.p + 3):
        if i < spec.p + 2:
            args = list(a[:i]) + [multiply(a[i], a[i + 1])] + list(a[i + 2:])
        else:
            args = [multiply(a[-1], a[0])] + list(a[1:-1])
        diag = _circle_diagonal(args[1:], schedule, leading=args[0],
                                prefactor=spec.p)
        term = diag.scale((-1) ** i)
        total = term if total is None else total + term
    return _finish(total, schedule)


def check_cyclicity(spec: FredholmModuleSpec, a: Sequence[FourierSeries],
                    schedule=None) -> CochainEvaluation:
    """Probe of c(a) - (-1)^p c(Lambda a), the defect of the trace identity
    Tr(F [F,a_p][F,a_0]...[F,a_{p-1}]) = (-1)^p Tr(F [F,a_0]...[F,a_p])
    (rotate one commutator around the trace and move it past F)."""
    if len(a) != spec.p + 1:
        raise ValueError("cyclicity check takes p+1 inputs")
    schedule = _circle_schedule(schedule)
    rotated = list(a[1:]) + [a[0]]
    d1 = _circle_diagonal(a, schedule)
    d2 = _circle_diagonal(rotated, schedule)
    diff = d1 + d2.scale(-((-1) ** spec.p))
    return _finish(diff, schedule)


# ---------------------------------------------------------------------------
# the circle p = 3 fast path and the wedge evaluator
# ---------------------------------------------------------------------------

def holomorphy_type(a: FourierSeries) -> str:
    """'analytic' (frequencies > 0), 'anti' (< 0), or 'mixed'.

    The strict inequalities matter: the fast path weights by the frequency
    k itself, so a constant term would contribute nothing anyway, but a
    constant also never appears in the intended inputs."""
    if a.domain != "circle" or not a.coeffs:
        return "mixed"
    if all(k > 0 for k in a.coeffs):
        return "analytic"
    if all(k < 0 for k in a.coeffs):
        return "anti"
    return "mixed"


def fast_path_partial_sums(b: Sequence[FourierSeries], ns: Sequence[int]) -> np.ndarray:
    """Partial double sums sum_{k<N} sum_{m>=k} k b0_k b2_m (b1_{-m} b3_{-k}
    - b1_{-k} b3_{-m}) at the given N, for the alternating holomorphy
    pattern; exact zero for patterns with an adjacent same-side pair."""
    types = [holomorphy_type(s) for s in b]
    if any(t == "mixed" for t in types):
        raise ValueError("fast path undefined: mixed holomorphy in an input")
    if any(types[i] == types[i + 1] for i in range(3)):
        # adjacent same-side commutators compose through the complementary
        # projection and vanish identically
        return np.zeros(len(ns), dtype=np.complex128)
    if types != ["analytic", "anti", "analytic", "anti"]:
        raise ValueError(f"fast path undefined for holomorphy pattern {types}")
    c = [s.to_float().coeffs for s in b]
    ks = sorted(c[0])
    ms = sorted(c[2])
    out = np.zeros(len(ns), dtype=np.complex128)
    for i, n in enumerate(ns):
        total = 0j
        for k in ks:
            if k >= n:
                break
            b3k = c[3].get(-k)
            b1k = c[1].get(-k)
            for m in ms:
                if m < k:
                    continue
                inner = 0j
                if b3k is not None and -m in c[1]:
                    inner += c[1][-m] * b3k
                if b1k is not None and -m in c[3]:
                    inner -= b1k * c[3][-m]
                if inner:
                    total += k * c[0][k] * c[2][m] * inner
        out[i] = total
    return out


_S3 = [((1, 2, 3), 1), ((1, 3, 2), -1), ((2, 1, 3), -1),
       ((2, 3, 1), 1), ((3, 1, 2), 1), ((3, 2, 1), -1)]


def eval_c_omega_wedge(spec: FredholmModuleSpec, a: Sequence[FourierSeries],
                       schedule=None, method: str = "fast") -> CochainEvaluation:
    """Antisymmetrized evaluation (1/2) c(a0 ^ a1 ^ a2 ^ a3).

    method 'fast': the double Fourier sums of the alternating-pattern
    tuples, summed with permutation signs.  method 'operator': the signed
    sum of operator diagonals of F [F,a0][F,a_s(1)][F,a_s(2)][F,a_s(3)]
    over the one-sided order, scaled by the halved-commutator constant
    (1/2)^4 so both methods target the same normalization.
    """
    if spec.p != 3 or len(a) != 4:
        raise ValueError("the wedge evaluator is the p = 3, 4-input form")
    schedule = _circle_schedule(schedule)
    if method == "fast":
        total = np.zeros(len(schedule), dtype=np.complex128)
        for perm, sign in _S3:
            tup = [a[0]] + [a[j] for j in perm]
            total += sign * fast_path_partial_sums(tup, schedule)
        total *= 0.5
        series = LogMeanSeries([(n, complex(v) / math.log(2 + n))
                                for n, v in zip(schedule, total)])
        return CochainEvaluation(series=series, probe_result=probe(series))
    if method != "operator":
        raise ValueError(f"unknown wedge method {method!r}")
    max_n = max(schedule)
    bound = sum(s.max_frequency() for s in a) + max_n + 4
    f_diag, *comms = _circle_ops(a, bound)
    # product_diagonal's split of F[F,a0][F,a_i][F,a_j][F,a_k]: F[F,a0] once,
    # one left half (F[F,a0])[F,a_i] per group of _S3, a right half [F,a_j][F,a_k]
    head = compose([f_diag, comms[0]])
    diag_total = None
    for i, perms in groupby(_S3, key=lambda ps: ps[0][0]):
        left = compose([head, comms[i]])
        for (_, j, k), sign in perms:
            d = diagonal_of([left, compose([comms[j], comms[k]])], range(max_n))
            term = d.scale(sign)
            diag_total = term if diag_total is None else diag_total + term
    diag_total = diag_total.scale(0.5 * pairing_normalization(3))
    series = log_mean(diag_total, schedule)
    return CochainEvaluation(diag_total, series, probe(series))


# ---------------------------------------------------------------------------
# the lacunary Szego product diagonal (closed form)
# ---------------------------------------------------------------------------

def szego_pair_diagonal(c1, c2, level_cap: int, cap: int,
                        alpha: float = 0.5) -> DiagonalSequence:
    """Closed-form diagonal of P W(c1) (1-P) W(c2)* P on the one-sided order:
    d_k = sum_{j <= level_cap, 2^j > k} c1_j conj(c2_j) 2^(-2 alpha j).

    Constant on entry 0 and on each dyadic block [2^t, 2^(t+1)), and zero
    from 2^level_cap on, so it is stored as at most level_cap + 2 runs, the
    last one clipped at cap.  The dense-product oracle in the test suite
    pins this formula.
    """
    gamma = np.array([complex(c1(j)) * complex(c2(j)).conjugate()
                      for j in range(level_cap + 1)], dtype=np.complex128)
    weights = gamma * np.power(2.0, -2.0 * alpha * np.arange(level_cap + 1))
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    values, lengths = [suffix[0]], [1]
    t = 0
    while (1 << t) < cap and t < level_cap:
        values.append(suffix[t + 1])
        lengths.append(min(1 << (t + 1), cap) - (1 << t))
        t += 1
    if (1 << t) < cap:
        values.append(0.0)
        lengths.append(cap - (1 << t))
    finite_tail = cap >= (1 << level_cap)
    return DiagonalSequence(values, finite_tail, lengths)
