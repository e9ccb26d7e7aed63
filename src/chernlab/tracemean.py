"""Logarithmic-mean functionals standing in for singular traces.

A DiagonalSequence is a prefix of diagonal matrix entries d_k, stored
entry by entry or as constant runs.  Its log-mean at checkpoint N is
(1/log(2+N)) * sum_{k<N} d_k; the extended limit that would turn these
means into a singular trace is never constructed.  Instead an
ExtendedLimitProbe reports tail statistics of the dyadic checkpoints:
convergence claims become "checkpoints converge, flag off",
existence-of-different-limits claims become "flag on with min/max
separation".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, List, Sequence

import numpy as np

from .operators import SparseOperator, product_diagonal

__all__ = [
    "DiagonalSequence", "LogMeanSeries", "ExtendedLimitProbe",
    "diagonal_of", "log_mean", "probe", "dyadic_schedule",
]

NORMALIZATION_TAG = "prefix/log(2+N)"
_CHUNK = 1 << 14
PROBE_TAIL = 6
OSC_TOL = 0.05
OSC_EPS = 1e-12


@dataclass(frozen=True)
class DiagonalSequence:
    """A prefix d_0, d_1, ..., d_(cap-1) of diagonal entries.

    With lengths=None, values holds one entry per index.  Otherwise the
    prefix is stored as constant runs: values[i] repeats lengths[i] times,
    and dense() expands it.

    finite_tail records that the untruncated sequence is exactly zero
    beyond the stored prefix (true for products containing a commutator
    with a trigonometric polynomial), which lets log-means be evaluated
    past the cap.
    """

    values: np.ndarray
    finite_tail: bool = False
    lengths: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.complex128))
        if self.lengths is not None:
            lengths = np.asarray(self.lengths, dtype=np.int64)
            if lengths.shape != self.values.shape or np.any(lengths < 0):
                raise ValueError("run lengths must be nonnegative, one per value")
            object.__setattr__(self, "lengths", lengths)

    @property
    def cap(self) -> int:
        if self.lengths is None:
            return len(self.values)
        return int(self.lengths.sum())

    def dense(self) -> np.ndarray:
        """The entries d_0, ..., d_(cap-1), one per index."""
        if self.lengths is None:
            return self.values
        return np.repeat(self.values, self.lengths)

    def __add__(self, other: "DiagonalSequence") -> "DiagonalSequence":
        n = max(self.cap, other.cap)
        if (self.cap < n and not self.finite_tail) or (other.cap < n and not other.finite_tail):
            raise ValueError("cannot add diagonal sequences of different caps "
                             "without a finite-tail guarantee")
        a = np.zeros(n, dtype=np.complex128)
        a[: self.cap] += self.dense()
        a[: other.cap] += other.dense()
        return DiagonalSequence(a, self.finite_tail and other.finite_tail)

    def scale(self, s) -> "DiagonalSequence":
        return DiagonalSequence(self.values * complex(s), self.finite_tail, self.lengths)


def diagonal_of(ops: Sequence[SparseOperator], indices: Iterable,
                finite_tail: bool = False) -> DiagonalSequence:
    """Diagonal of the product of two or more factors at the given
    frequencies, in their order, refused past the path-rule window."""
    return DiagonalSequence(product_diagonal(ops, indices), finite_tail)


def dyadic_schedule(m_min: int, m_max: int) -> List[int]:
    """Checkpoints N = 2^m for m = m_min..m_max."""
    if m_min > m_max:
        raise ValueError(f"empty dyadic schedule: m_min={m_min} > m_max={m_max}")
    return [1 << m for m in range(m_min, m_max + 1)]


@dataclass(frozen=True)
class LogMeanSeries:
    """Checkpoint values N -> (1/log(2+N)) * sum_{k<N} d_k.

    checkpoints: list of (N, complex value); a checkpoint's label is
    m = log2(N).  normalization records the denominator convention.
    """

    checkpoints: List[tuple]
    normalization: ClassVar[str] = NORMALIZATION_TAG

    def labels(self) -> np.ndarray:
        return np.array([math.log2(n) for (n, _) in self.checkpoints], dtype=float)

    def ns(self) -> np.ndarray:
        return np.array([n for (n, _) in self.checkpoints], dtype=float)

    def values(self) -> np.ndarray:
        return np.array([v for (_, v) in self.checkpoints], dtype=np.complex128)

    def last(self) -> complex:
        return self.checkpoints[-1][1]

    def to_csv(self) -> str:
        lines = [f"# normalization={self.normalization}", "m,N,value"]
        for n, v in self.checkpoints:
            m = math.log2(n)
            v = complex(v)
            if abs(v.imag) <= 1e-12 * max(1.0, abs(v.real)):
                lines.append(f"{m:g},{n},{v.real:.12g}")
            else:
                lines.append(f"{m:g},{n},{v.real:.12g}{v.imag:+.12g}j")
        return "\n".join(lines) + "\n"


def _prefix_sums_at(values: np.ndarray, checkpoints: Sequence[int]) -> List[complex]:
    """Compensated prefix sums at increasing checkpoints: exact per-chunk
    pairwise sums combined with math.fsum, so each checkpoint value carries
    a single accumulation pass."""
    block_re: List[float] = []
    block_im: List[float] = []
    out = []
    pos = 0
    for n in checkpoints:
        n_eff = min(n, len(values))
        while pos + _CHUNK <= n_eff:
            chunk = values[pos: pos + _CHUNK]
            block_re.append(float(np.sum(chunk.real)))
            block_im.append(float(np.sum(chunk.imag)))
            pos += _CHUNK
        part = values[pos: n_eff]
        re = math.fsum(block_re) + float(np.sum(part.real))
        im = math.fsum(block_im) + float(np.sum(part.imag))
        out.append(complex(re, im))
    return out


def _run_sums_at(values: np.ndarray, lengths: np.ndarray,
                 checkpoints: Sequence[int]) -> List[complex]:
    """Prefix sums of a run-form diagonal.  Run i adds values[i] times the
    number of its entries below N; real and imaginary parts are combined
    with math.fsum.  Products by power-of-two counts are exact, so a
    checkpoint on a run boundary of such runs is the correctly rounded
    exact prefix sum."""
    starts = np.cumsum(lengths) - lengths
    out = []
    for n in checkpoints:
        counts = np.clip(n - starts, 0, lengths).astype(np.float64)
        out.append(complex(math.fsum(values.real * counts),
                           math.fsum(values.imag * counts)))
    return out


def log_mean(d: DiagonalSequence, schedule: Sequence[int]) -> LogMeanSeries:
    """Prefix-of-length-N logarithmic means at the checkpoints N of the
    schedule, a nonempty, strictly increasing list of positive N.

    N may pass the stored cap only when the sequence has a finite tail.  A
    run-form sequence is summed run by run, without expanding it.
    """
    ns = [int(n) for n in schedule]
    if not ns or ns[0] < 1 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"a schedule is a nonempty, strictly increasing list "
                         f"of positive N, got {ns}")
    if ns[-1] > d.cap and not d.finite_tail:
        raise ValueError(f"checkpoint N={ns[-1]} exceeds stored cap {d.cap} "
                         "and the sequence has no finite-tail guarantee")
    if d.lengths is None:
        sums = _prefix_sums_at(d.values, ns)
    else:
        sums = _run_sums_at(d.values, d.lengths, ns)
    return LogMeanSeries([(n, s / math.log(2 + n)) for n, s in zip(ns, sums)])


@dataclass(frozen=True)
class ExtendedLimitProbe:
    """Tail statistics of a log-mean series over its last PROBE_TAIL checkpoints."""

    min: float
    max: float
    mean: float
    last: float
    extrap: float
    residual: float
    oscillating: bool
    diverging: bool = False
    component: str = "real"

    def to_dict(self) -> dict:
        return {
            "min": self.min, "max": self.max, "mean": self.mean,
            "last": self.last, "extrap": self.extrap, "residual": self.residual,
            "oscillating": self.oscillating, "diverging": self.diverging,
            "component": self.component,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def probe(series: LogMeanSeries) -> ExtendedLimitProbe:
    """Tail min/max/mean/last plus a linear-in-1/m extrapolation.

    The extrapolation fits value = a + b/m over the last PROBE_TAIL
    checkpoints and reports the intercept a with the RMS fit residual, so a
    checkpoint N = 1 (m = 0) among them is refused.  The oscillation flag
    fires when (max-min)/max(|mean|, OSC_EPS) > OSC_TOL.
    """
    if len(series.checkpoints) < 3:
        raise ValueError("probe needs at least 3 checkpoints")
    vals_c = series.values()
    if np.max(np.abs(vals_c.imag)) <= 1e-9 * max(1.0, float(np.max(np.abs(vals_c.real)))):
        vals = vals_c.real.copy()
        component = "real"
    else:
        vals = np.abs(vals_c)
        component = "abs"
    ms = series.labels()
    t = min(PROBE_TAIL, len(vals))
    tv = vals[-t:]
    tm = ms[-t:]
    if np.any(tm == 0):
        raise ValueError(f"probe fits a + b/m with m = log2 N over the last {t} "
                         "checkpoints, and N = 1 (m = 0) is among them")
    vmin, vmax = float(tv.min()), float(tv.max())
    vmean = float(tv.mean())
    design = np.column_stack([np.ones(t), 1.0 / tm])
    coef, *_ = np.linalg.lstsq(design, tv, rcond=None)
    fit = design @ coef
    residual = float(np.sqrt(np.mean((tv - fit) ** 2)))
    oscillating = (vmax - vmin) / max(abs(vmean), OSC_EPS) > OSC_TOL
    mags = np.abs(tv)
    diverging = bool(len(mags) >= 3 and np.all(np.diff(mags) > 0)
                     and mags[-1] > 1.5 * mags[0] and mags[-1] > 1.0)
    return ExtendedLimitProbe(vmin, vmax, vmean, float(tv[-1]), float(coef[0]),
                              residual, bool(oscillating), diverging, component)
