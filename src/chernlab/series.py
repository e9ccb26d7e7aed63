"""Fourier-side representations of functions on the circle and the torus.

A function is stored as a finitely supported coefficient map on Z (circle)
or Z^2 (torus).  Coefficients are either exact Gaussian rationals (QGauss)
or ordinary complex floats; the exactness flag records which.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Tuple, Union

import numpy as np

from .scalars import QGauss, format_rational

CircleIndex = int
TorusIndex = Tuple[int, int]
FrequencyIndex = Union[CircleIndex, TorusIndex]

MAX_FREQUENCY_BITS = 62


def cross(m: TorusIndex, n: TorusIndex) -> int:
    """Antisymmetric pairing m x n = Im(conj(m) n) under (k1,k2) <-> k1+i*k2."""
    return m[0] * n[1] - m[1] * n[0]


@dataclass(frozen=True)
class BoundedSequence:
    """A sequence N -> complex given by a rule and a declared bound; every
    value is checked against the bound when it is read."""

    rule: Callable[[int], complex]
    bound: float

    @staticmethod
    def constant(value) -> "BoundedSequence":
        return BoundedSequence(lambda k: value, abs(complex(value)))

    def __call__(self, k: int):
        if k < 0:
            raise IndexError("sequence index must be nonnegative")
        v = self.rule(k)
        if abs(complex(v)) > self.bound + 1e-12:
            raise ValueError(f"sequence value {v} at {k} exceeds declared bound {self.bound}")
        return v


def _coerce_coeff(value, exact: bool):
    if exact:
        return QGauss.of(value)
    if isinstance(value, QGauss):
        return value.to_complex()
    return complex(value)


@dataclass(frozen=True)
class FourierSeries:
    """Finitely supported coefficient map on Z (circle) or Z^2 (torus).

    The canonical key and its hash are computed once, at construction, so
    coeffs must not be mutated afterwards.
    """

    domain: str
    coeffs: Dict[FrequencyIndex, object] = field(default_factory=dict)
    exact: bool = False
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.domain not in ("circle", "torus"):
            raise ValueError(f"unknown domain {self.domain!r}")
        cleaned = {}
        for k, v in self.coeffs.items():
            if self.domain == "torus":
                k = (int(k[0]), int(k[1]))
            else:
                k = int(k)
            v = _coerce_coeff(v, self.exact)
            if (v.is_zero() if self.exact else v == 0):
                continue
            cleaned[k] = v
        object.__setattr__(self, "coeffs", cleaned)
        items = []
        for k in sorted(cleaned, key=lambda f: (f,) if self.domain == "circle" else f):
            v = cleaned[k]
            items.append((k, (v.re, v.im)) if self.exact else (k, v))
        key = (self.domain, self.exact, tuple(items))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    # -- constructors -------------------------------------------------

    @staticmethod
    def monomial(freq: FrequencyIndex, coeff=1, domain: str = "circle",
                 exact: bool = True) -> "FourierSeries":
        return FourierSeries(domain, {freq: coeff}, exact)

    @staticmethod
    def one(domain: str = "circle") -> "FourierSeries":
        freq = 0 if domain == "circle" else (0, 0)
        return FourierSeries.monomial(freq, 1, domain)

    # -- basic queries -------------------------------------------------

    def support(self):
        return set(self.coeffs)

    def max_frequency(self) -> int:
        """Largest coordinate magnitude in the support (0 for the zero series)."""
        if not self.coeffs:
            return 0
        if self.domain == "circle":
            return max(abs(k) for k in self.coeffs)
        return max(max(abs(k[0]), abs(k[1])) for k in self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def _check_domain(self, other: "FourierSeries"):
        if self.domain != other.domain:
            raise ValueError(f"domain mismatch: {self.domain} vs {other.domain}")

    def scale(self, scalar) -> "FourierSeries":
        exact = self.exact and isinstance(scalar, (int, Fraction, QGauss))
        out = {}
        s = QGauss.of(scalar) if exact else complex(
            scalar.to_complex() if isinstance(scalar, QGauss) else scalar)
        for k, v in self.coeffs.items():
            out[k] = _coerce_coeff(v, exact) * s
        return FourierSeries(self.domain, out, exact)

    def star(self) -> "FourierSeries":
        """Pointwise complex conjugate: coefficient at k becomes conj(a_{-k})."""
        out = {}
        for k, v in self.coeffs.items():
            nk = -k if self.domain == "circle" else (-k[0], -k[1])
            out[nk] = v.conjugate()
        return FourierSeries(self.domain, out, self.exact)

    def to_float(self) -> "FourierSeries":
        if not self.exact:
            return self
        return FourierSeries(
            self.domain, {k: v.to_complex() for k, v in self.coeffs.items()}, False)

    def __eq__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def evaluate_grid(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized circle evaluation on an array of angles."""
        if self.domain != "circle":
            raise ValueError("evaluate_grid supports circle series only")
        out = np.zeros(np.shape(thetas), dtype=complex)
        for k, c in self.to_float().coeffs.items():
            out += c * np.exp(1j * k * np.asarray(thetas))
        return out


def multiply(f: FourierSeries, g: FourierSeries) -> FourierSeries:
    """Pointwise product, realized as convolution of coefficient maps."""
    f._check_domain(g)
    exact = f.exact and g.exact
    fc, gc = (f.coeffs, g.coeffs) if exact else (f.to_float().coeffs, g.to_float().coeffs)
    out: Dict[FrequencyIndex, object] = {}
    for kf, vf in fc.items():
        for kg, vg in gc.items():
            k = kf + kg if f.domain == "circle" else (kf[0] + kg[0], kf[1] + kg[1])
            cur = out.get(k)
            out[k] = vf * vg if cur is None else cur + vf * vg
    return FourierSeries(f.domain, out, exact)


def lacunary_series(c: BoundedSequence, alpha: float, level_cap: int) -> FourierSeries:
    """The lacunary embedding: sum_k c_k 2^{-alpha k} z^{2^k}, k = 0..level_cap.

    Produces a floating circle series supported on powers of two.
    """
    a = float(alpha)
    if not 0 < a < 1:
        raise ValueError(f"lacunary exponent must lie in (0,1), got {a}")
    if level_cap < 1:
        raise ValueError("level_cap must be at least 1")
    if level_cap >= MAX_FREQUENCY_BITS:
        raise ValueError(f"level_cap {level_cap} overflows the frequency type")
    out = {}
    for k in range(level_cap + 1):
        ck = complex(c(k))
        if ck != 0:
            out[2 ** k] = ck * 2.0 ** (-a * k)
    return FourierSeries("circle", out, False)


# -- serialization -----------------------------------------------------

def series_to_text(f: FourierSeries) -> str:
    lines = [f"# domain={f.domain} exact={1 if f.exact else 0}"]
    keys = sorted(f.coeffs, key=lambda k: (k,) if f.domain == "circle" else k)
    for k in keys:
        v = f.coeffs[k]
        if f.exact:
            re, im = format_rational(v.re), format_rational(v.im)
        else:
            re, im = repr(v.real), repr(v.imag)
        if f.domain == "circle":
            lines.append(f"{k} {re} {im}")
        else:
            lines.append(f"{k[0]} {k[1]} {re} {im}")
    return "\n".join(lines) + "\n"
