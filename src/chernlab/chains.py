"""Exact-arithmetic Hochschild/cyclic chains over Laurent polynomials.

Chains are finite formal sums of elementary tensors of exact circle
series.  The algebra is never truncated, so the chain identities
(b b = 0, rotation periodicity, wedge cycles) hold exactly; truncation
windows enter only when a chain is paired with a cochain evaluator.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Dict, Sequence, Tuple

from .scalars import QGauss
from .series import FourierSeries, multiply

__all__ = ["LaurentChain", "boundary_b", "cyclic_lambda", "wedge", "pair"]


def _check_factor(f: FourierSeries):
    if f.domain != "circle" or not f.exact:
        raise ValueError("chain factors must be exact circle series")


@dataclass(frozen=True)
class LaurentChain:
    """A degree-k chain: formal sum of (k+1)-tensors with exact weights.

    terms maps tuples of exact FourierSeries to QGauss weights; the map is
    canonicalized (zero weights pruned) so equality is decidable.
    """

    degree: int
    terms: Dict[Tuple[FourierSeries, ...], QGauss] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for tensor, weight in self.terms.items():
            if len(tensor) != self.degree + 1:
                raise ValueError(f"tensor length {len(tensor)} does not match "
                                 f"degree {self.degree}")
            for f in tensor:
                _check_factor(f)
            w = QGauss.of(weight)
            cleaned[tuple(tensor)] = cleaned.get(tuple(tensor), QGauss()) + w
        cleaned = {t: w for t, w in cleaned.items() if not w.is_zero()}
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def elementary(factors: Sequence[FourierSeries], weight=1) -> "LaurentChain":
        return LaurentChain(len(factors) - 1, {tuple(factors): QGauss.of(weight)})

    @staticmethod
    def zero(degree: int) -> "LaurentChain":
        return LaurentChain(degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentChain") -> "LaurentChain":
        if self.degree != other.degree:
            raise ValueError("cannot add chains of different degrees")
        out = dict(self.terms)
        for t, w in other.terms.items():
            out[t] = out.get(t, QGauss()) + w
        return LaurentChain(self.degree, out)


def boundary_b(x: LaurentChain) -> LaurentChain:
    """The alternating-sum boundary: adjacent products with signs, plus the
    wrap-around term (-1)^k (f_k f_0) tensor f_1 ... f_{k-1}."""
    if x.degree < 1:
        raise ValueError("the boundary of a degree-0 chain is undefined")
    out: Dict[tuple, QGauss] = {}

    def accumulate(tensor, weight):
        out[tensor] = out.get(tensor, QGauss()) + weight

    for tensor, w in x.terms.items():
        k = x.degree
        for i in range(k):
            merged = tuple(tensor[:i]) + (multiply(tensor[i], tensor[i + 1]),) \
                + tuple(tensor[i + 2:])
            accumulate(merged, w * ((-1) ** i))
        wrap = (multiply(tensor[k], tensor[0]),) + tuple(tensor[1:k])
        accumulate(wrap, w * ((-1) ** k))
    return LaurentChain(x.degree - 1, out)


def cyclic_lambda(x: LaurentChain) -> LaurentChain:
    """The signed rotation (-1)^k f_1 tensor ... tensor f_k tensor f_0."""
    out: Dict[tuple, QGauss] = {}
    sign = (-1) ** x.degree
    for tensor, w in x.terms.items():
        rotated = tuple(tensor[1:]) + (tensor[0],)
        out[rotated] = out.get(rotated, QGauss()) + w * sign
    return LaurentChain(x.degree, out)


def wedge(a: Sequence[FourierSeries]) -> LaurentChain:
    """Antisymmetrization over the slots after slot 0:
    sum over permutations s of sign(s) a_0 tensor a_{s(1)} tensor ..."""
    if len(a) < 2:
        raise ValueError("wedge needs at least two factors")
    k = len(a) - 1
    out: Dict[tuple, QGauss] = {}
    for perm in permutations(range(1, k + 1)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k)
                         if perm[i] > perm[j])
        sign = (-1) ** inversions
        tensor = (a[0],) + tuple(a[i] for i in perm)
        out[tensor] = out.get(tensor, QGauss()) + QGauss.of(sign)
    return LaurentChain(k, out)


def pair(cochain: Callable, x: LaurentChain) -> QGauss:
    """The exact pairing: the sum over the chain's terms of the weight times
    cochain(list(tensor)).exact_value.  An evaluation without an exact
    QGauss value is refused."""
    total = QGauss()
    for tensor, w in x.terms.items():
        value = cochain(list(tensor)).exact_value
        if not isinstance(value, QGauss):
            raise ValueError("pairing needs an exact value for every term, "
                             f"got {value!r}")
        total += w * value
    return total
