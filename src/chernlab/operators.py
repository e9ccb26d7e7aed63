"""Fourier-basis operator models: Szego projector, circle and torus phases,
sparse truncated commutators, singular values, weak-Schatten diagnostics.

All operators here are either diagonal in the Fourier basis (phase
operators) or banded-sparse (commutators with multiplication operators).
Each records its bandwidth and, where it has one, its support radius: a
circle commutator has finite rank, every entry within max_frequency of
the origin.  A diagonal read follows index paths from n back to n, each
step within one factor's bandwidth and inside the radii either side, so
one path rule (exact_bound) gives the smallest window at which a read is
exact, and diagonal extraction refuses an index that needs a larger one.
This makes window truncation loud instead of silently biased.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Dict, Iterable, Sequence, Tuple

import numpy as np

from .series import FourierSeries, FrequencyIndex, TorusIndex, cross

__all__ = [
    "OperatorModel", "SparseOperator", "symmetric_order", "torus_shells",
    "SingularValueSequence", "WindowLeakageError", "commutator", "commutator_shape",
    "compose",
    "exact_bound", "product_diagonal", "product_diagonals", "singular_values", "weak_quasinorm",
    "rho_exact_terms",
]


class WindowLeakageError(ValueError):
    """Raised when a truncation window is too small for an exact answer."""


# ---------------------------------------------------------------------------
# operator models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorModel:
    """A diagonal-phase operator in the Fourier basis.

    kinds: szego_P (projection onto nonnegative frequencies), circle_F
    (2P-1, with sign(0)=1), torus_U (phase k/|k| with phase 1 at the
    origin), torus_U_star (its adjoint).  The torus block symmetry
    [[0, U], [U*, 0]] has no scalar phase; the graded evaluators in
    cocycles build it from torus_U and torus_U_star.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("szego_P", "circle_F", "torus_U", "torus_U_star"):
            raise ValueError(f"unknown operator kind {self.kind!r}")

    @property
    def domain(self) -> str:
        return "circle" if self.kind in ("szego_P", "circle_F") else "torus"

    def adjoint(self) -> "OperatorModel":
        if self.kind == "torus_U":
            return OperatorModel("torus_U_star")
        if self.kind == "torus_U_star":
            return OperatorModel("torus_U")
        return self

    def phase(self, k: FrequencyIndex):
        """Eigenvalue on the basis vector e_k."""
        if self.kind == "szego_P":
            return 1 if k >= 0 else 0
        if self.kind == "circle_F":
            return 1 if k >= 0 else -1
        if k == (0, 0):
            return 1.0 + 0.0j
        z = complex(k[0], k[1])
        u = z / abs(z)
        return u if self.kind == "torus_U" else u.conjugate()

    def phase_array(self, k1: np.ndarray, k2: np.ndarray | None = None) -> np.ndarray:
        """Vectorized phase over integer frequency arrays."""
        if self.kind == "szego_P":
            return (k1 >= 0).astype(np.int64)
        if self.kind == "circle_F":
            return np.where(k1 >= 0, 1, -1).astype(np.int64)
        z = k1.astype(np.complex128) + 1j * k2.astype(np.complex128)
        mod = np.abs(z)
        u = np.where(mod == 0, 1.0 + 0j, z / np.where(mod == 0, 1.0, mod))
        return u if self.kind == "torus_U" else np.conj(u)


# ---------------------------------------------------------------------------
# diagonal orders
# ---------------------------------------------------------------------------

def symmetric_order(n: int) -> list:
    """The first n circle frequencies in the order 0, -1, 1, -2, 2, ..."""
    return [k // 2 if k % 2 == 0 else -(k + 1) // 2 for k in range(n)]


# torus_shells lists its candidate box as int64 arrays and returns the
# kept points as Python int pairs; a box with more points than this is
# refused before it is made.  The budget admits up to 64799 shells, whose
# 891009 points peak at 152 MB under tracemalloc.
MAX_SHELL_BOX = 1 << 21


@functools.lru_cache(maxsize=None)
def torus_shells(n: int) -> Tuple[TorusIndex, ...]:
    """Lattice points of the first n distinct values of |k|^2.

    Ordered by increasing |k|^2, ties lexicographic by (k1, k2); an
    immutable tuple, computed once per n and shared.  A candidate box of
    lattice points with more than MAX_SHELL_BOX points raises ValueError
    before it is made.
    """
    if n < 1:
        raise ValueError(f"torus_shells needs at least one shell, got {n}")
    radius = int(math.isqrt(2 * n)) + 2
    while True:
        side = 2 * radius + 1
        if side * side > MAX_SHELL_BOX:
            raise ValueError(f"torus_shells({n}) needs a box of half-width {radius}, "
                             f"{side * side} points, more than "
                             f"MAX_SHELL_BOX = {MAX_SHELL_BOX}; use fewer shells")
        sq = np.arange(-radius, radius + 1) ** 2
        norms = sq[:, None] + sq
        # distinct norms below radius^2 are guaranteed complete
        seen = np.zeros(radius * radius + 1, dtype=bool)
        seen[norms[norms <= radius * radius]] = True
        complete = np.flatnonzero(seen)
        if len(complete) >= n:
            break
        radius *= 2
    # nonzero lists the kept points by (k1, k2), and the stable sort keeps
    # that order among equal norms
    k1, k2 = np.nonzero(norms <= complete[n - 1])
    order = np.argsort(norms[k1, k2], kind="stable")
    return tuple(zip((k1[order] - radius).tolist(), (k2[order] - radius).tolist()))


# ---------------------------------------------------------------------------
# sparse operators
# ---------------------------------------------------------------------------

def _linear_index(domain: str, bound: int, idx) -> np.ndarray:
    """Box positions of frequency indices: k + W on the circle and
    (k1 + W)(2W + 1) + (k2 + W) on the torus."""
    if domain == "circle":
        return np.asarray(idx, dtype=np.int64) + bound
    k = np.asarray(idx, dtype=np.int64).reshape(-1, 2)
    return (k[:, 0] + bound) * (2 * bound + 1) + (k[:, 1] + bound)


# An operator keeps an int64 indptr with one entry per window row, and its
# diagonals one complex128 entry per row, so a window with more rows than
# this (256 MiB of indptr) is refused before any row-length array is made.
# It counts rows, not entries: the wedge's window is 2^level_cap under
# exact_bound's path rule, so caps up to 23 are admitted, and at cap 23 the
# commutators' 2^24 entries each and their products outgrow 3 GB.
MAX_WINDOW_DIM = 1 << 25


def _dim(domain: str, bound: int) -> int:
    """The number of window rows; raises ValueError past MAX_WINDOW_DIM."""
    n = 2 * bound + 1 if domain == "circle" else (2 * bound + 1) ** 2
    if n > MAX_WINDOW_DIM:
        raise ValueError(f"a {domain} window of bound {bound} has {n} rows, more than "
                         f"MAX_WINDOW_DIM = {MAX_WINDOW_DIM}; use a smaller window")
    return n


def _concat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _band(domain: str, bound: int, f) -> tuple:
    """Linear positions of the box columns c whose row c + f is also in
    the box (in frequency order), and the position offset from c to c + f."""
    side = 2 * bound + 1
    if domain == "circle":
        return np.arange(max(0, -f), min(side, side - f), dtype=np.int64), f
    c1 = np.arange(max(0, -f[0]), min(side, side - f[0]), dtype=np.int64)
    c2 = np.arange(max(0, -f[1]), min(side, side - f[1]), dtype=np.int64)
    return (c1[:, None] * side + c2).ravel(), f[0] * side + f[1]


@dataclass(frozen=True)
class SparseOperator:
    """Sparse matrix over frequency indices within a symmetric box window.

    bound: the box half-width W (circle: |k| <= W; torus: |k|_inf <= W).
    bandwidth: max |row - col|_inf over entries of the untruncated operator.
    radius: the support radius, a bound on |row|_inf and |col|_inf over
    entries of the untruncated operator, or None where there is none
    (phases, multiplication operators, torus commutators).

    The entries are one read-only row-major CSR triple over the linear box
    positions (circle k + W, torus (k1 + W)(2W + 1) + (k2 + W)): int64
    indptr, int64 cols ascending within each row, and complex128 vals.
    Each position occurs at most once.  Exact-coefficient inputs build the
    same float form; exact finite-rank traces are computed without an
    operator (cocycles).
    """

    domain: str
    bound: int
    bandwidth: int
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    radius: int | None = None
    # no operator is exact; the benchmark's trace hook (bench/spans.py) reads it
    exact: ClassVar[bool] = False

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_entries(domain: str, bound: int, bandwidth: int,
                     rows, cols, vals, radius: int | None = None) -> "SparseOperator":
        """From complex entries in any order at linear box positions.
        Raises ValueError when two entries share a position, and
        WindowLeakageError when no column is exact."""
        if bound < bandwidth:
            raise WindowLeakageError(
                f"window bound {bound} is smaller than the bandwidth {bandwidth}")
        n = _dim(domain, bound)
        return SparseOperator(domain, bound, bandwidth,
                              *_csr(np.asarray(rows, np.int64), np.asarray(cols, np.int64),
                                    vals, (n, n)), radius)

    @staticmethod
    def from_dict(domain: str, bound: int, entries: dict, bandwidth: int) -> "SparseOperator":
        """The float operator of {(row, col): value} keyed by frequency
        indices; zeros are dropped."""
        items = [(r, c, v) for (r, c), v in ((k, complex(v)) for k, v in entries.items()) if v]
        return SparseOperator.from_entries(
            domain, bound, bandwidth,
            _linear_index(domain, bound, [r for r, _, _ in items]),
            _linear_index(domain, bound, [c for _, c, _ in items]), [v for _, _, v in items])

    @staticmethod
    def diagonal_phase(op: OperatorModel, bound: int) -> "SparseOperator":
        """The phase operator itself, truncated to the box window."""
        n = _dim(op.domain, bound)
        if op.domain == "torus":
            # op.phase's bits: abs(complex) is libm hypot, and z / abs(z)
            # divides each part by it (phase_array's np.abs can differ)
            side = np.arange(-bound, bound + 1, dtype=np.float64)
            k1, k2 = (k.ravel() for k in np.meshgrid(side, side, indexing="ij"))
            h = np.hypot(k1, k2)
            with np.errstate(invalid="ignore"):
                re, im = k1 / h, k2 / h
            if op.kind == "torus_U_star":
                im = -im
            # the origin is 1 + 0j for both kinds, set after the conjugation
            re[n // 2], im[n // 2] = 1.0, 0.0
            pos = np.arange(n)
            return SparseOperator("torus", bound, 0, *_frozen(
                _indptr(pos, n), pos, _complex(re, im)))
        phase = op.phase_array(np.arange(-bound, bound + 1, dtype=np.int64))
        pos = np.flatnonzero(phase)
        return SparseOperator("circle", bound, 0, *_frozen(
            _indptr(pos, n), pos, phase[pos].astype(np.complex128)))

    @staticmethod
    def from_csr(csr: tuple, domain: str, bound: int, bandwidth: int,
                 radius: int | None = None) -> "SparseOperator":
        """The float operator of a read-only square CSR triple."""
        return SparseOperator(domain, bound, bandwidth, *csr, radius)

    # -- basic queries -----------------------------------------------------

    def nnz(self) -> int:
        return len(self.vals)

    def dim(self) -> int:
        return _dim(self.domain, self.bound)

    def to_float(self) -> "SparseOperator":
        """The operator itself; kept because bench/spans.py times it on the
        to_csr path."""
        return self

    def to_csr(self) -> tuple:
        """The CSR triple (indptr, cols, vals)."""
        f = self.to_float()
        return f.indptr, f.cols, f.vals

    def trace(self) -> complex:
        """Sum of the stored diagonal, row by row."""
        return sum(self.vals[self.cols == _rows(self.indptr)], 0j)

    def _select(self, keep: np.ndarray) -> "SparseOperator":
        """The operator with only the entries where the mask keep is true."""
        return SparseOperator(self.domain, self.bound, self.bandwidth,
                              *_frozen(_indptr(_rows(self.indptr)[keep], self.dim()),
                                       self.cols[keep], self.vals[keep]), self.radius)


# ---------------------------------------------------------------------------
# CSR kernels
#
# A CSR triple (indptr, cols, vals) holds each position once, columns
# ascending within a row, complex128 values.  The kernels fix their
# summation order to the last bit, because the artifacts are pinned by
# digest: a product entry is summed from zero over ascending inner index
# (Gustavson's row-by-row product, the order of the usual compiled
# csr_matmat), and a product diagonal reduces each row's nonzero products,
# in ascending column, with one np.add.reduceat.  Complex products use the
# textbook formula on real and imaginary parts; numpy's complex multiply can
# differ from it in the last bit.  The tests check both kernels bit for bit
# against a compiled sparse library where one is installed.
# ---------------------------------------------------------------------------

def _csr(rows: np.ndarray, cols: np.ndarray, vals, shape: tuple) -> tuple:
    """The read-only CSR triple of entries at (row, col) positions in any
    order; raises ValueError when two share a position."""
    key = rows * shape[1] + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    if np.any(key[1:] == key[:-1]):
        raise ValueError("two entries share a position; a CSR triple holds each once")
    return _frozen(_indptr(rows, shape[0]), cols[order], np.asarray(vals, np.complex128)[order])


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


# Rows can far outnumber entries (a wide window, a narrow band), so the
# kernels make no row-length array besides their results (an indptr, a
# diagonal).

def _indptr(rows: np.ndarray, nrows: int) -> np.ndarray:
    """The indptr of entries in the given rows."""
    indptr = np.bincount(rows + 1, minlength=nrows + 1)
    return np.cumsum(indptr, out=indptr)


def _rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a CSR triple: entry e is in row
    #{r >= 1 : indptr[r] <= e}."""
    nnz = int(indptr[-1])
    return np.cumsum(np.bincount(indptr[1:-1], minlength=nnz + 1)[:nnz])


def _dense(csr: tuple, shape: tuple, real: bool = False) -> np.ndarray:
    """The dense matrix of a CSR triple, complex128, or float64 from the
    real parts when real; entries are added to zero, so a signed zero
    reads as +0."""
    indptr, cols, vals = csr
    out = np.zeros(shape, np.float64 if real else np.complex128)
    out[_rows(indptr), cols] += vals.real if real else vals
    return out


def _complex_product(x: np.ndarray, y: np.ndarray) -> tuple:
    """(real, imag) of x * y by the textbook formula."""
    return x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(len(re), np.complex128)
    out.real, out.imag = re, im
    return out


def _matmul(a: tuple, b: tuple, ncols: int) -> tuple:
    """The CSR triple of a @ b, where b has ncols columns; exact zeros are
    dropped."""
    ap, aj, ax = a
    bp, bj, bx = b
    counts = bp[aj + 1] - bp[aj]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    # every product in generation order: a's entries row by row, ascending
    # inner index, each against its row of b
    src = np.repeat(bp[aj] - ends + counts, counts)
    src += np.arange(total)
    key = np.repeat(_rows(ap) * ncols, counts)
    key += bj[src]
    re, im = _complex_product(np.repeat(ax, counts), bx[src])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(total, bool)
    first[1:] = key[1:] != key[:-1]
    group = np.cumsum(first) - 1
    # bincount adds each group's weights to zero in input order
    re = np.bincount(group, weights=re[order])
    im = np.bincount(group, weights=im[order])
    keep = (re != 0) | (im != 0)
    key = key[first][keep]
    rows = key // ncols
    return _frozen(_indptr(rows, len(ap) - 1), key - rows * ncols,
                   _complex(re[keep], im[keep]))


def _product_diagonal(left: tuple, right: tuple) -> np.ndarray:
    """diag(left @ right) of square CSR triples: row i reduces its nonzero
    products left(i, k) right(k, i), in ascending k, with np.add.reduceat."""
    lp, lj, lx = left
    rp, rj, rx = right
    n = len(lp) - 1
    out = np.zeros(n, np.complex128)
    if len(lx) == 0 or len(rx) == 0:
        return out
    lrows = _rows(lp)
    lkey = lrows * n + lj
    # right(k, i) sits at key i * n + k of the transpose
    tkey = rj * n + _rows(rp)
    torder = np.argsort(tkey)
    tkey = tkey[torder]
    at = np.minimum(np.searchsorted(tkey, lkey), len(tkey) - 1)
    hit = np.flatnonzero(tkey[at] == lkey)
    re, im = _complex_product(lx[hit], rx[torder[at[hit]]])
    keep = (re != 0) | (im != 0)
    if not np.any(keep):
        return out
    rows = lrows[hit][keep]
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    # added to zero, so a row sum of -0 reads as +0
    out[rows[starts]] += np.add.reduceat(_complex(re[keep], im[keep]), starts)
    return out


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def commutator(op: OperatorModel, a: FourierSeries, bound: int) -> SparseOperator:
    """The matrix of [op, M_a] on the window: entry (r, c) = a_{r-c} (phase(r) - phase(c)).

    Entries are exact values of the untruncated commutator (truncation only
    removes rows/columns, it never perturbs retained entries).  Its
    bandwidth and support radius are commutator_shape(a); a window bound
    below the bandwidth raises WindowLeakageError, and the caller must
    enlarge the window.
    """
    if op.domain != a.domain:
        raise ValueError(f"domain mismatch: operator {op.domain} vs series {a.domain}")
    _dim(op.domain, bound)  # an oversized window raises before any array is made
    bandwidth, radius = commutator_shape(a)
    entries = (_commutator_circle if op.domain == "circle" else _commutator_torus)(op, a, bound)
    return SparseOperator.from_entries(op.domain, bound, bandwidth, *entries, radius)


def commutator_shape(a: FourierSeries) -> tuple:
    """(bandwidth, support radius) of a phase commutator [op, M_a].

    A circle phase is constant on each side of 0, so the entry (c + f, c)
    is nonzero only where c and c + f straddle 0: the commutator has
    finite rank, every row and column within max_frequency(a) of 0.  A
    torus phase varies everywhere, so a torus commutator has no radius.
    """
    bandwidth = a.max_frequency()
    return bandwidth, bandwidth if a.domain == "circle" else None


def _commutator_circle(op: OperatorModel, a: FourierSeries, bound: int) -> tuple:
    step = 1 if op.kind == "szego_P" else 2
    rows, cols, vals = [], [], []
    for f, coeff in a.coeffs.items():
        if f == 0:
            continue
        # phase(r) != phase(c) with r = c + f happens exactly for the |f|
        # columns where r and c straddle zero (sign(0) = +1 side included)
        if f > 0:
            lo, hi, sgn = max(-f, -bound), min(0, bound - f + 1), step
        else:
            lo, hi, sgn = max(0, -bound - f), min(-f, bound + 1), -step
        if hi > lo:
            cs = np.arange(lo, hi, dtype=np.int64) + bound
            rows.append(cs + f)
            cols.append(cs)
            # an exact coefficient is scaled before it is rounded
            vals.append(np.full(hi - lo, complex(coeff * sgn), np.complex128))
    return _concat(rows, np.int64), _concat(cols, np.int64), _concat(vals, np.complex128)


def _commutator_torus(op: OperatorModel, a: FourierSeries, bound: int) -> tuple:
    side = np.arange(-bound, bound + 1, dtype=np.int64)
    c1, c2 = (k.ravel() for k in np.meshgrid(side, side, indexing="ij"))
    phase_c = op.phase_array(c1, c2)
    rows, cols, vals = [], [], []
    for f, coeff in a.coeffs.items():
        col, shift = _band("torus", bound, f)
        pv = op.phase_array(c1[col] + f[0], c2[col] + f[1]) - phase_c[col]
        nz = pv != 0
        cols.append(col[nz])
        rows.append(col[nz] + shift)
        vals.append(complex(coeff) * pv[nz])
    return _concat(rows, np.int64), _concat(cols, np.int64), _concat(vals, np.complex128)


def multiplication_operator(a: FourierSeries, bound: int) -> SparseOperator:
    """The matrix of M_a on the box window: entry (c+f, c) = a_f."""
    _dim(a.domain, bound)  # an oversized window raises before any array is made
    bands = [(_band(a.domain, bound, f), coeff) for f, coeff in a.coeffs.items()]
    return SparseOperator.from_entries(
        a.domain, bound, a.max_frequency(),
        _concat([col + shift for (col, shift), _ in bands], np.int64),
        _concat([col for (col, _), _ in bands], np.int64),
        _concat([np.full(len(col), complex(coeff), np.complex128)
                 for (col, _), coeff in bands], np.complex128))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _same_window(ops: Sequence[SparseOperator]) -> None:
    """Raises on a domain or window mismatch among ops."""
    for a, b in zip(ops, ops[1:]):
        if a.domain != b.domain:
            raise ValueError("window/domain mismatch in composition")
        if a.bound != b.bound:
            raise ValueError(f"window mismatch: bounds {a.bound} vs {b.bound}")


def _compose_pair(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """a @ b.  Its bandwidth is the sum of theirs; an entry (r, c) needs an
    inner index k with a(r, k) and b(k, c) nonzero, so its rows lie within
    min(R_a, R_b + bandwidth_a) and its columns within min(R_b, R_a +
    bandwidth_b), where a missing radius is unbounded."""
    _same_window([a, b])
    rows = _least(a.radius, _shifted(b.radius, a.bandwidth))
    cols = _least(b.radius, _shifted(a.radius, b.bandwidth))
    radius = None if rows is None else max(rows, cols)
    return SparseOperator.from_csr(_matmul(a.to_csr(), b.to_csr(), a.dim()),
                                   a.domain, a.bound, a.bandwidth + b.bandwidth, radius)


def _shifted(radius: int | None, by: int) -> int | None:
    return None if radius is None else radius + by


def _least(*values) -> int | None:
    """The smallest of the values that are not None, or None."""
    return min((v for v in values if v is not None), default=None)


def compose(ops: Sequence[SparseOperator]) -> SparseOperator:
    """Matrix product of the operators, left to right."""
    if not ops:
        raise ValueError("compose needs at least one operator")
    result = ops[0]
    for op in ops[1:]:
        result = _compose_pair(result, op)
    return result


def product_diagonal(ops: Sequence[SparseOperator], indices: Iterable) -> np.ndarray:
    """Diagonal entries of the product of two or more ops at the given
    frequencies (product_diagonals of the one product)."""
    return product_diagonals([ops], indices)[0]


def product_diagonals(products: Sequence[Sequence[SparseOperator]],
                      indices: Iterable) -> list:
    """Diagonal entries at the given frequencies of each product of two or
    more operators, one array per product.

    Each product splits its factor list in half and contracts row-by-column,
    which avoids materializing the full product.  The first factor keeps
    only the requested rows and the last only the requested columns before
    anything is composed, so every entry is summed as in the full product.
    A half is composed left to right, and the prefixes it shares with the
    same half of the previous product (the same factor objects) are taken
    from that product, not composed again.
    """
    idx = list(indices)
    if not idx:
        raise ValueError("product_diagonal needs at least one frequency index")
    left_chain, right_chain = [], []
    out = []
    for ops in products:
        ops = list(ops)
        if len(ops) < 2:
            raise ValueError("product_diagonal needs at least two operators")
        pos = _diagonal_positions(ops, idx)
        mid = (len(ops) + 1) // 2
        left = _chain(left_chain, [(ops[0], "rows")] + [(op, None) for op in ops[1:mid]], pos)
        right = _chain(right_chain, [(op, None) for op in ops[mid:-1]] + [(ops[-1], "cols")], pos)
        out.append(_product_diagonal(left.to_csr(), right.to_csr())[pos])
    return out


def _chain(previous: list, factors: list, pos: np.ndarray) -> SparseOperator:
    """The left-to-right product of factors, given as (operator, part)
    pairs: part "rows" or "cols" keeps only the rows or the columns at the
    box positions pos, None keeps the whole operator.  previous holds
    (operator, part, prefix product) triples of the chain before; the
    prefixes on which the two chains agree are reused, and previous becomes
    this chain."""
    reused = 0
    for (op, part), (prev_op, prev_part, _) in zip(factors, previous):
        if op is not prev_op or part != prev_part:
            break
        reused += 1
    del previous[reused:]
    for op, part in factors[reused:]:
        factor = op
        if part is not None:
            wanted = np.zeros(op.dim(), bool)
            wanted[pos] = True
            factor = op._select(wanted[_rows(op.indptr) if part == "rows" else op.cols])
        product = compose([previous[-1][2], factor]) if previous else factor
        previous.append((op, part, product))
    return previous[-1][2]


def _diagonal_positions(ops: list, idx: list) -> np.ndarray:
    """Box positions of the diagonal frequencies idx of the product of ops;
    raises WindowLeakageError naming the first index whose read needs a
    larger window than the operators' bound (exact_bound's rule)."""
    _same_window(ops)
    shapes = [(op.bandwidth, op.radius) for op in ops]
    k = np.abs(np.asarray(idx, dtype=np.int64))
    norms = k if ops[0].domain == "circle" else k.reshape(-1, 2).max(axis=1)
    bound = ops[0].bound
    # the window the rule needs never falls as the index norm grows
    if _path_window(shapes, int(norms.max())) > bound:
        for i, n in enumerate(norms.tolist()):
            needed = _path_window(shapes, n)
            if needed > bound:
                raise WindowLeakageError(
                    f"diagonal at {idx[i]} needs window bound {needed}, more than {bound}; "
                    f"enlarge the construction window")
    return _linear_index(ops[0].domain, bound, idx)


def _path_window(factors: Sequence[tuple], n: int) -> int:
    """The window exact_bound's rule gives at the index norm n."""
    bands = [b for b, _ in factors]
    # inner index t sits between factors t and t + 1: the column of one and
    # the row of the other, so within both their radii
    caps = [_least(r, s) for (_, r), (_, s) in zip(factors, factors[1:])]
    forward, f = [], n
    for b, cap in zip(bands, caps):
        f = _least(f + b, cap)
        forward.append(f)
    window, g = max([n] + bands), n
    for b, cap, f in zip(bands[:0:-1], caps[::-1], forward[::-1]):
        g = _least(g + b, cap)
        window = max(window, min(f, g))
    return window


def exact_bound(factors: Sequence[tuple], indices: Iterable) -> int:
    """The smallest window bound at which the product A_1...A_k of factors,
    given as (bandwidth b_t, support radius R_t or None) pairs, has an exact
    diagonal at every frequency in indices.

    A nonzero term of the diagonal at n is a path n = k_0, k_1, ...,
    k_k = n with A_t(k_(t-1), k_t) nonzero, so each step moves by at most
    b_t, and the inner index k_t is within R_t and R_(t+1).  With N the
    largest |index|_inf, F_0 = N, F_t = min(F_(t-1) + b_t, R_t, R_(t+1)) from
    the left and G_t alike from the right, every inner index has |k_t| <=
    min(F_t, G_t).  The bound is the largest of N, those inner bounds and
    the bandwidths (a factor is never built in a window narrower than its
    bandwidth).  It never exceeds N plus the summed bandwidths.  A range
    is read at its two ends only, so an oversized one reaches the window
    budget without being listed.
    """
    if isinstance(indices, range):
        k = max(abs(indices[0]), abs(indices[-1])) if indices else 0
    else:
        k = int(np.abs(np.asarray(list(indices), dtype=np.int64)).max(initial=0))
    return _path_window(factors, k)


# ---------------------------------------------------------------------------
# singular values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularValueSequence:
    mu: np.ndarray
    provenance: str

    def __post_init__(self):
        m = np.asarray(self.mu, dtype=float)
        if np.any(m < -1e-12):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(m) > 1e-9 * (1 + m[:-1] if len(m) > 1 else 1)):
            raise ValueError("singular values must be nonincreasing")
        object.__setattr__(self, "mu", np.maximum(m, 0.0))

    def to_csv(self) -> str:
        lines = [f"# {self.provenance}", "k,mu"]
        lines += [f"{k},{v:.12g}" for k, v in enumerate(self.mu)]
        return "\n".join(lines) + "\n"


DENSE_SVD_DIM = 512
GRAM_EIG_DIM = 9000


def singular_values(a: SparseOperator, count: int) -> SingularValueSequence:
    """Top `count` singular values, padded with the exact zeros beyond the rank.

    The operator is first compressed to a CSR triple over its nonzero rows
    and columns.  A compressed matrix with max(shape) <= DENSE_SVD_DIM
    takes a dense SVD; one with min(shape) <= GRAM_EIG_DIM takes a dense
    symmetric eigensolve of its smaller Gram matrix, formed by the CSR
    product kernel.  A larger one raises ValueError before any matrix is
    built.  The Gram is float64 when its sparse product is real and
    complex128 otherwise, so a real operator costs n^2 * 8 bytes for the
    Gram plus as much for the eigensolver's copy: about 1.3 GB at
    n = GRAM_EIG_DIM, and twice that for a complex one.  The test suite
    checks both branches against the closed-form spectrum of a lacunary
    Hankel commutator.
    """
    if len(a.vals) == 0:
        return SingularValueSequence(np.zeros(count), "zero operator")
    rpos, ri = np.unique(_rows(a.indptr), return_inverse=True)
    cpos, ci = np.unique(a.cols, return_inverse=True)
    nr, nc = len(rpos), len(cpos)
    if min(nr, nc) > GRAM_EIG_DIM:
        raise ValueError(f"compressed operator is {nr} x {nc}; singular_values needs "
                         f"min dimension <= GRAM_EIG_DIM = {GRAM_EIG_DIM}; "
                         f"use a smaller window")
    mat = _csr(ri, ci, a.vals, (nr, nc))
    if max(nr, nc) <= DENSE_SVD_DIM:
        mu = np.linalg.svd(_dense(mat, (nr, nc)), compute_uv=False)
        method = "dense"
    else:
        adj = _csr(ci, ri, np.conj(a.vals), (nc, nr))
        gram = _matmul(mat, adj, nr) if nr <= nc else _matmul(adj, mat, nc)
        n = min(nr, nc)
        # the sparse product decides whether the Gram is real: a real one is
        # scattered straight into float64, the same bits as the real part of
        # the complex dense matrix at half its size
        g = _dense(gram, (n, n), real=np.all(gram[2].imag == 0))
        mu = np.sqrt(np.clip(np.linalg.eigvalsh(g), 0.0, None))
        method = "gram eigensolver"
    # beyond the rank of the windowed operator the singular values are
    # exactly zero; report them so tail quasinorms see the rank
    mu = np.concatenate([mu, np.zeros(max(0, count - len(mu)))])
    mu = np.sort(mu)[::-1][:count]
    return SingularValueSequence(mu, f"{method} svd, nnz={a.vals.size}")


def weak_quasinorm(mu: SingularValueSequence, p: float) -> tuple:
    """sup_k (k+1)^{1/p} mu_k and the same sup over the last dyadic block.

    The tail sup diagnoses the separable subideal: finite rank (or faster
    than k^{-1/p} decay) drives it to zero.
    """
    if p <= 0:
        raise ValueError("weak-Schatten exponent must be positive")
    m = np.asarray(mu.mu, dtype=float)
    if len(m) == 0:
        raise ValueError("empty singular value sequence")
    weights = (np.arange(len(m)) + 1.0) ** (1.0 / p)
    vals = weights * m
    tail = vals[len(m) // 2:]
    return float(vals.max()), float(tail.max())


# ---------------------------------------------------------------------------
# torus kernel
# ---------------------------------------------------------------------------

def _rho_guards(k: TorusIndex, m: TorusIndex, n: TorusIndex) -> list:
    failed = []
    if k == (0, 0):
        failed.append("k = 0")
    if (k[0] + m[0], k[1] + m[1]) == (0, 0):
        failed.append("k + m = 0")
    if (k[0] + n[0], k[1] + n[1]) == (0, 0):
        failed.append("k + n = 0")
    return failed


def _squarefree_split(q: int) -> tuple:
    """q = s * f^2 with s squarefree; returns (s, f). Trial division."""
    s, f, d = 1, 1, 2
    while d * d <= q:
        e = 0
        while q % d == 0:
            q //= d
            e += 1
        f *= d ** (e // 2)
        if e % 2:
            s *= d
        d += 1 if d == 2 else 2
    return s * q, f


def _squarefree_product(split1: tuple, split2: tuple) -> tuple:
    """(s, f) of q1 q2 from the splits (s1, f1) of q1 and (s2, f2) of q2:
    with g = gcd(s1, s2), q1 q2 = (s1/g)(s2/g) (f1 f2 g)^2, and the coprime
    squarefree s1/g and s2/g have a squarefree product."""
    (s1, f1), (s2, f2) = split1, split2
    g = math.gcd(s1, s2)
    return (s1 // g) * (s2 // g), f1 * f2 * g


def rho_exact_terms(k: TorusIndex, m: TorusIndex, n: TorusIndex) -> dict:
    """The degree-zero kernel pairing the torus phase with Fourier data,

    rho(k,m,n) = (m x n + (m-n) x k)/(|n+k||m+k|) + (n x k)/(|k||k+n|)
               + (k x m)/(|k||k+m|),

    as an exact sum of quadratic surds: {squarefree s: Fraction c} meaning
    sum c * sqrt(s) over the keys.  Enables exact equality tests.
    """
    failed = _rho_guards(k, m, n)
    if failed:
        raise ZeroDivisionError("degenerate kernel denominator: " + ", ".join(failed))
    split_k, split_nk, split_mk = (_squarefree_split(q) for q in (
        k[0] * k[0] + k[1] * k[1],
        (n[0] + k[0]) ** 2 + (n[1] + k[1]) ** 2,
        (m[0] + k[0]) ** 2 + (m[1] + k[1]) ** 2))
    terms = [
        (cross(m, n) + cross((m[0] - n[0], m[1] - n[1]), k), split_nk, split_mk),
        (cross(n, k), split_k, split_nk),
        (cross(k, m), split_k, split_mk),
    ]
    out: Dict[int, Fraction] = {}
    for num, split1, split2 in terms:
        if num == 0:
            continue
        # num / sqrt(q1 q2) = num * sqrt(s) / (s * f)  with q1 q2 = s f^2
        s, f = _squarefree_product(split1, split2)
        coeff = Fraction(num, s * f)
        out[s] = out.get(s, Fraction(0)) + coeff
    return {s: c for s, c in out.items() if c != 0}
