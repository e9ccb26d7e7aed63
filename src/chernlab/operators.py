"""Fourier-basis operator models: Szego projector, circle and torus phases,
sparse truncated commutators, singular values, weak-Schatten diagnostics.

All operators here are either diagonal in the Fourier basis (phase
operators) or banded-sparse (commutators with multiplication operators).
A SparseOperator tracks, besides its entries, the radius of frequencies
whose full operator column is exactly represented; composing operators
shrinks that radius by the bandwidth of the right factor, and diagonal
extraction refuses to read outside it.  This makes window truncation loud
instead of silently biased.
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
    "SingularValueSequence", "WindowLeakageError", "commutator", "compose",
    "product_diagonal", "singular_values", "weak_quasinorm",
    "torus_phase_kernel_rho", "rho_exact_terms",
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


@functools.lru_cache(maxsize=None)
def torus_shells(n: int) -> Tuple[TorusIndex, ...]:
    """Lattice points of the first n distinct values of |k|^2.

    Ordered by increasing |k|^2, ties lexicographic by (k1, k2); an
    immutable tuple, computed once per n and shared.
    """
    if n < 1:
        raise ValueError(f"torus_shells needs at least one shell, got {n}")
    radius = int(math.isqrt(2 * n)) + 2
    while True:
        pts = [(i, j) for i in range(-radius, radius + 1)
               for j in range(-radius, radius + 1)]
        norms = sorted({i * i + j * j for (i, j) in pts})
        # distinct norms below radius^2 are guaranteed complete
        complete = [q for q in norms if q <= radius * radius]
        if len(complete) >= n:
            break
        radius *= 2
    lam_max = complete[n - 1]
    kept = sorted((i * i + j * j, i, j) for (i, j) in pts if i * i + j * j <= lam_max)
    return tuple((i, j) for (_, i, j) in kept)


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


def _frequency_index(domain: str, bound: int, pos: np.ndarray) -> list:
    """Inverse of _linear_index, as Python ints (circle) or int pairs."""
    if domain == "circle":
        return (pos - bound).tolist()
    k1, k2 = np.divmod(pos, 2 * bound + 1)
    return list(zip((k1 - bound).tolist(), (k2 - bound).tolist()))


def _dim(domain: str, bound: int) -> int:
    return 2 * bound + 1 if domain == "circle" else (2 * bound + 1) ** 2


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
    exact_col_radius: columns with |k|_inf <= this radius carry the full
        untruncated operator column; reads outside it raise.
    bandwidth: max |row - col|_inf over entries.

    The entries are one read-only row-major CSR triple over the linear box
    positions (circle k + W, torus (k1 + W)(2W + 1) + (k2 + W)): int64
    indptr, int64 cols ascending within each row, and complex128 vals.
    Each position occurs at most once.  Exact-coefficient inputs build the
    same float form; exact finite-rank traces are computed without an
    operator (cocycles).
    """

    domain: str
    bound: int
    exact_col_radius: int
    bandwidth: int
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    # no operator is exact; the benchmark's trace hook (bench/spans.py) reads it
    exact: ClassVar[bool] = False

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_entries(domain: str, bound: int, exact_col_radius: int, bandwidth: int,
                     rows, cols, vals) -> "SparseOperator":
        """From complex entries in any order at linear box positions.
        Raises ValueError when two entries share a position."""
        n = _dim(domain, bound)
        return SparseOperator(domain, bound, exact_col_radius, bandwidth,
                              *_csr(np.asarray(rows, np.int64), np.asarray(cols, np.int64),
                                    vals, (n, n)))

    @staticmethod
    def from_dict(domain: str, bound: int, entries: dict, exact_col_radius: int,
                  bandwidth: int) -> "SparseOperator":
        """The float operator of {(row, col): value} keyed by frequency
        indices; zeros are dropped."""
        items = [(r, c, v) for (r, c), v in ((k, complex(v)) for k, v in entries.items()) if v]
        return SparseOperator.from_entries(
            domain, bound, exact_col_radius, bandwidth,
            _linear_index(domain, bound, [r for r, _, _ in items]),
            _linear_index(domain, bound, [c for _, c, _ in items]), [v for _, _, v in items])

    @staticmethod
    def diagonal_phase(op: OperatorModel, bound: int) -> "SparseOperator":
        """The phase operator itself, truncated to the box window."""
        n = _dim(op.domain, bound)
        if op.domain == "torus":
            pos = np.arange(n)
            vals = [op.phase((i, j)) for i in range(-bound, bound + 1)
                    for j in range(-bound, bound + 1)]
            return SparseOperator("torus", bound, bound, 0, *_frozen(
                _indptr(pos, n), pos, np.asarray(vals, np.complex128)))
        phase = op.phase_array(np.arange(-bound, bound + 1, dtype=np.int64))
        pos = np.flatnonzero(phase)
        return SparseOperator("circle", bound, bound, 0, *_frozen(
            _indptr(pos, n), pos, phase[pos].astype(np.complex128)))

    @staticmethod
    def from_csr(csr: tuple, domain: str, bound: int,
                 exact_col_radius: int, bandwidth: int) -> "SparseOperator":
        """The float operator of a read-only square CSR triple."""
        return SparseOperator(domain, bound, exact_col_radius, bandwidth, *csr)

    # -- basic queries -----------------------------------------------------

    def nnz(self) -> int:
        return len(self.vals)

    def dim(self) -> int:
        return _dim(self.domain, self.bound)

    def items(self):
        """(row, col, value) triples with frequency indices, row by row."""
        return zip(_frequency_index(self.domain, self.bound, _rows(self.indptr)),
                   _frequency_index(self.domain, self.bound, self.cols), self.vals)

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
        return SparseOperator(self.domain, self.bound, self.exact_col_radius, self.bandwidth,
                              *_frozen(_indptr(_rows(self.indptr)[keep], self.dim()),
                                       self.cols[keep], self.vals[keep]))


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


def _dense(csr: tuple, shape: tuple) -> np.ndarray:
    """The dense matrix of a CSR triple; entries are added to zero, so a
    signed zero reads as +0."""
    indptr, cols, vals = csr
    out = np.zeros(shape, np.complex128)
    out[_rows(indptr), cols] += vals
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
    removes rows/columns, it never perturbs retained entries).  The exact
    column radius is bound - max_frequency(a); a nonpositive radius means no
    column is complete and the caller must enlarge the window.
    """
    if op.domain != a.domain:
        raise ValueError(f"domain mismatch: operator {op.domain} vs series {a.domain}")
    bw = a.max_frequency()
    radius = bound - bw
    if radius < 0:
        raise WindowLeakageError(
            f"window bound {bound} is smaller than the series bandwidth {bw}")
    if op.domain == "circle":
        return _commutator_circle(op, a, bound, radius, bw)
    return _commutator_torus(op, a, bound, radius, bw)


def _commutator_circle(op: OperatorModel, a: FourierSeries, bound: int,
                       radius: int, bw: int) -> SparseOperator:
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
    return SparseOperator.from_entries("circle", bound, radius, bw,
                                       _concat(rows, np.int64), _concat(cols, np.int64),
                                       _concat(vals, np.complex128))


def _commutator_torus(op: OperatorModel, a: FourierSeries, bound: int,
                      radius: int, bw: int) -> SparseOperator:
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
    return SparseOperator.from_entries("torus", bound, radius, bw,
                                       _concat(rows, np.int64), _concat(cols, np.int64),
                                       _concat(vals, np.complex128))


def multiplication_operator(a: FourierSeries, bound: int) -> SparseOperator:
    """The matrix of M_a on the box window: entry (c+f, c) = a_f."""
    bw = a.max_frequency()
    radius = bound - bw
    if radius < 0:
        raise WindowLeakageError(
            f"window bound {bound} is smaller than the series bandwidth {bw}")
    bands = [(_band(a.domain, bound, f), coeff) for f, coeff in a.coeffs.items()]
    return SparseOperator.from_entries(
        a.domain, bound, radius, bw,
        _concat([col + shift for (col, shift), _ in bands], np.int64),
        _concat([col for (col, _), _ in bands], np.int64),
        _concat([np.full(len(col), complex(coeff), np.complex128)
                 for (col, _), coeff in bands], np.complex128))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _product_bounds(ops: Sequence[SparseOperator]) -> tuple:
    """(exact column radius, bandwidth) of the product of ops; raises on a
    domain or window mismatch."""
    radius, bw = ops[0].exact_col_radius, ops[0].bandwidth
    for a, b in zip(ops, ops[1:]):
        if a.domain != b.domain:
            raise ValueError("window/domain mismatch in composition")
        if a.bound != b.bound:
            raise ValueError(f"window mismatch: bounds {a.bound} vs {b.bound}")
        radius, bw = min(b.exact_col_radius, radius - b.bandwidth), bw + b.bandwidth
    return radius, bw


def _compose_pair(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    radius, bw = _product_bounds([a, b])
    return SparseOperator.from_csr(_matmul(a.to_csr(), b.to_csr(), a.dim()),
                                   a.domain, a.bound, radius, bw)


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
    frequencies.

    Splits the factor list in half and contracts row-by-column, which
    avoids materializing the full product for long factor lists.  Only the
    requested rows of the left half and columns of the right half are
    formed; each is summed as in the full product.
    """
    ops = list(ops)
    if len(ops) < 2:
        raise ValueError("product_diagonal needs at least two operators")
    radius = _product_bounds(ops)[0]
    idx = list(indices)
    if not idx:
        raise ValueError("product_diagonal needs at least one frequency index")
    k = np.abs(np.asarray(idx, dtype=np.int64))
    norms = k if ops[0].domain == "circle" else k.reshape(-1, 2).max(axis=1)
    outside = np.flatnonzero(norms > radius)
    if len(outside):
        raise WindowLeakageError(
            f"diagonal at {idx[outside[0]]} exceeds the exact column radius {radius}; "
            f"enlarge the construction window")
    pos = _linear_index(ops[0].domain, ops[0].bound, idx)
    wanted = np.zeros(ops[0].dim(), bool)
    wanted[pos] = True
    mid = (len(ops) + 1) // 2
    left = compose([ops[0]._select(wanted[_rows(ops[0].indptr)])] + ops[1:mid])
    right = compose(ops[mid:-1] + [ops[-1]._select(wanted[ops[-1].cols])])
    return _product_diagonal(left.to_csr(), right.to_csr())[pos]


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

    def __len__(self):
        return len(self.mu)

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
    built.  The test suite checks both branches against the
    closed-form spectrum of a lacunary Hankel commutator.
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
        g = (_dense(_matmul(mat, adj, nr), (nr, nr)) if nr <= nc
             else _dense(_matmul(adj, mat, nc), (nc, nc)))
        if np.max(np.abs(g.imag)) == 0.0:
            g = g.real
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


def torus_phase_kernel_rho(k: TorusIndex, m: TorusIndex, n: TorusIndex) -> float:
    """The degree-zero kernel pairing the torus phase with Fourier data.

    rho(k,m,n) = (m x n + (m-n) x k)/(|n+k||m+k|) + (n x k)/(|k||k+n|)
               + (k x m)/(|k||k+m|).
    """
    failed = _rho_guards(k, m, n)
    if failed:
        raise ZeroDivisionError("degenerate kernel denominator: " + ", ".join(failed))
    kk = math.hypot(*k)
    nk = math.hypot(n[0] + k[0], n[1] + k[1])
    mk = math.hypot(m[0] + k[0], m[1] + k[1])
    t1 = (cross(m, n) + cross((m[0] - n[0], m[1] - n[1]), k)) / (nk * mk)
    t2 = cross(n, k) / (kk * nk)
    t3 = cross(k, m) / (kk * mk)
    return t1 + t2 + t3


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


def rho_exact_terms(k: TorusIndex, m: TorusIndex, n: TorusIndex) -> dict:
    """rho as an exact sum of quadratic surds: {squarefree s: Fraction c}
    meaning sum c * sqrt(s) over the keys.  Enables exact equality tests.
    """
    failed = _rho_guards(k, m, n)
    if failed:
        raise ZeroDivisionError("degenerate kernel denominator: " + ", ".join(failed))
    q_k = k[0] * k[0] + k[1] * k[1]
    q_nk = (n[0] + k[0]) ** 2 + (n[1] + k[1]) ** 2
    q_mk = (m[0] + k[0]) ** 2 + (m[1] + k[1]) ** 2
    terms = [
        (cross(m, n) + cross((m[0] - n[0], m[1] - n[1]), k), q_nk * q_mk),
        (cross(n, k), q_k * q_nk),
        (cross(k, m), q_k * q_mk),
    ]
    out: Dict[int, Fraction] = {}
    for num, q in terms:
        if num == 0:
            continue
        # num / sqrt(q) = num * sqrt(s) / (s * f)  with q = s f^2
        s, f = _squarefree_split(q)
        coeff = Fraction(num, s * f)
        out[s] = out.get(s, Fraction(0)) + coeff
    return {s: c for s, c in out.items() if c != 0}
