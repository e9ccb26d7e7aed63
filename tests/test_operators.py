"""Sparse operator assembly against dense oracles, window-leakage
accounting, singular values, and the torus phase kernel."""
import math
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernlab import operators
from chernlab.cocycles import _phase_product_bound, _phase_products
from chernlab.experiments import _lacunary_quadruple, run_experiment
from chernlab.scalars import QGauss
from chernlab.series import BoundedSequence, FourierSeries, lacunary_series
from chernlab.operators import (OperatorModel, SingularValueSequence, SparseOperator,
                                WindowLeakageError, _matmul, _product_diagonal,
                                _squarefree_product, _squarefree_split,
                                commutator, compose, exact_bound,
                                multiplication_operator, product_diagonal,
                                product_diagonals, rho_exact_terms, singular_values,
                                symmetric_order, torus_shells, weak_quasinorm)
from chernlab.tracemean import diagonal_of
from test_cocycles import torus_phase_kernel_rho

WINDOW = 64


def _frequencies(op: SparseOperator, pos: np.ndarray) -> list:
    """The frequency indices of box positions: ints on the circle, int
    pairs on the torus."""
    if op.domain == "circle":
        return (pos - op.bound).tolist()
    k1, k2 = np.divmod(pos, 2 * op.bound + 1)
    return list(zip((k1 - op.bound).tolist(), (k2 - op.bound).tolist()))


def op_entries(op: SparseOperator):
    """(row, col, value) triples of op with frequency indices, row by row."""
    return zip(_frequencies(op, operators._rows(op.indptr)), _frequencies(op, op.cols),
               op.vals)


def dense_circle(op: SparseOperator, bound: int) -> np.ndarray:
    n = 2 * bound + 1
    m = np.zeros((n, n), dtype=complex)
    for r, c, v in op_entries(op):
        m[r + bound, c + bound] = complex(v)
    return m


def dense_phase(kind: str, bound: int) -> np.ndarray:
    model = OperatorModel(kind)
    return np.diag([complex(model.phase(k)) for k in range(-bound, bound + 1)])


def dense_mult(a: FourierSeries, bound: int) -> np.ndarray:
    n = 2 * bound + 1
    m = np.zeros((n, n), dtype=complex)
    for f, v in a.coeffs.items():
        c = v.to_complex() if a.exact else complex(v)
        for k in range(-bound, bound + 1):
            if -bound <= k + f <= bound:
                m[k + f + bound, k + bound] = c
    return m


class TestCommutatorOracle:
    @pytest.mark.parametrize("kind", ["szego_P", "circle_F"])
    def test_matches_dense(self, kind):
        rng = np.random.default_rng(3)
        a = FourierSeries("circle",
                          {int(k): complex(*rng.standard_normal(2))
                           for k in rng.integers(-5, 6, size=4)}, False)
        c = commutator(OperatorModel(kind), a, WINDOW)
        ph = dense_phase(kind, WINDOW)
        ma = dense_mult(a, WINDOW)
        expected = ph @ ma - ma @ ph
        got = dense_circle(c, WINDOW)
        # interior columns only: the dense oracle truncates the shifts
        bw = a.max_frequency()
        sl = slice(bw, 2 * WINDOW + 1 - bw)
        assert np.allclose(got[:, sl], expected[:, sl], atol=1e-14)

    def test_exact_values_for_exact_inputs(self):
        # an exact input builds the float form; small integers stay exact
        z = FourierSeries.monomial(1)
        c = commutator(OperatorModel("circle_F"), z, 8)
        assert not c.exact and c.vals.dtype == np.complex128
        assert {(r, col): v for r, col, v in op_entries(c)} == {(0, -1): 2 + 0j}

    def test_rejects_small_window(self):
        ones = BoundedSequence.constant(1.0)
        a = lacunary_series(ones, 0.5, 8)
        with pytest.raises(WindowLeakageError):
            commutator(OperatorModel("szego_P"), a, 100)


    @pytest.mark.parametrize("kind", ["torus_F", "sign"])
    def test_kind_without_a_scalar_phase_is_rejected(self, kind):
        # the torus block symmetry is built by the graded evaluators from
        # torus_U and torus_U_star; it is not an OperatorModel kind
        with pytest.raises(ValueError, match="unknown operator kind"):
            OperatorModel(kind)


class TestComposeOracle:
    def test_product_matches_dense(self):
        rng = np.random.default_rng(5)
        mk = lambda: FourierSeries(
            "circle", {int(k): complex(*rng.standard_normal(2))
                       for k in rng.integers(-3, 4, size=3)}, False)
        model = OperatorModel("circle_F")
        ops = [SparseOperator.diagonal_phase(model, WINDOW)] + \
              [commutator(model, mk(), WINDOW) for _ in range(3)]
        got = dense_circle(compose(ops), WINDOW)
        expected = dense_circle(ops[0], WINDOW)
        for o in ops[1:]:
            expected = expected @ dense_circle(o, WINDOW)
        prod = compose(ops)
        radius = prod.bound - prod.bandwidth
        lo, hi = WINDOW - radius, WINDOW + radius + 1
        assert np.allclose(got[:, lo:hi], expected[:, lo:hi], atol=1e-12)

    def test_generator_commutator_product_is_rank_one(self):
        z = FourierSeries.monomial(1)
        zi = FourierSeries.monomial(-1)
        model = OperatorModel("circle_F")
        prod = compose([commutator(model, z, 4), commutator(model, zi, 4)])
        assert {(r, c): v for r, c, v in op_entries(prod)} == {(0, 0): -4 + 0j}

    def test_product_diagonal_matches_dense(self):
        rng = np.random.default_rng(11)
        mk = lambda: FourierSeries(
            "circle", {int(k): complex(*rng.standard_normal(2))
                       for k in rng.integers(-3, 4, size=3)}, False)
        model = OperatorModel("circle_F")
        ops = [SparseOperator.diagonal_phase(model, WINDOW)] + \
              [commutator(model, mk(), WINDOW) for _ in range(2)]
        idx = list(range(-10, 11))
        got = product_diagonal(ops, idx)
        expected = dense_circle(ops[0], WINDOW)
        for o in ops[1:]:
            expected = expected @ dense_circle(o, WINDOW)
        want = np.array([expected[k + WINDOW, k + WINDOW] for k in idx])
        assert np.allclose(got, want, atol=1e-12)

    def test_diagonal_read_past_the_path_window_raises(self):
        # M_a M_a steps from n to n +- 1 and back, so the read at 8 needs
        # bound 9; [F, a] has every entry within 1 of the origin, so the
        # same read of [F, a] [F, a] fits the window and equals a wider one
        a = FourierSeries("circle", {1: 1.0, -1: 1.0}, False)
        idx = range(-8, 9)
        m = multiplication_operator(a, 8)
        with pytest.raises(WindowLeakageError):
            product_diagonal([m, m], idx)
        c, wide = (commutator(OperatorModel("circle_F"), a, b) for b in (8, 12))
        got = product_diagonal([c, c], idx)
        assert np.any(got != 0)
        assert got.tobytes() == product_diagonal([wide, wide], idx).tobytes()

    def test_leakage_names_the_first_index_past_the_path_window(self):
        a = FourierSeries("circle", {1: 1.0, -1: 1.0}, False)
        m = multiplication_operator(a, 8)
        # index n needs bound |n| + 1: 7 fits, -8 is the first that does not
        with pytest.raises(WindowLeakageError,
                           match=r"diagonal at -8 needs window bound 9, more than 8;"):
            product_diagonal([m, m], [0, -6, 7, -8, 3, 8])
        # a torus commutator has no support radius
        t = commutator(OperatorModel("torus_U"), FourierSeries("torus", {(1, 0): 1.0}, False), 5)
        with pytest.raises(WindowLeakageError,
                           match=r"diagonal at \(5, 0\) needs window bound 6, more than 5;"):
            product_diagonal([t, t], [(0, 0), (3, -3), (5, 0), (1, -4), (-5, 2)])

    def test_empty_index_list_raises(self):
        c = commutator(OperatorModel("circle_F"), FourierSeries.monomial(1), 8)
        with pytest.raises(ValueError, match="at least one frequency index"):
            product_diagonal([c, c], [])

    def test_diagonal_of_selected_rows_is_bit_identical(self):
        """Forming only the requested rows and columns gives the same bits
        as the diagonal of the full halves."""
        rng = np.random.default_rng(17)
        mk = lambda: FourierSeries(
            "circle", {int(k): complex(*rng.standard_normal(2))
                       for k in rng.integers(-9, 10, size=6)}, False)
        phase = SparseOperator.diagonal_phase(OperatorModel("szego_P"), WINDOW)
        model = OperatorModel("circle_F")
        ops = [phase, multiplication_operator(mk(), WINDOW), commutator(model, mk(), WINDOW),
               multiplication_operator(mk(), WINDOW), phase]
        idx = [0, 5, -3, 17, -20, 2]
        full = _product_diagonal(compose(ops[:3]).to_csr(), compose(ops[3:]).to_csr())
        want = full[np.array(idx) + WINDOW]
        assert product_diagonal(ops, idx).tobytes() == want.tobytes()

    def test_shared_halves_are_composed_once_with_the_same_bits(self, monkeypatch):
        """Products that share factors share their composed halves, and each
        diagonal has the bits of its full halves, a three-factor right half
        included."""
        rng = np.random.default_rng(5)
        mk = lambda: FourierSeries(
            "circle", {int(k): complex(*rng.standard_normal(2))
                       for k in rng.integers(-7, 8, size=5)}, False)
        model = OperatorModel("circle_F")
        phase = SparseOperator.diagonal_phase(model, WINDOW)
        a, b, c, d = (commutator(model, mk(), WINDOW) for _ in range(4))
        m = multiplication_operator(mk(), WINDOW)
        products = [[phase, a, b, c, d], [phase, a, b, d, c], [phase, a, m, b, c, d],
                    [m, c], [b, m, c, d]]
        idx = [3, -4, 0, 11, -9]
        calls = []
        monkeypatch.setattr(operators, "compose",
                            lambda ops: calls.append(len(ops)) or compose(ops))
        got = product_diagonals(products, idx)
        # F a, (F a) b and c d | d c | (F a) m, b c and (b c) d | none | b m
        # and c d, where the whole c of the last product must not be taken
        # for the column-selected c before it: nine pair products, where
        # composing each product's halves on their own takes twelve
        assert calls == [2] * 9
        for ops, diag in zip(products, got):
            mid = (len(ops) + 1) // 2
            full = _product_diagonal(compose(ops[:mid]).to_csr(), compose(ops[mid:]).to_csr())
            assert diag.tobytes() == full[np.array(idx) + WINDOW].tobytes()
            assert diag.tobytes() == product_diagonal(ops, idx).tobytes()


def box_points(bound: int) -> list:
    return [(i, j) for i in range(-bound, bound + 1) for j in range(-bound, bound + 1)]


def box_position(k, bound: int) -> int:
    return (k[0] + bound) * (2 * bound + 1) + (k[1] + bound)


def dense_torus(op: SparseOperator, bound: int) -> np.ndarray:
    n = (2 * bound + 1) ** 2
    m = np.zeros((n, n), dtype=complex)
    for r, c, v in op_entries(op):
        m[box_position(r, bound), box_position(c, bound)] = complex(v)
    return m


def dense_torus_phase(kind: str, bound: int) -> np.ndarray:
    model = OperatorModel(kind)
    return np.diag([complex(model.phase(k)) for k in box_points(bound)])


def dense_torus_mult(a: FourierSeries, bound: int) -> np.ndarray:
    n = (2 * bound + 1) ** 2
    m = np.zeros((n, n), dtype=complex)
    for f, v in a.coeffs.items():
        for k in box_points(bound):
            r = (k[0] + f[0], k[1] + f[1])
            if max(abs(r[0]), abs(r[1])) <= bound:
                m[box_position(r, bound), box_position(k, bound)] = complex(v)
    return m


def random_torus_series(rng, degree: int = 2, terms: int = 3) -> FourierSeries:
    coeffs = {}
    while len(coeffs) < terms:
        f = (int(rng.integers(-degree, degree + 1)), int(rng.integers(-degree, degree + 1)))
        if f != (0, 0):
            coeffs[f] = complex(*rng.standard_normal(2))
    return FourierSeries("torus", coeffs, False)


TORUS_BOUND = 5


def interior_columns(radius: int, bound: int) -> np.ndarray:
    return np.array([box_position(k, bound) for k in box_points(bound)
                     if max(abs(k[0]), abs(k[1])) <= radius])


class TestTorusOracle:
    @pytest.mark.parametrize("kind", ["torus_U", "torus_U_star"])
    def test_commutator_matches_dense(self, kind):
        a = random_torus_series(np.random.default_rng(17))
        c = commutator(OperatorModel(kind), a, TORUS_BOUND)
        ph = dense_torus_phase(kind, TORUS_BOUND)
        ma = dense_torus_mult(a, TORUS_BOUND)
        # the phase is diagonal, so the truncated dense commutator is exact
        assert np.allclose(dense_torus(c, TORUS_BOUND), ph @ ma - ma @ ph,
                           rtol=0, atol=1e-14)
        assert c.bound - c.bandwidth == TORUS_BOUND - a.max_frequency()

    def test_multiplication_operator_matches_dense(self):
        a = random_torus_series(np.random.default_rng(19))
        m = multiplication_operator(a, TORUS_BOUND)
        assert np.array_equal(dense_torus(m, TORUS_BOUND),
                              dense_torus_mult(a, TORUS_BOUND))

    def test_exact_multiplication_operator_matches_dense(self):
        a = FourierSeries("torus", {(1, -2): Fraction(1, 3), (0, 1): 2,
                                    (-3, 0): Fraction(-5, 7)}, True)
        m = multiplication_operator(a, TORUS_BOUND)
        assert not m.exact and m.vals.dtype == np.complex128
        assert dict(((r, c), v) for r, c, v in op_entries(m))[(2, -2), (1, 0)] == 1 / 3
        assert np.array_equal(dense_torus(m, TORUS_BOUND),
                              dense_torus_mult(a, TORUS_BOUND))

    @pytest.mark.parametrize("kind", ["torus_U", "torus_U_star"])
    def test_diagonal_phase_has_the_scalar_phase_bits(self, kind):
        """The array phase is OperatorModel.phase bit for bit over a box with
        bound 300, and the origin is 1 + 0j with a +0 imaginary part."""
        bound = 300
        model = OperatorModel(kind)
        got = SparseOperator.diagonal_phase(model, bound)
        want = np.array([model.phase(k) for k in box_points(bound)], np.complex128)
        assert np.array_equal(got.cols, np.arange(len(want)))
        assert got.vals.tobytes() == want.tobytes()
        origin = got.vals[box_position((0, 0), bound)]
        assert origin == 1 and not np.signbit(origin.imag)

    def _graded_ops(self, seed):
        rng = np.random.default_rng(seed)
        u, us = OperatorModel("torus_U"), OperatorModel("torus_U_star")
        return [SparseOperator.diagonal_phase(u, TORUS_BOUND),
                multiplication_operator(random_torus_series(rng, 1), TORUS_BOUND),
                commutator(us, random_torus_series(rng, 1), TORUS_BOUND),
                commutator(u, random_torus_series(rng, 1), TORUS_BOUND)]

    def test_compose_matches_dense(self):
        ops = self._graded_ops(23)
        prod = compose(ops)
        expected = dense_torus(ops[0], TORUS_BOUND)
        for o in ops[1:]:
            expected = expected @ dense_torus(o, TORUS_BOUND)
        cols = interior_columns(prod.bound - prod.bandwidth, TORUS_BOUND)
        assert len(cols) > 1
        got = dense_torus(prod, TORUS_BOUND)
        assert np.allclose(got[:, cols], expected[:, cols], rtol=0, atol=1e-12)

    def test_product_diagonal_matches_dense(self):
        ops = self._graded_ops(29)
        expected = dense_torus(ops[0], TORUS_BOUND)
        for o in ops[1:]:
            expected = expected @ dense_torus(o, TORUS_BOUND)
        prod = compose(ops)
        radius = prod.bound - prod.bandwidth
        pts = [k for k in torus_shells(8)
               if max(abs(k[0]), abs(k[1])) <= radius]
        got = product_diagonal(ops, pts)
        want = np.array([expected[box_position(k, TORUS_BOUND),
                                  box_position(k, TORUS_BOUND)] for k in pts])
        assert np.any(want != 0)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_entry_at_torus_index(self):
        a = FourierSeries("torus", {(1, 0): 1.0, (0, -1): 0.5j}, False)
        c = commutator(OperatorModel("torus_U"), a, 1)
        entries = {(r, col): v for r, col, v in op_entries(c)}
        assert entries[(0, 0), (0, 1)] == 0.5 + 0.5j
        assert entries[(0, 0), (-1, 0)] == 2.0
        assert ((1, 0), (0, 0)) not in entries and ((0, 0), (0, 0)) not in entries
        # every entry is indexed inside the box: (0, 2) is not read as the
        # neighbouring linear position (1, -1)
        assert ((1, -1), (1, 0)) in entries
        assert all(max(map(abs, r + col)) <= 1 for r, col in entries)


def dense_from_csr(csr) -> np.ndarray:
    indptr, cols, vals = csr
    m = np.zeros((len(indptr) - 1, max(len(indptr) - 1, int(cols.max(initial=-1)) + 1)),
                 dtype=complex)
    for r in range(len(indptr) - 1):
        for j in range(indptr[r], indptr[r + 1]):
            m[r, cols[j]] = vals[j]
    return m


def random_csr(rng, n: int, per_row: int) -> tuple:
    """A square CSR triple with per_row entries in every row.

    Values mix Gaussian numbers with small dyadic ones, so that products
    cancel exactly, and include signed zeros in either part."""
    dyadic = np.array([1, -1, 0.5, -0.5, 2, -2, 1j, -1j, 0.5 + 0.5j, -0.5 - 0.5j,
                       complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0)])
    cols = np.concatenate([np.sort(rng.choice(n, per_row, replace=False)) for _ in range(n)])
    gauss = rng.standard_normal(n * per_row) + 1j * rng.standard_normal(n * per_row)
    vals = np.where(rng.random(n * per_row) < 0.6, dyadic[rng.integers(len(dyadic),
                                                                        size=n * per_row)],
                    gauss)
    return np.arange(0, n * per_row + 1, per_row), cols, vals


class TestCSRKernels:
    """The product and product-diagonal kernels against a dense oracle and,
    where scipy is installed, against scipy.sparse bit for bit: the kernels
    keep its summation order, on which the pinned artifact digests rest."""

    CASES = [(7, 40, 9), (8, 60, 13), (9, 25, 25)]

    @pytest.mark.parametrize("seed,n,per_row", CASES)
    def test_matmul_matches_dense(self, seed, n, per_row):
        rng = np.random.default_rng(seed)
        a, b = random_csr(rng, n, per_row), random_csr(rng, n, per_row)
        got = _matmul(a, b, n)
        assert np.allclose(dense_from_csr(got), dense_from_csr(a) @ dense_from_csr(b),
                           rtol=0, atol=1e-12)
        assert not np.any(got[2] == 0)

    @pytest.mark.parametrize("seed,n,per_row", CASES)
    def test_product_diagonal_matches_dense(self, seed, n, per_row):
        rng = np.random.default_rng(seed)
        a, b = random_csr(rng, n, per_row), random_csr(rng, n, per_row)
        want = np.diag(dense_from_csr(a) @ dense_from_csr(b))
        assert np.allclose(_product_diagonal(a, b), want, rtol=0, atol=1e-12)

    def test_empty_operands(self):
        empty = (np.zeros(5, np.int64), np.zeros(0, np.int64), np.zeros(0, complex))
        full = random_csr(np.random.default_rng(0), 4, 2)
        for a, b in ((empty, full), (full, empty)):
            indptr, cols, vals = _matmul(a, b, 4)
            assert np.array_equal(indptr, np.zeros(5)) and len(cols) == len(vals) == 0
            assert np.array_equal(_product_diagonal(a, b), np.zeros(4))

    @pytest.mark.parametrize("seed,n,per_row", CASES)
    def test_matmul_matches_scipy_bit_for_bit(self, seed, n, per_row):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(seed)
        a, b = random_csr(rng, n, per_row), random_csr(rng, n, per_row)
        want = sp.csr_matrix(a[::-1], shape=(n, n)) @ sp.csr_matrix(b[::-1], shape=(n, n))
        want.sort_indices()
        indptr, cols, vals = _matmul(a, b, n)
        assert np.array_equal(indptr, want.indptr) and np.array_equal(cols, want.indices)
        assert vals.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("seed,n,per_row", CASES)
    def test_product_diagonal_matches_scipy_bit_for_bit(self, seed, n, per_row):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(seed)
        a, b = random_csr(rng, n, per_row), random_csr(rng, n, per_row)
        left, right = (sp.csr_matrix(m[::-1], shape=(n, n)) for m in (a, b))
        want = np.asarray(left.multiply(right.T).sum(axis=1)).ravel()
        assert _product_diagonal(a, b).tobytes() == want.tobytes()


class TestFloatForm:
    def _float_commutator(self):
        a = FourierSeries("circle", {2: 1.5 - 0.5j, -1: 0.25}, False)
        return commutator(OperatorModel("circle_F"), a, 8)

    def test_csr_is_built_once(self):
        # the triple is the storage: to_csr() hands out the stored arrays
        c = self._float_commutator()
        assert all(x is y for x, y in zip(c.to_csr(), (c.indptr, c.cols, c.vals)))
        assert c.to_float() is c
        phase = SparseOperator.diagonal_phase(OperatorModel("circle_F"), 8)
        assert not phase.exact and phase.to_float() is phase
        assert all(x is y for x, y in zip(phase.to_csr(), (phase.indptr, phase.cols, phase.vals)))

    def test_float_arrays_are_read_only(self):
        c = self._float_commutator()
        for op in (c, compose([c, c]), SparseOperator.from_dict(
                "circle", 8, {(1, 2): 1.0, (0, 0): 2j}, 1)):
            for arr in (op.indptr, op.cols, op.vals):
                with pytest.raises(ValueError):
                    arr[0] = arr[1]

    def test_csr_triple_is_row_major(self):
        c = self._float_commutator()
        indptr, cols, vals = c.to_csr()
        assert indptr.dtype == cols.dtype == np.int64 and vals.dtype == np.complex128
        assert indptr[0] == 0 and indptr[-1] == c.nnz() and len(indptr) == c.dim() + 1
        for r in range(c.dim()):
            assert np.all(np.diff(cols[indptr[r]:indptr[r + 1]]) > 0)
        assert np.array_equal(dense_from_csr(c.to_csr()), dense_circle(c, 8))

    def test_duplicate_position_raises(self):
        # at construction, before any product reads the entries
        with pytest.raises(ValueError, match="share a position"):
            SparseOperator.from_entries("circle", 2, 0,
                                        [1, 3, 1], [1, 0, 1], [1.0, 2.0, 3.0])

    def test_exact_phase_float_form_matches_conversion(self):
        for kind in ("szego_P", "circle_F"):
            model = OperatorModel(kind)
            phase = SparseOperator.diagonal_phase(model, 6)
            converted = SparseOperator.from_dict(
                "circle", 6, {(k, k): model.phase(k) for k in range(-6, 7)}, 0)
            # bit for bit, signed zeros included
            for got, want in zip(phase.to_csr(), converted.to_csr()):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestStorage:
    """Entries in any order build one read-only row-major CSR triple."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_entries_build_a_read_only_row_major_triple(self, data):
        bound = data.draw(st.integers(0, 3))
        n = 2 * bound + 1
        cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   unique=True, max_size=12))
        part = st.fractions(-4, 4, max_denominator=3)
        vals = [QGauss(data.draw(part), data.draw(part)).to_complex() for _ in cells]
        rows, cols = [r for r, _ in cells], [c for _, c in cells]
        op = SparseOperator.from_entries("circle", bound, 0, rows, cols, vals)
        indptr, csr_cols, _ = op.to_csr()
        assert len(indptr) == n + 1 and indptr[0] == 0 and indptr[-1] == len(cells)
        assert np.all(np.diff(indptr) >= 0)
        for r in range(n):
            assert np.all(np.diff(csr_cols[indptr[r]:indptr[r + 1]]) > 0)
        want = np.zeros((n, n), complex)
        for (r, c), v in zip(cells, vals):
            want[r, c] = complex(v)
        assert np.array_equal(dense_from_csr(op.to_csr()), want)
        assert {(r + bound, c + bound): v for r, c, v in op_entries(op)} == dict(zip(cells, vals))
        for arr in (op.indptr, op.cols, op.vals):
            assert not arr.flags.writeable
        if cells:
            with pytest.raises(ValueError, match="share a position"):
                SparseOperator.from_entries("circle", bound, 0, rows + rows[:1],
                                            cols + cols[:1], vals + vals[:1])
        with pytest.raises(FrozenInstanceError):
            op.vals = op.vals
        with pytest.raises(FrozenInstanceError):
            op.bound = bound + 1


class TestExactForm:
    """Exact-coefficient inputs build the same complex128 CSR form as float
    ones; dyadic coefficients keep every float product exact, so the
    operators must equal the dense oracles."""

    CIRCLE = FourierSeries("circle", {1: Fraction(1, 2), -2: Fraction(-3, 4),
                                      3: QGauss(Fraction(1, 4), Fraction(-1, 8))}, True)
    TORUS = FourierSeries("torus", {(1, -2): Fraction(1, 4), (0, 1): 2,
                                    (-3, 0): QGauss(Fraction(-5, 8), Fraction(1, 2))}, True)

    def test_entry_outside_the_box_is_exact_zero(self):
        # no entry is stored outside the box, so a read there is exactly zero
        m = dict(((r, c), v) for r, c, v in op_entries(multiplication_operator(
            self.TORUS, TORUS_BOUND)))
        assert m.get(((6, 0), (5, 0)), 0j) == 0j and m.get(((0, 0), (0, 7)), 0j) == 0j
        assert all(max(map(abs, r + c)) <= TORUS_BOUND for r, c in m)
        c = dict(((r, col), v) for r, col, v in op_entries(commutator(
            OperatorModel("circle_F"), self.CIRCLE, 8)))
        assert ((9, 8) not in c) and all(max(abs(r), abs(col)) <= 8 for r, col in c)

    def test_float_forms_match_dense(self):
        bound = 12
        model = OperatorModel("circle_F")
        c = commutator(model, self.CIRCLE, bound)
        ph = dense_phase("circle_F", bound)
        ma = dense_mult(self.CIRCLE, bound)
        m = multiplication_operator(self.CIRCLE, bound)
        t = multiplication_operator(self.TORUS, TORUS_BOUND)
        prod = compose([SparseOperator.diagonal_phase(model, bound), c, m])
        for op in (c, m, t, prod):
            assert not op.exact and op.vals.dtype == np.complex128
        assert np.array_equal(dense_circle(c, bound), ph @ ma - ma @ ph)
        assert np.array_equal(dense_circle(m, bound), ma)
        assert np.array_equal(dense_torus(t, TORUS_BOUND),
                              dense_torus_mult(self.TORUS, TORUS_BOUND))
        assert np.array_equal(dense_circle(prod, bound), ph @ (ph @ ma - ma @ ph) @ ma)

    def test_empty_compose_raises(self):
        with pytest.raises(ValueError):
            compose([])


class TestWindows:
    def test_symmetric_order(self):
        assert symmetric_order(5) == [0, -1, 1, -2, 2]
        assert symmetric_order(4) == [0, -1, 1, -2]
        assert symmetric_order(0) == []

    def test_one_sided_order(self):
        # the one-sided order is range(n): the diagonal at 0, 1, ..., n - 1
        model = OperatorModel("circle_F")
        a = FourierSeries("circle", {1: 0.5, -2: 1j, 3: 0.25}, False)
        ops = [SparseOperator.diagonal_phase(model, WINDOW), commutator(model, a, WINDOW),
               commutator(model, a.star(), WINDOW)]
        got = diagonal_of(ops, range(9)).values
        expected = dense_circle(ops[0], WINDOW)
        for o in ops[1:]:
            expected = expected @ dense_circle(o, WINDOW)
        assert np.any(got != 0)
        assert np.allclose(got, np.diag(expected)[WINDOW: WINDOW + 9], rtol=0, atol=1e-12)

    def test_torus_shells_sorted_by_norm(self):
        pts = torus_shells(10)
        norms = [k[0] ** 2 + k[1] ** 2 for k in pts]
        assert norms == sorted(norms)
        assert len(set(norms)) == 10
        assert pts[0] == (0, 0)
        assert torus_shells(1) == ((0, 0),)

    def test_torus_shells_are_shared_and_immutable(self):
        pts = torus_shells(10)
        assert pts is torus_shells(10)
        with pytest.raises(TypeError):
            pts[0] = (9, 9)

    @pytest.mark.parametrize("n", [0, -3])
    def test_torus_shells_need_one_shell(self, n):
        with pytest.raises(ValueError, match="at least one shell"):
            torus_shells(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 57, 100, 200, 1000])
    def test_torus_shells_match_the_listed_box(self, n):
        # the pure-Python listing of the box as the oracle: every point, its
        # order and its int type
        radius = math.isqrt(2 * n) + 2
        while True:
            box = [(i, j) for i in range(-radius, radius + 1)
                   for j in range(-radius, radius + 1)]
            complete = sorted({i * i + j * j for (i, j) in box if i * i + j * j <= radius ** 2})
            if len(complete) >= n:
                break
            radius *= 2
        want = tuple((i, j) for (_, i, j) in sorted(
            (i * i + j * j, i, j) for (i, j) in box if i * i + j * j <= complete[n - 1]))
        got = torus_shells(n)
        assert got == want
        assert all(type(v) is int for k in got for v in k)

    @pytest.mark.parametrize("budget, refused", [
        (1000, True),   # the first box, half-width 16, has 1089 points
        (4000, True),   # it holds 98 < 100 norms; the doubled box has 4225
        (4225, False),
    ])
    def test_torus_shells_box_is_budgeted(self, monkeypatch, budget, refused):
        # every candidate box is checked against the shell budget before it
        # is made (the cache is bypassed)
        want = torus_shells(100)
        monkeypatch.setattr(operators, "MAX_SHELL_BOX", budget)
        if refused:
            with pytest.raises(ValueError, match="MAX_SHELL_BOX"):
                torus_shells.__wrapped__(100)
        else:
            assert torus_shells.__wrapped__(100) == want


PHASE_KINDS = {"circle": ("szego_P", "circle_F"), "torus": ("torus_U", "torus_U_star")}


def _norm(k) -> int:
    """|k|_inf of a circle or torus index."""
    return int(np.max(np.abs(k)))


@st.composite
def factor_lists(draw, min_size: int = 1, max_size: int = 3):
    """A domain and min_size to max_size factor specs (kind, phase kind,
    series)."""
    domain = draw(st.sampled_from(["circle", "torus"]))
    freq = (st.integers(-3, 3) if domain == "circle"
            else st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                               allow_nan=False, allow_infinity=False)
    series = st.dictionaries(freq, coeff, min_size=1, max_size=3).map(
        lambda c: FourierSeries(domain, c, False))
    specs = st.tuples(st.sampled_from(["phase", "commutator", "multiplication"]),
                      st.sampled_from(PHASE_KINDS[domain]), series)
    return domain, draw(st.lists(specs, min_size=min_size, max_size=max_size))


def build_factors(specs, bound: int) -> list:
    ops = []
    for kind, model, a in specs:
        if kind == "phase":
            ops.append(SparseOperator.diagonal_phase(OperatorModel(model), bound))
        elif kind == "commutator":
            ops.append(commutator(OperatorModel(model), a, bound))
        else:
            ops.append(multiplication_operator(a, bound))
    return ops


def _shapes(ops) -> list:
    return [(op.bandwidth, op.radius) for op in ops]


class TestExactWindow:
    """The exact column radius is derived as bound - bandwidth, the support
    radius bounds every entry, and exact_bound is the smallest window at
    which the path rule admits a diagonal read."""

    @given(factor_lists(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_radius_is_bound_minus_bandwidth(self, drawn, slack):
        """For phases, commutators, multiplication operators and their
        products: the radius equals the composition rule min(radius of the
        right factor, radius so far - its bandwidth), every entry lies
        within the bandwidth and within the support radius where there is
        one, and every column within the radius equals the same column
        built in a window 4 wider, bit for bit."""
        _, specs = drawn
        bound = sum(a.max_frequency() for kind, _, a in specs if kind != "phase") + slack
        ops, wide = build_factors(specs, bound), build_factors(specs, bound + 4)
        radius = ops[0].bound - ops[0].bandwidth
        for op in ops[1:]:
            radius = min(op.bound - op.bandwidth, radius - op.bandwidth)
        prod, wide_prod = compose(ops), compose(wide)
        for op in ops + [prod]:
            assert all(_norm(np.subtract(r, c)) <= op.bandwidth for r, c, _ in op_entries(op))
            assert op.radius is None or all(max(_norm(r), _norm(c)) <= op.radius
                                            for r, c, _ in op_entries(op))
        assert prod.bound - prod.bandwidth == radius
        inside = lambda op: {(r, c): v for r, c, v in op_entries(op) if _norm(c) <= radius}
        assert inside(prod) == inside(wide_prod)

    @pytest.mark.parametrize("domain", ["circle", "torus"])
    def test_diagonals_are_exact_from_the_exact_bound(self, domain):
        """The diagonals of lead [a0] [lead*, a1][lead, a2] are bit-identical
        at exact_bound and 5 above it, and one below it the read leaks."""
        rng = np.random.default_rng(31)
        if domain == "circle":
            mk = lambda: FourierSeries("circle", {k: complex(*rng.standard_normal(2))
                                                  for k in range(-3, 4)}, False)
            lead, idx = OperatorModel("circle_F"), symmetric_order(15)
        else:
            mk = lambda: random_torus_series(rng, terms=6)
            lead, idx = OperatorModel("torus_U"), list(torus_shells(6))
        leading, inputs = mk(), [mk(), mk()]
        bound = _phase_product_bound(inputs, idx, leading)
        diagonal = lambda b: product_diagonal(_phase_products(lead, inputs, b, leading), idx)
        at = diagonal(bound)
        assert np.any(at != 0)
        assert at.tobytes() == diagonal(bound + 5).tobytes()
        with pytest.raises(WindowLeakageError):
            diagonal(bound - 1)

    @given(factor_lists(min_size=2, max_size=4), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_diagonals_are_exact_at_the_path_window(self, drawn, count):
        """A product of phases, multiplication operators and circle or torus
        commutators read at exact_bound of its factors' (bandwidth, radius)
        has, bit for bit, the diagonal it has 5 above and at the old window
        N + sum of the bandwidths; one below, the read raises."""
        domain, specs = drawn
        idx = symmetric_order(count) if domain == "circle" else list(torus_shells(count))
        old = max(map(_norm, idx)) + sum(a.max_frequency()
                                         for kind, _, a in specs if kind != "phase")
        bound = exact_bound(_shapes(build_factors(specs, old)), idx)
        diagonal = lambda b: product_diagonal(build_factors(specs, b), idx)
        at = diagonal(bound)
        assert at.tobytes() == diagonal(bound + 5).tobytes()
        assert at.tobytes() == diagonal(old).tobytes()
        with pytest.raises(WindowLeakageError):
            diagonal(bound - 1)

    @pytest.mark.parametrize("case", ["banded", "commutator"])
    def test_read_one_below_the_path_window_differs(self, case):
        """Products whose read one below exact_bound, taken past the check,
        loses a path: the rule is tight on them."""
        z, zi = FourierSeries.monomial(1, exact=False), FourierSeries.monomial(-1, exact=False)
        if case == "banded":
            # n -> n + 1 -> n: the read at 1 passes through 2
            specs, idx = [("multiplication", None, zi), ("phase", "circle_F", None),
                          ("multiplication", None, z)], [-1, 0, 1]
        else:
            # [F, z] has one entry, at (0, -1), and 0 -> -1 -> -2 -> -1 -> 0
            specs, idx = [("commutator", "circle_F", z), ("multiplication", None, z),
                          ("multiplication", None, zi), ("multiplication", None, zi)], [0]
        bound = exact_bound(_shapes(build_factors(specs, 8)), idx)
        assert bound == 2
        exact = product_diagonal(build_factors(specs, bound), idx)
        below = build_factors(specs, bound - 1)
        with pytest.raises(WindowLeakageError):
            product_diagonal(below, idx)
        unchecked = _product_diagonal(compose(below[:-1]).to_csr(), below[-1].to_csr())
        assert np.any(unchecked[np.array(idx) + bound - 1] != exact)

    @pytest.mark.parametrize("cap, m_max, window", [
        (13, 12, 8192),      # the benchmark's crosscheck; N + summed bandwidths is 36863
        (16, 14, 65536),     # the catalog default; 278527
        (23, 14, 1 << 23),   # the largest cap within MAX_WINDOW_DIM
    ])
    def test_wedge_window_is_its_widest_commutator(self, cap, m_max, window):
        # every inner index of F [F,a0]...[F,a3] sits beside a commutator,
        # whose rows and columns are within 2^cap
        quad = _lacunary_quadruple(0.25, cap)
        assert _phase_product_bound(quad, range(1 << m_max)) == window

    def test_torus_window_adds_the_smaller_side(self):
        # no factor has a radius, so inner index t drifts by at most the
        # smaller of the bandwidth sums to its left (0, 2, 5) and to its
        # right (6, 4, 1)
        shapes = [(0, None), (2, None), (3, None), (1, None)]
        assert exact_bound(shapes, [(1, 1), (4, -1)]) == 4 + 2

    @pytest.mark.parametrize("domain", ["circle", "torus"])
    @pytest.mark.parametrize("with_leading", [False, True])
    def test_phase_product_bound_reads_the_built_factors(self, domain, with_leading):
        """The window the cocycles size before building is exact_bound of
        the factors _phase_products then builds."""
        rng = np.random.default_rng(31)
        if domain == "circle":
            mk = lambda: FourierSeries("circle", {k: complex(*rng.standard_normal(2))
                                                  for k in range(-3, 4)}, False)
            lead, idx = OperatorModel("circle_F"), symmetric_order(15)
        else:
            mk = lambda: random_torus_series(rng, terms=6)
            lead, idx = OperatorModel("torus_U"), list(torus_shells(6))
        leading = mk() if with_leading else None
        inputs = [mk(), mk()]
        ops = _phase_products(lead, inputs, 20, leading)
        assert _phase_product_bound(inputs, idx, leading) == exact_bound(_shapes(ops), idx)


def hankel_singular_values(coeffs) -> np.ndarray:
    """Singular values of the lacunary Hankel block H_L(i, l) =
    sum_k c_k [i + l = 2^k - 1] for real c_0..c_L, in decreasing order.

    H_(n+1) = [[H_n, c J], [c J, 0]] with c = c_(n+1) and J the exchange
    matrix; conjugating by diag(I, J) gives [[H_n, c I], [c I, 0]], so each
    eigenvalue lam of H_n splits into (lam +- sqrt(lam^2 + 4 c^2)) / 2.
    """
    lam = np.array([coeffs[0]])
    for c in coeffs[1:]:
        root = np.sqrt(lam ** 2 + 4 * c * c)
        lam = np.concatenate([(lam + root) / 2, (lam - root) / 2])
    return np.sort(np.abs(lam))[::-1]


def _real_sequence(name: str, level: int) -> BoundedSequence:
    if name == "random":
        values = np.random.default_rng(17).standard_normal(level + 1)
        return BoundedSequence(values.__getitem__, float(np.abs(values).max()))
    return {"ones": BoundedSequence.constant(1.0),
            "alternating": BoundedSequence(lambda j: (-1.0) ** j, 1.0)}[name]


def _gram(op: SparseOperator) -> tuple:
    """The CSR triple of the smaller Gram matrix of op compressed to its
    nonzero rows and columns, as singular_values forms it."""
    _, ri = np.unique(operators._rows(op.indptr), return_inverse=True)
    _, ci = np.unique(op.cols, return_inverse=True)
    nr, nc = ri.max() + 1, ci.max() + 1
    mat = operators._csr(ri, ci, op.vals, (nr, nc))
    adj = operators._csr(ci, ri, np.conj(op.vals), (nc, nr))
    return _matmul(mat, adj, nr) if nr <= nc else _matmul(adj, mat, nc)


class TestSingularValues:
    def test_matches_dense_svd(self):
        ones = BoundedSequence.constant(1.0)
        a = lacunary_series(ones, 0.5, 7)
        c = commutator(OperatorModel("szego_P"), a, 200)
        mu = singular_values(c, 150).mu
        dense = np.linalg.svd(dense_circle(c, 200), compute_uv=False)
        assert np.allclose(mu, dense[:150], atol=1e-10)

    def test_finite_rank_padding(self):
        trig = FourierSeries("circle", {1: 1.0, -1: 1.0}, False)
        c = commutator(OperatorModel("szego_P"), trig, 32)
        sv = singular_values(c, 20)
        assert len(sv.mu) == 20
        assert np.all(sv.mu[2:] == 0.0)
        _, tail = weak_quasinorm(sv, 2.0)
        assert tail == 0.0

    def test_zero_operator(self):
        # a constant commutes with the projector: no entries, all zeros
        const = FourierSeries("circle", {0: 2.0}, False)
        sv = singular_values(commutator(OperatorModel("szego_P"), const, 8), 5)
        assert np.array_equal(sv.mu, np.zeros(5)) and sv.provenance == "zero operator"

    @pytest.mark.parametrize("level, name, count, method", [
        (6, "ones", 80, "dense"),
        (9, "ones", 512, "dense"),
        (10, "alternating", 1024, "gram eigensolver"),
        (10, "random", 1024, "gram eigensolver"),
        (11, "ones", 512, "gram eigensolver"),
    ])
    def test_both_branches_match_hankel_recursion(self, level, name, count, method):
        a = lacunary_series(_real_sequence(name, level), 0.5, level)
        sv = singular_values(commutator(OperatorModel("szego_P"), a, 2 ** level), count)
        want = hankel_singular_values([a.coeffs[2 ** k].real for k in range(level + 1)])
        want = np.concatenate([want, np.zeros(max(0, count - len(want)))])[:count]
        assert sv.provenance.startswith(method + " svd")
        assert np.max(np.abs(sv.mu - want)) <= 1e-12

    def test_complex_gram_matches_dense_svd(self):
        # c_k = e^{ik}: the Gram of the level-10 commutator has 1024 rows and
        # a sparse product with imaginary parts up to about 0.6
        seq = BoundedSequence(lambda k: complex(math.cos(k), math.sin(k)), 1.0)
        a = lacunary_series(seq, 0.5, 10)
        c = commutator(OperatorModel("szego_P"), a, 2 ** 10)
        sv = singular_values(c, 1024)
        m = dense_circle(c, 2 ** 10)
        m = m[np.any(m != 0, axis=1)][:, np.any(m != 0, axis=0)]
        assert np.max(np.abs(_gram(c)[2].imag)) > 0.5
        want = np.linalg.svd(m, compute_uv=False)[:1024]
        assert sv.provenance.startswith("gram eigensolver svd")
        assert np.max(np.abs(sv.mu - want)) <= 1e-12

    @pytest.mark.parametrize("level", [10, 11])
    @pytest.mark.parametrize("name", ["ones", "alternating", "random"])
    def test_real_gram_has_the_complex_gram_bits(self, level, name):
        a = lacunary_series(_real_sequence(name, level), 0.5, level)
        c = commutator(OperatorModel("szego_P"), a, 2 ** level)
        # the eigensolve of the real part of the complex dense Gram
        gram = _gram(c)
        n = len(gram[0]) - 1
        g = operators._dense(gram, (n, n))
        assert np.max(np.abs(g.imag)) == 0.0
        mu = np.sqrt(np.clip(np.linalg.eigvalsh(g.real), 0.0, None))
        want = SingularValueSequence(np.sort(mu)[::-1][:512], "")
        sv = singular_values(c, 512)
        assert sv.provenance.startswith("gram eigensolver svd")
        assert sv.mu.tobytes() == want.mu.tobytes()

    def test_real_gram_peak_memory(self):
        # one float64 Gram (n^2 * 8 bytes) and little else; numpy's own
        # eigensolver workspace is not traced
        a = lacunary_series(BoundedSequence.constant(1.0), 0.5, 11)
        c = commutator(OperatorModel("szego_P"), a, 2 ** 11)
        n = len(_gram(c)[0]) - 1
        assert n == 2048
        tracemalloc.start()
        try:
            singular_values(c, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8

    def test_oversized_operator_raises(self):
        a = lacunary_series(BoundedSequence.constant(1.0), 0.5, 14)
        c = commutator(OperatorModel("szego_P"), a, 2 ** 14)
        with pytest.raises(ValueError, match="GRAM_EIG_DIM = 9000"):
            singular_values(c, 4)

    def test_quasinorm_flat_for_inverse_sqrt(self):
        from chernlab.operators import SingularValueSequence
        mu = (np.arange(1, 513)) ** -0.5
        sv = SingularValueSequence(mu, "synthetic")
        sup, tail = weak_quasinorm(sv, 2.0)
        assert sup == pytest.approx(1.0, abs=1e-12)
        assert tail == pytest.approx(sup, abs=1e-12)


def torus_index():
    return st.tuples(st.integers(-12, 12), st.integers(-12, 12))


class TestTorusKernel:
    def test_guards_raise_on_degenerate_triples(self):
        # k = 0, k + m = 0 and k + n = 0, in exact and in float arithmetic
        for rho in (rho_exact_terms, torus_phase_kernel_rho):
            with pytest.raises(ZeroDivisionError):
                rho((0, 0), (1, 0), (0, 1))
            with pytest.raises(ZeroDivisionError):
                rho((1, 0), (-1, 0), (0, 1))
            with pytest.raises(ZeroDivisionError):
                rho((1, 0), (1, 1), (-1, 0))

    @given(torus_index(), torus_index(), torus_index())
    @settings(max_examples=60, deadline=None)
    def test_exact_terms_match_float_kernel(self, k, m, n):
        try:
            exact = rho_exact_terms(k, m, n)
        except ZeroDivisionError:
            return
        total = sum(float(c) * math.sqrt(s) for s, c in exact.items())
        assert total == pytest.approx(torus_phase_kernel_rho(k, m, n), abs=1e-9)

    @given(torus_index(), torus_index(), torus_index(),
           st.sampled_from([2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_exact(self, k, m, n, t):
        try:
            base = rho_exact_terms(k, m, n)
        except ZeroDivisionError:
            return
        scaled = rho_exact_terms((t * k[0], t * k[1]), (t * m[0], t * m[1]),
                                 (t * n[0], t * n[1]))
        assert base == scaled

    def test_split_of_a_product_from_its_factors(self):
        splits = [None] + [_squarefree_split(q) for q in range(1, 301)]
        for q1 in range(1, 301):
            for q2 in range(1, 301):
                assert (_squarefree_product(splits[q1], splits[q2])
                        == _squarefree_split(q1 * q2)), (q1, q2)

    def test_split_of_every_pair_drawn_at_the_default_seed(self, monkeypatch, tmp_path):
        pairs = []

        def recorded(split1, split2):
            pairs.append((split1, split2))
            return _squarefree_product(split1, split2)

        monkeypatch.setattr(operators, "_squarefree_product", recorded)
        report = run_experiment("adnaodnaond-kernel-equivalence", out_dir=tmp_path)
        assert report.passed and len(pairs) > 1000
        for (s1, f1), (s2, f2) in pairs:
            assert (_squarefree_product((s1, f1), (s2, f2))
                    == _squarefree_split(s1 * f1 * f1 * s2 * f2 * f2))

    @given(torus_index(), torus_index(), torus_index())
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry_exact(self, k, m, n):
        try:
            base = rho_exact_terms(k, m, n)
            swapped = rho_exact_terms(k, n, m)
        except ZeroDivisionError:
            return
        assert {s: -c for s, c in base.items()} == swapped
