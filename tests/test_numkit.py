import gc
import weakref

import numpy as np
import pytest
from helpers import csr_from_dense, traced_peak
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from plskit import (
    DimensionError,
    SparseMatrix,
    csr_from_triplets,
    load_matrix_market,
    principal_submatrix,
    spmv,
)
from plskit import obstacle as obs
from plskit.numkit import (
    EllOperator,
    _csr_from_arrays,
    _row_sums,
    active_operator,
    as_vector,
    reused_product,
)


def test_triplets_are_summed_sorted_and_zero_free():
    m = csr_from_triplets(
        [(1, 0, 3.0), (0, 0, 1.0), (0, 0, 2.0), (0, 1, 0.0)], 2, 2
    )
    assert m.n_rows == 2 and m.n_cols == 2
    assert m.row_offsets.tolist() == [0, 1, 2]
    assert m.col_indices.tolist() == [0, 0]
    assert m.values.tolist() == [3.0, 3.0]


def test_cancelling_duplicates_are_dropped():
    m = csr_from_triplets([(0, 0, 1.0), (0, 0, -1.0), (1, 1, 2.0)], 2, 2)
    assert m.values.tolist() == [2.0]


def test_out_of_range_triplet_raises():
    with pytest.raises(IndexError):
        csr_from_triplets([(2, 0, 1.0)], 2, 2)
    with pytest.raises(IndexError):
        csr_from_triplets([(0, -1, 1.0)], 2, 2)


def test_index_dtype_holds_large_dimensions():
    m = csr_from_triplets([(0, 0, 1.0)], 2, 2)
    assert m.row_offsets.dtype == np.int64
    assert m.col_indices.dtype == np.int64


def test_spmv_identity_and_shape_check():
    eye = csr_from_triplets([(i, i, 1.0) for i in range(3)], 3, 3)
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(spmv(eye, x), x)
    with pytest.raises(DimensionError):
        spmv(eye, np.ones(4))


def test_spmv_matches_dense_including_empty_rows():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 4))
    a[2, :] = 0.0  # forces an empty stored row
    m = csr_from_dense(a)
    x = rng.normal(size=4)
    assert np.allclose(spmv(m, x), a @ x)
    a[4:, :] = 0.0  # trailing empty rows end no segment
    m = csr_from_dense(a)
    assert np.allclose(spmv(m, x), a @ x)
    rng = np.random.default_rng(4)
    n = 30
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.2)
    x = rng.normal(size=n)
    assert np.allclose(spmv(csr_from_dense(a), x), a @ x)


def test_rectangular_and_empty_matrices():
    m = csr_from_triplets([], 3, 5)
    assert m.shape == (3, 5)
    assert np.array_equal(spmv(m, np.ones(5)), np.zeros(3))
    with pytest.raises(DimensionError):
        m.is_irreducible()


def test_transpose_round_trip():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 3))
    m = csr_from_dense(a)
    t = m.transpose()
    assert np.allclose(t.to_dense(), a.T)
    back = t.transpose()
    assert back is not m
    for got, ref in ((back.row_offsets, m.row_offsets),
                     (back.col_indices, m.col_indices), (back.values, m.values)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_transpose_matches_the_triplet_build_bit_for_bit():
    # seeded rectangular matrices with empty rows and columns: the
    # sort-free transpose must give the arrays that building A^T from its
    # triplets gives, and transpose back to A
    rng = np.random.default_rng(9)
    for _ in range(50):
        n_rows, n_cols = (int(d) for d in rng.integers(1, 30, size=2))
        a = rng.normal(size=(n_rows, n_cols))
        a[rng.random(a.shape) < 0.7] = 0.0
        a[rng.random(n_rows) < 0.2, :] = 0.0
        a[:, rng.random(n_cols) < 0.2] = 0.0
        m = csr_from_dense(a)
        rows = np.repeat(np.arange(m.n_rows), np.diff(m.row_offsets))
        want = _csr_from_arrays(m.col_indices, rows, m.values, m.n_cols, m.n_rows)
        t = m.transpose()
        assert t.shape == (n_cols, n_rows)
        for got, ref in ((t.row_offsets, want.row_offsets),
                         (t.col_indices, want.col_indices), (t.values, want.values)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        back = SparseMatrix(t.n_rows, t.n_cols, t.row_offsets, t.col_indices,
                            t.values).transpose()
        for got, ref in ((back.row_offsets, m.row_offsets),
                         (back.col_indices, m.col_indices), (back.values, m.values)):
            assert np.array_equal(got, ref)
        assert np.array_equal(t.to_dense(), a.T)


def test_transpose_does_not_keep_the_matrix_alive():
    # A^T holds no reference to A, so dropping A frees it at once, with
    # no cycle left for the garbage collector
    m = csr_from_dense(np.array([[2.0, -1.0], [0.0, 3.0]]))
    t = m.transpose()
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()
    assert np.array_equal(t.to_dense(), [[2.0, 0.0], [-1.0, 3.0]])
    assert np.array_equal(t.transpose().to_dense(), [[2.0, -1.0], [0.0, 3.0]])


def test_diagonal_add_diagonal_scaled_norm():
    a = np.array([[2.0, -1.0], [0.0, 4.0]])
    m = csr_from_dense(a)
    assert m.diagonal().tolist() == [2.0, 4.0]
    assert m.norm_inf() == 4.0
    assert np.allclose(m.scaled(0.5).to_dense(), 0.5 * a)
    assert np.allclose(m.add_diagonal(1.0).to_dense(), a + np.eye(2))
    bump = m.add_diagonal(np.array([0.0, -4.0]))
    assert np.allclose(bump.to_dense(), [[2.0, -1.0], [0.0, 0.0]])


def test_rows_and_diagonal_of_rectangular_matrices():
    # the diagonal has min(n_rows, n_cols) entries, zero where none is
    # stored, and is read from each row's diagonal slot
    rng = np.random.default_rng(4)
    for n_rows, n_cols in ((3, 5), (5, 3), (4, 4), (0, 2), (2, 0)):
        a = rng.normal(size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.6)
        m = csr_from_dense(a)
        rows = m.row_indices()
        assert rows.dtype == np.int64 and rows.size == m.nnz
        assert np.array_equal(a[rows, m.col_indices], m.values)
        assert np.array_equal(m.diagonal(), np.diagonal(a))
        slots = m.diagonal_slots()
        stored = np.flatnonzero(slots >= 0)
        assert np.array_equal(m.col_indices[m.row_offsets[stored] + slots[stored]],
                              stored)


def test_as_vector_rejects_bad_input():
    with pytest.raises(DimensionError):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])


@pytest.mark.parametrize("kind", ["elliptic", "parabolic"])
def test_principal_submatrix_matches_dense_forms(kind):
    # the active block of (I - P + T P) is T_AA, that of (I + T P) is
    # I + T_AA. The shift is applied by active_operator alone: a slice
    # with a row that stores no diagonal (rows 0-3) or whose diagonal the
    # unit shift cancels (entry (5, 5)) falls back to the CSR slice plus
    # add_diagonal, and that fallback must be the dense form too
    rng = np.random.default_rng(3)
    n = 8
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(a, [0.0, 0.0, 0.0, 0.0, 2.0, -1.0, 3.0, 4.0])
    m = csr_from_dense(a)
    masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool), np.arange(n) >= 4]
    masks += [(np.arange(n) >= 4) & (np.arange(n) != 5)]
    masks += [rng.random(n) < 0.5 for _ in range(5)]
    fallbacks = 0
    for mask in masks:
        p = np.diag(mask.astype(float))
        if kind == "elliptic":
            full = np.eye(n) - p + a @ p
            sub = principal_submatrix(m, mask)
        else:
            full = np.eye(n) + a @ p
            sub = active_operator(m, mask, 1.0)
            fallback = bool(mask[:4].any() or mask[5])
            assert isinstance(sub, SparseMatrix) == fallback
            if not fallback:
                continue
            fallbacks += 1
        assert sub.shape == (mask.sum(), mask.sum())
        assert np.array_equal(sub.to_dense(), full[np.ix_(mask, mask)])
        # canonical rows: sorted, duplicate-free, zero-free
        for i in range(sub.n_rows):
            cols = sub.col_indices[sub.row_offsets[i]:sub.row_offsets[i + 1]]
            assert np.all(np.diff(cols) > 0)
        assert np.all(sub.values != 0.0)
    assert kind == "elliptic" or fallbacks >= 2


def test_principal_submatrix_validates_inputs():
    m = csr_from_dense(np.eye(2))
    with pytest.raises(DimensionError):
        principal_submatrix(m, np.zeros(3, dtype=bool))
    rect = csr_from_triplets([(0, 0, 1.0)], 2, 3)
    with pytest.raises(DimensionError):
        principal_submatrix(rect, np.zeros(2, dtype=bool))


def test_is_symmetric_is_exact():
    a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert csr_from_dense(a).is_symmetric()
    a[0, 1] = -1.0 + 1e-15
    assert not csr_from_dense(a).is_symmetric()
    a[0, 1] = 0.0  # same values, different pattern
    assert not csr_from_dense(a).is_symmetric()
    assert not csr_from_triplets([(0, 0, 1.0)], 2, 3).is_symmetric()


_SYMMETRY_CASES = ("any", "zero", "symmetric", "missing mirror",
                   "unequal mirror")


@st.composite
def _symmetry_cases(draw):
    """(case, dense matrix): any shape with any entries, the zero matrix,
    or a square symmetric matrix with some empty rows and columns, as it
    is or with one mirror entry dropped or changed. The values repeat,
    so unrelated entries often match."""
    case = draw(st.sampled_from(_SYMMETRY_CASES))
    values = st.sampled_from([0.0, 0.0, -1.0, 2.0, 0.5]) | _floats
    if case == "any":
        shape = (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
        return case, draw(arrays(np.float64, shape, elements=values))
    n = draw(st.integers(0 if case in ("zero", "symmetric") else 2, 7))
    if case == "zero":
        return case, np.zeros((n, n))
    upper = np.triu(draw(arrays(np.float64, (n, n), elements=values)))
    a = upper + np.triu(upper, 1).T
    empty = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                     dtype=bool)
    a[empty] = 0.0
    a[:, empty] = 0.0
    if case != "symmetric":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        v = draw(values.filter(lambda v: v != 0.0))
        a[i, j] = a[j, i] = v
        a[i, j] = 0.0 if case == "missing mirror" else np.nextafter(v, np.inf)
    return case, a


@settings(max_examples=400, deadline=None)
@given(_symmetry_cases())
def test_is_symmetric_property_agrees_with_the_dense_test(drawn):
    case, a = drawn
    event(case)
    m = csr_from_dense(a)
    dense = a.shape[0] == a.shape[1] and bool((a == a.T).all())
    assert m.is_symmetric() == dense
    if case in ("zero", "symmetric"):
        assert dense
    elif case != "any":
        assert not dense


def test_is_symmetric_needs_little_scratch():
    # the test reads A^T's order from one argsort and builds no A^T; a
    # transpose made to compare with A took 3.2 times 8 nnz bytes
    t = _obstacle_matrix("tent-neumann", 200)
    fresh = SparseMatrix(t.n_rows, t.n_cols, t.row_offsets, t.col_indices,
                         t.values)
    peak, symmetric = traced_peak(fresh.is_symmetric)
    assert symmetric
    assert peak <= 2.5 * 8 * t.nnz


def _uncached_copy(m, values):
    """m's pattern with other values, and nothing found about it yet."""
    return SparseMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_indices, values)


def _nearly_symmetric(rng, n):
    """A random square pattern made symmetric, whose mirrored entries differ
    in the last bit of some pairs, and a few empty rows."""
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
    a = a + a.T
    a[rng.random(n) < 0.2] = 0.0
    a[:, np.all(a == 0.0, axis=1)] = 0.0
    upper = np.triu(rng.random((n, n)) < 0.5, 1) & (a != 0.0)
    a[upper] = np.nextafter(a[upper], np.inf)
    return csr_from_dense(a)


def test_scaled_copy_finds_its_own_facts():
    # s * A is a matrix like any other: every fact and every row datum it
    # finds agrees with a copy made with no cache, and A's own cached
    # data stays as it was. 2^-1074 rounds both entries of a pair that
    # differ in the last bit to the same subnormal, so a nonsymmetric A
    # gives a symmetric s * A
    rng = np.random.default_rng(13)
    tiny = np.ldexp(1.0, -1074)
    verdicts = set()
    for _ in range(60):
        n = int(rng.integers(1, 12))
        m = _nearly_symmetric(rng, n)
        m.diagonal_slots()
        m.is_irreducible()
        symmetric = m.is_symmetric()
        diagonal, row_sums = m.diagonal(), m.row_sums()
        for s in (0.5, -3.0, tiny):
            copy = m.scaled(s)
            fresh = _uncached_copy(m, m.values * s)
            assert copy.is_irreducible() == fresh.is_irreducible() == m.is_irreducible()
            assert copy.is_symmetric() == fresh.is_symmetric()
            verdicts.add((symmetric, copy.is_symmetric()))
            # the values' own row data is made anew
            assert _same_bits(copy.diagonal(), fresh.diagonal())
            assert _same_bits(copy.row_sums(), fresh.row_sums())
            assert _same_bits(copy.abs_row_sums(), fresh.abs_row_sums())
        assert m.diagonal() is diagonal and m.row_sums() is row_sums
    assert verdicts == {(True, True), (False, False), (False, True)}


def test_row_data_is_made_once_and_read_only():
    # callers share the cached arrays, so none of them may write to one
    m = _obstacle_matrix("tent-neumann", 6)
    for read in (m.diagonal, m.diagonal_slots, m.row_sums, m.abs_row_sums):
        first = read()
        assert read() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
    assert np.array_equal(m.row_sums(), spmv(m, np.ones(m.n_cols)))


def test_matrix_market_round_trip(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment line\n"
        "2 3 3\n"
        "1 1 1.5\n"
        "2 3 -2.0\n"
        "1 2 4\n"
    )
    m = load_matrix_market(path)
    assert m.shape == (2, 3)
    assert np.allclose(m.to_dense(), [[1.5, 4.0, 0.0], [0.0, 0.0, -2.0]])


def test_matrix_market_integer_is_accepted(tmp_path):
    path = tmp_path / "i.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n"
    )
    assert load_matrix_market(path).to_dense()[0, 0] == 7.0


def test_matrix_market_entry_count_and_indices_are_checked(tmp_path):
    head = "%%MatrixMarket matrix coordinate real general\n"
    for body in (
        "2 2 3\n1 1 2.0\n2 2 1.0\n",  # short
        "2 2 1\n1 1 2.0\n2 2 1.0\n",  # long
        "2 2 2\n1 1 2.0\n3 1 1.0\n",  # row out of range
        "2 2 2\n1 1 2.0\n1 0 1.0\n",  # column below 1
        "0 0 0\n",  # empty
        "2 0 0\n",  # no columns
    ):
        path = tmp_path / "bad.mtx"
        path.write_text(head + body)
        with pytest.raises(ValueError):
            load_matrix_market(path)
    path.write_text(head + "2 2 0\n")
    assert load_matrix_market(path).nnz == 0


def test_matrix_market_rejects_unsupported_headers(tmp_path):
    for header in (
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate real skew-symmetric",
        "%%MatrixMarket matrix array real general",
    ):
        path = tmp_path / "bad.mtx"
        path.write_text(header + "\n1 1 1\n1 1 1.0\n")
        with pytest.raises(ValueError):
            load_matrix_market(path)


def test_matrix_market_symmetric_mirrors_the_lower_triangle(tmp_path):
    a = np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -2.5], [0.0, -2.5, 3.0]])
    head = "%%MatrixMarket matrix coordinate real"
    rows, cols = np.nonzero(a)
    lines = [f"{i + 1} {j + 1} {float(a[i, j])!r}" for i, j in zip(rows, cols)]
    general = tmp_path / "general.mtx"
    general.write_text(f"{head} general\n3 3 {len(lines)}\n" + "\n".join(lines))
    lower = [line for line, i, j in zip(lines, rows, cols) if i >= j]
    symmetric = tmp_path / "symmetric.mtx"
    symmetric.write_text(
        f"{head} symmetric\n% lower triangle\n3 3 {len(lower)}\n" + "\n".join(lower)
    )
    g, m = load_matrix_market(general), load_matrix_market(symmetric)
    assert np.array_equal(m.to_dense(), a)  # the diagonal is kept once
    for name in ("row_offsets", "col_indices", "values"):
        assert np.array_equal(getattr(m, name), getattr(g, name))
    assert m.is_symmetric()
    for body in ("3 3 2\n1 1 4.0\n1 2 -1.0\n", "2 3 1\n1 1 4.0\n"):
        symmetric.write_text(f"{head} symmetric\n{body}")  # upper entry, not square
        with pytest.raises(ValueError):
            load_matrix_market(symmetric)


# The ELL product must give the CSR kernel's bits. It relies on numpy's
# reduceat adding a row's first entry to the in-order sum of the rest;
# if a numpy release changes that order, these tests fail first.

def _csr_product(m, x):
    return _row_sums(m.values * x[m.col_indices], m)


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _obstacle_matrix(name, n):
    c = -10.0 if name.startswith("torsion") else None
    return obs.assemble_elliptic(obs.problem_spec(name, c), n).T


def _random_rows(rng, n, lengths):
    """Square CSR matrix whose row i has lengths[i] entries."""
    rows = np.repeat(np.arange(n), lengths)
    cols = np.concatenate([rng.choice(n, k, replace=False) for k in lengths])
    vals = rng.normal(size=rows.size) * 10.0 ** rng.integers(-3, 4, rows.size)
    return _csr_from_arrays(rows, cols, vals, n, n)


def _vector_with_zeros(rng, n):
    x = rng.normal(size=n)
    x[rng.random(n) < 0.2] = 0.0
    x[rng.random(n) < 0.2] = -0.0
    return x


_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _sliced_problems(draw):
    """A square matrix of order 0..30 with 0..8 entries drawn per row
    (duplicates sum, so rows, columns and cancelled entries can be
    empty), a mask, a shift and a vector on the slice."""
    n = draw(st.integers(0, 30))
    entry = st.tuples(st.integers(0, max(n - 1, 0)), _floats)
    triplets = [
        (i, j, v)
        for i in range(n)
        for j, v in draw(st.lists(entry, max_size=8))
    ]
    keep = st.sampled_from([True, True, True, False])
    mask = np.array(draw(st.lists(keep, min_size=n, max_size=n)), dtype=bool)
    shift = draw(st.sampled_from([0.0, 1.0]))
    size = int(mask.sum())
    x = np.array(draw(st.lists(_floats, min_size=size, max_size=size)), np.float64)
    return csr_from_triplets(triplets, n, n), mask, shift, x


@settings(max_examples=200, deadline=None)
@given(_sliced_problems())
def test_spmv_property_dense_and_csr_agree(problem):
    full, mask, shift, x = problem
    m = _shifted_slice(full, mask, shift)
    op = _assert_active_operator_bits(full, mask, shift, x)
    event("ELL" if isinstance(op, EllOperator) else "CSR")
    a = full.to_dense()[np.ix_(mask, mask)] + shift * np.eye(m.n_rows)
    for products, dense in (((spmv(m, x), _product(op, x)), a),
                            ((spmv(m.transpose(), x),), a.T)):
        scale = (np.abs(dense) @ np.abs(x)).max(initial=0.0)
        for y in products:
            assert np.allclose(y, dense @ x, rtol=0.0, atol=1e-12 * scale)


# active_operator gathers T[A][:, A] + shift I from T's CSR arrays; its
# products and its diagonal must give the bits
# of principal_submatrix's CSR slice plus add_diagonal's shift, signed
# zeros included.

def _shifted_slice(T, mask, shift):
    """The CSR slice T[mask][:, mask] + shift I."""
    sub = principal_submatrix(T, mask)
    return sub.add_diagonal(shift) if shift else sub


def _assert_active_operator_bits(T, mask, shift, x):
    """Compare active_operator(T, mask, shift) with the CSR slice on x and
    on a vector with signed zeros; returns the operator."""
    op = active_operator(T, mask, shift)
    sub = _shifted_slice(T, mask, shift)
    assert op.shape == sub.shape
    assert _same_bits(op.diagonal(), sub.diagonal())
    rng = np.random.default_rng(x.size)
    for v in (x, _vector_with_zeros(rng, x.size)):
        assert _same_bits(_product(op, v), _csr_product(sub, v))
    return op


def _product(op, v):
    """op v through reused_product, the only way an operator is applied."""
    p, apply = reused_product(op, v.size)
    p[:] = v
    return apply()


def _drops_first_neighbours(rng, T, p):
    """A random mask that also deactivates the first stored column of some
    active rows, so those rows lose their slot-0 entry."""
    mask = rng.random(T.n_rows) < p
    stored = np.diff(T.row_offsets) > 0
    rows = np.flatnonzero(mask & stored & (rng.random(T.n_rows) < 0.5))
    first = T.col_indices[T.row_offsets[rows]]
    mask[first[first != rows]] = False
    return mask


def _first_dropped(T, mask):
    """Active rows whose first stored column is inactive."""
    rows = np.flatnonzero(mask & (np.diff(T.row_offsets) > 0))
    return int(np.count_nonzero(~mask[T.col_indices[T.row_offsets[rows]]]))


@pytest.mark.parametrize("n", [25, 50])
@pytest.mark.parametrize("name", obs.PROBLEM_NAMES)
def test_active_operator_matches_csr_slice_bits_on_obstacle_matrices(name, n):
    rng = np.random.default_rng(n + 1)
    T = _obstacle_matrix(name, n)
    masks = [np.zeros(T.n_rows, dtype=bool), np.ones(T.n_rows, dtype=bool)]
    masks += [rng.random(T.n_rows) < p for p in (0.9, 0.5, 0.05)]
    masks += [_drops_first_neighbours(rng, T, p) for p in (0.9, 0.5)]
    assert all(_first_dropped(T, m) > 0 for m in masks[2:])
    for mask in masks:
        for shift in (0.0, 1.0):
            x = rng.normal(size=int(mask.sum()))
            op = _assert_active_operator_bits(T, mask, shift, x)
            assert isinstance(op, EllOperator)  # no fallback on a stencil


@pytest.mark.parametrize("n", [25, 50])
@pytest.mark.parametrize("name", obs.PROBLEM_NAMES)
def test_ell_product_matches_csr_bits_on_obstacle_matrices(name, n):
    # the slices matprops solves by Bi-CGSTAB, the whole matrix (T x = 1)
    # and the node-deletion slice (T w = 0), on T and on a nonsymmetric
    # copy with scaled columns
    rng = np.random.default_rng(n)
    T = _obstacle_matrix(name, n)
    s = rng.uniform(0.5, 2.0, T.n_cols)
    scaled = SparseMatrix(T.n_rows, T.n_cols, T.row_offsets, T.col_indices,
                          T.values * s[T.col_indices])
    for m in (T, scaled):
        for mask in (np.ones(T.n_rows, dtype=bool), np.arange(T.n_rows) > 0):
            x = rng.normal(size=int(mask.sum()))
            op = _assert_active_operator_bits(m, mask, 0.0, x)
            assert isinstance(op, EllOperator)


def test_active_operator_matches_csr_slice_bits_for_rows_of_0_to_8_entries():
    rng = np.random.default_rng(9)
    gathered = 0
    for _ in range(100):
        n = int(rng.integers(20, 40))
        lengths = rng.integers(0, 9, n)
        lengths[-1] = 0  # a trailing empty row
        T = _random_rows(rng, n, lengths)
        for mask in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                     rng.random(n) < 0.7, _drops_first_neighbours(rng, T, 0.8)):
            for shift in (0.0, 1.0):
                x = _vector_with_zeros(rng, int(mask.sum()))
                op = _assert_active_operator_bits(T, mask, shift, x)
                gathered += isinstance(op, EllOperator)
    # shift 0 is always gathered; shift 1 falls back wherever an active row
    # has no diagonal entry, which random rows often lack
    assert gathered > 400
    # one row of 8 entries among rows of 1: the layout pads every row to 8
    n = 40
    lengths = np.ones(n, dtype=np.int64)
    lengths[5] = 8
    T = _random_rows(rng, n, lengths)
    x = _vector_with_zeros(rng, n)
    op = _assert_active_operator_bits(T, np.ones(n, dtype=bool), 0.0, x)
    assert isinstance(op, EllOperator)


def test_active_operator_falls_back_to_the_csr_slice():
    rng = np.random.default_rng(10)
    n = 30

    def off_diagonal_rows(diagonal):
        # 7 entries off the diagonal per row, then the given diagonal
        rows = np.repeat(np.arange(n), 7)
        cols = np.concatenate([rng.choice(np.delete(np.arange(n), i), 7, replace=False)
                               for i in range(n)])
        vals = rng.normal(size=rows.size)
        keep = diagonal != 0.0
        return _csr_from_arrays(np.concatenate([rows, np.arange(n)[keep]]),
                                np.concatenate([cols, np.arange(n)[keep]]),
                                np.concatenate([vals, diagonal[keep]]), n, n)

    nine = _random_rows(rng, n, np.full(n, 9))
    missing = off_diagonal_rows(np.where(np.arange(n) == 3, 0.0, 5.0))
    cancelling = off_diagonal_rows(np.full(n, -1.0))
    # no stored entry at all: the gather's early return for nnz == 0
    # comes after the shift test
    empty = csr_from_triplets([], n, n)
    # row 3's diagonal entry stored as 0.0, which only a matrix built from
    # its arrays has: it reads 0.0, as a missing one does
    five = off_diagonal_rows(np.full(n, 5.0))
    row_3_diagonal = (five.row_indices() == 3) & (five.col_indices == 3)
    stored_zero = _uncached_copy(five, np.where(row_3_diagonal, 0.0, five.values))
    mask = rng.random(n) < 0.8
    mask[3] = True
    for T, shift in ((nine, 0.0), (nine, 1.0), (missing, 1.0), (cancelling, 1.0),
                     (empty, 1.0), (stored_zero, 1.0)):
        x = _vector_with_zeros(rng, int(mask.sum()))
        op = _assert_active_operator_bits(T, mask, shift, x)
        assert isinstance(op, SparseMatrix)  # the CSR slice
    # without a shift the missing, the cancelling and the stored zero
    # diagonal, and the matrix with no entry, are gathered
    for T in (missing, cancelling, empty, stored_zero):
        x = _vector_with_zeros(rng, int(mask.sum()))
        assert isinstance(_assert_active_operator_bits(T, mask, 0.0, x), EllOperator)


def _rows_with_diagonals(rng, n, width):
    """A square matrix with rows of up to width entries, each with its
    diagonal entry, except: rows 0 and 1 are empty, row 2 has entries but
    no diagonal one, and row 3 has width entries."""
    lengths = rng.integers(1, width + 1, n)
    lengths[:2], lengths[3] = 0, width
    rows, cols = [], []
    for i in range(n):
        diagonal = [i] if lengths[i] and i != 2 else []
        others = rng.choice(np.delete(np.arange(n), i), lengths[i] - len(diagonal),
                            replace=False)
        rows += [i] * int(lengths[i])
        cols += [*others, *diagonal]
    vals = rng.normal(size=len(rows)) + np.where(np.array(rows) == cols, 4.0, 0.0)
    return _csr_from_arrays(rows, cols, vals, n, n)


@pytest.mark.parametrize("width", range(1, 9))
def test_one_matrix_serves_many_masks_and_shifts(width):
    # the matrix's cached diagonal, which no shift changes, must serve
    # every mask and shift in turn: each operator keeps the bits of
    # principal_submatrix + add_diagonal, and falls back to it exactly
    # where a shifted active row has no diagonal entry or one that the
    # shift cancels. Shifts alternate, so a shift that leaks into the
    # cached diagonal, or into the next operator, shows
    rng = np.random.default_rng(100 + width)
    n = 30
    T = _rows_with_diagonals(rng, n, width)
    d = T.diagonal()
    cancelling = -d[5]  # row 5's diagonal entry cancels under this shift
    masks = [np.ones(n, dtype=bool), np.zeros(n, dtype=bool)]
    for p in (0.9, 0.6, 0.3):
        masks += [rng.random(n) < p, _drops_first_neighbours(rng, T, p)]
    masks += [np.arange(n) >= 6, np.arange(n) == 5, np.arange(n) < 2]
    for mask in masks + masks[::-1]:
        for shift in (0.0, 1.0, cancelling, 1.0, 0.0):
            x = _vector_with_zeros(rng, int(mask.sum()))
            op = _assert_active_operator_bits(T, mask, shift, x)
            unshiftable = (T.diagonal_slots() < 0) | (d == -shift)
            falls_back = shift != 0.0 and bool((mask & unshiftable).any())
            assert isinstance(op, SparseMatrix) == falls_back
    assert T.diagonal() is d


def test_active_operator_validates_inputs():
    m = csr_from_dense(np.eye(2))
    with pytest.raises(DimensionError):
        active_operator(m, np.zeros(3, dtype=bool))
    rect = csr_from_triplets([(0, 0, 1.0)], 2, 3)
    with pytest.raises(DimensionError):
        active_operator(rect, np.zeros(2, dtype=bool))
