import gc
import weakref

import numpy as np
import pytest
from helpers import csr_from_dense

from plskit import (
    DimensionError,
    csr_from_triplets,
    load_matrix_market,
    principal_submatrix,
    spmv,
)
from plskit.numkit import as_vector


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
    rng = np.random.default_rng(4)
    n = 30
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.2)
    x = rng.normal(size=n)
    assert np.allclose(spmv(csr_from_dense(a), x), a @ x)


def test_rectangular_and_empty_matrices():
    m = csr_from_triplets([], 3, 5)
    assert m.shape == (3, 5)
    assert np.array_equal(spmv(m, np.ones(5)), np.zeros(3))


def test_transpose_round_trip_and_cache():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 3))
    m = csr_from_dense(a)
    t = m.transpose()
    assert np.allclose(t.to_dense(), a.T)
    assert t.transpose() is m  # cached back-link


def test_transpose_cache_does_not_keep_the_matrix_alive():
    # A -> A^T is strong and A^T -> A weak, so no cycle is left for the
    # garbage collector: dropping A frees it at once
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


def test_as_vector_rejects_bad_input():
    with pytest.raises(DimensionError):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])


@pytest.mark.parametrize("kind", ["elliptic", "parabolic"])
def test_principal_submatrix_matches_dense_forms(kind):
    # the active block of (I - P + T P) is T_AA, that of (I + T P) is I + T_AA
    rng = np.random.default_rng(3)
    n = 8
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(a, [0.0, 0.0, 0.0, 0.0, 2.0, -1.0, 3.0, 4.0])
    m = csr_from_dense(a)
    shift = 0.0 if kind == "elliptic" else 1.0
    # rows 0-3 store no diagonal; the unit shift cancels entry (5, 5)
    masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool), np.arange(n) >= 4]
    masks += [(np.arange(n) >= 4) & (np.arange(n) != 5)]
    masks += [rng.random(n) < 0.5 for _ in range(5)]
    for mask in masks:
        p = np.diag(mask.astype(float))
        full = np.eye(n) - p + a @ p if kind == "elliptic" else np.eye(n) + a @ p
        sub = principal_submatrix(m, mask, shift)
        assert sub.shape == (mask.sum(), mask.sum())
        assert np.array_equal(sub.to_dense(), full[np.ix_(mask, mask)])
        # canonical rows: sorted, duplicate-free, zero-free
        for i in range(sub.n_rows):
            cols = sub.col_indices[sub.row_offsets[i]:sub.row_offsets[i + 1]]
            assert np.all(np.diff(cols) > 0)
        assert np.all(sub.values != 0.0)


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
        "%%MatrixMarket matrix coordinate real symmetric",
        "%%MatrixMarket matrix array real general",
    ):
        path = tmp_path / "bad.mtx"
        path.write_text(header + "\n1 1 1\n1 1 1.0\n")
        with pytest.raises(ValueError):
            load_matrix_market(path)
