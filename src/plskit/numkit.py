"""Sparse CSR matrices and validated vectors.

Each outer solver step needs the principal submatrix of T on the active
set (with a unit shift on its diagonal for the parabolic form). The
solver gets it from `active_operator`, which gathers the active rows of
T's CSR arrays straight into a padded fixed-width (ELL) layout in
O(width k): no CSR slice per step. matprops' Krylov solves take their
slices from it too. `active_operator` is the only place a shift is
applied. `principal_submatrix` slices T into CSR, unshifted, in one pass
over the stored entries, for dense solves and for the operator's two
fallbacks, which add the shift with `add_diagonal`.

CSR is the storage, and products are vectorized numpy. A CSR product is
a gather, a multiply and one segmented sum (`np.add.reduceat`). The ELL
layout is a pair of (r, n) arrays of values and columns, r the longest
row, with padding that reads -0.0 (or +0.0 for an empty row). It stores
each row's entries 1..r-1 and then entry 0, so its product is a gather,
a multiply and one ordered reduce over the r layout rows: the ordered
sum of the rest plus the first entry, which is the order `reduceat`
adds a row of at most 8 entries in. So both kernels give the same bits,
signed zeros included; this is checked on numpy 2.4 only. `EllOperator`
is the only holder of the layout: a slice with a row longer than 8
stays on CSR, as do T itself, every `SparseMatrix` and every one-shot
product (`spmv`). `reused_product` is the only way a step operator is
applied: a Krylov loop runs the operator's kernel on reused buffers
through it, as one closure over bound take, multiply and add.reduce,
so each product runs one Python frame, and the operator has no product
method of its own.

A matrix caches what it finds about itself by one rule: each item is
made by `_cached`, once, on first use, on the matrix it describes, and
read-only; none is keyed by a caller's argument, replaced or handed to
another matrix. The items are its symmetry, irreducibility and
finiteness, and O(n) data about its rows (the diagonal's slots and
values, whether a row is empty, the row sums and absolute row sums). It
never caches a layout: a step's layout is O(width k), and a layout
cached on T cost too much peak memory. So each step's gather reads its
diagonal from the matrix instead of finding it again, and tells from it
whether a shift can land there; each CSR product knows whether its rows
need the empty-row path, check_t2 reads the row sums that check_t1
made, and the solvers and the residual and LCP checks of one matrix
scan its entries for inf and NaN once between them. Row lengths are not
cached: a gather takes its active rows' lengths from two takes of the
row offsets. A copy made by `scaled` finds its own facts.

A^T is built by one stable argsort of the column indices, which keeps
each column's rows in increasing order, so its rows come out canonical
with no (row, column) sort. The symmetry test takes the same argsort
but builds no A^T: it compares column counts with row lengths, A's
values with their column order, and each sorted entry's position with
the range of row offsets its column names, so its scratch is the order
and one gather at a time, not A^T's three arrays. Irreducibility is a
one-pass certificate, else a breadth-first search that reads each
frontier's columns straight from the CSR arrays, run on A and on A^T; a
symmetric matrix needs the first search only. transpose() serves that
second search and check_t2's left null vector.
"""

import warnings

import numpy as np

BACKEND = "numpy"

_INDEX_DTYPE = np.int64  # must hold n up to 1e6 and nnz well beyond
# reduceat adds a row's first entry to the sum of the rest, and that sum
# runs in order while it has fewer than 8 terms
_ELL_MAX_WIDTH = 8
# what padding columns n and n+1 read: 0 * -0.0 = -0.0 leaves every sum
# as it is, and an empty row's 0 * 0.0 = 0.0 makes it sum to 0.0
_ELL_PAD = np.array([-0.0, 0.0])
# by layout width w, the entry of a row that each layout row holds:
# entry i + 1 in layout row i, and entry 0 in the last
_ELL_SLOTS = [None] + [(np.arange(1, w + 1) % w)[:, None]
                       for w in range(1, _ELL_MAX_WIDTH + 1)]


class DimensionError(ValueError):
    """Operand dimensions do not line up."""


def as_vector(values):
    """Return values as a float64 array, rejecting NaN/Inf entries."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def operands(matrix, *vectors):
    """The vectors as float64 arrays, once the matrix is found square and
    finite and each vector finite and of its dimension: the operand check
    of every solve, of residual_nonsmooth and lcp_check, of the oracle
    and of matprops' checks. Whether every entry of the matrix is finite
    is found once per matrix."""
    if matrix.n_rows != matrix.n_cols:
        raise DimensionError(f"matrix is {matrix.shape}, expected square")
    if not matrix._cached("finite", lambda: bool(np.isfinite(matrix.values).all())):
        raise ValueError("matrix entries must be finite")
    vectors = [as_vector(v) for v in vectors]
    if any(v.size != matrix.n_rows for v in vectors):
        raise DimensionError("operand lengths must match the matrix")
    return vectors


class SparseMatrix:
    """Compressed-row matrix with sorted, duplicate-free, zero-free rows.

    Treated as immutable after construction; all mutating-style operations
    return new instances. What it finds about itself is cached on it (see
    _cached), so it must not be changed in place.
    """

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=_INDEX_DTYPE)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=_INDEX_DTYPE)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._cache = {}  # see _cached

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return self.values.size

    def matvec(self, x):
        return spmv(self, x)

    def transpose(self):
        """A^T, built anew on each call."""
        # a stable sort by column keeps each column's rows in increasing
        # order, so the entries come out as canonical rows of A^T
        order = np.argsort(self.col_indices, kind="stable")
        row_offsets = np.zeros(self.n_cols + 1, dtype=_INDEX_DTYPE)
        np.cumsum(np.bincount(self.col_indices, minlength=self.n_cols),
                  out=row_offsets[1:])
        return SparseMatrix(self.n_cols, self.n_rows, row_offsets,
                            self.row_indices()[order], self.values[order])

    def _cached(self, key, compute):
        """compute(), made once per matrix and kept under key: a fact about
        the matrix or O(n) data about its rows, never a layout. Arrays are
        made read-only, since every caller shares them. This is the only
        place an item is put in the cache."""
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._cache[key] = value
            return value

    def is_symmetric(self):
        """Exact test A == A^T, made once per matrix, without building A^T.

        Rows are canonical, so A^T must have A's arrays: each column
        holds as many entries as its row, and the stable column order
        that transpose() would read A^T's rows from puts, at each
        position e of column c_e's run, an entry of A's value at e that
        lies in row c_e, that is at a position in [row_offsets[c_e],
        row_offsets[c_e + 1]).
        """
        def test():
            offsets, cols = self.row_offsets, self.col_indices
            if not np.array_equal(np.bincount(cols, minlength=self.n_cols),
                                  np.diff(offsets)):
                return False
            order = np.argsort(cols, kind="stable")
            return bool(np.array_equal(self.values.take(order), self.values)
                        and (offsets.take(cols) <= order).all()
                        and (order < offsets[1:].take(cols)).all())
        return self._cached("symmetric", test)

    def is_irreducible(self):
        """Whether the directed pattern is strongly connected, found once
        per matrix. _links_every_node_to_0 proves it in one pass over the
        stored entries, with no search and no transpose; every 5-point
        grid matrix passes. Where it does not, node 0 must reach every
        node along the rows of A and, unless A is symmetric, along the
        rows of A^T."""
        if self.n_rows != self.n_cols:
            raise DimensionError(f"matrix is {self.shape}, expected square")
        return self._cached("irreducible", lambda: _links_every_node_to_0(self) or (
            _reaches_all(self)
            and (self.is_symmetric() or _reaches_all(self.transpose()))))

    def row_indices(self):
        """The row of each stored entry."""
        return np.repeat(np.arange(self.n_rows, dtype=_INDEX_DTYPE),
                         np.diff(self.row_offsets))

    def _nonempty_rows(self):
        """Which rows have a stored entry, or None when every row has one."""
        def find():
            nonempty = np.diff(self.row_offsets) > 0
            return None if nonempty.all() else nonempty
        return self._cached("nonempty_rows", find)

    def diagonal_slots(self):
        """Position of each row's diagonal entry among its stored entries,
        -1 where it has none."""
        def find():
            rows = self.row_indices()
            on_diag = rows == self.col_indices
            slots = np.full(self.n_rows, -1, dtype=_INDEX_DTYPE)
            slots[rows[on_diag]] = (np.flatnonzero(on_diag)
                                    - self.row_offsets[rows[on_diag]])
            return slots
        return self._cached("diagonal_slots", find)

    def diagonal(self):
        """The diagonal, 0.0 where an entry is not stored."""
        def read():
            n = min(self.n_rows, self.n_cols)
            slots = self.diagonal_slots()[:n]
            stored = slots >= 0
            d = np.zeros(n)
            d[stored] = self.values[self.row_offsets[:n][stored] + slots[stored]]
            return d
        return self._cached("diagonal", read)

    def scaled(self, s):
        """Return s * A (same sparsity; s must be nonzero to keep it exact).
        The copy finds its own facts, as every matrix does."""
        return SparseMatrix(self.n_rows, self.n_cols, self.row_offsets,
                            self.col_indices, self.values * float(s))

    def add_diagonal(self, d):
        """Return A + diag(d); d may be a scalar or a vector."""
        n = min(self.n_rows, self.n_cols)
        d = np.broadcast_to(np.asarray(d, dtype=np.float64), (n,))
        idx = np.arange(n, dtype=_INDEX_DTYPE)
        return _csr_from_arrays(
            np.concatenate([self.row_indices(), idx]),
            np.concatenate([self.col_indices, idx]),
            np.concatenate([self.values, d]),
            self.n_rows,
            self.n_cols,
        )

    def row_sums(self):
        """sum_j A_ij for each row i, made once per matrix: the bits of
        spmv(A, ones), as 1.0 * v == v."""
        return self._cached("row_sums", lambda: _row_sums(self.values, self))

    def abs_row_sums(self):
        """sum_j |A_ij| for each row i, made once per matrix."""
        return self._cached("abs_row_sums",
                            lambda: _row_sums(np.abs(self.values), self))

    def norm_inf(self):
        if self.nnz == 0:
            return 0.0
        return float(np.max(self.abs_row_sums()))

    def to_dense(self):
        dense = np.zeros((self.n_rows, self.n_cols))
        dense[self.row_indices(), self.col_indices] = self.values
        return dense


def _links_every_node_to_0(matrix):
    """Whether every node i >= 1 of a square matrix has a stored entry
    (i, j) with j < i and one (r, i) with r < i. Then, by induction on i,
    every node reaches node 0 along the rows of A and node 0 reaches every
    node, so the pattern is strongly connected. The converse fails (the
    cycle 0 -> 2 -> 1 -> 0 is strongly connected with no entry (0, 1)),
    so a False asks for the search. True for n <= 1.
    """
    n = matrix.n_rows
    rows, cols = matrix.row_indices(), matrix.col_indices
    down = np.zeros(n, dtype=bool)
    up = np.zeros(n, dtype=bool)
    down[rows[cols < rows]] = True
    up[cols[cols > rows]] = True
    return bool(down[1:].all() and up[1:].all())


def _reaches_all(matrix):
    """Whether node 0 reaches every node along the rows of a nonempty
    square matrix.

    Breadth-first, one level at a time: the frontier's rows are read
    straight from the CSR arrays, each entry's position being its row's
    start plus its place in that row. A stamp array keeps one copy of each
    unseen node a level reaches: stamp[r] = position, then keep the
    position stamp[r] names.
    """
    n = matrix.n_rows
    offsets, columns = matrix.row_offsets, matrix.col_indices
    seen = np.arange(n) == 0
    stamp = np.empty(n, dtype=_INDEX_DTYPE)
    frontier = np.zeros(1, dtype=_INDEX_DTYPE)
    while frontier.size:
        starts = offsets[frontier]
        lengths = offsets[frontier + 1] - starts
        ends = np.cumsum(lengths)  # where each row's run ends in the level
        reached = columns[np.arange(ends[-1])
                          + np.repeat(starts - (ends - lengths), lengths)]
        reached = reached[~seen[reached]]
        position = np.arange(reached.size)
        stamp[reached] = position
        frontier = reached[stamp[reached] == position]
        seen[frontier] = True
    return bool(seen.all())


def _csr_from_arrays(rows, cols, vals, n_rows, n_cols):
    rows = np.asarray(rows, dtype=_INDEX_DTYPE)
    cols = np.asarray(cols, dtype=_INDEX_DTYPE)
    vals = np.asarray(vals, dtype=np.float64)
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise IndexError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise IndexError("column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        # sum duplicates: first entry of each (row, col) run keeps the sum
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(first)
        summed = np.add.reduceat(vals, starts)
        rows, cols, vals = rows[starts], cols[starts], summed
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    counts = np.bincount(rows, minlength=n_rows)
    row_offsets = np.zeros(n_rows + 1, dtype=_INDEX_DTYPE)
    np.cumsum(counts, out=row_offsets[1:])
    return SparseMatrix(n_rows, n_cols, row_offsets, cols, vals)


def csr_from_triplets(triplets, n_rows, n_cols):
    """Build a SparseMatrix from (row, col, value) entries.

    Duplicates are summed, rows sorted by column, and exact zeros dropped.
    Out-of-range indices raise IndexError.
    """
    triplets = list(triplets)
    if triplets:
        rows, cols, vals = zip(*triplets)
    else:
        rows, cols, vals = (), (), ()
    return _csr_from_arrays(rows, cols, vals, int(n_rows), int(n_cols))


def _operand(matrix, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (matrix.n_cols,):
        raise DimensionError(
            f"matrix is {matrix.shape}, vector has shape {x.shape}"
        )
    return x


def spmv(matrix, x):
    """Sparse matrix-vector product in row order."""
    prod = _operand(matrix, x).take(matrix.col_indices)
    prod *= matrix.values
    return _row_sums(prod, matrix)


def reused_product(op, n):
    """(v, apply) for the many products of one Krylov solve: fill the
    length-n vector v, and apply() returns op v in a buffer that the next
    call overwrites. An EllOperator keeps v inside its padded direction
    vector (v, -0.0, 0.0) and runs its kernel on reused scratch, in one
    Python frame over bound methods; any other operator, such as a CSR
    slice, takes op.matvec(v). This is the only way a step operator is
    applied."""
    if not isinstance(op, EllOperator):
        v = np.empty(n)
        return v, lambda: op.matvec(v)
    values, cols = op._values, op._cols
    padded = np.concatenate((np.empty(n), _ELL_PAD))
    prod, out = np.empty(values.shape), np.empty(n)
    take, multiply, reduce = padded.take, np.multiply, np.add.reduce

    def apply():
        """out = A x for A in the ELL layout (values, cols).

        The layout rows in order from -0.0: the rest of each row, then its
        first entry, which the last layout row holds. That is reduceat's
        order for rows of at most 8 entries, as s + p0 == p0 + s bit for
        bit."""
        take(cols, mode="wrap", out=prod)  # "wrap" writes out unbuffered
        multiply(prod, values, out=prod)
        return reduce(prod, axis=0, initial=-0.0, out=out)

    return padded[:n], apply


def _row_sums(prod, matrix):
    """The sum of each row's run of prod, a value per stored entry of
    matrix."""
    # reduceat cannot start a segment at the end of prod, and it gives an
    # empty row the entry at its start, so empty rows are summed apart
    starts = matrix.row_offsets[:-1]
    nonempty = matrix._nonempty_rows()
    if nonempty is None:
        return np.add.reduceat(prod, starts)
    out = np.zeros(starts.size)
    out[nonempty] = np.add.reduceat(prod, starts[nonempty])
    return out


class EllOperator:
    """A square operator held only in the ELL layout, as active_operator
    gathers it: its diagonal() for Jacobi, and its products by the ELL
    kernel, which only reused_product runs. That is all a Krylov solve
    asks of it."""

    def __init__(self, values, cols, diagonal):
        self.n_rows = self.n_cols = diagonal.size
        self.shape = (self.n_rows, self.n_cols)
        self._values, self._cols = values, cols
        self._diagonal = diagonal

    def diagonal(self):
        return self._diagonal


def active_operator(matrix, mask, shift=0.0):
    """A[mask][:, mask] + shift I as an operator for a Krylov solve, with
    the bits of the CSR slice principal_submatrix(A, mask) + shift I in
    every product.

    The active rows are gathered from A's CSR arrays straight into the
    ELL layout of the slice, in O(width k) (see _ell_slice). The Jacobi
    diagonal is read from A's cached diagonal. No CSR slice is built and
    A keeps no layout. A slice of a row longer than _ELL_MAX_WIDTH, and a
    shift where an active row's diagonal reads 0.0 or -shift (a missing,
    zero or cancelling entry), return principal_submatrix's CSR slice
    instead, with the shift added by add_diagonal.
    """
    mask = np.asarray(mask, dtype=bool)
    if matrix.n_rows != matrix.n_cols or mask.shape != (matrix.n_rows,):
        raise DimensionError("need a square matrix and a mask of its dimension")
    sliced = _ell_slice(matrix, mask, shift)
    if sliced is None:
        sub = principal_submatrix(matrix, mask)
        return sub.add_diagonal(shift) if shift else sub
    return EllOperator(*sliced)


def _ell_slice(matrix, mask, shift):
    """(values, cols, diagonal) of active_operator's slice, or None for a
    fallback: a row longer than _ELL_MAX_WIDTH, or a shift that a row's
    diagonal entry cannot take in place, since it reads 0.0 (0.0 is also
    what a missing one reads) or -shift.

    Layout row i holds each row's entry i + 1, and the last layout row its
    entry 0. Column active[i] becomes i. A slot past the end of its row,
    and an entry in an inactive column, read the -0.0 pad k = active.size
    with value 0.0. The layout is built straight in (width, k) order from
    the CSR arrays, with no (k, width) temporaries. The diagonal is read
    from the matrix's own, and a shift is added to it and put where a
    column is its own row.

    The kernel adds a row's slot 0, the last layout row, to the ordered
    sum of the others, as reduceat adds its first entry. A pad in another
    slot leaves that sum as it is, because s + (-0.0) == s; one in slot 0
    would put the first entry into the ordered sum. So the first kept
    entry of a row whose slot 0 is a pad moves into slot 0, and a row
    with no kept entry points slot 0 at the +0.0 pad k + 1: it sums to
    -0.0 + 0 * 0.0 = 0.0, as the CSR kernel gives it."""
    active = np.flatnonzero(mask)
    k = active.size
    starts = matrix.row_offsets.take(active)
    lengths = matrix.row_offsets.take(active + 1) - starts
    width = int(lengths.max(initial=0))
    if width > _ELL_MAX_WIDTH:
        return None
    # at least one layout row, where an empty row reads the +0.0 pad
    slot = _ELL_SLOTS[max(width, 1)]
    diagonal = matrix.diagonal().take(active)
    if shift != 0.0 and ((diagonal == 0.0) | (diagonal == -shift)).any():
        return None
    if matrix.nnz == 0:
        return np.zeros((slot.size, k)), np.full((slot.size, k), k + 1), diagonal
    order = np.arange(k)
    new_index = np.full(matrix.n_cols + 1, k)
    new_index[active] = order
    # a slot past the end of its row reads some other entry (or wraps
    # around), which the pad replaces
    entry = starts + slot
    raw = matrix.col_indices.take(entry, mode="wrap")
    np.putmask(raw, slot >= lengths, matrix.n_cols)
    cols = new_index.take(raw)
    pads = cols == k
    values = matrix.values.take(entry, mode="wrap")
    np.putmask(values, pads, 0.0)
    if shift != 0.0:
        diagonal += shift
        # putmask repeats diagonal along each layout row, so row i's
        # diagonal entry takes diagonal[i]
        np.putmask(values, cols == order, diagonal)
    rows = np.flatnonzero(pads[-1])
    first = pads.take(rows, axis=1).argmin(axis=0)  # 0 when none is kept
    first *= k
    first += rows  # the first kept entries' positions in the flat layout
    slot0_cols, slot0_values = cols[-1], values[-1]
    flat_cols, flat_values = cols.reshape(-1), values.reshape(-1)
    slot0_cols[rows], slot0_values[rows] = flat_cols[first], flat_values[first]
    flat_cols[first], flat_values[first] = k, 0.0
    np.putmask(slot0_cols, slot0_cols == k, k + 1)  # the rows with none kept
    return values, cols, diagonal


def principal_submatrix(matrix, mask):
    """Return A[mask][:, mask] in O(nnz).

    Rows and columns keep their relative order, so the slice is already
    sorted and duplicate-free. It carries no shift: active_operator adds
    one to the slice with add_diagonal.
    """
    mask = np.asarray(mask, dtype=bool)
    if matrix.n_rows != matrix.n_cols or mask.shape != (matrix.n_rows,):
        raise DimensionError("need a square matrix and a mask of its dimension")
    rows = matrix.row_indices()
    keep = mask[rows] & mask[matrix.col_indices]
    new_index = np.cumsum(mask, dtype=_INDEX_DTYPE) - 1
    k = int(mask.sum())
    row_offsets = np.zeros(k + 1, dtype=_INDEX_DTYPE)
    np.cumsum(np.bincount(new_index[rows[keep]], minlength=k), out=row_offsets[1:])
    return SparseMatrix(k, k, row_offsets, new_index[matrix.col_indices[keep]],
                        matrix.values[keep])


def load_matrix_market(path):
    """Read a Matrix Market coordinate file (real or integer; general or
    symmetric).

    A symmetric file stores the lower triangle; each entry below the
    diagonal is mirrored above it. A file with a zero dimension, whose
    entry count differs from its size line, with an index outside the
    declared shape, or with an entry above the diagonal in a symmetric
    file raises ValueError.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().lower().split()
        if (
            len(header) < 5
            or header[0] != "%%matrixmarket"
            or header[1] != "matrix"
            or header[2] != "coordinate"
        ):
            raise ValueError("not a Matrix Market coordinate file")
        if header[3] not in ("real", "integer"):
            raise ValueError(f"unsupported field type {header[3]!r}")
        symmetric = header[4] == "symmetric"
        if header[4] != "general" and not symmetric:
            raise ValueError(f"unsupported symmetry {header[4]!r}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        n_rows, n_cols, nnz = (int(tok) for tok in line.split())
        if n_rows == 0 or n_cols == 0:
            raise ValueError(f"matrix is {n_rows} x {n_cols}, with a zero dimension")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no entries
            entries = np.loadtxt(
                fh, dtype=[("i", _INDEX_DTYPE), ("j", _INDEX_DTYPE), ("v", np.float64)],
                comments="%", ndmin=1,
            )
    if entries.size != nnz:
        raise ValueError(f"size line declares {nnz} entries, file has {entries.size}")
    rows, cols, vals = entries["i"] - 1, entries["j"] - 1, entries["v"]
    if symmetric:
        if n_rows != n_cols:
            raise ValueError("a symmetric matrix must be square")
        if np.any(cols > rows):
            raise ValueError("a symmetric file stores only the lower triangle")
        lower = rows > cols
        rows, cols, vals = (
            np.concatenate([rows, cols[lower]]),
            np.concatenate([cols, rows[lower]]),
            np.concatenate([vals, vals[lower]]),
        )
    try:
        return _csr_from_arrays(rows, cols, vals, n_rows, n_cols)
    except IndexError as exc:
        raise ValueError(f"entry {exc}") from exc
