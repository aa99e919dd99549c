import warnings

import numpy as np
import pytest
from helpers import (
    csr_from_dense, path_laplacian, queue_is_connected, random_t1, random_t2,
)
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from plskit import check_t1, check_t2, classify_solvability, csr_from_triplets
from plskit import obstacle as obs
from plskit.matprops import (
    _DENSE_SOLVE_LIMIT,
    DISPROVEN,
    INCONCLUSIVE,
    FAMILY_ALONG_W,
    NO_SOLUTION,
    PROVEN,
    UNIQUE,
    InvalidNullVector,
)
from plskit import matprops, numkit
from plskit.numkit import DimensionError, SparseMatrix


def five_point_laplacian(n):
    h2 = float((n + 1) ** 2)
    trip = []
    for j in range(n):
        for i in range(n):
            k = j * n + i
            trip.append((k, k, 4.0 * h2))
            if i > 0:
                trip.append((k, k - 1, -h2))
            if i < n - 1:
                trip.append((k, k + 1, -h2))
            if j > 0:
                trip.append((k, k - n, -h2))
            if j < n - 1:
                trip.append((k, k + n, -h2))
    return csr_from_triplets(trip, n * n, n * n)


def grid_z_matrix(f):
    """rho(B) f I - B for the adjacency B of the 5 x 5 grid: a Z-matrix
    that is a nonsingular M-matrix exactly when f > 1."""
    b = 4.0 * np.eye(25) - five_point_laplacian(5).to_dense() / 36.0
    return f * np.linalg.eigvalsh(b).max() * np.eye(25) - b


def column_scaled(t):
    """T diag(s) for a seeded s in [0.5, 2]: nonsymmetric, same class."""
    s = np.random.default_rng(5).uniform(0.5, 2.0, t.n_cols)
    return SparseMatrix(t.n_rows, t.n_cols, t.row_offsets, t.col_indices,
                        t.values * s[t.col_indices]), s


def test_t1_proven_on_diagonally_dominant_z_matrix():
    for a in (np.array([[2.0, -1.0], [-1.0, 2.0]]), grid_z_matrix(2.0)):
        rep = check_t1(csr_from_dense(a))
        assert rep.t1_verdict == PROVEN
        assert rep.is_z_matrix and rep.is_irreducible
        assert rep.notes == ("irreducibly diagonally dominant",)


def test_t1_disproven_on_singular_laplacian():
    rep = check_t1(csr_from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]])))
    assert rep.t1_verdict == DISPROVEN
    assert rep.notes == ("singular: positive vector found in the null space",)


def test_t1_proven_on_five_point_laplacian():
    rep = check_t1(five_point_laplacian(5))
    assert rep.t1_verdict == PROVEN


def test_t1_disproven_on_positive_off_diagonal():
    rep = check_t1(csr_from_dense(np.array([[2.0, 1.0], [0.5, 2.0]])))
    assert rep.t1_verdict == DISPROVEN
    assert not rep.is_z_matrix


def test_t1_disproven_on_reducible_matrix():
    rep = check_t1(csr_from_dense(np.diag([2.0, 3.0])))
    assert rep.t1_verdict == DISPROVEN
    assert not rep.is_irreducible


def test_t1_uses_spectral_bound_not_row_dominance():
    # some rows are not diagonally dominant, yet rho(alpha I - T) < alpha,
    # which the positive solution of T x = 1 shows
    for a in (np.array([[1.0, -2.0], [-0.4, 1.0]]), grid_z_matrix(1.01),
              grid_z_matrix(1.1)):
        rep = check_t1(csr_from_dense(a))
        assert rep.t1_verdict == PROVEN
        assert rep.notes == ("T x > 0 for the positive solution x of T x = 1",)


def test_t1_disproven_when_spectral_radius_exceeds_alpha():
    for a in (np.array([[1.0, -2.0], [-2.0, 1.0]]), grid_z_matrix(0.5),
              grid_z_matrix(0.9), grid_z_matrix(0.99)):
        rep = check_t1(csr_from_dense(a))
        assert rep.t1_verdict == DISPROVEN
        assert rep.notes == ("spectral radius exceeds the diagonal bound",)


def test_t1_rejects_rectangular_input():
    with pytest.raises(DimensionError):
        check_t1(csr_from_triplets([(0, 0, 1.0)], 2, 3))


def test_t1_proven_implies_nonnegative_inverse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        t = random_t1(rng, n)
        assert check_t1(t).t1_verdict == PROVEN
        assert np.min(np.linalg.inv(t.to_dense())) >= -1e-10


@st.composite
def _irreducible_z_matrices(draw):
    """An n x n Z-matrix, n = 1..6, whose pattern holds a directed cycle
    through every node, each diagonal entry 0.5 to 1.5 times its row's
    off-diagonal sum, so both classes and both sides of dominance occur."""
    n = draw(st.integers(1, 6))
    weight = st.floats(0.1, 2.0)
    entry = st.one_of(st.just(0.0), st.just(0.0), weight)
    a = -np.array([[draw(entry) for _ in range(n)] for _ in range(n)])
    for i in range(n):
        a[i, (i + 1) % n] = -draw(weight)
    np.fill_diagonal(a, 0.0)
    factor = np.array([draw(st.floats(0.5, 1.5)) for _ in range(n)])
    np.fill_diagonal(a, np.maximum(-a.sum(axis=1), 1.0) * factor)
    return a


@settings(max_examples=200, deadline=None)
@given(_irreducible_z_matrices())
def test_t1_property_agrees_with_the_dense_inverse(a):
    # a Z-matrix is a nonsingular M-matrix iff its inverse is nonnegative;
    # the reference is trusted only on well-conditioned matrices
    assume(np.linalg.det(a) != 0.0 and np.linalg.cond(a) < 1e8)
    m_matrix = bool(np.linalg.inv(a).min() >= 0.0)
    rep = check_t1(csr_from_dense(a))
    event(f"M-matrix {m_matrix}: {rep.t1_verdict}")
    assert rep.t1_verdict in ((PROVEN if m_matrix else DISPROVEN), INCONCLUSIVE)


def _z_matrix_draw(rng):
    """One draw from the distribution of _irreducible_z_matrices, by numpy:
    an off-diagonal entry is a weight with probability 1/3."""
    n = int(rng.integers(1, 7))
    a = -rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 1 / 3)
    a[np.arange(n), (np.arange(n) + 1) % n] = -rng.uniform(0.1, 2.0, n)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, np.maximum(-a.sum(axis=1), 1.0)
                     * rng.uniform(0.5, 1.5, n))
    return a


def test_t1_perron_vector_settles_non_m_z_matrices(monkeypatch):
    # about 1 in 300 of these draws leaves T x = 1 short of a proof or a
    # disproof; the Perron vector of s I - T then disproves t1
    perron = []
    vector = matprops._perron_vector
    monkeypatch.setattr(matprops, "_perron_vector",
                        lambda t: perron.append(t.n_rows) or vector(t))
    rng = np.random.default_rng(1)
    verdicts = {True: set(), False: set()}
    for _ in range(2500):
        a = _z_matrix_draw(rng)
        if np.linalg.det(a) == 0.0 or np.linalg.cond(a) >= 1e8:
            continue
        m_matrix = bool(np.linalg.inv(a).min() >= 0.0)
        verdicts[m_matrix].add(check_t1(csr_from_dense(a)).t1_verdict)
    assert verdicts == {True: {PROVEN}, False: {DISPROVEN}}
    assert len(perron) >= 5


def test_t2_proven_on_path_laplacian():
    rep = check_t2(path_laplacian(2))
    assert rep.t2_verdict == PROVEN
    v = rep.left_null / np.linalg.norm(rep.left_null)
    w = rep.right_null / np.linalg.norm(rep.right_null)
    assert np.allclose(v, np.ones(2) / np.sqrt(2.0))
    assert np.allclose(w, np.ones(2) / np.sqrt(2.0))


def test_t2_null_vectors_are_flat_for_larger_paths():
    rep = check_t2(path_laplacian(8))
    assert rep.t2_verdict == PROVEN
    for vec in (rep.left_null, rep.right_null):
        ratio = vec / vec[0]
        assert np.allclose(ratio, np.ones(8), atol=1e-7)


def test_reducible_matrices_get_no_certificate():
    # each pattern is weakly but not strongly connected: node 2 reaches
    # nodes 0 and 1, but they do not reach it
    singular = csr_from_dense(np.array([[1.0, -1, 0], [-1, 1, 0], [0, -1, 2]]))
    assert np.linalg.det(singular.to_dense()) == 0.0
    rep = check_t1(singular)
    assert rep.t1_verdict == DISPROVEN
    assert not rep.is_irreducible
    assert rep.notes == ("matrix is reducible",)
    rep = check_t2(csr_from_dense(np.array([[1.0, -1, 0], [-1, 1, 0], [0, -1, 1]])))
    assert rep.t2_verdict == DISPROVEN
    assert not rep.is_irreducible


def test_t2_proven_on_random_nonsymmetric_family():
    rng = np.random.default_rng(3)
    for _ in range(300):
        t, w = random_t2(rng, int(rng.integers(2, 40)))
        rep = check_t2(t)
        assert rep.t2_verdict == PROVEN
        assert np.allclose(rep.right_null, w / w.max(), rtol=1e-8, atol=0)
        assert rep.left_null.min() > 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_t1_disproven_on_random_nonsymmetric_t2_family(seed):
    # singular, so T x = 1 has no solution; where the dense LU of T is
    # exactly singular, the node-deletion null vector disproves t1
    rng = np.random.default_rng(seed)
    exactly_singular = 0
    for _ in range(300):
        t, _ = random_t2(rng, int(rng.integers(2, 40)))
        rep = check_t1(t)
        assert rep.t1_verdict == DISPROVEN
        assert rep.notes == ("singular: positive vector found in the null space",)
        try:
            np.linalg.solve(t.to_dense(), np.ones(t.n_rows))
        except np.linalg.LinAlgError:
            exactly_singular += 1
    assert exactly_singular > 0


def _count_solves(monkeypatch):
    """The system sizes of every matprops._solve call from here on."""
    sizes = []
    solve = matprops._solve

    def counted(matrix, mask, rhs, abs_tol):
        sizes.append(rhs.size)
        return solve(matrix, mask, rhs, abs_tol)

    monkeypatch.setattr(matprops, "_solve", counted)
    return sizes


@pytest.mark.parametrize("n", [33, 200])
def test_t2_proven_on_column_scaled_neumann_matrix(n, monkeypatch):
    # nonsymmetric and above the dense limit, so Bi-CGSTAB finds w = 1/s,
    # up to the largest table size; T diag(s) keeps T^T 1 = 0, so v = 1
    # passes on the row sums of T^T with no solve
    scaled, s = column_scaled(
        obs.assemble_elliptic(obs.problem_spec("tent-neumann"), n).T)
    assert scaled.n_rows > _DENSE_SOLVE_LIMIT and not scaled.is_symmetric()
    solves = _count_solves(monkeypatch)
    rep = check_t2(scaled)
    assert rep.t2_verdict == PROVEN
    assert np.allclose(rep.right_null, (1 / s) / (1 / s).max(), rtol=1e-8, atol=0)
    assert np.array_equal(rep.left_null, np.ones(scaled.n_rows))
    assert solves == [scaled.n_rows - 1]


@pytest.mark.parametrize("name, verdict", [
    ("tent", PROVEN), ("torsion", PROVEN), ("tent-neumann", DISPROVEN),
])
def test_t1_on_column_scaled_matrix_above_the_dense_limit(name, verdict):
    # nonsymmetric, with row sums of either sign, and n = 1089, so T x = 1
    # is solved by Bi-CGSTAB; on the singular one it fails, without
    # overflow, and the node-deletion null vector disproves t1
    scaled, _ = column_scaled(obs.assemble_elliptic(obs.problem_spec(name), 33).T)
    assert scaled.n_rows > _DENSE_SOLVE_LIMIT
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert check_t1(scaled).t1_verdict == verdict


def test_t2_disproven_on_nonsingular_matrix():
    rep = check_t2(csr_from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]])))
    assert rep.t2_verdict == DISPROVEN
    # diagonal dominance settles it before any null-vector solve, up to the
    # largest table size
    for name in ("tent", "torsion"):
        rep = check_t2(obs.assemble_elliptic(obs.problem_spec(name), 200).T)
        assert rep.t2_verdict == DISPROVEN
        assert rep.notes == ("nonsingular: irreducibly diagonally dominant",)


def test_t2_proven_implies_t1_after_diagonal_bump():
    rng = np.random.default_rng(12)
    for n in (3, 6, 10):
        lap = path_laplacian(n)
        assert check_t2(lap).t2_verdict == PROVEN
        bump = rng.random(n) + 1e-3
        assert check_t1(lap.add_diagonal(bump)).t1_verdict == PROVEN


def test_classify_solvability_trichotomy():
    v = np.array([1.0, 1.0])
    assert classify_solvability(v, np.array([-1.0, -1.0])).verdict == UNIQUE
    assert classify_solvability(v, np.array([-1.0, -1.0])).vtb == -2.0
    assert (
        classify_solvability(v, np.array([1.0, -1.0])).verdict == FAMILY_ALONG_W
    )
    assert classify_solvability(v, np.array([1.0, 1.0])).verdict == NO_SOLUTION


def test_classify_solvability_tolerance_band():
    v = np.ones(4)
    b = np.array([1.0, -1.0, 1.0, -1.0]) + 1e-14
    assert classify_solvability(v, b).verdict == FAMILY_ALONG_W
    assert classify_solvability(v, b, class_tol=1e-16).verdict == NO_SOLUTION


def test_classify_solvability_rejects_nonpositive_v():
    with pytest.raises(InvalidNullVector):
        classify_solvability(np.array([1.0, 0.0]), np.ones(2))
    with pytest.raises(InvalidNullVector):
        classify_solvability(np.array([1.0, -1.0]), np.ones(2))


def _pattern(n, edges):
    return csr_from_triplets([(i, j, -1.0) for i, j in edges], n, n)


def _random_edges(rng, nodes, count):
    return list(zip(rng.choice(nodes, count), rng.choice(nodes, count)))


def test_is_connected_matches_the_queue_search(monkeypatch):
    rng = np.random.default_rng(7)
    cases = [_pattern(1, [(0, 0)]), _pattern(1, []), _pattern(3, [])]
    for _ in range(40):
        n = int(rng.integers(2, 40))
        order = rng.permutation(n)
        # one-way chain through every node, closed into a directed cycle,
        # then with one link cut
        chain = list(zip(order[:-1], order[1:]))
        cases.append(_pattern(n, chain))
        cases.append(_pattern(n, chain + [(order[-1], order[0])]))
        cut = int(rng.integers(0, n - 1))
        cases.append(_pattern(n, chain[:cut] + chain[cut + 1:]))
        # two blocks: disconnected, then joined by a single one-way edge
        split = int(rng.integers(1, n))
        blocks = (_random_edges(rng, order[:split], 2 * split)
                  + _random_edges(rng, order[split:], 2 * (n - split)))
        cases.append(_pattern(n, blocks))
        cases.append(_pattern(n, blocks + [(order[-1], order[0])]))
        # sparse random patterns leave some rows (and columns) empty
        cases.append(_pattern(n, _random_edges(rng, np.arange(n), n // 2 + 1)))
        # a hub row or column far longer than the mean row: one way, both
        # ways, and both ways with one spoke cut
        hub = [(order[0], k) for k in order[1:]]
        back = [(k, order[0]) for k in order[1:]]
        cases.append(_pattern(n, hub))
        cases.append(_pattern(n, hub + back))
        cases.append(_pattern(n, hub[1:] + back))
    # patterns equal to their transpose's, with values that are not: the
    # column-scaled Neumann matrix, and random symmetric patterns
    for name in ("tent-neumann", "torsion-neumann"):
        t = obs.assemble_elliptic(obs.problem_spec(name), 7).T
        cases.append(column_scaled(t)[0])
    for _ in range(20):
        n = int(rng.integers(2, 40))
        edges = _random_edges(rng, np.arange(n), n)
        edges += [(j, i) for i, j in edges]
        cases.append(csr_from_triplets(
            [(i, j, -rng.uniform(0.5, 2.0)) for i, j in edges], n, n))
    verdicts = [m.is_irreducible() for m in cases]
    assert verdicts == [queue_is_connected(m) for m in cases]
    assert 0 < sum(verdicts) < len(verdicts)
    assert verdicts[:3] == [True, True, False]
    both_searches = [m for m in cases[-22:] if not m.is_symmetric()]
    assert (len(both_searches) > 10
            and 0 < sum(m.is_irreducible() for m in both_searches))
    # frontiers of hundreds of nodes: the tent-neumann N = 25 grid
    # relabelled so the one-pass certificate fails, which is symmetric and
    # needs one search; its column-scaled copy, whose values are not, and
    # which needs both; and the grid with one row emptied, which is
    # reducible, as only the search along A^T finds
    shuffled = _permuted(
        obs.assemble_elliptic(obs.problem_spec("tent-neumann"), 25).T, 4)
    rows = shuffled.row_indices()
    keep = rows != 300
    emptied = csr_from_triplets(
        zip(rows[keep], shuffled.col_indices[keep], shuffled.values[keep]),
        625, 625)
    large = [shuffled, column_scaled(shuffled)[0], emptied]
    searches = _count_searches(monkeypatch)
    assert not any(numkit._links_every_node_to_0(m) for m in large)
    assert [m.is_irreducible() for m in large] == [True, True, False]
    assert [queue_is_connected(m) for m in large] == [True, True, False]
    assert searches == [625] * 5


def _count_searches(monkeypatch):
    searches = []
    search = numkit._reaches_all

    def counted(matrix):
        searches.append(matrix.n_rows)
        return search(matrix)

    monkeypatch.setattr(numkit, "_reaches_all", counted)
    return searches


def _permuted(t, seed):
    """P T P^T for a seeded permutation P: the same class, relabelled."""
    p = np.random.default_rng(seed).permutation(t.n_rows)
    new = np.empty_like(p)
    new[p] = np.arange(p.size)
    return csr_from_triplets(
        zip(new[t.row_indices()], new[t.col_indices], t.values),
        t.n_rows, t.n_cols)


def test_irreducibility_is_searched_once_per_matrix(monkeypatch):
    # check_t1 is not Proven on the singular Neumann matrix, so the check
    # flow runs check_t2 on it too. In grid order every node has a
    # neighbour before it, which certifies the pattern with no search;
    # relabelled at random it does not, and it is symmetric, so one search
    # from node 0 answers for both directions
    searches = _count_searches(monkeypatch)
    t = obs.assemble_elliptic(obs.problem_spec("tent-neumann"), 25).T
    assert check_t1(t).t1_verdict == DISPROVEN
    assert check_t2(t).t2_verdict == PROVEN
    assert searches == []
    shuffled = _permuted(t, 4)
    assert not numkit._links_every_node_to_0(shuffled)
    assert check_t1(shuffled).t1_verdict == DISPROVEN
    assert check_t2(shuffled).t2_verdict == PROVEN
    assert searches == [625]


def test_t1_on_a_dirichlet_grid_builds_no_transpose(monkeypatch):
    built = []
    transpose = SparseMatrix.transpose

    def counted(matrix):
        built.append(matrix.n_rows)
        return transpose(matrix)

    monkeypatch.setattr(SparseMatrix, "transpose", counted)
    searches = _count_searches(monkeypatch)
    rep = check_t1(obs.assemble_elliptic(obs.problem_spec("tent"), 25).T)
    assert rep.t1_verdict == PROVEN and rep.is_irreducible
    assert built == [] and searches == []


def test_one_half_of_the_certificate_proves_nothing():
    # i -> i - 1 gives every node i >= 1 an entry (i, j < i) but no entry
    # (r < i, i); its reverse the other way round. Both are reducible, as
    # are a cycle with one empty row and two nodes with no link
    n = 6
    down = _pattern(n, [(i, i - 1) for i in range(1, n)])
    up = _pattern(n, [(i - 1, i) for i in range(1, n)])
    ring = [(i, i - 1) for i in range(1, n)] + [(0, n - 1)]
    empty_row = _pattern(n, [(i, j) for i, j in ring if i != 3])
    for m in (down, up, empty_row, _pattern(2, [(0, 0), (1, 1)])):
        assert not numkit._links_every_node_to_0(m)
        assert m.is_irreducible() is False
        assert queue_is_connected(m) is False
    # rows and columns both ways certify; n = 1 holds vacuously
    both = _pattern(n, [(i, i - 1) for i in range(1, n)]
                    + [(i - 1, i) for i in range(1, n)])
    for m in (both, _pattern(1, []), _pattern(1, [(0, 0)])):
        assert numkit._links_every_node_to_0(m)
        assert m.is_irreducible() is True
        assert queue_is_connected(m) is True
    # the certificate is only sufficient: the cycle 0 -> 2 -> 1 -> 0 is
    # strongly connected, found by the search
    cycle = _pattern(3, [(0, 2), (2, 1), (1, 0)])
    assert not numkit._links_every_node_to_0(cycle)
    assert cycle.is_irreducible() is True


def test_t1_dominance_ignores_rounding_in_row_sums():
    # row sums of the singular Neumann Laplacians are rounding noise of
    # either sign; they must not pass as diagonal dominance, and T 1 ~ 0
    # disproves t1
    for n in (5, 25, 32, 50, 100, 200):
        for name in ("tent-neumann", "torsion-neumann"):
            rep = check_t1(obs.assemble_elliptic(obs.problem_spec(name), n).T)
            assert rep.t1_verdict == DISPROVEN
            assert rep.notes == ("singular: positive vector found in the null space",)
        for name in ("tent", "torsion"):
            rep = check_t1(obs.assemble_elliptic(obs.problem_spec(name), n).T)
            assert rep.t1_verdict == PROVEN
            # torsion rows sum to noise of either sign at N = 25 and 32, so
            # there it is proven by one solve of T x = 1 instead
            if name == "tent":
                assert rep.notes == ("irreducibly diagonally dominant",)
            else:
                assert len(rep.notes) == 1


def test_empty_matrix_gets_one_true_note():
    empty = csr_from_triplets([], 0, 0)
    rep = check_t1(empty)
    assert (rep.t1_verdict, rep.notes) == (DISPROVEN, ("empty matrix",))
    rep = check_t2(empty)
    assert (rep.t2_verdict, rep.notes) == (DISPROVEN, ("empty matrix",))


# every exit of check_t2 on a small matrix: (matrix, verdict, note, whether
# the null vectors are set)
_T2_EXITS = [
    ("empty", csr_from_triplets([], 0, 0), DISPROVEN, "empty matrix", False),
    ("positive off-diagonal", csr_from_dense([[1.0, 1.0], [-1.0, 1.0]]), DISPROVEN,
     "needs an irreducible Z-pattern", False),
    ("reducible", csr_from_dense([[1.0, -1.0], [0.0, 1.0]]), DISPROVEN,
     "needs an irreducible Z-pattern", False),
    # csr_from_dense drops zeros, so the stored zeros are put in by hand
    ("zero", SparseMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], np.zeros(4)),
     DISPROVEN, "zero matrix", False),
    ("dominant", csr_from_dense([[2.0, -1.0], [-1.0, 1.0]]), DISPROVEN,
     "nonsingular: irreducibly diagonally dominant", False),
    # T_{-0,-0} = [[1, -1], [-1, 1]] is exactly singular
    ("singular deletion",
     csr_from_dense([[1.0, -1.0, 0.0], [-1.0, 1.0, -1.0], [0.0, -1.0, 1.0]]),
     INCONCLUSIVE, "solve for the null vectors failed", False),
    # a nonsingular M-matrix whose first row sum is negative
    ("nonsingular", csr_from_dense([[1.0, -2.0], [-0.1, 1.0]]), DISPROVEN,
     "no null space found; matrix appears nonsingular", True),
    ("near-singular", csr_from_dense([[1.0 - 1e-6, -1.0], [-1.0, 1.0]]), INCONCLUSIVE,
     "null-space residual between the decision thresholds", True),
    # s I - B at the eigenvalue s = -1 of B = [[0, 1], [1, 0]], w = (1, -1)
    ("non-Perron", csr_from_dense([[-1.0, -1.0], [-1.0, -1.0]]), DISPROVEN,
     "null vector is not strictly positive", True),
    # w = (1, -1e-9)
    ("borderline", csr_from_dense([[-1e-9, -1.0], [-1.0, -1e9]]), INCONCLUSIVE,
     "null vector positivity is borderline", True),
    ("proven", csr_from_dense([[1.0, -1.0], [-2.0, 2.0]]), PROVEN,
     "positive null vectors, residual 0.0e+00 ||T||_inf <= threshold 1e-10",
     True),
]


@pytest.mark.parametrize("matrix, verdict, note, has_null",
                         [case[1:] for case in _T2_EXITS],
                         ids=[case[0] for case in _T2_EXITS])
def test_each_t2_exit_keeps_its_verdict_note_and_null_vectors(
        matrix, verdict, note, has_null):
    rep = check_t2(matrix)
    assert (rep.t2_verdict, rep.notes) == (verdict, (note,))
    assert (rep.right_null is not None, rep.left_null is not None) == (
        has_null, has_null)


@pytest.mark.parametrize("n", [25, 50])
@pytest.mark.parametrize("name", ["tent-neumann", "torsion-neumann"])
def test_t2_takes_null_vectors_of_ones_from_the_row_sums(name, n, monkeypatch):
    # T 1 = 0 to rounding on both Neumann grids, so w = v = 1 passes the
    # node-deletion tolerance with no solve, below the dense-solve limit
    # (n = 25) and above it (n = 50)
    t = obs.assemble_elliptic(obs.problem_spec(name), n).T
    assert (t.n_rows <= _DENSE_SOLVE_LIMIT) == (n == 25)
    solves = _count_solves(monkeypatch)
    rep = check_t2(t)
    assert rep.t2_verdict == PROVEN
    assert np.array_equal(rep.right_null, np.ones(t.n_rows))
    assert np.array_equal(rep.left_null, np.ones(t.n_rows))
    assert solves == []


def test_t2_solves_where_the_row_sums_do_not_vanish(monkeypatch):
    # T = A diag(s) has T (1/s) = 0 but T 1 != 0, and T^T 1 != 0 too
    t, w = random_t2(np.random.default_rng(1), 12)
    assert np.linalg.norm(t.row_sums()[1:]) > 1e-3
    assert np.linalg.norm(t.transpose().row_sums()[1:]) > 1e-3
    solves = _count_solves(monkeypatch)
    rep = check_t2(t)
    assert rep.t2_verdict == PROVEN
    assert np.allclose(rep.right_null, w / w.max(), rtol=1e-8, atol=0)
    assert solves == [11, 11]
