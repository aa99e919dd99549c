"""Finite-difference obstacle problems on rectangles.

Discretizes -Laplace(u) = f over the obstacle psi with the standard
5-point stencil on an N x N interior grid, eliminates the boundary
condition into the right-hand side, and hands the resulting piecewise
linear system in y = u - psi to the elliptic or parabolic solver, with
SolverOptions() unless the caller passes others. Every assembled matrix
is symmetric, so each Picard step solves T_AA (or I + T_AA) by CG,
Jacobi-preconditioned like every inner solve: Jacobi evens out the
smaller diagonal entries that the Neumann matrices carry at boundary
nodes, and on the Dirichlet matrices, whose diagonal is constant, it is
a uniform scaling.

Row k of the matrix holds its stencil in column order: k - N (-y),
k - 1 (-x), k, k + 1 (+x), k + N (+y), less the neighbours outside the
grid. Written row by row, that is already sorted CSR, so assembly needs
no sort of its entries.
"""

from dataclasses import dataclass, is_dataclass

import numpy as np

from .numkit import ELLIPTIC, PARABOLIC, SparseMatrix, spmv
from .pls import (
    PlsProblem,
    PlsSolution,
    SolverOptions,
    solve_elliptic_pls,
    solve_parabolic_pls,
)


def default_solver_options():
    """SolverOptions(), the options the reference counts K and the `bench`
    CSV were recorded with; the benchmark harness calls it by this name."""
    return SolverOptions()


DIRICHLET = "dirichlet"
NEUMANN = "neumann"

CORNER_AVERAGE = "average"
CORNER_XEDGE = "xedge"
CORNER_YEDGE = "yedge"

TENT = "tent"
TENT_NEUMANN = "tent-neumann"
TORSION = "torsion"
TORSION_NEUMANN = "torsion-neumann"

PROBLEM_NAMES = (TENT, TENT_NEUMANN, TORSION, TORSION_NEUMANN)


class GridError(ValueError):
    pass


@dataclass
class Grid2D:
    """Interior nodes of a rectangle, x fastest: node k = j*nx + i sits at
    (x0 + (i+1) dx, y0 + (j+1) dy)."""

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float
    y0: float

    @property
    def n(self):
        return self.nx * self.ny

    def node_xy(self, k):
        j, i = divmod(k, self.nx)
        return self.x0 + (i + 1) * self.dx, self.y0 + (j + 1) * self.dy

    def x_coords(self):
        return self.x0 + self.dx * np.arange(self.nx + 2)

    def y_coords(self):
        return self.y0 + self.dy * np.arange(self.ny + 2)


@dataclass
class ObstacleSpec:
    """One obstacle problem on a rectangle.

    `psi`, `f` and `flux` are called with numpy arrays x, y of node (or
    boundary point) coordinates and must work elementwise, e.g. with
    np.minimum and np.abs in place of min and abs. A scalar result is
    broadcast to every node, so a constant lambda is fine.
    """

    name: str
    domain: tuple  # (x0, x1, y0, y1)
    psi: object  # callable (x, y) -> obstacle height
    f: object  # callable (x, y) -> load
    bc_kind: str
    bc_value: float = 0.0  # Dirichlet value on the whole boundary
    flux: object = None  # Neumann: callable (x, y) -> outward normal derivative
    c: float | None = None


def _tent_psi(x, y):
    return np.minimum(1.0 - np.abs(x), 2.0 - np.abs(y))


def problem_spec(name, c=None):
    """Named benchmark instances; c is the constant load of the torsion
    family and must be finite and negative there."""
    if name == TENT:
        return ObstacleSpec(TENT, (-1.0, 1.0, -2.0, 2.0), _tent_psi,
                            lambda x, y: 0.0, DIRICHLET, bc_value=0.5)
    if name == TENT_NEUMANN:
        return ObstacleSpec(TENT_NEUMANN, (-1.0, 1.0, -2.0, 2.0), _tent_psi,
                            lambda x, y: -1.0, NEUMANN, flux=lambda x, y: 0.0)
    if name in (TORSION, TORSION_NEUMANN):
        if c is None:
            c = -20.0
        if not -np.inf < c < 0.0:
            raise ValueError("the torsion load constant must be finite and negative")

        def psi(x, y):
            return -np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))

        if name == TORSION:
            return ObstacleSpec(TORSION, (0.0, 1.0, 0.0, 1.0), psi,
                                lambda x, y, c=c: c, DIRICHLET, bc_value=0.0, c=c)
        return ObstacleSpec(TORSION_NEUMANN, (0.0, 1.0, 0.0, 1.0), psi,
                            lambda x, y, c=c: c, NEUMANN,
                            flux=lambda x, y: 1.0, c=c)
    raise ValueError(f"unknown problem {name!r}")


@dataclass
class DiscreteObstacle:
    spec: ObstacleSpec
    grid: Grid2D
    T: SparseMatrix
    f_vec: np.ndarray
    psi_vec: np.ndarray
    b: np.ndarray
    t2_data: tuple | None  # (v, w) for the Neumann (singular) matrices


# on the four benchmark problems at N = 25..100 the rounding noise in
# b = f - T psi stays below 5 ulps of its scale s_k, while every entry
# that is nonzero in exact arithmetic exceeds 3e11 ulps of it
_ZERO_ULPS = 16.0


def assemble_elliptic(spec, n):
    """Discrete negative Laplacian on the n x n interior grid of spec's
    rectangle, boundary terms folded into the right-hand side, and
    b = f - T psi for the reformulation in y = u - psi.

    Entries of b that are zero in exact arithmetic must come out exactly
    zero, since the first Picard step reads their signs. So b_k is set to
    0 when |b_k| <= 16 eps s_k, where s_k = |f_k| + sum_j |T_kj| |psi_j|
    is the rounding scale of the sum that forms b_k. The tent obstacle is
    linear across most stencils, so most of its b is such zeros.
    """
    if n < 2:
        raise GridError("grid needs at least 2 interior nodes per side")
    x0, x1, y0, y1 = spec.domain
    dx = (x1 - x0) / (n + 1)
    dy = (y1 - y0) / (n + 1)
    grid = Grid2D(n, n, dx, dy, x0, y0)
    cx = 1.0 / dx**2
    cy = 1.0 / dy**2
    neumann = spec.bc_kind == NEUMANN
    size = grid.n
    k = np.arange(size, dtype=np.int64)
    j, i = np.divmod(k, n)
    x = x0 + (i + 1) * dx
    y = y0 + (j + 1) * dy
    f_vec = _on_nodes(spec.f, x, y)
    psi_vec = _on_nodes(spec.psi, x, y)
    diag = np.full(size, 2.0 * cx + 2.0 * cy)
    # slots -y, -x, centre, +x, +y: row-major over the inside mask is CSR
    cols = k[:, None] + np.array([-n, -1, 0, 1, n])
    vals = np.tile([-cy, -cx, 0.0, -cx, -cy], (size, 1))
    inside = np.ones((size, 5), dtype=bool)
    lengths = np.full(size, 5, dtype=np.int64)
    # one direction at a time, in this order, so diag and f_vec round as a
    # node-by-node loop does; a Kronecker sum would round the Neumann
    # diagonal differently, and b's exact zeros depend on those bits
    # data that fold to inf or NaN are refused below, with no warning here
    with np.errstate(over="ignore", invalid="ignore"):
        for slot, di, dj, c in ((1, -1, 0, cx), (3, 1, 0, cx),
                                (0, 0, -1, cy), (4, 0, 1, cy)):
            ii, jj = i + di, j + dj
            inside[:, slot] = (0 <= ii) & (ii < n) & (0 <= jj) & (jj < n)
            out = ~inside[:, slot]
            lengths -= out
            if neumann:
                # ghost elimination u_B = u_adj + h g keeps T symmetric
                diag[out] -= c
                h = dx if di else dy
                bx = x[out] + di * dx if di else x[out]
                by = y[out] + dj * dy if dj else y[out]
                f_vec[out] += c * h * _on_nodes(spec.flux, bx, by)
            else:
                f_vec[out] += c * spec.bc_value
    if not (np.isfinite(f_vec).all() and np.isfinite(psi_vec).all()):
        raise ValueError("the load, its boundary terms and the obstacle must be "
                         "finite at every node")
    vals[:, 2] = diag
    row_offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_offsets[1:])
    T = SparseMatrix(size, size, row_offsets, cols[inside], vals[inside])
    b = f_vec - spmv(T, psi_vec)
    scale = np.abs(f_vec) + spmv(
        SparseMatrix(size, size, T.row_offsets, T.col_indices, np.abs(T.values)),
        np.abs(psi_vec),
    )
    b[np.abs(b) <= _ZERO_ULPS * np.finfo(np.float64).eps * scale] = 0.0
    t2_data = (np.ones(size), np.ones(size)) if neumann else None
    return DiscreteObstacle(spec, grid, T, f_vec, psi_vec, b, t2_data)


def _on_nodes(func, x, y):
    """func evaluated on the node arrays x, y as a fresh float64 array;
    a callable that returns a constant is broadcast to every node."""
    return np.array(np.broadcast_to(func(x, y), x.shape), dtype=np.float64)


def coincidence_set(u, psi, coin_tol=1e-8):
    """Boolean mask of nodes where the membrane sits on the obstacle."""
    u = np.asarray(u, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    scale = 1.0 + (float(np.abs(u).max()) if u.size else 0.0)
    return u - psi <= coin_tol * scale


@dataclass
class ObstacleSolution:
    disc: DiscreteObstacle
    u: np.ndarray
    coincidence: np.ndarray
    result: PlsSolution


def solve_obstacle(spec, n, opts=None, coin_tol=1e-8):
    """Assemble and solve the stationary problem; u = max{0,x} + psi."""
    opts = opts or SolverOptions()
    disc = assemble_elliptic(spec, n)
    problem = PlsProblem(disc.T, disc.b, kind=ELLIPTIC, t2_data=disc.t2_data)
    result = solve_elliptic_pls(problem, opts)
    u = result.y + disc.psi_vec
    return ObstacleSolution(disc, u, coincidence_set(u, disc.psi_vec, coin_tol), result)


@dataclass
class ParabolicRun:
    disc: DiscreteObstacle
    tau: float
    nu: int
    dt: float
    snapshots: list  # nu + 1 membrane states, the initial one first
    step_results: list  # nu PlsSolution records
    replayed_steps: int = 0  # the last steps, copied from a settled step


def run_parabolic(spec, n, tau, nu, opts=None):
    """Implicit Euler for the evolving membrane over the obstacle.

    Each of the nu steps of length dt = tau/nu solves
    (u' - psi) + dt T max{0, u' - psi} = (u - psi) + dt (f - T psi)
    starting from the membrane resting on the obstacle, and advances
    u <- max{0,x} + psi.

    Every step's Picard loop starts from an empty mask, so each K keeps
    the paper's meaning. Once the membrane settles, consecutive steps run
    through the same masks, so step j of one time step's loop starts its
    inner solve from the solution that step j of the time step before
    found on the same mask (the trail of solve_parabolic_pls), rather than
    from the current iterate. The trail holds one time step's (mask, x_A)
    entries at a time and ends with the run; no report keeps it. A solve
    whose carried start already meets the inner tolerance returns it bit
    for bit with 0 iterations. A wrong final iterate cannot pass the
    nonsmooth residual gate.

    A time step that returns its input state bit for bit (-0.0 is not
    0.0) with no inner iteration is settled: the next step has the same
    right-hand side and T_step, and finds the trail as this one left it,
    since each of its nonempty steps made a 0-iteration solve, which
    returns its start, and left that start in the entry. So every later
    step repeats it, and the run fills them with copies of its state and
    PlsSolution (see _fresh_copy), and calls the solver no more;
    replayed_steps counts the copies.

    All time steps share one T_step = dt T, so the row data it caches
    (see numkit) is found once per run; it keeps T's pattern facts.
    """
    if nu < 1:
        raise GridError("need at least one time step")
    if not 0.0 < tau < np.inf:
        raise GridError("the horizon must be positive and finite")
    opts = opts or SolverOptions()
    disc = assemble_elliptic(spec, n)
    dt = tau / nu
    T_step = disc.T.scaled(dt)
    u = disc.psi_vec.copy()  # so that snapshots[0] does not alias psi_vec
    snapshots = [u]
    step_results = []
    trail = []
    for _ in range(nu):
        b_step = (u - disc.psi_vec) + dt * disc.b
        problem = PlsProblem(T_step, b_step, kind=PARABOLIC)
        result = solve_parabolic_pls(problem, opts, trail=trail)
        state = result.y + disc.psi_vec
        snapshots.append(state)
        step_results.append(result)
        if _same_bits(state, u) and not any(
                st.iterations for st in result.report.inner_stats):
            break
        u = state
    replayed = nu - len(step_results)
    for _ in range(replayed):
        snapshots.append(state.copy())
        step_results.append(_fresh_copy(result))
    return ParabolicRun(disc, tau, nu, dt, snapshots, step_results, replayed)


# what a copy may share with its original, since nothing can change it
_IMMUTABLE = (int, float, str, bool, type(None), np.generic)


def _fresh_copy(value):
    """A copy of a step's record that shares no mutable object with it:
    every array and list in it is copied, and every dataclass with all of
    its fields. A value of any other kind raises TypeError rather than be
    shared. Unlike copy.deepcopy, it keeps no memo and dispatches on
    these few kinds alone, so a PlsSolution takes about a third of the
    time."""
    if isinstance(value, _IMMUTABLE):
        return value
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return [_fresh_copy(item) for item in value]
    if is_dataclass(value) and not isinstance(value, type):
        copied = object.__new__(type(value))
        copied.__dict__ = {name: _fresh_copy(item)
                           for name, item in vars(value).items()}
        return copied
    raise TypeError(f"no copy rule for {type(value).__name__}")


def _same_bits(a, b):
    """Whether two float arrays hold the same bytes: unlike np.array_equal,
    it tells -0.0 from 0.0."""
    return a.tobytes() == b.tobytes()


def full_grid_solution(disc, u, corner=CORNER_AVERAGE):
    """Membrane values on the full (n+2) x (n+2) grid including the
    reconstructed boundary ring: the Dirichlet datum, or the ghost formula
    u_B = u_adj + h g matching the Neumann elimination. Each corner is
    lifted from its neighbour on the x edge (along x, by dx) or on the y
    edge (along y, by dy), or is the mean of the two, by the corner rule."""
    if corner not in (CORNER_AVERAGE, CORNER_XEDGE, CORNER_YEDGE):
        raise ValueError(f"unknown corner rule {corner!r}")
    n = disc.grid.nx
    spec = disc.spec
    X, Y = np.meshgrid(disc.grid.x_coords(), disc.grid.y_coords())
    full = np.empty((n + 2, n + 2))  # [row = y index][col = x index]
    full[1:-1, 1:-1] = np.asarray(u, dtype=np.float64).reshape(n, n)

    def lift(rows, cols, adjacent, h):
        if spec.bc_kind == DIRICHLET:
            return spec.bc_value
        return adjacent + h * _on_nodes(spec.flux, X[rows, cols], Y[rows, cols])

    ends, inner = [0, n + 1], slice(1, -1)
    full[ends, inner] = lift(ends, inner, full[[1, n], inner], disc.grid.dy)
    full[inner, ends] = lift(inner, ends, full[inner, [1, n]], disc.grid.dx)
    rows, cols = np.array([0, 0, n + 1, n + 1]), np.array([0, n + 1, 0, n + 1])
    from_x = lift(rows, cols, full[rows, np.where(cols, n, 1)], disc.grid.dx)
    from_y = lift(rows, cols, full[np.where(rows, n, 1), cols], disc.grid.dy)
    full[rows, cols] = from_x if corner == CORNER_XEDGE else (
        from_y if corner == CORNER_YEDGE else 0.5 * (from_x + from_y))
    return full


def write_solution_csv(path, disc, u, coincidence, corner=CORNER_AVERAGE):
    """Write x,y,u,psi,active rows for the full grid, row-major in y then
    x, 17 significant digits."""
    n = disc.grid.nx
    X, Y = np.meshgrid(disc.grid.x_coords(), disc.grid.y_coords())
    full = full_grid_solution(disc, u, corner)
    act = np.zeros((n + 2, n + 2), dtype=int)
    act[1:-1, 1:-1] = np.asarray(coincidence, dtype=bool).reshape(n, n)
    columns = (X, Y, full, _on_nodes(disc.spec.psi, X, Y), act)
    with open(path, "w", newline="") as fh:
        fh.write("x,y,u,psi,active\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%d\n" % row
                      for row in zip(*(a.ravel().tolist() for a in columns)))
