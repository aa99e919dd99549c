"""Brute-force reference solver for small piecewise linear systems.

Enumerates all 2^n sign patterns in chunks of 4096 masks. Each chunk is
one stacked (k, n, n) array of masked matrices: patterns whose smallest
singular value falls below 1e-12 of their largest are singular, and the
rest are solved together by one batched LAPACK call. A candidate is kept
iff its signs reproduce its mask. Singular but consistent patterns
contribute one-parameter solution families with closed-form parameter
ranges. Exponential by design; guarded at n = 20.
"""

from dataclasses import dataclass

import numpy as np

from .numkit import ELLIPTIC, PARABOLIC, DimensionError, _require_finite

_MAX_N = 20
_SING_TOL = 1e-12  # smallest singular value relative to the largest
_CHUNK = 1 << 12  # masks per stack: 13 MB of doubles at n = 20


class TooLarge(ValueError):
    """Enumeration over 2^n patterns refused beyond n = 20."""


@dataclass
class Family:
    base: np.ndarray
    direction: np.ndarray
    alpha_min: float
    alpha_max: float


@dataclass
class OracleResult:
    point_solutions: list
    families: list
    patterns_tested: int


def _alpha_range(x0, d, bits):
    """Sign-consistency interval for x0 + alpha d under the given mask."""
    flat = d == 0.0
    if np.any(bits[flat] != (x0[flat] >= 0.0)):
        return None
    crossing = -x0[~flat] / d[~flat]
    # active entries need x0 + alpha d >= 0, inactive ones < 0
    below = bits[~flat] == (d[~flat] > 0.0)
    lo = float(crossing[below].max(initial=-np.inf))
    hi = float(crossing[~below].min(initial=np.inf))
    if lo >= hi:
        return None
    return lo, hi


def _singular_family(m, b, bits):
    u, s, vh = np.linalg.svd(m)
    if s[0] <= 0.0:
        return None
    null = s <= _SING_TOL * s[0]
    if null.sum() != 1:
        return None  # only one-parameter families are reported
    # consistency: b must lie in the range of m
    resid = u.T @ b
    if np.any(np.abs(resid[null]) > 1e-10 * (1.0 + np.abs(b).max())):
        return None
    x0 = vh.T @ np.where(null, 0.0, resid / np.where(null, 1.0, s))
    d = vh[-1]
    d = d / np.abs(d).max()
    if d.sum() < 0.0:
        d = -d
    rng = _alpha_range(x0, d, bits)
    if rng is None:
        return None
    lo, hi = rng
    if np.isfinite(lo):
        return Family(x0 + lo * d, d, 0.0, hi - lo)
    return Family(x0, d, lo, hi)


def enumerate_solutions(matrix, b, kind=ELLIPTIC):
    """All solutions of the piecewise linear system by pattern enumeration.

    For each boolean mask P the dense masked system is solved; a candidate
    is accepted iff its signs reproduce P under the inclusive >= 0 rule.
    Singular consistent patterns yield families restricted to their
    sign-consistent parameter range. Masks are walked in code order, bit i
    of the code being entry i of P, so results come in that order. A point
    that lies on a reported family is not reported again as a point.
    """
    if matrix.n_rows != matrix.n_cols:
        raise DimensionError(f"matrix is {matrix.shape}, expected square")
    _require_finite(matrix)
    n = matrix.n_rows
    if n > _MAX_N:
        raise TooLarge(f"n = {n} exceeds the enumeration limit {_MAX_N}")
    if kind not in (ELLIPTIC, PARABOLIC):
        raise ValueError(f"unknown kind {kind!r}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise DimensionError("right-hand side length must match the matrix")
    if n == 0:  # one empty mask, solved by the empty vector
        return OracleResult([np.zeros(0)], [], 1)
    t_dense = matrix.to_dense()
    positions = np.arange(n)

    points, families = [], []
    for start in range(0, 1 << n, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, 1 << n))
        bits = (codes[:, None] >> positions) & 1 == 1
        p = bits.astype(np.float64)
        m = t_dense * p[:, None, :]
        m[:, positions, positions] += 1.0 - p if kind == ELLIPTIC else 1.0
        s = np.linalg.svd(m, compute_uv=False)
        singular = s[:, -1] <= _SING_TOL * s[:, 0]
        x = np.linalg.solve(m[~singular], b[None, :, None])[:, :, 0]
        consistent = np.all((x >= 0.0) == bits[~singular], axis=1)
        points.extend(x[consistent])
        for k in np.flatnonzero(singular):
            fam = _singular_family(m[k], b, bits[k])
            if fam is not None and not any(
                np.allclose(fam.base, g.base) and np.allclose(fam.direction, g.direction)
                for g in families
            ):
                families.append(fam)
    # a regular pattern next to a family's base point can solve to that
    # point with a zero entry rounded below 0, which reproduces its mask
    points = [x for x in points if not any(_on_family(x, f) for f in families)]
    return OracleResult(points, families, 1 << n)


def _on_family(x, fam, tol=1e-9):
    """Whether x is base + alpha direction for an alpha in the family's
    range, up to tol (1 + max |x|) in every entry."""
    d = fam.direction
    alpha = float((x - fam.base) @ d) / float(d @ d)
    alpha = min(max(alpha, fam.alpha_min), fam.alpha_max)
    gap = np.abs(x - fam.base - alpha * d).max()
    return gap <= tol * (1.0 + np.abs(x).max())

