"""Penalized B-spline smoothing of noisy curves.

Curves observed on a shared time grid are fit by cubic B-splines with a
second-derivative roughness penalty.  A single penalty value is shared by
all curves and can be selected by generalized cross-validation over a
fixed log-spaced grid.
"""
from __future__ import annotations

import numpy as np

SPLINE_DEGREE = 3
GCV_GRID = np.logspace(-6.0, 3.0, 25)


def _knot_vector(time_grid: np.ndarray, basis_size: int) -> np.ndarray:
    """Clamped knot vector with equally spaced interior knots."""
    lo, hi = time_grid[0], time_grid[-1]
    n_interior = basis_size - SPLINE_DEGREE - 1
    interior = np.linspace(lo, hi, n_interior + 2)[1:-1]
    return np.concatenate([
        np.full(SPLINE_DEGREE + 1, lo),
        interior,
        np.full(SPLINE_DEGREE + 1, hi),
    ])


def _bspline_values(knots: np.ndarray, x: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Derivative ``deriv`` of every B-spline of degree SPLINE_DEGREE on the
    knots at the points x, (len(x), len(knots) - SPLINE_DEGREE - 1).

    Cox-de Boor recursion from the degree-0 span indicators up to degree
    SPLINE_DEGREE - deriv, then the derivative recursion for the last
    ``deriv`` degrees; a term over a zero-width span counts as 0.  A point
    at the last knot belongs to the last nonempty span.  (numpy only:
    scipy.interpolate costs about 0.3 s to import.)
    """
    x = np.asarray(x, dtype=float)[:, None]
    spans = np.flatnonzero(knots[:-1] < knots[1:])
    span = np.clip(np.searchsorted(knots, x[:, 0], side="right") - 1,
                   spans[0], spans[-1])
    vals = (np.arange(len(knots) - 1) == span[:, None]).astype(float)
    for q in range(1, SPLINE_DEGREE + 1):
        lo, hi = knots[:-q - 1], knots[q + 1:]
        left, right = knots[q:-1] - lo, hi - knots[1:-q]     # span widths
        inv_left = np.divide(1.0, left, out=np.zeros_like(left), where=left > 0)
        inv_right = np.divide(1.0, right, out=np.zeros_like(right), where=right > 0)
        if q <= SPLINE_DEGREE - deriv:
            vals = (x - lo) * inv_left * vals[:, :-1] + (hi - x) * inv_right * vals[:, 1:]
        else:
            vals = q * (inv_left * vals[:, :-1] - inv_right * vals[:, 1:])
    return vals


def basis_matrix(time_grid: np.ndarray, basis_size: int) -> np.ndarray:
    """Evaluate the cubic B-spline basis at the grid points, (T, basis_size)."""
    return _bspline_values(_knot_vector(time_grid, basis_size), time_grid)


def penalty_matrix(time_grid: np.ndarray, basis_size: int) -> np.ndarray:
    """Integrated squared second derivative of the basis, (basis_size, basis_size).

    Second derivatives of cubic splines are piecewise linear, so 3-point
    Gauss-Legendre per knot span integrates the products exactly.
    """
    knots = _knot_vector(time_grid, basis_size)
    nodes, weights = np.polynomial.legendre.leggauss(3)
    # return_index: a plain np.unique imports numpy.ma (numpy 2.4)
    spans = np.unique(knots, return_index=True)[0]
    half = 0.5 * np.diff(spans)[:, None]
    x = (half * nodes + 0.5 * (spans[:-1] + spans[1:])[:, None]).ravel()
    w = (half * weights).ravel()
    d = _bspline_values(knots, x, deriv=2)
    pen = (d * w[:, None]).T @ d
    return 0.5 * (pen + pen.T)


def _validate(time_grid: np.ndarray, basis_size: int) -> None:
    if time_grid.ndim != 1 or time_grid.size < 2:
        raise ValueError("time grid must be a 1-d array with at least 2 points")
    if np.any(np.diff(time_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if basis_size < SPLINE_DEGREE + 1:
        raise ValueError(f"basis_size must be at least {SPLINE_DEGREE + 1}")
    if basis_size > time_grid.size:
        raise ValueError("basis_size cannot exceed the number of time points")


class CurveSmoother:
    """Shared factorization for smoothing many curves on one grid.

    Uses the Demmler-Reinsch decomposition: with B the basis matrix,
    P the roughness penalty and B'B = R'R, the eigendecomposition of
    R^-T P R^-1 yields fitted values for any penalty at O(basis_size^2)
    cost per curve.
    """

    def __init__(self, time_grid: np.ndarray, basis_size: int):
        time_grid = np.asarray(time_grid, dtype=float)
        _validate(time_grid, basis_size)
        self.time_grid = time_grid
        self.basis_size = basis_size
        self.basis = basis_matrix(time_grid, basis_size)
        self.penalty = penalty_matrix(time_grid, basis_size)
        btb = self.basis.T @ self.basis
        r = np.linalg.cholesky(btb, upper=True)
        # Fortran order: in C order rinv.T @ penalty @ rinv rounds differently (~1 ulp)
        rinv = np.asfortranarray(np.linalg.solve(r, np.eye(basis_size)))
        m = rinv.T @ self.penalty @ rinv
        evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
        self._shrink_dirs = np.clip(evals, 0.0, None)
        self._to_coef = rinv @ evecs          # coefficients = _to_coef @ shrunk
        self._from_data = evecs.T @ rinv.T @ self.basis.T

    def fit(self, curves: np.ndarray, penalty: float) -> np.ndarray:
        """Fitted values on the time grid, same shape as curves (..., T)."""
        curves = np.asarray(curves, dtype=float)
        proj = self._from_data @ curves.reshape(-1, self.time_grid.size).T
        shrunk = proj / (1.0 + penalty * self._shrink_dirs)[:, None]
        return ((self._to_coef @ shrunk).T @ self.basis.T).reshape(curves.shape)

    def effective_df(self, penalty: float) -> float:
        return float(np.sum(1.0 / (1.0 + penalty * self._shrink_dirs)))

    def gcv_scores(self, curves: np.ndarray) -> np.ndarray:
        """Pooled GCV score at each penalty of GCV_GRID: mean squared
        residual / (1 - df/T)^2 over all curves.

        The curves are projected once onto the orthonormal Demmler-Reinsch
        directions Q = B R^-1 U, z = Q'y.  A fit shrinks direction b by
        s_b = 1 / (1 + lam d_b), so its residual sum of squares is
        ||y - Q z||^2 + sum_b (lam d_b s_b)^2 ||z_b||^2, a sum of
        nonnegative terms that needs no refit per penalty.
        """
        curves = np.asarray(curves, dtype=float).reshape(-1, self.time_grid.size)
        t = self.time_grid.size
        z = self._from_data @ curves.T                       # (basis_size, curves)
        outside = curves - ((self.basis @ self._to_coef) @ z).T
        z_sq = np.einsum("bc,bc->b", z, z)
        lam_d = GCV_GRID[:, None] * self._shrink_dirs
        shrink = 1.0 / (1.0 + lam_d)
        rss = float(np.vdot(outside, outside)) + (lam_d * shrink) ** 2 @ z_sq
        denom = (1.0 - shrink.sum(axis=1) / t) ** 2
        return rss / (curves.shape[0] * t * denom)

    def select_penalty(self, curves: np.ndarray) -> float:
        """Penalty with the smallest pooled GCV score on GCV_GRID."""
        return float(GCV_GRID[int(np.argmin(self.gcv_scores(curves)))])
