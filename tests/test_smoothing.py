import numpy as np
import pytest

from mlpp.smoothing import (GCV_GRID, SPLINE_DEGREE, CurveSmoother, _bspline_values,
                            _knot_vector, basis_matrix, penalty_matrix)
from conftest import reference_gcv_score


def test_basis_partition_of_unity():
    grid = np.linspace(0.0, 1.0, 40)
    b = basis_matrix(grid, 12)
    assert b.shape == (40, 12)
    np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-10)
    assert b.min() > -1e-12


@pytest.mark.parametrize("n_points,size", [(150, 25), (37, 4), (12, 12), (60, 9)])
def test_basis_and_derivatives_match_scipy_bspline(n_points, size):
    from scipy.interpolate import BSpline
    rng = np.random.default_rng(n_points)
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, n_points - 2)), [3.0]])
    knots = _knot_vector(grid, size)
    ref = BSpline(knots, np.eye(size), SPLINE_DEGREE)
    np.testing.assert_allclose(basis_matrix(grid, size), ref(grid), rtol=0, atol=1e-14)
    for deriv in (1, 2):
        theirs = ref.derivative(deriv)(grid)
        np.testing.assert_allclose(_bspline_values(knots, grid, deriv), theirs, rtol=0,
                                   atol=1e-14 * np.abs(theirs).max())


def test_penalty_matrix_symmetric_psd_with_linear_nullspace():
    grid = np.linspace(0.0, 2.0, 30)
    pen = penalty_matrix(grid, 10)
    np.testing.assert_array_equal(pen, pen.T)
    evals = np.linalg.eigvalsh(pen)
    assert evals.min() > -1e-9 * evals.max()
    # constants and linear trends are unpenalized, nothing else is
    assert np.sum(evals < 1e-8 * evals.max()) == 2


def test_penalty_quadratic_form_matches_curvature_integral():
    # f(t) = t^2 lies in the cubic spline space and has f'' = 2, so the
    # roughness integral over [0, 3] is 4 * 3 = 12.
    grid = np.linspace(0.0, 3.0, 50)
    size = 9
    b = basis_matrix(grid, size)
    coef, *_ = np.linalg.lstsq(b, grid ** 2, rcond=None)
    assert np.max(np.abs(b @ coef - grid ** 2)) < 1e-8
    pen = penalty_matrix(grid, size)
    np.testing.assert_allclose(coef @ pen @ coef, 12.0, rtol=1e-8)
    # a straight line has zero curvature
    line, *_ = np.linalg.lstsq(b, 1.0 + 2.0 * grid, rcond=None)
    assert abs(line @ pen @ line) < 1e-8


def test_zero_penalty_is_unpenalized_least_squares():
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 30)
    curves = rng.normal(size=(3, 30))
    sm = CurveSmoother(grid, 8)
    fitted = sm.fit(curves, 0.0)
    coef, *_ = np.linalg.lstsq(sm.basis, curves.T, rcond=None)
    np.testing.assert_allclose(fitted, (sm.basis @ coef).T, atol=1e-9)


def test_huge_penalty_approaches_straight_line():
    grid = np.linspace(0.0, 1.0, 40)
    y = np.sin(2 * np.pi * grid) + 0.5 * grid
    sm = CurveSmoother(grid, 15)
    fitted = sm.fit(y, 1e8)
    slope, intercept = np.polyfit(grid, y, 1)
    np.testing.assert_allclose(fitted, intercept + slope * grid, atol=5e-3)
    assert 1.9 < sm.effective_df(1e8) < 2.3


def test_effective_df_decreases_from_basis_size():
    grid = np.linspace(0.0, 1.0, 60)
    sm = CurveSmoother(grid, 15)
    dfs = [sm.effective_df(lam) for lam in (0.0, 1e-4, 1e-2, 1.0, 1e2)]
    assert dfs[0] == pytest.approx(15.0, abs=1e-6)
    assert all(hi >= lo for hi, lo in zip(dfs, dfs[1:]))
    assert dfs[-1] >= 2.0


def test_gcv_recovers_noise_scale():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 100)
    clean = np.sin(2 * np.pi * grid)[None, :] * np.linspace(1.0, 2.0, 8)[:, None]
    noise_sd = 0.3
    noisy = clean + rng.normal(0.0, noise_sd, clean.shape)
    sm = CurveSmoother(grid, 20)
    lam = sm.select_penalty(noisy)
    fitted = sm.fit(noisy, lam)
    resid_var = float(np.mean((noisy - fitted) ** 2))
    assert 0.75 * noise_sd ** 2 < resid_var < 1.25 * noise_sd ** 2
    assert np.mean((fitted - clean) ** 2) < 0.5 * np.mean((noisy - clean) ** 2)


@pytest.mark.parametrize("n_points, size, n_curves, noise_sd", [
    (100, 20, 8, 0.3), (150, 25, 40, 1.0), (40, 12, 3, 1e-6), (24, 24, 5, 0.1)])
def test_gcv_scores_match_refit_reference(n_points, size, n_curves, noise_sd):
    # one projection against a refit per penalty; the last case has as
    # many basis functions as points, so nothing lies outside the basis
    rng = np.random.default_rng(n_points)
    grid = np.linspace(0.0, 1.0, n_points)
    clean = np.sin(2 * np.pi * np.outer(rng.uniform(0.5, 2.0, n_curves), grid))
    noisy = clean + rng.normal(0.0, noise_sd, clean.shape)
    sm = CurveSmoother(grid, size)
    expected = [reference_gcv_score(sm, noisy, lam) for lam in GCV_GRID]
    np.testing.assert_allclose(sm.gcv_scores(noisy), expected, rtol=1e-12)
    assert sm.select_penalty(noisy) == GCV_GRID[int(np.argmin(expected))]


def test_fit_preserves_input_shape():
    grid = np.linspace(0.0, 1.0, 25)
    sm = CurveSmoother(grid, 8)
    rng = np.random.default_rng(1)
    stack = rng.normal(size=(2, 3, 25))
    out = sm.fit(stack, 1.0)
    assert out.shape == stack.shape
    np.testing.assert_allclose(out[1, 2], sm.fit(stack[1, 2], 1.0))


def test_input_validation():
    grid = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        CurveSmoother(grid.reshape(2, 5), 4)
    with pytest.raises(ValueError):
        CurveSmoother(grid[::-1], 4)
    with pytest.raises(ValueError):
        CurveSmoother(grid, 3)
    with pytest.raises(ValueError):
        CurveSmoother(grid, 11)
