import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlpp.fpca import (FunctionalDataset, _fix_signs, fit_fpca, read_basis,
                       read_dataset_csv, read_time_grid_csv, reconstruct,
                       smooth_dataset, trapezoid_weights, write_basis,
                       write_dataset_csv, write_time_grid_csv)
from mlpp.simgen import SimDesign, make_eigenfunctions, simulate


def _norm_under_grid(f, grid):
    return np.sqrt(np.sum(trapezoid_weights(grid) * f ** 2))


def _rank_k_dataset(score_sds, u=12, n=6, t=64, seed=0):
    """Noiseless curves built on the shared orthonormal mode pair, with
    score columns exactly centred and orthogonal so the planted modes are
    the exact eigenfunctions of the pooled covariance."""
    rng = np.random.default_rng(seed)
    grid, modes = make_eigenfunctions(t)
    k = len(score_sds)
    flat = rng.normal(0.0, score_sds, size=(u * n, k))
    flat -= flat.mean(axis=0)
    q, r = np.linalg.qr(flat)
    flat = q * np.sqrt(np.sum(flat ** 2, axis=0))  # orthogonal, original scale
    values = (flat @ modes[:, :k].T).reshape(u, n, t) + 1.5
    codes = np.where(np.arange(u) < u // 2, 2, 3)
    return FunctionalDataset(values, grid, codes), flat.reshape(u, n, k), modes[:, :k]


def test_trapezoid_weights_integrate_polynomials():
    grid = np.linspace(0.0, 2.0, 101)
    w = trapezoid_weights(grid)
    assert w.sum() == pytest.approx(2.0, rel=1e-12)
    assert np.sum(w * grid) == pytest.approx(2.0, rel=1e-4)


def test_rank_one_noiseless_recovery():
    data, scores, modes = _rank_k_dataset((2.0,), seed=3)
    basis = fit_fpca(data)
    assert basis.n_components == 1
    assert basis.var_explained[0] >= 1.0 - 1e-8
    sign = np.sign(np.sum(basis.eigenfunctions[:, 0] * modes[:, 0]))
    np.testing.assert_allclose(basis.eigenfunctions[:, 0] * sign, modes[:, 0],
                               atol=1e-8)
    np.testing.assert_allclose(basis.scores[:, :, 0] * sign, scores[:, :, 0],
                               atol=1e-8)


def test_rank_two_shares_match_score_variances():
    data, scores, _ = _rank_k_dataset((3.0, 1.0), seed=4)
    basis = fit_fpca(data, var_threshold=1.0, min_component_share=0.01)
    assert basis.n_components == 2
    flat = scores.reshape(-1, 2)
    expected = np.sum(flat ** 2, axis=0)
    np.testing.assert_allclose(basis.var_explained,
                               expected / expected.sum(), atol=1e-8)


def _svd_reference(data, var_threshold=0.8, min_component_share=0.15):
    """fPCA from the SVD of the sqrt(w)-weighted centred curve matrix:
    (K, eigenvalues, shares, sign-fixed eigenfunctions, scores)."""
    u, n, t = data.values.shape
    flat = data.values.reshape(u * n, t)
    centred = flat - flat.mean(axis=0)
    w = trapezoid_weights(data.time_grid)
    sqrt_w = np.sqrt(w)
    _, sing, vt = np.linalg.svd(centred * sqrt_w, full_matrices=False)
    eigenvalues = sing ** 2 / (u * n - 1)
    shares = eigenvalues / eigenvalues.sum()
    k_cum = int(np.searchsorted(np.cumsum(shares), var_threshold - 1e-12) + 1)
    k = max(1, min(k_cum, int(np.sum(shares >= min_component_share))))
    eigenfunctions = _fix_signs((vt[:k] / sqrt_w).T)
    scores = centred @ (w[:, None] * eigenfunctions)
    return k, eigenvalues[:k], shares[:k], eigenfunctions, scores.reshape(u, n, k)


def _simulated(u, n, t):
    design = SimDesign(n_subjects=u, n_channels=n, n_timepoints=t,
                       n_group_a=u // 2, snr=6.0, seed=21)
    return smooth_dataset(simulate(design)[0], basis_size=25)


@pytest.mark.parametrize("make", [
    lambda: _simulated(20, 20, 100),
    lambda: _simulated(40, 50, 150),
    lambda: _rank_k_dataset((2.0,), seed=3)[0],
    lambda: _rank_k_dataset((3.0, 1.0), seed=4)[0],
], ids=["size-R", "size-D", "rank-1", "rank-2"])
def test_matches_svd_reference(make):
    data = make()
    basis = fit_fpca(data)
    k, eigenvalues, shares, eigenfunctions, scores = _svd_reference(data)
    assert basis.n_components == k
    np.testing.assert_allclose(basis.eigenvalues, eigenvalues, rtol=1e-10, atol=0)
    np.testing.assert_allclose(basis.var_explained, shares, rtol=1e-10, atol=0)
    np.testing.assert_allclose(basis.eigenfunctions, eigenfunctions, rtol=0, atol=1e-10)
    np.testing.assert_allclose(basis.scores, scores, rtol=0, atol=1e-10)


def test_null_space_shares_not_negative():
    # at min_component_share 0 no share rule drops the rank-one set's
    # null-space eigenvalues, which rounding pushes just below zero; the
    # cumulative rule alone picks K, and no kept share is negative
    data, _, _ = _rank_k_dataset((2.0,), seed=3)
    basis = fit_fpca(data, var_threshold=1.0, min_component_share=0.0)
    k, eigenvalues, shares, _, _ = _svd_reference(data, 1.0, 0.0)
    assert basis.n_components == k
    assert np.all(basis.var_explained >= 0)
    assert np.all(basis.eigenvalues >= 0)
    np.testing.assert_allclose(basis.var_explained.sum(), 1.0, rtol=1e-12)


def test_small_component_dropped_by_share_rule():
    data, _, _ = _rank_k_dataset((3.0, 1.0), seed=5)
    # second mode holds ~10% of the variance: below the 15% default share
    basis = fit_fpca(data, var_threshold=0.95)
    assert basis.n_components == 1


def test_eigenfunctions_orthonormal_under_grid_weights():
    design = SimDesign(n_subjects=8, n_channels=6, n_timepoints=60,
                       n_group_a=4, snr=6.0, seed=11)
    data, _ = simulate(design)
    basis = fit_fpca(data)
    w = trapezoid_weights(data.time_grid)
    gram = np.einsum("tk,t,tl->kl", basis.eigenfunctions, w, basis.eigenfunctions)
    np.testing.assert_allclose(gram, np.eye(basis.n_components), atol=1e-8)
    np.testing.assert_allclose(basis.component_norms(), 1.0, atol=1e-8)


def test_sign_convention_largest_entry_positive():
    data, _, _ = _rank_k_dataset((2.0, 1.0), seed=6)
    basis = fit_fpca(data, var_threshold=1.0, min_component_share=0.01)
    for col in basis.eigenfunctions.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_reconstruct_matches_projection():
    data, _, _ = _rank_k_dataset((2.0, 1.0), seed=7)
    basis = fit_fpca(data, var_threshold=1.0, min_component_share=0.01)
    np.testing.assert_allclose(reconstruct(basis, 3, 2), data.values[3, 2],
                               atol=1e-8)


def test_zero_variance_rejected():
    grid = np.linspace(0.0, 1.0, 20)
    flat = np.ones((3, 2, 20))
    data = FunctionalDataset(flat, grid, np.array([2, 2, 3]))
    with pytest.raises(ValueError, match="zero variance"):
        fit_fpca(data)


def test_dataset_validation():
    grid = np.linspace(0.0, 1.0, 8)
    values = np.zeros((2, 2, 8))
    with pytest.raises(ValueError, match="group codes"):
        FunctionalDataset(values, grid, np.array([2, 5]))
    with pytest.raises(ValueError, match="grid length"):
        FunctionalDataset(values, grid[:-1], np.array([2, 3]))
    with pytest.raises(ValueError, match="finite"):
        FunctionalDataset(values + np.nan, grid, np.array([2, 3]))
    with pytest.raises(ValueError, match="shape"):
        FunctionalDataset(values[0], grid, np.array([2, 3]))


def test_smooth_dataset_reduces_noise():
    design = SimDesign(n_subjects=6, n_channels=4, n_timepoints=80,
                       n_group_a=3, snr=2.0, seed=9)
    data, truth = simulate(design)
    smoothed = smooth_dataset(data, basis_size=20)
    assert smoothed.values.shape == data.values.shape
    raw_err = np.mean((data.values - truth.noiseless) ** 2)
    smooth_err = np.mean((smoothed.values - truth.noiseless) ** 2)
    assert smooth_err < 0.5 * raw_err
    with pytest.raises(ValueError, match="nonnegative"):
        smooth_dataset(data, basis_size=20, penalty=-1.0)


def test_dataset_csv_round_trip(tmp_path):
    design = SimDesign(n_subjects=4, n_channels=3, n_timepoints=24,
                       n_group_a=2, snr=6.0, seed=12)
    data, _ = simulate(design)
    write_dataset_csv(data, tmp_path / "data.csv")
    write_time_grid_csv(data.time_grid, tmp_path / "grid.csv")
    back = read_dataset_csv(tmp_path / "data.csv", tmp_path / "grid.csv")
    np.testing.assert_array_equal(back.values, data.values)
    np.testing.assert_array_equal(back.time_grid, data.time_grid)
    np.testing.assert_array_equal(back.group_codes, data.group_codes)
    assert back.subject_ids == data.subject_ids
    assert read_time_grid_csv(tmp_path / "grid.csv").shape == (24,)


def test_basis_round_trip(tmp_path):
    data, _, _ = _rank_k_dataset((2.0, 1.0), seed=13)
    basis = fit_fpca(data, var_threshold=1.0, min_component_share=0.01)
    write_basis(basis, tmp_path / "basis")
    back = read_basis(tmp_path / "basis")
    np.testing.assert_array_equal(back.mean_curve, basis.mean_curve)
    np.testing.assert_array_equal(back.eigenfunctions, basis.eigenfunctions)
    np.testing.assert_array_equal(back.scores, basis.scores)
    np.testing.assert_array_equal(back.time_grid, basis.time_grid)
    np.testing.assert_array_equal(back.eigenvalues, basis.eigenvalues)
    np.testing.assert_array_equal(back.var_explained, basis.var_explained)


def test_var_threshold_validation():
    data, _, _ = _rank_k_dataset((2.0,), seed=14)
    with pytest.raises(ValueError, match="var_threshold"):
        fit_fpca(data, var_threshold=0.0)
    with pytest.raises(ValueError, match="var_threshold"):
        fit_fpca(data, var_threshold=1.5)


def _write_curves(path, rows, t=3):
    """rows: (subject_id, channel_id, group_code, value) per curve; every
    time point of a curve holds its value."""
    lines = ["subject_id,channel_id,group_code," + ",".join(f"t{j}" for j in range(t))]
    lines += [f"{sid},{chan},{code}," + ",".join([repr(float(val))] * t)
              for sid, chan, code, val in rows]
    path.write_text("\n".join(lines) + "\n")


def test_dataset_csv_rejects_bad_channel_ids(tmp_path):
    write_time_grid_csv(np.linspace(0.0, 1.0, 3), tmp_path / "grid.csv")
    _write_curves(tmp_path / "dup.csv",
                  [(s, c, 2 + s % 2, 0.0) for s in (1, 2) for c in (1, 1, 2)])
    with pytest.raises(ValueError, match="subject 1 repeats channel 1"):
        read_dataset_csv(tmp_path / "dup.csv", tmp_path / "grid.csv")
    _write_curves(tmp_path / "sets.csv",
                  [(1, 1, 2, 0.0), (1, 2, 2, 0.0), (2, 1, 3, 0.0), (2, 7, 3, 0.0)])
    with pytest.raises(ValueError, match="subject 2 has channel 7"):
        read_dataset_csv(tmp_path / "sets.csv", tmp_path / "grid.csv")


def test_dataset_csv_keeps_ids_that_differ_as_text(tmp_path):
    # "007" and "7" are two subjects; only an int's own text reads as int
    write_time_grid_csv(np.linspace(0.0, 1.0, 3), tmp_path / "grid.csv")
    sids = ["007", "7", "-0", "-3", "12", "+4"]
    _write_curves(tmp_path / "ids.csv",
                  [(sid, c, 2 + i % 2, float(i)) for i, sid in enumerate(sids)
                   for c in (1, 2)])
    data = read_dataset_csv(tmp_path / "ids.csv", tmp_path / "grid.csv")
    assert data.subject_ids == ["007", 7, "-0", -3, 12, "+4"]
    np.testing.assert_array_equal(data.group_codes, [2, 3, 2, 3, 2, 3])
    write_dataset_csv(data, tmp_path / "back.csv")
    back = read_dataset_csv(tmp_path / "back.csv", tmp_path / "grid.csv")
    assert back.subject_ids == data.subject_ids
    np.testing.assert_array_equal(back.values, data.values)
    np.testing.assert_array_equal(back.group_codes, data.group_codes)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=4),
                min_size=1, max_size=4))
def test_dataset_csv_channel_id_property(tmp_path_factory, channel_lists):
    # a file reads exactly when no subject repeats a channel id and every
    # subject has the same ids; curves come back ordered by channel id
    directory = tmp_path_factory.mktemp("ids")
    write_time_grid_csv(np.linspace(0.0, 1.0, 3), directory / "grid.csv")
    rows = [(s + 1, chan, 2 + s % 2, 10.0 * s + chan)
            for s, chans in enumerate(channel_lists) for chan in chans]
    _write_curves(directory / "data.csv", rows)
    valid = all(len(set(c)) == len(c) for c in channel_lists) \
        and all(set(c) == set(channel_lists[0]) for c in channel_lists)
    if not valid:
        with pytest.raises(ValueError, match="subject"):
            read_dataset_csv(directory / "data.csv", directory / "grid.csv")
        return
    data = read_dataset_csv(directory / "data.csv", directory / "grid.csv")
    ids = sorted(channel_lists[0])
    assert data.values.shape == (len(channel_lists), len(ids), 3)
    for s in range(len(channel_lists)):
        np.testing.assert_array_equal(data.values[s, :, 0],
                                      [10.0 * s + chan for chan in ids])
