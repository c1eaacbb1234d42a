import numpy as np
import pytest

from mlpp.fpca import trapezoid_weights
from mlpp.model import CAT_GROUP, CAT_SUBJECT
from mlpp.simgen import (SimDesign, make_eigenfunctions, read_truth_json, simulate,
                         write_truth_json)


def test_eigenfunctions_orthonormal_and_deterministic():
    grid, modes = make_eigenfunctions(90)
    assert modes.shape == (90, 2)
    w = trapezoid_weights(grid)
    gram = np.einsum("tk,t,tl->kl", modes, w, modes)
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
    grid2, modes2 = make_eigenfunctions(90)
    np.testing.assert_array_equal(modes, modes2)
    np.testing.assert_array_equal(grid, grid2)


def test_simulate_is_deterministic():
    design = SimDesign(n_subjects=8, n_channels=5, n_timepoints=40,
                       n_group_a=4, seed=5)
    data1, truth1 = simulate(design)
    data2, truth2 = simulate(design)
    np.testing.assert_array_equal(data1.values, data2.values)
    np.testing.assert_array_equal(truth1.scores, truth2.scores)


def test_shapes_groups_and_planted_labels():
    design = SimDesign(n_subjects=10, n_channels=6, n_timepoints=50,
                       n_group_a=4, seed=1)
    data, truth = simulate(design)
    assert data.values.shape == (10, 6, 50)
    assert data.n_group_a == 4
    np.testing.assert_array_equal(data.group_codes[:4], 2)
    np.testing.assert_array_equal(data.group_codes[4:], 3)

    # dimension 1 never has subject-specific structure; the default four
    # outliers (first two and last two subjects) carry it in dimension 2
    assert set(truth.subject_kind[:, 0]) == {CAT_GROUP}
    outliers = np.array([0, 1, 8, 9])
    assert np.all(truth.subject_kind[outliers, 1] == CAT_SUBJECT)
    keep = np.setdiff1d(np.arange(10), outliers)
    assert np.all(truth.subject_kind[keep, 1] == CAT_GROUP)

    # planted subject partitions: groups in dimension 1, singleton labels
    # for the outliers in dimension 2
    np.testing.assert_array_equal(truth.subject_labels[:, 0],
                                  (data.group_codes == 3).astype(int))
    assert len(set(truth.subject_labels[outliers, 1])) == 4

    # each outlier's channels split into two balanced halves
    for sid in outliers + 1:
        split = truth.channel_labels[f"{sid}:2"]
        assert sorted(np.bincount(split)) == [3, 3]


def test_score_columns_centred_and_orthogonal():
    design = SimDesign(n_subjects=12, n_channels=8, n_timepoints=40,
                       n_group_a=6, seed=2)
    _, truth = simulate(design)
    flat = truth.scores.reshape(-1, 2)
    scale = np.abs(flat).max()
    np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-10 * scale)
    assert abs(flat[:, 0] @ flat[:, 1]) < 1e-8 * scale ** 2


def test_noise_level_matches_snr():
    design = SimDesign(n_subjects=20, n_channels=20, n_timepoints=100,
                       n_group_a=10, snr=4.0, seed=3)
    data, truth = simulate(design)
    signal_var = float(np.var(truth.noiseless))
    noise = data.values - truth.noiseless
    assert truth.noise_sd ** 2 == pytest.approx(signal_var / 4.0, rel=1e-12)
    assert float(np.var(noise)) == pytest.approx(truth.noise_sd ** 2, rel=0.05)


def test_infinite_snr_is_noiseless():
    design = SimDesign(n_subjects=6, n_channels=4, n_timepoints=30,
                       n_group_a=3, snr=np.inf, seed=4)
    data, truth = simulate(design)
    np.testing.assert_array_equal(data.values, truth.noiseless)
    assert truth.noise_sd == 0.0


def test_within_cluster_spread_stays_above_unit_scale():
    # the empirical prior recipe bounds cluster sds by squared empirical
    # sds, which collapses below sd 1; the planted design must stay clear
    design = SimDesign()
    for sd in (design.dim1_sd,) + design.dim2_sds:
        assert sd > 1.0
    assert design.outlier_sd <= 1.0  # singletons are identified by offset instead
    assert design.outlier_offset > 4 * design.outlier_sd


def test_truth_json_round_trip(tmp_path):
    design = SimDesign(n_subjects=8, n_channels=6, n_timepoints=40,
                       n_group_a=4, seed=6)
    _, truth = simulate(design)
    write_truth_json(truth, tmp_path / "truth.json")
    back = read_truth_json(tmp_path / "truth.json")
    np.testing.assert_array_equal(back.subject_kind, truth.subject_kind)
    np.testing.assert_array_equal(back.subject_labels, truth.subject_labels)
    assert set(back.channel_labels) == set(truth.channel_labels)
    for key, val in truth.channel_labels.items():
        np.testing.assert_array_equal(back.channel_labels[key], val)
    np.testing.assert_allclose(back.scores, truth.scores)
    assert back.noise_sd == truth.noise_sd
    assert back.design == design


def test_design_validation():
    with pytest.raises(ValueError, match="time points"):
        SimDesign(n_timepoints=8)
    with pytest.raises(ValueError, match="n_channels"):
        SimDesign(n_channels=0)
    with pytest.raises(ValueError, match="n_group_a"):
        SimDesign(n_subjects=10, n_group_a=10)
    with pytest.raises(ValueError, match="snr"):
        SimDesign(snr=0.0)
    with pytest.raises(ValueError, match="out of range"):
        SimDesign(n_subjects=10, n_group_a=5, outlier_subjects=(0, 11))
