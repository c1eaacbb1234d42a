import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from mlpp.model import (ModelState, cluster_index, cluster_params_for_labels,
                        cluster_slots, data_loglik, derive_cluster_labels, load_state,
                        save_state, scores_logprior, sticks_to_weights,
                        validate_state)
from conftest import random_state_and_workspace, reference_cluster_index


def test_derive_cluster_labels_mapping():
    subject_alloc = np.array([[1], [2], [2], [3]])
    channel_alloc = np.full((4, 2, 1), 4)
    channel_alloc[3, :, 0] = [5, 7]
    codes = np.array([2, 2, 3, 3])
    labels = derive_cluster_labels(subject_alloc, channel_alloc, codes)
    np.testing.assert_array_equal(labels[:, :, 0],
                                  [[1, 1], [2, 2], [3, 3], [5, 7]])


def test_derive_cluster_labels_validation():
    codes = np.array([2, 3])
    with pytest.raises(ValueError, match="1, 2 or 3"):
        derive_cluster_labels(np.array([[0], [1]]), np.full((2, 1, 1), 4), codes)
    with pytest.raises(ValueError, match=">= 4"):
        derive_cluster_labels(np.array([[1], [1]]), np.full((2, 1, 1), 2), codes)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), u=st.integers(2, 7), n=st.integers(1, 5),
       k=st.integers(1, 3), j=st.integers(1, 6))
def test_cluster_index_matches_two_where_reference(seed, u, n, k, j):
    state, _, _, rng = random_state_and_workspace(seed, u=u, n=n, k=k, j=j)
    state.subject_alloc[:] = rng.integers(1, 4, size=(u, k))
    slots = cluster_slots(state.group_codes, j, k)
    index = cluster_index(state, slots)
    np.testing.assert_array_equal(index, reference_cluster_index(state, slots))
    np.testing.assert_array_equal(cluster_index(state), index)


def test_cluster_params_gather_by_dimension_then_group():
    # distinct values in every slot so a transposed gather cannot pass
    state, _, _, _ = random_state_and_workspace(0, u=4, n=3, k=2)
    state.group_mean[:] = [[10.0, 20.0], [30.0, 40.0]]
    state.group_prec[:] = [[1.0, 2.0], [3.0, 4.0]]
    state.common_mean[:] = [-1.0, -2.0]
    state.common_prec[:] = [0.5, 0.25]
    state.subject_alloc[:] = 2
    state.subject_alloc[0, :] = 1

    means, precs = cluster_params_for_labels(state)
    np.testing.assert_array_equal(means[0, :, 0], -1.0)
    np.testing.assert_array_equal(means[0, :, 1], -2.0)
    gidx = state.group_codes - 2
    for subj in range(1, 4):
        for dim in range(2):
            assert means[subj, 0, dim] == state.group_mean[dim, gidx[subj]]
            assert precs[subj, 0, dim] == state.group_prec[dim, gidx[subj]]


def test_cluster_params_subject_labels():
    state, _, _, _ = random_state_and_workspace(1, u=3, n=4, k=2)
    state.subject_alloc[2, 1] = 3
    state.channel_alloc[2, :, 1] = [4, 5, 4, 6]
    means, _ = cluster_params_for_labels(state)
    np.testing.assert_array_equal(
        means[2, :, 1], state.subject_mean[2, 1, [0, 1, 0, 2]])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cluster_index_is_the_slot_of_the_derived_label(data):
    u, n, k, j = (data.draw(st.integers(1, hi)) for hi in (5, 4, 3, 4))

    def ints(lo, hi, shape):
        size = int(np.prod(shape))
        values = data.draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
        return np.array(values).reshape(shape)

    raw = np.full((k, 2, j), 0.5)
    state = ModelState(
        scores=np.zeros((u, n, k)), noise_prec=1.0,
        subject_alloc=ints(1, 3, (u, k)), channel_alloc=ints(4, 3 + j, (u, n, k)),
        cluster_mean=np.zeros((k, 3 + u * j)), cluster_prec=np.ones((k, 3 + u * j)),
        category_weights=np.full((k, 3), 1.0 / 3), raw_sticks=raw,
        stick_weights=sticks_to_weights(raw), group_codes=ints(2, 3, (u,)))
    label = state.cluster_label
    slot = np.where(label < 4, label - 1, 3 + j * np.arange(u)[:, None, None] + label - 4)
    np.testing.assert_array_equal(cluster_index(state), slot + (3 + u * j) * np.arange(k))


def test_level_views_write_into_the_cluster_grids():
    state, _, _, _ = random_state_and_workspace(7, u=3, n=4, k=2)
    j = state.max_subject_clusters
    assert list(state.group_codes) == [2, 3, 3]
    state.subject_alloc[:] = [[3, 2], [2, 3], [1, 3]]
    state.channel_alloc[0, :, 0] = [4, 6, 6, 5]
    state.subject_prec[0, 0, 2] = 123.0
    state.group_mean[1, 0] = -45.0
    assert state.cluster_prec[0, 3 + 2] == 123.0
    assert state.cluster_mean[1, 1] == -45.0

    means, precs = cluster_params_for_labels(state)
    np.testing.assert_array_equal(precs[0, :, 0], [state.cluster_prec[0, 3],
                                                   123.0, 123.0,
                                                   state.cluster_prec[0, 4]])
    np.testing.assert_array_equal(means[0, :, 1], -45.0)
    assert state.subject_prec.shape == (3, 2, j)


def test_sticks_to_weights_frozen_example():
    raw = np.full((1, 2, 3), 0.5)
    w = sticks_to_weights(raw)
    np.testing.assert_allclose(w[0, 0], [4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0],
                               rtol=1e-15)
    np.testing.assert_allclose(w.sum(axis=2), 1.0, rtol=1e-15)
    with pytest.raises(ValueError, match="inside"):
        sticks_to_weights(np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="inside"):
        sticks_to_weights(np.array([0.0, 0.5]))


def test_data_loglik_matches_direct_sum():
    state, _, ws, _ = random_state_and_workspace(2)
    val = data_loglik(state, ws.centred, ws.eigenfunctions)
    fitted = np.einsum("uik,tk->uit", state.scores, ws.eigenfunctions)
    direct = float(np.sum(norm.logpdf(ws.centred, fitted,
                                      state.noise_prec ** -0.5)))
    assert val == pytest.approx(direct, rel=1e-12)


def test_scores_logprior_matches_scipy():
    state, _, _, _ = random_state_and_workspace(3)
    means, precs = cluster_params_for_labels(state)
    direct = float(np.sum(norm.logpdf(state.scores, means, precs ** -0.5)))
    assert scores_logprior(state) == pytest.approx(direct, rel=1e-12)


def test_validate_state_catches_corruption():
    state, hp, _, _ = random_state_and_workspace(4)
    validate_state(state, hp)

    bad = state.copy()
    bad.category_weights[0] = [0.5, 0.4, 0.2]
    with pytest.raises(ValueError, match="sum to 1"):
        validate_state(bad)

    bad = state.copy()
    bad.subject_alloc[0, 0] = 4
    with pytest.raises(ValueError, match="1, 2 or 3"):
        validate_state(bad)

    bad = state.copy()
    bad.common_prec[0] = 0.9 * hp.common_sd_bound[0] ** -2
    with pytest.raises(ValueError, match="exceeds its prior bound"):
        validate_state(bad, hp)

    bad = state.copy()
    bad.scores[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        validate_state(bad)

    bad = state.copy()
    bad.channel_alloc[0, 0, 0] = 4 + bad.max_subject_clusters
    with pytest.raises(ValueError, match="out of range"):
        validate_state(bad)


@pytest.mark.parametrize("noise_prec", [np.inf, np.nan, 0.0, -1.0])
def test_validate_state_requires_finite_positive_noise_precision(noise_prec):
    state, hp, _, _ = random_state_and_workspace(4)
    state.noise_prec = noise_prec
    with pytest.raises(ValueError, match="noise precision must be finite and positive"):
        validate_state(state, hp)


def test_copy_is_independent():
    state, _, _, _ = random_state_and_workspace(5)
    clone = state.copy()
    clone.scores[0, 0, 0] += 1.0
    clone.subject_alloc[0, 0] = 3
    assert state.scores[0, 0, 0] != clone.scores[0, 0, 0]
    assert state.subject_alloc[0, 0] != 3 or clone.subject_alloc[0, 0] == 3


def test_state_round_trip(tmp_path):
    state, _, _, _ = random_state_and_workspace(6)
    save_state(state, tmp_path / "state")
    back = load_state(tmp_path / "state")
    np.testing.assert_array_equal(back.scores, state.scores)
    assert back.noise_prec == state.noise_prec
    np.testing.assert_array_equal(back.subject_alloc, state.subject_alloc)
    np.testing.assert_array_equal(back.channel_alloc, state.channel_alloc)
    np.testing.assert_array_equal(back.cluster_label, state.cluster_label)
    np.testing.assert_array_equal(back.common_mean, state.common_mean)
    np.testing.assert_array_equal(back.common_prec, state.common_prec)
    np.testing.assert_array_equal(back.group_mean, state.group_mean)
    np.testing.assert_array_equal(back.group_prec, state.group_prec)
    np.testing.assert_array_equal(back.subject_mean, state.subject_mean)
    np.testing.assert_array_equal(back.subject_prec, state.subject_prec)
    np.testing.assert_array_equal(back.category_weights, state.category_weights)
    np.testing.assert_array_equal(back.raw_sticks, state.raw_sticks)
    np.testing.assert_array_equal(back.stick_weights, state.stick_weights)
    np.testing.assert_array_equal(back.group_codes, state.group_codes)
    validate_state(back)
