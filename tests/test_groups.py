"""Any number of clinical groups: three-group data through calibration,
the sampler and the partition summaries.

The program reads the group count G from its inputs (the data's codes
2 .. G+1, the hyperparameters' group columns, the state's sticks), so a
third group takes the same code path as the two the other tests use.
"""
import time

import numpy as np
import pytest
from scipy import stats

from mlpp.fpca import FunctionalDataset, fit_fpca, smooth_dataset
from mlpp.hyperparams import HyperParams, estimate_hyperparams
from mlpp.model import cluster_index, load_state, save_state, validate_state
from mlpp.partitions import adjusted_rand_index, partition_draws, vi_point_estimate
from mlpp.sampler import (SamplerConfig, Workspace, _scalar_row, draw_state_from_prior,
                          gibbs_scan, initial_state_empirical, make_workspace, run_chain,
                          scalar_names)
from mlpp.simgen import SimDesign, make_eigenfunctions, simulate

from conftest import make_hyperparams

THREE_CODES = np.array([2, 2, 3, 3, 4, 4])


def _three_group_hp(k=1, j=8):
    """Prior constants with a distinct column per group, so that a column
    read from the wrong group shows."""
    cols = np.array([0.0, -1.0, 1.5])
    return HyperParams(
        common_mean_prec=np.full(k, 2.0), common_sd_bound=np.full(k, 1.5),
        group_mean_loc=np.tile(cols, (k, 1)),
        group_mean_prec=np.tile([2.0, 1.0, 3.0], (k, 1)),
        group_sd_bound=np.tile([1.5, 2.0, 1.2], (k, 1)),
        subject_mean_loc=np.tile(-cols, (k, 1)),
        subject_mean_prec=np.tile([2.0, 2.5, 1.5], (k, 1)),
        subject_sd_bound=np.tile([1.5, 1.0, 2.5], (k, 1)),
        noise_prec_shape=3.0, noise_prec_rate=3.0, max_subject_clusters=j)


def test_three_group_prior_invariance_with_likelihood_disabled():
    # as gate 03a, at 6 subjects x 3 channels x 20 time points with codes
    # 2, 2, 3, 3, 4, 4: independent replicates, each started at a prior
    # draw and advanced three likelihood-free scans, leave the prior
    # invariant, so the third group's mean, cluster sd and first stick are
    # iid from their analytic priors
    start = time.time()
    hp = _three_group_hp()
    _, modes = make_eigenfunctions(20)
    phi = modes[:, :1]
    u, n = THREE_CODES.size, 3
    ws = Workspace(centred=np.zeros((u, n, 20)), proj=np.zeros((u, n, 1)),
                   gram=phi.T @ phi, eigenfunctions=phi, group_codes=THREE_CODES)
    rng = np.random.default_rng(24)
    n_rep = 4000
    mean, sd, stick = np.empty(n_rep), np.empty(n_rep), np.empty(n_rep)
    for r in range(n_rep):
        state = draw_state_from_prior(hp, u, n, THREE_CODES, rng)
        for _ in range(3):
            gibbs_scan(state, ws, hp, rng, likelihood_off=True)
        mean[r] = state.group_mean[0, 2]
        sd[r] = state.group_prec[0, 2] ** -0.5
        stick[r] = state.raw_sticks[0, 2, 0]

    p_mean = stats.kstest(mean, stats.norm(hp.group_mean_loc[0, 2],
                                           hp.group_mean_prec[0, 2] ** -0.5).cdf).pvalue
    p_sd = stats.kstest(sd, stats.uniform(0.0, hp.group_sd_bound[0, 2]).cdf).pvalue
    p_stick = stats.kstest(stick, stats.beta(1.0, hp.stick_conc[0]).cdf).pvalue
    print(f"three groups: KS p-values code-4 mean {p_mean:.3f}, sd {p_sd:.3f}, "
          f"stick {p_stick:.3f} ({time.time() - start:.0f}s)")
    assert p_mean > 0.01
    assert p_sd > 0.01
    assert p_stick > 0.01


def test_three_group_design_recovers_its_planted_partition():
    # 30 subjects x 20 channels x 100 time points without outliers; the
    # last ten subjects move to a third group (code 4), whose curves are
    # shifted by 12 phi_1 in the first eigendimension
    design = SimDesign(n_subjects=30, n_channels=20, n_timepoints=100, n_group_a=15,
                       outlier_subjects=(), seed=30)
    sim, _ = simulate(design)
    codes = sim.group_codes.copy()
    codes[20:] = 4
    _, phi = make_eigenfunctions(design.n_timepoints)
    values = sim.values.copy()
    values[20:] += 12.0 * phi[:, 0]
    data = FunctionalDataset(values, sim.time_grid, codes)
    assert data.n_groups == 3

    smoothed = smooth_dataset(data, 25)
    basis = fit_fpca(smoothed)
    hp = estimate_hyperparams(basis, codes)
    assert hp.n_groups == 3
    archive = run_chain(smoothed, basis, hp,
                        SamplerConfig(n_iter=1500, burn_in=500, thin=2, seed=30))
    names = archive.scalar_names
    assert names.index("group_mean[1,4]") == names.index("group_prec[1,3]") + 1

    estimate = vi_point_estimate(partition_draws(archive.subject_alloc_draws, codes, 0))[0]
    assert adjusted_rand_index(estimate, codes) == 1.0


def test_three_group_state_layout_and_snapshot(tmp_path):
    # slots 1..3 hold the groups in code order and the subject clusters
    # follow at 4 + u*J; cluster labels run 1, the codes 2..4, then 5 on
    hp = _three_group_hp(k=2, j=3)
    rng = np.random.default_rng(3)
    state = draw_state_from_prior(hp, THREE_CODES.size, 4, THREE_CODES, rng)
    u, j = THREE_CODES.size, 3
    assert state.cluster_mean.shape == (2, 1 + 3 + u * j)
    assert state.raw_sticks.shape == (2, 3, j)
    assert (state.n_groups, state.max_subject_clusters) == (3, j)
    validate_state(state, hp)

    state.subject_alloc[:] = rng.integers(1, 4, size=state.subject_alloc.shape)
    label = state.cluster_label
    own = np.broadcast_to((state.subject_alloc == 3)[:, None, :], label.shape)
    np.testing.assert_array_equal(label[own], (state.channel_alloc + 1)[own])
    slot = np.where(label <= 4, label - 1, 4 + j * np.arange(u)[:, None, None] + label - 5)
    np.testing.assert_array_equal(cluster_index(state),
                                  slot + (1 + 3 + u * j) * np.arange(2))

    names = scalar_names(2, 3)
    row = _scalar_row(state)
    assert len(row) == len(names)
    assert row[names.index("group_mean[2,4]")] == state.group_mean[1, 2]
    assert row[names.index("group_prec[1,3]")] == state.group_prec[0, 1]

    save_state(state, tmp_path)
    back = load_state(tmp_path)
    for name in ("cluster_mean", "cluster_prec", "raw_sticks", "group_codes"):
        np.testing.assert_array_equal(getattr(back, name), getattr(state, name))
    np.testing.assert_array_equal(back.cluster_label, label)



def test_too_few_hyperparameter_groups_name_both_counts():
    # two-group prior constants for codes 2, 3, 4, 4: every library entry
    # point stops in cluster_prior with fit's message, not an IndexError
    rng = np.random.default_rng(26)
    codes = np.array([2, 3, 4, 4])
    time_grid, modes = make_eigenfunctions(20)
    data = FunctionalDataset(rng.normal(size=(4, 3, 2)) @ modes.T, time_grid, codes)
    basis = fit_fpca(data)
    hp = make_hyperparams(rng, k=basis.n_components)
    message = r"the hyperparameters have 2 group\(s\), but group code 4 needs 3"
    with pytest.raises(ValueError, match=message):
        draw_state_from_prior(hp, 4, 3, codes, rng)
    with pytest.raises(ValueError, match=message):
        initial_state_empirical(basis, hp, make_workspace(data, basis))
    for init_mode in ("empirical", "prior_draw"):
        with pytest.raises(ValueError, match=message):
            run_chain(data, basis, hp, SamplerConfig(n_iter=2, init_mode=init_mode))
