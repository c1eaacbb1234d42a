import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import exp1
from scipy.stats import binom, gamma, kstest

import mlpp.sampler
from mlpp.fpca import fit_fpca, smooth_dataset
from mlpp.hyperparams import estimate_hyperparams
from mlpp.model import (chain_constants, cluster_params_for_labels, cluster_prior,
                        fitted_curves, residual_ssr, validate_state)
from mlpp.sampler import (ChainArchive, SamplerConfig, SamplerError, Workspace,
                          _audit, _check_finite, alloc_log_weights, chain_workers,
                          category_weight_params, cluster_counts, cluster_index,
                          cluster_mean_params, cluster_prec_params,
                          data_free_workspace, draw_state_from_prior, gibbs_scan,
                          initial_state_empirical, load_archives, make_workspace,
                          noise_prec_params, run_chain, run_chains, save_archives,
                          scalar_names, score_update_params, stick_counts,
                          stick_params, sufficient_ssr, truncated_gamma_batch,
                          truncated_gamma_sample, update_cluster_params,
                          update_category_weights, update_noise_prec,
                          update_subject_alloc)
from mlpp.simgen import SimDesign, simulate
from conftest import (all_channel_stick_counts, label_conditioned_alloc_update,
                      label_conditioned_weights, make_hyperparams,
                      naive_cluster_conditionals, random_state_and_workspace,
                      reference_dirichlet_rows, reference_gamma_draw,
                      reference_normal_draw, reference_truncated_gamma_batch)


@pytest.fixture(scope="module")
def tiny_problem():
    design = SimDesign(n_subjects=6, n_channels=5, n_timepoints=24,
                       n_group_a=3, snr=6.0, seed=0)
    data, _ = simulate(design)
    basis = fit_fpca(data)
    hp = estimate_hyperparams(basis, data.group_codes)
    return data, basis, hp


# ---------------------------------------------------------------------------
# Truncated-gamma sampler
# ---------------------------------------------------------------------------

def _quad_moments(shape, rate, lower):
    """Mean and variance of the truncated gamma by direct quadrature.

    The integrand is rescaled by its value at the truncation point so
    far-tail cases stay well inside double range.
    """
    if lower > 0:
        def dens(y):
            return (1.0 + y / lower) ** (shape - 1.0) * np.exp(-rate * y)
    else:
        def dens(y):
            return y ** (shape - 1.0) * np.exp(-rate * y)
    norm = quad(dens, 0, np.inf, limit=200)[0]
    mean_y = quad(lambda y: y * dens(y), 0, np.inf, limit=200)[0] / norm
    var = quad(lambda y: (y - mean_y) ** 2 * dens(y), 0, np.inf, limit=200)[0] / norm
    return lower + mean_y, var


@pytest.mark.parametrize("shape,rate,lower", [
    (2.0, 1.0, 0.0),     # untruncated: bulk, plain gamma draws
    (2.0, 1.5, 4.0),     # past the bulk, shifted-exponential rejection
    (0.5, 3.0, 0.5),     # shape below 1 past the bulk, two-piece envelope
    (3.0, 1.0, 40.0),    # deep tail, shifted-exponential rejection
    (0.0, 2.0, 1.0),     # zero shape: proper only when truncated
    (0.5, 1.0, 40.0),    # deep tail with decreasing power part
    (-0.5, 2.0, 1.0),    # negative shape (steeper-than-flat power part)
])
def test_truncated_gamma_moments_match_quadrature(shape, rate, lower):
    rng = np.random.default_rng(20)
    draws = np.array([truncated_gamma_sample(rng, shape, rate, lower)
                      for _ in range(100_000)])
    assert draws.min() > lower
    mean, var = _quad_moments(shape, rate, lower)
    assert draws.mean() == pytest.approx(mean, rel=0.01)
    assert draws.std() == pytest.approx(np.sqrt(var), rel=0.01)


def test_truncated_gamma_batch_mixes_paths(monkeypatch):
    # one batched call holding bulk entries (truncation point at most one
    # sd above the mean) and entries past the bulk (zero shape, deep tail,
    # about three sd above the mean), interleaved; only the latter may
    # reach the scalar rejection sampler
    bulk_cases = [(2.0, 1.0, 0.0), (2.0, 1.5, 1.0)]
    scalar_cases = [(0.0, 2.0, 1.0), (3.0, 1.0, 40.0), (2.0, 1.5, 4.0)]
    cases = [bulk_cases[0], scalar_cases[0], bulk_cases[1], scalar_cases[1],
             scalar_cases[2]]
    per_case = 100_000
    shape, rate, lower = (np.tile([c[i] for c in cases], per_case) for i in range(3))
    calls = []
    tail = mlpp.sampler._truncated_gamma_tail

    def counted(*args):
        calls.append(args)
        return tail(*args)

    monkeypatch.setattr(mlpp.sampler, "_truncated_gamma_tail", counted)
    draws = truncated_gamma_batch(np.random.default_rng(23), shape, rate, lower)
    assert len(calls) == len(scalar_cases) * per_case
    assert {tuple(float(v) for v in args[1:]) for args in calls} == set(scalar_cases)
    assert np.all(draws > lower)
    for case, (a, b, low) in enumerate(cases):
        sample = draws[case::len(cases)]
        mean, var = _quad_moments(a, b, low)
        assert sample.mean() == pytest.approx(mean, rel=0.01)
        assert sample.std() == pytest.approx(np.sqrt(var), rel=0.01)
    with pytest.raises(ValueError, match="rate"):
        truncated_gamma_batch(np.random.default_rng(0), [1.0], [0.0], [1.0])


@pytest.mark.parametrize("sds_above_mean, bulk", [(0.99, True), (1.0, True), (1.01, False)])
def test_truncated_gamma_bulk_boundary_matches_exact_law(sds_above_mean, bulk):
    # shape 200 has a coefficient of variation of about 0.07, too small for
    # a moment check to see a wrong law on either side of the split; at 1.0
    # rate * lower is exactly shape + sqrt(shape), since the rate is 2
    shape, rate = 200.0, 2.0
    lower = (shape + sds_above_mean * np.sqrt(shape)) / rate
    assert bool(mlpp.sampler._in_bulk(shape, rate, lower)) == bulk
    n = 100_000
    draws = truncated_gamma_batch(np.random.default_rng(31), np.full(n, shape),
                                  np.full(n, rate), np.full(n, lower))
    assert draws.min() > lower
    law = gamma(shape, scale=1.0 / rate)
    tail = law.sf(lower)
    assert kstest(draws, lambda x: 1.0 - law.sf(x) / tail).pvalue > 0.01


class _CountingGenerator:
    """A numpy Generator that counts the variates it hands out."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.variates = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.variates += np.size(out)
            return out
        return counted


@pytest.mark.parametrize("shape", [0.001, 0.1, 0.49])
def test_truncated_gamma_small_shapes_take_bounded_draws(shape):
    # positive shapes below 0.5 with the truncation point one sd above the
    # mean: plain rejection from the gamma took 328 draws per entry at
    # shape 0.001; the two-piece envelope takes a few
    rate = 1.0
    lower = (shape + np.sqrt(shape)) / rate
    assert not mlpp.sampler._in_bulk(shape, rate, lower)
    n = 10_000
    rng = _CountingGenerator(37)
    draws = truncated_gamma_batch(rng, np.full(n, shape), np.full(n, rate),
                                  np.full(n, lower))
    assert rng.variates < 10 * n
    assert draws.min() > lower
    law = gamma(shape, scale=1.0 / rate)
    tail = law.sf(lower)
    assert kstest(draws, lambda x: 1.0 - law.sf(x) / tail).pvalue > 0.01


def test_truncated_gamma_near_flat_regime():
    # tiny rate with zero shape: the target is nearly log-uniform over
    # several decades; check the median against the analytic tail ratio
    rate, lower = 1e-6, 1.0
    rng = np.random.default_rng(21)
    draws = np.array([truncated_gamma_sample(rng, 0.0, rate, lower)
                      for _ in range(4000)])
    assert draws.min() > lower
    assert np.all(np.isfinite(draws))
    target = exp1(rate * lower)
    median = brentq(lambda x: exp1(rate * x) - 0.5 * target, lower, 1e9)
    frac_below = np.mean(draws < median)
    assert abs(frac_below - 0.5) < 0.025


def test_truncated_gamma_validation():
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError, match="rate"):
        truncated_gamma_sample(rng, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="truncation"):
        truncated_gamma_sample(rng, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="truncation"):
        truncated_gamma_sample(rng, -1.0, 1.0, -2.0)


# ---------------------------------------------------------------------------
# Conjugate-update oracles
# ---------------------------------------------------------------------------

def _prior_params_by_label(state, subj, chan, dim):
    lab = state.cluster_label[subj, chan, dim]
    if lab == 1:
        return state.common_mean[dim], state.common_prec[dim]
    if lab in (2, 3):
        return state.group_mean[dim, lab - 2], state.group_prec[dim, lab - 2]
    return state.subject_mean[subj, dim, lab - 4], state.subject_prec[subj, dim, lab - 4]


def test_score_update_matches_closed_form():
    state, _, ws, _ = random_state_and_workspace(1)
    u, n, k = state.scores.shape
    for dim in range(k):
        mean, var = score_update_params(state, ws, dim)
        for subj in range(u):
            for chan in range(n):
                cross = sum(state.scores[subj, chan, l] * ws.gram[l, dim]
                            for l in range(k) if l != dim)
                mu0, s0 = _prior_params_by_label(state, subj, chan, dim)
                v = 1.0 / (state.noise_prec * ws.gram[dim, dim] + s0)
                m = v * (state.noise_prec * (ws.proj[subj, chan, dim] - cross)
                         + s0 * mu0)
                assert var[subj, chan] == pytest.approx(v, abs=1e-10, rel=1e-10)
                assert mean[subj, chan] == pytest.approx(m, abs=1e-10, rel=1e-10)


def test_score_update_prior_only():
    state, _, ws, _ = random_state_and_workspace(2)
    mean, var = score_update_params(state, data_free_workspace(ws), 0)
    means_z, precs_z = cluster_params_for_labels(state)
    np.testing.assert_allclose(mean, means_z[:, :, 0], atol=1e-12)
    np.testing.assert_allclose(var, 1.0 / precs_z[:, :, 0], atol=1e-12)


def test_sufficient_ssr_matches_direct_residual_sum():
    for seed in range(5):
        state, _, ws, _ = random_state_and_workspace(seed)
        assert ws.centred_sq == pytest.approx(float(np.sum(ws.centred ** 2)),
                                              rel=1e-14)
        direct = residual_ssr(state.scores, ws.centred, ws.eigenfunctions)
        assert abs(sufficient_ssr(state.scores, ws) - direct) \
            <= 1e-12 * ws.centred_sq


def test_sufficient_ssr_nonnegative_on_noiseless_data():
    # exact fits: the direct residual sum is zero, and the expansion can
    # only round around it, so the clamp must keep it at or above zero
    for seed in range(20):
        state, _, ws, _ = random_state_and_workspace(seed)
        exact = fitted_curves(state.scores, ws.eigenfunctions)
        noiseless = Workspace(centred=exact, proj=exact @ ws.eigenfunctions,
                              gram=ws.gram, eigenfunctions=ws.eigenfunctions,
                              group_codes=ws.group_codes)
        ssr = sufficient_ssr(state.scores, noiseless)
        assert 0.0 <= ssr <= 1e-12 * noiseless.centred_sq
    design = SimDesign(n_subjects=6, n_channels=5, n_timepoints=24,
                       n_group_a=3, snr=np.inf, seed=1)
    data, _ = simulate(design)
    basis = fit_fpca(data, var_threshold=1.0)
    ws = make_workspace(data, basis)
    direct = residual_ssr(basis.scores, ws.centred, ws.eigenfunctions)
    ssr = sufficient_ssr(basis.scores, ws)
    assert ssr >= 0.0
    assert abs(ssr - direct) <= 1e-12 * ws.centred_sq


def test_noise_precision_update_matches_closed_form():
    state, hp, ws, _ = random_state_and_workspace(3)
    u, n, t = ws.centred.shape
    shape, rate = noise_prec_params(state, ws, hp)
    ssr = 0.0
    for subj in range(u):
        for chan in range(n):
            fitted = ws.eigenfunctions @ state.scores[subj, chan]
            ssr += float(np.sum((ws.centred[subj, chan] - fitted) ** 2))
    assert shape == pytest.approx(hp.noise_prec_shape + 0.5 * u * n * t, rel=1e-12)
    assert rate == pytest.approx(hp.noise_prec_rate + 0.5 * ssr, rel=1e-10)


def test_category_weight_update_matches_counts():
    state, hp, _, _ = random_state_and_workspace(4, u=9)
    conc = category_weight_params(state, hp)
    for dim in range(state.n_components):
        for cat in (1, 2, 3):
            count = sum(1 for subj in range(9)
                        if state.subject_alloc[subj, dim] == cat)
            assert conc[dim, cat - 1] == hp.category_conc[cat - 1] + count


_SHAPES = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple)


def _same_generators(left, right):
    assert left.bit_generator.state == right.bit_generator.state
    assert left.random() == right.random()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=_SHAPES)
def test_plain_normal_variates_match_rng_normal(seed, shape):
    # the cluster-mean draw of update_cluster_params
    params = np.random.default_rng(seed)
    loc, scale = params.normal(0.0, 3.0, shape), params.uniform(1e-3, 5.0, shape)
    rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    draws = loc + scale * rng.standard_normal(loc.shape)
    np.testing.assert_array_equal(draws, reference_normal_draw(ref, loc, scale))
    _same_generators(rng, ref)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=_SHAPES)
def test_plain_gamma_variates_match_rng_gamma(seed, shape):
    # the bulk rounds of truncated_gamma_batch, shapes on both sides of 1
    params = np.random.default_rng(seed)
    a, b = params.uniform(0.05, 30.0, shape), params.uniform(0.1, 10.0, shape)
    rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    np.testing.assert_array_equal(rng.standard_gamma(a) / b,
                                  reference_gamma_draw(ref, a) / b)
    _same_generators(rng, ref)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40))
def test_truncated_gamma_batch_matches_per_entry_checked_reference(seed, size):
    # the cluster-precision draw: bulk entries, tail entries of every
    # branch (shape above 1, shape in (0, 1], shape 0 and negative, shapes
    # below 0.5 truncated) and untruncated ones, interleaved
    params = np.random.default_rng(seed)
    shape = params.choice([-1.5, 0.0, 0.1, 0.5, 1.0, 2.5, 7.0], size) \
        + params.uniform(0.0, 0.4, size) * params.integers(0, 2, size)
    rate = params.uniform(0.1, 5.0, size)
    lower = params.choice([0.0, 0.2, 1.0, 5.0, 40.0], size) * params.uniform(0.5, 2.0, size)
    lower[(shape <= 0) & (lower <= 0)] = 1.0
    rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    np.testing.assert_array_equal(truncated_gamma_batch(rng, shape, rate, lower),
                                  reference_truncated_gamma_batch(ref, shape, rate, lower))
    _same_generators(rng, ref)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), u=st.integers(2, 12), k=st.integers(1, 4),
       conc=st.lists(st.floats(0.01, 3.0), min_size=3, max_size=3))
def test_category_weight_draw_matches_rowwise_dirichlet(seed, u, k, conc):
    state, hp, _, _ = random_state_and_workspace(seed, u=u, k=k)
    hp.category_conc = np.array(conc)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    update_category_weights(state, hp, rng)
    expected = np.maximum(reference_dirichlet_rows(ref, category_weight_params(state, hp)),
                          1e-300)
    np.testing.assert_array_equal(state.category_weights, expected)
    _same_generators(rng, ref)


def test_stick_update_matches_closed_form():
    # counted among category-3 subjects; the all-channel counts of the
    # uncollapsed variant (tests/conftest.py) follow the same closed form
    # and equal the sampler's once every subject is in category 3
    state, hp, _, _ = random_state_and_workspace(5, u=8, n=6)
    u, n, k = state.scores.shape
    j = state.max_subject_clusters
    everyone = state.copy()
    everyone.subject_alloc[:] = 3
    np.testing.assert_array_equal(stick_counts(everyone), all_channel_stick_counts(state))
    for include_all in (False, True):
        a, b = stick_params(everyone if include_all else state, hp)
        for dim in range(k):
            for col, code in ((0, 2), (1, 3)):
                counts = np.zeros(j)
                for subj in range(u):
                    if state.group_codes[subj] != code:
                        continue
                    if not include_all and state.subject_alloc[subj, dim] != 3:
                        continue
                    for chan in range(n):
                        counts[state.channel_alloc[subj, chan, dim] - 4] += 1
                for lab in range(j):
                    assert a[dim, col, lab] == 1.0 + counts[lab]
                    assert b[dim, col, lab] == hp.stick_conc[dim] + counts[lab + 1:].sum()


def test_subject_alloc_weights_closed_form():
    _check_alloc_weights_closed_form(k=2)


def test_subject_alloc_weights_closed_form_one_dimension():
    _check_alloc_weights_closed_form(k=1)


def _check_alloc_weights_closed_form(k):
    state, _, _, _ = random_state_and_workspace(6, k=k)
    u, n, k = state.scores.shape
    assert alloc_log_weights(state)[0].shape == (k, u, 3)
    for dim in range(k):
        weights = alloc_log_weights(state)[0][dim]
        gidx = state.group_codes - 2
        for subj in range(u):
            x = state.scores[subj, :, dim]
            mix = state.stick_weights[dim, gidx[subj]]

            def logn(v, mu, prec):
                return 0.5 * (np.log(prec) - np.log(2 * np.pi)) \
                    - 0.5 * prec * (v - mu) ** 2

            w1 = np.log(state.category_weights[dim, 0]) + sum(
                logn(v, state.common_mean[dim], state.common_prec[dim]) for v in x)
            w2 = np.log(state.category_weights[dim, 1]) + sum(
                logn(v, state.group_mean[dim, gidx[subj]],
                     state.group_prec[dim, gidx[subj]]) for v in x)
            w3 = np.log(state.category_weights[dim, 2]) + sum(
                np.log(sum(mix[lab] * np.exp(logn(
                    v, state.subject_mean[subj, dim, lab],
                    state.subject_prec[subj, dim, lab]))
                    for lab in range(mix.size))) for v in x)
            np.testing.assert_allclose(weights[subj], [w1, w2, w3],
                                       atol=1e-9, rtol=1e-9)


def test_conditioned_weight_uses_current_labels():
    # with channel labels held fixed their stick prior cancels, so the
    # category-3 weight is the label-conditional density alone
    state, _, _, _ = random_state_and_workspace(7)
    u, n, k = state.scores.shape
    for dim in range(k):
        cond = label_conditioned_weights(state, dim)
        coll = alloc_log_weights(state)[0][dim]
        for subj in range(u):
            manual = 0.0
            for chan in range(n):
                lab = state.channel_alloc[subj, chan, dim] - 4
                prec = state.subject_prec[subj, dim, lab]
                manual += 0.5 * (np.log(prec) - np.log(2 * np.pi)) - 0.5 * prec * (
                    state.scores[subj, chan, dim] - state.subject_mean[subj, dim, lab]) ** 2
            target = np.log(state.category_weights[dim, 2]) + manual
            assert cond[subj, 2] == pytest.approx(target, rel=1e-12)
        np.testing.assert_allclose(coll[:, :2], cond[:, :2], atol=1e-12)


def test_channel_posterior_matches_mixture_weights():
    _check_channel_posterior(k=2)


def test_channel_posterior_matches_mixture_weights_one_dimension():
    _check_channel_posterior(k=1)


def _check_channel_posterior(k):
    # the unnormalized channel posterior is proportional, per channel, to
    # stick weight times subject-cluster density
    state, _, _, _ = random_state_and_workspace(13, k=k)
    u, n, k = state.scores.shape
    assert alloc_log_weights(state)[1].shape == (state.max_subject_clusters, k, u, n)
    gidx = state.group_codes - 2
    for dim in range(k):
        chan_post = np.moveaxis(alloc_log_weights(state)[1][:, dim], 0, 2)
        for subj in range(u):
            for chan in range(n):
                dens = [state.stick_weights[dim, gidx[subj], lab]
                        * np.sqrt(state.subject_prec[subj, dim, lab] / (2 * np.pi))
                        * np.exp(-0.5 * state.subject_prec[subj, dim, lab]
                                 * (state.scores[subj, chan, dim]
                                    - state.subject_mean[subj, dim, lab]) ** 2)
                        for lab in range(state.max_subject_clusters)]
                np.testing.assert_allclose(
                    chan_post[subj, chan] / chan_post[subj, chan].sum(),
                    np.array(dens) / sum(dens), rtol=1e-10)


def test_cluster_conditionals_match_naive_loop():
    for seed in (14, 15, 16):
        state, hp, _, rng = random_state_and_workspace(seed, u=7, n=5)
        state.subject_alloc[0] = 3            # some subject clusters occupied
        state.subject_alloc[1] = [1, 2]
        u, _, k = state.scores.shape
        j = state.max_subject_clusters
        means = rng.normal(0.0, 1.0, (k, 3 + u * j))
        slots = {("common", d): (d, 0) for d in range(k)}
        slots.update({("group", d, c): (d, 1 + c) for d in range(k) for c in range(2)})
        slots.update({("subject", s, d, lab): (d, 3 + s * j + lab)
                      for s in range(u) for d in range(k) for lab in range(j)})
        naive = naive_cluster_conditionals(
            state, hp, {key: means[pos] for key, pos in slots.items()})
        index = cluster_index(state)
        counts = cluster_counts(state, index)
        prior = cluster_prior(hp, state.group_codes)
        loc, prec = cluster_mean_params(state, prior, index, counts)
        shape, rate = cluster_prec_params(state, index, counts, means)
        bound = prior[2]
        occupied = 0
        for key, pos in slots.items():
            m, loc_ref, prec_ref, shape_ref, rate_ref, bound_ref = naive[key]
            assert counts[pos] == m
            assert loc[pos] == pytest.approx(loc_ref, rel=1e-12, abs=1e-12)
            assert prec[pos] == pytest.approx(prec_ref, rel=1e-12)
            assert shape[pos] == shape_ref
            assert rate[pos] == pytest.approx(rate_ref, rel=1e-12, abs=1e-300)
            assert bound[pos] == bound_ref
            occupied += key[0] == "subject" and m > 0
        assert occupied > 0


def test_empty_cluster_draws_stay_inside_prior_bounds():
    # small subjects with six subject clusters each: most clusters are
    # empty (prior redraw) and many hold one score (shape 0); every draw
    # must respect its sd bound and stay finite
    state, hp, _, rng = random_state_and_workspace(8, u=6, n=4)
    state.subject_alloc[:] = 3
    counts = np.bincount(cluster_index(state).ravel())
    assert np.any(counts == 0) and np.any(counts == 1)
    for _ in range(200):
        update_cluster_params(state, hp, rng)
        validate_state(state, hp)
        assert np.all(np.isfinite(state.subject_mean))
        assert np.all(np.isfinite(state.common_mean))


def test_alloc_update_keeps_state_valid():
    state, hp, _, rng = random_state_and_workspace(9)
    for _ in range(25):
        update_subject_alloc(state, rng)
        validate_state(state)
    for _ in range(25):
        label_conditioned_alloc_update(state, rng)
        validate_state(state)
        update_subject_alloc(state, rng)
        validate_state(state)


def test_alloc_update_draws_each_cell_from_its_conditional():
    # every dimension's categories and every category-3 row's labels come
    # from one call each: each (dimension, subject) cell must still follow
    # its own weights, and each label its own row's posterior
    state, _, _, rng = random_state_and_workspace(21, u=4, n=2, k=3, j=3)
    state.category_weights[:] = [0.25, 0.25, 0.5]
    state.scores *= 0.3
    weights, chan_post = alloc_log_weights(state)
    cat_p = np.exp(weights - weights.max(axis=2, keepdims=True))
    cat_p /= cat_p.sum(axis=2, keepdims=True)                    # (K, U, 3)
    label_p = chan_post / chan_post.sum(axis=0)                  # (J, K, U, n)
    draws = 20000
    cat_counts = np.zeros((3, 4, 3))
    label_counts = np.zeros((3, 3, 4, 2))
    for _ in range(draws):
        update_subject_alloc(state, rng)
        cat = state.subject_alloc.T                              # (K, U)
        cat_counts[np.arange(3)[:, None], np.arange(4), cat - 1] += 1
        dims, subjects = np.nonzero(cat == 3)
        for chan in range(2):
            labels = state.channel_alloc[subjects, chan, dims] - 4
            label_counts[labels, dims, subjects, chan] += 1
    in_three = cat_counts[:, :, 2]                               # (K, U)
    assert in_three.min() > 100
    # two-sided binomial tail of every cell's count, Bonferroni at 1e-3
    counts = np.concatenate([cat_counts.ravel(), label_counts.ravel()])
    trials = np.concatenate([np.full(cat_counts.size, draws),
                             np.broadcast_to(in_three[:, :, None], label_counts.shape).ravel()])
    probs = np.concatenate([cat_p.ravel(), label_p.ravel()])
    tails = np.minimum(binom.cdf(counts, trials, probs), binom.sf(counts - 1, trials, probs))
    assert 2 * tails.min() > 1e-3 / counts.size


def test_alloc_update_raises_on_underflow_before_drawing():
    # a score so far out that every category's log weight is -inf in
    # dimension 2: the update names that dimension and draws nothing
    state, _, _, rng = random_state_and_workspace(20)
    state.scores[1, 2, 1] = 1e200
    before = state.copy()
    with pytest.raises(SamplerError, match="underflowed in dimension 2"), \
            np.errstate(over="ignore", invalid="ignore"):
        update_subject_alloc(state, rng)
    np.testing.assert_array_equal(state.subject_alloc, before.subject_alloc)
    np.testing.assert_array_equal(state.channel_alloc, before.channel_alloc)


def test_alloc_update_keeps_labels_outside_category_three():
    # only category-3 rows are read, so only they are redrawn
    state, _, _, rng = random_state_and_workspace(11)
    kept = 0
    for _ in range(25):
        before = state.channel_alloc.copy()
        update_subject_alloc(state, rng)
        outside = np.broadcast_to((state.subject_alloc != 3)[:, None, :],
                                  before.shape)
        np.testing.assert_array_equal(state.channel_alloc[outside], before[outside])
        kept += outside.sum()
    assert 0 < kept < 25 * before.size


def test_likelihood_off_noise_precision_follows_prior():
    state, hp, ws, rng = random_state_and_workspace(10)
    ws = data_free_workspace(ws)
    draws = []
    for _ in range(2000):
        update_noise_prec(state, ws, hp, rng)
        draws.append(state.noise_prec)
    # Gamma(2, 2): mean 1, sd 1/sqrt(2)
    assert np.mean(draws) == pytest.approx(1.0, abs=0.06)
    assert np.std(draws) == pytest.approx(np.sqrt(0.5), rel=0.1)


# ---------------------------------------------------------------------------
# Whole-chain behavior
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="init_mode"):
        SamplerConfig(n_iter=10, init_mode="warm")
    with pytest.raises(ValueError, match="burn_in"):
        SamplerConfig(n_iter=10, burn_in=10)
    with pytest.raises(ValueError, match="thin"):
        SamplerConfig(n_iter=10, thin=0)
    with pytest.raises(ValueError, match="no draws"):
        SamplerConfig(n_iter=10, burn_in=8, thin=5)
    with pytest.raises(ValueError, match="n_chains"):
        SamplerConfig(n_iter=10, n_chains=0)
    for name in ("seed", "audit_every", "checkpoint_every"):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
            SamplerConfig(n_iter=10, **{name: -1})
    assert SamplerConfig(n_iter=9, burn_in=3, thin=2).n_draws == 3


def test_initial_states_are_valid(tiny_problem):
    data, basis, hp = tiny_problem
    ws = make_workspace(data, basis)
    rng = np.random.default_rng(0)
    emp = initial_state_empirical(basis, hp, ws)
    validate_state(emp, hp)
    np.testing.assert_array_equal(emp.scores, basis.scores)
    assert set(np.unique(emp.subject_alloc)) == {1}
    prior = draw_state_from_prior(hp, data.n_subjects, data.n_channels,
                                  data.group_codes, rng)
    validate_state(prior, hp)
    assert prior.scores.shape == basis.scores.shape


def test_prior_draws_follow_the_prior_in_every_cluster_slot():
    # K=2, J=3 and two subjects per group: 15 grid slots per dimension,
    # each dimension and group with its own prior constants
    rng = np.random.default_rng(0)
    hp = make_hyperparams(rng, k=2, j=3)
    group_codes = np.array([2, 2, 3, 3])
    loc, prec, bound = cluster_prior(hp, group_codes)
    draws = 4000
    z = np.empty((draws,) + loc.shape)
    sd_share = np.empty_like(z)
    for i in range(draws):
        state = draw_state_from_prior(hp, 4, 2, group_codes, rng)
        z[i] = (state.cluster_mean - loc) * np.sqrt(prec)
        sd_share[i] = state.cluster_prec ** -0.5 / bound
    # 90 checks at 4 standard errors each
    assert np.all(np.abs(z.mean(axis=0)) < 4.0 / np.sqrt(draws))
    assert np.all(np.abs(z.var(axis=0, ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / draws))
    assert np.all((sd_share > 0.0) & (sd_share < 1.0))
    assert np.all(np.abs(sd_share.mean(axis=0) - 0.5) < 4.0 / np.sqrt(12.0 * draws))


def test_run_chain_is_deterministic(tiny_problem):
    data, basis, hp = tiny_problem
    cfg = SamplerConfig(n_iter=40, burn_in=10, thin=2, seed=7)
    a = run_chain(data, basis, hp, cfg)
    b = run_chain(data, basis, hp, cfg)
    np.testing.assert_array_equal(a.scalars, b.scalars)
    np.testing.assert_array_equal(a.subject_alloc_draws, b.subject_alloc_draws)
    np.testing.assert_array_equal(a.channel_alloc_draws, b.channel_alloc_draws)
    assert a.scalars.shape == (15, len(scalar_names(basis.n_components, 2)))
    assert a.n_draws == cfg.n_draws


def _state_bytes(state):
    return b"".join(np.ascontiguousarray(getattr(state, name)).tobytes() for name in (
        "scores", "noise_prec", "subject_alloc", "channel_alloc", "cluster_mean",
        "cluster_prec", "category_weights", "raw_sticks", "stick_weights"))


@pytest.mark.parametrize("k", [1, 2])
def test_gibbs_scan_same_bytes_with_and_without_chain_constants(tiny_problem,
                                                                monkeypatch, k):
    # the constants run_chain passes to gibbs_scan, and those gibbs_scan
    # builds for itself when called without them, give the same scans
    data, basis, hp = tiny_problem
    seen = []
    scan = mlpp.sampler.gibbs_scan

    def recording(*args, **kwargs):
        seen.append(kwargs["consts"])
        return scan(*args, **kwargs)

    monkeypatch.setattr(mlpp.sampler, "gibbs_scan", recording)
    run_chain(data, basis, hp, SamplerConfig(n_iter=2, seed=1))
    assert seen[0] is seen[1]
    monkeypatch.undo()
    if k == 1:
        _, hp, ws, _ = random_state_and_workspace(19, u=6, n=5, k=1)
        consts = chain_constants(hp, ws.group_codes)
    else:
        ws, consts = make_workspace(data, basis), seen[0]
    assert ws.proj.shape[2] == k
    start = draw_state_from_prior(hp, *ws.proj.shape[:2], ws.group_codes,
                                  np.random.default_rng(2))
    states = [start.copy(), start.copy()]
    for given in (None, consts):
        state = states[given is not None]
        rng = np.random.default_rng(3)
        for _ in range(30):
            gibbs_scan(state, ws, hp, rng, consts=given)
    assert _state_bytes(states[0]) == _state_bytes(states[1])


def _replication_like(snr, k, seed):
    # the library path of the benchmark's replication study at its size:
    # 20 subjects x 20 channels x 100 time points, smoothed, and the fPCA
    # threshold set so that k components are kept
    design = SimDesign(n_subjects=20, n_channels=20, n_timepoints=100,
                       n_group_a=10, snr=snr, seed=seed)
    data, _ = simulate(design)
    smoothed = smooth_dataset(data, 25, None)
    basis = fit_fpca(smoothed, var_threshold=0.8 if k == 2 else 0.01)
    assert basis.n_components == k
    return smoothed, basis, estimate_hyperparams(basis, data.group_codes)


@pytest.mark.parametrize("init_mode", ["empirical", "prior_draw"])
@pytest.mark.parametrize("snr", [6.0, 2.0])
@pytest.mark.parametrize("k", [1, 2])
def test_replication_size_chains_keep_archive_invariants(k, snr, init_mode):
    # the output checks of the benchmark's replication workload: finite
    # scalars, categories in {1, 2, 3}, channel labels -1 exactly off
    # category 3 and in 4..3+J on it, and repeat chains of one seed equal
    # byte for byte
    data, basis, hp = _replication_like(snr, k, seed=int(snr) * 10 + k)
    cfg = SamplerConfig(n_iter=120, burn_in=20, thin=2, seed=5, init_mode=init_mode)
    archive = run_chain(data, basis, hp, cfg)
    assert np.isfinite(archive.scalars).all()
    cats = archive.subject_alloc_draws
    assert np.isin(cats, (1, 2, 3)).all()
    own = np.broadcast_to((cats == 3)[:, :, None, :], archive.channel_alloc_draws.shape)
    chan = archive.channel_alloc_draws
    np.testing.assert_array_equal(chan == -1, ~own)
    assert np.all((chan[own] >= 4) & (chan[own] < 4 + hp.max_subject_clusters))
    again = run_chain(data, basis, hp, cfg)
    for left, right in ((archive.scalars, again.scalars), (cats, again.subject_alloc_draws),
                        (chan, again.channel_alloc_draws)):
        assert left.tobytes() == right.tobytes()


def test_audit_passes_in_all_sampler_variants(tiny_problem):
    data, basis, hp = tiny_problem
    for init_mode in ("empirical", "prior_draw"):
        cfg = SamplerConfig(n_iter=40, seed=3, audit_every=1, init_mode=init_mode)
        archive = run_chain(data, basis, hp, cfg)
        assert archive.n_draws == 40


def test_audit_catches_tampered_workspace_and_ssr():
    state, hp, ws, rng = random_state_and_workspace(17)
    ssr = gibbs_scan(state, ws, hp, rng)
    _audit(state, ws, hp, ssr, 1)
    with pytest.raises(SamplerError, match="residual sum of squares"):
        _audit(state, ws, hp, ssr * (1.0 + 1e-6), 1)

    ws.proj = ws.proj + 1e-3                  # projections out of step with curves
    ssr = gibbs_scan(state, ws, hp, rng)
    with pytest.raises(SamplerError, match="residual sum of squares"):
        _audit(state, ws, hp, ssr, 2)

    # a finite noise precision so large that the log likelihood overflows
    # passes validate_state and is caught by the log-joint check; an
    # infinite one is rejected by validate_state itself
    state, hp, ws, rng = random_state_and_workspace(18)
    ssr = gibbs_scan(state, ws, hp, rng)
    state.noise_prec = 1e308
    direct = residual_ssr(state.scores, ws.centred, ws.eigenfunctions)
    with pytest.raises(SamplerError, match="log joint"):
        _audit(state, ws, hp, direct, 3)
    state.noise_prec = np.inf
    with pytest.raises(ValueError, match="finite and positive"):
        _audit(state, ws, hp, direct, 3)


def test_kept_draw_rule(tiny_problem):
    data, basis, hp = tiny_problem
    cfg = SamplerConfig(n_iter=9, burn_in=3, thin=2, seed=1)
    archive = run_chain(data, basis, hp, cfg)
    assert archive.n_draws == 3
    full = run_chain(data, basis, hp, SamplerConfig(n_iter=9, seed=1))
    # the same chain sampled without thinning holds the kept rows at 5, 7, 9
    np.testing.assert_array_equal(archive.scalars, full.scalars[[4, 6, 8]])


def test_checkpoint_resume_reproduces_uninterrupted_chain(tiny_problem, tmp_path):
    data, basis, hp = tiny_problem
    cfg = SamplerConfig(n_iter=60, burn_in=10, thin=2, seed=5,
                        checkpoint_every=25)
    straight = run_chain(data, basis, hp, cfg)
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    with_ckpt = run_chain(data, basis, hp, cfg, checkpoint_dir=ckpt)
    np.testing.assert_array_equal(straight.scalars, with_ckpt.scalars)
    resumed = run_chain(data, basis, hp, cfg, resume_from=ckpt)
    np.testing.assert_array_equal(straight.scalars, resumed.scalars)
    np.testing.assert_array_equal(straight.subject_alloc_draws,
                                  resumed.subject_alloc_draws)
    np.testing.assert_array_equal(straight.channel_alloc_draws,
                                  resumed.channel_alloc_draws)


def _force_pool(monkeypatch):
    # two usable CPUs and no work threshold: every multi-chain run is pooled
    monkeypatch.setattr(mlpp.sampler, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(mlpp.sampler, "usable_cpus", lambda: 2)


def test_chain_workers_follow_chains_cpus_work_and_fork(monkeypatch):
    enough = mlpp.sampler.POOL_MIN_WORK

    def cpus(*ids):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(ids), raising=False)

    cpus(0)
    assert chain_workers(4, enough) == 1
    cpus(0, 1, 2)
    assert chain_workers(1, 10 * enough) == 1
    assert chain_workers(2, enough - 1) == 1
    assert chain_workers(2, enough) == 2
    assert chain_workers(4, enough) == 3
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert chain_workers(4, enough) == 1


# The usable-CPU count caps the workers.  A reading of no CPUs, an empty
# affinity set or os.cpu_count() of None where there is no affinity, is
# not taken as the cap: the chains run serially, not in a pool of 0.
@pytest.mark.parametrize("cap", [0, None])
def test_worker_count_rejects_malformed_thread_cap(monkeypatch, cap):
    if cap is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(), raising=False)
    assert mlpp.sampler.usable_cpus() == 1
    assert chain_workers(2, mlpp.sampler.POOL_MIN_WORK) == 1


def _check_pool_matches_serial(problem, monkeypatch, n_chains):
    data, basis, hp = problem
    cfg = SamplerConfig(n_iter=30, burn_in=10, seed=11, n_chains=n_chains)
    work = cfg.n_iter * data.n_subjects * data.n_channels * basis.n_components
    assert chain_workers(cfg.n_chains, work) == 1
    serial = run_chains(data, basis, hp, cfg)
    assert len(serial) == n_chains
    assert not np.array_equal(serial[0].scalars, serial[1].scalars)
    _force_pool(monkeypatch)
    parallel = run_chains(data, basis, hp, cfg)
    for left, right in zip(serial, parallel, strict=True):
        for name in ("scalars", "subject_alloc_draws", "channel_alloc_draws"):
            a, b = getattr(left, name), getattr(right, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


def test_multichain_parallel_matches_serial(tiny_problem, monkeypatch):
    _check_pool_matches_serial(tiny_problem, monkeypatch, 2)


def test_three_chains_on_two_workers_match_serial(tiny_problem, monkeypatch):
    # this process runs chains 0 and 2, the forked worker chain 1
    _check_pool_matches_serial(tiny_problem, monkeypatch, 3)


def test_pooled_chains_leave_no_process(tiny_problem, monkeypatch):
    data, basis, hp = tiny_problem
    _force_pool(monkeypatch)
    run = mlpp.sampler.run_chain

    def run_in_worker(*args, **kwargs):
        archive = run(*args, **kwargs)
        archive.meta["pid"] = os.getpid()
        return archive

    monkeypatch.setattr(mlpp.sampler, "run_chain", run_in_worker)
    archives = run_chains(data, basis, hp, SamplerConfig(n_iter=6, seed=3, n_chains=2))
    assert [a.meta["chain_index"] for a in archives] == [0, 1]
    # chain 0 ran in this process, chain 1 in a forked worker
    assert [a.meta["pid"] == os.getpid() for a in archives] == [True, False]
    assert multiprocessing.active_children() == []
    assert mlpp.sampler._POOL_JOBS == []


# Chain 0 fails in this process, chain 1 in the forked worker.
@pytest.mark.parametrize("failing", [0, 1])
def test_failing_pooled_chain_reaches_caller_and_leaves_no_process(tiny_problem,
                                                                   monkeypatch, failing):
    data, basis, hp = tiny_problem
    _force_pool(monkeypatch)
    run = mlpp.sampler.run_chain

    # the forked workers inherit this patch
    def fail_one(*args, chain_index=0, **kwargs):
        if chain_index == failing:
            raise SamplerError(f"chain {failing} went non-finite")
        return run(*args, chain_index=chain_index, **kwargs)

    monkeypatch.setattr(mlpp.sampler, "run_chain", fail_one)
    with pytest.raises(SamplerError, match=f"chain {failing} went non-finite"):
        run_chains(data, basis, hp, SamplerConfig(n_iter=6, seed=3, n_chains=2))
    assert multiprocessing.active_children() == []
    assert mlpp.sampler._POOL_JOBS == []


def test_archive_round_trip(tiny_problem, tmp_path):
    data, basis, hp = tiny_problem
    cfg = SamplerConfig(n_iter=30, burn_in=10, seed=2, n_chains=2)
    archives = run_chains(data, basis, hp, cfg)
    save_archives(archives, tmp_path, extra_meta={"note": "round trip"})
    back = load_archives(tmp_path)
    assert len(back) == 2
    for left, right in zip(archives, back):
        assert left.scalar_names == right.scalar_names
        np.testing.assert_array_equal(left.scalars, right.scalars)
        np.testing.assert_array_equal(left.subject_alloc_draws,
                                      right.subject_alloc_draws)
        np.testing.assert_array_equal(left.channel_alloc_draws,
                                      right.channel_alloc_draws)
        np.testing.assert_array_equal(left.group_codes, right.group_codes)


def test_archive_round_trip_without_subject_category(tiny_problem, tmp_path):
    # No draw has a category-3 subject: labels_eta.csv holds only its header.
    data, basis, hp = tiny_problem
    archive = run_chain(data, basis, hp, SamplerConfig(n_iter=12, burn_in=2, seed=4))
    archive.subject_alloc_draws[:] = 1
    archive.channel_alloc_draws[:] = -1
    save_archives([archive], tmp_path)
    assert (tmp_path / "chain_00" / "labels_eta.csv").read_text().count("\n") == 1
    back, = load_archives(tmp_path)
    assert back.channel_alloc_draws.dtype == np.int16
    assert back.subject_alloc_draws.dtype == np.int8
    np.testing.assert_array_equal(back.subject_alloc_draws, archive.subject_alloc_draws)
    np.testing.assert_array_equal(back.channel_alloc_draws, archive.channel_alloc_draws)


def test_channel_draws_masked_outside_subject_category(tiny_problem):
    data, basis, hp = tiny_problem
    cfg = SamplerConfig(n_iter=40, burn_in=10, seed=9)
    archive = run_chain(data, basis, hp, cfg)
    masked = archive.channel_alloc_draws == -1
    subject_side = np.broadcast_to(
        (archive.subject_alloc_draws != 3)[:, :, None, :], masked.shape)
    np.testing.assert_array_equal(masked, subject_side)
    stored = archive.channel_alloc_draws[~masked]
    assert stored.min() >= 4
    assert stored.max() < 4 + hp.max_subject_clusters


def test_check_finite_raises():
    state, _, _, _ = random_state_and_workspace(12)
    state.scores[0, 0, 0] = np.inf
    with pytest.raises(SamplerError, match="non-finite"):
        _check_finite(state, 3)


@pytest.mark.parametrize("name,field", [
    ("scores", "scores"), ("noise_prec", "noise_prec"), ("cluster_mean", "cluster_mean"),
    ("cluster_prec", "cluster_prec"), ("weights", "category_weights"),
    ("sticks", "stick_weights")])
def test_check_finite_names_the_array(name, field):
    state, _, _, _ = random_state_and_workspace(12)
    _check_finite(state, 3)
    if field == "noise_prec":
        state.noise_prec = np.nan
    else:
        getattr(state, field).flat[-1] = np.inf
    with pytest.raises(SamplerError, match=f"non-finite {name} after iteration 3"):
        _check_finite(state, 3)


def test_workspace_projections(tiny_problem):
    data, basis, _ = tiny_problem
    ws = make_workspace(data, basis)
    np.testing.assert_allclose(ws.centred, data.values - basis.mean_curve)
    np.testing.assert_allclose(ws.proj, ws.centred @ basis.eigenfunctions)
    np.testing.assert_allclose(ws.gram,
                               basis.eigenfunctions.T @ basis.eigenfunctions)
