"""Release gates: one test per acceptance criterion, tolerances pinned.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion (the sampler-correctness criterion splits into parts a and b).  Each test is self-contained and checks the implementation
against an oracle computed by independent means: bit-twiddling pair
counts for the partition metrics, numerical quadrature for the truncated
gamma sampler, analytic priors for the calibration checks, and planted
ground truth for the replication study.  The replication fixture runs
twenty full sampler fits and takes a few minutes; everything else is
fast.
"""
import itertools
import time
from math import log2

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from mlpp.cli import main as cli_main
from mlpp.diagnostics import effective_sample_size, split_rhat
from mlpp.fpca import FunctionalDataset, fit_fpca, smooth_dataset
from mlpp.hyperparams import (DEFAULT_CATEGORY_CONC, DEFAULT_STICK_CONC,
                              HyperParams, _bootstrap_mean_var,
                              estimate_hyperparams)
from mlpp.partitions import (adjusted_rand_index, misclassification_count,
                             partition_draws, variation_of_information,
                             vi_point_estimate)
from mlpp.sampler import (SamplerConfig, Workspace, category_weight_params,
                          draw_observations, draw_state_from_prior,
                          gibbs_scan, noise_prec_params, run_chain,
                          score_update_params, stick_counts, stick_params,
                          truncated_gamma_sample)
from mlpp.simgen import SimDesign, make_eigenfunctions, simulate
from conftest import (all_channel_stick_counts, all_partitions,
                      random_state_and_workspace)

# ---------------------------------------------------------------------------
# Independent partition-metric oracles (bitmask pair counting / entropy)
# ---------------------------------------------------------------------------


def _block_masks(labels):
    blocks = {}
    for pos, lab in enumerate(labels):
        blocks[lab] = blocks.get(lab, 0) | (1 << pos)
    return list(blocks.values())


def _pair_mask(labels):
    """Bitmask over item pairs (i < j): bit set when i, j share a block."""
    mask = 0
    bit = 0
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                mask |= 1 << bit
            bit += 1
    return mask


def _ref_ari(pairs_a, pairs_b, n_pairs, same_partition):
    n11 = (pairs_a & pairs_b).bit_count()
    na = pairs_a.bit_count()
    nb = pairs_b.bit_count()
    expected = na * nb / n_pairs if n_pairs else 0.0
    max_index = 0.5 * (na + nb)
    if max_index == expected:
        return 1.0 if same_partition else 0.0
    return (n11 - expected) / (max_index - expected)


def _ref_vi(blocks_a, blocks_b, n):
    def ent(sizes):
        return -sum(c / n * log2(c / n) for c in sizes if c)

    h_a = ent([m.bit_count() for m in blocks_a])
    h_b = ent([m.bit_count() for m in blocks_b])
    joint = ent([(ma & mb).bit_count() for ma in blocks_a for mb in blocks_b])
    return max(2.0 * joint - h_a - h_b, 0.0)


def test_criterion_01_partition_metrics_match_exhaustive_oracle():
    # every pair of partitions of 1..6 items, both metrics, <= 1e-12
    start = time.time()
    worst_ari = 0.0
    worst_vi = 0.0
    checked = 0
    for n in range(1, 7):
        parts = all_partitions(n)
        pair_masks = [_pair_mask(p) for p in parts]
        blocks = [_block_masks(p) for p in parts]
        canon = [frozenset(bl) for bl in blocks]
        n_pairs = n * (n - 1) // 2
        for ia, ib in itertools.product(range(len(parts)), repeat=2):
            ref = _ref_ari(pair_masks[ia], pair_masks[ib], n_pairs,
                           canon[ia] == canon[ib])
            worst_ari = max(worst_ari, abs(
                adjusted_rand_index(parts[ia], parts[ib]) - ref))
            worst_vi = max(worst_vi, abs(
                variation_of_information(parts[ia], parts[ib])
                - _ref_vi(blocks[ia], blocks[ib], n)))
            checked += 1
    elapsed = time.time() - start
    print(f"CRITERION 01: {checked} pairs, max ARI err {worst_ari:.2e}, "
          f"max VI err {worst_vi:.2e}, {elapsed:.1f}s")
    assert checked == sum(b * b for b in (1, 1, 2, 5, 15, 52, 203)[1:7])
    assert worst_ari <= 1e-12
    assert worst_vi <= 1e-12
    assert elapsed < 60.0


def test_criterion_02_forty_item_benchmark_values():
    # truth: two blocks of twenty; the benchmark pins the one-moved and
    # two-moved-together configurations at their exact rational values
    truth = [0] * 20 + [1] * 20
    one_moved = truth.copy()
    one_moved[0] = 2
    two_moved = truth.copy()
    two_moved[0] = two_moved[1] = 2

    ari_one = adjusted_rand_index(truth, one_moved)
    ari_two = adjusted_rand_index(truth, two_moved)
    print(f"CRITERION 02: one moved ARI {ari_one:.4f}, "
          f"two moved ARI {ari_two:.4f}")
    # exact rational values from direct pair counting over C(40, 2) pairs
    assert ari_one == pytest.approx(14440.0 / 15181.0, abs=1e-12)
    assert ari_two == pytest.approx(3440.0 / 3791.0, abs=1e-12)
    assert f"{ari_one:.2f}" == "0.95"
    assert f"{ari_two:.2f}" == "0.91"


# ---------------------------------------------------------------------------
# Sampler calibration (criterion 3): shared tiny instance
# ---------------------------------------------------------------------------

CAL_U, CAL_N, CAL_K, CAL_T = 4, 3, 1, 20
CAL_CODES = np.array([2, 2, 3, 3])


def _calibration_hp():
    return HyperParams(
        common_mean_prec=np.array([2.0]),
        common_sd_bound=np.array([1.5]),
        group_mean_loc=np.zeros((1, 2)),
        group_mean_prec=np.full((1, 2), 2.0),
        group_sd_bound=np.full((1, 2), 1.5),
        subject_mean_loc=np.zeros((1, 2)),
        subject_mean_prec=np.full((1, 2), 2.0),
        subject_sd_bound=np.full((1, 2), 1.5),
        noise_prec_shape=3.0, noise_prec_rate=3.0,
        max_subject_clusters=8,
    )


def _calibration_phi():
    _, modes = make_eigenfunctions(CAL_T)
    return modes[:, :CAL_K]


def test_criterion_03a_prior_recovery_with_likelihood_disabled():
    # 1e4 independent replicates, each initialized exactly at a prior draw
    # and advanced three likelihood-free scans; the scans must leave the
    # prior invariant, so the recorded draws are iid from the analytic
    # priors and plain KS tests apply at alpha = 0.01
    start = time.time()
    hp = _calibration_hp()
    phi = _calibration_phi()
    ws = Workspace(centred=np.zeros((CAL_U, CAL_N, CAL_T)),
                   proj=np.zeros((CAL_U, CAL_N, CAL_K)), gram=phi.T @ phi,
                   eigenfunctions=phi, group_codes=CAL_CODES)
    rng = np.random.default_rng(6)
    n_rep = 10_000
    mu = np.empty(n_rep)
    omega = np.empty(n_rep)
    stick = np.empty(n_rep)
    for r in range(n_rep):
        state = draw_state_from_prior(hp, CAL_U, CAL_N, CAL_CODES, rng)
        for _ in range(3):
            gibbs_scan(state, ws, hp, rng, likelihood_off=True)
        mu[r] = state.common_mean[0]
        omega[r] = state.category_weights[0, 0]
        stick[r] = state.raw_sticks[0, 0, 0]

    delta = hp.category_conc
    p_mu = stats.kstest(mu, stats.norm(0.0, hp.common_mean_prec[0] ** -0.5).cdf).pvalue
    p_om = stats.kstest(omega, stats.beta(delta[0], delta[1] + delta[2]).cdf).pvalue
    p_st = stats.kstest(stick, stats.beta(1.0, hp.stick_conc[0]).cdf).pvalue
    elapsed = time.time() - start
    print(f"CRITERION 03a: KS p-values mean {p_mu:.3f}, weights {p_om:.3f}, "
          f"stick {p_st:.3f} ({elapsed:.0f}s)")
    assert p_mu > 0.01
    assert p_om > 0.01
    assert p_st > 0.01
    assert elapsed < 300.0


def test_criterion_03b_joint_simulator_agreement():
    # marginal-conditional draws (iid from the prior) against a
    # successive-conditional chain that regenerates data each scan; both
    # target the same joint law, so the moments of noise precision,
    # shared-cluster mean and first category weight must agree within
    # Monte Carlo error (3 standard errors, chain side ESS-corrected)
    start = time.time()
    hp = _calibration_hp()
    phi = _calibration_phi()
    gram = phi.T @ phi
    rng = np.random.default_rng(102)

    n_marg = 100_000
    marg = np.empty((n_marg, 3))
    for r in range(n_marg):
        state = draw_state_from_prior(hp, CAL_U, CAL_N, CAL_CODES, rng)
        marg[r] = (state.noise_prec, state.common_mean[0],
                   state.category_weights[0, 0])

    n_succ = 40_000
    succ = np.empty((n_succ, 3))
    state = draw_state_from_prior(hp, CAL_U, CAL_N, CAL_CODES, rng)
    for r in range(n_succ):
        observed = draw_observations(state, phi, rng)
        ws = Workspace(centred=observed, proj=observed @ phi, gram=gram,
                       eigenfunctions=phi, group_codes=CAL_CODES)
        gibbs_scan(state, ws, hp, rng)
        succ[r] = (state.noise_prec, state.common_mean[0],
                   state.category_weights[0, 0])

    zs = {}
    for col, name in enumerate(("noise_prec", "common_mean", "weight_1")):
        ess = float(effective_sample_size(succ[None, :, col]))
        se = np.sqrt(marg[:, col].var(ddof=1) / n_marg
                     + succ[:, col].var(ddof=1) / ess)
        zs[name] = float(marg[:, col].mean() - succ[:, col].mean()) / se
    elapsed = time.time() - start
    print("CRITERION 03b: z-scores "
          + ", ".join(f"{k} {v:+.2f}" for k, v in zs.items())
          + f" ({elapsed:.0f}s)")
    for name, z in zs.items():
        assert abs(z) < 3.0, f"{name} z-score {z:.2f}"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Conjugate-update oracles (criterion 4)
# ---------------------------------------------------------------------------


def _label_mean_prec(state, u, i, dim):
    lab = state.cluster_label[u, i, dim]
    if lab == 1:
        return state.common_mean[dim], state.common_prec[dim]
    if lab in (2, 3):
        return state.group_mean[dim, lab - 2], state.group_prec[dim, lab - 2]
    return (state.subject_mean[u, dim, lab - 4],
            state.subject_prec[u, dim, lab - 4])


def _truncated_gamma_quad_moments(shape, rate, lower):
    # moments of the truncated density via the substitution x = lower + y,
    # integrating the rescaled integrand (1 + y/lower)^(shape-1) e^(-rate y)
    def raw(power):
        def f(y):
            return (lower + y) ** power * (1.0 + y / lower) ** (shape - 1.0) \
                * np.exp(-rate * y)
        val, _ = quad(f, 0.0, np.inf, limit=200)
        return val

    if lower == 0.0:
        mean = shape / rate
        var = shape / rate ** 2
        return mean, np.sqrt(var)
    z = raw(0)
    mean = raw(1) / z
    second = raw(2) / z
    return mean, np.sqrt(second - mean ** 2)


def test_criterion_04_conditional_parameters_and_gamma_moments():
    # closed-form conditional parameters on random states, to 1e-10
    for seed in (3, 11):
        state, hp, ws, _ = random_state_and_workspace(seed)
        u, n, k = state.scores.shape
        tau = state.noise_prec
        for dim in range(k):
            mean, var = score_update_params(state, ws, dim)
            for uu in range(u):
                for ii in range(n):
                    mu0, s0 = _label_mean_prec(state, uu, ii, dim)
                    resid = ws.proj[uu, ii, dim] - sum(
                        state.scores[uu, ii, kk] * ws.gram[kk, dim]
                        for kk in range(k) if kk != dim)
                    v_ref = 1.0 / (tau * ws.gram[dim, dim] + s0)
                    m_ref = v_ref * (tau * resid + s0 * mu0)
                    assert var[uu, ii] == pytest.approx(v_ref, rel=1e-10)
                    assert mean[uu, ii] == pytest.approx(m_ref, rel=1e-10, abs=1e-10)

        shape, rate = noise_prec_params(state, ws, hp)
        fitted = np.einsum("uik,tk->uit", state.scores, ws.eigenfunctions)
        ssr = float(np.sum((ws.centred - fitted) ** 2))
        assert shape == pytest.approx(hp.noise_prec_shape + 0.5 * ws.centred.size,
                                      rel=1e-12)
        assert rate == pytest.approx(hp.noise_prec_rate + 0.5 * ssr, rel=1e-10)

        conc = category_weight_params(state, hp)
        for dim in range(k):
            for c in (1, 2, 3):
                count = int(np.sum(state.subject_alloc[:, dim] == c))
                assert conc[dim, c - 1] == pytest.approx(
                    hp.category_conc[c - 1] + count, rel=1e-12)

        # the all-channel counts of the uncollapsed variant (tests/conftest.py)
        # follow the same closed form and equal the sampler's counts once
        # every subject is in category 3
        everyone = state.copy()
        everyone.subject_alloc[:] = 3
        assert np.array_equal(stick_counts(everyone), all_channel_stick_counts(state))
        for include_all in (False, True):
            a, b = stick_params(everyone if include_all else state, hp)
            jmax = hp.max_subject_clusters
            for dim in range(k):
                for col, code in enumerate((2, 3)):
                    counts = np.zeros(jmax)
                    for uu in range(u):
                        if state.group_codes[uu] != code:
                            continue
                        if not include_all and state.subject_alloc[uu, dim] != 3:
                            continue
                        for ii in range(n):
                            counts[state.channel_alloc[uu, ii, dim] - 4] += 1
                    tail = counts.sum() - np.cumsum(counts)
                    assert np.allclose(a[dim, col], 1.0 + counts, rtol=1e-12)
                    assert np.allclose(b[dim, col], hp.stick_conc[dim] + tail,
                                       rtol=1e-12)

    # truncated-gamma sampler moments vs numerical quadrature, 1% at 1e5
    cases = [(2.0, 1.0, 0.0), (2.0, 1.5, 4.0), (0.5, 3.0, 0.5),
             (3.0, 1.0, 40.0), (0.0, 2.0, 1.0), (0.5, 1.0, 40.0),
             (-0.5, 2.0, 1.0)]
    worst = 0.0
    for shape, rate, lower in cases:
        rng = np.random.default_rng(5)
        draws = np.array([truncated_gamma_sample(rng, shape, rate, lower)
                          for _ in range(100_000)])
        mean_ref, sd_ref = _truncated_gamma_quad_moments(shape, rate, lower)
        rel_mean = abs(draws.mean() - mean_ref) / mean_ref
        rel_sd = abs(draws.std(ddof=1) - sd_ref) / sd_ref
        worst = max(worst, rel_mean, rel_sd)
        assert draws.min() > lower
        assert rel_mean < 0.01, (shape, rate, lower, rel_mean)
        assert rel_sd < 0.01, (shape, rate, lower, rel_sd)
    print(f"CRITERION 04: conditionals match to 1e-10; "
          f"gamma moments worst rel err {worst:.4f}")


# ---------------------------------------------------------------------------
# Scaled replication study (criteria 5 and 6)
# ---------------------------------------------------------------------------

REPLICATION_SEED = 20260800
OUTLIER_ROWS = (0, 1, 18, 19)


def _run_replicate(snr, rep):
    design = SimDesign(n_subjects=20, n_channels=20, n_timepoints=100,
                       n_group_a=10, snr=snr, seed=REPLICATION_SEED + rep)
    raw, truth = simulate(design)
    smoothed = smooth_dataset(raw, 25, None)
    basis = fit_fpca(smoothed, var_threshold=0.8)
    hp = estimate_hyperparams(basis, raw.group_codes,
                              seed=REPLICATION_SEED + rep)
    cfg = SamplerConfig(n_iter=4000, burn_in=2000, thin=2, n_chains=1,
                        seed=REPLICATION_SEED + rep)
    archive = run_chain(smoothed, basis, hp, cfg)

    result = {"k": basis.n_components, "exact": {}, "outlier_errors": {}}
    for dim in range(min(2, basis.n_components)):
        estimate = vi_point_estimate(partition_draws(
            archive.subject_alloc_draws, archive.group_codes, dim))[0]
        ari = adjusted_rand_index(estimate, truth.subject_labels[:, dim])
        result["exact"][dim] = bool(ari > 1.0 - 1e-12)
    if basis.n_components < 2:
        return result
    for s in OUTLIER_ROWS:
        rows = archive.subject_alloc_draws[:, s, 1] == 3
        if not rows.any():
            result["outlier_errors"][s] = design.n_channels
            continue
        estimate = vi_point_estimate(archive.channel_alloc_draws[rows, s, :, 1])[0]
        result["outlier_errors"][s] = int(misclassification_count(
            estimate, truth.channel_labels[f"{s + 1}:2"]))
    return result


@pytest.fixture(scope="module")
def replication_runs():
    start = time.time()
    runs = {snr: [_run_replicate(snr, rep) for rep in range(1, 11)]
            for snr in (6.0, 2.0)}
    runs["elapsed"] = time.time() - start
    return runs


def test_criterion_05_replication_recovers_planted_partitions(replication_runs):
    runs = replication_runs[6.0]
    assert all(r["k"] == 2 for r in runs)
    dim1 = sum(r["exact"][0] for r in runs)
    dim2 = sum(r["exact"][1] for r in runs)
    errors = [e for r in runs for e in r["outlier_errors"].values()]
    within = sum(e <= 3 for e in errors)
    elapsed = replication_runs["elapsed"]
    print(f"CRITERION 05: dim1 exact {dim1}/10, dim2 exact {dim2}/10, "
          f"recording-level <=3 errors in {within}/{len(errors)} cases, "
          f"{elapsed / 60:.1f} min for both noise levels")
    assert dim2 >= 9, f"dimension-2 exact recovery {dim2}/10"
    assert dim1 >= 8, f"dimension-1 exact recovery {dim1}/10"
    assert within >= int(np.ceil(0.8 * len(errors)))
    assert elapsed < 3600.0


def test_criterion_06_more_noise_never_helps_dimension_one(replication_runs):
    low = sum(r["exact"][0] for r in replication_runs[6.0])
    high = sum(r["exact"][0] for r in replication_runs[2.0])
    print(f"CRITERION 06: dim1 exact {high}/10 at SNR 2 vs {low}/10 at SNR 6")
    assert high <= low


# ---------------------------------------------------------------------------
# Diagnostics (criterion 7)
# ---------------------------------------------------------------------------


def _ar1(rng, rho, n, loc=0.0):
    innov = rng.standard_normal(n) * np.sqrt(1.0 - rho ** 2)
    out = np.empty(n)
    out[0] = rng.standard_normal()
    for t in range(1, n):
        out[t] = rho * out[t - 1] + innov[t]
    return out + loc


def test_criterion_07_ess_and_split_rhat():
    n = 100_000
    rng = np.random.default_rng(12)
    worst = 0.0
    for rho in (0.0, 0.5, 0.9):
        chain = _ar1(rng, rho, n)
        ess = float(effective_sample_size(chain[None, :]))
        target = n * (1.0 - rho) / (1.0 + rho)
        rel = abs(ess - target) / target
        worst = max(worst, rel)
        assert rel < 0.25, f"rho={rho}: ESS {ess:.0f} vs {target:.0f}"

    rng = np.random.default_rng(34)
    iid = rng.standard_normal((4, 5000))
    r_iid = split_rhat(iid)
    shifted = iid.copy()
    shifted[0] += 5.0
    r_shift = split_rhat(shifted)
    print(f"CRITERION 07: worst ESS rel err {worst:.3f}, "
          f"split-Rhat iid {r_iid:.4f}, shifted {r_shift:.3f}")
    assert r_iid < 1.02
    assert r_shift > 1.1


# ---------------------------------------------------------------------------
# Eigenbasis round trip (criterion 8)
# ---------------------------------------------------------------------------


def test_criterion_08_noiseless_rank_two_round_trip():
    u, n, t = 9, 7, 120
    grid, modes = make_eigenfunctions(t)
    rng = np.random.default_rng(2)
    scores = rng.normal(0.0, [2.0, 1.2], size=(u * n, 2))
    scores -= scores.mean(axis=0)
    # make the sample covariance exactly diagonal in the planted basis
    scores[:, 1] -= (scores[:, 0] @ scores[:, 1]) / (scores[:, 0] @ scores[:, 0]) \
        * scores[:, 0]
    values = np.einsum("pk,tk->pt", scores, modes).reshape(u, n, t)
    data = FunctionalDataset(values, grid, np.array([2] * 5 + [3] * 4))

    basis = fit_fpca(data, var_threshold=0.999)
    cumulative = float(np.sum(basis.var_explained[:2]))
    err = 0.0
    for k in range(2):
        sign = np.sign(basis.eigenfunctions[:, k] @ modes[:, k])
        err = max(err, float(np.max(np.abs(
            sign * basis.eigenfunctions[:, k] - modes[:, k]))))
    print(f"CRITERION 08: K={basis.n_components}, cumulative share "
          f"{cumulative:.12f}, eigenfunction max err {err:.2e}")
    assert basis.n_components == 2
    assert cumulative >= 1.0 - 1e-8
    assert err < 1e-6


# ---------------------------------------------------------------------------
# Prior recipe (criterion 9)
# ---------------------------------------------------------------------------


def test_criterion_09_bootstrap_recipe_and_fixed_concentrations():
    values = np.random.default_rng(99).normal(0.0, 2.0, 400)
    rng = np.random.default_rng(0)
    boot_full = _bootstrap_mean_var(rng, values, values.size, reps=10_000)
    boot_half = _bootstrap_mean_var(rng, values, 200, reps=10_000)
    target_full = np.var(values) / values.size
    target_half = np.var(values) / 200
    rel_full = abs(boot_full - target_full) / target_full
    rel_half = abs(boot_half - target_half) / target_half
    assert rel_full < 0.05
    assert rel_half < 0.05

    scores = np.random.default_rng(1).normal(0.0, 1.0, size=(6, 10, 1))
    from test_hyperparams import _basis_from_scores
    hp = estimate_hyperparams(_basis_from_scores(scores),
                              np.array([2, 2, 2, 3, 3, 3]), seed=4)
    assert tuple(hp.category_conc) == DEFAULT_CATEGORY_CONC
    assert tuple(hp.stick_conc) == (DEFAULT_STICK_CONC,)
    print(f"CRITERION 09: bootstrap rel err full {rel_full:.3f}, "
          f"half {rel_half:.3f}; concentrations exact")


# ---------------------------------------------------------------------------
# Determinism (criterion 10)
# ---------------------------------------------------------------------------


def test_criterion_10_end_to_end_byte_determinism(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--subjects", "6", "--channels", "5",
                     "--timepoints", "40", "--seed", "7",
                     "--out", str(sim)]) == 0
    args = ["fit", "--data", str(sim / "rep_01"), "--iters", "120",
            "--burnin", "40", "--thin", "2", "--chains", "2", "--seed", "7",
            "--no-smooth"]
    assert cli_main(args + ["--out", str(tmp_path / "run_a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "run_b")]) == 0
    identical = []
    for chain in ("chain_00", "chain_01"):
        left = (tmp_path / "run_a" / chain / "draws_scalar.csv").read_bytes()
        right = (tmp_path / "run_b" / chain / "draws_scalar.csv").read_bytes()
        identical.append(left == right)
    print(f"CRITERION 10: scalar draw files byte-identical: {identical}")
    assert all(identical)
