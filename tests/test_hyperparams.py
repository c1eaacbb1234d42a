import json
import re

import numpy as np
import pytest

from mlpp.fpca import EigenBasis
from mlpp.hyperparams import (DEFAULT_CATEGORY_CONC, DEFAULT_STICK_CONC,
                              HyperParams, _bootstrap_mean_var, apply_scenario,
                              estimate_hyperparams, exact_bootstrap_mean_var,
                              from_dict, load_hyperparams, save_hyperparams,
                              to_dict)
from conftest import make_hyperparams, reference_bootstrap_mean_var


def _basis_from_scores(scores):
    """Minimal eigenbasis wrapper: only the scores matter for the recipe."""
    u, n, k = scores.shape
    grid = np.linspace(0.0, 1.0, 8)
    return EigenBasis(mean_curve=np.zeros(8),
                      eigenfunctions=np.zeros((8, k)),
                      eigenvalues=np.ones(k),
                      var_explained=np.full(k, 1.0 / k),
                      scores=scores,
                      time_grid=grid)


def test_bootstrap_variance_matches_closed_form():
    # resampling N values with replacement: the variance of the resample
    # mean is the population variance over the sample size
    rng = np.random.default_rng(0)
    values = np.random.default_rng(99).normal(0.0, 2.0, 300)
    var_n = _bootstrap_mean_var(rng, values, values.size, reps=10_000)
    target = np.var(values) / values.size
    assert var_n == pytest.approx(target, rel=0.05)
    var_half = _bootstrap_mean_var(rng, values, 150, reps=10_000)
    assert var_half == pytest.approx(np.var(values) / 150, rel=0.05)


@pytest.mark.parametrize("values", [
    pytest.param(np.random.default_rng(98).normal(1.0, 2.0, 300), id="normal"),
    pytest.param(np.random.default_rng(97).exponential(3.0, 300), id="exponential")])
@pytest.mark.parametrize("sample_size", [300, 150, 37])
def test_exact_bootstrap_variance_matches_monte_carlo(values, sample_size):
    exact = exact_bootstrap_mean_var(values, sample_size)
    assert exact == np.var(values) / sample_size
    monte_carlo = _bootstrap_mean_var(np.random.default_rng(0), values, sample_size,
                                      reps=10_000)
    assert monte_carlo == pytest.approx(exact, rel=0.05)


def test_calibration_ignores_seed_and_draws_nothing(monkeypatch):
    scores = np.random.default_rng(11).exponential(1.0, size=(6, 7, 2))
    codes = np.array([2, 3, 2, 3, 2, 3])
    basis = _basis_from_scores(scores)
    first = to_dict(estimate_hyperparams(basis, codes, seed=0))
    assert to_dict(estimate_hyperparams(basis, codes, seed=1)) == first

    def no_generator(*args, **kwargs):
        raise AssertionError("calibration made a generator")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert to_dict(estimate_hyperparams(basis, codes)) == first
    # 21 group-3 scores: half-size resamples of ceil(21 / 2) = 11
    grp = scores[codes == 3, :, 1].ravel()
    assert first["group_mean_prec"][1][1] == 1.0 / (2.0 * (np.var(grp) / 11))
    pooled = scores[:, :, 0].ravel()
    assert first["common_mean_prec"][0] == 1.0 / (2.0 * (np.var(pooled) / pooled.size))


@pytest.mark.parametrize("size, sample_size, reps", [
    (2000, 2000, 1000), (1000, 500, 1000), (400, 200, 10_000), (50, 50, 65),
    (7, 4, 3), (3, 1, 2)])
def test_bootstrap_variance_matches_one_shot_int64_reference(size, sample_size, reps):
    for seed in range(5):
        values = np.random.default_rng(seed + 100).normal(0.0, 1.0, size)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _bootstrap_mean_var(rng, values, sample_size, reps) == \
            reference_bootstrap_mean_var(ref, values, sample_size, reps)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 2**40) == ref.integers(0, 2**40)


def test_recipe_on_plus_minus_one_scores():
    # scores exactly +-1 in balanced halves: range 2, sd about 1, means 0
    u, n = 6, 10
    scores = np.empty((u, n, 1))
    scores[:, :, 0] = np.resize([1.0, -1.0], (u, n))
    codes = np.array([2, 2, 2, 3, 3, 3])
    hp = estimate_hyperparams(_basis_from_scores(scores), codes)

    for col in range(2):
        # subject-level mean precision: 1 / (range / 2.5)^2 = 1.5625 exactly
        assert hp.subject_mean_prec[0, col] == pytest.approx(1.5625, rel=1e-12)
        assert hp.group_mean_loc[0, col] == pytest.approx(0.0, abs=1e-12)
        # sd bound = squared empirical sd, here 1 up to the ddof correction
        assert hp.group_sd_bound[0, col] == pytest.approx(30.0 / 29.0, rel=1e-12)
    assert hp.common_sd_bound[0] == pytest.approx(60.0 / 59.0, rel=1e-12)
    np.testing.assert_array_equal(hp.subject_sd_bound, hp.group_sd_bound)
    # balanced +-1: population variance is exactly 1, so the pooled
    # bootstrap variance is 1/N and the common-mean precision N/2; a
    # group's is 1 over twice 1/ceil(30/2)
    assert hp.common_mean_prec[0] == u * n / 2.0
    np.testing.assert_array_equal(hp.group_mean_prec, 7.5)

    assert tuple(hp.category_conc) == DEFAULT_CATEGORY_CONC
    np.testing.assert_array_equal(hp.stick_conc, DEFAULT_STICK_CONC)


def test_zero_variance_scores_rejected():
    scores = np.ones((4, 5, 1))
    codes = np.array([2, 2, 3, 3])
    with pytest.raises(ValueError, match="zero variance"):
        estimate_hyperparams(_basis_from_scores(scores), codes)


def test_group_code_validation():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=(4, 5, 1))
    with pytest.raises(ValueError, match="group code"):
        estimate_hyperparams(_basis_from_scores(scores), np.array([2, 2, 3]))
    with pytest.raises(ValueError, match="at least 2"):
        estimate_hyperparams(_basis_from_scores(scores), np.array([2, 2, 2, 2]))


def test_three_group_calibration_takes_each_group_alone():
    # each group column is the recipe applied to that group's scores
    # alone: here group 4's scores are group 3's shifted by 10
    rng = np.random.default_rng(8)
    scores = rng.normal(size=(6, 5, 1))
    scores[4:] = scores[2:4] + 10.0
    codes = np.array([2, 2, 3, 3, 4, 4])
    hp = estimate_hyperparams(_basis_from_scores(scores), codes)
    assert hp.n_groups == 3
    np.testing.assert_allclose(hp.group_mean_loc[0, 2], hp.group_mean_loc[0, 1] + 10.0)
    np.testing.assert_allclose(hp.group_sd_bound[0, 2], hp.group_sd_bound[0, 1])
    np.testing.assert_array_equal(hp.subject_mean_loc, hp.group_mean_loc)
    with pytest.raises(ValueError, match="every code in use"):
        estimate_hyperparams(_basis_from_scores(scores), np.array([2, 2, 4, 4, 4, 4]))


def test_scenarios():
    rng = np.random.default_rng(3)
    hp = make_hyperparams(rng)

    s1 = apply_scenario(hp, "S1")
    np.testing.assert_allclose(s1.common_sd_bound, hp.common_sd_bound ** 1.1)
    np.testing.assert_allclose(s1.group_sd_bound, hp.group_sd_bound ** 1.1)
    np.testing.assert_allclose(s1.subject_sd_bound, hp.subject_sd_bound ** 1.1)
    np.testing.assert_array_equal(s1.common_mean_prec, hp.common_mean_prec)

    # frozen spot value: a bound of 4 maps to 4^1.1
    hp_four = apply_scenario(hp, None, {"common_sd_bound": [4.0, 4.0]})
    s1_four = apply_scenario(hp_four, "S1")
    assert s1_four.common_sd_bound[0] == pytest.approx(4.594793419988138, rel=1e-12)

    s2 = apply_scenario(hp, "S2")
    np.testing.assert_allclose(s2.common_mean_prec, hp.common_mean_prec / 2.0)
    np.testing.assert_allclose(s2.group_mean_prec, hp.group_mean_prec / 2.0)
    np.testing.assert_array_equal(s2.subject_mean_prec, hp.subject_mean_prec)

    assert tuple(apply_scenario(hp, "S3").category_conc) == (0.4, 0.4, 0.2)
    np.testing.assert_allclose(apply_scenario(hp, "S4").category_conc, 1.0 / 3.0)
    np.testing.assert_array_equal(apply_scenario(hp, "S5").stick_conc, 0.5)
    np.testing.assert_array_equal(apply_scenario(hp, "S6").stick_conc, 2.0)

    with pytest.raises(ValueError, match="unknown scenario"):
        apply_scenario(hp, "S7")


def test_overrides():
    rng = np.random.default_rng(4)
    hp = make_hyperparams(rng)
    out = apply_scenario(hp, None, {"noise_prec_shape": 3.0,
                                    "max_subject_clusters": 7})
    assert out.noise_prec_shape == 3.0
    assert out.max_subject_clusters == 7
    np.testing.assert_array_equal(out.common_sd_bound, hp.common_sd_bound)
    with pytest.raises(ValueError, match="unknown hyperparameter"):
        apply_scenario(hp, None, {"not_a_field": 1.0})


def test_validation_errors():
    rng = np.random.default_rng(5)
    hp = make_hyperparams(rng)
    doc = to_dict(hp)
    bad = dict(doc)
    bad["common_mean_prec"] = [-1.0, 1.0]
    with pytest.raises(ValueError, match="positive"):
        from_dict(bad)
    bad = dict(doc)
    bad["group_sd_bound"] = [[1.0, 1.0]]
    with pytest.raises(ValueError, match="shape"):
        from_dict(bad)
    bad = dict(doc)
    bad["group_sd_bound"] = [[1.0], [1.0]]
    with pytest.raises(ValueError, match=r"^group_sd_bound must have shape "
                       r"\(n_components, n_groups\), here \(2, 2\)$"):
        from_dict(bad)
    one_group = {name: [row[:1] for row in doc[name]] for name in (
        "group_mean_loc", "group_mean_prec", "group_sd_bound", "subject_mean_loc",
        "subject_mean_prec", "subject_sd_bound")}
    with pytest.raises(ValueError, match="at least 2 groups are needed"):
        from_dict({**doc, **one_group})
    bad = dict(doc)
    bad["max_subject_clusters"] = 0
    with pytest.raises(ValueError, match="max_subject_clusters"):
        from_dict(bad)
    bad = dict(doc)
    bad["category_conc"] = [0.5, 0.5]
    with pytest.raises(ValueError, match="3 entries"):
        from_dict(bad)
    for name, value in [("noise_prec_shape", float("nan")),
                        ("noise_prec_rate", float("inf")),
                        ("common_sd_bound", [1.0, float("nan")]),
                        ("group_mean_prec", [[1.0, 1.0], [float("inf"), 1.0]]),
                        ("stick_conc", [float("nan"), 1.0]),
                        ("group_mean_loc", [[0.0, float("-inf")], [0.0, 0.0]]),
                        ("subject_mean_loc", [[0.0, 0.0], [float("nan"), 0.0]])]:
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            from_dict({**doc, name: value})
    for value in (2.5, True, "3"):
        with pytest.raises(ValueError, match="max_subject_clusters must be an integer"):
            from_dict({**doc, "max_subject_clusters": value})
    assert from_dict({**doc, "max_subject_clusters": np.int64(3)}).max_subject_clusters == 3


def test_load_rejects_non_finite_field(tmp_path):
    hp = make_hyperparams(np.random.default_rng(8))
    doc = to_dict(hp)
    doc["noise_prec_rate"] = float("nan")
    path = tmp_path / "hp.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: noise_prec_rate "
                                         f"must be finite$"):
        load_hyperparams(path)


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    hp = make_hyperparams(rng)
    save_hyperparams(hp, tmp_path / "hp.json")
    back = load_hyperparams(tmp_path / "hp.json")
    assert to_dict(back) == to_dict(hp)


def test_default_stick_conc_filled():
    rng = np.random.default_rng(7)
    hp = make_hyperparams(rng, k=3)
    assert hp.stick_conc.shape == (3,)
    np.testing.assert_array_equal(hp.stick_conc, 1.0)
    assert hp.n_components == 3
