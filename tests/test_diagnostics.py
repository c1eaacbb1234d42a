import csv
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (reference_autocovariances, reference_diagnose_archives,
                      reference_effective_sample_size, reference_split_rhat)
from mlpp.diagnostics import (_autocovariances, diagnose_archives,
                              effective_sample_size, export_density,
                              export_trace, format_diagnostics_table,
                              gaussian_density, split_rhat, write_diagnostics_csv)


def _ar1(rng, rho, n, loc=0.0):
    noise = rng.normal(size=n)
    out = np.empty(n)
    out[0] = noise[0]
    for t in range(1, n):
        out[t] = rho * out[t - 1] + np.sqrt(1.0 - rho ** 2) * noise[t]
    return out + loc


def test_autocovariance_matches_direct_correlation():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(2, 257))
    direct = np.zeros(257)
    for row in arr:
        centred = row - row.mean()
        direct += np.correlate(centred, centred, mode="full")[256:] / 257
    direct /= 2
    np.testing.assert_allclose(_autocovariances(arr), direct, atol=1e-12)


def test_ess_iid_close_to_draw_count():
    rng = np.random.default_rng(1)
    draws = rng.normal(size=20_000)
    assert effective_sample_size(draws) == pytest.approx(20_000, rel=0.15)


def test_ess_ar1_tracks_theory():
    rng = np.random.default_rng(2)
    n = 30_000
    for rho in (0.5, 0.9):
        chain = _ar1(rng, rho, n)
        target = n * (1.0 - rho) / (1.0 + rho)
        assert effective_sample_size(chain) == pytest.approx(target, rel=0.2)


def test_ess_multichain_penalizes_disagreement():
    rng = np.random.default_rng(3)
    good = np.stack([rng.normal(size=4000) for _ in range(4)])
    assert effective_sample_size(good) == pytest.approx(16_000, rel=0.15)
    stuck = good.copy()
    stuck[0] += 5.0
    assert effective_sample_size(stuck) < 1000


def test_constant_chain_conventions():
    flat = np.full((2, 100), 3.14)
    assert split_rhat(flat) == 1.0
    assert effective_sample_size(flat) == 200.0


def test_split_rhat_iid_and_shifted():
    rng = np.random.default_rng(4)
    iid = np.stack([rng.normal(size=2000) for _ in range(4)])
    assert split_rhat(iid) < 1.02
    shifted = iid.copy()
    shifted[0] += 5.0
    assert split_rhat(shifted) > 1.1


def test_split_rhat_catches_within_chain_drift():
    rng = np.random.default_rng(5)
    drifting = rng.normal(size=2000) + np.linspace(0.0, 6.0, 2000)
    assert split_rhat(drifting) > 1.1


def test_short_chains_rejected():
    with pytest.raises(ValueError, match="at least 4"):
        split_rhat(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least 4"):
        effective_sample_size(np.zeros(3))
    with pytest.raises(ValueError, match="1-D"):
        split_rhat(np.zeros((2, 2, 8)))


def test_export_trace(tmp_path):
    chains = np.arange(12.0).reshape(2, 6)
    export_trace(tmp_path / "trace.csv", chains, name="tau")
    with open(tmp_path / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chain", "draw", "tau"]
    assert len(rows) == 13
    assert rows[1] == ["1", "1", "0.0"]
    assert rows[-1] == ["2", "6", "11.0"]


def test_export_density_integrates_to_one(tmp_path):
    rng = np.random.default_rng(6)
    chains = rng.normal(size=(2, 2000))
    export_density(tmp_path / "dens.csv", chains, name="tau")
    data = np.loadtxt(tmp_path / "dens.csv", delimiter=",", skiprows=1)
    for chain_id in (1, 2):
        rows = data[data[:, 0] == chain_id]
        integral = np.trapezoid(rows[:, 2], rows[:, 1])
        assert integral == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("n_draws", [5, 150, 2000])
def test_gaussian_density_matches_scipy_kde(n_draws):
    from scipy.stats import gaussian_kde
    draws = np.random.default_rng(n_draws).gamma(2.0, 3.0, size=n_draws)
    grid = np.linspace(draws.min() - 5.0, draws.max() + 5.0, 256)
    np.testing.assert_allclose(gaussian_density(draws, grid), gaussian_kde(draws)(grid),
                               rtol=1e-12, atol=1e-300)


def test_export_density_skips_constant_chain(tmp_path):
    chains = np.vstack([np.full(50, 2.0),
                        np.random.default_rng(7).normal(size=50)])
    export_density(tmp_path / "dens.csv", chains)
    data = np.loadtxt(tmp_path / "dens.csv", delimiter=",", skiprows=1)
    assert set(np.unique(data[:, 0])) == {2.0}


def _fake_archives(columns, names):
    """Wrap per-column chain stacks as objects diagnose_archives accepts."""
    n_chains = columns[0].shape[0]
    return [SimpleNamespace(scalar_names=names,
                            scalars=np.stack([col[c] for col in columns], axis=1))
            for c in range(n_chains)]


def test_diagnose_archives_flags(tmp_path):
    rng = np.random.default_rng(8)
    good = np.stack([rng.normal(size=3000) for _ in range(2)])
    stuck = good + np.array([[0.0], [6.0]])
    sticky = np.stack([_ar1(rng, 0.995, 3000) for _ in range(2)])
    constant = np.full((2, 3000), 7.0)
    rows = diagnose_archives(
        _fake_archives([good, stuck, sticky, constant],
                       ["good", "stuck", "sticky", "constant"]),
        rhat_threshold=1.1, ess_threshold=1000.0)

    by_name = {row["name"]: row for row in rows}
    assert by_name["good"]["flags"] == [] and by_name["good"]["ok"]
    assert "rhat" in by_name["stuck"]["flags"] and not by_name["stuck"]["ok"]
    assert "ess" in by_name["sticky"]["flags"] and not by_name["sticky"]["ok"]
    assert by_name["constant"]["flags"] == ["constant"]
    assert by_name["constant"]["ok"]

    table = format_diagnostics_table(rows)
    assert "parameter" in table and "constant" in table
    write_diagnostics_csv(tmp_path / "diag.csv", rows)
    with open(tmp_path / "diag.csv") as fh:
        written = list(csv.reader(fh))
    assert written[0][0] == "parameter"
    assert len(written) == 5


# ---------------------------------------------------------------------------
# The batched diagnostics against the per-series reference, == on floats
# ---------------------------------------------------------------------------

def _column(rng, kind, m, n):
    """One scalar's (chains, draws) draws of the named kind."""
    loc = rng.normal(0.0, 10.0)
    if kind == "normal":
        return loc + rng.gamma(1.0, 2.0) * rng.normal(size=(m, n))
    if kind == "counts":
        return rng.integers(0, 4, (m, n)).astype(float) + rng.integers(0, 40)
    if kind == "constant":
        return np.full((m, n), loc)
    if kind == "constant_in_one_chain":
        col = loc + rng.normal(size=(m, n))
        col[rng.integers(m)] = loc
        return col
    if kind == "jitter":
        # 1e-13 lies far below the constant test's tolerance, 1e-6 at it
        scale = rng.choice([1e-13, 1e-7, 1e-6, 1e-5]) * max(1.0, abs(loc))
        return loc + scale * rng.normal(size=(m, n))
    # slow AR(1) chains far apart: with m > 1 every pair sum stays positive
    return np.stack([_ar1(rng, 0.999, n, loc=10.0 * c) for c in range(m)])


KINDS = ("normal", "counts", "constant", "constant_in_one_chain", "jitter", "slow_ar1")


@st.composite
def scalar_archives(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(4, 40))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = [_column(rng, kind, m, n) for kind in kinds]
    return _fake_archives(columns, [f"{kind}[{j}]" for j, kind in enumerate(kinds)])


@settings(max_examples=300, deadline=None)
@given(scalar_archives(), st.sampled_from([1.01, 1.1]), st.sampled_from([5.0, 1000.0]))
def test_diagnose_archives_equals_per_series_reference(archives, rhat_threshold,
                                                       ess_threshold):
    rows = diagnose_archives(archives, rhat_threshold, ess_threshold)
    assert rows == reference_diagnose_archives(archives, rhat_threshold, ess_threshold)
    for j, row in enumerate(rows):
        chains = np.stack([a.scalars[:, j] for a in archives])
        assert split_rhat(chains) == row["rhat"] == reference_split_rhat(chains)
        assert effective_sample_size(chains) == row["ess"] \
            == reference_effective_sample_size(chains)


def test_diagnose_archives_equals_reference_on_long_chains():
    # 2 chains x 1500 draws, the size of a default fit
    rng = np.random.default_rng(14)
    kinds = KINDS * 4
    archives = _fake_archives([_column(rng, kind, 2, 1500) for kind in kinds],
                              [f"{kind}[{j}]" for j, kind in enumerate(kinds)])
    assert diagnose_archives(archives) == reference_diagnose_archives(archives)


def test_ess_sums_every_pair_when_none_turns_nonpositive():
    # chains far apart keep every pooled autocorrelation pair positive, so
    # tau adds all of them
    rng = np.random.default_rng(15)
    chains = _column(rng, "slow_ar1", 3, 41)
    m, n = chains.shape
    w = chains.var(axis=1, ddof=1).mean()
    var_plus = (n - 1) / n * w + chains.mean(axis=1).var(ddof=1)
    rho = 1.0 - (w - reference_autocovariances(chains) * n / (n - 1)) / var_plus
    assert np.all(rho[1:n - 1:2] + rho[2:n:2] > 0.0)
    assert effective_sample_size(chains) == reference_effective_sample_size(chains)


def test_autocovariances_of_a_block_equal_each_series():
    rng = np.random.default_rng(16)
    block = rng.normal(size=(5, 3, 64)).cumsum(axis=2)
    acov = _autocovariances(block)
    for s in range(5):
        assert np.array_equal(acov[s], reference_autocovariances(block[s]))
