"""Convergence diagnostics for archived chains.

Split potential scale reduction and autocorrelation-based effective
sample sizes, computed directly from the stored scalar draws, plus
trace/density exports for visual checks.
"""
from __future__ import annotations

import numpy as np

from .tables import format_text_table, grid_index, write_table

_CONSTANT_TOL = 1e-12
MIN_DRAWS = 4


def _as_matrix(chains) -> np.ndarray:
    arr = np.asarray(chains, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("chains must be a 1-D draw vector or a (chains, draws) array")
    return arr


def _as_block(chains) -> np.ndarray:
    """One series of draws as a C-ordered (1, chains, draws) block."""
    arr = _as_matrix(chains)
    _check_length(arr.shape[1])
    return np.ascontiguousarray(arr)[None]


def _check_length(n_draws: int) -> None:
    if n_draws < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws per chain, got {n_draws}")


def _negligible(within: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Which mean within-chain variances are negligible against the square
    of their series' largest absolute draw (a series that never moves)."""
    return np.array([w < _CONSTANT_TOL * max(1.0, s ** 2)
                     for w, s in zip(within.tolist(), scale.tolist())], dtype=bool)


# The block functions below compute one statistic for every series of a
# C-ordered (series, chains, draws) block.  Every reduction runs along the
# last, contiguous axis, where numpy sums each row exactly as it sums a
# one-series array, so a series gets the same bits whatever block holds it.

def _split_rhat(block: np.ndarray) -> np.ndarray:
    n = block.shape[2]
    half = n // 2
    pieces = np.concatenate([block[:, :, :half], block[:, :, n - half:]], axis=1)
    w = pieces.var(axis=2, ddof=1).mean(axis=1)
    b = half * pieces.mean(axis=2).var(axis=1, ddof=1)
    var_plus = (half - 1) / half * w + b / half
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(var_plus / w)
    rhat[_negligible(w, np.abs(pieces).max(axis=(1, 2)))] = 1.0
    return rhat


def _autocovariances(arr: np.ndarray) -> np.ndarray:
    """Mean autocovariance over chains at every lag, biased normalization,
    for an (..., chains, draws) array.

    Computed by FFT with zero padding (circular correlation of the padded
    sequence equals the linear one), so long chains stay O(n log n).
    The power spectrum is formed one series at a time: numpy's complex
    product over a whole block rounds some entries differently.  Chains
    are summed in order, as a loop over them would.
    """
    *lead, m, n = arr.shape
    size = 2 * n
    spec = np.fft.rfft(arr - arr.mean(axis=-1, keepdims=True), size)
    power = np.stack([row * np.conj(row) for row in spec.reshape(-1, n + 1)])
    each = (np.fft.irfft(power, size)[:, :n] / n).reshape(*lead, m, n)
    acov = np.zeros((*lead, n))
    for chain in range(m):
        acov += each[..., chain, :]
    return acov / m


def _effective_sample_size(block: np.ndarray) -> np.ndarray:
    s, m, n = block.shape
    ess = np.full(s, float(m * n))
    w = block.var(axis=2, ddof=1).mean(axis=1)
    moving = ~_negligible(w, np.abs(block).max(axis=(1, 2)))
    if not moving.any():
        return ess
    arr, w = block[moving], w[moving]
    acov = _autocovariances(arr)
    if m > 1:
        b = n * arr.mean(axis=2).var(axis=1, ddof=1)
        var_plus = (n - 1) / n * w + b / n
        rho = 1.0 - (w[:, None] - acov * n / (n - 1)) / var_plus[:, None]
    else:
        rho = acov / acov[:, :1]
    # the sum stops at the first nonpositive pair of successive lags
    # (1, 2), (3, 4), ...; tau adds the pairs before it in order
    pairs = rho[:, 1:n - 1:2] + rho[:, 2:n:2]
    ends = pairs <= 0.0
    stop = np.where(ends.any(axis=1), ends.argmax(axis=1), pairs.shape[1])
    tau = np.cumsum(np.concatenate([np.ones((len(arr), 1)), 2.0 * pairs], axis=1), axis=1)
    ess[moving] = m * n / tau[np.arange(len(arr)), stop]
    return ess


def split_rhat(chains) -> float:
    """Split potential scale reduction factor.

    Each chain is halved (dropping a trailing draw when the length is
    odd) and the usual between/within variance ratio is computed over
    the resulting sequences.  Constant chains return 1.0.
    """
    return float(_split_rhat(_as_block(chains))[0])


def effective_sample_size(chains) -> float:
    """Effective sample size from the pairwise-truncated autocorrelation sum.

    For several chains the correlation at each lag is estimated from the
    pooled within/between variances, so that non-mixing chains are
    penalized; a single chain uses its own normalized autocovariance.
    Summation stops at the first nonpositive pair of successive lags.
    Constant chains count every draw.
    """
    return float(_effective_sample_size(_as_block(chains))[0])


def export_trace(path, chains, name: str = "value") -> None:
    """Long-format trace: one row per (chain, draw)."""
    arr = _as_matrix(chains)
    write_table(path, ["chain", "draw", name], grid_index(arr.shape, 1), arr.ravel())


def gaussian_density(draws: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density of 1-D draws at the grid points, bandwidth by
    Scott's rule (sd * n^(-1/5)), as scipy.stats.gaussian_kde computes it;
    numpy only, since scipy.stats takes longer to import than a diagnose
    run takes to compute."""
    n = draws.size
    bandwidth = draws.std(ddof=1) * n ** -0.2
    z = (grid[:, None] - draws[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (n * bandwidth * np.sqrt(2.0 * np.pi))


def export_density(path, chains, name: str = "value", grid_size: int = 256) -> None:
    """Per-chain kernel density on a shared extended grid.

    Chains with (numerically) zero variance are skipped; a smoothed
    density of a point mass is not informative and the kernel estimate
    is singular there.
    """
    arr = _as_matrix(chains)
    moving = [c for c, row in enumerate(arr)
              if row.std() > _CONSTANT_TOL * max(1.0, np.abs(row).max())]
    grid = np.empty(0)
    if moving:
        lo, hi = arr[moving].min(), arr[moving].max()
        span = hi - lo
        grid = np.linspace(lo - 0.1 * span, hi + 0.1 * span, grid_size)
    dens = [gaussian_density(arr[c], grid) for c in moving]
    write_table(path, ["chain", name, "density"],
                np.repeat(np.array(moving, dtype=int) + 1, grid.size),
                np.tile(grid, len(moving)), np.concatenate(dens) if dens else grid)


def diagnose_archives(archives, rhat_threshold: float = 1.1,
                      ess_threshold: float = 1000.0) -> list:
    """Per-column diagnostics over all chains of a run.

    Returns one dict per stored scalar with rhat, ess, posterior mean
    and sd, and the list of triggered flags.  Columns that never move
    (for instance a count locked at its posterior mode) are marked
    'constant' and not treated as failures.  Every statistic is computed
    for all scalars at once, from one (scalars, chains, draws) block.
    The thresholds must be finite: a NaN one would flag nothing.
    """
    for name, value in (("rhat_threshold", rhat_threshold), ("ess_threshold", ess_threshold)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    names = archives[0].scalar_names
    n = archives[0].scalars.shape[0]
    _check_length(n)
    block = np.empty((len(names), len(archives), n))
    for chain, archive in enumerate(archives):
        block[:, chain] = archive.scalars.T
    pooled = block.reshape(len(names), -1)
    constant = _negligible(block.var(axis=2).mean(axis=1), np.abs(block).max(axis=(1, 2)))
    stats = zip(names, _split_rhat(block).tolist(), _effective_sample_size(block).tolist(),
                pooled.mean(axis=1).tolist(), pooled.std(axis=1, ddof=1).tolist(),
                constant.tolist())
    rows = []
    for name, rhat, ess, mean, sd, fixed in stats:
        if fixed:
            flags = ["constant"]
        else:
            flags = [flag for flag, bad in (("rhat", rhat > rhat_threshold),
                                            ("ess", ess < ess_threshold)) if bad]
        rows.append({"name": name, "rhat": rhat, "ess": ess, "mean": mean, "sd": sd,
                     "flags": flags, "ok": fixed or not flags})
    return rows


def format_diagnostics_table(rows: list) -> str:
    header = ["parameter", "mean", "sd", "rhat", "ess", "flags"]
    table = [header]
    for row in rows:
        table.append([row["name"], f"{row['mean']:.4g}", f"{row['sd']:.4g}",
                      f"{row['rhat']:.4f}", f"{row['ess']:.1f}",
                      ",".join(row["flags"]) or "-"])
    return format_text_table(table)


def write_diagnostics_csv(path, rows: list) -> None:
    columns = [[row[key] for row in rows] for key in ("name", "mean", "sd", "rhat", "ess")]
    write_table(path, ["parameter", "mean", "sd", "rhat", "ess", "flags"], *columns,
                [";".join(row["flags"]) for row in rows])
