"""Convergence diagnostics for archived chains.

Split potential scale reduction and autocorrelation-based effective
sample sizes, computed directly from the stored scalar draws, plus
trace/density exports for visual checks.
"""
from __future__ import annotations

import numpy as np

from .tables import grid_index, write_table

_CONSTANT_TOL = 1e-12


def _as_matrix(chains) -> np.ndarray:
    arr = np.asarray(chains, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("chains must be a 1-D draw vector or a (chains, draws) array")
    return arr


def split_rhat(chains) -> float:
    """Split potential scale reduction factor.

    Each chain is halved (dropping a trailing draw when the length is
    odd) and the usual between/within variance ratio is computed over
    the resulting sequences.  Constant chains return 1.0.
    """
    arr = _as_matrix(chains)
    m, n = arr.shape
    half = n // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain")
    pieces = np.concatenate([arr[:, :half], arr[:, n - half:]], axis=0)
    within = pieces.var(axis=1, ddof=1)
    w = within.mean()
    if w < _CONSTANT_TOL * max(1.0, float(np.abs(pieces).max()) ** 2):
        return 1.0
    b = half * pieces.mean(axis=1).var(ddof=1)
    var_plus = (half - 1) / half * w + b / half
    return float(np.sqrt(var_plus / w))


def _autocovariances(arr: np.ndarray) -> np.ndarray:
    """Mean autocovariance over chains at every lag, biased normalization.

    Computed by FFT with zero padding (circular correlation of the padded
    sequence equals the linear one), so long chains stay O(n log n).
    """
    m, n = arr.shape
    size = 2 * n
    acov = np.zeros(n)
    for row in arr:
        centred = row - row.mean()
        spec = np.fft.rfft(centred, size)
        acov += np.fft.irfft(spec * np.conj(spec), size)[:n] / n
    return acov / m

def effective_sample_size(chains) -> float:
    """Effective sample size from the pairwise-truncated autocorrelation sum.

    For several chains the correlation at each lag is estimated from the
    pooled within/between variances, so that non-mixing chains are
    penalized; a single chain uses its own normalized autocovariance.
    Summation stops at the first nonpositive pair of successive lags.
    Constant chains count every draw.
    """
    arr = _as_matrix(chains)
    m, n = arr.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    within = arr.var(axis=1, ddof=1)
    w = within.mean()
    if w < _CONSTANT_TOL * max(1.0, float(np.abs(arr).max()) ** 2):
        return float(m * n)
    acov = _autocovariances(arr)
    if m > 1:
        b = n * arr.mean(axis=1).var(ddof=1)
        var_plus = (n - 1) / n * w + b / n
        rho = 1.0 - (w - acov * n / (n - 1)) / var_plus
    else:
        rho = acov / acov[0]
    rho[0] = 1.0
    tau = 1.0
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        t += 2
    return float(m * n / tau)


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
    'constant' and not treated as failures.
    """
    names = archives[0].scalar_names
    rows = []
    for j, name in enumerate(names):
        chains = np.stack([a.scalars[:, j] for a in archives])
        pooled = chains.ravel()
        flags = []
        constant = chains.var(axis=1).mean() < _CONSTANT_TOL * max(
            1.0, float(np.abs(chains).max()) ** 2)
        rhat = split_rhat(chains)
        ess = effective_sample_size(chains)
        if constant:
            flags.append("constant")
        else:
            if rhat > rhat_threshold:
                flags.append("rhat")
            if ess < ess_threshold:
                flags.append("ess")
        rows.append({"name": name, "rhat": float(rhat), "ess": float(ess),
                     "mean": float(pooled.mean()), "sd": float(pooled.std(ddof=1)),
                     "flags": flags, "ok": not any(f in ("rhat", "ess")
                                                   for f in flags)})
    return rows


def format_diagnostics_table(rows: list) -> str:
    header = ["parameter", "mean", "sd", "rhat", "ess", "flags"]
    table = [header]
    for row in rows:
        table.append([row["name"], f"{row['mean']:.4g}", f"{row['sd']:.4g}",
                      f"{row['rhat']:.4f}", f"{row['ess']:.1f}",
                      ",".join(row["flags"]) or "-"])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(val.rjust(w) for val, w in zip(row, widths))
             for row in table]
    return "\n".join(lines)


def write_diagnostics_csv(path, rows: list) -> None:
    columns = [[row[key] for row in rows] for key in ("name", "mean", "sd", "rhat", "ess")]
    write_table(path, ["parameter", "mean", "sd", "rhat", "ess", "flags"], *columns,
                [";".join(row["flags"]) for row in rows])
