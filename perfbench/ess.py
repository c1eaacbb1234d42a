"""Frozen copy of the effective-sample-size estimator behind ``ess_per_s``.

This is mlpp.diagnostics.effective_sample_size (pairwise-truncated
autocorrelation sum, pooled within/between variances for several
chains) as it stood when the benchmark was defined.  Keeping it here
means a later change to mlpp.diagnostics cannot redefine the metric;
run.py records whether the two still agree on every run.
"""
from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

CONSTANT_TOL = 1e-12


def is_constant(chains: np.ndarray) -> bool:
    """The diagnostics module's rule for a series that never moves."""
    return bool(chains.var(axis=1).mean() < CONSTANT_TOL * max(
        1.0, float(np.abs(chains).max()) ** 2))


def _autocovariances(arr: np.ndarray) -> np.ndarray:
    m, n = arr.shape
    size = next_fast_len(2 * n)
    acov = np.zeros(n)
    for row in arr:
        centred = row - row.mean()
        spec = rfft(centred, size)
        acov += irfft(spec * np.conj(spec), size)[:n] / n
    return acov / m


def effective_sample_size(chains) -> float:
    arr = np.asarray(chains, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    m, n = arr.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    w = arr.var(axis=1, ddof=1).mean()
    if w < CONSTANT_TOL * max(1.0, float(np.abs(arr).max()) ** 2):
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

