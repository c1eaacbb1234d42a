"""Functional PCA for multi-subject, multi-channel curve data.

A dataset holds one curve per (subject, channel) on a shared, strictly
increasing time grid, with each subject assigned to one of two groups
(codes 2 and 3).  Curves can be presmoothed with penalized B-splines and
decomposed into a mean curve plus orthonormal eigenfunctions; per-curve
scores are the quadrature inner products of the centred curves with the
eigenfunctions.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .smoothing import CurveSmoother
from .tables import grid_index, read_header, read_table, scatter, write_table

GROUP_A = 2
GROUP_B = 3


def check_group_codes(group_codes: np.ndarray) -> None:
    """Raise unless every group code is GROUP_A or GROUP_B."""
    # return_index: a plain np.unique imports numpy.ma (numpy 2.4)
    if not set(np.unique(group_codes, return_index=True)[0]) <= {GROUP_A, GROUP_B}:
        raise ValueError(f"group codes must be {GROUP_A} or {GROUP_B}")


def trapezoid_weights(time_grid: np.ndarray) -> np.ndarray:
    """Quadrature weights so that sum(w * f) approximates the integral of f."""
    w = np.zeros_like(time_grid)
    d = np.diff(time_grid)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


@dataclass
class FunctionalDataset:
    """Curves values[u, i, t] for subject u, channel i, time t.

    group_codes[u] is 2 (group A, first condition) or 3 (group B, second).
    subject_ids are data.csv's labels; a run's files number subjects from
    1 in dataset order, which read_dataset_csv takes from first appearance.
    """

    values: np.ndarray
    time_grid: np.ndarray
    group_codes: np.ndarray
    subject_ids: list = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        self.group_codes = np.asarray(self.group_codes, dtype=int)
        if self.values.ndim != 3:
            raise ValueError("values must have shape (subjects, channels, timepoints)")
        u, _, t = self.values.shape
        if self.time_grid.shape != (t,):
            raise ValueError("time grid length does not match the curves")
        if np.any(np.diff(self.time_grid) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if self.group_codes.shape != (u,):
            raise ValueError("one group code per subject required")
        check_group_codes(self.group_codes)
        if not self.subject_ids:
            self.subject_ids = list(range(1, u + 1))
        if len(self.subject_ids) != u:
            raise ValueError("one subject id per subject required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")

    @property
    def n_subjects(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @property
    def n_timepoints(self) -> int:
        return self.values.shape[2]

    @property
    def n_group_a(self) -> int:
        return int(np.sum(self.group_codes == GROUP_A))


@dataclass
class EigenBasis:
    """Truncated eigendecomposition of a functional dataset.

    eigenfunctions has shape (T, K) and is orthonormal under the trapezoid
    inner product on time_grid; scores[u, i, k] are the inner products of
    the centred curves with each eigenfunction.
    """

    mean_curve: np.ndarray
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray
    var_explained: np.ndarray
    scores: np.ndarray
    time_grid: np.ndarray

    @property
    def n_components(self) -> int:
        return self.eigenfunctions.shape[1]

    def component_norms(self) -> np.ndarray:
        w = trapezoid_weights(self.time_grid)
        return np.sqrt(np.einsum("tk,t,tk->k", self.eigenfunctions, w, self.eigenfunctions))


def smooth_dataset(raw: FunctionalDataset, basis_size: int,
                   penalty: float | None = None) -> FunctionalDataset:
    """Smooth every curve with a penalized cubic B-spline fit.

    penalty=None selects a single shared penalty by generalized
    cross-validation over a fixed log-spaced grid.
    """
    if penalty is not None and not 0 <= penalty < np.inf:
        raise ValueError("penalty must be nonnegative and finite")
    smoother = CurveSmoother(raw.time_grid, basis_size)
    if penalty is None:
        penalty = smoother.select_penalty(raw.values)
    fitted = smoother.fit(raw.values, penalty)
    return FunctionalDataset(fitted, raw.time_grid.copy(), raw.group_codes.copy(),
                             list(raw.subject_ids))


def _fix_signs(eigenfunctions: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Ties on magnitude resolve to the lowest time index (argmax order).
    """
    out = eigenfunctions.copy()
    for k in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, k])))
        if out[idx, k] < 0:
            out[:, k] = -out[:, k]
    return out


def fit_fpca(data: FunctionalDataset, var_threshold: float = 0.8,
             min_component_share: float = 0.15) -> EigenBasis:
    """Eigendecomposition of the pooled covariance of all centred curves.

    With c the (N, T) matrix of the N = U*n centred curves and w the
    trapezoid weights, the eigenvectors v of the symmetric T x T matrix
    (c * sqrt(w))' (c * sqrt(w)) = (N - 1) W^1/2 V W^1/2, the discretized
    covariance operator (Ramsay & Silverman 2005, section 8.4), give the
    eigenfunctions v / sqrt(w) and, divided by N - 1, the eigenvalues.
    Forming the matrix costs O(N * T^2) and its eigendecomposition
    O(T^3).

    The number of retained components is the smallest K whose cumulative
    variance share reaches var_threshold, then restricted to components
    whose individual share is at least min_component_share; at least one
    component is always kept.
    """
    if not 0 < var_threshold <= 1:
        raise ValueError("var_threshold must lie in (0, 1]")
    u, n, t = data.values.shape
    flat = data.values.reshape(u * n, t)
    mean_curve = flat.mean(axis=0)
    centred = flat - mean_curve
    total = float(np.sum(centred ** 2))
    if total <= 1e-12 * flat.size:
        raise ValueError("data has (numerically) zero variance around the mean curve")

    # T x T eigenproblem of the covariance operator under the trapezoid
    # inner product; eigh returns ascending eigenvalues, and rounding can
    # push those of the null space just below zero.
    w = trapezoid_weights(data.time_grid)
    sqrt_w = np.sqrt(w)
    weighted = centred * sqrt_w
    gram_values, gram_vectors = np.linalg.eigh(weighted.T @ weighted)
    eigenvalues_all = np.maximum(gram_values[::-1], 0.0) / (u * n - 1)
    shares = eigenvalues_all / eigenvalues_all.sum()
    cumulative = np.cumsum(shares)
    k_cum = int(np.searchsorted(cumulative, var_threshold - 1e-12) + 1)
    k_share = int(np.sum(shares >= min_component_share))
    k = max(1, min(k_cum, k_share))

    eigenfunctions = _fix_signs(gram_vectors[:, ::-1][:, :k] / sqrt_w[:, None])
    scores = centred @ (w[:, None] * eigenfunctions)
    return EigenBasis(
        mean_curve=mean_curve,
        eigenfunctions=eigenfunctions,
        eigenvalues=eigenvalues_all[:k],
        var_explained=shares[:k],
        scores=scores.reshape(u, n, k),
        time_grid=data.time_grid.copy(),
    )


def reconstruct(basis: EigenBasis, subject: int, channel: int) -> np.ndarray:
    """Mean curve plus the score-weighted sum of eigenfunctions."""
    return basis.mean_curve + basis.eigenfunctions @ basis.scores[subject, channel]


# ---------------------------------------------------------------------------
# CSV / JSON interfaces
# ---------------------------------------------------------------------------

def write_dataset_csv(data: FunctionalDataset, path) -> None:
    """One row per curve: subject_id, channel_id, group_code, T values."""
    u, n, t = data.values.shape
    write_table(path, ["subject_id", "channel_id", "group_code"]
                + [f"t{j}" for j in range(t)],
                np.repeat(np.array(data.subject_ids, dtype=object), n),
                np.tile(np.arange(1, n + 1), u), np.repeat(data.group_codes, n),
                data.values.reshape(u * n, t))


def write_time_grid_csv(time_grid: np.ndarray, path) -> None:
    write_table(path, ["time"], time_grid)


def read_time_grid_csv(path) -> np.ndarray:
    return read_table(path, ["time"])[:, 0]


def read_dataset_csv(path, time_grid_path) -> FunctionalDataset:
    time_grid = read_time_grid_csv(time_grid_path)
    t = time_grid.size
    header = read_header(path)
    if header[:3] != ["subject_id", "channel_id", "group_code"]:
        raise ValueError(f"{path}: expected subject_id, channel_id, group_code columns")
    if len(header) != 3 + t:
        raise ValueError(f"{path}: {len(header) - 3} value columns but "
                         f"{t} time points in the grid")
    rows = read_table(path, header, dtype=[("sid", object), ("channel", np.int64),
                                           ("group", np.int64), ("values", float, (t,))])
    if not rows.size:
        raise ValueError(f"{path}: no curves found")
    # subjects numbered in order of first appearance
    sids, first, subject = np.unique(rows["sid"].astype(str), return_index=True,
                                     return_inverse=True)
    appearance = np.argsort(first)
    sids, first, subject = sids[appearance], first[appearance], np.argsort(appearance)[subject]
    channel, group = rows["channel"], rows["group"][first]
    bad = np.flatnonzero(rows["group"] != group[subject])
    if bad.size:
        raise ValueError(f"{path}: subject {sids[subject[bad[0]]]} has inconsistent group codes")
    order = np.lexsort((channel, subject))
    repeats = order[1:][(np.diff(subject[order]) == 0) & (np.diff(channel[order]) == 0)]
    if repeats.size:
        row = repeats.min()
        raise ValueError(f"{path}: subject {sids[subject[row]]} repeats channel {channel[row]}")
    per_subject = np.bincount(subject)
    if np.any(per_subject != per_subject[0]):
        raise ValueError(f"{path}: subjects have unequal channel counts")
    extra = order[~np.isin(channel[order], channel[subject == 0])]
    if extra.size:
        raise ValueError(f"{path}: subject {sids[subject[extra[0]]]} has channel "
                         f"{channel[extra[0]]}, which subject {sids[0]} lacks")
    values = rows["values"][order].reshape(sids.size, per_subject[0], t)
    # an id is an int only where it is that int's own text, so that "007"
    # and "7" stay two subjects; str.isdigit also passes digits int() rejects
    ids = [int(s) if s.isascii() and s.removeprefix("-").isdigit() and str(int(s)) == s
           else s for s in sids.tolist()]
    return FunctionalDataset(values, time_grid, group, ids)


def write_basis(basis: EigenBasis, directory) -> None:
    """JSON header plus CSV matrices (mean curve, eigenfunctions, scores)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = {
        "n_components": basis.n_components,
        "eigenvalues": [float(v) for v in basis.eigenvalues],
        "var_explained": [float(v) for v in basis.var_explained],
        "n_subjects": int(basis.scores.shape[0]),
        "n_channels": int(basis.scores.shape[1]),
    }
    (directory / "basis.json").write_text(json.dumps(header, indent=2) + "\n")
    u, n, k = basis.scores.shape
    eig_header, score_header = _basis_headers(k)
    write_table(directory / "mean_curve.csv", ["time", "mean"],
                basis.time_grid, basis.mean_curve)
    write_table(directory / "eigenfunctions.csv", eig_header,
                basis.time_grid, basis.eigenfunctions)
    write_table(directory / "scores.csv", score_header,
                grid_index((u, n), 1), basis.scores.reshape(u * n, k))


def _basis_headers(k: int) -> tuple:
    """Headers of eigenfunctions.csv and scores.csv (subjects and channels
    counted from 1)."""
    return (["time"] + [f"component_{j + 1}" for j in range(k)],
            ["subject", "channel"] + [f"score_{j + 1}" for j in range(k)])


def read_basis(directory) -> EigenBasis:
    directory = Path(directory)
    header = json.loads((directory / "basis.json").read_text())
    k = header["n_components"]
    u, n = header["n_subjects"], header["n_channels"]
    eig_header, score_header = _basis_headers(k)
    mean_rows = read_table(directory / "mean_curve.csv", ["time", "mean"])
    eig_rows = read_table(directory / "eigenfunctions.csv", eig_header)
    if not np.array_equal(eig_rows[:, 0], mean_rows[:, 0]):
        raise ValueError(f"{directory / 'eigenfunctions.csv'}: time column differs "
                         f"from mean_curve.csv")
    path = directory / "scores.csv"
    scores = scatter(path, read_table(path, score_header), (u, n), 1, complete=True)
    return EigenBasis(
        mean_curve=mean_rows[:, 1],
        eigenfunctions=eig_rows[:, 1:],
        eigenvalues=np.array(header["eigenvalues"]),
        var_explained=np.array(header["var_explained"]),
        scores=scores,
        time_grid=mean_rows[:, 0],
    )
