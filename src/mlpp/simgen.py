"""Synthetic multi-subject functional data with planted cluster structure.

Two orthonormal eigenfunctions carry the signal.  Dimension-1 scores
separate the two groups by location; dimension-2 scores separate them by
scale, and a small set of outlier subjects draws its dimension-2 scores
from a two-cluster mixture over channels.  The planted subject-level and
recording-level partitions are returned alongside the data.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .fpca import GROUP_A, GROUP_B, FunctionalDataset, _fix_signs, trapezoid_weights
from .model import CAT_GROUP, CAT_SUBJECT, fitted_curves

MIN_TIMEPOINTS = 16


@dataclass
class SimDesign:
    n_subjects: int = 40
    n_channels: int = 50
    n_timepoints: int = 150
    n_group_a: int = 20
    snr: float = 6.0
    seed: int = 0
    # Planted structure.  Dimension 1 separates groups by mean; dimension 2
    # separates them by spread (a second mean split cannot survive pooled
    # fPCA re-extraction: between-group covariance has rank 1).  Scales are
    # chosen so every within-cluster sd exceeds 1: the empirical prior
    # recipe bounds cluster sds by squared empirical sds, which only
    # behaves sensibly above that point.  The outlier mixture centers sit
    # at 1.5 group-B sds so the subject-specific structure stays
    # identifiable against the wide group cluster.
    dim1_means: tuple = (5.0, -5.0)
    dim1_sd: float = 1.5
    dim2_sds: tuple = (1.2, 3.0)
    outlier_subjects: tuple | None = None
    outlier_offset: float = 9.0
    outlier_sd: float = 0.9

    def __post_init__(self):
        if self.n_timepoints < MIN_TIMEPOINTS:
            raise ValueError(f"need at least {MIN_TIMEPOINTS} time points")
        if self.n_channels < 1:
            raise ValueError("n_channels must be at least 1")
        if not 1 <= self.n_group_a < self.n_subjects:
            raise ValueError("n_group_a must be in [1, n_subjects)")
        if not self.snr > 0:
            raise ValueError("snr must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.outlier_subjects is None:
            u = self.n_subjects
            self.outlier_subjects = (1, 2, u - 1, u)
        bad = [s for s in self.outlier_subjects if not 1 <= s <= self.n_subjects]
        if bad:
            raise ValueError(f"outlier subject ids out of range: {bad}")


@dataclass
class GroundTruth:
    """Planted labels and signals for one simulated dataset.

    subject_kind[u, k] is 2 for a group-cluster subject and 3 for a
    subject-specific one; subject_labels[u, k] gives the planted
    subject-level partition per dimension.  channel_labels maps
    "subject_id:dim" to the planted recording-level partition for
    subject-specific subjects.
    """

    subject_kind: np.ndarray
    subject_labels: np.ndarray
    channel_labels: dict
    scores: np.ndarray
    noiseless: np.ndarray
    noise_sd: float
    design: SimDesign = field(repr=False)


def make_eigenfunctions(n_timepoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair on [0, 1]: a bump and a bimodal wave.

    Returns (time_grid, eigenfunctions) with eigenfunctions of shape
    (T, 2), orthonormal under the trapezoid inner product, each scaled so
    its largest-magnitude value is positive.
    """
    if n_timepoints < MIN_TIMEPOINTS:
        raise ValueError(f"need at least {MIN_TIMEPOINTS} time points")
    t = np.linspace(0.0, 1.0, n_timepoints)
    bump = np.exp(-0.5 * ((t - 0.40) / 0.10) ** 2)
    wave = np.exp(-0.5 * ((t - 0.22) / 0.08) ** 2) - np.exp(-0.5 * ((t - 0.68) / 0.10) ** 2)
    w = trapezoid_weights(t)

    def _normalize(f):
        return f / np.sqrt(np.sum(w * f * f))

    phi1 = _normalize(bump)
    phi2 = _normalize(wave - np.sum(w * wave * phi1) * phi1)
    return t, _fix_signs(np.column_stack([phi1, phi2]))


def _decorrelate(scores: np.ndarray) -> np.ndarray:
    """Exactly center both score columns and orthogonalize column 2.

    The adjustment is O(1/sqrt(N)) and keeps the planted clusters intact,
    while making the planted eigenfunctions exactly the eigenvectors of
    the sample covariance (so a noiseless round trip through fPCA is
    exact up to numerical precision).
    """
    flat = scores.reshape(-1, scores.shape[-1]).copy()
    flat -= flat.mean(axis=0)
    beta = flat[:, 0] @ flat[:, 1] / (flat[:, 0] @ flat[:, 0])
    flat[:, 1] -= beta * flat[:, 0]
    return flat.reshape(scores.shape)


def simulate(design: SimDesign) -> tuple[FunctionalDataset, GroundTruth]:
    rng = np.random.default_rng(design.seed)
    u, n = design.n_subjects, design.n_channels
    time_grid, basis = make_eigenfunctions(design.n_timepoints)
    group_codes = np.where(np.arange(u) < design.n_group_a, GROUP_A, GROUP_B)
    outliers = set(design.outlier_subjects)

    scores = np.empty((u, n, 2))
    subject_kind = np.full((u, 2), CAT_GROUP, dtype=int)
    subject_labels = np.empty((u, 2), dtype=int)
    channel_labels: dict = {}
    half = design.outlier_offset / 2.0
    for s in range(u):
        a_side = group_codes[s] == GROUP_A
        m1 = design.dim1_means[0] if a_side else design.dim1_means[1]
        scores[s, :, 0] = rng.normal(m1, design.dim1_sd, size=n)
        subject_labels[s, 0] = 0 if a_side else 1
        if (s + 1) in outliers:
            split = rng.permutation(n) < n // 2
            centers = np.where(split, -half, half)
            scores[s, :, 1] = rng.normal(centers, design.outlier_sd)
            subject_kind[s, 1] = CAT_SUBJECT
            subject_labels[s, 1] = 2 + s
            channel_labels[f"{s + 1}:2"] = split.astype(int)
        else:
            sd2 = design.dim2_sds[0] if a_side else design.dim2_sds[1]
            scores[s, :, 1] = rng.normal(0.0, sd2, size=n)
            subject_labels[s, 1] = 0 if a_side else 1

    scores = _decorrelate(scores)
    noiseless = fitted_curves(scores, basis)
    signal_var = float(np.var(noiseless))
    noise_sd = 0.0 if np.isinf(design.snr) else np.sqrt(signal_var / design.snr)
    values = noiseless + rng.normal(0.0, noise_sd, size=noiseless.shape) \
        if noise_sd > 0 else noiseless.copy()

    data = FunctionalDataset(values, time_grid, group_codes)
    truth = GroundTruth(subject_kind, subject_labels, channel_labels,
                        scores, noiseless, noise_sd, design)
    return data, truth


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_truth_json(truth: GroundTruth, path) -> None:
    doc = {
        "subject_kind": truth.subject_kind.tolist(),
        "subject_labels": truth.subject_labels.tolist(),
        "channel_labels": {k: v.tolist() if isinstance(v, np.ndarray) else list(v)
                           for k, v in truth.channel_labels.items()},
        "scores": truth.scores.tolist(),
        "noise_sd": truth.noise_sd,
        "design": asdict(truth.design),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_truth_json(path) -> GroundTruth:
    """A write_truth_json file; a ValueError names the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        design_doc = doc["design"]
        for key in ("dim1_means", "dim2_sds", "outlier_subjects"):
            design_doc[key] = tuple(design_doc[key])
        return GroundTruth(
            subject_kind=np.array(doc["subject_kind"], dtype=int),
            subject_labels=np.array(doc["subject_labels"], dtype=int),
            channel_labels={k: np.array(v, dtype=int)
                            for k, v in doc["channel_labels"].items()},
            scores=np.array(doc["scores"]),
            noiseless=np.empty(0),
            noise_sd=doc["noise_sd"],
            design=SimDesign(**design_doc),
        )
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
