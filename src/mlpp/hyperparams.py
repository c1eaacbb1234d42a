"""Empirical hyperparameters for the multilevel clustering model.

All prior constants are derived from the empirical fPC scores alone, so
calibration draws nothing: the exact (ideal) bootstrap variances of score
means set the precision of the cluster-mean priors, squared standard
deviations bound the uniform priors on cluster standard deviations, and
the range rule sets the spread of the subject-specific mean prior.  Six
named sensitivity scenarios perturb these recipes.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from .fpca import GROUP_A, GROUP_B, EigenBasis

GROUP_CODES = (GROUP_A, GROUP_B)

DEFAULT_CATEGORY_CONC = (9.0 / 20.0, 9.0 / 20.0, 2.0 / 20.0)
DEFAULT_STICK_CONC = 1.0
DEFAULT_NOISE_PREC_SHAPE = 0.01
DEFAULT_NOISE_PREC_RATE = 0.01
DEFAULT_MAX_SUBJECT_CLUSTERS = 10

SCENARIOS = ("S1", "S2", "S3", "S4", "S5", "S6")


@dataclass
class HyperParams:
    """Prior constants, one entry per eigendimension (and group where needed).

    Group-indexed arrays have two columns in group-code order (2 then 3).
    sd_bound fields are the upper limits of the uniform priors on cluster
    standard deviations; *_mean_prec are precisions of the normal priors
    on cluster means.
    """

    common_mean_prec: np.ndarray      # (K,)
    common_sd_bound: np.ndarray       # (K,)
    group_mean_loc: np.ndarray        # (K, 2)
    group_mean_prec: np.ndarray       # (K, 2)
    group_sd_bound: np.ndarray        # (K, 2)
    subject_mean_loc: np.ndarray      # (K, 2), shared across subjects and labels
    subject_mean_prec: np.ndarray     # (K, 2)
    subject_sd_bound: np.ndarray      # (K, 2)
    category_conc: np.ndarray = field(
        default_factory=lambda: np.array(DEFAULT_CATEGORY_CONC))
    stick_conc: np.ndarray | None = None      # (K,)
    noise_prec_shape: float = DEFAULT_NOISE_PREC_SHAPE
    noise_prec_rate: float = DEFAULT_NOISE_PREC_RATE
    max_subject_clusters: int = DEFAULT_MAX_SUBJECT_CLUSTERS

    def __post_init__(self):
        for name in ("common_mean_prec", "common_sd_bound", "group_mean_loc",
                     "group_mean_prec", "group_sd_bound", "subject_mean_loc",
                     "subject_mean_prec", "subject_sd_bound", "category_conc"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.stick_conc is None:
            self.stick_conc = np.full(self.n_components, DEFAULT_STICK_CONC)
        self.stick_conc = np.asarray(self.stick_conc, dtype=float)
        self.validate()

    @property
    def n_components(self) -> int:
        return self.common_mean_prec.shape[0]

    def validate(self) -> None:
        k = self.n_components
        if self.common_sd_bound.shape != (k,):
            raise ValueError("common-cluster fields must have one entry per dimension")
        for name in ("group_mean_loc", "group_mean_prec", "group_sd_bound",
                     "subject_mean_loc", "subject_mean_prec", "subject_sd_bound"):
            if getattr(self, name).shape != (k, 2):
                raise ValueError(f"{name} must have shape (n_components, 2)")
        if self.category_conc.shape != (3,):
            raise ValueError("category_conc must have 3 entries")
        if self.stick_conc.shape != (k,):
            raise ValueError("stick_conc must have one entry per dimension")
        positives = ("common_mean_prec", "common_sd_bound", "group_mean_prec",
                     "group_sd_bound", "subject_mean_prec", "subject_sd_bound",
                     "category_conc", "stick_conc", "noise_prec_shape",
                     "noise_prec_rate")
        for name in positives + ("group_mean_loc", "subject_mean_loc"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if name in positives and np.any(arr <= 0):
                raise ValueError("precisions, bounds and concentrations must be positive")
        clusters = self.max_subject_clusters
        if not isinstance(clusters, numbers.Integral) or isinstance(clusters, bool):
            raise ValueError(f"max_subject_clusters must be an integer, got {clusters!r}")
        if clusters < 1:
            raise ValueError("max_subject_clusters must be at least 1")


# Resamples per block in _bootstrap_mean_var, which bounds the gathered
# values held at once to _BOOT_BLOCK x sample_size.
_BOOT_BLOCK = 64


def _bootstrap_mean_var(rng: np.random.Generator, values: np.ndarray,
                        sample_size: int, reps: int) -> float:
    """Variance (ddof 1) of the means of reps resamples, with replacement,
    of sample_size values: the Monte Carlo estimate of
    exact_bootstrap_mean_var, kept as its reference.  The int32 indices
    consume the generator as int64 ones would, and the means are taken a
    block of resamples at a time, so that no (reps, sample_size) float
    array is ever built; a row's mean does not depend on its block."""
    idx = rng.integers(0, values.size, size=(reps, sample_size), dtype=np.int32)
    means = np.concatenate([values[idx[i:i + _BOOT_BLOCK]].mean(axis=1)
                            for i in range(0, reps, _BOOT_BLOCK)])
    return float(np.var(means, ddof=1))


def exact_bootstrap_mean_var(values: np.ndarray, sample_size: int) -> float:
    """Ideal bootstrap variance of the mean of sample_size draws, with
    replacement, from values: np.var(values) / sample_size.

    A draw X from the empirical distribution of the N values has mean
    xbar = sum(values) / N and variance s2 = sum((values - xbar)^2) / N,
    the plug-in (ddof 0) variance.  The m draws of a resample are
    independent, so the variance of their mean is s2 / m (Efron &
    Tibshirani 1993, An Introduction to the Bootstrap).  This is the
    limit that _bootstrap_mean_var approaches as reps grows.
    """
    return float(np.var(values) / sample_size)


def estimate_hyperparams(basis: EigenBasis, group_codes: np.ndarray,
                         seed: int = 0) -> HyperParams:
    """Empirical prior constants from fPC scores, a function of the scores
    and group codes alone.

    Per dimension: the common-mean precision is 1 / (2 x the exact
    bootstrap variance of the pooled score mean); each group-mean
    precision uses half-size resamples, ceil(group size / 2), of that
    group's scores; sd bounds are squared empirical standard deviations;
    the subject-level mean precision is 1 / (range/2.5)^2 of the group's
    scores.  seed has no effect: the constants draw nothing.  It is kept
    for callers that still pass one.
    """
    group_codes = np.asarray(group_codes, dtype=int)
    u, n, k = basis.scores.shape
    if group_codes.shape != (u,):
        raise ValueError("one group code per subject required")
    for code in GROUP_CODES:
        if np.sum(group_codes == code) * n < 2:
            raise ValueError(f"need at least 2 scores in group {code}")

    common_mean_prec = np.empty(k)
    common_sd_bound = np.empty(k)
    group_mean_loc = np.empty((k, 2))
    group_mean_prec = np.empty((k, 2))
    group_sd_bound = np.empty((k, 2))
    subject_mean_prec = np.empty((k, 2))
    subject_sd_bound = np.empty((k, 2))
    for dim in range(k):
        pooled = basis.scores[:, :, dim].ravel()
        if np.std(pooled) <= 0:
            raise ValueError(f"scores in dimension {dim + 1} have zero variance")
        common_mean_prec[dim] = 1.0 / (2.0 * exact_bootstrap_mean_var(
            pooled, pooled.size))
        common_sd_bound[dim] = np.std(pooled, ddof=1) ** 2
        for col, code in enumerate(GROUP_CODES):
            grp = basis.scores[group_codes == code, :, dim].ravel()
            if np.std(grp) <= 0:
                raise ValueError(
                    f"group {code} scores in dimension {dim + 1} have zero variance")
            group_mean_loc[dim, col] = grp.mean()
            half = int(np.ceil(grp.size / 2))
            group_mean_prec[dim, col] = 1.0 / (2.0 * exact_bootstrap_mean_var(
                grp, half))
            group_sd_bound[dim, col] = np.std(grp, ddof=1) ** 2
            subject_mean_prec[dim, col] = 1.0 / ((np.ptp(grp) / 2.5) ** 2)
            subject_sd_bound[dim, col] = group_sd_bound[dim, col]

    return HyperParams(
        common_mean_prec=common_mean_prec,
        common_sd_bound=common_sd_bound,
        group_mean_loc=group_mean_loc,
        group_mean_prec=group_mean_prec,
        group_sd_bound=group_sd_bound,
        subject_mean_loc=group_mean_loc.copy(),
        subject_mean_prec=subject_mean_prec,
        subject_sd_bound=subject_sd_bound,
    )


def apply_scenario(hp: HyperParams, scenario: str | None = None,
                   overrides: dict | None = None) -> HyperParams:
    """Return a copy with a named sensitivity scenario and/or overrides.

    S1 raises the empirical sd to 2.2 (instead of 2) in every sd bound;
    S2 doubles the bootstrap factor in the common/group mean priors;
    S3/S4 change the category concentration; S5/S6 halve/double the
    stick concentration.  Overrides patch fields by name afterwards.
    """
    doc = to_dict(hp)
    if scenario is not None:
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
        if scenario == "S1":
            for name in ("common_sd_bound", "group_sd_bound", "subject_sd_bound"):
                doc[name] = (np.asarray(doc[name]) ** 1.1).tolist()
        elif scenario == "S2":
            for name in ("common_mean_prec", "group_mean_prec"):
                doc[name] = (np.asarray(doc[name]) / 2.0).tolist()
        elif scenario == "S3":
            doc["category_conc"] = [0.4, 0.4, 0.2]
        elif scenario == "S4":
            doc["category_conc"] = [1.0 / 3.0] * 3
        elif scenario == "S5":
            doc["stick_conc"] = (np.asarray(doc["stick_conc"]) * 0.0 + 0.5).tolist()
        elif scenario == "S6":
            doc["stick_conc"] = (np.asarray(doc["stick_conc"]) * 0.0 + 2.0).tolist()
    if overrides:
        unknown = set(overrides) - set(doc)
        if unknown:
            raise ValueError(f"unknown hyperparameter fields: {sorted(unknown)}")
        doc.update(overrides)
    return from_dict(doc)


def to_dict(hp: HyperParams) -> dict:
    doc = asdict(hp)
    return {key: val.tolist() if isinstance(val, np.ndarray) else val
            for key, val in doc.items()}


def from_dict(doc: dict) -> HyperParams:
    return HyperParams(**doc)


def save_hyperparams(hp: HyperParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(hp), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_hyperparams(path) -> HyperParams:
    """A save_hyperparams file; a ValueError names the file."""
    try:
        with open(path) as fh:
            return from_dict(json.load(fh))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
