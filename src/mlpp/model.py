"""State and densities of the multilevel score-clustering model.

Each (subject, dimension) pair carries a category in {1, 2, 3}: its
scores all share the common cluster, all share the subject's group
cluster, or are split channel-by-channel among subject-specific
clusters labelled 4 .. 3+J (J = max_subject_clusters).  The G groups
have codes 2 .. G+1; G is the group count of the sticks, and of the
hyperparameters a state is drawn from.  The state keeps the parameters
of every cluster of every dimension in one flat grid, (K, 1 + G + U*J)
in cluster_index slot order, and states are built, drawn
and saved only as such grids: cluster_prior gives the matching prior
grids (chain_constants bundles them with the cluster_index slots and
the precision truncation points for a chain's scans), and a snapshot
holds one clusters.csv row per grid cell.  The per-level arrays are
views of the grid, and the flat label and slot of each (subject,
channel, dimension) are derived from the category, the subject's group
code and the channel allocation whenever they are needed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .fpca import GROUP_A
from .hyperparams import HyperParams
from .tables import grid_index, read_table, scatter, write_table

LOG_2PI = float(np.log(2.0 * np.pi))

CAT_COMMON = 1
CAT_GROUP = 2
CAT_SUBJECT = 3
FIRST_SUBJECT_LABEL = 4
# validate_state's tolerance on the sums of the category and stick weights
WEIGHT_SUM_TOL = 1e-12


@dataclass
class ModelState:
    """All latent quantities of the model at one iteration.

    Shapes: scores (U, n, K); subject_alloc (U, K) in {1,2,3};
    channel_alloc (U, n, K) in {4..3+J} (drawn only where subject_alloc
    is 3; elsewhere stale labels that nothing reads); cluster_mean /
    cluster_prec (K, 1 + G + U*J) in cluster_index slot order;
    category_weights (K, 3); raw_sticks / stick_weights (K, G, J) with rows
    renormalized to sum 1.

    The per-level parameters are views of the cluster grids: common
    (K,), group indexed [k, group] in group-code order (2 .. G+1), subject
    indexed [u, k, j-4].  cluster_label is derived on each access.
    """

    scores: np.ndarray
    noise_prec: float
    subject_alloc: np.ndarray
    channel_alloc: np.ndarray
    cluster_mean: np.ndarray
    cluster_prec: np.ndarray
    category_weights: np.ndarray
    raw_sticks: np.ndarray
    stick_weights: np.ndarray
    group_codes: np.ndarray

    @property
    def n_subjects(self) -> int:
        return self.scores.shape[0]

    @property
    def n_channels(self) -> int:
        return self.scores.shape[1]

    @property
    def n_components(self) -> int:
        return self.scores.shape[2]

    @property
    def n_groups(self) -> int:
        return self.raw_sticks.shape[1]

    @property
    def max_subject_clusters(self) -> int:
        return self.raw_sticks.shape[2]

    # read-only views of the cluster grids; writes through them land in
    # the grid
    common_mean = property(lambda self: self.cluster_mean[:, 0])
    common_prec = property(lambda self: self.cluster_prec[:, 0])
    group_mean = property(lambda self: self.cluster_mean[:, 1:1 + self.n_groups])
    group_prec = property(lambda self: self.cluster_prec[:, 1:1 + self.n_groups])
    subject_mean = property(lambda self: self._subject_view(self.cluster_mean))
    subject_prec = property(lambda self: self._subject_view(self.cluster_prec))

    def _subject_view(self, grid: np.ndarray) -> np.ndarray:
        """(U, K, J) view of the subject slots of a cluster grid."""
        k = grid.shape[0]
        return np.swapaxes(grid[:, 1 + self.n_groups:].reshape(k, self.n_subjects, -1),
                           0, 1)

    @property
    def cluster_label(self) -> np.ndarray:
        return derive_cluster_labels(self.subject_alloc, self.channel_alloc,
                                     self.group_codes, self.n_groups)

    def copy(self) -> "ModelState":
        """A copy of every array; noise_prec is passed on as it is."""
        arrays = {f.name: getattr(self, f.name).copy() for f in fields(self)
                  if f.name != "noise_prec"}
        return ModelState(noise_prec=self.noise_prec, **arrays)


def derive_cluster_labels(subject_alloc: np.ndarray, channel_alloc: np.ndarray,
                          group_codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Flat cluster label per (subject, channel, dimension).

    Category 1 maps to label 1, category 2 to the subject's group code
    (2 .. G+1 for G = n_groups), category 3 to the subject's cluster of
    its channel allocation, labelled from G+2 on: the allocation itself
    when G is 2.
    """
    subject_alloc = np.asarray(subject_alloc)
    channel_alloc = np.asarray(channel_alloc)
    # return_index: a plain np.unique imports numpy.ma (numpy 2.4)
    if not set(np.unique(subject_alloc, return_index=True)[0]) \
            <= {CAT_COMMON, CAT_GROUP, CAT_SUBJECT}:
        raise ValueError("subject allocations must be 1, 2 or 3")
    if np.any(channel_alloc < FIRST_SUBJECT_LABEL):
        raise ValueError(f"channel allocations must be >= {FIRST_SUBJECT_LABEL}")
    per_subject = np.where(subject_alloc == CAT_GROUP,
                           group_codes[:, None], subject_alloc)
    labels = np.where((subject_alloc == CAT_SUBJECT)[:, None, :],
                      channel_alloc + (GROUP_A + n_groups - FIRST_SUBJECT_LABEL),
                      per_subject[:, None, :])
    return labels.astype(int)


def cluster_slots(group_codes: np.ndarray, n_groups: int, n_subject_clusters: int,
                  n_components: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cluster_index slots of a state's categories: the common
    cluster's (K,), each subject's group cluster's (U, K), and the offset
    (U, K) to which a category-3 channel label is added to give the slot
    of that subject's cluster."""
    u, g, j, k = len(group_codes), n_groups, n_subject_clusters, n_components
    common = (1 + g + u * j) * np.arange(k)
    group = common + 1 + (np.asarray(group_codes) - GROUP_A)[:, None]
    subject = common + (1 + g - FIRST_SUBJECT_LABEL + j * np.arange(u))[:, None]
    return common, group, subject


def cluster_index(state: ModelState, slots: tuple | None = None) -> np.ndarray:
    """Flat index of the cluster each score belongs to, (U, n, K).

    Every dimension has 1 + G + U*J clusters: slot 0 the common cluster,
    slots 1 .. G the group clusters in group-code order, slot
    1 + G + u*J + j subject u's cluster j; dimension k's slots start at
    k * (1 + G + U*J).  slots are the state's cluster_slots, taken here
    when not given.
    """
    if slots is None:
        slots = cluster_slots(state.group_codes, state.n_groups,
                              state.max_subject_clusters, state.n_components)
    common, group, subject = slots
    category = state.subject_alloc
    own = category == CAT_SUBJECT
    # one slot per (subject, dimension); the channel label adds in category 3
    base = np.where(own, subject, np.where(category == CAT_GROUP, group, common))
    return state.channel_alloc * own[:, None, :] + base[:, None, :]


def cluster_prior(hp: HyperParams, group_codes: np.ndarray) -> np.ndarray:
    """Prior constants of every cluster in cluster_index slot order:
    location and precision of the normal mean prior and the bound of the
    uniform sd prior, as one (3, K, 1 + G + U*J) array that unpacks into
    the three grids.  Hyperparameters with fewer groups than the codes
    need raise a ValueError that names both counts."""
    k, j = hp.n_components, hp.max_subject_clusters
    gidx = np.asarray(group_codes) - GROUP_A
    needed = int(gidx.max(initial=-1)) + 1
    if hp.n_groups < needed:
        raise ValueError(f"the hyperparameters have {hp.n_groups} group(s), but group "
                         f"code {GROUP_A + needed - 1} needs {needed}")
    common = np.array([np.zeros(k), hp.common_mean_prec, hp.common_sd_bound])
    group = np.array([hp.group_mean_loc, hp.group_mean_prec, hp.group_sd_bound])
    subject = np.array([hp.subject_mean_loc, hp.subject_mean_prec,
                        hp.subject_sd_bound])[:, :, gidx]         # (3, K, U)
    return np.concatenate([common[:, :, None], group,
                           np.repeat(subject, j, axis=2)], axis=2)


@dataclass(frozen=True)
class ChainConstants:
    """What every scan of one chain reads but never changes, built once
    from the hyperparameters and the group codes by chain_constants.  The
    arrays are read-only; no ModelState holds them."""

    prior: np.ndarray       # (3, K, 1 + G + U*J) cluster_prior grids
    prec_floor: np.ndarray  # (K, 1 + G + U*J) precision truncation points, sd_bound^-2
    slots: tuple            # cluster_slots


def chain_constants(hp: HyperParams, group_codes: np.ndarray) -> ChainConstants:
    """The ChainConstants of a chain with these hyperparameters and group
    codes."""
    group_codes = np.asarray(group_codes)
    prior = cluster_prior(hp, group_codes)
    consts = ChainConstants(
        prior=prior, prec_floor=prior[2] ** -2.0,
        slots=cluster_slots(group_codes, hp.n_groups, hp.max_subject_clusters,
                            hp.n_components))
    for arr in (consts.prior, consts.prec_floor, *consts.slots):
        arr.flags.writeable = False
    return consts


def cluster_params_for_labels(state: ModelState, index: np.ndarray | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Gather (mean, precision) per (subject, channel, dimension) label,
    given the state's cluster_index (taken here when not given)."""
    if index is None:
        index = cluster_index(state)
    return state.cluster_mean.ravel()[index], state.cluster_prec.ravel()[index]


def fitted_curves(scores: np.ndarray, eigenfunctions: np.ndarray) -> np.ndarray:
    """Fitted centred curves (U, n, T): per channel, the score-weighted sum
    of the eigenfunctions (T, K)."""
    return np.einsum("uik,tk->uit", scores, eigenfunctions)


def residual_ssr(scores: np.ndarray, centred_values: np.ndarray,
                 eigenfunctions: np.ndarray) -> float:
    """Residual sum of squares of the centred curves about the fitted ones,
    summed directly over every time point."""
    return float(np.sum((centred_values - fitted_curves(scores, eigenfunctions)) ** 2))


def noise_loglik(ssr: float, n_obs: int, noise_prec: float) -> float:
    """Log likelihood of n_obs iid Gaussian residuals with precision
    noise_prec and residual sum of squares ssr."""
    return 0.5 * n_obs * (np.log(noise_prec) - LOG_2PI) - 0.5 * noise_prec * ssr


def data_loglik(state: ModelState, centred_values: np.ndarray,
                eigenfunctions: np.ndarray) -> float:
    """Gaussian log likelihood of the centred curves given scores and noise.

    centred_values has shape (U, n, T): observed curves minus the fPCA
    mean curve. The fitted curve per channel is the score-weighted sum of
    eigenfunctions; every time point carries iid noise with precision
    noise_prec.
    """
    ssr = residual_ssr(state.scores, centred_values, eigenfunctions)
    return noise_loglik(ssr, centred_values.size, state.noise_prec)


def norm_logpdf(x, mean, prec):
    """Normal log density of x with the given mean and precision."""
    return 0.5 * (np.log(prec) - LOG_2PI) - 0.5 * prec * (x - mean) ** 2


def scores_logprior(state: ModelState) -> float:
    """Log density of all scores under their cluster normals."""
    return float(np.sum(norm_logpdf(state.scores, *cluster_params_for_labels(state))))


def sticks_to_weights(raw_sticks: np.ndarray) -> np.ndarray:
    """Truncated stick-breaking weights, renormalized to sum exactly 1.

    Operates on the last axis: w_j = p_j * prod_{l<j} (1 - p_l), then
    divided by the total.
    """
    raw = np.asarray(raw_sticks, dtype=float)
    if (raw <= 0).any() or (raw >= 1).any():
        raise ValueError("stick proportions must lie strictly inside (0, 1)")
    remaining = np.cumprod(1.0 - raw, axis=-1)
    weights = raw.copy()
    weights[..., 1:] *= remaining[..., :-1]
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def validate_state(state: ModelState, hp: HyperParams | None = None) -> None:
    """Raise if any structural invariant is violated."""
    u, n, k = state.scores.shape
    g, j = state.n_groups, state.max_subject_clusters
    if not np.all(np.isfinite(state.scores)):
        raise ValueError("scores must be finite")
    if not (np.isfinite(state.noise_prec) and state.noise_prec > 0):
        raise ValueError("noise precision must be finite and positive")
    if np.any((state.group_codes < GROUP_A) | (state.group_codes >= GROUP_A + g)):
        raise ValueError(f"group codes must lie in {GROUP_A} .. {GROUP_A + g - 1} "
                         f"for the {g} groups of the sticks")
    if np.any((state.subject_alloc < CAT_COMMON) | (state.subject_alloc > CAT_SUBJECT)):
        raise ValueError("subject allocations must be 1, 2 or 3")
    if np.any(state.channel_alloc < FIRST_SUBJECT_LABEL) or \
            np.any(state.channel_alloc >= FIRST_SUBJECT_LABEL + j):
        raise ValueError("channel allocations out of range")
    if state.cluster_mean.shape != (k, 1 + g + u * j) or \
            state.cluster_prec.shape != state.cluster_mean.shape:
        raise ValueError("cluster grids must have shape (K, 1 + G + U*J)")
    if np.any(state.cluster_prec <= 0):
        raise ValueError("cluster precisions must be positive")
    if np.max(np.abs(state.category_weights.sum(axis=1) - 1.0)) > WEIGHT_SUM_TOL:
        raise ValueError("category weights must sum to 1 per dimension")
    if np.max(np.abs(state.stick_weights.sum(axis=2) - 1.0)) > WEIGHT_SUM_TOL:
        raise ValueError("stick weights must sum to 1 per (dimension, group)")
    if hp is not None:
        bound = cluster_prior(hp, state.group_codes)[2]
        over = np.argwhere(state.cluster_prec ** -0.5 >= bound)
        if over.size:
            level = "common" if over[0, 1] == 0 else "group" if over[0, 1] <= g \
                else "subject"
            raise ValueError(f"a {level}-cluster sd exceeds its prior bound")


# ---------------------------------------------------------------------------
# State snapshots (JSON for scalars and labels, CSV for real tensors, with
# 0-based indices)
# ---------------------------------------------------------------------------

_JSON_ARRAYS = ("subject_alloc", "channel_alloc", "group_codes", "category_weights",
                "raw_sticks")
_INT_ARRAYS = ("subject_alloc", "channel_alloc", "group_codes")
_SCORE_HEADER = ["subject", "channel", "dim", "value"]
_CLUSTER_HEADER = ["dim", "slot", "mean", "prec"]


def save_state(state: ModelState, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"noise_prec": state.noise_prec,
           **{name: getattr(state, name).tolist() for name in _JSON_ARRAYS},
           "shape": list(state.scores.shape) + [state.max_subject_clusters]}
    (directory / "state.json").write_text(json.dumps(doc) + "\n")
    write_table(directory / "scores.csv", _SCORE_HEADER,
                grid_index(state.scores.shape, 0), state.scores.ravel())
    write_table(directory / "clusters.csv", _CLUSTER_HEADER,
                grid_index(state.cluster_mean.shape, 0), state.cluster_mean.ravel(),
                state.cluster_prec.ravel())


def load_state(directory) -> ModelState:
    """Read a save_state snapshot; every array must have the shape that
    state.json's shape (U, n, K, J) and the sticks' group count G imply,
    and the state must pass validate_state.  A ValueError names the file
    at fault."""
    directory = Path(directory)
    path = directory / "state.json"
    try:
        doc = json.loads(path.read_text())
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    shape = doc.get("shape") if isinstance(doc, dict) else None
    if not (isinstance(shape, list) and len(shape) == 4
            and all(type(size) is int and size > 0 for size in shape)):
        raise ValueError(f"{path}: shape must list the four sizes U, n, K, J")
    u, n, k, j = shape
    noise_prec = doc.get("noise_prec")
    if type(noise_prec) not in (int, float):
        raise ValueError(f"{path}: noise_prec is missing or not a number")
    arrays = {}
    for name in _JSON_ARRAYS:
        try:
            arrays[name] = np.array(doc[name], dtype=int if name in _INT_ARRAYS else float)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{path}: {name} is missing or not a numeric array") from None
    sticks = arrays["raw_sticks"].shape
    g = sticks[1] if len(sticks) == 3 else "G"      # G, from the sticks
    for name, shape in zip(_JSON_ARRAYS, [(u, k), (u, n, k), (u,), (k, 3), (k, g, j)]):
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: {name} has shape {list(arrays[name].shape)}, "
                             f"expected [{', '.join(map(str, shape))}]")
    path = directory / "scores.csv"
    scores = scatter(path, read_table(path, _SCORE_HEADER), (u, n, k), 0,
                     complete=True)[..., 0]
    path = directory / "clusters.csv"
    cluster_mean, cluster_prec = np.moveaxis(scatter(
        path, read_table(path, _CLUSTER_HEADER), (k, 1 + g + u * j), 0, complete=True),
        2, 0).copy()
    try:
        state = ModelState(
            scores=scores, noise_prec=float(noise_prec),
            subject_alloc=arrays["subject_alloc"], channel_alloc=arrays["channel_alloc"],
            cluster_mean=cluster_mean, cluster_prec=cluster_prec,
            category_weights=arrays["category_weights"], raw_sticks=arrays["raw_sticks"],
            stick_weights=sticks_to_weights(arrays["raw_sticks"]),
            group_codes=arrays["group_codes"])
        validate_state(state)
    except ValueError as err:
        raise ValueError(f"{directory}: {err}") from None
    return state
